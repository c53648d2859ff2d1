from __future__ import annotations

import json

import pytest

from ctsat.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden_trace"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_satisfiable_exit_code(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "worked8.cnf"))
    assert code == 10
    assert "verdict: satisfiable" in out
    witness = [l for l in out.splitlines() if l.startswith("witness:")]
    assert witness


def test_classify_worked5(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "worked5.cnf"))
    assert code == 10


def test_classify_with_plan(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "worked8.cnf"),
                       "--plan", str(FIXTURES / "worked8_plan.txt"))
    assert code == 10
    assert out.splitlines()[1].split()[-1] in ("00111011", "10111100")


def test_gen_unsat_pipes_to_unsat_verdict(tmp_path, capsys):
    target = tmp_path / "unsat.cnf"
    code, _, _ = run(capsys, "gen", "--n", "5", "--m", "9", "--mode", "unsat",
                     "--seed", "3", "-o", str(target))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(target))
    assert code == 20
    assert "verdict: unsatisfiable" in out


def test_gen_writes_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--n", "4", "--m", "2", "--seed", "1")
    assert code == 0
    assert out.startswith("c mode free seed 1\np cnf 4 2\n")


def test_gen_rejects_bad_params(capsys):
    code, _, err = run(capsys, "gen", "--n", "5", "--m", "4", "--mode", "unsat")
    assert code == 1
    assert "core" in err


def test_oracle_both_engines(capsys):
    for engine in ("dpll", "brute"):
        code, out, _ = run(capsys, "oracle", str(FIXTURES / "worked5.cnf"),
                           "--engine", engine)
        assert code == 10
        assert "verdict: satisfiable" in out
    code, out, _ = run(capsys, "oracle", str(FIXTURES / "worked5.cnf"),
                       "--engine", "brute")
    assert "models: 22" in out


def test_difftest_empty_run(tmp_path, capsys):
    code, out, _ = run(capsys, "difftest", "--n-range", "5..6",
                       "--m-ratio", "3..4", "--count", "0",
                       "--seed", "1", "--out", str(tmp_path / "dt"))
    assert code == 0
    assert "instances: 0" in out
    assert (tmp_path / "dt" / "report.json").exists()


def test_difftest_small_run(tmp_path, capsys):
    code, out, _ = run(capsys, "difftest", "--n-range", "5..7",
                       "--m-range", "15..25", "--count", "9",
                       "--seed", "4", "--out", str(tmp_path / "dt"),
                       "--jobs", "2")
    assert code == 0
    payload = json.loads((tmp_path / "dt" / "report.json").read_text())
    assert payload["instances"] == 9
    assert payload["soundness_violations"] == 0


def test_trace_matches_golden_files(tmp_path, capsys):
    code, out, _ = run(capsys, "trace", str(FIXTURES / "worked8.cnf"),
                       "--out", str(tmp_path / "tr"),
                       "--plan", str(FIXTURES / "worked8_plan.txt"))
    assert code == 0
    produced = sorted(p.name for p in (tmp_path / "tr").iterdir())
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert produced == expected
    for name in expected:
        assert (tmp_path / "tr" / name).read_text() == \
            (GOLDEN / name).read_text(), name


@pytest.mark.parametrize("flag", [["--bogus"], ["--granularity", "coarse"]],
                         ids=["bogus", "granularity"])
def test_unknown_flag_exits_one(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(FIXTURES / "worked8.cnf")] + flag)
    assert exc.value.code == 1


def test_missing_file_exits_one(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "/nonexistent/x.cnf"])


def test_malformed_dimacs_exits_with_message(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 1\n1 1 2 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(bad)])
    assert "repeated variable" in str(exc.value.code)


def test_plan_file_errors(tmp_path, capsys):
    bad = tmp_path / "plan.txt"
    bad.write_text("clauses: 1 2 3\n")
    with pytest.raises(SystemExit):
        main(["classify", str(FIXTURES / "worked8.cnf"), "--plan", str(bad)])
