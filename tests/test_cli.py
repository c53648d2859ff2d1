from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import ctsat
from ctsat.cli import main
from ctsat.formula import GenParams, generate, parse_dimacs

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


def test_python_m_ctsat_runs_the_cli():
    # `python -m ctsat` works from a source checkout, with no installed
    # `ctsat` script
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctsat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "ctsat", "gen", "--n", "7", "--m", "12",
         "--mode", "sat", "--seed", "4"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert parse_dimacs(out.stdout) == generate(
        GenParams(n=7, m=12, mode="sat", seed=4))


def test_gen_rejects_bad_params(capsys):
    code, _, err = run(capsys, "gen", "--n", "5", "--m", "4", "--mode", "unsat")
    assert code == 1
    assert "core" in err


def test_gen_refuses_more_variables_than_classify_reads(tmp_path, capsys,
                                                        monkeypatch):
    # classify rejects a DIMACS header above 10000 variables, so gen
    # refuses such an n before generating anything or writing a file
    import ctsat.cli as cli_mod

    def no_generate(params):
        raise AssertionError("generate called for a refused n")

    monkeypatch.setattr(cli_mod, "generate", no_generate)
    target = tmp_path / "big.cnf"
    code, out, err = run(capsys, "gen", "--n", "20000", "--m", "10",
                         "-o", str(target))
    assert (code, out) == (1, "")
    assert "n <= 10000" in err
    assert not target.exists()


def test_gen_and_difftest_refuse_a_planted_assignment_no_clause_avoids(
        tmp_path, capsys):
    # fraction 0 marks every entry 0, which the all-0 assignment planted
    # by seed 1 (and instance 1 of the difftest below) falsifies: both
    # commands exit 1 with a message instead of redrawing forever, and
    # the sweep is refused before it creates its output directory
    target = tmp_path / "never.cnf"
    code, out, err = run(capsys, "gen", "--n", "3", "--m", "1", "--neg",
                         "0", "--mode", "sat", "--seed", "1",
                         "-o", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "planted assignment 000" in err
    assert not target.exists()
    code, out, err = run(capsys, "difftest", "--n-range", "5..5",
                         "--m-ratio", "3..3", "--count", "2", "--neg", "0",
                         "--seed", "30", "--out", str(tmp_path / "D"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "planted assignment 00000" in err
    assert not (tmp_path / "D").exists()


def test_difftest_refuses_a_fraction_that_keeps_almost_no_clause(tmp_path,
                                                                  capsys):
    # instance 1 plants 000 in sat mode, and fraction 1e-9 keeps a drawn
    # clause with a chance of 3e-9: the sweep is refused before it
    # creates its output directory instead of redrawing for hours
    code, out, err = run(capsys, "difftest", "--n-range", "3..3",
                         "--m-ratio", "1..1", "--count", "2", "--neg", "1e-9",
                         "--seed", "0", "--out", str(tmp_path / "D"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "planted assignment 000" in err
    assert not (tmp_path / "D").exists()


def test_oracle_both_engines(capsys):
    for engine in ("dpll", "brute"):
        code, out, _ = run(capsys, "oracle", str(FIXTURES / "worked5.cnf"),
                           "--engine", engine)
        assert code == 10
        assert "verdict: satisfiable" in out
    code, out, _ = run(capsys, "oracle", str(FIXTURES / "worked5.cnf"),
                       "--engine", "brute")
    assert "models: 22" in out


def test_oracle_brute_reports_the_bound(tmp_path, capsys):
    target = tmp_path / "n25.cnf"
    code, _, _ = run(capsys, "gen", "--n", "25", "--m", "30", "-o", str(target))
    assert code == 0
    code, out, err = run(capsys, "oracle", str(target), "--engine", "brute")
    assert code == 1
    assert out == ""
    assert err == "error: brute force bound exceeded: n=25 > 24\n"


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


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_difftest_rejects_jobs_below_one(jobs, tmp_path, capsys):
    code, out, err = run(capsys, "difftest", "--n-range", "5..6",
                         "--m-ratio", "3..4", "--count", "2",
                         "--out", str(tmp_path / "dt"), "--jobs", jobs)
    assert code == 1
    assert out == ""
    assert err == "error: jobs must be at least 1, got %s\n" % jobs
    assert not (tmp_path / "dt").exists()


@pytest.mark.parametrize("bad, message", [
    (["--m-range", "20..3"], "bad m range (20, 3)"),
    (["--m-range", "0..3"], "bad m range (0, 3)"),
    (["--m-ratio=-1.0..-0.5"], "bad m ratio (-1.0, -0.5)"),
    (["--m-ratio", "0..2"], "bad m ratio (0.0, 2.0)"),
    (["--m-ratio", "4..3"], "bad m ratio (4.0, 3.0)"),
    (["--m-ratio", "3..inf"], "bad m ratio (3.0, inf)"),
    (["--m-ratio", "3..4", "--neg", "1.5"],
     "negation fraction 1.5 outside [0, 1]"),
    (["--m-ratio", "3..4", "--neg=-0.1"],
     "negation fraction -0.1 outside [0, 1]"),
], ids=["m_range_inverted", "m_range_zero", "m_ratio_negative",
        "m_ratio_zero", "m_ratio_inverted", "m_ratio_infinite", "neg_above_one",
        "neg_below_zero"])
def test_difftest_rejects_bad_ranges(bad, message, tmp_path, capsys):
    code, out, err = run(capsys, "difftest", "--n-range", "5..6", *bad,
                         "--count", "2", "--out", str(tmp_path / "dt"))
    assert code == 1
    assert out == ""
    assert err == "error: %s\n" % message
    assert not (tmp_path / "dt").exists()


@pytest.mark.parametrize("bad", [["--n-range", "5..", "--m-range", "10..12"],
                                 ["--n-range", "5..6", "--m-ratio", "3.."]],
                         ids=["n_range", "m_ratio"])
def test_difftest_refuses_a_range_with_an_empty_end(bad, tmp_path, capsys):
    # `A` alone means `A..A`, but `A..` is an error, not `A..A`
    with pytest.raises(SystemExit) as exc:
        main(["difftest", *bad, "--count", "2", "--out", str(tmp_path / "dt")])
    assert exc.value.code == 1
    assert "invalid" in capsys.readouterr().err
    assert not (tmp_path / "dt").exists()


def test_trace_matches_golden_files(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "worked8.cnf"),
                       "--trace", str(tmp_path / "tr"),
                       "--plan", str(FIXTURES / "worked8_plan.txt"))
    assert code == 10
    produced = sorted(p.name for p in (tmp_path / "tr").iterdir())
    expected = sorted(p.name for p in GOLDEN.iterdir())
    assert produced == expected
    for name in expected:
        assert (tmp_path / "tr" / name).read_text() == \
            (GOLDEN / name).read_text(), name


@pytest.mark.parametrize("kind", ["cts_stage", "no_clauses"])
def test_trace_verdict_file_matches_printed_lines(kind, tmp_path, capsys):
    target = tmp_path / "input.cnf"
    if kind == "cts_stage":
        # empties at the cts stage, with an empty tier
        run(capsys, "gen", "--n", "5", "--m", "8", "--mode", "unsat",
            "--seed", "1", "-o", str(target))
        expected, exit_code = "empty-tier: 1", 20
    else:
        target.write_text("p cnf 3 0\n")
        expected, exit_code = "witness: 000", 10
    code, out, _ = run(capsys, "classify", str(target),
                       "--trace", str(tmp_path / "tr"))
    assert code == exit_code
    assert expected in out.splitlines()
    verdict_files = list((tmp_path / "tr").glob("*_verdict.txt"))
    assert len(verdict_files) == 1
    assert verdict_files[0].read_text() == out


def test_trace_refuses_a_directory_holding_an_earlier_trace(tmp_path,
                                                            capsys):
    first, second = tmp_path / "first.cnf", tmp_path / "second.cnf"
    run(capsys, "gen", "--n", "12", "--m", "50", "--seed", "3",
        "-o", str(first))
    run(capsys, "gen", "--n", "5", "--m", "8", "--mode", "unsat",
        "--seed", "1", "-o", str(second))
    trace = tmp_path / "tr"
    run(capsys, "classify", str(first), "--trace", str(trace))
    before = {p.name: p.read_text() for p in trace.iterdir()}
    code, out, err = run(capsys, "classify", str(second),
                         "--trace", str(trace))
    assert code == 1
    assert out == ""
    assert err.startswith("error: trace directory ")
    assert {p.name: p.read_text() for p in trace.iterdir()} == before


def test_trace_subcommand_is_gone(tmp_path, capsys):
    # `classify --trace DIR` is the one way to dump the stages
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(FIXTURES / "worked8.cnf"),
              "--out", str(tmp_path / "tr")])
    assert exc.value.code == 1
    assert not (tmp_path / "tr").exists()


@pytest.mark.parametrize("flag", [["--bogus"], ["--granularity", "coarse"],
                                  ["--strategy", "simple"]],
                         ids=["bogus", "granularity", "strategy"])
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


ALL_CLAUSES = " ".join(str(i) for i in range(1, 45))


@pytest.mark.parametrize("text, message", [
    ("clauses: 1 2 3", "clauses line before perm line"),
    ("perm: 1 2 x\nclauses: 1", "invalid literal"),
    ("perm: 1 2 3 4 5 6 7 7\nclauses: 1", "not a permutation"),
    ("perm: 1 2 3 4 5 6 7 8\nclauses: 1 2 99", "clause index 99 out of range"),
    # clause 6 is over x1, x2, x5
    ("perm: 1 2 3 4 5 6 7 8\nclauses: 6", "not compact"),
    ("perm: 1 2 3\nclauses: " + ALL_CLAUSES, "permutation of 3 variables"),
], ids=["clauses_before_perm", "bad_integer", "repeated_variable",
        "index_out_of_range", "not_compact", "perm_length"])
def test_plan_file_errors(text, message, tmp_path, capsys):
    # a bad plan exits 1 with `<plan path>: <message>`, as DIMACS errors do
    bad = tmp_path / "plan.txt"
    bad.write_text(text + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(FIXTURES / "worked8.cnf"), "--plan", str(bad)])
    assert str(exc.value.code).startswith("%s: " % bad)
    assert message in str(exc.value.code)


def test_rejected_plan_leaves_no_trace_directory(tmp_path, capsys):
    bad = tmp_path / "plan.txt"
    bad.write_text("perm: 1 2 3\nclauses: %s\n" % ALL_CLAUSES)
    trace = tmp_path / "tr"
    with pytest.raises(SystemExit) as exc:
        main(["classify", str(FIXTURES / "worked8.cnf"), "--trace", str(trace),
              "--plan", str(bad)])
    assert "permutation of 3 variables for n=8" in str(exc.value.code)
    assert not trace.exists()
