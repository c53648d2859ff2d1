from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

import pytest

import ctsat
from ctsat.difftest import DifftestParams, instance_params
from ctsat.formula import Clause, GenParams, TabularFormula, generate
from ctsat.oracle import OracleResult, brute_force, dpll

from naive import sat_set


def test_brute_force_worked5(worked5):
    result = brute_force(worked5)
    assert result.satisfiable
    assert worked5.evaluate(result.witness) == 1
    # frozen regression value, established by this oracle's first run
    assert result.model_count == 22
    assert result.model_count == len(sat_set(worked5))


def test_brute_force_planted_unsat():
    f = generate(GenParams(n=8, m=20, mode="unsat", seed=4))
    result = brute_force(f)
    assert not result.satisfiable
    assert result.model_count == 0
    assert result.witness is None


def test_brute_force_empty_clause_list():
    f = TabularFormula(6, ())
    result = brute_force(f)
    assert result.satisfiable
    assert result.model_count == 64


def test_brute_force_bound_guard():
    f = TabularFormula(25, ())
    with pytest.raises(ValueError, match="bound"):
        brute_force(f)


def test_brute_force_witness_is_lowest_index(worked5):
    result = brute_force(worked5)
    assert result.witness == min(sat_set(worked5))


def test_brute_force_matches_the_naive_scan():
    rng = random.Random(4471)
    formulas = [TabularFormula(3, ())]
    for trial in range(330):
        n = 3 + trial % 10
        mode = ("free", "sat", "unsat")[trial // 10 % 3]
        m = rng.randint(8 if mode == "unsat" else 1, 5 * n)
        formulas.append(generate(GenParams(n=n, m=m, mode=mode, seed=trial)))
    unsat = 0
    for f in formulas:
        models = sat_set(f)
        result = brute_force(f)
        assert result.model_count == len(models)
        assert result.satisfiable == bool(models)
        if models:
            assert result.witness == min(models)
        else:
            assert result.witness is None
            unsat += 1
    assert 50 < unsat < len(formulas) - 50  # both outcomes well covered


def test_package_imports_only_the_standard_library():
    # __mp_main__ is multiprocessing's alias of __main__
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ctsat, ctsat.cli, ctsat.difftest, ctsat.oracle\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(m for m in loaded - sys.stdlib_module_names\n"
        "             if m not in ('ctsat', '__mp_main__')))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctsat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_dpll_ideal5_witness():
    lines = [(1, "000"), (1, "001"), (1, "101"), (1, "111"),
             (2, "000"), (2, "100"), (2, "101"), (2, "111"),
             (3, "010"), (3, "100"), (3, "111")]
    clauses = tuple(Clause(tuple((start + k, int(bits[k])) for k in range(3)))
                    for start, bits in lines)
    f = TabularFormula(5, clauses)
    result = dpll(f)
    assert result.satisfiable
    assert result.witness in {(0, 1, 1, 0, 1), (1, 0, 0, 1, 1)}


def test_dpll_planted_sat():
    for seed in range(8):
        f = generate(GenParams(n=12, m=40, mode="sat", seed=seed))
        result = dpll(f)
        assert result.satisfiable
        assert f.evaluate(result.witness) == 1


def test_dpll_stops_branching_once_every_clause_is_satisfied():
    # two decisions satisfy both clauses; the other 2,997 variables are
    # never branched on, and they read 0 in the witness
    f = TabularFormula(3000, (Clause.from_literals([1, 2, 3]),
                              Clause.from_literals([-1, 4, 5])))
    assert dpll(f).witness == (0, 0, 1) + (0,) * 2997


def test_dpll_search_depth_is_not_bounded_by_the_recursion_limit():
    # 300 variable-disjoint clauses (-x -y -z) take one decision each,
    # 0 on their first variable; a search that recursed once per
    # decision would exceed a limit of 100 frames above the caller
    f = TabularFormula(900, tuple(
        Clause.from_literals([-(3 * i + 1), -(3 * i + 2), -(3 * i + 3)])
        for i in range(300)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        result = dpll(f)
    finally:
        sys.setrecursionlimit(limit)
    assert result.witness == (0,) * 900


def test_dpll_agrees_with_brute_force():
    rng = random.Random(12321)
    for trial in range(1000):
        n = rng.randint(4, 16)
        m = rng.randint(1, 5 * n)
        mode = ("free", "sat", "unsat")[trial % 3]
        f = generate(GenParams(n=n, m=max(m, 8) if mode == "unsat" else m,
                               mode=mode, seed=trial))
        d = dpll(f)
        b = brute_force(f)
        assert d.satisfiable == b.satisfiable, "trial %d" % trial
        if d.satisfiable:
            assert f.evaluate(d.witness) == 1


def test_dpll_agrees_with_brute_force_large_samples():
    for trial, n in enumerate((20, 22, 24)):
        f = generate(GenParams(n=n, m=4 * n, mode="free", seed=500 + trial))
        assert dpll(f).satisfiable == brute_force(f).satisfiable


def test_oracle_result_invariants():
    with pytest.raises(ValueError):
        OracleResult(True, None)
    with pytest.raises(ValueError):
        OracleResult(False, (0, 0, 0))


def judged_params() -> list[GenParams]:
    """The benchmark's three instance families (as perfbench/workloads.py
    builds them), then free n = 20, 25, ..., 70 at m = round(4.26 n),
    seeds 0-2."""
    sweep = DifftestParams(n_range=(5, 16), m_ratio=(3.0, 6.0), count=1000,
                           seed=20240601)
    return ([instance_params(sweep, i) for i in range(sweep.count)]
            + [GenParams(n=40, m=240, mode="free", seed=s) for s in range(6)]
            + [GenParams(n=24, m=102, mode="sat", seed=s) for s in range(6)]
            + [GenParams(n=n, m=round(4.26 * n), mode="free", seed=s)
               for n in range(20, 71, 5) for s in range(3)])


def dpll_digest() -> str:
    """sha256 over one `(satisfiable, witness)` line per judged formula."""
    h = hashlib.sha256()
    for p in judged_params():
        result = dpll(generate(p))
        h.update(b"%r\n" % ((result.satisfiable, result.witness),))
    return h.hexdigest()[:16]


# computed once and never edited: a change to the search that moves any
# verdict or witness fails here
DPLL_PIN = "b9e9217362758609"


def test_dpll_results_match_the_pinned_digest():
    assert dpll_digest() == DPLL_PIN


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_oracle.py
    print(dpll_digest())
