from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from ctsat.difftest import (DifftestParams, MinimizationError, difftest,
                            instance_params, minimize)
from ctsat.formula import (MAX_DIMACS_VARIABLES, Clause, TabularFormula,
                           GenParams, generate, parse_dimacs)
from ctsat.oracle import dpll
from ctsat.rng import SplitMix64
from ctsat.sep import UNSATISFIABLE, Verdict


# -- minimization -----------------------------------------------------------------

def test_minimize_drops_irrelevant_clause():
    keep = Clause(((1, 0), (2, 0), (3, 0)))
    noise = Clause(((2, 1), (3, 1), (4, 1)))
    f = TabularFormula(4, (keep, noise))

    def predicate(g):
        return keep in g.clauses

    got = minimize(f, predicate)
    assert keep in got.clauses
    assert got.m == 1


UNSAT_PARAMS = [GenParams(n=6, m=30, mode="unsat", seed=78),
                GenParams(n=5, m=30, mode="free", seed=0),
                GenParams(n=6, m=36, mode="free", seed=1),
                GenParams(n=7, m=45, mode="free", seed=3),
                GenParams(n=8, m=52, mode="free", seed=2)]


def test_minimize_is_one_minimal_and_idempotent():
    # predicate: unsatisfiable core tracking via the oracle
    def predicate(h):
        return not dpll(h).satisfiable

    for p in UNSAT_PARAMS:
        got = minimize(generate(p), predicate)
        assert predicate(got)
        for i in range(got.m):
            weakened = TabularFormula(got.n,
                                      got.clauses[:i] + got.clauses[i + 1:])
            assert dpll(weakened).satisfiable, "not 1-minimal: %r" % (p,)
        assert minimize(got, predicate) == got


def test_minimize_tries_each_final_removal_once():
    # ddmin stops after a round that tried every single-clause removal
    # of its result; nothing tries them again
    for p in UNSAT_PARAMS:
        f = generate(p)
        seen = []

        def predicate(h):
            seen.append(h.clauses)
            # rejecting other n keeps the result uncompacted
            return h.n == f.n and not dpll(h).satisfiable

        got = minimize(f, predicate)
        tried = Counter(seen[seen.index(got.clauses):])
        for i in range(got.m):
            assert tried[got.clauses[:i] + got.clauses[i + 1:]] == 1, p


def test_minimize_compacts_variables():
    core = [Clause(((5, (c >> 2) & 1), (7, (c >> 1) & 1), (9, c & 1)))
            for c in range(8)]
    f = TabularFormula(10, tuple(core))

    def predicate(h):
        return not dpll(h).satisfiable

    got = minimize(f, predicate)
    assert got.n == 3
    assert got.m == 8


def test_minimize_requires_failing_input():
    f = generate(GenParams(n=5, m=10, mode="free", seed=1))
    with pytest.raises(ValueError, match="predicate does not hold"):
        minimize(f, lambda g: False)


def test_minimize_detects_flaky_predicate():
    f = generate(GenParams(n=5, m=12, mode="free", seed=2))
    flips = iter([True] + [False] * 1000)

    def predicate(g):
        return next(flips)

    with pytest.raises(MinimizationError):
        minimize(f, predicate)


# -- instance scheduling -------------------------------------------------------------

def test_instance_params_deterministic_and_in_range():
    params = DifftestParams(n_range=(5, 9), m_ratio=(3.0, 6.0), count=50,
                            seed=11)
    for i in range(50):
        a = instance_params(params, i)
        b = instance_params(params, i)
        assert a == b
        assert 5 <= a.n <= 9
        assert 3 * a.n <= a.m <= 6 * a.n
        assert a.seed == 11 + i


def test_difftest_params_validation():
    with pytest.raises(ValueError):
        DifftestParams(n_range=(5, 9), count=1, seed=0)
    with pytest.raises(ValueError):
        DifftestParams(n_range=(5, 9), m_range=(10, 20), m_ratio=(3.0, 4.0),
                       count=1, seed=0)
    with pytest.raises(ValueError):
        DifftestParams(n_range=(2, 9), m_ratio=(3.0, 4.0), count=1, seed=0)
    # an n that GenParams would refuse is refused when the sweep's
    # parameters are built, before any instance is generated
    with pytest.raises(ValueError, match="bad n range"):
        DifftestParams(n_range=(5, MAX_DIMACS_VARIABLES + 1),
                       m_ratio=(3.0, 4.0), count=1, seed=0)
    DifftestParams(n_range=(5, MAX_DIMACS_VARIABLES), m_ratio=(3.0, 4.0),
                   count=1, seed=0)
    with pytest.raises(ValueError, match="mode 'bogus' not one of"):
        DifftestParams(n_range=(5, 9), m_ratio=(3.0, 4.0), count=1, seed=0,
                       modes=("free", "bogus"))


def test_difftest_params_refuse_an_m_draw_wider_than_one_rng_draw():
    # instance_params draws m with one SplitMix64.below over the whole
    # range, which can cover at most 2**64 values; these are refused
    # when built, before any instance is drawn
    for m in ({"m_ratio": (3.0, 1e300)}, {"m_range": (1, 2 ** 70)}):
        with pytest.raises(ValueError, match="wider than 2\\*\\*64"):
            DifftestParams(n_range=(5, 6), count=3, seed=0, **m)
    params = DifftestParams(n_range=(5, 6), m_range=(1, 2 ** 64), count=3,
                            seed=0)
    assert 1 <= instance_params(params, 0).m <= 2 ** 64


def test_below_refuses_a_bound_above_two_to_the_64(monkeypatch):
    def no_draw(self):
        raise AssertionError("a refused bound drew a value")

    with monkeypatch.context() as patch:
        # a bound above 2**64 rejects every draw: fail fast, not forever
        patch.setattr(SplitMix64, "next_u64", no_draw)
        for bound in (2 ** 64 + 1, 0):
            with pytest.raises(ValueError, match="1..2\\*\\*64"):
                SplitMix64(7).below(bound)
    # the bounds it accepts keep their streams, pinned before the limit
    rng = SplitMix64(7)
    assert [rng.below(b) for b in (1, 2, 3, 10, 1000, 2 ** 63 + 1,
                                   2 ** 64 - 1, 2 ** 64)] == [
        0, 0, 0, 3, 674, 4601199455465548305, 8632209307422871798,
        6051947643683389182]


# -- harness ---------------------------------------------------------------------------

def test_difftest_empty_run(tmp_path):
    params = DifftestParams(n_range=(5, 6), m_ratio=(3.0, 4.0), count=0, seed=0)
    report = difftest(params, tmp_path)
    assert report.results == []
    assert (tmp_path / "report.json").exists()


def test_difftest_small_sweep_clean(tmp_path):
    params = DifftestParams(n_range=(5, 8), m_ratio=(3.0, 5.0), count=45,
                            seed=2024)
    report = difftest(params, tmp_path / "out")
    assert len(report.results) == 45
    assert report.soundness_violations == 0
    assert not report.disagreements
    assert report.failure_count == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["soundness_violations"] == 0
    assert payload["rng"] == "splitmix64"


def test_difftest_reports_are_byte_reproducible(tmp_path):
    params = DifftestParams(n_range=(5, 7), m_ratio=(3.0, 4.5), count=18,
                            seed=99)
    difftest(params, tmp_path / "a")
    difftest(params, tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


@pytest.mark.parametrize("params, digest", [
    (DifftestParams(n_range=(5, 7), m_ratio=(3.0, 4.5), count=18, seed=99),
     "0c854fc5c556f3a754b40ac577d5e1e195be538087b4957a2ca5ead4afdd0068"),
    (DifftestParams(n_range=(5, 6), m_range=(15, 25), count=6, seed=4,
                    negation_fraction=0.25, modes=("free", "sat")),
     "860269b6ae16ceed5d07525a25ff94997ff56fd7bc79042cf38f8d6dbd9f1931"),
], ids=["m_ratio", "m_range_modes"])
def test_difftest_report_bytes_pinned(params, digest, tmp_path):
    # the canonical report of fixed parameters, byte for byte: its
    # params are the dataclass fields, tuples written as lists
    difftest(params, tmp_path)
    assert hashlib.sha256(
        (tmp_path / "report.json").read_bytes()).hexdigest() == digest


def test_difftest_independent_of_worker_count(tmp_path):
    params = DifftestParams(n_range=(5, 7), m_ratio=(3.0, 4.5), count=16,
                            seed=31)
    difftest(params, tmp_path / "serial", jobs=1)
    difftest(params, tmp_path / "parallel", jobs=2)
    assert (tmp_path / "serial" / "report.json").read_bytes() == \
        (tmp_path / "parallel" / "report.json").read_bytes()


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and maps serially, so no process is started."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs, count, cpus, expected", [
    (64, 3, 8, 3),    # never more workers than instances
    (4, 6, 2, 2),     # nor more than CPUs
    (3, 6, 8, 3),
    (8, 1, 8, None),  # one instance, or one worker: no pool at all
    (1, 6, 8, None),
])
def test_difftest_pool_size_is_capped(tmp_path, monkeypatch, jobs, count,
                                      cpus, expected):
    import os

    import ctsat.difftest as difftest_mod

    monkeypatch.setattr(difftest_mod, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RecordingExecutor.created = []
    params = DifftestParams(n_range=(5, 6), m_ratio=(3.0, 4.0), count=count,
                            seed=7)
    difftest(params, tmp_path / "pooled", jobs=jobs)
    assert RecordingExecutor.created == ([] if expected is None else [expected])
    difftest(params, tmp_path / "serial", jobs=1)
    assert (tmp_path / "pooled" / "report.json").read_bytes() == \
        (tmp_path / "serial" / "report.json").read_bytes()


def test_difftest_detects_and_minimizes_injected_bug(tmp_path, monkeypatch):
    # harness self-test: a classifier stub that always answers unsat
    import ctsat.difftest as dt

    def broken_classify(formula, **kwargs):
        return Verdict(UNSATISFIABLE, stage="sep", tier=1)

    monkeypatch.setattr(dt, "classify", broken_classify)
    params = DifftestParams(n_range=(5, 6), m_ratio=(3.0, 4.0), count=3,
                            seed=7, modes=("sat",))
    report = difftest(params, tmp_path / "bug", jobs=1)
    assert report.disagreements
    assert report.findings
    finding = report.findings[0]
    archive = tmp_path / "bug" / finding["directory"]
    original = parse_dimacs((archive / "original.cnf").read_text())
    minimized = parse_dimacs((archive / "minimized.cnf").read_text())
    assert minimized.m <= original.m
    assert minimized.m == 1  # any satisfiable remnant reproduces the bug
    assert (archive / "seed.txt").read_text().strip().isdigit()
    assert "unsatisfiable" in (archive / "verdicts.txt").read_text()


def test_difftest_archive_replays(tmp_path, monkeypatch):
    import ctsat.difftest as dt

    real_classify = dt.classify

    def broken_classify(formula, **kwargs):
        v = real_classify(formula, **kwargs)
        if v.kind == "satisfiable" and formula.m % 2 == 0:
            return Verdict(UNSATISFIABLE, stage="sep", tier=1)
        return v

    monkeypatch.setattr(dt, "classify", broken_classify)
    params = DifftestParams(n_range=(5, 6), m_ratio=(3.0, 4.0), count=6,
                            seed=13, modes=("sat",))
    report = difftest(params, tmp_path / "rep", jobs=1)
    assert report.findings
    for finding in report.findings:
        archive = tmp_path / "rep" / finding["directory"]
        f = parse_dimacs((archive / "original.cnf").read_text())
        v = broken_classify(f)
        o = dpll(f)
        assert (v.kind == "satisfiable") != o.satisfiable
