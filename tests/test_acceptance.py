"""Acceptance gate: every shipped criterion, one pass/fail line each.

The per-criterion lines are echoed in the terminal summary of any run
(and printed live under `-s`). All tolerances are pinned here.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from ctsat.cts import Cts, Perm, unstack
from ctsat.decompose import Ctf, ctf_to_cts, decompose_with_plan
from ctsat.difftest import DifftestParams, difftest
from ctsat.formula import (GenParams, TabularFormula, bits_from_string,
                           bits_to_string, generate)
from ctsat.hyper import basic_graph
from ctsat.sep import (SATISFIABLE, UNSATISFIABLE, classify,
                       extract_jss_system, systemic_effective_procedure)

import conftest
import tabledata
from conftest import cts_from_rows, unsatisfiable_formula
from naive import joint_sat_set, sat_set, unify_cts


def ok(num: int, text: str) -> None:
    line = "ACCEPTANCE %2d: PASS - %s" % (num, text)
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def ideal5_ctf() -> Ctf:
    perm = Perm.identity(5)
    rows = [(0, "000"), (0, "001"), (0, "101"), (0, "111"),
            (1, "000"), (1, "100"), (1, "101"), (1, "111"),
            (2, "010"), (2, "100"), (2, "111")]
    masks = [0, 0, 0]
    for j, bits in rows:
        masks[j] |= 1 << int(bits, 2)
    return Ctf(perm, tuple(masks))


def test_criterion_01_ideal_ctf_transform(algebra_s2):
    ctf = ideal5_ctf()
    z = ctf_to_cts(ctf)
    assert z.tiers == algebra_s2.tiers and z.perm == algebra_s2.perm
    assert z.enumerate_assignments() == {bits_from_string("01101"),
                                         bits_from_string("10011")}
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        ctf_to_cts(ctf).enumerate_assignments()
    per_op = (time.perf_counter() - t0) / reps
    assert per_op < 1e-3, "took %.4f ms" % (per_op * 1e3)
    ok(1, "ideal 5-variable CTF transforms bit-exactly in %.3f ms" % (per_op * 1e3))


def test_criterion_02_algebra_worked_examples(algebra_s1, algebra_s2):
    def sets(s):
        return [set(s.tier_codes(j)) for j in range(len(s.tiers))]

    union = algebra_s1.union(algebra_s2)
    assert sets(union) == [{0b010, 0b011, 0b100},
                           {0b101, 0b110, 0b001},
                           {0b011, 0b100, 0b101}]
    meet = algebra_s1.intersect(algebra_s2)
    assert sets(meet) == [{0b011}, {0b110}, {0b101}]
    assert sets(union.concretize(3, 1)) == [{0b011}, {0b110}, {0b100, 0b101}]
    assert meet.concretize(5, 0).is_empty
    ok(2, "union/intersection/concretization worked examples are bit-exact")


def test_criterion_03_pinned_decomposition(worked8, worked8_plan,
                                           table_structures):
    ctfs, _ = decompose_with_plan(worked8, worked8_plan)
    for i, (ctf, expected) in enumerate(zip(ctfs, table_structures), 1):
        got = ctf_to_cts(ctf)
        assert got.perm == expected.perm
        assert got.tiers == expected.tiers, "structure %d" % i
    ok(3, "pinned-permutation CTFs transform tier-for-tier to the reference "
          "structures")


def test_criterion_04_unification_goldens(table_structures, unified_pair,
                                          unified_triple):
    s1, s2, s3 = table_structures
    pair = unify_cts([s1, s2])
    assert not pair.empty
    assert pair.structures[0].tiers == unified_pair[0].tiers
    assert pair.structures[1].tiers == unified_pair[1].tiers
    triple = unify_cts([s1, s2, s3])
    assert not triple.empty
    for got, expected in zip(triple.structures, unified_triple):
        assert got.tiers == expected.tiers
    ok(4, "pair and triple unification match the reference tables tier-wise")


def test_criterion_05_graph_and_route_reproduction(unified_pair):
    graph = basic_graph(unified_pair[0])
    assert [m.bit_count() for m in graph.tiers] == [2, 2, 2, 3, 2, 2]
    assert graph.edge_count() == 14
    result = systemic_effective_procedure(unified_pair[0], [unified_pair[1]],
                                          unsatisfiable_formula(8))
    assert result.outcome == "complete"
    system = result.system
    for key, rows in tabledata.HYPER_VERTEX_SUBS.items():
        expected = cts_from_rows(tabledata.PERM2, rows)
        sub, = unstack(system.vsub[key], system.structures)
        assert sub.tiers == expected.tiers, key
    extraction = extract_jss_system(result.system, TabularFormula(8, ()),
                                    limit=32)
    as_p2 = sorted("".join(str(b[v - 1]) for v in tabledata.PERM2)
                   for b in extraction.assignments)
    assert as_p2 == tabledata.JOINT_SETS_P2
    ok(5, "basic graph, hyperstructure, and all five joint sets reproduce "
          "bit-exactly")


def test_criterion_06_end_to_end_worked_instance(worked8, worked8_plan):
    for plan in (None, worked8_plan):
        verdict = classify(worked8, plan=plan)
        assert verdict.kind == SATISFIABLE
        assert worked8.evaluate(verdict.witness) == 1
        if verdict.detail.get("early_exit"):
            assert bits_to_string(verdict.witness) in tabledata.EARLY_SEQUENCES
    ok(6, "end-to-end classification of the worked instance yields a "
          "verified witness")


def test_criterion_07_differential_sweep(tmp_path):
    params = DifftestParams(n_range=(5, 16), m_ratio=(3.0, 6.0),
                            count=10_000, seed=20240601)
    t0 = time.perf_counter()
    report = difftest(params, tmp_path / "sweep", jobs=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, "sweep took %.0f s" % elapsed
    assert report.soundness_violations == 0
    assert len(report.results) == 10_000
    for finding in report.findings:
        archive = tmp_path / "sweep" / finding["directory"]
        assert (archive / "original.cnf").exists()
        assert (archive / "minimized.cnf").exists()
    payload = json.loads((tmp_path / "sweep" / "report.json").read_text())
    assert payload["soundness_violations"] == 0
    ok(7, "10,000-instance sweep in %.0f s: %d disagreements, %d failures, "
          "0 soundness violations (report archived)"
       % (elapsed, len(report.disagreements), report.failure_count))


def test_criterion_08_exactness_properties():
    rng = random.Random(20240608)

    def random_cts(perm, density=0.5):
        masks = [0] * (len(perm) - 2)
        for j in range(len(masks)):
            for c in range(8):
                if rng.random() < density:
                    masks[j] |= 1 << c
        return Cts(perm, masks).clear()

    # intersection and concretization exact at n = 12 (exhaustive sets)
    perm12 = Perm.identity(12)
    for _ in range(20):
        a, b = random_cts(perm12, 0.75), random_cts(perm12, 0.75)
        assert a.intersect(b).enumerate_assignments() == \
            a.enumerate_assignments() & b.enumerate_assignments()
        var, val = rng.randint(1, 12), rng.randint(0, 1)
        assert a.concretize(var, val).enumerate_assignments() == \
            {x for x in a.enumerate_assignments() if x[var - 1] == val}

    # union over-approximates, strictly somewhere
    strict = False
    perm8 = Perm.identity(8)
    for _ in range(200):
        a, b = random_cts(perm8, 0.5), random_cts(perm8, 0.5)
        u = a.union(b).enumerate_assignments()
        exact = a.enumerate_assignments() | b.enumerate_assignments()
        assert u >= exact
        strict = strict or u > exact
    assert strict

    # CTF -> CTS equals the brute-force satisfying set
    for trial in range(25):
        f = generate(GenParams(n=10, m=rng.randint(5, 45), mode="free",
                               seed=9000 + trial))
        from ctsat.decompose import decompose
        ctfs, _ = decompose(f)
        for ctf in ctfs:
            expected = sat_set(TabularFormula(10, tuple(ctf.to_clauses())))
            got = ctf_to_cts(ctf)
            assert (set() if got.is_empty else got.enumerate_assignments()) \
                == expected

    # unification preserves the joint satisfying set
    preserved = 0
    for _ in range(60):
        n = rng.randint(6, 10)
        structures = []
        for _ in range(3):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            structures.append(random_cts(Perm(order), 0.8))
        if any(s.is_empty for s in structures):
            continue
        before = joint_sat_set(structures)
        result = unify_cts(structures)
        if result.empty:
            assert not before
        else:
            assert joint_sat_set(list(result.structures)) == before
            preserved += 1
    assert preserved > 10

    # a non-distributivity witness exists
    perm5 = Perm.identity(5)
    witness = False
    for _ in range(500):
        a, b, c = (random_cts(perm5, 0.45) for _ in range(3))
        if a.intersect(b.union(c)).tiers != \
                a.intersect(b).union(a.intersect(c)).tiers:
            witness = True
            break
    assert witness
    ok(8, "exactness, over-approximation, preservation, and "
          "non-distributivity properties all hold")


def test_criterion_09_existence_equivalences(tmp_path):
    rng = random.Random(20240609)
    findings = []
    backtracks = 0
    extracted = 0

    def random_unified(n, k):
        while True:
            structures = []
            for _ in range(k):
                order = list(range(1, n + 1))
                rng.shuffle(order)
                masks = [0] * (n - 2)
                for j in range(n - 2):
                    for c in range(8):
                        if rng.random() < 0.8:
                            masks[j] |= 1 << c
                structures.append(Cts(Perm(order), masks).clear())
            if any(s.is_empty for s in structures):
                continue
            result = unify_cts(structures)
            if not result.empty:
                return result.structures

    checked = 0
    for trial in range(2000):
        n = rng.randint(5, 10)
        k = 2 if trial % 2 == 0 else rng.choice((3, 4))
        structures = random_unified(n, k)
        joint = joint_sat_set(list(structures))
        result = systemic_effective_procedure(
            structures[0], list(structures[1:]), unsatisfiable_formula(n))
        empty = result.outcome == "empty"
        if not empty:
            got = extract_jss_system(result.system, TabularFormula(n, ()))
            assert got.assignments[0] in joint
            backtracks += got.backtracks
            extracted += 1
        if empty == bool(joint):
            findings.append({"trial": trial, "n": n, "k": k,
                             "joint": len(joint), "procedure_empty": empty})
        checked += 1

    # violations are findings, never assertion failures
    if findings:
        (tmp_path / "equivalence_findings.json").write_text(json.dumps(findings))
    assert checked == 2000
    ok(9, "existence equivalences checked on 2000 systems: %d violations "
          "(archived), %d extractions, %d dead ends before first witness"
       % (len(findings), extracted, backtracks))


def test_criterion_10_performance_and_bounds():
    times = []
    for seed in range(20):
        f = generate(GenParams(n=50, m=300, mode="free", seed=seed))
        t0 = time.perf_counter()
        verdict = classify(f)
        times.append(time.perf_counter() - t0)
        assert verdict.kind in (SATISFIABLE, UNSATISFIABLE)
    median = statistics.median(times)
    assert median < 30, "median %.1f s" % median

    # structural memory bound: <= 8(n-2) substructures of <= 8(n-2) lines
    n = 50
    f = generate(GenParams(n=n, m=140, mode="sat", seed=7))
    from ctsat.decompose import decompose
    ctfs, _ = decompose(f)
    structures = [ctf_to_cts(c) for c in ctfs]
    assert all(not s.is_empty for s in structures)
    unified = unify_cts(structures[:2])
    assert not unified.empty
    result = systemic_effective_procedure(
        unified.structures[0], [unified.structures[1]],
        unsatisfiable_formula(n))
    if result.outcome == "complete":
        system = result.system
        limit = 8 * (n - 2)
        assert len(system.vsub) <= limit
        assert all(unstack(x, system.structures)[0].line_count() <= limit
                   for x in system.vsub.values())
    ok(10, "median n=50 classification %.1f s (< 30 s); hyperstructure "
           "within the 8(n-2) size bounds" % median)
