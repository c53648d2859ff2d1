from __future__ import annotations

import random

from ctsat.cts import Cts, Perm
from ctsat.formula import (Clause, GenParams, TabularFormula,
                           bits_from_string, bits_to_string, generate)
from ctsat.hyper import effective_procedure
from ctsat.oracle import dpll
from ctsat.sep import (CLASSIFICATION_FAILURE, SATISFIABLE, UNSATISFIABLE,
                       classify, concordant_shift, early_elementary_check,
                       extract_jss_system, systemic_effective_procedure)
from ctsat.unify import unify

import tabledata
from naive import joint_sat_set


# -- early elementary check ------------------------------------------------------

def test_early_check_reference_products(worked8, unified_triple):
    s1, s2, s3 = unified_triple
    sequences = set()
    for code in (0b001, 0b101):
        pairs = [(v, (code >> (2 - k)) & 1) for k, v in enumerate((1, 2, 3))]
        subs = [s.concretize_many(pairs) for s in (s2, s3)]
        result = unify(subs)
        assert not result.empty
        for sub in result.structures:
            assert sub.is_elementary()
            bits = early_elementary_check(sub, s1, worked8)
            assert bits is not None
            sequences.add(bits_to_string(bits))
    assert sequences == set(tabledata.EARLY_SEQUENCES)


def test_early_check_non_elementary_is_none(worked8, unified_triple):
    assert early_elementary_check(unified_triple[1], unified_triple[0],
                                  worked8) is None


def test_early_check_absent_assignment_is_none(worked8, unified_triple):
    s1 = unified_triple[0]
    absent = Cts.from_assignment((0,) * 8, unified_triple[1].perm)
    assert not s1.contains_assignment((0,) * 8)
    assert early_elementary_check(absent, s1, worked8) is None


# -- the systemic procedure ---------------------------------------------------------

def test_sep_reference_early_exit(worked8, unified_triple):
    s1, s2, s3 = unified_triple
    result = systemic_effective_procedure(s1, [s2, s3], worked8)
    assert result.outcome == "early-sat"
    assert bits_to_string(result.witness) in tabledata.EARLY_SEQUENCES
    assert s1.contains_assignment(result.witness)
    assert worked8.evaluate(result.witness) == 1


def test_sep_empty_member_empties_immediately(worked8, unified_triple):
    s1, s2, _ = unified_triple
    result = systemic_effective_procedure(
        s1, [Cts.empty(s2.perm)], worked8)
    assert result.outcome == "empty"
    assert result.empty_tier == 1


def random_unified_system(rng: random.Random, n: int, k: int):
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
        result = unify(structures)
        if not result.empty:
            return result.structures


def dummy_formula(n: int) -> TabularFormula:
    """A tautologically irrelevant formula shell for direct SEP runs."""
    return TabularFormula(n, ())


def test_sep_k2_matches_effective_procedure():
    rng = random.Random(6021)
    compared = 0
    for _ in range(60):
        n = rng.randint(5, 10)
        s1, s2 = random_unified_system(rng, n, 2)
        ep = effective_procedure(s1, s2)
        sep = systemic_effective_procedure(s1, [s2], dummy_formula(n),
                                           early_check=False)
        if ep.empty:
            assert sep.outcome == "empty"
            assert sep.empty_tier == ep.empty_tier
            continue
        assert sep.outcome == "complete"
        system = sep.system
        assert system.skeleton == ep.hs.skeleton
        assert system.members[0].vsub.keys() == ep.hs.vsub.keys()
        for key, sub in ep.hs.vsub.items():
            assert system.members[0].vsub[key] == sub
        compared += 1
    assert compared > 10


def test_concordant_shift_k2_degenerates_to_plain_shift(unified_pair):
    s1, s2 = unified_pair
    sep = systemic_effective_procedure(s1, [s2], dummy_formula(8),
                                       early_check=False)
    assert sep.outcome == "complete"
    system = sep.system
    ep = effective_procedure(s1, s2)
    for edge in system.skeleton.edges():
        assert system.members[0].esub[edge] == ep.hs.esub[edge]


def test_concordant_shift_conflicting_constants_removes_edge():
    # two members whose substructures pin the shifted variable to
    # opposite constants: the concordant shift must report emptiness
    rng = random.Random(40)
    while True:
        n = 6
        s1, s2, s3 = random_unified_system(rng, n, 3)
        sep = systemic_effective_procedure(s1, [s2, s3], dummy_formula(n),
                                           early_check=False)
        if sep.outcome != "complete":
            continue
        system = sep.system
        edge = next(iter(system.skeleton.edges(0)))
        var = system.basic_perm.order[3]
        forced0 = system.members[0].vsub[(0, edge[1])].concretize(var, 1 - (edge[2] & 1))
        if forced0.is_empty:
            continue
        system.members[0].vsub[(0, edge[1])] = forced0
        from ctsat.sep import SepStats
        assert concordant_shift(system, edge, "fine", SepStats()) is None
        break


def test_sep_joint_sets_preserved_k3():
    rng = random.Random(33)
    hits = 0
    for _ in range(40):
        n = rng.randint(5, 9)
        structures = random_unified_system(rng, n, 3)
        joint = joint_sat_set(list(structures))
        s1, rest = structures[0], list(structures[1:])
        result = systemic_effective_procedure(s1, rest, dummy_formula(n),
                                              early_check=False)
        if result.outcome == "empty":
            assert not joint
            continue
        extraction = extract_jss_system(result.system, s1, dummy_formula(n))
        assert extraction.assignment in joint
        hits += 1
    assert hits > 5


def test_extract_jss_system_elementary():
    bits = (1, 0, 1, 0, 1, 1)
    p1 = Perm.identity(6)
    p2 = Perm((2, 4, 6, 1, 3, 5))
    p3 = Perm((6, 5, 4, 3, 2, 1))
    s1 = Cts.from_assignment(bits, p1)
    others = [Cts.from_assignment(bits, p) for p in (p2, p3)]
    result = systemic_effective_procedure(s1, others, dummy_formula(6),
                                          early_check=False)
    assert result.outcome == "complete"
    extraction = extract_jss_system(result.system, s1, dummy_formula(6))
    assert extraction.assignment == bits


def test_extract_jss_system_k2_reference(worked8, unified_pair):
    s1, s2 = unified_pair
    result = systemic_effective_procedure(s1, [s2], worked8,
                                          early_check=False)
    assert result.outcome == "complete"
    extraction = extract_jss_system(result.system, s1, worked8)
    order = tabledata.PERM2
    as_p2 = "".join(str(extraction.assignment[v - 1]) for v in order)
    assert as_p2 in tabledata.JOINT_SETS_P2


# -- the classifier ------------------------------------------------------------------

def test_classify_worked8(worked8):
    verdict = classify(worked8)
    assert verdict.kind == SATISFIABLE
    assert worked8.evaluate(verdict.witness) == 1
    if verdict.detail.get("early_exit"):
        assert bits_to_string(verdict.witness) in tabledata.EARLY_SEQUENCES


def test_classify_worked8_pinned_plan(worked8, worked8_plan):
    verdict = classify(worked8, plan=worked8_plan)
    assert verdict.kind == SATISFIABLE
    assert verdict.detail.get("early_exit") is True
    assert bits_to_string(verdict.witness) in tabledata.EARLY_SEQUENCES


def test_classify_worked5(worked5):
    verdict = classify(worked5)
    assert verdict.kind == SATISFIABLE
    assert worked5.evaluate(verdict.witness) == 1
    assert worked5.evaluate(bits_from_string("00000")) == 1


def test_classify_planted_unsat():
    for seed in range(6):
        f = generate(GenParams(n=7, m=14, mode="unsat", seed=seed))
        verdict = classify(f)
        assert verdict.kind == UNSATISFIABLE
        assert verdict.stage in ("cts", "unify", "sep")


def test_classify_planted_sat():
    for seed in range(6):
        f = generate(GenParams(n=9, m=30, mode="sat", seed=seed))
        verdict = classify(f)
        assert verdict.kind == SATISFIABLE
        assert f.evaluate(verdict.witness) == 1


def test_classify_no_clauses():
    f = TabularFormula(4, ())
    verdict = classify(f)
    assert verdict.kind == SATISFIABLE
    assert verdict.witness == (0, 0, 0, 0)


def test_classify_single_ctf_paths():
    sat = TabularFormula(5, (Clause(((1, 0), (2, 0), (3, 0))),))
    verdict = classify(sat)
    assert verdict.kind == SATISFIABLE and verdict.detail["k"] == 1
    unsat = TabularFormula(5, tuple(
        Clause(((1, (c >> 2) & 1), (2, (c >> 1) & 1), (3, c & 1)))
        for c in range(8)))
    verdict = classify(unsat)
    assert verdict.kind == UNSATISFIABLE
    assert verdict.stage == "cts"
    assert verdict.tier == 1


def test_classify_is_deterministic():
    f = generate(GenParams(n=10, m=38, mode="free", seed=99))
    a = classify(f)
    b = classify(f)
    assert a.to_json() == b.to_json()


def test_classify_matches_oracle_small_sweep():
    rng = random.Random(8080)
    outcomes = {"satisfiable": 0, "unsatisfiable": 0}
    for trial in range(150):
        n = rng.randint(5, 9)
        m = rng.randint(2 * n, 6 * n)
        mode = ("free", "sat", "unsat")[trial % 3]
        f = generate(GenParams(n=n, m=max(m, 8), mode=mode, seed=trial))
        verdict = classify(f)
        oracle = dpll(f)
        assert verdict.kind != CLASSIFICATION_FAILURE
        assert (verdict.kind == SATISFIABLE) == oracle.satisfiable, \
            "disagreement at trial %d" % trial
        outcomes[verdict.kind] += 1
    assert outcomes["satisfiable"] > 20
    assert outcomes["unsatisfiable"] > 20


def test_classify_granularities_agree():
    rng = random.Random(515)
    for trial in range(40):
        f = generate(GenParams(n=rng.randint(5, 9), m=rng.randint(10, 40),
                               mode="free", seed=5000 + trial))
        fine = classify(f, granularity="fine")
        coarse = classify(f, granularity="coarse")
        assert fine.kind == coarse.kind


def test_classify_strategy_simple_agrees():
    rng = random.Random(606)
    for trial in range(25):
        f = generate(GenParams(n=rng.randint(5, 8), m=rng.randint(8, 30),
                               mode="free", seed=7000 + trial))
        assert classify(f, strategy="simple").kind == classify(f).kind


def test_verdict_serialization(worked8):
    verdict = classify(worked8)
    assert "verdict: satisfiable" in verdict.lines()[0]
    assert verdict.exit_code == 10
    payload = verdict.to_json()
    assert '"kind": "satisfiable"' in payload


def test_classify_surfaces_extraction_failure(monkeypatch):
    # the third verdict cannot occur naturally; force the extraction to
    # fail and check the diagnostics bundle comes through
    import ctsat.sep as sep_mod
    from ctsat.hyper import ExtractionFailure

    def broken_extract(system, basic, formula):
        raise ExtractionFailure("forced for the test")

    monkeypatch.setattr(sep_mod, "extract_jss_system", broken_extract)
    f = generate(GenParams(n=7, m=18, mode="sat", seed=12))
    verdict = classify(f, early_check=False)
    assert verdict.kind == CLASSIFICATION_FAILURE
    assert verdict.exit_code == 30
    assert "forced for the test" in verdict.detail["error"]
    bundle = verdict.detail["diagnostics"]
    assert bundle["skeleton"] and bundle["members"]


def test_classify_surfaces_invariant_violation(monkeypatch):
    # hand the tier check overlapping same-tier substructures: every
    # vertex of the tier gets the first vertex's substructure
    import ctsat.sep as sep_mod
    from ctsat.hyper import check_tier_disjoint

    def overlapping(vsub, tiers, j):
        codes = sorted(tiers[j])
        check_tier_disjoint({(j, c): vsub[(j, codes[0])] for c in codes},
                            tiers, j)

    monkeypatch.setattr(sep_mod, "check_tier_disjoint", overlapping)
    f = generate(GenParams(n=7, m=18, mode="sat", seed=12))
    verdict = classify(f, early_check=False)
    assert verdict.kind == CLASSIFICATION_FAILURE
    assert verdict.exit_code == 30
    assert "overlap" in verdict.detail["error"]
    bundle = verdict.detail["diagnostics"]
    assert bundle["tier"] >= 1 and len(bundle["substructures"]) == 2
