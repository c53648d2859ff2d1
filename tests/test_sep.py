from __future__ import annotations

import json
import random

import pytest

from ctsat.cts import Cts, Perm, project_lanes, stack, unstack
from ctsat.formula import (Clause, GenParams, TabularFormula,
                           bits_from_string, bits_to_string, generate)
from ctsat.hyper import ExtractionFailure, vertex_values
from ctsat.oracle import dpll
from ctsat.sep import (CLASSIFICATION_FAILURE, SATISFIABLE, UNSATISFIABLE,
                       SepStats, SoundnessError, SystemExtraction, classify,
                       concordant_shift, early_elementary_check,
                       extract_jss_system, systemic_effective_procedure)
from ctsat.unify import unify

import tabledata
from naive import (cts_to_sets, joint_sat_set, lanes, naive_concretize,
                   naive_project, naive_shift, reference_unify,
                   unify_cts, unstacked_result)


# -- early elementary check ------------------------------------------------------

def test_early_check_reference_products(worked8, unified_triple):
    s1, s2, s3 = unified_triple
    sequences = set()
    for code in (0b001, 0b101):
        pairs = [(v, (code >> (2 - k)) & 1) for k, v in enumerate((1, 2, 3))]
        subs = [s.concretize_many(pairs) for s in (s2, s3)]
        result = unify_cts(subs)
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


def random_unified_system(rng: random.Random, n: int, k: int,
                          density: float = 0.8):
    while True:
        structures = []
        for _ in range(k):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            masks = [0] * (n - 2)
            for j in range(n - 2):
                for c in range(8):
                    if rng.random() < density:
                        masks[j] |= 1 << c
            structures.append(Cts(Perm(order), masks).clear())
        if any(s.is_empty for s in structures):
            continue
        result = unify_cts(structures)
        if not result.empty:
            return result.structures


def dummy_formula(n: int) -> TabularFormula:
    """A tautologically irrelevant formula shell for direct SEP runs."""
    return TabularFormula(n, ())


def k2_systems():
    """Complete two-structure systems over random unified pairs. An
    emptied system must have an empty joint set; a complete one must
    yield exactly the joint set of the pair."""
    rng = random.Random(6021)
    for _ in range(60):
        n = rng.randint(5, 10)
        s1, s2 = random_unified_system(rng, n, 2)
        joint = joint_sat_set([s1, s2])
        sep = systemic_effective_procedure(s1, [s2], dummy_formula(n),
                                           early_check=False)
        if sep.outcome == "empty":
            assert 1 <= sep.empty_tier <= n - 2
            assert not joint
            continue
        assert sep.outcome == "complete"
        extraction = extract_jss_system(sep.system, s1, dummy_formula(n),
                                        limit=len(joint) + 1)
        assert extraction.rejected == []
        assert set(extraction.assignments) == joint
        yield s2, sep.system


def test_sep_k2_vertex_substructures_are_incoming_unions():
    compared = 0
    for s2, system in k2_systems():
        assert set(system.vsub) == set(system.skeleton.vertices())
        for (j, c), x in system.vsub.items():
            sub, = unstack(x, system.structures)
            if j == 0:
                pairs = vertex_values(system.basic_perm, (j, c))
                assert sub == s2.concretize_many(pairs)
                continue
            edges = [unstack(system.esub[(j - 1, a, c)], system.structures)[0]
                     for a in system.skeleton.up((j, c))]
            acc = edges[0]
            for e in edges[1:]:
                acc = acc.union(e)
            assert sub == acc, (j, c)
        compared += 1
    assert compared > 10


def test_concordant_shift_k2_degenerates_to_plain_shift():
    compared = 0
    for _, system in k2_systems():
        assert set(system.esub) == set(system.skeleton.edges())
        for edge in system.skeleton.edges():
            sub, = unstack(system.esub[edge], system.structures)
            assert cts_to_sets(sub) == naive_shift(system, edge)
        compared += 1
    assert compared > 10


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
        first, second = unstack(system.vsub[(0, edge[1])], system.structures)
        forced0 = first.concretize(var, 1 - (edge[2] & 1))
        if forced0.is_empty:
            continue
        system.vsub[(0, edge[1])] = stack((forced0, second))
        assert concordant_shift(system, edge, SepStats()) is None
        break


def reference_shift_steps(system, edge, tiers=None):
    """Concordant shift in set form: every member steps as in
    `naive_shift` (projecting onto `tiers`, by default 0..j-1), and after
    the concretization and after every projection step the members'
    results are unified with `unify`. Returns the result (None when a
    member empties) and the number of projection steps that removed a
    line from some member."""
    j, a, b = edge
    var = system.basic_perm.order[j + 3]
    perms = [s.perm for s in system.structures]

    def unified(subs):
        if any(not tier for sub in subs for tier in sub):
            return None
        if len(subs) == 1:
            return subs
        result = unify_cts([Cts(p, [sum(1 << int(code, 2) for code in tier)
                                    for tier in sub])
                            for p, sub in zip(perms, subs)])
        return None if result.empty else [cts_to_sets(x)
                                          for x in result.structures]

    subs = unified([naive_concretize(cts_to_sets(sub), list(p.order),
                                     var, b & 1)
                    for sub, p in zip(unstack(system.vsub[(j, a)],
                                              system.structures), perms)])
    changing = 0
    for s in range(j) if tiers is None else tiers:
        if subs is None:
            break
        projected = [naive_project(system, s, sub, i)
                     for i, sub in enumerate(subs)]
        changing += projected != subs
        subs = unified(projected)
    return subs, changing


def reference_concordant_shift(system, edge, tiers=None):
    return reference_shift_steps(system, edge, tiers)[0]


def stored(system, x):
    """A stored same-name tuple (or a shift result) in set form, member
    by member."""
    return None if x is None else [cts_to_sets(sub) for sub in
                                   unstack(x, system.structures)]


def test_project_lanes_matches_naive_project_member_by_member():
    # complete systems of three to five unified structures; the tuples
    # projected are shift concretizations of tail vertex tuples, as in
    # concordant_shift, onto every tier below the edge, stacked, and
    # each lane must equal naive_project's set form of that member; a
    # projection that changes no member returns the int it was given
    rng = random.Random(6023)
    changed = same = 0
    while changed < 40 or same < 40:
        n = rng.randint(6, 9)
        structures = random_unified_system(rng, n, rng.randint(3, 5),
                                           density=0.85)
        sep = systemic_effective_procedure(structures[0], structures[1:],
                                           dummy_formula(n),
                                           early_check=False)
        if sep.outcome != "complete":
            continue
        system = sep.system
        for j, a, b in system.skeleton.edges():
            var = system.basic_perm.order[j + 3]
            subs = tuple(sub.concretize(var, b & 1) for sub in
                         unstack(system.vsub[(j, a)], system.structures))
            if any(sub.is_empty for sub in subs):
                continue
            x = stack(subs)
            for r in range(j):
                got = project_lanes(x, [system.vsub[(r, c)] for c in
                                        system.skeleton.codes(r)],
                                    system.context.layout)
                expected = [naive_project(system, r, cts_to_sets(sub), i)
                            for i, sub in enumerate(subs)]
                assert stored(system, got) == expected
                if expected == [cts_to_sets(sub) for sub in subs]:
                    assert got == x
                    same += 1
                else:
                    changed += 1


def test_concordant_shift_k3_projects_onto_tier_1():
    # a seeded complete three-structure system in which the projection
    # onto tier 1 removes lines that the later projections keep, on
    # several edges
    n = 8
    s1, s2, s3 = random_unified_system(random.Random(30), n, 3, density=0.85)
    sep = systemic_effective_procedure(s1, [s2, s3], dummy_formula(n),
                                       early_check=False)
    assert sep.outcome == "complete"
    system = sep.system
    biting = 0
    for edge in system.skeleton.edges():
        expected = reference_concordant_shift(system, edge)
        assert stored(system, system.esub[edge]) == expected
        if expected != reference_concordant_shift(system, edge,
                                                  range(1, edge[0])):
            biting += 1
    assert biting >= 1


def test_concordant_shift_projects_onto_the_tier_below_the_edge(monkeypatch):
    # the smallest instance found on which the last projection step, onto
    # the tier just below the edge, changes the stored tuple of an edge
    # (verdicts and pruning counters do not move, so only the tuple
    # shows it); the reference runs while the SEP forms the tiers, since
    # the run ends early-sat before the system is complete
    import ctsat.sep as sep_mod

    original = sep_mod.concordant_shift
    biting = []

    def checked(system, edge, stats):
        subs = original(system, edge, stats)
        expected = reference_concordant_shift(system, edge)
        assert stored(system, subs) == expected, edge
        j = edge[0]
        if j and expected != reference_concordant_shift(system, edge,
                                                        range(j - 1)):
            biting.append(edge)
        return subs

    monkeypatch.setattr(sep_mod, "concordant_shift", checked)
    verdict = classify(generate(GenParams(n=14, m=43, mode="free",
                                          seed=20241108)))
    assert verdict.kind == SATISFIABLE and verdict.detail["k"] == 10
    assert (3, 4, 0) in biting


def test_concordant_shift_unifies_only_after_changing_steps(monkeypatch):
    # the stored tuple is a unify fixpoint, so a step that removes
    # nothing is not followed by a unify call: a shift that keeps its
    # edge calls unify once for a concretization that removed a line and
    # once per changing projection step (fewer when a member empties on
    # the way)
    import ctsat.sep as sep_mod

    calls = []

    def counting_unify(x, ctx, since, sink=None):
        calls.append(ctx.layout.lanes)
        return unify(x, ctx, since=since, sink=sink)

    monkeypatch.setattr(sep_mod, "unify", counting_unify)
    n = 8
    s1, s2, s3 = random_unified_system(random.Random(30), n, 3, density=0.85)
    original = sep_mod.concordant_shift
    kept = skipped = unchanged = 0

    def checked(system, edge, stats):
        nonlocal kept, skipped, unchanged
        _, changing = reference_shift_steps(system, edge)
        j, a, b = edge
        var = system.basic_perm.order[j + 3]
        concretized = any(sub.concretize(var, b & 1) != sub for sub in
                          unstack(system.vsub[(j, a)], system.structures))
        del calls[:]
        subs = original(system, edge, stats)
        if subs is None:
            assert len(calls) <= concretized + changing
        else:
            assert len(calls) == concretized + changing, edge
            kept += 1
            skipped += edge[0] - changing
            unchanged += not concretized
        return subs

    monkeypatch.setattr(sep_mod, "concordant_shift", checked)
    sep = systemic_effective_procedure(s1, [s2, s3], dummy_formula(n),
                                       early_check=False)
    assert sep.outcome == "complete"
    assert kept >= 10 and skipped >= 10 and unchanged >= 1


@pytest.mark.parametrize("n, m, mode, seed, outcome", [
    (12, 70, "free", 20240676, "sep"),
    (8, 33, "free", 20241051, "sep"),
    (10, 39, "free", 20241363, "sep"),
    (14, 43, "free", 20241108, "early-sat"),
    (5, 16, "sat", 20240671, "early-sat"),
    (8, 26, "sat", 20240722, "extract"),
    (8, 32, "free", 20240826, "extract"),
])
def test_sep_unify_waves_count_the_calls_made(monkeypatch, n, m, mode, seed,
                                              outcome):
    # detail["sep"]["unify_waves"] is the sum of the waves of the unify
    # calls the SEP actually made, on every SEP outcome; the benchmark's
    # tracer attributes waves the same way
    import ctsat.sep as sep_mod

    waves = []

    def counting_unify(x, ctx, since, sink=None):
        result = unify(x, ctx, since=since, sink=sink)
        waves.append(result.waves)
        return result

    monkeypatch.setattr(sep_mod, "unify", counting_unify)
    verdict = classify(generate(GenParams(n=n, m=m, mode=mode, seed=seed)))
    exit_of = ("sep" if verdict.stage == "sep"
               else "early-sat" if verdict.detail.get("early_exit")
               else "extract" if "backtracks" in verdict.detail else None)
    assert exit_of == outcome
    # the first call is the top-level unify of the whole system
    assert waves[0] == verdict.detail["unify_waves"]
    assert sum(waves[1:]) == verdict.detail["sep"]["unify_waves"]


def test_sep_seeded_unify_matches_the_full_scan(monkeypatch):
    # every unify call is seeded with a fixpoint its input refines: the
    # SEP's with the tail vertex tuple of a shift, the tuple before a
    # projection step or the members for a tier-0 vertex, classify's
    # top-level call with the complete system. Every call must still
    # give the full scan's result, field for field. A tuple equal to
    # its seed makes no call, and a later tier's vertex tuple, a union
    # of fixpoints, is formed without one
    import ctsat.sep as sep_mod

    complete = []   # per call, whether it was seeded with the complete system

    def checked(x, ctx, since, sink=None):
        result = unify(x, ctx, since=since, sink=sink)
        structures = lanes(x, ctx.perms)
        assert (unstacked_result(result, ctx.perms)
                == reference_unify(structures))
        assert x != since
        complete.append(since == stack([Cts.complete(p) for p in ctx.perms]))
        return result

    monkeypatch.setattr(sep_mod, "unify", checked)
    seeded = 0
    for params in (GenParams(n=12, m=70, mode="free", seed=20240676),
                   GenParams(n=8, m=26, mode="sat", seed=20240722),
                   GenParams(n=16, m=68, mode="sat", seed=3),
                   GenParams(n=14, m=60, mode="free", seed=5),
                   GenParams(n=20, m=100, mode="free", seed=1),
                   GenParams(n=24, m=102, mode="sat", seed=0),
                   GenParams(n=18, m=80, mode="sat", seed=2),
                   GenParams(n=20, m=90, mode="sat", seed=7),
                   GenParams(n=14, m=60, mode="sat", seed=1)):
        del complete[:]
        classify(generate(params))
        # the first call is the top-level unify of the whole system
        assert complete[0]
        seeded += len(complete) - 1
    assert seeded > 200


@pytest.mark.parametrize("n, m, mode, seed, outcome, rounds", [
    (8, 26, "sat", 20240722, "extract", 0),
    # one repeat is needed: its prune removed a vertex below the tier
    (8, 33, "free", 20241051, "sep", 1),
])
def test_sep_repeats_a_round_only_when_a_lower_tier_changed(
        n, m, mode, seed, outcome, rounds):
    verdict = classify(generate(GenParams(n=n, m=m, mode=mode, seed=seed)))
    assert (verdict.stage == "sep") == (outcome == "sep")
    assert ("backtracks" in verdict.detail) == (outcome == "extract")
    assert verdict.detail["sep"]["recompute_rounds"] == rounds


def sep_rounds(monkeypatch):
    """A function that classifies the formula of some GenParams and
    returns the verdict and a record of every SEP round that ended in a
    prune: (tier j, tiers[:j] before and after the prune, the prune's
    empty tier, the number of edges shifted, whether the round kept the
    stored tier j-1 edge tuples). A round that does not end early-sat
    ends with one `_prune_system` call, and the rounds of tier j come
    after the tier check of tier j-1 (`check_tier_disjoint`), so the
    record counts every round, whether or not it shifts an edge. A
    round of tier j > 0 that shifts no edge keeps the stored tuples:
    before its prune, each tier j-1 edge's tuple is recomputed with
    `concordant_shift` and must equal the kept one."""
    import ctsat.sep as sep_mod

    shift, prune = sep_mod.concordant_shift, sep_mod._prune_system
    check = sep_mod.check_tier_disjoint
    state = {}
    rounds = []

    def counting_shift(system, edge, stats):
        state["shifted"] += 1
        return shift(system, edge, stats)

    def recording_prune(system, stats):
        j, skeleton = state["tier"], system.skeleton
        kept = j > 0 and not state["shifted"]
        if kept:
            for edge in skeleton.edges(j - 1):
                assert (shift(system, edge, SepStats())
                        == system.esub[edge]), edge
        before = skeleton.tiers[:j]
        empty = prune(system, stats)
        rounds.append((j, before, skeleton.tiers[:j], empty,
                       state["shifted"], kept))
        state["shifted"] = 0
        return empty

    def counting_check(vsub, codes, j, structures):
        assert j == state["tier"]
        state["tier"] += 1
        return check(vsub, codes, j, structures)

    monkeypatch.setattr(sep_mod, "concordant_shift", counting_shift)
    monkeypatch.setattr(sep_mod, "_prune_system", recording_prune)
    monkeypatch.setattr(sep_mod, "check_tier_disjoint", counting_check)

    def run(params):
        state.update(tier=0, shifted=0)
        del rounds[:]
        return classify(generate(params)), list(rounds)

    return run


def test_sep_every_repeat_sees_changed_lower_tiers(monkeypatch):
    # a round forming tier j is repeated exactly when its prune changed
    # a tier below j without emptying one; the rounds are counted by
    # their prunes (none of these runs ends early-sat), so a repeat that
    # shifts no edge is counted too
    run = sep_rounds(monkeypatch)
    repeats = 0
    for n, m, mode, seed in [(8, 26, "sat", 20240722),
                             (8, 33, "free", 20241051),
                             (12, 70, "free", 20240676),
                             (10, 39, "free", 20241363),
                             (14, 56, "free", 20240646),
                             (10, 45, "free", 20240610)]:
        verdict, rounds = run(GenParams(n=n, m=m, mode=mode, seed=seed))
        assert not verdict.detail.get("early_exit")
        for (j, before, after, empty, _, _), following in zip(
                rounds, rounds[1:] + [None]):
            repeated = following is not None and following[0] == j
            assert repeated == (empty is None and after != before)
        seen = len(rounds) - len({r[0] for r in rounds})
        assert seen == verdict.detail["sep"]["recompute_rounds"]
        repeats += seen
    assert repeats >= 5


@pytest.mark.parametrize("n, m, mode, seed, keeps, reshifts", [
    (15, 45, "sat", 20240644, 1, 0),
    (14, 56, "free", 20240646, 1, 0),
    (10, 45, "free", 20240610, 1, 2),
])
def test_sep_repeat_keeps_edge_tuples_only_below_unchanged_tiers(
        monkeypatch, n, m, mode, seed, keeps, reshifts):
    # a repeated round of tier j keeps the stored tier j-1 edge tuples
    # exactly when the tiers below j-1 are as they were in the round
    # before, and every kept tuple is what a shift on the current system
    # gives (checked in sep_rounds); a first round of tier j > 0 shifts
    # every edge
    run = sep_rounds(monkeypatch)
    _, rounds = run(GenParams(n=n, m=m, mode=mode, seed=seed))
    kept = reshifted = 0
    for previous, (j, _, _, _, shifted, keeps_tuples) in zip(
            [None] + rounds, rounds):
        if j == 0:
            continue
        if previous is None or previous[0] != j:   # a first round
            assert shifted
            continue
        unchanged = previous[2][:j - 1] == previous[1][:j - 1]
        assert keeps_tuples == unchanged
        kept += keeps_tuples
        reshifted += not keeps_tuples
    assert (kept, reshifted) == (keeps, reshifts)


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
        assert extraction.rejected == []
        assert extraction.assignments[0] in joint
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
    assert extraction.assignments == [bits]


def test_extract_jss_system_k2_reference(worked8, unified_pair):
    s1, s2 = unified_pair
    result = systemic_effective_procedure(s1, [s2], worked8,
                                          early_check=False)
    assert result.outcome == "complete"
    extraction = extract_jss_system(result.system, s1, worked8)
    order = tabledata.PERM2
    as_p2 = "".join(str(extraction.assignments[0][v - 1]) for v in order)
    assert as_p2 in tabledata.JOINT_SETS_P2


def test_extract_jss_system_reports_rejected_candidates(unified_pair):
    s1, s2 = unified_pair
    shell = dummy_formula(8)
    result = systemic_effective_procedure(s1, [s2], shell, early_check=False)
    assert result.outcome == "complete"
    first = extract_jss_system(result.system, s1, shell).assignments[0]
    # a clause falsified by the first route's assignment
    formula = TabularFormula(8, (Clause(((1, first[0]), (2, first[1]),
                                         (3, first[2]))),))
    joint = joint_sat_set([s1, s2])
    assert any(formula.evaluate(b) for b in joint)
    got = extract_jss_system(result.system, s1, formula)
    assert got.rejected and got.rejected[0] == first
    for bits in got.rejected:
        assert bits in joint and formula.evaluate(bits) == 0
    assert got.assignments[0] in joint
    assert formula.evaluate(got.assignments[0]) == 1


def test_extract_jss_system_checks_route_labels(unified_pair):
    s1, s2 = unified_pair
    result = systemic_effective_procedure(s1, [s2], dummy_formula(8),
                                          early_check=False)
    system = result.system
    # every vertex substructure widened to the whole structure: the running
    # intersections never empty, but no longer pin a single assignment
    for v in system.vsub:
        system.vsub[v] = stack(system.structures)
    with pytest.raises(ExtractionFailure, match="route labels disagree"):
        extract_jss_system(result.system, s1, dummy_formula(8))

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


class StageNames:
    """Trace sink that keeps only the names of the written stages."""

    def __init__(self):
        self.names: list[str] = []

    def write(self, name: str, content: str) -> None:
        self.names.append(name)


def sep_exit(params: GenParams):
    sink = StageNames()
    verdict = classify(generate(params), sink=sink)
    completed = sum(name.startswith("sep_tier_") for name in sink.names)
    return verdict, completed


def test_sep_empty_tier_is_the_tier_being_formed():
    # a `sep` exit reports the tier the procedure was forming when the
    # skeleton emptied: one past the tiers it completed and traced
    tiers = []
    for seed in range(40):
        verdict, completed = sep_exit(GenParams(n=14, m=63, mode="free",
                                                seed=seed))
        if verdict.stage != "sep":
            continue
        assert verdict.kind == UNSATISFIABLE
        assert verdict.tier == completed + 1, seed
        tiers.append(verdict.tier)
    assert len(tiers) >= 10
    assert len(set(tiers)) >= 3, tiers


@pytest.mark.parametrize("n, m, seed, tier", [(14, 56, 20240646, 3),
                                              (12, 70, 20240676, 6)])
def test_sep_empty_tier_pinned(n, m, seed, tier):
    verdict, completed = sep_exit(GenParams(n=n, m=m, mode="free", seed=seed))
    assert verdict.lines()[1:] == ["stage: sep", "empty-tier: %d" % tier]
    assert completed == tier - 1


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


def test_verdict_serialization(worked8):
    verdict = classify(worked8)
    assert "verdict: satisfiable" in verdict.lines()[0]
    assert verdict.exit_code == 10
    payload = verdict.to_json()
    assert '"kind": "satisfiable"' in payload


def assert_json_round_trip(verdict) -> dict:
    payload = json.loads(verdict.to_json())
    assert payload == {
        "kind": verdict.kind,
        "witness": (None if verdict.witness is None
                    else bits_to_string(verdict.witness)),
        "stage": verdict.stage, "tier": verdict.tier,
        "detail": verdict.detail}
    return payload


def test_verdict_json_round_trips_every_kind(worked8):
    sat = classify(worked8)
    assert assert_json_round_trip(sat)["kind"] == SATISFIABLE
    unsat, _ = sep_exit(GenParams(n=14, m=56, mode="free", seed=20240646))
    payload = assert_json_round_trip(unsat)
    assert payload["kind"] == UNSATISFIABLE
    assert payload["detail"]["sep"]["pruned_vertices"] > 0


def test_classify_surfaces_extraction_failure(monkeypatch):
    # the third verdict cannot occur naturally; force the extraction to
    # fail and check the diagnostics bundle comes through
    import ctsat.sep as sep_mod

    def broken_extract(system, basic, formula):
        raise ExtractionFailure("forced for the test")

    monkeypatch.setattr(sep_mod, "extract_jss_system", broken_extract)
    f = generate(GenParams(n=8, m=26, mode="sat", seed=20240722))
    verdict = classify(f)
    assert verdict.kind == CLASSIFICATION_FAILURE
    assert verdict.exit_code == 30
    assert "forced for the test" in verdict.detail["error"]
    bundle = verdict.detail["diagnostics"]
    assert bundle["skeleton"] and bundle["members"]
    assert len(bundle["members"]) == verdict.detail["k"] - 1
    assert assert_json_round_trip(verdict)["detail"]["diagnostics"] == bundle


def test_failure_bundle_keeps_the_last_tier_and_a_digest(monkeypatch):
    # a forced extraction failure on a small instance: the bundle holds
    # the skeleton, each member's structure, the vertex count of every
    # tier, the last tier's vertex substructures and one sha256 over all
    # stored vertex tuples, and nothing of the tiers below the last
    import hashlib

    import ctsat.sep as sep_mod

    systems = []
    original = sep_mod.systemic_effective_procedure

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        systems.append(result.system)
        return result

    def broken_extract(system, basic, formula):
        raise ExtractionFailure("forced for the test")

    monkeypatch.setattr(sep_mod, "systemic_effective_procedure", recording)
    monkeypatch.setattr(sep_mod, "extract_jss_system", broken_extract)
    verdict = classify(generate(GenParams(n=8, m=26, mode="sat",
                                          seed=20240722)))
    assert verdict.kind == CLASSIFICATION_FAILURE
    (system,) = systems
    skeleton, structures, vsub = (system.skeleton, system.structures,
                                  system.vsub)
    last = skeleton.tier_count - 1
    bundle = verdict.detail["diagnostics"]
    assert sorted(bundle) == ["members", "skeleton", "tier_vertex_counts",
                              "vertex_sha256"]
    assert bundle["skeleton"] == skeleton.render()
    counts = bundle["tier_vertex_counts"]
    assert counts == [bin(m).count("1") for m in skeleton.tiers]
    assert len(counts) == 8 - 2 and sum(counts) == len(vsub) > counts[-1]
    lines = "".join("%d:%d:%x\n" % (j, c, vsub[(j, c)])
                    for j, c in sorted(vsub))
    assert bundle["vertex_sha256"] == hashlib.sha256(
        lines.encode()).hexdigest()
    assert len(bundle["members"]) == len(structures) >= 2
    for i, member in enumerate(bundle["members"]):
        assert member == {
            "structure": structures[i].render(),
            "last_tier_substructures": {
                "%d:%s" % (last + 1, format(c, "03b")):
                    unstack(vsub[(last, c)], structures)[i].render()
                for c in skeleton.codes(last)}}


def test_classify_surfaces_invariant_violation(monkeypatch):
    # hand the tier check overlapping same-tier substructures: every
    # vertex of the tier gets the first vertex's substructure
    import ctsat.sep as sep_mod
    from ctsat.hyper import check_tier_disjoint

    def overlapping(vsub, codes, j, structures):
        check_tier_disjoint({(j, c): vsub[(j, codes[0])] for c in codes},
                            codes, j, structures)

    monkeypatch.setattr(sep_mod, "check_tier_disjoint", overlapping)
    f = generate(GenParams(n=8, m=26, mode="sat", seed=20240722))
    verdict = classify(f)
    assert verdict.kind == CLASSIFICATION_FAILURE
    assert verdict.exit_code == 30
    assert "overlap" in verdict.detail["error"]
    bundle = verdict.detail["diagnostics"]
    assert bundle["tier"] >= 1 and len(bundle["substructures"]) == 2
    assert bundle["member"] == 0
    assert assert_json_round_trip(verdict)["detail"]["diagnostics"] == bundle


def falsifying(formula: TabularFormula):
    return next(b for b in formula.assignments() if formula.evaluate(b) == 0)


class RejectsEveryAssignment(TabularFormula):
    """A formula whose evaluation fails every witness, clauses or not."""

    def evaluate(self, bits):
        return 0


@pytest.mark.parametrize("exit_name", ["no-clauses", "one-structure",
                                       "early-sat", "extract"])
def test_classify_rejects_a_corrupted_witness(exit_name, monkeypatch):
    # every satisfiable exit passes its witness through the one soundness
    # gate in classify: corrupt each exit's witness where it is produced
    import ctsat.sep as sep_mod

    if exit_name == "no-clauses":
        formula = TabularFormula(5, ())
    elif exit_name == "one-structure":
        # one clause, falsified by all zeros
        formula = TabularFormula(5, (Clause(((1, 0), (2, 0), (3, 0))),))
    elif exit_name == "early-sat":
        formula = generate(GenParams(n=5, m=16, mode="sat", seed=20240671))
    else:
        formula = generate(GenParams(n=8, m=26, mode="sat", seed=20240722))
    verdict = classify(formula)
    assert verdict.kind == SATISFIABLE
    assert ("k" in verdict.detail) == (exit_name != "no-clauses")
    assert (verdict.detail.get("k") == 1) == (exit_name == "one-structure")
    assert verdict.detail.get("early_exit", False) == (exit_name == "early-sat")
    assert ("backtracks" in verdict.detail) == (exit_name == "extract")

    if exit_name == "no-clauses":
        # the no-clauses exit's witness is fixed: let the formula reject it
        bad = verdict.witness
        formula = RejectsEveryAssignment(formula.n, ())
    else:
        bad = falsifying(formula)
    if exit_name == "one-structure":
        monkeypatch.setattr(Cts, "sample_assignment", lambda self: bad)
    elif exit_name == "early-sat":
        monkeypatch.setattr(sep_mod, "early_elementary_check",
                            lambda sub, basic, formula: bad)
    elif exit_name == "extract":
        monkeypatch.setattr(
            sep_mod, "extract_jss_system",
            lambda system, basic, formula: SystemExtraction([bad], 0, []))
    with pytest.raises(SoundnessError, match=bits_to_string(bad)):
        classify(formula)
