from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import asdict, fields

import pytest

from ctsat.cts import (TIER_FULL, Cts, Perm, concretize_lanes,
                       has_empty_lane, project_lanes, stack, unstack)
from ctsat.formula import (Clause, GenParams, TabularFormula,
                           bits_from_string, bits_to_string, generate)
from ctsat.hyper import ExtractionFailure
from ctsat.oracle import dpll
from ctsat.sep import (CLASSIFICATION_FAILURE, SATISFIABLE, UNSATISFIABLE,
                       HsSystem, SepResult, SepStats, SoundnessError,
                       SystemExtraction, classify, concordant_shift,
                       early_elementary_check, extract_jss_system,
                       systemic_effective_procedure)
from ctsat.unify import (CAUSE_EMPTY_INPUT, UnifyContext, unify,
                         window_codes)

import tabledata
from conftest import unsatisfiable_formula
from naive import (concretize_then_unify, cts_to_sets, joint_sat_set, lanes,
                   naive_concretize, naive_project, naive_shift,
                   pair_relation, reference_unify, unify_cts,
                   unstacked_result)


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


def test_sep_result_carries_its_system_and_counters(monkeypatch, worked8,
                                                    unified_triple):
    # every outcome returns the system as the run left it, its counters
    # on it, and classify reports exactly those counters
    import ctsat.sep as sep_mod

    assert [f.name for f in fields(SepResult)] == [
        "outcome", "system", "empty_tier", "witness"]
    s1, s2, _ = unified_triple
    result = systemic_effective_procedure(s1, [Cts.empty(s2.perm)], worked8)
    assert (result.outcome, result.empty_tier) == ("empty", 1)
    system = result.system
    assert system.basic is s1 and system.structures == (Cts.empty(s2.perm),)
    assert system.stats == SepStats() and not system.vsub

    procedure, results = sep_mod.systemic_effective_procedure, []

    def recording(*args, **kwargs):
        results.append(procedure(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sep_mod, "systemic_effective_procedure", recording)
    for (n, m, mode, seed), outcome in [
            ((14, 56, "free", 20240646), "empty"),
            ((5, 16, "sat", 20240671), "early-sat"),
            ((8, 26, "sat", 20240722), "complete")]:
        del results[:]
        verdict = classify(generate(GenParams(n=n, m=m, mode=mode,
                                              seed=seed)))
        (result,) = results
        assert result.outcome == outcome
        system, stats = result.system, result.system.stats
        assert isinstance(system, HsSystem) and system.basic.n == n
        assert verdict.detail["sep"] == asdict(stats)
        assert stats.early_checks > 0
        if outcome == "empty":   # emptied by a prune
            assert verdict.tier == result.empty_tier and stats.pruned_vertices
        elif outcome == "early-sat":
            assert verdict.witness == result.witness
        else:
            assert set(system.vsub) == set(system.skeleton.vertices())


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


def k2_systems():
    """Complete two-structure systems over random unified pairs. An
    emptied system must have an empty joint set; a complete one must
    yield exactly the joint set of the pair."""
    rng = random.Random(6021)
    for _ in range(60):
        n = rng.randint(5, 10)
        s1, s2 = random_unified_system(rng, n, 2)
        joint = joint_sat_set([s1, s2])
        sep = systemic_effective_procedure(s1, [s2], unsatisfiable_formula(n))
        if sep.outcome == "empty":
            assert 1 <= sep.empty_tier <= n - 2
            assert not joint
            continue
        assert sep.outcome == "complete"
        extraction = extract_jss_system(sep.system, TabularFormula(n, ()),
                                        limit=len(joint) + 1)
        assert set(extraction.assignments) == joint
        yield s2, sep.system


def test_sep_k2_vertex_substructures_are_incoming_unions():
    compared = 0
    for s2, system in k2_systems():
        assert set(system.vsub) == set(system.skeleton.vertices())
        for (j, c), x in system.vsub.items():
            sub, = unstack(x, system.structures)
            if j == 0:
                pairs = system.basic.perm.window_values(j, c)
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
        sep = systemic_effective_procedure(s1, [s2, s3],
                                           unsatisfiable_formula(n))
        if sep.outcome != "complete":
            continue
        system = sep.system
        edge = next(iter(system.skeleton.edges(0)))
        var = system.basic.perm.order[3]
        first, second = unstack(system.vsub[(0, edge[1])], system.structures)
        forced0 = first.concretize(var, 1 - (edge[2] & 1))
        if forced0.is_empty:
            continue
        system.vsub[(0, edge[1])] = stack((forced0, second))
        assert concordant_shift(system, edge) is None
        break


def reference_shift_steps(system, edge, tiers=None):
    """Concordant shift in set form: every member steps as in
    `naive_shift` (projecting onto `tiers`, by default 0..j-1), and after
    the concretization and after every projection step the members'
    results are unified with `unify`. Returns the result (None when a
    member empties) and the number of projection steps that removed a
    line from some member."""
    j, a, b = edge
    var = system.basic.perm.order[j + 3]
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
                                           unsatisfiable_formula(n))
        if sep.outcome != "complete":
            continue
        system = sep.system
        for j, a, b in system.skeleton.edges():
            var = system.basic.perm.order[j + 3]
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


def test_projection_drops_only_targets_dead_in_every_lane():
    # complete systems of three to five unified structures; every shift
    # of a tail vertex tuple onto an adjoining code, whether or not the
    # skeleton kept that edge, built as concordant_shift builds it: the
    # tail concretized inside unify, then one unify step per projection.
    # A target whose code disagrees with x's lane-0 value sets of the
    # basic window (window_codes) has an empty tier in every lane of
    # its AND with x, and the projection over the kept targets equals
    # the one over every target. The pipeline has met no step that
    # keeps no target, so each step is also taken over its dropped
    # targets alone, as if a prune had removed the others: nothing is
    # kept, both projections are 0, and unify ends on the empty input
    # in lane 0 with no wave
    rng = random.Random(3637)
    dropped = none_kept = 0
    while dropped < 10000:
        n = rng.randint(6, 10)
        structures = random_unified_system(rng, n, rng.randint(3, 5),
                                           density=0.85)
        sep = systemic_effective_procedure(structures[0], structures[1:],
                                           unsatisfiable_formula(n))
        if sep.outcome != "complete":
            continue
        system = sep.system
        ctx, skeleton, vsub = system.context, system.skeleton, system.vsub
        perm = system.basic.perm
        for j in range(1, skeleton.tier_count - 1):
            for a in skeleton.codes(j):
                for b in (a << 1 & 7, a << 1 & 7 | 1):
                    tail = vsub[(j, a)]
                    x = unify(tail, ctx, since=tail,
                              fix=perm.window_values(j + 1, b)[2:]).packed
                    for s in range(j):
                        if x is None:
                            break
                        kept = window_codes(x, ctx, perm.order[s:s + 3])
                        targets = [(c, vsub[(s, c)])
                                   for c in skeleton.codes(s)]
                        dead = [(c, t) for c, t in targets
                                if not kept >> c & 1]
                        for _, t in dead:
                            assert all(0 in sub.tiers for sub in
                                       lanes(t & x, ctx.perms))
                        dropped += len(dead)
                        for given in (targets, dead):
                            every = project_lanes(
                                x, (t for _, t in given), ctx.layout)
                            some = project_lanes(
                                x, (t for c, t in given if kept >> c & 1),
                                ctx.layout)
                            assert some == every
                        if dead:
                            none_kept += 1
                            out = unify(some, ctx, since=x)
                            assert (out.packed, out.waves, out.cause,
                                    out.structure_index, out.empty_tier) == (
                                None, 0, CAUSE_EMPTY_INPUT, 0, None)
                        x = unify(every, ctx, since=x).packed
    assert none_kept > 500


def test_lane_0_pair_combinations_do_not_tell_dead_targets():
    # a fixpoint shows each variable's value set in lane 0 as in every
    # lane, but a pair's combinations only in the lanes where the pair
    # is co-tiered. Lane 0 keeps x1 == x2; in lane 1 x1 and x2 sit three
    # positions apart, so the pair has one home and rule 2 never reads
    # it. The tier-0 tuple of code 010 (x1 = 0, x2 = 1, x3 = 0) agrees
    # with lane 0's value sets but not with its (x1, x2) combinations,
    # and its AND with x is dead in lane 0 only: a projection filter
    # on lane 0's pair combinations would drop a live target
    basic, other = Perm((1, 2, 3, 4, 5)), Perm((1, 3, 4, 2, 5))
    lane0 = Cts.empty(basic)
    for bits in itertools.product((0, 1), repeat=5):
        if bits[0] == bits[1]:
            lane0 = lane0.union(Cts.from_assignment(bits, basic))
    structures = (lane0, Cts.complete(other))
    assert pair_relation(lane0, 1, 2).allowed == {(0, 0), (1, 1)}
    assert pair_relation(structures[1], 1, 2) is None
    fixpoint = unify_cts(structures)
    assert fixpoint.structures == structures and fixpoint.waves == 1
    ctx = UnifyContext((basic, other))
    x = stack(structures)
    assert window_codes(x, ctx, (1, 2, 3)) == TIER_FULL
    target = concretize_lanes(stack([Cts.complete(p) for p in ctx.perms]),
                              ctx.perms, ((1, 0), (2, 1), (3, 0)),
                              ctx.layout)
    piece = lanes(project_lanes(x, [target], ctx.layout), ctx.perms)
    assert piece[0].is_empty and not piece[1].is_empty
    assert piece[1] == Cts.complete(other).concretize_many(
        ((1, 0), (2, 1), (3, 0)))


def test_concordant_shift_k3_projects_onto_tier_1():
    # a seeded complete three-structure system in which the projection
    # onto tier 1 removes lines that the later projections keep, on
    # several edges
    n = 8
    s1, s2, s3 = random_unified_system(random.Random(30), n, 3, density=0.85)
    sep = systemic_effective_procedure(s1, [s2, s3], unsatisfiable_formula(n))
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

    def checked(system, edge):
        subs = original(system, edge)
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
    # nothing runs no wave: a shift that keeps its edge makes one unify
    # call that runs a wave for a concretization that removed a line and
    # one per changing projection step (fewer when a member empties on
    # the way), and its other calls return their input unchanged
    import ctsat.sep as sep_mod

    calls = []

    def counting_unify(x, ctx, since, sink=None, fix=()):
        result = unify(x, ctx, since=since, sink=sink, fix=fix)
        if result.waves:
            calls.append(ctx.layout.lanes)
        else:
            assert result.packed in (x, None)
        return result

    monkeypatch.setattr(sep_mod, "unify", counting_unify)
    n = 8
    s1, s2, s3 = random_unified_system(random.Random(30), n, 3, density=0.85)
    original = sep_mod.concordant_shift
    kept = skipped = unchanged = 0

    def checked(system, edge):
        nonlocal kept, skipped, unchanged
        _, changing = reference_shift_steps(system, edge)
        j, a, b = edge
        var = system.basic.perm.order[j + 3]
        concretized = any(sub.concretize(var, b & 1) != sub for sub in
                          unstack(system.vsub[(j, a)], system.structures))
        del calls[:]
        subs = original(system, edge)
        if subs is None:
            assert len(calls) <= concretized + changing
        else:
            assert len(calls) == concretized + changing, edge
            kept += 1
            skipped += edge[0] - changing
            unchanged += not concretized
        return subs

    monkeypatch.setattr(sep_mod, "concordant_shift", checked)
    sep = systemic_effective_procedure(s1, [s2, s3], unsatisfiable_formula(n))
    assert sep.outcome == "complete"
    assert kept >= 10 and skipped >= 10 and unchanged >= 1


def test_sep_fixing_inside_unify_matches_concretizing_first(monkeypatch):
    # a shift's concretization and a tier-0 vertex tuple are one unify
    # call that fixes the window's variables in the tuple's own bytes;
    # the SEP keeps every outcome, stored tuple and counter of the form
    # that concretizes every lane with a full clear first
    # (`naive.concretize_then_unify`), for a lone member (k = 2) too
    import ctsat.sep as sep_mod

    seen = Counter()

    def counting_unify(x, ctx, since, sink=None, fix=()):
        result = unify(x, ctx, since=since, sink=sink, fix=fix)
        seen["fix emptied"] += bool(fix) and result.waves == 0
        return result

    def run(basic, others, formula):
        result = systemic_effective_procedure(basic, others, formula)
        system = result.system
        return (result.outcome, result.empty_tier, result.witness,
                system.skeleton.tiers, system.vsub, system.esub,
                asdict(system.stats))

    rng = random.Random(4141)
    for _ in range(300):
        n, k = rng.randint(6, 11), rng.randint(2, 4)
        basic, *others = random_unified_system(rng, n, k,
                                               density=rng.uniform(0.75, 0.9))
        formula = unsatisfiable_formula(n)
        with monkeypatch.context() as patch:
            patch.setattr(sep_mod, "unify", counting_unify)
            inside = run(basic, others, formula)
        with monkeypatch.context() as patch:
            patch.setattr(sep_mod, "_unify_same_name", concretize_then_unify)
            assert run(basic, others, formula) == inside
        stats = inside[-1]
        seen[k] += 1
        seen[inside[0]] += 1
        seen["pruned", k] += stats["pruned_vertices"] > 0
        seen["edges", k] += stats["pruned_edges"] > 0
    assert min(seen[2], seen[3], seen[4]) >= 80 and seen["empty"] >= 2
    assert all(seen["pruned", k] >= 30 and seen["edges", k] >= 30
               for k in (2, 3, 4))
    assert seen["fix emptied"] >= 20


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

    def counting_unify(x, ctx, since, sink=None, fix=()):
        result = unify(x, ctx, since=since, sink=sink, fix=fix)
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
    # top-level call with the complete system. A shift's concretization
    # and a tier-0 vertex tuple pass that fixpoint as the input too,
    # with the variables to fix. Every call that runs a wave must still
    # give the full scan's result on the concretized input, field for
    # field. A tuple equal to its seed or a fix that removes nothing
    # comes back as it is with no wave, as does a lone member (k = 2),
    # which has no rule to run; a later tier's vertex tuple, a union of
    # fixpoints, is formed without a call
    import ctsat.sep as sep_mod

    complete = []   # per call, whether it was seeded with the complete system
    quiet = []      # per call with no wave, whether it removed nothing
    fixes = 0

    def checked(x, ctx, since, sink=None, fix=()):
        nonlocal fixes
        result = unify(x, ctx, since=since, sink=sink, fix=fix)
        if fix:
            assert x == since
            x = concretize_lanes(x, ctx.perms, fix, ctx.layout)
            fixes += 1
        structures = lanes(x, ctx.perms)
        if x == since or ctx.layout.lanes == 1:
            assert (result.packed, result.waves) == (
                None if has_empty_lane(x, ctx.layout) else x, 0)
            quiet.append(x == since)
            return result
        assert (unstacked_result(result, ctx.perms)
                == reference_unify(structures))
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
    assert seeded > 200 and fixes > 100 and sum(quiet) > 200


def prune_guard(monkeypatch):
    """A function that runs `classify` on the formula of a GenParams,
    or the SEP on a (basic, others, formula) triple, and returns the
    result, a record of every prune (tier j, the skeleton's tiers before
    and after it, its empty tier, the tier j-1 edge tuples recomputed
    after it) and the same-name unify calls that ran a wave (input,
    seed and fix).

    A tier is counted when it passes its tier check
    (`check_tier_codes`), so each formed tier must have exactly one
    prune. After a prune that empties no tier, every kept tier-j vertex
    tuple must equal the OR of its kept in-edges' stored tuples, which
    is what forming the tier again would give, and every stored tier j-1
    edge tuple must equal a `concordant_shift` on the pruned system;
    that recomputation's waves and calls are taken back out."""
    import ctsat.sep as sep_mod

    shift, prune = sep_mod.concordant_shift, sep_mod._prune_system
    check = sep_mod.check_tier_codes
    state = {"tier": 0}
    records, calls = [], []

    def recording_unify(x, ctx, since, sink=None, fix=()):
        result = unify(x, ctx, since=since, sink=sink, fix=fix)
        if result.waves:
            calls.append((x, since, fix))
        return result

    def checked_prune(system):
        j, skeleton = state["tier"], system.skeleton
        assert len(records) == j   # one prune per formed tier
        before = list(skeleton.tiers)
        empty = prune(system)
        checked = 0
        if empty is None and j:
            for c in skeleton.codes(j):
                x = 0
                for a in skeleton.up((j, c)):
                    x |= system.esub[(j - 1, a, c)]
                assert x == system.vsub[(j, c)], (j, c)
            waves, made = system.stats.unify_waves, len(calls)
            for edge in skeleton.edges(j - 1):
                assert shift(system, edge) == system.esub[edge], edge
                checked += 1
            system.stats.unify_waves = waves
            del calls[made:]
        records.append((j, before, list(skeleton.tiers), empty, checked))
        return empty

    def counting_check(vsub, codes, j, perm, ctx):
        assert j == state["tier"] == len(records) - 1
        state["tier"] += 1
        return check(vsub, codes, j, perm, ctx)

    monkeypatch.setattr(sep_mod, "unify", recording_unify)
    monkeypatch.setattr(sep_mod, "_prune_system", checked_prune)
    monkeypatch.setattr(sep_mod, "check_tier_codes", counting_check)

    def run(task):
        state["tier"] = 0
        del records[:], calls[:]
        if isinstance(task, GenParams):
            result = classify(generate(task))
            del calls[:1]   # the top-level unify of the whole system
        else:
            result = sep_mod.systemic_effective_procedure(*task)
        return result, list(records), list(calls)

    return run


def changed_below(records, depth):
    """The prunes that emptied no tier and changed one below tier
    j - depth."""
    return sum(1 for j, before, after, empty, _ in records
               if empty is None
               and before[:max(j - depth, 0)] != after[:max(j - depth, 0)])


@pytest.mark.parametrize("n, m, mode, seed, below_j, below_j_1", [
    (8, 26, "sat", 20240722, 0, 0),
    (8, 33, "free", 20241051, 1, 1),
    (12, 70, "free", 20240676, 1, 1),
    (10, 39, "free", 20241363, 0, 0),
    (14, 56, "free", 20240646, 1, 0),
    (10, 45, "free", 20240610, 3, 2),
    (15, 45, "sat", 20240644, 1, 0),
    (24, 102, "sat", 5, 5, 1),
])
def test_sep_forms_each_tier_with_one_prune(monkeypatch, n, m, mode, seed,
                                            below_j, below_j_1):
    # each tier is formed in one pass and pruned once (prune_guard); a
    # prune that changes a tier below j leaves every kept tier-j tuple
    # the OR of its kept in-edges and every kept tier j-1 edge tuple
    # what a shift on the pruned system gives, below j-1 too; no two
    # same-name unify calls that run a wave get the same input, seed
    # and fix
    run = prune_guard(monkeypatch)
    _, records, calls = run(GenParams(n=n, m=m, mode=mode, seed=seed))
    assert (changed_below(records, 0), changed_below(records, 1)) == (
        below_j, below_j_1)
    assert sum(r[-1] for r in records) >= below_j
    assert len(set(calls)) == len(calls)


def test_sep_forms_the_tiers_of_random_systems_with_one_prune(monkeypatch):
    # the guard of forming each tier in one pass, over random unified
    # systems: prune_guard checks every prune; the floors count the
    # prunes that changed a tier below j, and below j-1, where a shift on
    # the pruned system runs its projection steps over fewer targets
    run = prune_guard(monkeypatch)
    rng = random.Random(2718)
    below_j = below_j_1 = checked = 0
    for _ in range(1000):
        n = rng.randint(7, 11)
        basic, *others = random_unified_system(
            rng, n, rng.randint(2, 4), density=rng.uniform(0.8, 0.95))
        _, records, _ = run((basic, others, unsatisfiable_formula(n)))
        below_j += changed_below(records, 0)
        below_j_1 += changed_below(records, 1)
        checked += sum(r[-1] for r in records)
    assert below_j >= 300 and below_j_1 >= 100 and checked >= below_j


def test_sep_early_check_on_lane_0_speaks_for_every_lane(monkeypatch):
    # the early check reads lane 0 of each formed vertex tuple only; a
    # formed tuple is a unify fixpoint, so every lane is elementary
    # exactly when lane 0 is, and then they spell one assignment
    import ctsat.sep as sep_mod

    procedure, split = sep_mod.systemic_effective_procedure, sep_mod.unstack
    state = {"members": (), "vertices": 0, "elementary": 0}

    def recording_procedure(basic, others, formula, **kwargs):
        state["members"] = tuple(others)
        return procedure(basic, others, formula, **kwargs)

    def checking_unstack(x, structures):
        members = state["members"]
        if len(members) > 1 and tuple(structures) == members[:1]:
            subs = split(x, members)
            elementary = subs[0].is_elementary()
            assert all(s.is_elementary() == elementary for s in subs)
            if elementary:
                assert len({s.the_assignment() for s in subs}) == 1
                state["elementary"] += 1
            state["vertices"] += 1
        return split(x, structures)

    monkeypatch.setattr(sep_mod, "systemic_effective_procedure",
                        recording_procedure)
    monkeypatch.setattr(sep_mod, "unstack", checking_unstack)
    rng = random.Random(2020)
    checks = early = 0
    for trial in range(60):
        n = rng.randint(6, 13)
        mode = ("free", "sat")[trial % 2]
        verdict = classify(generate(GenParams(
            n=n, m=rng.randint(3 * n, 5 * n), mode=mode, seed=trial)))
        checks += verdict.detail.get("sep", {}).get("early_checks", 0)
        early += bool(verdict.detail.get("early_exit"))
    assert state["vertices"] == checks >= 300
    assert state["elementary"] > early >= 20


def test_sep_joint_sets_preserved_k3():
    rng = random.Random(33)
    hits = 0
    for _ in range(40):
        n = rng.randint(5, 9)
        structures = random_unified_system(rng, n, 3)
        joint = joint_sat_set(list(structures))
        s1, rest = structures[0], list(structures[1:])
        result = systemic_effective_procedure(s1, rest,
                                              unsatisfiable_formula(n))
        if result.outcome == "empty":
            assert not joint
            continue
        extraction = extract_jss_system(result.system, TabularFormula(n, ()))
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
    result = systemic_effective_procedure(s1, others, unsatisfiable_formula(6))
    assert result.outcome == "complete"
    extraction = extract_jss_system(result.system, TabularFormula(6, ()))
    assert extraction.assignments == [bits]


def test_extract_jss_system_k2_reference(worked8, unified_pair):
    s1, s2 = unified_pair
    result = systemic_effective_procedure(s1, [s2], unsatisfiable_formula(8))
    assert result.outcome == "complete"
    extraction = extract_jss_system(result.system, worked8)
    order = tabledata.PERM2
    as_p2 = "".join(str(extraction.assignments[0][v - 1]) for v in order)
    assert as_p2 in tabledata.JOINT_SETS_P2


def test_extract_jss_system_raises_on_a_route_that_falsifies_the_formula(
        unified_pair):
    s1, s2 = unified_pair
    result = systemic_effective_procedure(s1, [s2], unsatisfiable_formula(8))
    assert result.outcome == "complete"
    first = extract_jss_system(result.system,
                               TabularFormula(8, ())).assignments[0]
    # a clause falsified by the first route's assignment: the walk stops
    # there instead of moving on to the next route
    formula = TabularFormula(8, (Clause(((1, first[0]), (2, first[1]),
                                         (3, first[2]))),))
    assert formula.evaluate(first) == 0
    with pytest.raises(ExtractionFailure) as info:
        extract_jss_system(result.system, formula)
    assert str(info.value) == ("route %s falsifies the formula"
                               % bits_to_string(first))


def test_extract_jss_system_checks_route_labels(unified_pair):
    s1, s2 = unified_pair
    result = systemic_effective_procedure(s1, [s2], unsatisfiable_formula(8))
    system = result.system
    # every vertex substructure widened to the whole structure: the running
    # intersections never empty, but no longer pin a single assignment
    for v in system.vsub:
        system.vsub[v] = stack(system.structures)
    with pytest.raises(ExtractionFailure, match="route labels disagree"):
        extract_jss_system(result.system, TabularFormula(8, ()))


def test_extraction_depth_is_not_bounded_by_the_recursion_limit():
    # a planted-sat instance whose SEP ends complete over 98 tiers; a
    # walk that recursed once per tier would exceed a limit of 60
    # frames above the caller
    formula = generate(GenParams(n=100, m=33, mode="sat", seed=1))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        verdict = classify(formula)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.kind == SATISFIABLE and "backtracks" in verdict.detail

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


@pytest.mark.parametrize("mode, n, m, seed, outcome", [
    ("sat", 8, 30, 1, "early-sat"),
    ("sat", 8, 30, 3, "extract"),
    ("free", 10, 55, 6, 1),        # the SEP empties at tier 1 or 3
    ("free", 10, 55, 10, 3)])
def test_pipeline_forms_tier_0_without_concretize_many(monkeypatch, mode, n,
                                                       m, seed, outcome):
    # every tier-0 vertex tuple and every shift's concretization is one
    # unify call fixing the basic window's variables in the stacked
    # members, a lone member (k = 2) too; Cts.concretize_many stays as
    # the algebra and concretize_lanes as its kernel, with no pipeline
    # caller. Beside the pinned case, a drawn set of small formulas of
    # the same mode holds k = 2 SEP runs
    def refuse(*args):
        raise AssertionError("the pipeline concretized outside unify")

    monkeypatch.setattr(Cts, "concretize_many", refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ctsat" and hasattr(module,
                                                     "concretize_lanes"):
            monkeypatch.setattr(module, "concretize_lanes", refuse)
    verdict, completed = sep_exit(GenParams(n=n, m=m, mode=mode, seed=seed))
    detail = verdict.detail
    assert "sep" in detail   # the SEP ran, and it forms tier 0 first
    if outcome == "early-sat":
        assert verdict.kind == SATISFIABLE and detail["early_exit"]
    elif outcome == "extract":
        assert verdict.kind == SATISFIABLE and "backtracks" in detail
    else:
        assert (verdict.stage, verdict.tier, completed) == (
            "sep", outcome, outcome - 1)
    rng = random.Random(seed)
    lone = 0
    for _ in range(200):
        width = rng.randint(4, 9)
        detail = classify(generate(GenParams(
            n=width, m=rng.randint(width, 4 * width), mode=mode,
            seed=rng.randrange(2**32)))).detail
        lone += detail.get("k") == 2 and "sep" in detail
    assert lone >= 20


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

    def broken_extract(system, formula):
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

    def broken_extract(system, formula):
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


def test_classify_surfaces_a_vertex_tuple_off_its_code(monkeypatch):
    # hand the tier check a tier whose every vertex holds the first
    # vertex's tuple: the second code's values are missing in every
    # member, and member 0 is named
    import ctsat.sep as sep_mod
    from ctsat.hyper import check_tier_codes

    def swapped(vsub, codes, j, perm, ctx):
        check_tier_codes({(j, c): vsub[(j, codes[0])] for c in codes},
                         codes, j, perm, ctx)

    monkeypatch.setattr(sep_mod, "check_tier_codes", swapped)
    f = generate(GenParams(n=8, m=26, mode="sat", seed=20240722))
    verdict = classify(f)
    assert verdict.kind == CLASSIFICATION_FAILURE
    assert verdict.exit_code == 30
    assert "does not hold the code's values" in verdict.detail["error"]
    bundle = verdict.detail["diagnostics"]
    assert bundle["tier"] >= 1 and bundle["member"] == 0
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
            lambda system, formula: SystemExtraction([bad], 0))
    with pytest.raises(SoundnessError, match=bits_to_string(bad)):
        classify(formula)


@pytest.mark.parametrize("params", [
    GenParams(n=5, m=16, mode="sat", seed=20240671),
    GenParams(n=8, m=26, mode="sat", seed=20240722)],
    ids=["early-sat", "extract"])
def test_classify_fails_at_the_first_route_a_formula_rejects(params,
                                                             monkeypatch):
    # a formula that rejects every assignment, handed the clauses of a
    # satisfiable one: the SEP finds no early witness and ends complete,
    # and extraction fails at the first route instead of walking every
    # route; the failure is never a refutation
    import ctsat.sep as sep_mod

    systems = []
    original = sep_mod.extract_jss_system

    def recording(system, formula):
        systems.append(system)
        return original(system, formula)

    monkeypatch.setattr(sep_mod, "extract_jss_system", recording)
    clauses = generate(params).clauses
    verdict = classify(RejectsEveryAssignment(params.n, clauses))
    assert verdict.kind == CLASSIFICATION_FAILURE
    system, = systems
    first = original(system, TabularFormula(params.n, ())).assignments[0]
    assert verdict.detail["error"] == ("route %s falsifies the formula"
                                       % bits_to_string(first))
    assert verdict.detail["diagnostics"] == sep_mod._failure_bundle(system)
