from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import ctsat
from ctsat.cts import (_KEEP, Cts, Perm, clear_masks, concretize_lanes,
                       has_empty_lane, layout, project_lanes, stack, unstack)
from ctsat.unify import (_COMBOS, _KEEP_SET, _PAIR_KEEP, _READS_FIRST,
                         _READS_LATER, _SEEN, _VALUES, CAUSE_CONSTANT_CONFLICT,
                         CAUSE_EMPTY_INPUT, CAUSE_EMPTY_TIER, UnifyContext,
                         _lane_rows, settle, unify)

from conftest import random_cleared_masks
from naive import (constant_of, joint_sat_set, pair_relation,
                   reference_unify, unify_cts, unstacked_result)


# -- constants ----------------------------------------------------------------

def test_constant_of_worked_intersection(algebra_s1, algebra_s2):
    s4 = algebra_s1.intersect(algebra_s2)  # single chain 01101
    expected = {1: 0, 2: 1, 3: 1, 4: 0, 5: 1}
    for var, val in expected.items():
        assert constant_of(s4, var) == val


def test_constant_of_complete_structure():
    s = Cts.complete(Perm.identity(6))
    assert all(constant_of(s, v) is None for v in range(1, 7))


def test_constant_of_elementary_matches_assignment():
    rng = random.Random(3)
    for _ in range(20):
        bits = tuple(rng.randint(0, 1) for _ in range(6))
        order = list(range(1, 7))
        rng.shuffle(order)
        s = Cts.from_assignment(bits, Perm(order))
        for v in range(1, 7):
            assert constant_of(s, v) == bits[v - 1]


def test_constant_of_requires_non_empty(perm5):
    with pytest.raises(ValueError):
        constant_of(Cts.empty(perm5), 1)


# -- pair relations -------------------------------------------------------------

def test_pair_relation_worked_structure(algebra_s2):
    rel = pair_relation(algebra_s2, 1, 2)
    assert rel.allowed == frozenset({(0, 1), (1, 0)})


def test_pair_relation_complete_and_distance():
    s = Cts.complete(Perm.identity(6))
    assert pair_relation(s, 2, 4).allowed == frozenset(
        {(0, 0), (0, 1), (1, 0), (1, 1)})
    assert pair_relation(s, 1, 4) is None
    assert pair_relation(s, 1, 6) is None


def test_pair_relation_respects_argument_order(algebra_s2):
    ab = pair_relation(algebra_s2, 1, 2).allowed
    ba = pair_relation(algebra_s2, 2, 1).allowed
    assert ba == frozenset((b, a) for a, b in ab)


# -- unification ----------------------------------------------------------------

def test_unify_pair_matches_reference(table_structures, unified_pair):
    s1, s2, _ = table_structures
    result = unify_cts([s1, s2])
    assert not result.empty
    assert result.structures[0].equivalent(unified_pair[0]) == 1
    assert result.structures[1].equivalent(unified_pair[1]) == 1


def test_unify_triple_matches_reference(table_structures, unified_triple):
    result = unify_cts(list(table_structures))
    assert not result.empty
    for got, expected in zip(result.structures, unified_triple):
        assert got.equivalent(expected) == 1


def test_unify_same_structure_twice_is_fixpoint(table_structures):
    s1 = table_structures[0].clear()
    result = unify_cts([s1, s1])
    assert not result.empty
    assert result.structures[0] == s1
    assert result.structures[1] == s1


def test_unify_singleton_is_clearing(table_structures):
    s1 = table_structures[0]
    result = unify_cts([s1])
    assert not result.empty
    assert result.structures[0] == s1.clear()


def test_unify_empty_input():
    perm = Perm.identity(5)
    result = unify_cts([Cts.empty(perm), Cts.complete(perm)])
    assert result.empty
    assert result.cause == CAUSE_EMPTY_INPUT


def test_unify_constant_conflict():
    p1 = Perm.identity(5)
    p2 = Perm((5, 4, 3, 2, 1))
    a = Cts.from_assignment((0, 0, 0, 0, 0), p1)
    b = Cts.from_assignment((1, 0, 0, 0, 0), p2)
    result = unify_cts([a, b])
    assert result.empty
    assert result.cause == CAUSE_CONSTANT_CONFLICT
    # a complete structure and two that fix x1 at 0 and at 1, in every
    # order: the conflict is reported at the lane of the later constant,
    # wherever the lane that shows both values sits
    perms = (Perm.identity(5), Perm((5, 4, 3, 2, 1)), Perm((3, 1, 5, 2, 4)))
    for order in itertools.permutations(range(3)):
        system = []
        for lane, kind in enumerate(order):
            s = Cts.complete(perms[lane])
            system.append(s if kind == 0 else s.concretize(1, kind - 1))
        result = unify_cts(system)
        assert (result.empty, result.cause, result.structure_index) == (
            True, CAUSE_CONSTANT_CONFLICT, max(order.index(1),
                                               order.index(2))), order
        assert result_fields(result) == result_fields(
            reference_unify(system)), order


def test_unify_empty_tier_reports_the_lowest_window():
    # variables 1 and 4 sit at positions 2 and 3, so tiers 1 and 2 both
    # hold the pair; the structures agree on every constant (there are
    # none) but allow disjoint combinations of the pair
    perm = Perm((2, 5, 1, 4, 3))

    def structure(keep):
        s = Cts.empty(perm)
        for bits in itertools.product((0, 1), repeat=5):
            if keep(bits):
                s = s.union(Cts.from_assignment(bits, perm))
        return s

    equal = structure(lambda b: b[0] == b[3])
    differ = structure(lambda b: b[0] != b[3])
    for s in (equal, differ):
        assert s.clear() == s
        assert all(constant_of(s, v) is None for v in range(1, 6))
    assert pair_relation(equal, 1, 4).allowed == {(0, 0), (1, 1)}
    assert pair_relation(differ, 1, 4).allowed == {(0, 1), (1, 0)}

    result = unify_cts([equal, differ])
    assert result.empty
    assert result.cause == CAUSE_EMPTY_TIER
    assert result.structure_index == 0
    assert result.empty_tier == 1 + 1  # lowest window holding the pair, 1-based


def random_system(rng: random.Random, n: int, k: int):
    """k cleared structures over random permutations of n variables."""
    structures = []
    while len(structures) < k:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        perm = Perm(order)
        masks = [0] * (n - 2)
        for j in range(n - 2):
            for c in range(8):
                if rng.random() < 0.72:
                    masks[j] |= 1 << c
        s = Cts(perm, masks).clear()
        if not s.is_empty:
            structures.append(s)
    return structures


def test_unify_preserves_joint_satisfying_sets():
    rng = random.Random(101)
    nonempty_seen = 0
    for _ in range(150):
        n = rng.randint(5, 9)
        system = random_system(rng, n, rng.randint(2, 3))
        expected = joint_sat_set(system)
        result = unify_cts(system)
        if result.empty:
            assert not expected
        else:
            nonempty_seen += 1
            assert joint_sat_set(result.structures) == expected
    assert nonempty_seen > 10


def assert_obeys_both_rules(structures):
    """The readable rule definitions: rule 1 leaves every variable with
    one constant (or none) across the structures, and rule 2 leaves
    every pair co-tiered in two or more structures with one relation."""
    n = structures[0].n
    for var in range(1, n + 1):
        assert len({constant_of(s, var) for s in structures}) == 1, var
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            relations = {rel.allowed for rel in
                         (pair_relation(s, a, b) for s in structures)
                         if rel is not None}
            assert len(relations) <= 1, (a, b)


def test_unify_fixpoint_obeys_both_rules():
    # the readable rule definitions as references for the table-driven
    # loop, on calls seeded with the complete system
    rng = random.Random(4242)
    nonempty_seen = 0
    for _ in range(300):
        n = rng.randint(5, 10)
        result = unify_cts(random_system(rng, n, rng.randint(2, 4)))
        if result.empty:
            continue
        nonempty_seen += 1
        assert_obeys_both_rules(result.structures)
    assert nonempty_seen > 100


def test_unify_is_monotone_and_fixpoint():
    # unify's output is a fixpoint that one quiet wave confirms; the SEP
    # relies on this to skip unify on a step that removed nothing
    rng = random.Random(55)
    nonempty_seen = with_constants = 0
    for _ in range(300):
        n = rng.randint(5, 10)
        system = random_system(rng, n, rng.randint(2, 4))
        result = unify_cts(system)
        if result.empty:
            continue
        nonempty_seen += 1
        for before, after in zip(system, result.structures):
            for mb, ma in zip(before.tiers, after.tiers):
                assert ma & ~mb == 0  # only removals
        if any(constant_of(s, var) is not None
               for s in result.structures for var in range(1, n + 1)):
            with_constants += 1
        again = unify_cts(list(result.structures))
        assert not again.empty
        assert again.waves == 1
        assert again.structures == result.structures
    assert nonempty_seen > 100 and with_constants > 60


def test_unify_simultaneity():
    rng = random.Random(99)
    for _ in range(120):
        system = random_system(rng, 6, 3)
        result = unify_cts(system)
        if result.empty:
            assert result.structures is None
        else:
            assert all(not s.is_empty for s in result.structures)


def test_unify_order_independence():
    rng = random.Random(301)
    for _ in range(40):
        system = random_system(rng, 7, 3)
        base = unify_cts(system)
        for shift in (1, 2):
            rotated = system[shift:] + system[:shift]
            other = unify_cts(rotated)
            assert other.empty == base.empty
            if not base.empty:
                for i, s in enumerate(rotated):
                    j = (i + shift) % len(system)
                    assert other.structures[i] == base.structures[j]


def test_unify_reports_wave_counts(table_structures):
    result = unify_cts(list(table_structures))
    assert result.waves >= 2  # at least one changing wave plus the quiet one


def result_fields(result):
    return (result.structures, result.waves, result.cause,
            result.structure_index, result.empty_tier)


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, name, content):
        self.writes.append((name, content))


def unchanged(structures):
    """unify_cts seeded with the structures themselves, a fixpoint: the
    result fields, and what a sink received."""
    sink = RecordingSink()
    return (result_fields(unify_cts(structures, since=structures,
                                    sink=sink)), sink.writes)


def refine(rng: random.Random, fixpoint):
    """The structures of a unify fixpoint, one to three of them
    concretized on a free variable or stripped of one line of a tier
    with several, and cleared."""
    structures = list(fixpoint)
    n = structures[0].n
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(structures))
        s = structures[i]
        if rng.random() < 0.5:
            free = [v for v in range(1, n + 1) if constant_of(s, v) is None]
            if free:
                s = s.concretize(rng.choice(free), rng.randint(0, 1))
        else:
            wide = [j for j, m in enumerate(s.tiers) if m & (m - 1)]
            if wide:
                j = rng.choice(wide)
                keep = [0xFF] * (n - 2)
                keep[j] ^= 1 << rng.choice(s.tier_codes(j))
                s = s.intersect(Cts(s.perm, keep))
        structures[i] = s
    return structures


def test_unify_matches_the_full_scan_reference():
    # unify reads only stale windows and clears outward from the
    # restricted tier; the full scan in tests/naive.py restricts the
    # same windows and clears whole structures. Every field must agree,
    # seeded from the complete system and with the fixpoint a refinement
    # came from
    rng = random.Random(20260)
    causes = Counter()
    seeded = Counter()
    multi_wave = 0
    for _ in range(20000):
        system = random_system(rng, rng.randint(5, 14), rng.randint(2, 5))
        result = unify_cts(system)
        assert result_fields(result) == result_fields(reference_unify(system))
        causes[result.cause] += 1
        multi_wave += result.waves > 2
        if result.empty:
            continue
        # seeded with nothing changed, the call returns its input with
        # no wave and writes nothing
        assert unchanged(result.structures) == (
            (result.structures, 0, None, None, None), [])
        refined = refine(rng, result.structures)
        again = unify_cts(refined, since=result.structures)
        if stack(refined) == stack(result.structures):   # nothing removed
            assert result_fields(again) == (result.structures, 0, None,
                                            None, None)
            continue
        assert result_fields(again) == result_fields(reference_unify(refined))
        seeded[again.cause] += 1
    assert min(causes[c] for c in (None, CAUSE_CONSTANT_CONFLICT,
                                   CAUSE_EMPTY_TIER)) > 2000
    assert multi_wave > 2000
    assert seeded[None] > 2000 and seeded[CAUSE_CONSTANT_CONFLICT] > 300
    assert seeded[CAUSE_EMPTY_TIER] > 10


def random_system_over(rng: random.Random, perms, density: float):
    """Cleared structures over the given permutations, one per lane, each
    tier line kept with the given probability; a lane may be empty."""
    return [Cts(perm, [sum(1 << c for c in range(8) if rng.random() < density)
                       for _ in range(len(perm) - 2)]).clear()
            for perm in perms]


def test_unify_seeded_on_the_sep_shapes_matches_the_full_scan():
    # the SEP seeds unify with the fixpoint its input refines, and its
    # inputs change every lane at once: a shift concretizes a variable
    # free in the tail tuple in every member (a fixpoint has a constant
    # in every lane or in none), and a projection step intersects every
    # member with the union of target tuples. Every field must agree
    # with the full scan
    rng = random.Random(2121)
    every_lane = Counter()
    causes = Counter()
    for _ in range(8000):
        n = rng.randint(5, 14)
        result = unify_cts(random_system(rng, n, rng.randint(2, 5)))
        if result.empty:
            continue
        fixpoint = result.structures
        perms = [s.perm for s in fixpoint]
        lay, x = layout(n - 2, len(fixpoint)), stack(fixpoint)
        inputs = []
        free = [v for v in range(1, n + 1)
                if constant_of(fixpoint[0], v) is None]
        if free:
            pairs = ((rng.choice(free), rng.randint(0, 1)),)
            inputs.append(("concretize", concretize_lanes(x, perms, pairs,
                                                          lay)))
        targets = [stack(random_system_over(rng, perms, 0.8))
                   for _ in range(rng.randint(1, 2))]
        inputs.append(("project", project_lanes(x, targets, lay)))
        for shape, refined in inputs:
            structures = unstack(refined, fixpoint)
            seeded = unify_cts(structures, since=fixpoint)
            if refined == x:   # the step removed nothing
                assert unchanged(structures) == (
                    (fixpoint, 0, None, None, None), [])
                assert result_fields(seeded) == (fixpoint, 0, None, None,
                                                 None)
                continue
            assert result_fields(seeded) == result_fields(
                reference_unify(structures))
            if not has_empty_lane(refined, lay) and all(
                    s != f for s, f in zip(structures, fixpoint)):
                every_lane[shape] += 1
                causes[shape, seeded.cause] += 1
    assert len(every_lane) == 2 and min(every_lane.values()) > 500
    assert all(causes[shape, cause] > 40 for shape in every_lane
               for cause in (None, CAUSE_CONSTANT_CONFLICT))


def test_seeded_and_fixed_fixpoints_obey_both_rules():
    # rule 2 passes over a pair that holds a fixed variable, and the full
    # scan reference does too, so the rules are checked here on their own
    # definitions where that skip and since's constants count: on the SEP
    # shapes, a fix on a fixpoint that has constants, and a projection
    # refined from one, with and without a fix. Every non-empty result
    # obeys both rules, pairs that hold a fixed variable included, and
    # keeps the joint satisfying set of its (concretized) input
    rng = random.Random(3434)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(5, 10)
        result = unify_cts(random_system(rng, n, rng.randint(2, 4)))
        if result.empty:
            continue
        fixpoint = result.structures
        constants = [v for v in range(1, n + 1)
                     if constant_of(fixpoint[0], v) is not None]
        free = [v for v in range(1, n + 1) if v not in constants]
        if not constants or not free:
            continue
        perms = [s.perm for s in fixpoint]
        ctx = UnifyContext(perms)
        lay, x = ctx.layout, stack(fixpoint)
        pairs = ((rng.choice(free), rng.randint(0, 1)),)
        targets = [stack(random_system_over(rng, perms, 0.8))
                   for _ in range(rng.randint(1, 2))]
        projected = project_lanes(x, targets, lay)
        for shape, refined, fix in (("fix", x, pairs),
                                    ("project", projected, ()),
                                    ("project+fix", projected, pairs)):
            if has_empty_lane(refined, lay):
                continue
            out = unify(refined, ctx, since=x, fix=fix)
            if out.empty:
                continue
            given = unstack(concretize_lanes(refined, perms, fix, lay)
                            if fix else refined, fixpoint)
            structures = unstack(out.packed, fixpoint)
            assert_obeys_both_rules(structures)
            assert joint_sat_set(structures) == joint_sat_set(given)
            seen[shape] += 1
    assert min(seen[shape] for shape in ("fix", "project",
                                         "project+fix")) > 100


def test_unify_fix_matches_concretizing_first():
    # the SEP fixes the variables of one basic window in a fixpoint
    # tuple inside unify's buffer (`fix`), where concretize_lanes would
    # restrict every lane and clear all of it before a call seeded with
    # the tuple: the two forms agree field for field, with a sink too.
    # A fix that empties a lane ends before the first wave, one that
    # removes nothing returns the tuple with no wave, and lane 0's
    # constants alone tell both cases where the fix empties every lane
    # or removes nothing: unify decides them before any other work and
    # writes nothing to a sink
    rng = random.Random(2929)
    seen = Counter()
    for trial in range(6000):
        n, k = rng.randint(5, 12), rng.randint(2, 5)
        perms = [Perm(rng.sample(range(1, n + 1), n)) for _ in range(k)]
        system = random_system_over(rng, perms, rng.uniform(0.6, 0.9))
        if any(s.is_empty for s in system):
            continue
        unified = unify_cts(system)
        if unified.empty:
            continue
        ctx = UnifyContext(perms)
        lay, x = ctx.layout, stack(unified.structures)
        basic = Perm(rng.sample(range(1, n + 1), n))
        window = basic.window_values(rng.randrange(n - 2), rng.randrange(8))
        pairs = tuple(rng.sample(window, rng.randint(1, 3)))
        concretized = concretize_lanes(x, perms, pairs, lay)
        sinks = (RecordingSink(), RecordingSink()) if trial % 8 == 0 else (
            None, None)
        fixed = unify(x, ctx, since=x, sink=sinks[0], fix=pairs)
        assert unstacked_result(fixed, perms) == unstacked_result(
            unify(concretized, ctx, since=x, sink=sinks[1]), perms)
        assert sinks[0] is None or sinks[0].writes == sinks[1].writes
        fields = (fixed.packed, fixed.waves, fixed.cause,
                  fixed.structure_index, fixed.empty_tier)
        constants = [constant_of(unified.structures[0], var)
                     for var, _ in pairs]
        lacks = any(c == 1 - value for c, (_, value) in zip(constants, pairs))
        assert not lacks or concretized == 0
        assert all(c == value for c, (_, value) in zip(constants, pairs)) == (
            concretized == x)
        if concretized == x:
            assert fields == (x, 0, None, None, None)
            assert sinks[0] is None or sinks[0].writes == []
            seen["nothing"] += 1
        elif lacks:
            assert fields == (None, 0, CAUSE_EMPTY_INPUT, 0, None)
            assert sinks[0] is None or sinks[0].writes == []
            seen["lane 0"] += 1
        elif has_empty_lane(concretized, lay):
            assert (fixed.packed, fixed.waves, fixed.cause) == (
                None, 0, CAUSE_EMPTY_INPUT)
            seen["emptied"] += 1
        else:
            seen["waves", min(fixed.waves, 3)] += 1
            seen["cause", fixed.cause] += 1
    assert seen["nothing"] > 150 and seen["emptied"] > 100
    assert seen["lane 0"] > 500
    assert min(seen["waves", 1], seen["waves", 2], seen["waves", 3]) > 150
    assert seen["cause", None] > 1000
    assert seen["cause", CAUSE_CONSTANT_CONFLICT] > 80
    assert seen["cause", CAUSE_EMPTY_TIER] > 5


def test_unify_on_one_lane_runs_no_wave():
    # a lone lane has no rule to run: its constants are its own and no
    # pair has two homes. unify returns it after the fix phase with no
    # wave, the input itself or, with `fix`, what concretize_lanes
    # gives; a lane that is empty or that the fix empties ends with
    # CAUSE_EMPTY_INPUT. The sink receives the state before the first
    # wave, unless the call ends first: seeded with the lane itself, a
    # fix that removes nothing returns it and a fix whose value the
    # lane lacks empties it, and neither writes
    rng = random.Random(1313)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(5, 12)
        perm = Perm(rng.sample(range(1, n + 1), n))
        s, = random_system_over(rng, [perm], rng.uniform(0.5, 0.95))
        ctx = UnifyContext([perm])
        x, complete = s.packed, Cts.complete(perm).packed

        def call(since, fix=()):
            sink = RecordingSink()
            r = unify(x, ctx, since=since, sink=sink, fix=fix)
            return ((r.packed, r.waves, r.cause, r.structure_index,
                     r.empty_tier), [name for name, _ in sink.writes])

        if s.is_empty:
            assert call(complete) == ((None, 0, CAUSE_EMPTY_INPUT, 0, None),
                                      [])
            seen["empty"] += 1
            continue
        assert call(complete) == ((x, 0, None, None, None),
                                  [] if x == complete else ["unify_wave_00"])
        assert call(x) == ((x, 0, None, None, None), [])
        pairs = []
        for var in rng.sample(range(1, n + 1), rng.randint(1, 3)):
            # a constant's own value, mostly, so that some fixes remove
            # nothing
            c = constant_of(s, var)
            pairs.append((var, c if c is not None and rng.random() < 0.6
                          else rng.randint(0, 1)))
        concretized = concretize_lanes(x, [perm], pairs, ctx.layout)
        lacks = any(constant_of(s, var) == 1 - value for var, value in pairs)
        fields = ((concretized, 0, None, None, None) if concretized else
                  (None, 0, CAUSE_EMPTY_INPUT, 0, None))
        for since in (complete, x):
            ends = not concretized or concretized == x == since
            assert call(since, pairs) == (
                fields, [] if ends else ["unify_wave_00"])
        seen["nothing" if concretized == x else "lacks" if lacks
             else "emptied" if not concretized else "fixed"] += 1
    assert min(seen["empty"], seen["emptied"], seen["nothing"],
               seen["lacks"]) > 80
    assert seen["fixed"] > 1500


def test_unify_union_of_fixpoints_is_a_fixpoint():
    # the SEP makes no unify call for a tier-j vertex tuple, the OR of
    # its stacked edge tuples: a tier-wise union of unify fixpoints over
    # the same permutations is cleared and obeys both rules, so the full
    # scan and a call seeded from the complete system both return it
    # unchanged in their one quiet wave, and a call seeded with the
    # tuple itself returns it with no wave
    rng = random.Random(7121)
    unions = 0
    for _ in range(18000):
        system = random_system(rng, rng.randint(5, 14), rng.randint(2, 5))
        result = unify_cts(system)
        if result.empty:
            continue
        operands = []
        for _ in range(rng.randint(2, 3)):
            refined = unify_cts(refine(rng, result.structures))
            if not refined.empty:
                operands.append(refined.structures)
        if not operands:
            continue
        stacked = 0
        for operand in operands:
            stacked |= stack(operand)
        union = unstack(stacked, result.structures)
        quiet = (union, 1, None, None, None)
        assert result_fields(reference_unify(union)) == quiet
        assert result_fields(unify_cts(union)) == quiet
        assert unchanged(union) == ((union, 0, None, None, None), [])
        unions += len(set(operands)) >= 2
    assert unions >= 2000


def test_tables_match_the_bit_of_code_c_at_offset_o():
    # `reference_unify` reads the same tables as `unify`, so they are
    # checked here against their definition: the bit of code c at
    # window offset o is (c >> (2 - o)) & 1
    def bit(c, o):
        return (c >> (2 - o)) & 1

    for o in range(3):
        for v in (0, 1):
            assert _KEEP[o][v] == sum(1 << c for c in range(8)
                                      if bit(c, o) == v)
        for values in range(4):
            assert _KEEP_SET[o][values] == sum(
                1 << c for c in range(8) if values >> bit(c, o) & 1)
        for mask in range(256):
            values = {bit(c, o) for c in range(8) if mask >> c & 1}
            assert _SEEN[o][mask] == sum(1 << v for v in values)
    for oa in range(3):
        for ob in range(3):
            for mask in range(256):
                combos = {bit(c, oa) * 2 + bit(c, ob)
                          for c in range(8) if mask >> c & 1}
                assert _COMBOS[oa][ob][mask] == sum(1 << x for x in combos)
            for allowed in range(16):
                assert _PAIR_KEEP[oa][ob][allowed] == sum(
                    1 << c for c in range(8)
                    if allowed >> (bit(c, oa) * 2 + bit(c, ob)) & 1)


def test_import_builds_no_lane_rows():
    # the window entries are built on first use, not at import
    script = ("import ctsat\n"
              "from ctsat.unify import _lane_rows\n"
              "print(_lane_rows.cache_info().currsize)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctsat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


def test_context_entries_are_the_rows_of_their_lowest_windows():
    # every entry of a context against its definition: one shape, (byte,
    # read row, keep row, lane start), its byte lane * tiers + the tier
    # of the lowest window holding the variable or pair, its rows the
    # table rows of its offsets there (`_SEEN` and `_KEEP_SET` for a
    # variable); every entry is drawn by identity from `_lane_rows`,
    # shared with every other context, and homes holds variable v's
    # entries at v - 1 in lane order, then the pairs' homes from n on.
    # The per-byte tables against theirs, with a constraint's bit its
    # index in homes: var_at[b] the variables whose lowest window is
    # byte b, pair_at[b] the pairs with a home at byte b; and
    # var_pairs[v - 1] the pairs that hold variable v
    rng = random.Random(19)
    for _ in range(60):
        n, k = rng.randint(5, 14), rng.randint(2, 5)
        tiers = n - 2
        ctx, other = (UnifyContext([Perm(rng.sample(range(1, n + 1), n))
                                    for _ in range(k)]) for _ in range(2))
        assert all(len(entries) == k for entries in ctx.homes[:n])
        var_at = [0] * (k * tiers)
        off_value = [[0, 0] for _ in range(n)]
        for i, perm in enumerate(ctx.perms):
            start = i * tiers
            for v in range(1, n + 1):
                p = perm.position(v)
                j = max(p - 2, 0)
                b, seen, keep, lane_start = ctx.homes[v - 1][i]
                assert (b, lane_start) == (start + j, start)
                assert seen is _SEEN[p - j] and keep is _KEEP_SET[p - j]
                var_at[start + j] |= 1 << v - 1
                for a in (0, 1):
                    off_value[v - 1][a] |= _KEEP[p - j][1 - a] << 8 * b
        assert ctx.var_at == var_at
        # off_value[v - 1][a]: the lines of v's lowest windows where v != a
        assert [list(pair) for pair in ctx.off_value] == off_value
        by_pair: dict = {}
        for i, perm in enumerate(ctx.perms):
            for x, y in itertools.combinations(range(1, n + 1), 2):
                p, q = perm.position(x), perm.position(y)
                if abs(p - q) <= 2:   # co-tiered
                    j = max(p, q, 2) - 2
                    by_pair.setdefault((x, y), []).append(
                        (i, j, p - j, q - j))
        expected = [homes for _, homes in sorted(by_pair.items())
                    if len(homes) >= 2]
        assert len(ctx.homes) == n + len(expected)
        pair_at = [0] * (k * tiers)
        for idx, (homes, wanted) in enumerate(zip(ctx.homes[n:], expected),
                                              n):
            assert len(homes) == len(wanted)
            for home, (i, j, oa, ob) in zip(homes, wanted):
                b, combos, keep, lane_start = home
                assert (b, lane_start) == (i * tiers + j, i * tiers)
                assert combos is _COMBOS[oa][ob]
                assert keep is _PAIR_KEEP[oa][ob]
                pair_at[b] |= 1 << idx
        assert ctx.pair_at == pair_at
        var_pairs = [0] * n
        for idx, (x, y) in enumerate((pair for pair, homes in
                                      sorted(by_pair.items())
                                      if len(homes) >= 2), n):
            var_pairs[x - 1] |= 1 << idx
            var_pairs[y - 1] |= 1 << idx
        assert ctx.var_pairs == var_pairs
        for c in (ctx, other):
            for i, perm in enumerate(c.perms):
                entries = _lane_rows(tiers, i)[0]
                for v, p in enumerate(perm.pos):
                    assert c.homes[v][i] is entries[p]
            shared = {id(home) for i in range(k)
                      for home in _lane_rows(tiers, i)[1]}
            assert all(id(home) in shared
                       for homes in c.homes[n:] for home in homes)
        assert other.layout is ctx.layout


def test_unify_rejects_an_input_that_does_not_refine_since():
    # an explicit check, not an assert, so it holds under python -O too
    # (test_hyper::test_tier_codes_check_survives_optimize runs it so)
    rng = random.Random(12)
    system = [s.clear() for s in random_system(rng, 7, 3)]
    ctx = UnifyContext([s.perm for s in system])
    fixpoint = unify(stack(system), ctx, since=stack(
        [Cts.complete(s.perm) for s in system])).packed
    line = fixpoint & -fixpoint
    with pytest.raises(ValueError, match="does not refine since"):
        unify(fixpoint, ctx, since=fixpoint ^ line)
    sink = RecordingSink()
    result = unify(fixpoint, ctx, since=fixpoint, sink=sink)
    assert (result.packed, result.waves, result.cause,
            result.structure_index, result.empty_tier) == (
        fixpoint, 0, None, None, None)
    assert sink.writes == []


def test_unify_seeded_with_unchanged_inputs_returns_them_with_no_wave():
    # inputs equal to their `since` counterparts come back equal, with
    # no wave, and a sink receives nothing; a call on the same fixpoint
    # seeded from the complete system writes its state before the first
    # wave and after its one quiet wave
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        system = random_system(rng, rng.randint(5, 14), rng.randint(2, 5))
        result = unify_cts(system)
        if result.empty:
            continue
        fixpoint = result.structures
        copies = tuple(Cts(s.perm, s.tiers) for s in fixpoint)
        again = unify_cts(copies, since=fixpoint)
        assert result_fields(again) == (fixpoint, 0, None, None, None)
        seeded, complete = RecordingSink(), RecordingSink()
        assert result_fields(unify_cts(copies, sink=seeded,
                                       since=fixpoint)) == (
            fixpoint, 0, None, None, None)
        assert result_fields(unify_cts(fixpoint, sink=complete)) == (
            fixpoint, 1, None, None, None)
        assert seeded.writes == []
        assert [name for name, _ in complete.writes] == ["unify_wave_00",
                                                         "unify_wave_01"]
        checked += 1


# -- settle and the staleness tables ------------------------------------------

def unify_reads(mask: int, t: int) -> tuple:
    """What unify reads in tier t holding mask, as sets: the values of
    the offsets and the combinations of the offset pairs whose lowest
    window tier t is (every offset and pair in tier 0, offset 2 and the
    pairs ending there in a later tier)."""
    bits = [((c >> 2) & 1, (c >> 1) & 1, c & 1)
            for c in range(8) if mask >> c & 1]
    offsets = (0, 1, 2) if t == 0 else (2,)
    pairs = [(a, b) for a, b in ((0, 1), (0, 2), (1, 2)) if b in offsets]
    return (tuple(frozenset(v[o] for v in bits) for o in offsets),
            tuple(frozenset((v[a], v[b]) for v in bits) for a, b in pairs))


def test_settle_matches_clear_masks_after_one_tier_restriction():
    # settle walks out from the restricted byte only, inside one lane of
    # a flat buffer of one to four lanes; it must give clear_masks'
    # masks, and (None, t) with clear_masks' empty index t when a tier
    # empties, and leave the neighbouring lanes (random bytes) untouched.
    # Its one mark set is exactly the OR of var_at over the tiers whose
    # value sets, and of pair_at over the tiers whose pair combinations,
    # as unify reads them, differ between the masks before and after:
    # each byte has a bit of its own in each table, so a byte marked or
    # left out by mistake, or a table read for the other, shows
    rng = random.Random(902)
    emptied = kept = wide = skipped = gaps = same_values = 0
    while emptied + kept < 4000:
        n = rng.randint(3, 14)
        before = random_cleared_masks(rng, n, rng.uniform(0.4, 0.9))
        if before is None:
            continue
        j = rng.randrange(n - 2)
        restricted = list(before)
        restricted[j] &= rng.randrange(256)
        if restricted[j] == before[j]:
            continue
        expected, zero = clear_masks(list(restricted))
        tiers, lanes = n - 2, rng.randint(1, 4)
        size = lanes * tiers
        start = rng.randrange(lanes) * tiers
        buf = bytearray(rng.randrange(256) for _ in range(size))
        buf[start:start + tiers] = bytes(restricted)
        neighbours = buf[:start] + buf[start + tiers:]
        var_at = [1 << b for b in range(size)]
        pair_at = [1 << size + b for b in range(size)]
        marks = settle(buf, start + j, start, tiers, before[j], var_at,
                       pair_at)
        got = list(buf[start:start + tiers])
        assert got == expected
        assert buf[:start] + buf[start + tiers:] == neighbours
        if zero is not None:
            emptied += 1
            assert marks == (None, zero)
            continue
        kept += 1
        reads = [(unify_reads(before[t], t), unify_reads(got[t], t))
                 for t in range(tiers)]
        values = [t for t, (old, new) in enumerate(reads) if old[0] != new[0]]
        combos = [t for t, (old, new) in enumerate(reads) if old[1] != new[1]]
        assert marks == (sum(var_at[start + t] for t in values)
                         | sum(pair_at[start + t] for t in combos), None)
        changed = [t for t in range(tiers) if got[t] != before[t]]
        wide += len(changed) > 1
        skipped += len(combos) < len(changed)
        # a tier between two whose value sets changed kept its own
        gaps += bool(values) and len(values) <= values[-1] - values[0]
        same_values += not values
    assert emptied > 500 and kept > 500 and wide > 200
    assert skipped > 300 and gaps > 100 and same_values > 500


def test_staleness_tables_match_the_reads_reference():
    # over every pair of masks, in tier 0 and in a later tier: equal
    # table entries exactly when unify_reads gives equal reads, and
    # equal value bits exactly when the value parts agree
    for t, table in ((0, _READS_FIRST), (1, _READS_LATER)):
        reads = [unify_reads(mask, t) for mask in range(256)]
        for a in range(256):
            for b in range(256):
                assert (table[a] == table[b]) == (reads[a] == reads[b])
                assert (not (table[a] ^ table[b]) & _VALUES) == (
                    reads[a][0] == reads[b][0])
