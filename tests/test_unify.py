from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from ctsat.cts import _KEEP, Cts, Perm, stack, unstack
from ctsat.unify import (_COMBOS, _PAIR_KEEP, _SEEN, CAUSE_CONSTANT_CONFLICT,
                         CAUSE_EMPTY_INPUT, CAUSE_EMPTY_TIER, UnifyContext,
                         unify)

from naive import (constant_of, joint_sat_set, pair_relation,
                   reference_unify, unify_cts)


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


def test_unify_fixpoint_obeys_both_rules():
    # the readable rule definitions as references for the table-driven
    # loop: after a non-empty unify, rule 1 leaves every variable with
    # one constant (or none) across the structures, and rule 2 leaves
    # every pair co-tiered in two or more structures with one relation
    rng = random.Random(4242)
    nonempty_seen = 0
    for _ in range(300):
        n = rng.randint(5, 10)
        result = unify_cts(random_system(rng, n, rng.randint(2, 4)))
        if result.empty:
            continue
        nonempty_seen += 1
        structures = result.structures
        for var in range(1, n + 1):
            assert len({constant_of(s, var) for s in structures}) == 1, var
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                relations = {rel.allowed for rel in
                             (pair_relation(s, a, b) for s in structures)
                             if rel is not None}
                assert len(relations) <= 1, (a, b)
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
        # seeded with nothing changed, the first wave reads nothing and
        # is the one quiet wave
        again = unify_cts(result.structures, since=result.structures)
        assert result_fields(again) == (result.structures, 1, None, None, None)
        refined = refine(rng, result.structures)
        again = unify_cts(refined, since=result.structures)
        assert result_fields(again) == result_fields(reference_unify(refined))
        seeded[again.cause] += 1
    assert min(causes[c] for c in (None, CAUSE_CONSTANT_CONFLICT,
                                   CAUSE_EMPTY_TIER)) > 2000
    assert multi_wave > 2000
    assert seeded[None] > 2000 and seeded[CAUSE_CONSTANT_CONFLICT] > 300
    assert seeded[CAUSE_EMPTY_TIER] > 10



def test_unify_union_of_fixpoints_is_a_fixpoint():
    # the SEP makes no unify call for a tier-j vertex tuple, the OR of
    # its stacked edge tuples: a tier-wise union of unify fixpoints over
    # the same permutations is cleared and obeys both rules, so the full
    # scan and a call seeded with the tuple itself both return it
    # unchanged in their one quiet wave
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
        assert result_fields(unify_cts(union, since=union)) == quiet
        unions += len(set(operands)) >= 2
    assert unions >= 2000


def test_context_entries_are_the_rows_of_their_lowest_windows():
    # every entry of a context against its definition: its byte is
    # lane * tiers + the tier of the lowest window holding the variable
    # or pair, its row the table row of its offsets there; and every
    # entry is a row of the shape, shared by identity with every other
    # context of that shape
    rng = random.Random(19)
    for _ in range(60):
        n, k = rng.randint(5, 14), rng.randint(2, 5)
        tiers = n - 2
        ctx, other = (UnifyContext([Perm(rng.sample(range(1, n + 1), n))
                                    for _ in range(k)]) for _ in range(2))
        for i, perm in enumerate(ctx.perms):
            start = i * tiers
            for v in range(1, n + 1):
                p = perm.position(v)
                j = max(p - 2, 0)
                b, seen = ctx.reads[i][v - 1]
                assert b == start + j and seen is _SEEN[p - j]
                lane, lane_start, tier, b, keep = ctx.writes[v - 1][i]
                assert (lane, lane_start, tier, b) == (i, start, j, start + j)
                assert keep is _KEEP[p - j]
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
        assert len(ctx.pair_entries) == len(expected)
        for homes, wanted in zip(ctx.pair_entries, expected):
            assert len(homes) == len(wanted)
            for home, (i, j, oa, ob) in zip(homes, wanted):
                b, combos, keep, lane, lane_start, tier = home
                assert (b, lane, lane_start, tier) == (
                    i * tiers + j, i, i * tiers, j)
                assert combos is _COMBOS[oa][ob]
                assert keep is _PAIR_KEEP[oa][ob]
        shape = ctx.shape
        assert other.shape is shape
        shared_homes = {id(home) for row in shape.homes for home in row}
        for c in (ctx, other):
            for i, perm in enumerate(c.perms):
                for v, p in enumerate(perm.pos):
                    assert c.reads[i][v] is shape.reads[i][p]
                    assert c.writes[v][i] is shape.writes[i][p]
            assert all(id(home) in shared_homes
                       for homes in c.pair_entries for home in homes)
        assert shape.lane_tier == tuple((i, t) for i in range(k)
                                        for t in range(tiers))


def test_unify_rejects_an_input_that_does_not_refine_since():
    # an explicit check, not an assert, so it holds under python -O too
    # (test_hyper::test_tier_disjoint_check_survives_optimize runs it so)
    rng = random.Random(12)
    system = [s.clear() for s in random_system(rng, 7, 3)]
    ctx = UnifyContext([s.perm for s in system])
    fixpoint = unify(stack(system), ctx, since=stack(
        [Cts.complete(s.perm) for s in system])).packed
    line = fixpoint & -fixpoint
    with pytest.raises(ValueError, match="does not refine since"):
        unify(fixpoint, ctx, since=fixpoint ^ line)
    result = unify(fixpoint, ctx, since=fixpoint)
    assert (result.packed, result.waves, result.cause,
            result.structure_index, result.empty_tier) == (
        fixpoint, 1, None, None, None)


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, name, content):
        self.writes.append((name, content))


def test_unify_seeded_with_unchanged_inputs_returns_them_in_one_wave():
    # inputs equal to their `since` counterparts come back equal, in one
    # wave; with a sink the waves write what a call on the same fixpoint
    # seeded from the complete system writes
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
        assert result_fields(again) == (fixpoint, 1, None, None, None)
        seeded, complete = RecordingSink(), RecordingSink()
        assert result_fields(unify_cts(copies, sink=seeded,
                                       since=fixpoint)) == (
            fixpoint, 1, None, None, None)
        unify_cts(fixpoint, sink=complete)
        assert seeded.writes == complete.writes
        assert [name for name, _ in seeded.writes] == ["unify_wave_00",
                                                       "unify_wave_01"]
        checked += 1
