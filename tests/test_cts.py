from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ctsat.cts import (Cts, Perm, clear_masks, clear_packed, layout,
                       settle, union_all)
from ctsat.formula import bits_from_string

from conftest import cts_from_rows
from naive import (naive_clear, naive_concretize, naive_enumerate,
                   naive_intersect, naive_union, rows_to_sets)


def to_sets(s: Cts):
    return [set(format(c, "03b") for c in s.tier_codes(j))
            for j in range(len(s.tiers))]


def from_sets(perm, tiers):
    return cts_from_rows(perm, [(j, line) for j, t in enumerate(tiers)
                                for line in t])


# -- clearing ---------------------------------------------------------------

def test_clear_worked_example(perm5, algebra_s2):
    # raw structure with the non-compatible lines still present
    raw = cts_from_rows(perm5, [
        (0, "010"), (0, "011"), (0, "100"), (0, "110"),
        (1, "001"), (1, "010"), (1, "011"), (1, "110"),
        (2, "000"), (2, "001"), (2, "011"), (2, "101"), (2, "110")])
    cleared = raw.clear()
    assert to_sets(cleared) == [{"011", "100"}, {"110", "001"}, {"101", "011"}]
    assert cleared.equivalent(algebra_s2) == 1
    assert raw.equivalent(algebra_s2) == 0


def test_clear_idempotent(perm5, algebra_s1):
    assert algebra_s1.clear() == algebra_s1.clear().clear()


def test_clear_unsupported_middle_tier_empties(perm5):
    s = cts_from_rows(perm5, [(0, "111"), (1, "000"), (2, "111")])
    cleared = s.clear()
    assert cleared.is_empty
    assert all(m == 0 for m in cleared.tiers)


def test_clear_matches_naive_random_orders():
    # clear_masks against one-line-at-a-time deletion: the masks agree,
    # and the reported empty tier is None exactly when the naive result
    # keeps every tier (the forward pass has no emptiness check)
    rng = random.Random(901)
    emptied = kept = 0
    for _ in range(400):
        n = rng.randint(3, 12)
        density = rng.uniform(0.3, 0.7)
        rows = [(j, format(c, "03b"))
                for j in range(n - 2) for c in range(8)
                if rng.random() < density]
        masks, zero = clear_masks(
            list(cts_from_rows(Perm.identity(n), rows).tiers))
        got = to_sets(Cts(Perm.identity(n), masks))
        for order_seed in range(3):
            naive = naive_clear(rows_to_sets(rows, n - 2),
                                random.Random(order_seed))
            assert naive == got
            assert (zero is None) == all(naive)
        if zero is None:
            kept += 1
        else:
            emptied += 1
    assert emptied > 20 and kept > 20


def random_cleared_masks(rng, n, density):
    """Cleared, non-empty masks over n variables, or None."""
    masks, zero = clear_masks([sum(1 << c for c in range(8)
                                   if rng.random() < density)
                               for _ in range(n - 2)])
    return None if zero is not None else masks


def test_settle_matches_clear_masks_after_one_tier_restriction():
    # settle walks out from the restricted tier only; it must give
    # clear_masks' masks and empty index, and a range covering every
    # tier that changed
    rng = random.Random(902)
    emptied = kept = wide = 0
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
        got = list(restricted)
        lo, hi = settle(got, j)
        assert got == expected
        if zero is not None:
            emptied += 1
            assert (lo, hi) == (None, zero)
            continue
        kept += 1
        assert lo <= j <= hi
        changed = [t for t in range(n - 2) if got[t] != before[t]]
        assert all(lo <= t <= hi for t in changed)
        assert {lo, hi} <= set(changed)
        wide += hi > lo
    assert emptied > 500 and kept > 500 and wide > 200


def test_project_matches_union_of_intersections():
    # Cts.project builds the union of t.intersect(sub) from raw masks
    # and stops early; the targets mix supersets of sub, disjoint
    # structures and partial overlaps
    rng = random.Random(903)
    shortcut = partial = 0
    for _ in range(1500):
        n = rng.randint(3, 10)
        perm = Perm(rng.sample(range(1, n + 1), n))
        masks = random_cleared_masks(rng, n, rng.uniform(0.5, 0.9))
        if masks is None:
            continue
        sub = Cts(perm, masks)
        targets = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.random()
            if kind < 0.15:
                t = Cts.complete(perm)
            else:
                density = 0.9 if kind < 0.6 else 0.5
                t = Cts(perm, [sum(1 << c for c in range(8)
                                   if rng.random() < density)
                               for _ in range(n - 2)]).clear()
            targets.append(t)
        expected = union_all([t.intersect(sub) for t in targets])
        got = sub.project(targets)
        assert got == expected
        if got.tiers == sub.tiers:
            assert got is sub
            shortcut += 1
        elif not got.is_empty:
            partial += 1
    assert shortcut > 100 and partial > 100


# -- the packed kernel ---------------------------------------------------------

DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)


def random_masks(rng, tiers, density):
    return [sum(1 << c for c in range(8) if rng.random() < density)
            for _ in range(tiers)]


def packed_clear(masks):
    """clear_packed on a mask list, unpacked again."""
    tiers = len(masks)
    out = clear_packed(int.from_bytes(bytes(masks), "little"), layout(tiers))
    return list(out.to_bytes(tiers, "little"))


def test_clear_packed_matches_clear_masks_and_naive():
    # every width from 1 to 48 tiers at densities 0.1-0.9; each cleared
    # result is fed back in as an already cleared input, and a share of
    # the inputs is also checked against one-line-at-a-time deletion
    rng = random.Random(904)
    emptied = kept = 0
    for tiers in range(1, 49):
        for d, density in enumerate(DENSITIES):
            for trial in range(8):
                masks = random_masks(rng, tiers, density)
                expected, zero = clear_masks(list(masks))
                assert packed_clear(masks) == expected
                if trial == 0 and (tiers + d) % 4 == 0:
                    naive = naive_clear([{format(c, "03b") for c in range(8)
                                          if m >> c & 1} for m in masks])
                    assert [sum(1 << int(line, 2) for line in t)
                            for t in naive] == expected
                if zero is not None:
                    emptied += 1
                    continue
                kept += 1
                assert packed_clear(expected) == expected
    assert emptied > 500 and kept > 500


def test_clear_packed_cascades_across_the_structure():
    # the all-zeros chain holds tiers 0..T-2 and the all-ones chain tiers
    # 1..T-1; no line of one adjoins a line of the other, so lines die
    # inward from both ends, one tier per step, until the two fronts
    # meet; clear_masks' backward pass carries the removal from the last
    # tier down and empties tier 0, the far end
    for tiers in range(3, 49):
        masks = [1] + [0b10000001] * (tiers - 2) + [0b10000000]
        expected, zero = clear_masks(list(masks))
        assert expected == [0] * tiers and zero == 0
        assert packed_clear(masks) == expected
        # without the all-ones end, the cascade removes the all-ones
        # lines of every tier but keeps the all-zeros chain
        masks[-1] = 0b10000001
        assert packed_clear(masks) == [1] * tiers == clear_masks(masks)[0]


def test_packed_ops_match_set_references():
    # every Cts operation on widths of 1 to 48 tiers against the set-form
    # references in tests/naive.py and the mask lists the structures
    # unpack to
    rng = random.Random(905)
    projected = concretized = 0
    for tiers in range(1, 49):
        n = tiers + 2
        perm = Perm(rng.sample(range(1, n + 1), n))
        density = DENSITIES[tiers % len(DENSITIES)]
        a = Cts(perm, random_masks(rng, tiers, density))
        b = Cts(perm, random_masks(rng, tiers, max(density, 0.7))).clear()
        for s in (a, b, a.clear()):
            assert Cts(perm, s.tiers) == s
            assert hash(Cts(perm, s.tiers)) == hash(s)
            assert s.is_empty == (0 in s.tiers)
            assert s.is_elementary() == all(m and not m & (m - 1)
                                            for m in s.tiers)
            assert s.line_count() == sum(len(t) for t in to_sets(s))
        assert Cts.from_assignment([rng.randint(0, 1) for _ in range(n)],
                                   perm).is_elementary()
        na, nb = to_sets(a), to_sets(b)
        assert to_sets(a.union(b)) == naive_union(na, nb)
        assert to_sets(a.intersect(b)) == naive_intersect(na, nb)
        pairs = [(rng.randint(1, n), rng.randint(0, 1))
                 for _ in range(rng.randint(1, 3))]
        expected = nb
        for var, value in pairs:
            expected = naive_concretize(expected, perm.order, var, value)
        got = b.concretize_many(pairs)
        assert to_sets(got) == expected
        concretized += got.is_empty
        if b.is_empty:
            continue
        targets = [Cts.complete(perm) if rng.random() < 0.2 else
                   Cts(perm, random_masks(rng, tiers, 0.9)).clear()
                   for _ in range(rng.randint(1, 3))]
        acc = [set() for _ in range(tiers)]
        for t in targets:
            acc = naive_union(acc, naive_intersect(to_sets(t), nb))
        got = b.project(targets)
        assert to_sets(got) == acc
        projected += got != b
    assert 0 < concretized < 48 and projected > 5


# -- union / intersection ---------------------------------------------------

def test_union_worked_example(algebra_s1, algebra_s2):
    s3 = algebra_s1.union(algebra_s2)
    assert to_sets(s3) == [{"010", "011", "100"},
                           {"101", "110", "001"},
                           {"011", "100", "101"}]


def test_union_identity_and_idempotence(algebra_s1, perm5):
    assert algebra_s1.union(Cts.empty(perm5)) == algebra_s1
    assert algebra_s1.union(algebra_s1) == algebra_s1


def test_union_perm_mismatch(algebra_s1):
    other = Cts.complete(Perm((2, 1, 3, 4, 5)))
    with pytest.raises(ValueError, match="permutation mismatch"):
        algebra_s1.union(other)


def test_binary_ops_compare_permutations_by_value(algebra_s1):
    # the permutation check is skipped only for the same Perm object: an
    # equal copy is accepted and a different order still raises
    copy = Cts(Perm(algebra_s1.perm.order), algebra_s1.tiers)
    assert copy.perm is not algebra_s1.perm
    assert algebra_s1.union(copy) == algebra_s1
    assert algebra_s1.intersect(copy) == algebra_s1.clear()
    other = Cts.complete(Perm((2, 1, 3, 4, 5)))
    for op in (Cts.union, Cts.intersect):
        with pytest.raises(ValueError, match="permutation mismatch"):
            op(algebra_s1, other)


def test_intersect_worked_example(algebra_s1, algebra_s2):
    s4 = algebra_s1.intersect(algebra_s2)
    # the candidate 011 line at the last tier is removed by clearing
    assert to_sets(s4) == [{"011"}, {"110"}, {"101"}]


def test_intersect_self_and_empty(algebra_s1, perm5):
    assert algebra_s1.intersect(algebra_s1) == algebra_s1.clear()
    assert algebra_s1.intersect(Cts.empty(perm5)).is_empty


# -- concretization ---------------------------------------------------------

def test_concretize_worked_examples(algebra_s1, algebra_s2):
    s3 = algebra_s1.union(algebra_s2)
    assert to_sets(s3.concretize(3, 1)) == [{"011"}, {"110"}, {"100", "101"}]
    s4 = algebra_s1.intersect(algebra_s2)
    assert s4.concretize(5, 0).is_empty


def test_concretize_idempotent(algebra_s1):
    once = algebra_s1.concretize(2, 1)
    assert once.concretize(2, 1) == once


def test_concretize_many_matches_sequential(algebra_s1):
    seq = algebra_s1.concretize(1, 0).concretize(3, 1)
    assert algebra_s1.concretize_many(((1, 0), (3, 1))) == seq


# -- assignment views ---------------------------------------------------------

def test_from_assignment_worked_example(perm5):
    s = Cts.from_assignment(bits_from_string("01101"), perm5)
    assert to_sets(s) == [{"011"}, {"110"}, {"101"}]


def test_from_assignment_all_zeros(perm5):
    s = Cts.from_assignment((0,) * 5, perm5)
    assert to_sets(s) == [{"000"}, {"000"}, {"000"}]


def test_from_assignment_round_trip(perm5):
    rng = random.Random(7)
    for _ in range(40):
        bits = tuple(rng.randint(0, 1) for _ in range(5))
        order = list(range(1, 6))
        rng.shuffle(order)
        s = Cts.from_assignment(bits, Perm(order))
        assert s.enumerate_assignments() == {bits}
        assert s.is_elementary() and s.the_assignment() == bits


def test_enumerate_worked_example(algebra_s2):
    got = algebra_s2.enumerate_assignments()
    assert got == {bits_from_string("01101"), bits_from_string("10011")}


def test_enumerate_complete_and_empty(perm5):
    assert len(Cts.complete(perm5).enumerate_assignments()) == 32
    assert Cts.empty(perm5).enumerate_assignments() == set()


def test_enumerate_bound_guard():
    s = Cts.complete(Perm.identity(26))
    with pytest.raises(ValueError, match="bound"):
        s.enumerate_assignments()
    assert Cts.from_assignment((0,) * 26, Perm.identity(26)) \
        .enumerate_assignments(max_n=26) == {(0,) * 26}


def test_contains_worked_example(algebra_s2):
    assert algebra_s2.contains_assignment(bits_from_string("01101")) == 1
    # 000 is absent from the first tier
    assert algebra_s2.contains_assignment(bits_from_string("00000")) == 0


def test_contains_consistent_with_enumerate():
    rng = random.Random(13)
    perm = Perm((3, 1, 4, 2, 5))
    for _ in range(60):
        s = from_sets(perm, [{format(c, "03b") for c in range(8)
                              if rng.random() < 0.4} for _ in range(3)]).clear()
        encoded = s.enumerate_assignments()
        for i in range(32):
            bits = tuple((i >> (4 - k)) & 1 for k in range(5))
            assert bool(s.contains_assignment(bits)) == (bits in encoded)


def test_equivalent_unions_reordered(algebra_s1, algebra_s2, perm5):
    a = algebra_s1.union(algebra_s2)
    b = algebra_s2.union(algebra_s1)
    assert a.equivalent(b) == 1


# -- exactness properties -----------------------------------------------------

def random_structure(rng, perm, tiers=3, density=0.45) -> Cts:
    return from_sets(perm, [{format(c, "03b") for c in range(8)
                             if rng.random() < density}
                            for _ in range(tiers)]).clear()


def test_intersection_exact_on_encoded_sets():
    rng = random.Random(3)
    perm = Perm.identity(5)
    for _ in range(200):
        a = random_structure(rng, perm)
        b = random_structure(rng, perm)
        got = a.intersect(b).enumerate_assignments()
        assert got == a.enumerate_assignments() & b.enumerate_assignments()


def test_union_over_approximates_with_strictness_witness():
    rng = random.Random(5)
    perm = Perm.identity(5)
    strict = False
    for _ in range(200):
        a = random_structure(rng, perm)
        b = random_structure(rng, perm)
        u = a.union(b).enumerate_assignments()
        exact = a.enumerate_assignments() | b.enumerate_assignments()
        assert u >= exact
        strict = strict or u > exact
    assert strict, "no strict over-approximation witness found"


def test_concretization_exact_on_encoded_sets():
    rng = random.Random(11)
    perm = Perm((2, 4, 1, 5, 3))
    for _ in range(150):
        s = random_structure(rng, perm)
        var = rng.randint(1, 5)
        val = rng.randint(0, 1)
        got = s.concretize(var, val).enumerate_assignments()
        assert got == {a for a in s.enumerate_assignments() if a[var - 1] == val}


def test_non_distributivity_witness_exists():
    rng = random.Random(17)
    perm = Perm.identity(5)
    for _ in range(500):
        a = random_structure(rng, perm)
        b = random_structure(rng, perm)
        c = random_structure(rng, perm)
        lhs = a.intersect(b.union(c))
        rhs = a.intersect(b).union(a.intersect(c))
        if lhs.tiers != rhs.tiers:
            return
    pytest.fail("no non-distributivity witness found")


tier_mask = st.integers(0, 255)


@given(st.tuples(tier_mask, tier_mask, tier_mask),
       st.tuples(tier_mask, tier_mask, tier_mask))
@settings(max_examples=120, deadline=None)
def test_union_intersect_lattice_laws(ta, tb):
    perm = Perm.identity(5)
    a, b = Cts(perm, ta).clear(), Cts(perm, tb).clear()
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)
    assert a.union(a) == a
    assert a.intersect(a) == a


@given(st.tuples(tier_mask, tier_mask, tier_mask),
       st.tuples(tier_mask, tier_mask, tier_mask),
       st.tuples(tier_mask, tier_mask, tier_mask))
@settings(max_examples=120, deadline=None)
def test_union_intersect_associativity(ta, tb, tc):
    perm = Perm.identity(5)
    a, b, c = (Cts(perm, t).clear() for t in (ta, tb, tc))
    assert a.union(b).union(c) == a.union(b.union(c))
    # intersection is associative up to clearing (results are cleared)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(st.tuples(tier_mask, tier_mask, tier_mask),
       st.tuples(tier_mask, tier_mask, tier_mask))
@settings(max_examples=100, deadline=None)
def test_ops_match_naive_sets(ta, tb):
    perm = Perm((5, 2, 4, 1, 3))
    a, b = Cts(perm, ta), Cts(perm, tb)
    na, nb = to_sets(a), to_sets(b)
    assert to_sets(a.union(b)) == naive_union(na, nb)
    assert to_sets(a.intersect(b)) == naive_intersect(na, nb)
    assert to_sets(a.clear()) == naive_clear(na)


@given(st.tuples(tier_mask, tier_mask, tier_mask),
       st.integers(1, 5), st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_concretize_matches_naive(t, var, val):
    perm = Perm((5, 2, 4, 1, 3))
    s = Cts(perm, t)
    assert to_sets(s.concretize(var, val)) == \
        naive_concretize(to_sets(s), perm.order, var, val)


@given(st.tuples(tier_mask, tier_mask, tier_mask))
@settings(max_examples=100, deadline=None)
def test_enumerate_matches_naive(t):
    perm = Perm((3, 5, 1, 4, 2))
    s = Cts(perm, t).clear()
    assert s.enumerate_assignments() == naive_enumerate(to_sets(s), perm.order)


# -- single-tier edge case (n = 3) --------------------------------------------

def test_three_variable_structure_degrades_gracefully():
    perm = Perm.identity(3)
    s = Cts(perm, (0b10000001,))
    assert s.clear() == s
    assert s.enumerate_assignments() == {(0, 0, 0), (1, 1, 1)}
    assert s.concretize(1, 1).enumerate_assignments() == {(1, 1, 1)}
    assert s.concretize(1, 1).concretize(2, 0).is_empty


# -- rendering ----------------------------------------------------------------

def test_render_worked_structure(algebra_s2):
    assert algebra_s2.render() == (
        "x1 x2 x3 x4 x5\n"
        " 0  1  1\n"
        " 1  0  0\n"
        "    0  0  1\n"
        "    1  1  0\n"
        "       0  1  1\n"
        "       1  0  1\n"
    )


def test_render_empty(perm5):
    out = Cts.empty(perm5).render()
    assert "(empty structure)" in out
