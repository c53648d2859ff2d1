from __future__ import annotations

import random

import pytest

from ctsat.rng import SplitMix64


def drawn_one_call_at_a_time(rng: SplitMix64, n: int, fraction: float):
    return tuple((v, int(rng.chance(fraction))) for v in rng.distinct(3, n))


def test_clause_entries_draw_what_distinct_and_chance_draw():
    # twin generators, one drawing a clause in one call, the other with
    # distinct(3, n) and three chance(fraction) calls: equal entries,
    # and equal states after, seen through the next draw of each
    picker = random.Random(90210)
    for _ in range(2000):
        seed = picker.getrandbits(64)
        n = picker.randint(3, 60)
        fraction = picker.choice((0.0, 1.0, 0.5, picker.random()))
        fused, twin = SplitMix64(seed), SplitMix64(seed)
        for _ in range(picker.randint(1, 3)):
            assert (fused.clause_entries(n, fraction)
                    == drawn_one_call_at_a_time(twin, n, fraction))
        assert fused.next_u64() == twin.next_u64()


def test_clause_entries_reject_draws_as_below_does():
    # near 2**63 about half of all draws fall above the largest multiple
    # of the bound and are drawn again; at 2**64 none are
    for n in (2 ** 63 + 1, 3 * 2 ** 62 + 7, 2 ** 64):
        for seed in range(50):
            fused, twin = SplitMix64(seed), SplitMix64(seed)
            assert (fused.clause_entries(n, 0.3)
                    == drawn_one_call_at_a_time(twin, n, 0.3))
            assert fused.next_u64() == twin.next_u64()


def test_clause_entries_are_ascending_and_in_range():
    rng = SplitMix64(5)
    for n in (3, 4, 17):
        for _ in range(200):
            entries = rng.clause_entries(n, 0.5)
            variables = [v for v, _ in entries]
            assert variables == sorted(set(variables))
            assert 1 <= variables[0] and variables[-1] <= n
            assert {mark for _, mark in entries} <= {0, 1}


@pytest.mark.parametrize("n", [0, 2, 2 ** 64 + 1])
def test_clause_entries_refuse_what_distinct_refuses(n):
    with pytest.raises(ValueError) as expected:
        SplitMix64(1).distinct(3, n)
    with pytest.raises(ValueError) as got:
        SplitMix64(1).clause_entries(n, 0.5)
    assert str(got.value) == str(expected.value)
