"""Deterministic 64-bit random number generator (SplitMix64).

All instance generation in this package goes through SplitMix64 so that
formulas are byte-identical across platforms and Python versions for a
given seed. The generator identity is recorded in difftest reports.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

GENERATOR_ID = "splitmix64"


class SplitMix64:
    """SplitMix64: counter-based, one 64-bit word of state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection, for
        0 < bound <= 2**64: above that no multiple of bound fits in the
        64 bits of one draw, and every draw would be rejected."""
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must be in 1..2**64, got %d" % bound)
        # largest multiple of bound that fits in 64 bits
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def chance(self, p: float) -> bool:
        """Bernoulli draw with probability p, using a 53-bit uniform."""
        return (self.next_u64() >> 11) * 2.0 ** -53 < p

    def distinct(self, k: int, n: int) -> list[int]:
        """k distinct integers drawn uniformly from 1..n, ascending."""
        if k > n:
            raise ValueError("cannot draw %d distinct values from 1..%d" % (k, n))
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(1 + self.below(n))
        return sorted(chosen)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
