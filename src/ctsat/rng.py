"""Deterministic 64-bit random number generator (SplitMix64).

All instance generation in this package goes through SplitMix64 so that
formulas are byte-identical across platforms and Python versions for a
given seed. The generator identity is recorded in difftest reports.

`SplitMix64.clause_entries` draws a whole random clause in one loop: it
consumes the same stream as `distinct(3, n)` followed by three
`chance(fraction)` calls, draw for draw, and leaves the state where
those calls would.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

GENERATOR_ID = "splitmix64"


class SplitMix64:
    """SplitMix64: counter-based, one 64-bit word of state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
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

    def clause_entries(self, n: int,
                       fraction: float) -> tuple[tuple[int, int], ...]:
        """The entries of a random clause over 1..n, ascending: the
        values of `distinct(3, n)`, each paired with
        `int(chance(fraction))`, drawn in that order. It makes exactly
        those calls' draws, with `next_u64` inlined, so the stream and
        the state it leaves are theirs."""
        if n < 3:
            raise ValueError("cannot draw 3 distinct values from 1..%d" % n)
        if n > 1 << 64:
            raise ValueError("bound must be in 1..2**64, got %d" % n)
        limit = (1 << 64) - ((1 << 64) % n)
        # locals read faster than module globals in the loops below
        gamma, mix1, mix2, mask = _GAMMA, _MIX1, _MIX2, _MASK64
        s = self._state
        picked: list[int] = []
        while len(picked) < 3:
            s = (s + gamma) & mask
            z = ((s ^ (s >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            z ^= z >> 31
            if z < limit:
                v = 1 + z % n
                if v not in picked:
                    picked.append(v)
        picked.sort()
        entries = []
        for v in picked:
            s = (s + gamma) & mask
            z = ((s ^ (s >> 30)) * mix1) & mask
            z = ((z ^ (z >> 27)) * mix2) & mask
            entries.append((v, int(((z ^ (z >> 31)) >> 11) * 2.0 ** -53
                                   < fraction)))
        self._state = s
        return tuple(entries)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
