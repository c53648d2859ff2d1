"""Joint transformation of discordant CT structures to a fixpoint.

Structures over different permutations interact only here, through two
removal rules iterated with clearing until stable:

  1. a variable constant in any structure is concretized in all of them
     (conflicting constants empty the whole system);
  2. for every variable pair co-tiered in two or more structures, the
     observed value combinations are intersected across structures and
     lines outside the intersection are removed.

The unified system is empty or non-empty only as a whole, and the set
of assignments encoded in *all* structures is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress
from operator import ne, or_
from typing import Sequence

from .cts import _KEEP as _KEEP_BIT
from .cts import Cts, settle

CAUSE_EMPTY_INPUT = "empty-input"
CAUSE_CONSTANT_CONFLICT = "constant-conflict"
CAUSE_EMPTY_TIER = "empty-tier"


@dataclass
class UnifyResult:
    structures: tuple[Cts, ...] | None
    waves: int
    cause: str | None = None
    structure_index: int | None = None
    empty_tier: int | None = None  # 1-based, when cause is an empty tier

    @property
    def empty(self) -> bool:
        return self.structures is None


# Lookup tables for the hot loop. Window offsets are 0..2 (0 = first
# variable of the tier); the bit of code c at offset o is (c >> (2-o)) & 1.
# _COMBOS[oa][ob][mask]: 4-bit set of (va, vb) pairs present in the mask,
#   combo index va*2 + vb.
# _PAIR_KEEP[oa][ob][allowed]: codes whose (va, vb) combo is in `allowed`.
# _SEEN[o][mask]: bit 0 when value 0 occurs at offset o, bit 1 for value 1.

def _build_pair_tables():
    combos = [[[0] * 256 for _ in range(3)] for _ in range(3)]
    keep = [[[0] * 16 for _ in range(3)] for _ in range(3)]
    seen = [[0] * 256 for _ in range(3)]
    for oa in range(3):
        for ob in range(3):
            for mask in range(256):
                bits = 0
                for c in range(8):
                    if mask >> c & 1:
                        va = (c >> (2 - oa)) & 1
                        vb = (c >> (2 - ob)) & 1
                        bits |= 1 << (va * 2 + vb)
                combos[oa][ob][mask] = bits
            for allowed in range(16):
                m = 0
                for c in range(8):
                    va = (c >> (2 - oa)) & 1
                    vb = (c >> (2 - ob)) & 1
                    if allowed >> (va * 2 + vb) & 1:
                        m |= 1 << c
                keep[oa][ob][allowed] = m
    for o in range(3):
        for mask in range(256):
            s = 0
            for c in range(8):
                if mask >> c & 1:
                    s |= 2 if (c >> (2 - o)) & 1 else 1
            seen[o][mask] = s
    return combos, keep, seen


_COMBOS, _PAIR_KEEP, _SEEN = _build_pair_tables()


class _SystemContext:
    """Window geometry for a fixed tuple of permutations.

    In a cleared structure a variable's values, and a co-tiered pair's
    value combinations, are the same in every tier window that holds
    them (see `clear_masks`). So each variable and each pair keeps one
    window per structure: the lowest one that holds it.

    `var_bits[i][t]` holds bit var-1 of every variable whose window in
    structure i lies below tier t, and `pair_bits[i][t]` bit idx of
    every pair `pair_entries[idx]` whose window there lies below tier
    t; a window lies in tiers lo..hi when its bit is in
    `bits[hi + 1] ^ bits[lo]`, and `pair_bits[i][-1]` holds the pairs
    touching structure i.
    """

    __slots__ = ("const_window", "pair_entries", "var_bits", "pair_bits")

    def __init__(self, perms):
        # const_window[i][var-1] = (tier, offset)
        windows = perms[0].layout.windows
        self.const_window = [[windows[p] for p in perm.pos] for perm in perms]
        # pair -> [(structure, tier, oa, ob), ...], pairs as sorted tuples
        by_pair: dict[tuple[int, int], list] = {}
        for i, perm in enumerate(perms):
            order = perm.order
            for q in range(1, len(order)):
                j = windows[q][0]
                for p in range(j, q):
                    x, y = order[p], order[q]
                    if x < y:
                        by_pair.setdefault((x, y), []).append((i, j, p - j, q - j))
                    else:
                        by_pair.setdefault((y, x), []).append((i, j, q - j, p - j))
        self.pair_entries = [homes for _, homes in sorted(by_pair.items())
                             if len(homes) >= 2]
        tiers = len(perms[0]) - 2
        var_at = [[0] * tiers for _ in perms]
        for i, row in enumerate(self.const_window):
            for v, (j, _) in enumerate(row):
                var_at[i][j] |= 1 << v
        pair_at = [[0] * tiers for _ in perms]
        for idx, homes in enumerate(self.pair_entries):
            for i, j, _, _ in homes:
                pair_at[i][j] |= 1 << idx
        self.var_bits = [tuple(accumulate(row, or_, initial=0)) for row in var_at]
        self.pair_bits = [tuple(accumulate(row, or_, initial=0)) for row in pair_at]


@lru_cache(maxsize=2048)
def _system_context(perms) -> _SystemContext:
    return _SystemContext(perms)


def unify(structures: Sequence[Cts], sink=None,
          since: Sequence[Cts] | None = None) -> UnifyResult:
    """Fixpoint of the joint transformation rules over the system.

    A single-structure system degenerates to clearing. Emptiness is a
    result, not an error: the outcome records the cause and, for an
    emptied tier, which structure and tier (1-based) collapsed first.

    Each wave applies rule 1 to the structures changed in the previous
    wave (all of them in the first wave) and rule 2 to the pairs
    touching those or the ones rule 1 changed; the fixpoint of this
    monotone removal process is order-independent. The masks stay
    cleared throughout, so both rules read a variable or a pair from
    one window, the lowest that holds it, and restrict only that window
    before clearing (`settle`). When the rule allows no value there,
    that window empties, and it is the lowest tier that restricting
    every window would have emptied.

    A window is read only while stale, that is, changed since it was
    last read; `settle` reports the tiers each removal changed. An
    unchanged window repeats what its last read found, and the removals
    that read called for are made, so skipping it changes nothing; the
    windows of a fixed variable hold its value and are never read again.
    Within a wave the candidates are found in variable (rule 1) and
    pair (rule 2) order as the wave goes, so a window that went stale
    earlier in the wave is still read in it, as in a full scan. With
    `since`, a unify fixpoint over the same permutations that every
    input structure refines, windows start stale only in the tiers
    where the input differs from it (every window of a fixpoint has
    been read and agrees); without it, every window starts stale.

    With `since` the inputs must be cleared, and they are not cleared
    again; an input with an empty tier still ends the call with
    `CAUSE_EMPTY_INPUT`. Without `since` every input is cleared first.
    A `since` of another length, or with another permutation at some
    position, raises `ValueError`.

    A sink, when given, receives the system state before the first
    wave and after every wave.
    """
    if not structures:
        raise ValueError("need at least one structure")
    n = structures[0].n
    if any(s.n != n for s in structures):
        raise ValueError("structures must share the variable count")

    if since is None:
        current = [s.clear() for s in structures]
    else:
        if len(since) != len(structures):
            raise ValueError("since has %d structures, the system %d"
                             % (len(since), len(structures)))
        if any(old.perm is not s.perm and old.perm != s.perm
               for s, old in zip(structures, since)):
            raise ValueError("since differs from the system in a permutation")
        current = list(structures)
    for i, s in enumerate(current):
        if s.is_empty:
            return UnifyResult(None, waves=0, cause=CAUSE_EMPTY_INPUT,
                               structure_index=i)
    if len(current) == 1:
        return UnifyResult((current[0],), waves=1)

    k = len(current)
    ctx = _system_context(tuple(s.perm for s in structures))
    const_window, pair_entries = ctx.const_window, ctx.pair_entries
    var_bits, pair_bits = ctx.var_bits, ctx.pair_bits
    masks = [s.masks() for s in current]
    if since is None:
        stale_vars = [var_bits[i][-1] for i in range(k)]
        stale_pairs = (1 << len(pair_entries)) - 1
    else:
        stale_vars = [0] * k
        stale_pairs = 0
        for i, (m, old) in enumerate(zip(masks, since)):
            vb, pb = var_bits[i], pair_bits[i]
            for t in compress(range(len(m)), map(ne, m, old.tiers)):
                stale_vars[i] |= vb[t + 1] ^ vb[t]
                stale_pairs |= pb[t + 1] ^ pb[t]
    if sink is not None:
        _emit_wave(sink, current, masks, 0)
    fixed = 0   # bit var-1 of every variable concretized everywhere
    waves = 0
    dirty = set(range(k))
    while dirty:
        waves += 1
        touched: set[int] = set()

        # rule 1: stale windows of dirty structures, in variable order;
        # a constant is concretized everywhere
        order = sorted(dirty)
        pending = 0
        for i in order:
            pending |= stale_vars[i]
        pending &= ~fixed
        while pending:
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1   # variable v + 1
            value = None
            for i in order:
                if not stale_vars[i] & low:
                    continue
                stale_vars[i] ^= low
                j, off = const_window[i][v]
                seen = _SEEN[off][masks[i][j]]
                if seen == 3:
                    continue
                if value is None:
                    value = seen >> 1
                elif value != seen >> 1:
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_CONSTANT_CONFLICT,
                                       structure_index=i)
            if value is None:
                continue
            fixed |= low
            later = -(low << 1)   # the bits above low
            for i, m in enumerate(masks):
                j, off = const_window[i][v]
                kept = m[j] & _KEEP_BIT[off][value]
                if kept == m[j]:
                    continue
                m[j] = kept
                lo, hi = settle(m, j)
                if lo is None:
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_EMPTY_TIER,
                                       structure_index=i,
                                       empty_tier=hi + 1)
                bits = (var_bits[i][hi + 1] ^ var_bits[i][lo]) & ~fixed
                stale_vars[i] |= bits
                stale_pairs |= pair_bits[i][hi + 1] ^ pair_bits[i][lo]
                if i in dirty:
                    pending |= bits & later
                touched.add(i)

        # rule 2: stale pairs touching a dirty or rule-1 changed
        # structure, in pair order
        scan = 0
        for i in dirty | touched:
            scan |= pair_bits[i][-1]
        pending = stale_pairs & scan
        while pending:
            low = pending & -pending
            pending ^= low
            stale_pairs ^= low
            later = scan & -(low << 1)
            homes = pair_entries[low.bit_length() - 1]
            rels = [_COMBOS[oa][ob][masks[i][j]] for i, j, oa, ob in homes]
            allowed = 15
            for rel in rels:
                allowed &= rel
            for (i, j, oa, ob), rel in zip(homes, rels):
                if rel == allowed:
                    continue
                m = masks[i]
                m[j] &= _PAIR_KEEP[oa][ob][allowed]
                lo, hi = settle(m, j)
                if lo is None:
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_EMPTY_TIER,
                                       structure_index=i,
                                       empty_tier=hi + 1)
                stale_vars[i] |= (var_bits[i][hi + 1] ^ var_bits[i][lo]) & ~fixed
                bits = pair_bits[i][hi + 1] ^ pair_bits[i][lo]
                stale_pairs |= bits
                pending |= bits & later
                touched.add(i)
        if sink is not None:
            _emit_wave(sink, current, masks, waves)
        dirty = touched

    result = tuple(s.with_masks(m) for s, m in zip(current, masks))
    return UnifyResult(result, waves=waves)


def _emit_wave(sink, current, masks, wave: int) -> None:
    parts = []
    for i, (s, m) in enumerate(zip(current, masks), start=1):
        parts.append("S%d:" % i)
        parts.append(s.with_masks(m).render())
    sink.write("unify_wave_%02d" % wave, "\n".join(parts))
