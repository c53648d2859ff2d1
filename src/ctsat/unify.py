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

A system is one int, its structures side by side, structure i in lane
i (`cts.stack`), and `unify` returns the fixpoint in the same form. Its
window geometry depends only on the lanes' permutations; the caller
gets it once, as a `UnifyContext` (`unify_context` keeps one per tuple
of permutations), and passes it to every call on systems over those
permutations. The context's entries that depend only on the shape (tier
count and lane) are built once, on first use, and shared by every
context (`shape_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress
from operator import or_
from typing import NamedTuple, Sequence

from .cts import _KEEP as _KEEP_BIT
from .cts import Cts, Perm, has_empty_lane, layout, settle

CAUSE_EMPTY_INPUT = "empty-input"
CAUSE_CONSTANT_CONFLICT = "constant-conflict"
CAUSE_EMPTY_TIER = "empty-tier"


@dataclass
class UnifyResult:
    packed: int | None  # the fixpoint, stacked as the input; None if empty
    waves: int
    cause: str | None = None
    structure_index: int | None = None
    empty_tier: int | None = None  # 1-based, when cause is an empty tier

    @property
    def empty(self) -> bool:
        return self.packed is None


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


class ShapeRows(NamedTuple):
    """The `UnifyContext` entries of one shape (`lanes` lanes of `tiers`
    tiers) that depend on the shape alone, built once by `shape_rows`.

    `lane_tier[b]` is the (lane, tier) of byte b of the buffer. For the
    variable at position p of lane i, `reads[i][p]` is its read entry
    (byte, `_SEEN` row) and `writes[i][p]` its write entry (lane, lane
    start, tier, byte, `cts._KEEP` row), where the byte is lane × tiers
    + the tier of the lowest window holding position p. `homes[i]` holds
    the pair homes of lane i, two per co-tiered position pair p < q in
    the order (q, p) ascending: the home when the smaller variable sits
    at p, then when it sits at q. A home is (byte, `_COMBOS` row,
    `_PAIR_KEEP` row, lane, lane start, tier), the rows indexed by the
    offset of the smaller variable first. The rows of lane i do not
    depend on the lane count, and shapes of one tier count share them.
    """

    lane_tier: tuple[tuple[int, int], ...]
    reads: tuple[tuple, ...]
    writes: tuple[tuple, ...]
    homes: tuple[tuple, ...]


@lru_cache(maxsize=None)
def _lane_rows(tiers: int, i: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Lane i's part of the four `ShapeRows` fields: its (lane, tier)
    pairs, read entries, write entries and homes."""
    windows = layout(tiers).windows
    start = i * tiers
    homes = []
    # the pair at positions p < q lies in tier j = max(q - 2, 0), at
    # offsets p - j and q - j
    for q in range(1, tiers + 2):
        j = windows[q][0]
        for p in range(j, q):
            a, c = p - j, q - j
            homes.append((start + j, _COMBOS[a][c], _PAIR_KEEP[a][c],
                          i, start, j))
            homes.append((start + j, _COMBOS[c][a], _PAIR_KEEP[c][a],
                          i, start, j))
    return (tuple((i, t) for t in range(tiers)),
            tuple((start + j, _SEEN[off]) for j, off in windows),
            tuple((i, start, j, start + j, _KEEP_BIT[off])
                  for j, off in windows),
            tuple(homes))


@lru_cache(maxsize=None)
def shape_rows(tiers: int, lanes: int) -> ShapeRows:
    """The `ShapeRows` of a shape, built on first use and shared by every
    context of that shape."""
    lane_tier, reads, writes, homes = zip(
        *(_lane_rows(tiers, i) for i in range(lanes)))
    return ShapeRows(tuple(chain.from_iterable(lane_tier)), reads, writes,
                     homes)


class UnifyContext:
    """Window geometry of systems over one tuple of permutations, lane i
    over perms[i].

    In a cleared structure a variable's values, and a co-tiered pair's
    value combinations, are the same in every tier window that holds
    them (see `clear_masks`). So each variable and each pair keeps one
    window per lane: the lowest one that holds it, addressed by its
    absolute byte in the buffer of the stacked system (lane × tiers +
    tier). Every entry is a row of `shape`, the `ShapeRows` of the
    system's shape, shared by identity with every context of that shape;
    a context holds references to them, sorted by variable and pair.

    `layout` is the lane `Layout` of the stacked system.
    `reads[i][var-1]` is the variable's read entry in lane i, and
    `writes[var-1]` its write entries, one per lane in lane order.
    `pair_entries` holds, for every pair co-tiered in two or more
    lanes, its homes, one per lane. `var_bits[i][t]` holds bit var-1 of
    every variable whose window in lane i lies below tier t, and
    `pair_bits[i][t]` bit idx of every pair `pair_entries[idx]` whose
    window there lies below tier t; a window lies in tiers lo..hi when
    its bit is in `bits[hi + 1] ^ bits[lo]`, and `pair_bits[i][-1]`
    holds the pairs touching lane i.
    """

    __slots__ = ("perms", "layout", "shape", "reads", "writes",
                 "pair_entries", "var_bits", "pair_bits")

    def __init__(self, perms: Sequence[Perm]):
        if not perms:
            raise ValueError("need at least one structure")
        n = len(perms[0])
        if any(len(p) != n for p in perms):
            raise ValueError("structures must share the variable count")
        self.perms = tuple(perms)
        tiers = perms[0].layout.tiers
        self.layout = layout(tiers, len(perms))
        shape = self.shape = shape_rows(tiers, len(perms))
        self.reads = [[row[p] for p in perm.pos]
                      for row, perm in zip(shape.reads, perms)]
        self.writes = list(zip(*[[row[p] for p in perm.pos]
                                 for row, perm in zip(shape.writes, perms)]))
        # pairs keyed x * n + y for variables x < y, so the keys sort as
        # (x, y); the homes of lane i come in the order of shape.homes[i]
        windows = self.layout.windows
        by_pair: dict[int, list] = {}
        for row, perm in zip(shape.homes, perms):
            order = perm.order
            s = 0
            for q in range(1, n):
                y = order[q]
                for p in range(windows[q][0], q):
                    x = order[p]
                    if x < y:
                        home, key = row[s], x * n + y
                    else:
                        home, key = row[s + 1], y * n + x
                    s += 2
                    by_pair.setdefault(key, []).append(home)
        self.pair_entries = [tuple(by_pair[key]) for key in sorted(by_pair)
                             if len(by_pair[key]) >= 2]
        pair_at = [0] * (tiers * len(perms))   # by byte
        for idx, homes in enumerate(self.pair_entries):
            bit = 1 << idx
            for b, _, _, _, _, _ in homes:
                pair_at[b] |= bit
        self.pair_bits = [
            tuple(accumulate(pair_at[i * tiers:(i + 1) * tiers], or_,
                             initial=0))
            for i in range(len(perms))]
        # the variable at position p has its window in tier max(p - 2, 0)
        self.var_bits = [
            (0, *tuple(accumulate((1 << (v - 1) for v in perm.order), or_))[2:])
            for perm in perms]


@lru_cache(maxsize=2048)
def unify_context(perms: tuple[Perm, ...]) -> UnifyContext:
    """The `UnifyContext` of a tuple of permutations, built once while
    it stays in the cache."""
    return UnifyContext(perms)


def unify(x: int, ctx: UnifyContext, since: int, sink=None) -> UnifyResult:
    """Fixpoint of the joint transformation rules over a stacked system.

    x holds the structures side by side, structure i in lane i over
    `ctx.perms[i]` (`cts.stack`), and the fixpoint comes back in the
    same form, as `UnifyResult.packed`. Emptiness is a result, not an
    error: the outcome records the cause and, for an emptied tier, which
    structure and tier (1-based) collapsed first.

    x must be cleared, and `since` is a unify fixpoint over the same
    permutations that x refines lane by lane; x is not cleared again,
    and a lane with an empty tier ends the call with
    `CAUSE_EMPTY_INPUT`. An x that does not refine `since`
    (x | since != since) raises `ValueError`. The complete system
    (every tier full) is a fixpoint that every cleared input refines,
    and the caller with no closer one passes it.

    The masks live in one bytearray, the bytes of x: tier t of lane i
    at byte i * tiers + t. Each wave applies rule 1 to the lanes changed
    in the previous wave (all of them in the first wave) and rule 2 to
    the pairs touching those or the ones rule 1 changed; the fixpoint
    of this monotone removal process is order-independent. The masks
    stay cleared throughout, so both rules read a variable or a pair
    from one window, the lowest that holds it, and restrict only that
    window before clearing outward from it inside its lane (`settle`).
    When the rule allows no value there, that window empties, and it is
    the lowest tier that restricting every window would have emptied.

    A window is read only while stale, that is, changed since it was
    last read; `settle` reports the tiers each removal changed. The
    first wave starts from the windows in the tiers whose bytes differ
    from `since`, the non-zero bytes of x ^ since. A window in a tier
    equal to since's repeats what a read of the fixpoint found (every
    window of a fixpoint agrees, and a full window shows both values
    and all four combinations), and the removals that read called for
    are made, so skipping it changes nothing; the windows of a fixed
    variable hold its value and are never read again. Within a wave the
    candidates are found in variable (rule 1) and pair (rule 2) order
    as the wave goes, so a window that went stale earlier in the wave
    is still read in it, as in a full scan. A pair whose homes all show
    the same combinations removes nothing and is passed over.

    A sink, when given, receives the system state before the first
    wave and after every wave.
    """
    lay = ctx.layout
    tiers, k = lay.tiers, lay.lanes
    size = tiers * k
    if x | since != since:
        raise ValueError("x does not refine since")
    if has_empty_lane(x, lay):   # the first lane with a zero byte
        first = x.to_bytes(size, "little").index(0) // tiers
        return UnifyResult(None, waves=0, cause=CAUSE_EMPTY_INPUT,
                           structure_index=first)

    reads, writes, pair_entries = ctx.reads, ctx.writes, ctx.pair_entries
    var_bits, pair_bits = ctx.var_bits, ctx.pair_bits
    lane_tier = ctx.shape.lane_tier
    buf = bytearray(x.to_bytes(size, "little"))
    stale_vars = [0] * k
    stale_pairs = 0
    for b in compress(range(size), (x ^ since).to_bytes(size, "little")):
        i, t = lane_tier[b]
        vb, pb = var_bits[i], pair_bits[i]
        stale_vars[i] |= vb[t + 1] ^ vb[t]
        stale_pairs |= pb[t + 1] ^ pb[t]
    if sink is not None:
        _emit_wave(sink, ctx, buf, 0)
    fixed = 0   # bit var-1 of every variable concretized everywhere
    waves = 0
    dirty = set(range(k))
    while dirty:
        waves += 1
        touched: set[int] = set()

        # rule 1: stale windows of dirty lanes, in variable order; a
        # constant is concretized everywhere
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
                b, row = reads[i][v]
                seen = row[buf[b]]
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
            for i, start, j, b, keep in writes[v]:
                old = buf[b]
                kept = old & keep[value]
                if kept == old:
                    continue
                buf[b] = kept
                lo, hi = settle(buf, start, j, tiers)
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

        # rule 2: stale pairs touching a dirty or rule-1 changed lane,
        # in pair order
        scan = 0
        for i in dirty | touched:
            scan |= pair_bits[i][-1]
        pending = stale_pairs & scan
        stale_pairs ^= pending   # read in this wave
        while pending:
            low = pending & -pending
            pending ^= low
            homes = pair_entries[low.bit_length() - 1]
            allowed, union = 15, 0
            for b, combos, _, _, _, _ in homes:
                rel = combos[buf[b]]
                allowed &= rel
                union |= rel
            if allowed == union:   # every home agrees
                continue
            # each home lies in a lane of its own, so a removal below
            # leaves the windows of the other homes as they were read
            later = scan & -(low << 1)
            for b, _, keep, i, start, j in homes:
                old = buf[b]
                kept = old & keep[allowed]
                if kept == old:
                    continue
                buf[b] = kept
                lo, hi = settle(buf, start, j, tiers)
                if lo is None:
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_EMPTY_TIER,
                                       structure_index=i,
                                       empty_tier=hi + 1)
                stale_vars[i] |= (var_bits[i][hi + 1] ^ var_bits[i][lo]) & ~fixed
                bits = pair_bits[i][hi + 1] ^ pair_bits[i][lo]
                now = bits & later   # read later in this wave
                pending |= now
                stale_pairs |= bits ^ now
                touched.add(i)
        if sink is not None:
            _emit_wave(sink, ctx, buf, waves)
        dirty = touched

    return UnifyResult(int.from_bytes(buf, "little"), waves=waves)


def _emit_wave(sink, ctx: UnifyContext, buf: bytearray, wave: int) -> None:
    tiers = ctx.layout.tiers
    parts = []
    for i, perm in enumerate(ctx.perms):
        parts.append("S%d:" % (i + 1))
        parts.append(Cts._make(perm, int.from_bytes(
            buf[i * tiers:(i + 1) * tiers], "little")).render())
    sink.write("unify_wave_%02d" % wave, "\n".join(parts))
