"""Joint transformation of discordant CT structures to a fixpoint.

Structures over different permutations interact only here, through two
removal rules iterated with clearing until stable:

  1. a variable constant in any structure is concretized in all of them
     (conflicting constants empty the whole system);
  2. for every variable pair co-tiered in two or more structures, the
     observed value combinations are intersected across structures and
     lines outside the intersection are removed.

Rule 1 is rule 2 on a window of one variable: the intersection of a
variable's value sets across structures is {v} when some structure
shows v alone, and empty when two show different constants. So both
rules are one read of a constraint, a variable or a pair, in all its
homes: `allowed`, the AND of what the homes show, and `union`, their
OR. A variable whose `allowed` is not both values is fixed, or is a
constant conflict when `allowed` is empty; otherwise every home is
restricted to `allowed` unless all of them agree.

Rule 2 reads only pairs of unfixed variables: once u is constant at
value a in every structure, each home of a pair (u, w) holds the
combinations {a} x W_i, W_i being w's value set in structure i, and
their intersection removes exactly what rule 1 removes when it reads w.

The unified system is empty or non-empty only as a whole, and the set
of assignments encoded in *all* structures is preserved exactly.

A system is one int, its structures side by side, structure i in lane
i (`cts.stack`), and `unify` returns the fixpoint in the same form. Its
window geometry depends only on the lanes' permutations; the caller
gets it once, as a `UnifyContext` (`unify_context` keeps one per tuple
of permutations), and passes it to every call on systems over those
permutations. A context addresses every window by one entry shape,
(byte, read row, keep row, lane start), for variables and pair homes
alike, and keeps one table of homes: each variable's entries, one per
lane, then each pair's. An entry depends only on the tier count, the
lane and the window's offsets, so each lane's entries are built once,
on first use, and shared by every context (`_lane_rows`); the table
rows are read off `cts._KEEP`.

The systemic procedure reads windows through a context too:
`window_codes` gives the codes of a tier window that lane 0 of a
fixpoint allows, which picks a projection's targets, and
`UnifyContext.off_value` the lines that its tier check forbids.

`unify` works in waves over one agenda of stale constraints, one int
with bit v-1 for variable v and bit n + p for pair p. Each wave reads
every stale constraint once, in bit order: rule 1's variables, then
rule 2's pairs of unfixed variables. Waves repeat while a wave removed
a line.

This module alone decides what the rules read in a window and whether
a removal changed it: `settle` clears a lane outward from one
restricted byte and marks stale the constraints whose windows lie at
the bytes whose reads changed, judged by the staleness tables
`_READS_FIRST` and `_READS_LATER`, which are built from the same
`_SEEN` and `_COMBOS` rows the rules read with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterator, Sequence

from .cts import (_KEEP, _PRED, _SUCC, TIER_FULL, Cts, Perm, has_empty_lane,
                  layout)

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


# Lookup tables for the hot loop, read off `cts._KEEP`: _KEEP[o][v]
# holds the codes whose bit at window offset o (0 = first variable of
# the tier) is v. A pair combination (va, vb) has index va*2 + vb.
# _SEEN[o][mask]: bit 0 when value 0 occurs at offset o, bit 1 for value 1.
# _KEEP_SET[o][s]: codes whose value at offset o lies in the 2-bit set s.
# _COMBO_CODES[oa][ob][va*2 + vb]: codes with value va at oa, vb at ob.
# _COMBOS[oa][ob][mask]: 4-bit set of the (va, vb) combos present in mask.
# _PAIR_KEEP[oa][ob][allowed]: codes whose (va, vb) combo is in allowed.
_SEEN = [[bool(mask & k0) | bool(mask & k1) << 1 for mask in range(256)]
         for k0, k1 in _KEEP]
_KEEP_SET = [[0, k0, k1, TIER_FULL] for k0, k1 in _KEEP]
_COMBO_CODES = [[[_KEEP[oa][va] & _KEEP[ob][vb] for va in (0, 1)
                  for vb in (0, 1)] for ob in range(3)] for oa in range(3)]
_COMBOS = [[[sum(1 << combo for combo, codes in enumerate(row)
                 if mask & codes) for mask in range(256)]
            for row in rows] for rows in _COMBO_CODES]
_PAIR_KEEP = [[[sum(codes for combo, codes in enumerate(row)
                    if allowed >> combo & 1) for allowed in range(16)]
               for row in rows] for rows in _COMBO_CODES]


def lowest_pairs(windows: tuple) -> Iterator[tuple[int, int, int]]:
    """(tier, offset, offset) of the lowest window holding each position
    pair p < q that shares a window, for `windows` a `Layout.windows`,
    by q and then p: tier j = windows[q][0], offsets p - j and q - j."""
    for q in range(1, len(windows)):
        j = windows[q][0]
        for p in range(j, q):
            yield j, p - j, q - j


def _read_table(t: int) -> list[int]:
    """What the rules read in tier t (0 or a later tier), by mask: the
    `_SEEN` rows of the offsets whose lowest window is tier t side by
    side, two bits each from bit 0, then the `_COMBOS` rows of the pairs
    whose lowest window is tier t, four bits each from bit 6. Two masks
    read alike exactly when their entries are equal, and alike in the
    value sets exactly when the entries agree on `_VALUES`."""
    windows = layout(t + 1).windows
    seen = [_SEEN[off] for j, off in windows if j == t]
    combos = [_COMBOS[a][c] for j, a, c in lowest_pairs(windows) if j == t]
    return [sum(row[mask] << 2 * k for k, row in enumerate(seen))
            | sum(row[mask] << 6 + 4 * k for k, row in enumerate(combos))
            for mask in range(256)]


_VALUES = 0x3F   # the value-set bits of a `_read_table` entry
_READS_FIRST = _read_table(0)
_READS_LATER = _read_table(1)


def settle(buf: list[int], b: int, start: int, tiers: int, old: int,
           var_at: Sequence[int], pair_at: Sequence[int],
           marks: int) -> int:
    """Clear the lane of `tiers` masks at buf[start:start + tiers],
    cleared before its byte b alone was restricted from the mask `old`.
    buf is the list of masks that `unify` builds, one int below 256 per
    byte of the stacked system.

    Walks down from byte b while the next lower tier loses lines, then
    up from byte b the same way, mutating the lane in place and never
    reading or writing outside it. Returns the running marks, `marks`
    (a non-negative int of constraint bits), ORed with `var_at[byte]`
    over the bytes whose value sets changed and with `pair_at[byte]`
    over those whose pair combinations changed, both as the rules read
    them (`_READS_FIRST`, `_READS_LATER`). A byte's old mask is `old`
    for byte b and the mask the walk overwrote for the others. When a
    tier empties, the lane is zeroed and the result is ~t, a negative
    int, with t the index that `cts.clear_masks` reports.

    The masks equal `cts.clear_masks`'. A line removed on the way down
    has no successor, so it is no kept line's only predecessor; a line
    removed on the way up has no predecessor, so it is no kept line's
    only successor. The tiers beyond either walk kept their support,
    and only the walk down can empty a tier, in the order of
    `clear_masks`' backward pass.
    """
    later = _READS_LATER
    m = buf[b]
    reads = _READS_FIRST if b == start else later
    d = reads[old] ^ reads[m]
    if d:
        marks |= pair_at[b]
        if d & _VALUES:
            marks |= var_at[b]
    lo = b
    while m and lo > start:
        o = buf[lo - 1]
        m = o & _PRED[buf[lo]]
        if m == o:
            break
        lo -= 1
        buf[lo] = m
        reads = _READS_FIRST if lo == start else later
        d = reads[o] ^ reads[m]
        if d:
            marks |= pair_at[lo]
            if d & _VALUES:
                marks |= var_at[lo]
    if not m:
        buf[start:start + tiers] = [0] * tiers
        return ~(lo - start)
    last = start + tiers - 1
    while b < last:
        o = buf[b + 1]
        m = o & _SUCC[buf[b]]
        if m == o:
            break
        b += 1
        buf[b] = m
        d = later[o] ^ later[m]
        if d:
            marks |= pair_at[b]
            if d & _VALUES:
                marks |= var_at[b]
    return marks


@lru_cache(maxsize=None)
def _lane_rows(tiers: int, i: int) -> tuple[tuple, tuple]:
    """The window entries of lane i of `tiers` tiers, built on first use
    and shared by every context: its variable entries, by position, and
    its pair homes.

    An entry is (byte, read row, keep row, lane start) for the lowest
    window holding a variable or pair, its byte lane × tiers + tier; the
    lane is start // tiers. A variable at offset o reads its value set
    with `_SEEN[o]` and restricts to a value set with `_KEEP_SET[o]`.
    The homes hold two entries per co-tiered position pair p < q, in the
    order of `lowest_pairs`, (q, p) ascending: the home when the smaller
    variable sits at p, then when it sits at q, with the `_COMBOS` and
    `_PAIR_KEEP` rows indexed by the offset of the smaller variable
    first. The rows of lane i do not depend on the lane count.
    """
    windows = layout(tiers).windows
    start = i * tiers
    homes = []
    for j, a, c in lowest_pairs(windows):
        for oa, ob in ((a, c), (c, a)):
            homes.append((start + j, _COMBOS[oa][ob], _PAIR_KEEP[oa][ob],
                          start))
    return (tuple((start + j, _SEEN[off], _KEEP_SET[off], start)
                  for j, off in windows),
            tuple(homes))


class UnifyContext:
    """Window geometry of systems over one tuple of permutations, lane i
    over perms[i].

    In a cleared structure a variable's values, and a co-tiered pair's
    value combinations, are the same in every tier window that holds
    them (see `clear_masks`). So each variable and each pair keeps one
    window per lane: the lowest one that holds it, addressed by its
    absolute byte in the buffer of the stacked system (lane × tiers +
    tier). Each window is one entry (byte, read row, keep row, lane
    start) of `_lane_rows`, shared by identity with every context; a
    context holds references to them, sorted by variable and pair.

    `layout` is the lane `Layout` of the stacked system. `homes` holds
    the entries of every constraint, one per lane in lane order:
    `homes[v-1]` those of variable v, then `homes[n + p]` those of the
    p-th pair (x, y), x < y, co-tiered in two or more lanes, by pair.
    A constraint's bit is its index in `homes`. `var_pairs[v-1]` holds
    the bits of the pairs that contain variable v. By byte b of the
    buffer, `var_at[b]` holds the bits of the variables whose window is
    at byte b, and `pair_at[b]` the bits of the pairs with a home at
    byte b.
    """

    __slots__ = ("perms", "layout", "homes", "var_pairs", "var_at",
                 "pair_at", "_off_value")

    def __init__(self, perms: Sequence[Perm]):
        if not perms:
            raise ValueError("need at least one structure")
        n = len(perms[0])
        if any(len(p) != n for p in perms):
            raise ValueError("structures must share the variable count")
        self.perms = tuple(perms)
        tiers = perms[0].layout.tiers
        self.layout = layout(tiers, len(perms))
        rows = [_lane_rows(tiers, i) for i in range(len(perms))]
        self.homes = list(zip(*([entries[p] for p in perm.pos]
                                for (entries, _), perm in zip(rows, perms))))
        # pairs keyed (x - 1) * n + y - 1 for variables x < y, so the keys
        # sort as (x, y); the homes of lane i come in the order of its rows
        windows = self.layout.windows
        by_pair: dict[int, list] = {}
        for (_, row), perm in zip(rows, perms):
            order = perm.order
            for s, (j, a, c) in enumerate(lowest_pairs(windows)):
                x, y = order[j + a], order[j + c]
                if x < y:
                    home, key = row[2 * s], (x - 1) * n + y - 1
                else:
                    home, key = row[2 * s + 1], (y - 1) * n + x - 1
                by_pair.setdefault(key, []).append(home)
        self.var_pairs = [0] * n
        for key in sorted(by_pair):
            if len(by_pair[key]) >= 2:
                bit = 1 << len(self.homes)
                u, w = divmod(key, n)
                self.var_pairs[u] |= bit
                self.var_pairs[w] |= bit
                self.homes.append(tuple(by_pair[key]))
        self.var_at = [0] * (tiers * len(perms))
        self.pair_at = [0] * (tiers * len(perms))
        for idx, entries in enumerate(self.homes):
            at = self.var_at if idx < n else self.pair_at
            for b, _, _, _ in entries:
                at[b] |= 1 << idx
        self._off_value = None

    @property
    def off_value(self) -> list[tuple[int, int]]:
        """`off_value[v-1][a]` holds, stacked as the system, the lines of
        variable v's lowest window in every lane at which v is not a: a
        cleared system with no empty lane shows v constant at a in every
        lane exactly when it holds none of them. Built on first use, as
        only the systemic procedure's tier check (`hyper.check_tier_codes`)
        reads it; the context cache keeps it for the next run."""
        if self._off_value is None:
            size = self.layout.tiers * self.layout.lanes
            self._off_value = []
            for entries in self.homes[:len(self.var_pairs)]:
                not0, not1 = bytearray(size), bytearray(size)
                # _KEEP_SET[o][2] holds the codes with value 1 at offset
                # o, and _KEEP_SET[o][1] those with value 0
                for b, _, keep, _ in entries:
                    not0[b], not1[b] = keep[2], keep[1]
                self._off_value.append((int.from_bytes(not0, "little"),
                                        int.from_bytes(not1, "little")))
        return self._off_value


@lru_cache(maxsize=2048)
def unify_context(perms: tuple[Perm, ...]) -> UnifyContext:
    """The `UnifyContext` of a tuple of permutations, built once while
    it stays in the cache."""
    return UnifyContext(perms)


def window_codes(x: int, ctx: UnifyContext,
                 variables: Sequence[int]) -> int:
    """The codes of a tier window over `variables`, its three variables
    in window order (the first most significant), whose values x shows
    in lane 0: the mask of the codes c whose value at offset k lies in
    the value set of variables[k], read at that variable's lowest
    window of lane 0 (`ctx.homes`). x is cleared, so that window shows
    the variable's value set in the lane.

    The systemic procedure reads it on a unify fixpoint x to drop the
    projection targets whose AND with x is empty in every lane. A
    fixpoint shows each variable's value set in lane 0 as in every
    lane. A tier-s vertex tuple of code c holds c's three values
    constant in every lane (the invariant `hyper.check_tier_codes`
    checks). So when c lies outside the mask, some variable of the
    window lacks c's value in x in every lane, and the AND of x and the
    target is empty at x's lowest window of that variable in every
    lane: its clear is 0, it adds nothing to the projection's union, and
    it never equals x."""
    u, v, w = variables
    homes, lay = ctx.homes, ctx.layout
    masks = (x & lay.ones).to_bytes(lay.tiers, "little")   # lane 0
    b, row, _, _ = homes[u - 1][0]
    codes = _KEEP_SET[0][row[masks[b]]]
    b, row, _, _ = homes[v - 1][0]
    codes &= _KEEP_SET[1][row[masks[b]]]
    b, row, _, _ = homes[w - 1][0]
    return codes & _KEEP_SET[2][row[masks[b]]]


def unify(x: int, ctx: UnifyContext, since: int, sink=None,
          fix: Sequence[tuple[int, int]] = ()) -> UnifyResult:
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

    `fix` holds (variable, value) pairs to fix in every lane before the
    first wave. The result is, field for field, that of a call without
    `fix` on x concretized on them in every lane
    (`cts.concretize_lanes`, one mask and a full clear). Here each
    lane's lowest window of each variable is restricted in the buffer
    and cleared outward from it (`settle`), lane by lane; a lane that
    empties there ends the call with `CAUSE_EMPTY_INPUT` and that lane,
    the first one the concretized input would show empty.

    Some calls run no wave; the caller makes no test of its own:
      - x equal to `since`, tested before any other work. x is then a
        fixpoint, which shows each variable's value set in lane 0 as in
        every lane, so lane 0's windows decide the fix, read from the
        int with no buffer built. With no fix, or one whose variables
        all show their value alone, the result is x; when some variable
        lacks its value, every lane empties and the result is
        `CAUSE_EMPTY_INPUT` on lane 0. Any other fix goes on as below;
      - a lane with an empty tier, in x or after the fix, as above;
      - a lone lane, returned after the fix: its constants are its own
        and no pair has two homes, so neither rule removes a line.

    The masks live in one list of ints, the bytes of x: tier t of lane
    i at byte i * tiers + t. It is a list, not a bytearray, because
    CPython 3.11+ specializes a list subscript by an int (PEP 659) and
    leaves a bytearray's generic, and the waves and `settle` do little
    but read and write masks. Each wave reads every stale constraint
    once, in bit order (`ctx.homes`): rule 1's variables by variable,
    then rule 2's pairs by pair; waves repeat while a wave removed a
    line. The fixpoint of this monotone removal process is
    order-independent; the order decides only the wave count and, when
    the system empties, the structure, tier and cause met first. The
    masks stay cleared throughout, so a constraint is read from one
    window per lane, the lowest that holds it, and a removal restricts
    only that window before clearing outward from it inside its lane
    (`settle`). When the rule allows no value there, that window
    empties, and it is the lowest tier that restricting every window
    would have emptied. A constant conflict is reported at the lane
    where the AND of the value sets, taken in lane order, first
    empties.

    A constraint is read only while stale, that is, while what it reads
    in some home changed since it was last read: a variable window's
    value set, a pair home's combination set. `settle` compares each
    byte a removal rewrites before and after through `_READS_FIRST` and
    `_READS_LATER`, and marks the variables whose windows lie at the
    bytes whose value sets changed (`ctx.var_at`) and the pairs with a
    home at the bytes whose combination sets changed (`ctx.pair_at`),
    ORing them into the running marks it is given. The first wave's
    stale constraints are those of the same test on the bytes where x
    and `since` differ, and those that `settle` marks for the fix. A
    read only loses bits as its mask shrinks, so a window whose reads
    changed in some fix step differs from `since` at the end, and the
    marks are the ones a scan of the concretized input would make. A
    stale constraint reads every home; which lanes changed is not kept,
    since a home that did not change decides nothing: an unfixed
    variable's unchanged window shows both values, as at its last read
    or, unread, as in `since`, a fixpoint that shows no unfixed variable
    constant.

    `done` holds the bit of each variable fixed, constant in every lane,
    and the bits of its pairs (`ctx.var_pairs`); none of them is read
    again. It starts with the constants of `since`, read in its lane 0
    (a fixpoint shows each constant in every lane, and x, refining it,
    keeps them), then takes the fix's variables, constant in every lane
    after the fix, and each constant rule 1 finds. A pair of a fixed
    variable loses no removal: with u fixed at a, each home of (u, w)
    holds the combinations {a} x W_i, where W_i is w's value set in
    lane i, and their intersection removes the lines with w != b when
    some lane has W_i = {b}, as rule 1 does when it reads w, and
    empties a tier when the W_i are {0} and {1}, where rule 1 finds a
    constant conflict. A change of W_i marks w stale, so rule 1 reads
    it. The fixpoint is the same; the waves, and on an emptied system
    the cause, structure and tier met first, can differ from a scan
    that reads those pairs too.

    Within a wave the stale constraints are taken in bit order as the
    wave goes, so one that goes stale ahead of the scan is still read
    in this wave, as in a full scan; one that goes stale behind it is
    read in the next wave, which the removal that made it stale sets
    going. A constraint whose homes all show the same set removes
    nothing (a variable that every home shows constant is still fixed);
    a pair whose homes agree at a read stays so until one of them
    changes and marks it again. A pair that a read restricts is not
    marked by its own removal: every home then shows `allowed` exactly.

    The agenda takes a read's marks once, after all its removals: the
    removal loop runs `settle` on each restricted home with the marks
    so far, and only then drops `done` and the read's own bit and
    splits the rest into this wave's bits, above the read's, and the
    next wave's. This is exact: each home lies in a lane of its own, so
    a removal leaves the windows of the other homes as they were read,
    and `done`, the read's bit and the scan position do not change
    inside the loop, so the split of the OR is the OR of the splits.

    A sink, when given, receives the system state after the fix,
    before the first wave, and after every wave; a call that ends
    before then writes nothing.
    """
    if x == since:   # a fixpoint: lane 0 shows every lane's value sets
        removes = False
        for var, value in fix:
            b, row, _, _ = ctx.homes[var - 1][0]
            seen = row[x >> 8 * b & TIER_FULL]
            if not seen >> value & 1:
                return UnifyResult(None, 0, CAUSE_EMPTY_INPUT, 0)
            removes = removes or seen == 3
        if not removes:   # positional: the most frequent call is this one
            return UnifyResult(x, 0)
    lay = ctx.layout
    tiers, k = lay.tiers, lay.lanes
    size = tiers * k
    if x | since != since:
        raise ValueError("x does not refine since")
    if has_empty_lane(x, lay):   # the first lane with a zero byte
        first = x.to_bytes(size, "little").index(0) // tiers
        return UnifyResult(None, waves=0, cause=CAUSE_EMPTY_INPUT,
                           structure_index=first)

    homes, var_pairs = ctx.homes, ctx.var_pairs
    var_at, pair_at = ctx.var_at, ctx.pair_at
    n = len(var_pairs)
    buf = list(x.to_bytes(size, "little"))
    seed = buf   # since's bytes; read before the fix rewrites buf
    stale = 0
    if x != since:
        seed = since.to_bytes(size, "little")
        for b in compress(range(size), (x ^ since).to_bytes(size, "little")):
            view = _READS_LATER if b % tiers else _READS_FIRST
            d = view[seed[b]] ^ view[buf[b]]
            if d:
                stale |= pair_at[b]
                if d & _VALUES:
                    stale |= var_at[b]
    # the bits of every variable concretized everywhere and of its
    # pairs: since's constants, read in lane 0 of that fixpoint, then
    # the fix's variables and rule 1's constants
    done = 0
    for v in range(n):
        b, row, _, _ = homes[v][0]
        if row[seed[b]] != 3:
            done |= 1 << v | var_pairs[v]
    if fix:
        for var, _ in fix:
            done |= 1 << var - 1 | var_pairs[var - 1]
        for i in range(k):
            for var, value in fix:
                b, _, keep, start = homes[var - 1][i]
                old = buf[b]
                kept = old & keep[1 << value]
                if kept == old:
                    continue
                buf[b] = kept
                stale = settle(buf, b, start, tiers, old, var_at, pair_at,
                               stale)
                if stale < 0:
                    return UnifyResult(None, waves=0,
                                       cause=CAUSE_EMPTY_INPUT,
                                       structure_index=i)
    if sink is not None:
        _emit_wave(sink, ctx, buf, 0)
    if k == 1:   # its constants are its own, and no pair has two homes
        return UnifyResult(int.from_bytes(buf, "little"), waves=0)
    waves = 0
    changed = True
    while changed:
        waves += 1
        changed = False
        pending, stale = stale & ~done, 0   # read in this wave
        while pending:
            low = pending & -pending
            pending ^= low
            idx = low.bit_length() - 1
            entries = homes[idx]
            allowed, union = 15, 0
            for b, row, _, _ in entries:
                rel = row[buf[b]]
                allowed &= rel
                union |= rel
            if idx < n and allowed != 3:   # rule 1 found a constant
                if not allowed:   # report where the AND, by lane, empties
                    allowed = 3
                    for b, row, _, start in entries:
                        allowed &= row[buf[b]]
                        if not allowed:
                            return UnifyResult(
                                None, waves=waves,
                                cause=CAUSE_CONSTANT_CONFLICT,
                                structure_index=start // tiers)
                done |= low | var_pairs[idx]
                pending &= ~done
            if allowed == union:   # every home agrees
                continue
            # some home shows more than allowed, so the loop restricts
            # at least one; its marks go to the agenda once, after it
            changed = True
            acc = 0
            for b, _, keep, start in entries:
                old = buf[b]
                kept = old & keep[allowed]
                if kept == old:
                    continue
                buf[b] = kept
                acc = settle(buf, b, start, tiers, old, var_at, pair_at, acc)
                if acc < 0:
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_EMPTY_TIER,
                                       structure_index=start // tiers,
                                       empty_tier=~acc + 1)
            # low itself goes unmarked: each home held every combination
            # in allowed, its keep row keeps exactly those, and settle
            # never rewrites the byte it starts from, so every home now
            # shows allowed and a re-read would remove nothing (a
            # variable's bit is in done already)
            acc &= ~(done | low)
            ahead = acc >> idx << idx   # the bits above low
            pending |= ahead
            stale |= acc ^ ahead
        if sink is not None:
            _emit_wave(sink, ctx, buf, waves)

    return UnifyResult(int.from_bytes(buf, "little"), waves=waves)


def _emit_wave(sink, ctx: UnifyContext, buf: list[int], wave: int) -> None:
    tiers = ctx.layout.tiers
    parts = []
    for i, perm in enumerate(ctx.perms):
        parts.append("S%d:" % (i + 1))
        parts.append(Cts._make(perm, int.from_bytes(
            buf[i * tiers:(i + 1) * tiers], "little")).render())
    sink.write("unify_wave_%02d" % wave, "\n".join(parts))
