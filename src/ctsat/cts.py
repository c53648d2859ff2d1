"""Compact triplet structures: tiered bitmask sets of binary assignments.

A structure over a permutation of n variables has n-2 tiers; tier j
constrains permutation positions j, j+1, j+2. Each tier holds a subset
of the 8 value triplets, encoded as one 8-bit mask (triplet (b1,b2,b3)
-> bit 4*b1 + 2*b2 + b3, first variable of the tier most significant).
Lines at adjacent tiers adjoin when their two overlapping values
coincide; chains of adjoining lines spell full assignments.

A `Cts` stores its n-2 masks packed in one int, tier j in byte j (bits
8j..8j+7), so a tier-wise union is one OR and a tier-wise intersection
one AND. Only this module knows that layout: `Cts.tiers` is the derived
tuple of masks, and `Cts.masks` / `Cts.with_masks` hand mutable mask
lists to callers that edit single tiers (`ctsat.unify`). The constants
of the packed form depend only on the tier count; each `Perm` holds
the `Layout` of its width, built once per width.

Clearing removes lines with no adjoining line in an adjacent tier, to a
fixpoint. A cleared structure with no empty tier encodes a non-empty
assignment set; the canonical empty structure has every tier zeroed.
Two kernels compute it:

- `clear_packed` works on the packed int. One step finds, in every tier
  at once, the lines with a successor in the next tier and those with a
  predecessor in the previous one (mask-and-shift steps on the byte
  lanes; the last and the first tier are exempt from the respective
  test) and keeps the lines that have both. It repeats the step until
  nothing changes and returns 0 as soon as the has-zero-byte test
  (Warren, Hacker's Delight, ch. 6) finds an empty tier. Every `Cts`
  operation clears with it.
- `clear_masks` works on a list of masks, with one backward and one
  forward pass. It alone reports the first tier that emptied, which
  `ctsat.decompose` reports as evidence; the tests use it as the
  reference for `clear_packed`.

Both reach the same result, the greatest subset of the input in which
every line has its support; the argument is in `clear_packed`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

Bits = tuple[int, ...]

TIER_FULL = 0xFF

# Line t at tier j adjoins u at tier j+1 iff the low two bits of t
# equal the high two bits of u. These tables are the only definition of
# that adjacency; `hyper.TierGraph` builds its edges from _SUCC.


def _build_tables():
    succ = [0] * 256   # mask at tier j   -> codes supported at tier j+1
    pred = [0] * 256   # mask at tier j+1 -> codes supported at tier j
    for mask in range(256):
        s = p = 0
        for c in range(8):
            if mask >> c & 1:
                lo, hi = c & 3, c >> 1
                s |= (1 << (2 * lo)) | (1 << (2 * lo + 1))
                p |= (1 << hi) | (1 << (hi | 4))
        succ[mask], pred[mask] = s, p
    return succ, pred


_SUCC, _PRED = _build_tables()

# _KEEP[offset][value]: codes whose bit at window offset (0 = first
# variable of the tier) equals value.
_KEEP = [[0, 0] for _ in range(3)]
for _off in range(3):
    _bit = 4 >> _off
    for _val in (0, 1):
        _m = 0
        for _c in range(8):
            if bool(_c & _bit) == bool(_val):
                _m |= 1 << _c
        _KEEP[_off][_val] = _m


def clear_masks(masks: list[int]) -> tuple[list[int], int | None]:
    """Fixpoint removal of lines lacking support in an adjacent tier.

    Returns the cleared masks (mutated in place) and the (0-based) index
    of the tier that first became empty, or None. Once any tier empties,
    all tiers are zeroed (the canonical empty structure).

    The constraint graph is a path, so one backward pass (support in the
    next tier) followed by one forward pass (support in the previous
    tier) reaches the greatest fixpoint: the forward pass only keeps
    lines whose backward-established successors it also keeps.

    Only the initial scan and the backward pass can empty a tier. After
    the backward pass every line below the last tier has a successor in
    the next tier. The forward pass keeps at tier j the lines with a
    predecessor kept at tier j-1. Tier 0 is non-empty and untouched, and
    every line kept at tier j-1 has a successor at tier j, which is then
    kept; by induction no tier empties in the forward pass.

    So the cleared masks hold exactly the lines that lie on a full chain
    (one line per tier, adjoining throughout), and every full chain
    passes through every tier. A variable therefore takes the same
    values in every tier window that holds it, and a pair of variables
    the same value combinations; restricting one such window and then
    clearing gives the masks that restricting all of them gives.
    """
    last = len(masks) - 1
    if 0 in masks:
        return [0] * (last + 1), masks.index(0)
    pred, succ = _PRED, _SUCC
    m = masks[last]
    for j in range(last - 1, -1, -1):
        m = masks[j] & pred[m]
        if not m:
            return [0] * (last + 1), j
        masks[j] = m
    for j in range(1, last + 1):
        m = masks[j] & succ[m]
        masks[j] = m
    return masks, None


def settle(masks: list[int], j: int) -> tuple[int | None, int]:
    """Clear masks that were cleared before tier j alone was restricted.

    Walks down from tier j while the next lower tier loses lines, then
    up from tier j the same way, mutating masks in place. Returns
    (lo, hi), the first and last tier that changed (tier j is taken as
    changed). When a tier empties, every mask is zeroed and the result
    is (None, t) with t the index that `clear_masks` reports.

    The result equals `clear_masks`'. A line removed on the way down
    has no successor, so it is no kept line's only predecessor; a line
    removed on the way up has no predecessor, so it is no kept line's
    only successor. The tiers beyond either walk kept their support,
    and only the walk down can empty a tier, in the order of
    `clear_masks`' backward pass.
    """
    if masks[j] == 0:
        masks[:] = [0] * len(masks)
        return None, j
    lo = j
    while lo:
        m = masks[lo - 1] & _PRED[masks[lo]]
        if m == masks[lo - 1]:
            break
        lo -= 1
        if m == 0:
            masks[:] = [0] * len(masks)
            return None, lo
        masks[lo] = m
    hi, last = j, len(masks) - 1
    while hi < last:
        m = masks[hi + 1] & _SUCC[masks[hi]]
        if m == masks[hi + 1]:
            break
        hi += 1
        masks[hi] = m
    return lo, hi


class Layout(NamedTuple):
    """Constants of the packed form of `tiers` masks, tier j in byte j.
    The byte-lane fields repeat one byte in every tier."""

    tiers: int
    lsb: int     # 0x01 in every tier
    msb: int     # 0x80 in every tier
    even: int    # 0x55 in every tier
    pairs: int   # 0x33 in every tier
    low: int     # 0x0F in every tier
    first: int   # 0xFF in tier 0
    last: int    # 0xFF in the last tier


@lru_cache(maxsize=None)
def layout(tiers: int) -> Layout:
    """The packed-form constants for `tiers` tiers, one object per width."""
    lsb = int.from_bytes(b"\x01" * tiers, "little")
    return Layout(tiers, lsb, 0x80 * lsb, 0x55 * lsb, 0x33 * lsb, 0x0F * lsb,
                  TIER_FULL if tiers else 0,
                  TIER_FULL << 8 * (tiers - 1) if tiers else 0)


def clear_packed(x: int, lay: Layout) -> int:
    """Clear packed masks: the bit-parallel form of `clear_masks`.

    Returns the cleared packed masks, or 0 (every tier zeroed) when a
    tier empties. Each step keeps, in every tier at once, the lines
    that have a successor in the next tier (the last tier is exempt)
    and a predecessor in the previous one (the first tier is exempt),
    and the steps repeat until one removes nothing. Before each step
    the has-zero-byte test ((x - lsb) & ~x & msb, non-zero exactly when
    some byte of x is zero) looks for an empty tier.

    Same fixpoint as `clear_masks`: call a set of lines closed when
    each of its lines has its support inside the set. Closed subsets of
    the input are closed under union, so there is a greatest one, G,
    and `clear_masks` returns G (see there). A step maps x to x & S(x),
    and S, the lines supported by x, only grows with x. If G lies in x,
    then G = G & S(G) lies in x & S(x), so G lies in every step's
    result; the steps shrink x until one removes nothing, and then x is
    closed and lies in G. So the steps end at G. An empty tier leaves
    its neighbours' lines without support, so a closed set with an
    empty tier is empty throughout: once a tier of x is empty, G is 0,
    which is returned at once.
    """
    _, lsb, msb, even, pairs, low, first, last = lay
    while not (x - lsb) & ~x & msb:
        # t has a successor u in the next tier when u >> 1 == t & 3:
        # fold each bit pair (2h, 2h+1) of the next tier into bit h,
        # then copy bits 0..3 to bits 4..7
        y = x >> 8
        y = (y | y >> 1) & even
        y = (y | y >> 1) & pairs
        y = (y | y >> 2) & low
        keep = y | y << 4 | last
        # u has a predecessor t in the previous tier when t & 3 == u >> 1:
        # fold bits 4..7 onto bits 0..3, then spread bit h to bits 2h
        # and 2h+1 of the next tier
        y = (x | x >> 4) & low
        y = (y | y << 2) & pairs
        y = (y | y << 1) & even
        keep &= (y | y << 1) << 8 | first
        y = x & keep
        if y == x:
            return x
        x = y
    return 0


class Perm:
    """A permutation of the variables 1..n with O(1) position lookup and
    the packed-form `Layout` of its n-2 tiers."""

    __slots__ = ("order", "pos", "layout")

    def __init__(self, order: Sequence[int]):
        order = tuple(order)
        n = len(order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, order))
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v - 1] = i
        self.order = order
        self.pos = tuple(pos)
        self.layout = layout(max(n - 2, 0))

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    def position(self, var: int) -> int:
        """0-based position of a variable."""
        return self.pos[var - 1]

    def __len__(self) -> int:
        return len(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return "Perm(%r)" % (self.order,)


class Cts:
    """A compact triplet structure: permutation plus tier masks.

    Instances are immutable values; all operations return new
    structures. The constructor stores masks as given (fixtures may
    hold uncleared data); `clear` normalizes. The masks are held packed
    in `packed` (see the module docstring); `tiers` unpacks them.
    """

    __slots__ = ("perm", "packed")

    def __init__(self, perm: Perm, tiers: Sequence[int]):
        tiers = tuple(tiers)
        if len(tiers) != len(perm) - 2:
            raise ValueError("expected %d tiers, got %d" % (len(perm) - 2, len(tiers)))
        if any(not 0 <= m <= TIER_FULL for m in tiers):
            raise ValueError("tier masks must fit in 8 bits")
        self.perm = perm
        self.packed = int.from_bytes(bytes(tiers), "little")

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, perm: Perm, packed: int) -> "Cts":
        """Internal fast path: trusts the caller, skips validation."""
        obj = object.__new__(cls)
        obj.perm = perm
        obj.packed = packed
        return obj

    @classmethod
    def empty(cls, perm: Perm) -> "Cts":
        return cls(perm, (0,) * (len(perm) - 2))

    @classmethod
    def complete(cls, perm: Perm) -> "Cts":
        return cls(perm, (TIER_FULL,) * (len(perm) - 2))

    @classmethod
    def from_lines(cls, perm: Perm, lines: Iterable[tuple[int, int]]) -> "Cts":
        """Build from (tier index, code) pairs; tier indices 0-based."""
        masks = [0] * (len(perm) - 2)
        for j, code in lines:
            masks[j] |= 1 << code
        return cls(perm, masks)

    @classmethod
    def from_assignment(cls, bits: Sequence[int], perm: Perm) -> "Cts":
        """The elementary structure encoding exactly one assignment."""
        if len(bits) != len(perm):
            raise ValueError("assignment length %d != n=%d" % (len(bits), len(perm)))
        order = perm.order
        masks = []
        for j in range(len(perm) - 2):
            code = (bits[order[j] - 1] << 2) | (bits[order[j + 1] - 1] << 1) \
                | bits[order[j + 2] - 1]
            masks.append(1 << code)
        return cls(perm, masks)

    # -- tier masks ---------------------------------------------------

    @property
    def tiers(self) -> tuple[int, ...]:
        """The tier masks, tier 0 first."""
        return tuple(self.packed.to_bytes(self.perm.layout.tiers, "little"))

    def masks(self) -> list[int]:
        """The tier masks as a new list, for editing single tiers."""
        return list(self.packed.to_bytes(self.perm.layout.tiers, "little"))

    def with_masks(self, masks: Sequence[int]) -> "Cts":
        """A structure over this permutation holding `masks`, as stored
        (no validation, no clearing)."""
        return Cts._make(self.perm, int.from_bytes(bytes(masks), "little"))

    # -- basic properties ---------------------------------------------

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def is_empty(self) -> bool:
        x, lay = self.packed, self.perm.layout
        return bool((x - lay.lsb) & ~x & lay.msb)

    def is_elementary(self) -> bool:
        """One line per tier (and none empty)."""
        x, lay = self.packed, self.perm.layout
        # with no zero byte, x - lsb subtracts 1 in every byte, borrowing
        # nothing from the next
        return not (x - lay.lsb) & ~x & lay.msb and not x & (x - lay.lsb)

    def line_count(self) -> int:
        return self.packed.bit_count()

    def tier_codes(self, j: int) -> list[int]:
        m = self.packed >> 8 * j & TIER_FULL
        return [c for c in range(8) if m >> c & 1]

    def lines(self) -> list[tuple[int, int]]:
        return [(j, c) for j in range(self.perm.layout.tiers)
                for c in self.tier_codes(j)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cts) and self.packed == other.packed
                and self.perm == other.perm)

    def __hash__(self) -> int:
        return hash((self.perm, self.packed))

    def __repr__(self) -> str:
        return "Cts(%r, %s)" % (self.perm.order,
                                "[" + ", ".join(format(m, "08b") for m in self.tiers) + "]")

    def equivalent(self, other: "Cts") -> int:
        """1 iff tier-wise set equality; requires matching permutations."""
        self._check_perm(other)
        return int(self.packed == other.packed)

    def _check_perm(self, other: "Cts") -> None:
        if self.perm != other.perm:
            raise ValueError("permutation mismatch: %r vs %r"
                             % (self.perm.order, other.perm.order))

    # -- the algebra ---------------------------------------------------

    def clear(self) -> "Cts":
        return Cts._make(self.perm, clear_packed(self.packed, self.perm.layout))

    def union(self, other: "Cts") -> "Cts":
        """Tier-wise set union. No clearing (union of cleared operands
        is already cleared; raw operands stay raw)."""
        if other.perm is not self.perm:
            self._check_perm(other)
        return Cts._make(self.perm, self.packed | other.packed)

    def intersect(self, other: "Cts") -> "Cts":
        """Tier-wise set intersection followed by clearing."""
        if other.perm is not self.perm:
            self._check_perm(other)
        return Cts._make(self.perm, clear_packed(self.packed & other.packed,
                                                 self.perm.layout))

    def concretize(self, var: int, value: int) -> "Cts":
        """Fix a variable to a constant, dropping contradicting lines,
        then clear."""
        return self.concretize_many(((var, value),))

    def concretize_many(self, pairs: Iterable[tuple[int, int]]) -> "Cts":
        """Fix several variables at once (single clearing pass at the end;
        same fixpoint as repeated unary concretization).

        Only the lowest tier holding each variable is restricted: every
        full chain passes through that tier, so clearing removes the
        lines of the other tiers that contradict the value."""
        x = self.packed
        pos = self.perm.pos
        for var, value in pairs:
            p = pos[var - 1]
            j = p - 2 if p > 2 else 0
            x &= ~((TIER_FULL ^ _KEEP[p - j][value]) << 8 * j)
        return Cts._make(self.perm, clear_packed(x, self.perm.layout))

    def project(self, targets: Iterable["Cts"]) -> "Cts":
        """The union of t.intersect(self) over targets, for a cleared self.

        Built from raw masks: a target that contains self tier-wise
        gives self, and only the other pieces are cleared (a piece with
        an empty tier clears to nothing at once). Every piece lies in
        self, so the union stops growing once it equals self.
        """
        whole, lay = self.packed, self.perm.layout
        acc = 0
        for t in targets:
            if t.perm is not self.perm:
                self._check_perm(t)
            raw = t.packed & whole
            if raw == whole:
                return self
            acc |= clear_packed(raw, lay)
            if acc == whole:
                return self
        return Cts._make(self.perm, acc)

    # -- assignment views ----------------------------------------------

    def contains_assignment(self, bits: Sequence[int]) -> int:
        """1 iff every tier holds the line the assignment induces."""
        if len(bits) != self.n:
            raise ValueError("assignment length %d != n=%d" % (len(bits), self.n))
        order = self.perm.order
        code = (bits[order[0] - 1] << 1) | bits[order[1] - 1]
        for j, mask in enumerate(self.tiers):
            code = ((code << 1) & 7) | bits[order[j + 2] - 1]
            if not mask >> code & 1:
                return 0
        return 1

    def enumerate_assignments(self, max_n: int = 24) -> set[Bits]:
        """All assignments spelled by chains of adjoining lines.

        Guarded against exponential blowup: refuses structures with
        more than max_n variables.
        """
        if self.n > max_n:
            raise ValueError("enumeration bound exceeded: n=%d > %d" % (self.n, max_n))
        if self.is_empty:
            return set()
        order = self.perm.order
        tiers = self.tiers
        # partial chains keyed by their last two values
        chains: list[tuple[int, ...]] = [
            ((c >> 2) & 1, (c >> 1) & 1, c & 1)
            for c in range(8) if tiers[0] >> c & 1]
        for mask in tiers[1:]:
            nxt = []
            for chain in chains:
                tail = (chain[-2] << 1) | chain[-1]
                for b in (0, 1):
                    if mask >> ((tail << 1 | b) & 7) & 1:
                        nxt.append(chain + (b,))
            chains = nxt
        out = set()
        for chain in chains:
            bits = [0] * self.n
            for i, v in enumerate(order):
                bits[v - 1] = chain[i]
            out.add(tuple(bits))
        return out

    def sample_assignment(self) -> Bits:
        """One encoded assignment from a cleared non-empty structure.

        Greedy chain walk; clearing guarantees every partial chain
        extends, so no search is needed.
        """
        if self.is_empty:
            raise ValueError("empty structure has no assignments")
        tiers = self.tiers
        first = (tiers[0] & -tiers[0]).bit_length() - 1
        values = [(first >> 2) & 1, (first >> 1) & 1, first & 1]
        for mask in tiers[1:]:
            tail = (values[-2] << 1) | values[-1]
            for b in (0, 1):
                if mask >> ((tail << 1 | b) & 7) & 1:
                    values.append(b)
                    break
            else:
                raise ValueError("structure is not cleared: chain has no extension")
        bits = [0] * self.n
        for i, v in enumerate(self.perm.order):
            bits[v - 1] = values[i]
        return tuple(bits)

    def the_assignment(self) -> Bits:
        """The unique assignment of an elementary structure."""
        if not self.is_elementary():
            raise ValueError("structure is not elementary")
        return self.sample_assignment()

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """Tabular dump: variable names in permutation order, one line
        per triplet, blanks outside the tier window."""
        if self.is_empty:
            return render_table(self.perm.order, [["(empty structure)"]])
        return render_table(self.perm.order, (window_row(j, c)
                                              for j, c in self.lines()))


def window_row(j: int, code: int) -> list[str]:
    """Table cells of a triplet line at tier j: its three bits under
    columns j, j+1, j+2."""
    return [""] * j + list(format(code, "03b"))


def render_table(order: Sequence[int], rows: Iterable[Sequence[str]]) -> str:
    """A header of variable names in `order`, then one text line per row
    of cells, each cell right-aligned under its column and trailing
    blanks trimmed."""
    names = ["x%d" % v for v in order]
    widths = [max(2, len(s)) for s in names]
    return "".join(" ".join(s.rjust(w) for s, w in zip(cells, widths)).rstrip()
                   + "\n" for cells in (names, *rows))


def union_all(structures: Sequence[Cts]) -> Cts:
    """Union of one or more structures over a common permutation."""
    if not structures:
        raise ValueError("need at least one structure")
    acc = structures[0]
    for s in structures[1:]:
        acc = acc.union(s)
    return acc
