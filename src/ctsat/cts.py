"""Compact triplet structures: tiered bitmask sets of binary assignments.

A structure over a permutation of n variables has n-2 tiers; tier j
constrains permutation positions j, j+1, j+2. Each tier holds a subset
of the 8 value triplets, encoded as one 8-bit mask (triplet (b1,b2,b3)
-> bit 4*b1 + 2*b2 + b3, first variable of the tier most significant).
Lines at adjacent tiers adjoin when their two overlapping values
coincide; chains of adjoining lines spell full assignments. `Perm`
alone maps between the two: `codes_of` gives an assignment's code in
every tier, `assignment_of` the assignment a chain of codes spells, and
`window_values` the (variable, value) pairs one code fixes.

A `Cts` stores its n-2 masks packed in one int, tier j in byte j (bits
8j..8j+7), so a tier-wise union is one OR and a tier-wise intersection
one AND. Only this module knows that layout: `Cts.tiers` is the derived
tuple of masks. The constants of the packed form depend only on the
tier count; each `Perm` holds the `Layout` of its width, built once per
width.

Structures of one width can also sit side by side in one int, lanes
of `tiers` bytes, structure i in lane i (`stack`); a `Layout` with
several lanes repeats its constants in every lane, and a lane may hold
a structure over its own permutation. The systemic procedure
(`ctsat.sep`) stores each same-name tuple this way, one int per
skeleton vertex and edge, and works on that int directly: a lane is
dead when it has an empty tier (`has_empty_lane`), `project_lanes`
projects a tuple with one AND and one clear per target tuple it is
given (the procedure gives it only the targets whose code agrees with
the tuple's value sets, `unify.window_codes`), and a union of tuples
is one OR. `ctsat.unify` edits the bytes of such an int, copied into a
list of ints, one lane at a time; it also fixes the variables of a
tier-0 vertex tuple and of a shift's concretization, a lone member's
too, clearing outward from the restricted windows. `concretize_lanes`
fixes variables in every lane with one mask and one clear; it has no
pipeline caller, and is kept as the kernel of `Cts.concretize_many`
and as the tests' reference for unify's fix. `unstack` gives the
structures back where they are needed one by one.

Clearing removes lines with no adjoining line in an adjacent tier, to a
fixpoint. A cleared structure with no empty tier encodes a non-empty
assignment set; the canonical empty structure has every tier zeroed.
Two kernels compute it:

- `clear_packed` works on the packed int, on every lane at once. One
  step finds, in every tier at once, the lines with a successor in the
  next tier and those with a predecessor in the previous one
  (mask-and-shift steps on the byte lanes; the last and the first tier
  of each lane are exempt from the respective test, which also keeps
  the lanes apart) and keeps the lines that have both. It repeats the
  step until nothing changes. When the has-zero-byte test (Warren,
  Hacker's Delight, ch. 6) finds an empty tier, it zeroes the lanes
  that hold one (the dead lanes) and returns 0 once every lane is
  dead. Every `Cts` operation clears with it, on one lane.
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

from .formula import Bits

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

# _CODES[mask]: the codes in a mask, ascending
_CODES = [tuple(c for c in range(8) if m >> c & 1) for m in range(256)]

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


class Layout(NamedTuple):
    """Constants of the packed form of `lanes` rows of `tiers` masks side
    by side, lane i holding tier j in byte i * tiers + j. The byte-lane
    fields repeat one byte in every tier of every lane, and `first`,
    `last` and `carry` one value in every lane. `windows[p]` is the
    (tier, offset) of the lowest tier window holding position p."""

    tiers: int
    lanes: int
    lsb: int     # 0x01 in every tier
    msb: int     # 0x80 in every tier
    even: int    # 0x55 in every tier
    pairs: int   # 0x33 in every tier
    low: int     # 0x0F in every tier
    first: int   # 0xFF in tier 0
    last: int    # 0xFF in the last tier
    carry: int   # every bit of the lane below its top bit
    ones: int    # one lane's bits, all set
    windows: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def layout(tiers: int, lanes: int = 1) -> Layout:
    """The packed-form constants for `lanes` lanes of `tiers` tiers, one
    object per shape."""
    lsb = int.from_bytes(b"\x01" * (tiers * lanes), "little")
    width = 8 * tiers
    # bit 0 of every lane
    rep = sum(1 << width * i for i in range(lanes)) if tiers else 0
    return Layout(tiers, lanes, lsb, 0x80 * lsb, 0x55 * lsb, 0x33 * lsb,
                  0x0F * lsb, TIER_FULL * rep,
                  (TIER_FULL << width - 8) * rep if tiers else 0,
                  ((1 << width - 1) - 1) * rep if tiers else 0,
                  (1 << width) - 1,
                  tuple((p - 2, 2) if p > 2 else (0, p)
                        for p in range(tiers + 2)))


def clear_packed(x: int, lay: Layout) -> int:
    """Clear packed masks: the bit-parallel form of `clear_masks`, on
    every lane of `lay` at once.

    Returns the cleared packed masks, a lane that empties zeroed
    throughout, and so 0 when every lane empties. Each step keeps, in
    every tier at once, the lines that have a successor in the next
    tier (the last tier of each lane is exempt) and a predecessor in
    the previous one (the first tier of each lane is exempt), and the
    steps repeat until one removes nothing. Before each step the
    has-zero-byte test ((x - lsb) & ~x & msb, non-zero when some byte
    of x is zero, and exact for the lowest one) looks for an empty
    tier. When it fires on one lane, that lane is dead and 0 is
    returned. On several lanes, the exact zero-byte test flags bit 0 of
    every empty tier; adding `carry` carries into a lane's top bit
    exactly when the lane holds a flag, and multiplying those top bits,
    moved to bit 0 of their lanes, by `ones` spreads them over their
    lanes. Those dead lanes are zeroed and drop out of the test.

    Same fixpoint as `clear_masks`, lane by lane. The shifts of a step
    move a byte across a lane boundary only into the tier that the
    exemptions of the receiving lane set in full, so the step acts on
    each lane as on that lane alone. Call a set of lines closed when
    each of its lines has its support inside the set. Closed subsets of
    the input are closed under union, so there is a greatest one, G,
    and `clear_masks` returns G (see there). A step maps x to x & S(x),
    and S, the lines supported by x, only grows with x. If G lies in x,
    then G = G & S(G) lies in x & S(x), so G lies in every step's
    result; the steps shrink x until one removes nothing, and then x is
    closed and lies in G. So the steps end at G. An empty tier leaves
    its neighbours' lines without support, so a closed set with an
    empty tier is empty throughout: once a tier of a lane is empty, G
    is 0 in that lane, which is zeroed at once.
    """
    tiers, lanes, lsb, msb, even, pairs, low, first, last, carry, ones, _ = lay
    while True:
        if (x - lsb) & ~x & msb:
            if lanes == 1:
                return 0
            # bit 0 of each zero byte: (b & 0x7F) + 0x7F | b has bit 7
            # set exactly when byte b is not zero, and carries nothing;
            # no operand is negative, which CPython would copy
            seven = msb - lay.lsb
            z = (msb - (((x & seven) + seven | x) & msb)) >> 7
            z += carry
            dead = ((z - (z & carry)) >> 8 * tiers - 1) * ones
            x -= x & dead
            if not x:
                return 0
            lsb -= lsb & dead
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


class Perm:
    """A permutation of the variables 1..n with O(1) position lookup,
    the packed-form `Layout` of its n-2 tiers, and the one mapping
    between assignments and tier codes (`codes_of`, `assignment_of`,
    `window_values`)."""

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

    def codes_of(self, bits: Sequence[int]) -> list[int]:
        """The code of the assignment's line in every tier, tier 0
        first: the values at positions j, j+1, j+2, the first most
        significant."""
        if len(bits) != len(self.order):
            raise ValueError("assignment length %d != n=%d"
                             % (len(bits), len(self.order)))
        v = [bits[var - 1] for var in self.order]
        return [v[j] << 2 | v[j + 1] << 1 | v[j + 2]
                for j in range(len(v) - 2)]

    def assignment_of(self, codes: Sequence[int]) -> Bits:
        """The assignment, in variable order, that a chain of adjoining
        codes spells, tier 0 first: the inverse of `codes_of`."""
        v = [codes[0] >> 2, codes[0] >> 1 & 1, *(c & 1 for c in codes)]
        return tuple(v[p] for p in self.pos)

    def window_values(self, j: int, code: int) -> tuple[tuple[int, int], ...]:
        """The (variable, value) pairs that a code at tier j fixes."""
        return tuple((self.order[j + k], code >> 2 - k & 1) for k in range(3))

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

    No pipeline code calls `union`, `intersect`, `concretize`,
    `concretize_many`, `equivalent`, `from_lines`, `from_assignment`,
    `line_count`, `enumerate_assignments`, `empty` or `complete`, nor
    `concretize_lanes` below them: the pipeline works on stacked ints
    and concretizes inside `ctsat.unify` (see the module docstring).
    They are kept as the paper's CTS algebra, which acceptance
    criterion 8 and the set-form tests check against explicit
    assignment sets.
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
        return cls(perm, [1 << c for c in perm.codes_of(bits)])

    # -- tier masks ---------------------------------------------------

    @property
    def tiers(self) -> tuple[int, ...]:
        """The tier masks, tier 0 first."""
        return tuple(self.packed.to_bytes(self.perm.layout.tiers, "little"))

    # -- basic properties ---------------------------------------------

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def is_empty(self) -> bool:
        return has_empty_lane(self.packed, self.perm.layout)

    def is_elementary(self) -> bool:
        """One line per tier (and none empty)."""
        x, lay = self.packed, self.perm.layout
        # with no zero byte, x - lsb subtracts 1 in every byte, borrowing
        # nothing from the next
        return not (x - lay.lsb) & ~x & lay.msb and not x & (x - lay.lsb)

    def line_count(self) -> int:
        return self.packed.bit_count()

    def tier_codes(self, j: int) -> list[int]:
        return list(_CODES[self.packed >> 8 * j & TIER_FULL])

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
        same fixpoint as repeated unary concretization): the one-lane
        case of `concretize_lanes`."""
        return Cts._make(self.perm, concretize_lanes(
            self.packed, (self.perm,), pairs, self.perm.layout))

    # -- assignment views ----------------------------------------------

    def contains_assignment(self, bits: Sequence[int]) -> int:
        """1 iff every tier holds the line the assignment induces."""
        return int(all(m >> c & 1 for m, c in
                       zip(self.tiers, self.perm.codes_of(bits))))

    def enumerate_assignments(self, max_n: int = 24) -> set[Bits]:
        """All assignments spelled by chains of adjoining lines.

        Guarded against exponential blowup: refuses structures with
        more than max_n variables.
        """
        if self.n > max_n:
            raise ValueError("enumeration bound exceeded: n=%d > %d" % (self.n, max_n))
        if self.is_empty:
            return set()
        tiers = self.tiers
        chains = [[c] for c in _CODES[tiers[0]]]
        for mask in tiers[1:]:
            chains = [chain + [c] for chain in chains
                      for c in _CODES[_SUCC[1 << chain[-1]] & mask]]
        return {self.perm.assignment_of(chain) for chain in chains}

    def sample_assignment(self) -> Bits:
        """One encoded assignment from a cleared non-empty structure.

        Greedy chain walk, lowest code first; clearing guarantees every
        partial chain extends, so no search is needed.
        """
        if self.is_empty:
            raise ValueError("empty structure has no assignments")
        tiers = self.tiers
        chain = [_CODES[tiers[0]][0]]
        for mask in tiers[1:]:
            nxt = _SUCC[1 << chain[-1]] & mask
            if not nxt:
                raise ValueError("structure is not cleared: chain has no extension")
            chain.append(_CODES[nxt][0])
        return self.perm.assignment_of(chain)

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


def stack(structures: Sequence[Cts]) -> int:
    """The packed masks of structures of one width side by side,
    structure i in lane i (see `Layout`)."""
    width = 8 * structures[0].perm.layout.tiers
    x = 0
    for s in reversed(structures):
        x = x << width | s.packed
    return x


def unstack(x: int, structures: Sequence[Cts]) -> tuple[Cts, ...]:
    """The lanes of x as structures, lane i over the permutation of
    structures[i]: the inverse of `stack`."""
    lay = structures[0].perm.layout
    width = 8 * lay.tiers
    return tuple(Cts._make(s.perm, x >> width * i & lay.ones)
                 for i, s in enumerate(structures))


def has_empty_lane(x: int, lay: Layout) -> bool:
    """Whether some lane of x has an empty tier: the has-zero-byte test
    (see `clear_packed`)."""
    return bool((x - lay.lsb) & ~x & lay.msb)


def concretize_lanes(x: int, perms: Sequence[Perm],
                     pairs: Iterable[tuple[int, int]], lay: Layout) -> int:
    """Fix variables to constants in every lane of x, lane i over
    perms[i], with one restriction mask and one clear.

    Only the lowest tier holding each variable is restricted: every
    full chain passes through that tier, so clearing removes the lines
    of the other tiers that contradict the value."""
    width, windows = 8 * lay.tiers, lay.windows
    drop = 0
    for var, value in pairs:
        for i, perm in enumerate(perms):
            j, off = windows[perm.pos[var - 1]]
            drop |= (TIER_FULL ^ _KEEP[off][value]) << width * i + 8 * j
    return clear_packed(x & ~drop, lay)


def project_lanes(x: int, targets: Iterable[int], lay: Layout) -> int:
    """Lane by lane, the union of the intersections of x with the
    targets, for cleared x: one AND and one clear per target. Returns x
    when that changes no lane.

    A target that contains every lane of x gives x at once: the AND is
    then x, which is cleared, so its piece of the union is x, and every
    piece lies in x. For the same reason the union stops growing once
    it equals x. A target whose AND with x is dead in every lane adds
    nothing but costs its clear; the systemic procedure leaves out the
    targets it can tell are so from x's value sets before the call
    (`sep.concordant_shift`)."""
    acc = 0
    for t in targets:
        raw = t & x
        if raw == x:
            return x
        acc |= clear_packed(raw, lay)
        if acc == x:
            return x
    return acc
