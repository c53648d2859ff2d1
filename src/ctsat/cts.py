"""Compact triplet structures: tiered bitmask sets of binary assignments.

A structure over a permutation of n variables has n-2 tiers; tier j
constrains permutation positions j, j+1, j+2. Each tier holds a subset
of the 8 value triplets, encoded as one 8-bit mask (triplet (b1,b2,b3)
-> bit 4*b1 + 2*b2 + b3, first variable of the tier most significant).
Lines at adjacent tiers adjoin when their two overlapping values
coincide; chains of adjoining lines spell full assignments.

Clearing removes lines with no adjoining line in an adjacent tier, to a
fixpoint. A cleared structure with no empty tier encodes a non-empty
assignment set; the canonical empty structure has every tier zeroed.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Iterable, Sequence

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


class Perm:
    """A permutation of the variables 1..n with O(1) position lookup."""

    __slots__ = ("order", "pos")

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
    hold uncleared data); `clear` normalizes.
    """

    __slots__ = ("perm", "tiers")

    def __init__(self, perm: Perm, tiers: Sequence[int]):
        tiers = tuple(tiers)
        if len(tiers) != len(perm) - 2:
            raise ValueError("expected %d tiers, got %d" % (len(perm) - 2, len(tiers)))
        if any(not 0 <= m <= TIER_FULL for m in tiers):
            raise ValueError("tier masks must fit in 8 bits")
        self.perm = perm
        self.tiers = tiers

    # -- constructors -------------------------------------------------

    @classmethod
    def _make(cls, perm: Perm, tiers: tuple[int, ...]) -> "Cts":
        """Internal fast path: trusts the caller, skips validation."""
        obj = object.__new__(cls)
        obj.perm = perm
        obj.tiers = tiers
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

    # -- basic properties ---------------------------------------------

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def is_empty(self) -> bool:
        return 0 in self.tiers

    def is_elementary(self) -> bool:
        """One line per tier (and none empty)."""
        return all(m != 0 and m & (m - 1) == 0 for m in self.tiers)

    def line_count(self) -> int:
        return sum(m.bit_count() for m in self.tiers)

    def tier_codes(self, j: int) -> list[int]:
        m = self.tiers[j]
        return [c for c in range(8) if m >> c & 1]

    def lines(self) -> list[tuple[int, int]]:
        return [(j, c) for j in range(len(self.tiers)) for c in self.tier_codes(j)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cts) and self.perm == other.perm
                and self.tiers == other.tiers)

    def __hash__(self) -> int:
        return hash((self.perm, self.tiers))

    def __repr__(self) -> str:
        return "Cts(%r, %s)" % (self.perm.order,
                                "[" + ", ".join(format(m, "08b") for m in self.tiers) + "]")

    def equivalent(self, other: "Cts") -> int:
        """1 iff tier-wise set equality; requires matching permutations."""
        self._check_perm(other)
        return int(self.tiers == other.tiers)

    def _check_perm(self, other: "Cts") -> None:
        if self.perm != other.perm:
            raise ValueError("permutation mismatch: %r vs %r"
                             % (self.perm.order, other.perm.order))

    # -- the algebra ---------------------------------------------------

    def clear(self) -> "Cts":
        masks, _ = clear_masks(list(self.tiers))
        return Cts._make(self.perm, tuple(masks))

    def union(self, other: "Cts") -> "Cts":
        """Tier-wise set union. No clearing (union of cleared operands
        is already cleared; raw operands stay raw)."""
        if other.perm is not self.perm:
            self._check_perm(other)
        return Cts._make(self.perm, tuple(map(or_, self.tiers, other.tiers)))

    def intersect(self, other: "Cts") -> "Cts":
        """Tier-wise set intersection followed by clearing."""
        if other.perm is not self.perm:
            self._check_perm(other)
        masks, _ = clear_masks(list(map(and_, self.tiers, other.tiers)))
        return Cts._make(self.perm, tuple(masks))

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
        masks = list(self.tiers)
        pos = self.perm.pos
        for var, value in pairs:
            p = pos[var - 1]
            j = p - 2 if p > 2 else 0
            masks[j] &= _KEEP[p - j][value]
        masks, _ = clear_masks(masks)
        return Cts._make(self.perm, tuple(masks))

    def project(self, targets: Iterable["Cts"]) -> "Cts":
        """The union of t.intersect(self) over targets, for a cleared self.

        Built from raw masks: a target whose AND with self has a zero
        tier adds nothing, a target that contains self tier-wise gives
        self, and only the other pieces are cleared. Every piece lies in
        self, so the union stops growing once it equals self.
        """
        whole = list(self.tiers)
        acc = None
        for t in targets:
            if t.perm is not self.perm:
                self._check_perm(t)
            raw = list(map(and_, t.tiers, whole))
            if 0 in raw:
                continue
            if raw == whole:
                return self
            piece, zero = clear_masks(raw)
            if zero is not None:
                continue
            acc = piece if acc is None else list(map(or_, acc, piece))
            if acc == whole:
                return self
        return Cts._make(self.perm, tuple(acc) if acc else (0,) * len(whole))

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
