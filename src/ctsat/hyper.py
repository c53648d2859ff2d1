"""Tier graphs, the basic graph, and the checks shared by the systemic
procedure.

The basic structure is viewed as a tiered graph: one vertex per line,
edges between adjoining lines of adjacent tiers, kept as bitmasks like
a `Cts`. The systemic effective procedure (`ctsat.sep`) uses that graph
as the shared skeleton of its hyperstructures. This module also holds
the check run after each tier, that every vertex tuple holds its
code's values (which makes same-tier tuples disjoint), and the
extraction failure. What a vertex or a route fixes, `cts.Perm` reads
off its codes (`window_values`, `assignment_of`).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .cts import _CODES, _SUCC, Cts, Perm, has_empty_lane, layout
from .unify import UnifyContext

Vertex = tuple[int, int]          # (tier index 0-based, triplet code)
Edge = tuple[int, int, int]       # (tier index j, code at j, code at j+1)

_BYTE_LSB = 0x0101010101010101
# _ROWS[m]: the edges leaving the codes in m (their bytes set in full)
_ROWS = [sum(0xFF << 8 * a for a in _CODES[m]) for m in range(256)]


def _tails(links: int) -> int:
    """Codes with an edge out: the non-zero bytes, gathered into one."""
    x = links | links >> 4
    x |= x >> 2
    x |= x >> 1
    return ((x & _BYTE_LSB) * 0x0102040810204080) >> 56 & 0xFF


def _heads(links: int) -> int:
    """Codes with an edge in: the OR of the bytes."""
    x = links | links >> 32
    x |= x >> 16
    return (x | x >> 8) & 0xFF


class TierGraph:
    """Vertices at n-2 tiers, edges only between adjacent tiers.

    Vertex identity is (tier, code); no global numbering. `tiers[j]` is
    tier j's 8-bit code mask; `links[j]` holds bit 8*a + b for an edge
    from code a at tier j to code b at tier j+1, and only joins present
    vertices. The constructor joins all adjoining lines. Mutations are
    explicit removals; `prune` restores the adjacency invariant (every
    vertex has a neighbour in each adjacent tier that exists).
    """

    __slots__ = ("tiers", "links")

    def __init__(self, tiers: Sequence[int]):
        self.tiers = list(tiers)
        self.links = [
            sum((_SUCC[1 << a] & nxt) << 8 * a for a in _CODES[cur])
            for cur, nxt in zip(self.tiers, self.tiers[1:])]

    @property
    def tier_count(self) -> int:
        return len(self.tiers)

    def codes(self, j: int) -> tuple[int, ...]:
        """Tier j's codes, ascending."""
        return _CODES[self.tiers[j]]

    def has_vertex(self, v: Vertex) -> bool:
        return bool(self.tiers[v[0]] >> v[1] & 1)

    def has_edge(self, e: Edge) -> bool:
        j, a, b = e
        return 0 <= j < len(self.links) and bool(self.links[j] >> (8 * a + b) & 1)

    def down(self, v: Vertex) -> list[int]:
        j, c = v
        if j >= len(self.links):
            return []
        return list(_CODES[self.links[j] >> 8 * c & 0xFF])

    def up(self, v: Vertex) -> list[int]:
        j, c = v
        if j == 0:
            return []
        return list(_CODES[_tails(self.links[j - 1] & _BYTE_LSB << c)])

    def vertices(self) -> Iterator[Vertex]:
        for j, mask in enumerate(self.tiers):
            for c in _CODES[mask]:
                yield (j, c)

    def edges(self, j: int | None = None) -> Iterator[Edge]:
        tiers = range(len(self.links)) if j is None else (j,)
        for jj in tiers:
            links = self.links[jj]
            for a in _CODES[self.tiers[jj]]:
                for b in _CODES[links >> 8 * a & 0xFF]:
                    yield (jj, a, b)

    def edge_count(self) -> int:
        return sum(links.bit_count() for links in self.links)

    def remove_edge(self, e: Edge) -> None:
        j, a, b = e
        self.links[j] &= ~(1 << (8 * a + b))

    def remove_vertex(self, v: Vertex) -> None:
        j, c = v
        self.tiers[j] &= ~(1 << c)
        if j < len(self.links):
            self.links[j] &= ~(0xFF << 8 * c)
        if j > 0:
            self.links[j - 1] &= ~(_BYTE_LSB << c)

    def prune(self) -> tuple[int, int | None]:
        """Remove the vertices lacking a neighbour in an adjacent tier.

        One backward pass keeps the vertices with an edge down into the
        kept next tier, one forward pass those with an edge up from the
        kept previous tier: the same two passes as `cts.clear_masks`,
        which reach the fixpoint on a path of tiers. Returns the number
        of removed vertices and the 1-based index of the tier that
        emptied first: the lowest tier empty on entry, else the first
        tier the backward pass empties (None if all tiers stay
        populated). When a tier empties, every tier is zeroed, and all
        vertices count as removed.
        """
        tiers, links = self.tiers, self.links
        last = len(tiers) - 1
        before = sum(mask.bit_count() for mask in tiers)
        empty = next((j for j, mask in enumerate(tiers) if not mask), None)
        if empty is None:
            for j in range(last - 1, -1, -1):
                links[j] &= tiers[j + 1] * _BYTE_LSB
                tiers[j] &= _tails(links[j])
                if not tiers[j]:
                    empty = j
                    break
        if empty is not None:
            self.tiers = [0] * len(tiers)
            self.links = [0] * len(links)
            return before, empty + 1
        # every vertex kept so far has an edge down, so no tier empties
        for j in range(1, last + 1):
            links[j - 1] &= _ROWS[tiers[j - 1]]
            tiers[j] &= _heads(links[j - 1])
        return before - sum(mask.bit_count() for mask in tiers), None

    def __eq__(self, other) -> bool:
        return (isinstance(other, TierGraph) and self.tiers == other.tiers
                and self.links == other.links)

    def render(self) -> str:
        out = []
        for j in range(len(self.tiers)):
            out.append("tier %d: %s" % (j + 1, " ".join(
                format(c, "03b") for c in self.codes(j))))
        out.append("edges:")
        for j, a, b in self.edges():
            out.append("  %d:%s - %d:%s" % (j + 1, format(a, "03b"),
                                            j + 2, format(b, "03b")))
        return "\n".join(out) + "\n"


def basic_graph(structure: Cts) -> TierGraph:
    """Graph view of a cleared, non-empty basic structure: one vertex per
    line, edges between adjoining lines of adjacent tiers."""
    if structure.is_empty:
        raise ValueError("empty structure has no basic graph")
    if structure.clear() != structure:
        raise ValueError("basic structure must be cleared")
    return TierGraph(structure.tiers)


class InvariantViolation(RuntimeError):
    """An internal invariant of the procedure failed; `diagnostics`
    holds the offending substructures."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def check_tier_codes(vsub: dict[Vertex, int], codes: Sequence[int], j: int,
                     perm: Perm, ctx: UnifyContext) -> None:
    """Each tier-j vertex tuple (j, c) must show the values of code c at
    the basic permutation's positions j, j+1 and j+2, constant in every
    member; checked after each tier completes (also under -O). `vsub`
    maps a vertex to its same-name tuple stacked in one int, member i in
    lane i over ctx.perms[i]. Projection drops the targets whose code
    disagrees with the shifted tuple on these values
    (`unify.window_codes`), which is exact only while this holds. In the
    first tier the concretization fixes the three values; later, each
    edge tuple in a vertex tuple's union fixes its tail's values, two of
    which the code shares, and its third.

    A tuple passes when it has no empty tier and holds none of the
    lines, at the three variables' lowest windows in every lane
    (`UnifyContext.off_value`), that give a variable another value than
    c: one AND and one has-zero-byte test per tuple. The diagnostics
    name the first failing member by its 0-based position.

    Passing implies the paper's same-tier disjointness: the tier's
    substructures of each member have pairwise empty intersections.
    Two codes c != c' differ at some window variable u =
    perm.order[j+k], and the two tuples hold u at c_k and c'_k at u's
    lowest window in every lane, so their AND has an empty tier in every
    lane and clears to nothing. An overlap therefore fails here."""
    lay = ctx.layout
    off = [ctx.off_value[v - 1] for v in perm.order[j:j + 3]]
    for c in codes:
        x = vsub[(j, c)]
        wrong = x & (off[0][c >> 2] | off[1][c >> 1 & 1] | off[2][c & 1])
        if not wrong and not has_empty_lane(x, lay):
            continue
        width, one = 8 * lay.tiers, layout(lay.tiers)
        member = next(i for i in range(lay.lanes)
                      if wrong >> width * i & one.ones
                      or has_empty_lane(x >> width * i & one.ones, one))
        raise InvariantViolation(
            "tier %d vertex %s: member %d does not hold the code's values"
            % (j + 1, format(c, "03b"), member),
            {"tier": j + 1, "code": format(c, "03b"), "member": member})


class ExtractionFailure(RuntimeError):
    """No route could be verified despite a non-empty hyperstructure."""
