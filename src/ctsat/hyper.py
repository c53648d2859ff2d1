"""Tier graphs, the basic graph, and the checks shared by the systemic
procedure.

The basic structure is viewed as a tiered graph: one vertex per line,
edges between adjoining lines of adjacent tiers, kept as bitmasks like
a `Cts`. The systemic effective procedure (`ctsat.sep`) uses that graph
as the shared skeleton of its hyperstructures. This module also holds
the same-tier disjointness check, the extraction failure, and the
assignment a route spells.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .cts import _SUCC, Cts, Perm

Vertex = tuple[int, int]          # (tier index 0-based, triplet code)
Edge = tuple[int, int, int]       # (tier index j, code at j, code at j+1)

_CODES = [tuple(c for c in range(8) if m >> c & 1) for m in range(256)]
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


def vertex_values(basic_perm: Perm, v: Vertex) -> list[tuple[int, int]]:
    """(variable, value) pairs a basic-graph vertex fixes."""
    j, code = v
    return [(basic_perm.order[j + k], (code >> (2 - k)) & 1) for k in range(3)]


class InvariantViolation(RuntimeError):
    """An internal invariant of the procedure failed; `diagnostics`
    holds the offending substructures."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def check_tier_disjoint(vsub: dict[Vertex, tuple[Cts, ...]],
                        codes: Sequence[int], j: int) -> None:
    """Same-tier substructure-vertices of each member (`vsub` maps a
    vertex to them in member order) must have pairwise empty
    intersections; checked after each tier completes (also under -O).
    The diagnostics name the member by its 0-based position."""
    for i, a in enumerate(codes):
        for b in codes[i + 1:]:
            for member, (sa, sb) in enumerate(zip(vsub[(j, a)], vsub[(j, b)])):
                if not sa.intersect(sb).is_empty:
                    raise InvariantViolation(
                        "tier %d substructures %s and %s overlap"
                        % (j + 1, format(a, "03b"), format(b, "03b")),
                        {"tier": j + 1, "member": member, "substructures": {
                            format(a, "03b"): sa.render(),
                            format(b, "03b"): sb.render()}})


class ExtractionFailure(RuntimeError):
    """No route could be verified despite a non-empty hyperstructure."""


def route_assignment(basic_perm: Perm, route: Sequence[Vertex]) -> tuple[int, ...]:
    """Assignment spelled by a route's vertex labels, in natural order."""
    bits = [0] * len(basic_perm)
    c0 = route[0][1]
    for k in range(3):
        bits[basic_perm.order[k] - 1] = (c0 >> (2 - k)) & 1
    for (j, c) in route[1:]:
        bits[basic_perm.order[j + 2] - 1] = c & 1
    return tuple(bits)
