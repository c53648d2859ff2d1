"""Tier graphs, the basic graph, and the checks shared by the systemic
procedure.

The basic structure is viewed as a tiered graph: one vertex per line,
edges between adjoining lines of adjacent tiers. The systemic effective
procedure (`ctsat.sep`) uses that graph as the shared skeleton of its
hyperstructures. This module also holds the same-tier disjointness
check, the extraction failure, and the assignment a route spells.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .cts import Cts, Perm, compatible

Vertex = tuple[int, int]          # (tier index 0-based, triplet code)
Edge = tuple[int, int, int]       # (tier index j, code at j, code at j+1)


class TierGraph:
    """Vertices at n-2 tiers, edges only between adjacent tiers.

    Vertex identity is (tier, code); no global numbering. Mutations are
    explicit removals; `prune` restores the adjacency invariant (every
    vertex has a neighbour in each adjacent tier that exists).
    """

    __slots__ = ("tiers", "_down", "_up")

    def __init__(self, tier_codes: Sequence[Sequence[int]]):
        self.tiers = [set(t) for t in tier_codes]
        self._down: dict[Vertex, set[int]] = {}
        self._up: dict[Vertex, set[int]] = {}
        for j, codes in enumerate(self.tiers):
            for c in codes:
                self._down[(j, c)] = set()
                self._up[(j, c)] = set()
        for j in range(len(self.tiers) - 1):
            for a in self.tiers[j]:
                for b in self.tiers[j + 1]:
                    if compatible(a, b):
                        self._down[(j, a)].add(b)
                        self._up[(j + 1, b)].add(a)

    @classmethod
    def from_cts(cls, structure: Cts) -> "TierGraph":
        if structure.is_empty:
            raise ValueError("cannot build a graph from an empty structure")
        return cls([structure.tier_codes(j) for j in range(len(structure.tiers))])

    @property
    def tier_count(self) -> int:
        return len(self.tiers)

    def has_edge(self, e: Edge) -> bool:
        return (e[0], e[1]) in self._down and e[2] in self._down[(e[0], e[1])]

    def down(self, v: Vertex) -> list[int]:
        return sorted(self._down.get(v, ()))

    def up(self, v: Vertex) -> list[int]:
        return sorted(self._up.get(v, ()))

    def vertices(self) -> Iterator[Vertex]:
        for j, codes in enumerate(self.tiers):
            for c in sorted(codes):
                yield (j, c)

    def edges(self, j: int | None = None) -> Iterator[Edge]:
        tiers = range(len(self.tiers) - 1) if j is None else (j,)
        for jj in tiers:
            for a in sorted(self.tiers[jj]):
                for b in self.down((jj, a)):
                    yield (jj, a, b)

    def edge_count(self) -> int:
        return sum(len(s) for v, s in self._down.items())

    def remove_edge(self, e: Edge) -> None:
        j, a, b = e
        self._down[(j, a)].discard(b)
        self._up[(j + 1, b)].discard(a)

    def remove_vertex(self, v: Vertex) -> None:
        j, c = v
        if c not in self.tiers[j]:
            return
        for b in list(self._down.get(v, ())):
            self.remove_edge((j, c, b))
        for a in list(self._up.get(v, ())):
            self.remove_edge((j - 1, a, c))
        self.tiers[j].discard(c)
        self._down.pop(v, None)
        self._up.pop(v, None)

    def prune(self) -> tuple[list[Vertex], int | None]:
        """Cascade-remove vertices lacking a neighbour in an adjacent tier.

        Returns the removed vertices and the 1-based index of the first
        tier that became empty (None if all tiers stay populated).
        """
        removed: list[Vertex] = []
        last = len(self.tiers) - 1
        queue = list(self.vertices())
        while queue:
            v = queue.pop()
            j, c = v
            if c not in self.tiers[j]:
                continue
            stranded = (j > 0 and not self._up[v]) or (j < last and not self._down[v])
            if not stranded:
                continue
            neighbours = ([(j - 1, a) for a in self._up[v]] if j > 0 else []) \
                + ([(j + 1, b) for b in self._down[v]] if j < last else [])
            self.remove_vertex(v)
            removed.append(v)
            queue.extend(neighbours)
        for j, codes in enumerate(self.tiers):
            if not codes:
                return removed, j + 1
        return removed, None

    def __eq__(self, other) -> bool:
        return (isinstance(other, TierGraph) and self.tiers == other.tiers
                and self._down == other._down)

    def render(self) -> str:
        out = []
        for j, codes in enumerate(self.tiers):
            out.append("tier %d: %s" % (j + 1, " ".join(
                format(c, "03b") for c in sorted(codes))))
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
    if structure.clear().tiers != structure.tiers:
        raise ValueError("basic structure must be cleared")
    return TierGraph.from_cts(structure)


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


def check_tier_disjoint(vsub: dict[Vertex, Cts], tiers, j: int) -> None:
    """Same-tier substructure-vertices must have pairwise empty
    intersections; checked after each tier completes (also under -O)."""
    codes = sorted(tiers[j])
    for i, a in enumerate(codes):
        for b in codes[i + 1:]:
            if not vsub[(j, a)].intersect(vsub[(j, b)]).is_empty:
                raise InvariantViolation(
                    "tier %d substructures %s and %s overlap"
                    % (j + 1, format(a, "03b"), format(b, "03b")),
                    {"tier": j + 1,
                     "substructures": {
                         format(c, "03b"): vsub[(j, c)].render()
                         for c in (a, b)}})


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
