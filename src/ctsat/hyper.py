"""Basic graph and hyperstructure machinery for a pair of structures.

The basic structure is viewed as a tiered graph (one vertex per line,
edges between adjoining lines of adjacent tiers). A hyperstructure
copies that graph as a skeleton and decorates vertices and edges with
substructures of the second structure, built tier by tier: vertex
substructures of tier 1 come from concretization, and each edge carries
the result of shifting its source substructure (concretize the new
variable, then project every earlier tier in order). Empty
substructures delete their graph elements, with cascading pruning kept
mirrored between the basic graph and the skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def __init__(self, tier_codes: Sequence[Sequence[int]],
                 edges: Sequence[Edge] | None = None):
        self.tiers = [set(t) for t in tier_codes]
        self._down: dict[Vertex, set[int]] = {}
        self._up: dict[Vertex, set[int]] = {}
        for j, codes in enumerate(self.tiers):
            for c in codes:
                self._down[(j, c)] = set()
                self._up[(j, c)] = set()
        if edges is None:
            edges = [(j, a, b)
                     for j in range(len(self.tiers) - 1)
                     for a in self.tiers[j]
                     for b in self.tiers[j + 1] if compatible(a, b)]
        for j, a, b in edges:
            self._down[(j, a)].add(b)
            self._up[(j + 1, b)].add(a)

    @classmethod
    def from_cts(cls, structure: Cts) -> "TierGraph":
        if structure.is_empty:
            raise ValueError("cannot build a graph from an empty structure")
        return cls([structure.tier_codes(j) for j in range(len(structure.tiers))])

    def copy(self) -> "TierGraph":
        return TierGraph([sorted(t) for t in self.tiers], list(self.edges()))

    @property
    def tier_count(self) -> int:
        return len(self.tiers)

    def has_vertex(self, v: Vertex) -> bool:
        return v[1] in self.tiers[v[0]]

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

    def vertex_count(self) -> int:
        return sum(len(t) for t in self.tiers)

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


@dataclass
class Hyperstructure:
    """Skeleton graph plus substructures drawn from the second structure."""

    skeleton: TierGraph
    basic_perm: Perm
    vsub: dict[Vertex, Cts] = field(default_factory=dict)
    esub: dict[Edge, Cts] = field(default_factory=dict)

    def formed_tiers(self) -> int:
        return 1 + max((v[0] for v in self.vsub), default=-1)


@dataclass
class EpStats:
    pruned_vertices: int = 0
    pruned_edges: int = 0
    recompute_rounds: int = 0


@dataclass
class EpResult:
    hs: Hyperstructure | None
    bg: TierGraph
    empty_tier: int | None   # 1-based, when the procedure emptied out
    stats: EpStats

    @property
    def empty(self) -> bool:
        return self.hs is None


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


def project_tier(hs: Hyperstructure, r: int, target: Cts) -> Cts:
    """Union over tier r's substructure-vertices of their intersection
    with `target` (tier indices 0-based). May be empty."""
    acc = Cts.empty(target.perm)
    for c in sorted(hs.skeleton.tiers[r]):
        acc = acc.union(hs.vsub[(r, c)].intersect(target))
    return acc


def shift(hs: Hyperstructure, edge: Edge) -> Cts:
    """Shift the source vertex substructure along an edge.

    Concretizes the new variable (basic-permutation position j+3, value
    taken from the target vertex label), then projects tiers 1..j-1 in
    order. The stored source substructure is left untouched; the result
    is the substructure-edge.
    """
    j, a, b = edge
    var = hs.basic_perm.order[j + 3]
    beta = b & 1
    current = hs.vsub[(j, a)].concretize(var, beta)
    for s in range(j):
        if current.is_empty:
            break
        current = project_tier(hs, s, current)
    return current


def _initial_tier(hs: Hyperstructure, second: Cts, bg: TierGraph,
                  stats: EpStats) -> int | None:
    """Form tier-1 vertex substructures by 3-variable concretization."""
    for v in list(hs.skeleton.vertices()):
        if v[0] != 0:
            break
        sub = second.concretize_many(vertex_values(hs.basic_perm, v))
        if sub.is_empty:
            hs.skeleton.remove_vertex(v)
            bg.remove_vertex(v)
            stats.pruned_vertices += 1
        else:
            hs.vsub[v] = sub
    return _sync_prune(hs, bg, stats)


def _sync_prune(hs: Hyperstructure, bg: TierGraph, stats: EpStats) -> int | None:
    """Prune the skeleton, mirror removals into the basic graph, drop
    dangling substructures. Returns the 1-based emptied tier, if any."""
    removed, empty_tier = hs.skeleton.prune()
    for v in removed:
        bg.remove_vertex(v)
        stats.pruned_vertices += 1
        hs.vsub.pop(v, None)
    # mirror edge removals (removing vertices drops edges on both sides;
    # edges removed individually are mirrored by the caller)
    hs.esub = {e: s for e, s in hs.esub.items() if hs.skeleton.has_edge(e)}
    return empty_tier


def _remove_edge_everywhere(hs: Hyperstructure, bg: TierGraph, e: Edge,
                            stats: EpStats) -> None:
    hs.skeleton.remove_edge(e)
    bg.remove_edge(e)
    hs.esub.pop(e, None)
    stats.pruned_edges += 1


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


def effective_procedure(basic: Cts, second: Cts) -> EpResult:
    """Build the hyperstructure for (basic, second) tier by tier.

    Succeeds iff the last tier is non-empty; otherwise reports the
    1-based tier at which everything emptied. After a pruning cascade
    the current boundary's substructure-edges are recomputed whenever
    the cascade changed the graph, so stored edges always reflect the
    surviving projection bases.
    """
    if basic.is_empty or second.is_empty:
        raise ValueError("effective procedure needs non-empty structures")
    bg = basic_graph(basic)
    hs = Hyperstructure(skeleton=bg.copy(), basic_perm=basic.perm)
    stats = EpStats()

    empty_tier = _initial_tier(hs, second, bg, stats)
    if empty_tier is not None:
        return EpResult(None, bg, empty_tier, stats)
    check_tier_disjoint(hs.vsub, hs.skeleton.tiers, 0)

    for j in range(bg.tier_count - 1):
        while True:
            before = stats.pruned_vertices
            for e in list(hs.skeleton.edges(j)):
                sub = shift(hs, e)
                if sub.is_empty:
                    _remove_edge_everywhere(hs, bg, e, stats)
                else:
                    hs.esub[e] = sub
            for c in sorted(hs.skeleton.tiers[j + 1]):
                incoming = [hs.esub[(j, a, c)] for a in hs.skeleton.up((j + 1, c))
                            if (j, a, c) in hs.esub]
                if not incoming:
                    hs.skeleton.remove_vertex((j + 1, c))
                    bg.remove_vertex((j + 1, c))
                    stats.pruned_vertices += 1
                    hs.vsub.pop((j + 1, c), None)
                    continue
                acc = incoming[0]
                for extra in incoming[1:]:
                    acc = acc.union(extra)
                hs.vsub[(j + 1, c)] = acc
            empty_tier = _sync_prune(hs, bg, stats)
            if empty_tier is not None:
                return EpResult(None, bg, empty_tier, stats)
            if stats.pruned_vertices == before:
                break
            # the cascade may have shrunk projection bases at tiers <= j;
            # recompute this boundary before moving on
            stats.recompute_rounds += 1
        check_tier_disjoint(hs.vsub, hs.skeleton.tiers, j + 1)
    return EpResult(hs, bg, None, stats)


class ExtractionFailure(RuntimeError):
    """No route could be verified despite a non-empty hyperstructure."""


@dataclass
class ExtractionResult:
    assignments: list[tuple[int, ...]]
    backtracks: int
    dead_ends_before_first: int


def route_assignment(basic_perm: Perm, route: Sequence[Vertex]) -> tuple[int, ...]:
    """Assignment spelled by a route's vertex labels, in natural order."""
    bits = [0] * len(basic_perm)
    c0 = route[0][1]
    for k in range(3):
        bits[basic_perm.order[k] - 1] = (c0 >> (2 - k)) & 1
    for (j, c) in route[1:]:
        bits[basic_perm.order[j + 2] - 1] = c & 1
    return tuple(bits)


def extract_jss(hs: Hyperstructure, basic: Cts, second: Cts,
                limit: int = 1) -> ExtractionResult:
    """Walk routes backward from the last tier, intersecting vertex
    substructures, and return up to `limit` verified joint assignments.

    Backtracking is a safety net; the number of dead ends hit before the
    first assignment is reported as evidence for (or against) the
    search-free claim.
    """
    skeleton = hs.skeleton
    last = skeleton.tier_count - 1
    found: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    backtracks = 0
    dead_ends_first = -1

    def descend(j: int, route: list[Vertex], running: Cts) -> bool:
        nonlocal backtracks, dead_ends_first
        if j == 0:
            bits = route_assignment(hs.basic_perm, list(reversed(route)))
            # the running intersection pins the same single assignment
            if running.the_assignment() != bits:
                raise ExtractionFailure(
                    "route labels disagree with the running intersection")
            if not (basic.contains_assignment(bits)
                    and second.contains_assignment(bits)):
                raise ExtractionFailure(
                    "extracted assignment is not contained in both structures")
            if bits not in seen:
                seen.add(bits)
                found.append(bits)
                if dead_ends_first < 0:
                    dead_ends_first = backtracks
            return len(found) >= limit
        c = route[-1][1]
        for a in skeleton.up((j, c)):
            nxt = running.intersect(hs.vsub[(j - 1, a)])
            if nxt.is_empty:
                backtracks += 1
                continue
            if descend(j - 1, route + [(j - 1, a)], nxt):
                return True
        return False

    for c in sorted(skeleton.tiers[last]):
        if descend(last, [(last, c)], hs.vsub[(last, c)]):
            break
    if not found:
        raise ExtractionFailure("no route found in a non-empty hyperstructure")
    return ExtractionResult(found, backtracks,
                            dead_ends_first if dead_ends_first >= 0 else backtracks)
