"""Decomposition of a tabular formula into compact triplet formulas.

Clauses are grouped by their (unordered) variable triple; each group is
placed at three consecutive positions of some permutation, yielding k
CT formulas whose conjunction is the original formula. Each CT formula
then transforms into a CT structure by per-tier complement + clearing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cts import TIER_FULL, Cts, Perm, clear_masks
from .formula import Clause, TabularFormula


@dataclass(frozen=True)
class Ctf:
    """A CT formula: per-tier masks of forbidden value triplets.

    Tier j's mask holds the mark patterns of the clauses whose variables
    occupy permutation positions j, j+1, j+2. Empty tiers are permitted
    (unlike in a CT structure).
    """

    perm: Perm
    tiers: tuple[int, ...]

    def __post_init__(self):
        if len(self.tiers) != len(self.perm) - 2:
            raise ValueError("expected %d tiers, got %d"
                             % (len(self.perm) - 2, len(self.tiers)))

    @classmethod
    def from_clauses(cls, perm: Perm, clauses: Sequence[Clause]) -> "Ctf":
        """Build from clauses that must all be compact under perm."""
        masks = [0] * (len(perm) - 2)
        for c in clauses:
            tier, code = _line(perm, c)
            masks[tier] |= 1 << code
        return cls(perm, tuple(masks))

    def evaluate(self, bits: Sequence[int]) -> int:
        """Standard CNF evaluation of the clauses this CTF encodes."""
        order = self.perm.order
        if len(bits) != len(order):
            raise ValueError("assignment length mismatch")
        code = (bits[order[0] - 1] << 1) | bits[order[1] - 1]
        for j, mask in enumerate(self.tiers):
            code = ((code << 1) & 7) | bits[order[j + 2] - 1]
            if mask >> code & 1:
                return 0
        return 1

    def clause_lines(self) -> list[tuple[int, int]]:
        return [(j, c) for j in range(len(self.tiers))
                for c in range(8) if self.tiers[j] >> c & 1]

    def to_clauses(self) -> list[Clause]:
        """The encoded clauses, in natural variable terms."""
        order = self.perm.order
        out = []
        for j, code in self.clause_lines():
            out.append(Clause(tuple(
                (order[j + k], (code >> (2 - k)) & 1) for k in range(3))))
        return out


@dataclass(frozen=True)
class DecompositionReport:
    k: int
    w: int


def _line(perm: Perm, clause: Clause) -> tuple[int, int]:
    """The (tier, code) of a clause compact under perm (raises
    otherwise): its first position and its marks ordered by window
    position."""
    pos = perm.pos
    (first, a), (_, b), (last, c) = sorted(
        (pos[v - 1], mark) for v, mark in clause.entries)
    if last - first != 2:
        raise ValueError("clause %r is not compact under %r"
                         % (clause, perm.order))
    return first, a << 2 | b << 1 | c


def group_terms(formula: TabularFormula) -> list[tuple[tuple[int, int, int], list[Clause]]]:
    """Group clauses by unordered variable triple (groups sorted by triple)."""
    groups: dict[tuple[int, int, int], list[Clause]] = {}
    for c in formula.clauses:
        groups.setdefault(c.variables(), []).append(c)
    return sorted(groups.items())


class _Chain:
    """A growing run of variables; each placed group owns one window."""

    __slots__ = ("vars", "groups")

    def __init__(self, triple: tuple[int, int, int]):
        self.vars = list(triple)
        self.groups = [triple]

    def try_place(self, triple: tuple[int, int, int], n: int) -> bool:
        if len(self.vars) >= n:
            return False
        tset = set(triple)
        if {self.vars[-2], self.vars[-1]} < tset:
            new = (tset - {self.vars[-2], self.vars[-1]}).pop()
            if new not in self.vars:
                self.vars.append(new)
                self.groups.append(triple)
                return True
        if {self.vars[0], self.vars[1]} < tset:
            new = (tset - {self.vars[0], self.vars[1]}).pop()
            if new not in self.vars:
                self.vars.insert(0, new)
                self.groups.append(triple)
                return True
        return False

    def end_pairs(self) -> tuple[frozenset[int], frozenset[int]]:
        """The pairs a placed triple must contain: the first two
        variables and the last two."""
        return frozenset(self.vars[:2]), frozenset(self.vars[-2:])


def _chains(triples: list[tuple[int, int, int]], n: int) -> list[_Chain]:
    """Greedy first-fit chaining of the triples, in order: a triple
    joins the first chain, in creation order, that takes it."""
    chains: list[_Chain] = []
    by_pair: dict[frozenset[int], list[int]] = {}   # end, start pair -> chains
    for triple in triples:
        a, b, c = triple
        pairs = (frozenset((a, b)), frozenset((a, c)), frozenset((b, c)))
        for i in sorted({i for p in pairs for i in by_pair.get(p, ())}):
            chain = chains[i]
            old = chain.end_pairs()
            if chain.try_place(triple, n):
                for p in old:
                    by_pair[p].remove(i)
                for p in chain.end_pairs():
                    by_pair.setdefault(p, []).append(i)
                break
        else:
            chains.append(_Chain(triple))
            for p in chains[-1].end_pairs():
                by_pair.setdefault(p, []).append(len(chains) - 1)
    return chains


def _pack(chains: list[_Chain]) -> list[list[_Chain]]:
    """First-fit packing of chains, in order, into permutations: a chain
    joins the first permutation it shares no variable with. Chains that
    share no variable have lengths summing to at most n, so they fit."""
    bins: list[list[_Chain]] = []
    masks: list[int] = []
    for chain in chains:
        cmask = 0
        for v in chain.vars:
            cmask |= 1 << v
        for i, bmask in enumerate(masks):
            if not bmask & cmask:
                bins[i].append(chain)
                masks[i] = bmask | cmask
                break
        else:
            bins.append([chain])
            masks.append(cmask)
    return bins


def decompose(formula: TabularFormula) -> tuple[list[Ctf], DecompositionReport]:
    """Split the formula into CT formulas over shared permutations.

    Groups (clauses sharing a variable triple, in triple order) are
    chained greedily, first fit: a group extends an existing chain when
    its triple overlaps the chain's end (or start) in two variables and
    contributes one new variable; otherwise it starts a new chain. A
    chain can take a triple only when its end or start pair lies inside
    it, so the chains are indexed by those two pairs, and each group
    tries only the chains listed under its three pairs, in creation
    order; the chains are those of trying every chain in turn. The
    finished chains are then packed first-fit, in creation order, into
    shared permutations: a chain joins the first permutation whose
    chains it shares no variable with (the lengths of such chains sum
    to at most n). A permutation is its chains' variables concatenated,
    then the unused variables ascending; the tiers straddling two chains
    stay empty. So k counts packed permutations, not chains.

    The produced CTFs partition the clause set exactly, and
    ceil(w/(n-2)) <= k <= w <= m. The result depends only on the set of
    clauses: the groups are ordered by triple and a CTF keeps its lines
    as tier masks, so neither clause order nor repeated clauses change
    it.
    """
    n = formula.n
    groups = group_terms(formula)
    w = len(groups)
    by_triple = dict(groups)

    ctfs = []
    for packed in _pack(_chains([triple for triple, _ in groups], n)):
        order = [v for chain in packed for v in chain.vars]
        placed = set(order)
        order += [v for v in range(1, n + 1) if v not in placed]
        clauses = [c for chain in packed for triple in chain.groups
                   for c in by_triple[triple]]
        ctfs.append(Ctf.from_clauses(Perm(order), clauses))

    k = len(ctfs)
    if formula.m and not math.ceil(w / (n - 2)) <= k <= formula.m:
        raise RuntimeError("decomposition bound violated: w=%d k=%d m=%d"
                           % (w, k, formula.m))
    return ctfs, DecompositionReport(k=k, w=w)


def decompose_with_plan(formula: TabularFormula,
                        plan: Sequence[tuple[Sequence[int], Sequence[int]]]
                        ) -> tuple[list[Ctf], DecompositionReport]:
    """Decompose along a pinned plan: (permutation, 1-based clause indices)
    per CTF. A clause may be assigned to several CTFs; every clause must
    be assigned at least once."""
    used: set[int] = set()
    ctfs = []
    for order, indices in plan:
        perm = Perm(order)
        if len(perm) != formula.n:
            raise ValueError("permutation of %d variables for n=%d"
                             % (len(perm), formula.n))
        clauses = []
        for i in indices:
            if not 1 <= i <= formula.m:
                raise ValueError("clause index %d out of range" % i)
            clauses.append(formula.clauses[i - 1])
            used.add(i)
        ctfs.append(Ctf.from_clauses(perm, clauses))
    missing = set(range(1, formula.m + 1)) - used
    if missing:
        raise ValueError("plan leaves clauses unassigned: %s" % sorted(missing))
    return ctfs, DecompositionReport(k=len(ctfs), w=len(group_terms(formula)))


def ctf_to_cts(ctf: Ctf) -> Cts:
    """Per-tier complement of the CTF's forbidden patterns, then clearing.

    The result encodes exactly the satisfying assignments of the CTF;
    an empty result means the CTF is contradictory.
    """
    masks, _ = clear_masks([TIER_FULL & ~m for m in ctf.tiers])
    return Cts(ctf.perm, masks)


def cts_stage_evidence(ctf: Ctf) -> int | None:
    """1-based tier index where complement+clearing first empties, or None."""
    _, idx = clear_masks([TIER_FULL & ~m for m in ctf.tiers])
    return None if idx is None else idx + 1
