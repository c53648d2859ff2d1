"""Decomposition of a tabular formula into compact triplet formulas.

Clauses are grouped by their (unordered) variable triple; each group is
placed at three consecutive positions of some permutation, yielding k
CT formulas whose conjunction is the original formula. Each CT formula
then transforms into a CT structure by per-tier complement + clearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .cts import _CODES, TIER_FULL, Cts, Perm, clear_masks
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
        return int(not any(m >> c & 1 for m, c in
                           zip(self.tiers, self.perm.codes_of(bits))))

    def clause_lines(self) -> list[tuple[int, int]]:
        return [(j, c) for j, m in enumerate(self.tiers) for c in _CODES[m]]

    def to_clauses(self) -> list[Clause]:
        """The encoded clauses, in natural variable terms."""
        return [Clause(self.perm.window_values(j, code))
                for j, code in self.clause_lines()]


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


def _window_tables() -> list[list[int] | None]:
    """_TO_WINDOW[o][mask]: a mask of codes over three variables in
    variable order (smallest variable most significant, as `group_terms`
    keys them) moved to the order of a window w0, w1, w2 of those
    variables (w0 most significant), o = (w0 > w1) << 2 | (w0 > w2) << 1
    | (w1 > w2). The two o that no order gives hold None."""
    tables: list[list[int] | None] = [None] * 8
    for ranks in permutations(range(3)):
        r0, r1, r2 = ranks
        # the window code of each variable-order code: window position p
        # holds the variable of rank ranks[p], whose mark is bit 2 - rank
        code = [sum((c >> 2 - r & 1) << 2 - p for p, r in enumerate(ranks))
                for c in range(8)]
        table = [0] * 256   # a mask moves its lowest code and the rest
        for mask in range(1, 256):
            low = mask & -mask
            table[mask] = table[mask ^ low] | 1 << code[low.bit_length() - 1]
        tables[(r0 > r1) << 2 | (r0 > r2) << 1 | (r1 > r2)] = table
    return tables


_TO_WINDOW = _window_tables()


def group_terms(formula: TabularFormula) -> dict[tuple[int, int, int], int]:
    """The clauses grouped by variable triple: (x, y, z), x < y < z, to
    the mask of their codes in variable order (bit a << 2 | b << 1 | c
    for marks a, b, c of x, y, z). A repeated clause sets its bit again."""
    groups: dict[tuple[int, int, int], int] = {}
    get = groups.get
    for clause in formula.clauses:
        (x, a), (y, b), (z, c) = clause.entries
        key = (x, y, z)
        groups[key] = get(key, 0) | 1 << (a << 2 | b << 1 | c)
    return groups


class _Chain:
    """A growing run of variables. Window t (variables t, t+1, t+2)
    holds the one group placed there, its mask in window order, as
    `tiers[t]`. `mask` has bit v set for each variable v of the chain,
    and `start` and `end` are the pair keys (see `_chains`) of its first
    two and last two variables."""

    __slots__ = ("vars", "mask", "tiers", "start", "end")

    def __init__(self, x: int, y: int, z: int, mask: int, s: int):
        self.vars = [x, y, z]
        self.mask = 1 << x | 1 << y | 1 << z
        self.tiers = [mask]
        self.start = x << s | y
        self.end = y << s | z


def _chains(groups: dict[tuple[int, int, int], int], n: int) -> list[_Chain]:
    """Greedy first-fit chaining of the groups, in triple order: a group
    joins the first chain, in creation order, that takes it.

    A chain takes a triple that holds its last two variables and a third
    it lacks, appended at its end, or else its first two and a third it
    lacks, prepended at its start; a chain of n variables takes nothing.
    An unordered pair u < v has the key u << s | v, s = n.bit_length().
    `by_pair` maps the start and end pair key of every chain short of n
    variables to a bitmask of chains (bit i for chain i), so a triple
    tries, lowest bit first, the chains listed under its three pairs:
    those are the chains in creation order that could take it."""
    s = n.bit_length()
    chains: list[_Chain] = []
    by_pair: dict[int, int] = {}
    get = by_pair.get
    to_window = _TO_WINDOW
    for (x, y, z), mask in sorted(groups.items()):
        xy, xz, yz = x << s | y, x << s | z, y << s | z
        cand = get(xy, 0) | get(xz, 0) | get(yz, 0)
        if cand:
            third = {xy: z, xz: y, yz: x}
        while cand:
            bit = cand & -cand
            cand ^= bit
            chain = chains[bit.bit_length() - 1]
            vs, key = chain.vars, chain.end
            new = third.get(key)
            if new and not chain.mask >> new & 1:
                u, v = vs[-2], vs[-1]
                vs.append(new)
                chain.tiers.append(to_window[
                    (u > v) << 2 | (u > new) << 1 | (v > new)][mask])
                chain.end = v << s | new if v < new else new << s | v
                added, kept = chain.end, chain.start
            else:
                key = chain.start
                new = third.get(key)
                if not new or chain.mask >> new & 1:
                    continue
                u, v = vs[0], vs[1]
                vs.insert(0, new)
                chain.tiers.insert(0, to_window[
                    (new > u) << 2 | (new > v) << 1 | (u > v)][mask])
                chain.start = new << s | u if new < u else u << s | new
                added, kept = chain.start, chain.end
            chain.mask |= 1 << new
            by_pair[key] ^= bit
            if len(vs) < n:
                by_pair[added] = get(added, 0) | bit
            else:
                by_pair[kept] ^= bit
            break
        else:
            bit = 1 << len(chains)
            chains.append(_Chain(x, y, z, mask, s))
            if n > 3:
                by_pair[xy] = get(xy, 0) | bit
                by_pair[yz] = get(yz, 0) | bit
    return chains


def _pack(chains: list[_Chain], n: int) -> list[Ctf]:
    """First-fit packing of chains, in order, into permutations: a chain
    joins the first permutation it shares no variable with. Chains that
    share no variable have lengths summing to at most n, so they fit. A
    permutation is its chains' variables concatenated, then the unused
    variables ascending; a chain's windows are its tiers there, and the
    tiers straddling two chains stay empty."""
    bins: list[list[_Chain]] = []
    used: list[int] = []
    for chain in chains:
        cmask = chain.mask
        for i, bmask in enumerate(used):
            if not bmask & cmask:
                bins[i].append(chain)
                used[i] = bmask | cmask
                break
        else:
            bins.append([chain])
            used.append(cmask)
    ctfs = []
    for packed, bmask in zip(bins, used):
        order: list[int] = []
        tiers = [0] * (n - 2)
        for chain in packed:
            at = len(order)
            tiers[at:at + len(chain.tiers)] = chain.tiers
            order += chain.vars
        order += [v for v in range(1, n + 1) if not bmask >> v & 1]
        ctfs.append(Ctf(Perm(order), tuple(tiers)))
    return ctfs


def decompose(formula: TabularFormula) -> tuple[list[Ctf], DecompositionReport]:
    """Split the formula into CT formulas over shared permutations.

    The clauses are grouped by variable triple, each group one mask of
    codes in variable order (`group_terms`). The groups, in triple
    order, are chained greedily, first fit: a group extends an existing
    chain when its triple overlaps the chain's end (or start) in two
    variables and contributes one new variable; otherwise it starts a
    new chain (`_chains`). A chain can take a triple only when its end
    or start pair lies inside it, so the chains are indexed by those two
    pairs, as int keys to bitmasks of chains, and each group tries only
    the chains listed under its three pairs, in creation order; the
    chains are those of trying every chain in turn. A placed group's
    mask moves to the order of its window with one table lookup and
    becomes the chain's tier there. The finished chains are then packed
    first-fit, in creation order, on their variable bitmasks into shared
    permutations: a chain joins the first permutation whose chains it
    shares no variable with (the lengths of such chains sum to at most
    n). A permutation is its chains' variables concatenated, then the
    unused variables ascending; the tiers straddling two chains stay
    empty. So k counts packed permutations, not chains.

    The produced CTFs partition the clause set exactly, and
    ceil(w/(n-2)) <= k <= w <= m, checked here. The result depends only
    on the set of clauses: the groups are ordered by triple and hold
    their codes as masks, so neither clause order nor repeated clauses
    change it.
    """
    n = formula.n
    groups = group_terms(formula)
    ctfs = _pack(_chains(groups, n), n)
    k, w = len(ctfs), len(groups)
    if not -(-w // (n - 2)) <= k <= w <= formula.m:
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
    # `Ctf` holds one mask per tier, and bytes() refuses one outside 0..255
    return Cts._make(ctf.perm, int.from_bytes(bytes(masks), "little"))


def cts_stage_evidence(ctf: Ctf) -> int | None:
    """1-based tier index where complement+clearing first empties, or None."""
    _, idx = clear_masks([TIER_FULL & ~m for m in ctf.tiers])
    return None if idx is None else idx + 1
