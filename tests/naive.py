"""Independent reference implementations used as test oracles.

Everything here works on plain sets of (tier, code-string) rows and
brute-force enumeration, deliberately avoiding the package's bitmask
machinery so the two paths can check each other. The exceptions read
structures' tier masks directly: `constant_of` and `pair_relation`,
which state unify's fixpoint per structure, and `reference_unify`, the
full-scan form of `unify` on the same bitmask tables, kept to check the
change-driven one field for field. The systemic procedure's stored
tuples are read through `cts.unstack`, one structure per member,
`unify_cts` calls `unify` on a sequence of structures, and
`concretize_then_unify` is the SEP's same-name step with a fix made by
`concretize_lanes` before the call.
`naive_decompose` builds its CTFs with `Ctf.from_clauses`, clause by
clause. `tseitin_formula` draws Tseitin parity formulas on random
3-regular graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from ctsat.cts import (Cts, Perm, concretize_lanes, has_empty_lane, stack,
                       unstack)
from ctsat.decompose import Ctf, DecompositionReport
from ctsat.formula import Clause, TabularFormula
from ctsat.rng import SplitMix64
from ctsat.unify import UnifyContext, unify


def rows_to_sets(rows, tier_count):
    tiers = [set() for _ in range(tier_count)]
    for j, bits in rows:
        tiers[j].add(bits)
    return tiers


def adjoins(a: str, b: str) -> bool:
    return a[1:] == b[:2]


def naive_clear(tiers, rng: random.Random | None = None):
    """Delete unsupported lines one at a time, in arbitrary order."""
    tiers = [set(t) for t in tiers]
    last = len(tiers) - 1
    while True:
        victims = []
        for j, tier in enumerate(tiers):
            for line in tier:
                if j > 0 and not any(adjoins(p, line) for p in tiers[j - 1]):
                    victims.append((j, line))
                elif j < last and not any(adjoins(line, s) for s in tiers[j + 1]):
                    victims.append((j, line))
        if not victims:
            break
        if rng is not None:
            victim = victims[rng.randrange(len(victims))]
        else:
            victim = victims[0]
        tiers[victim[0]].discard(victim[1])
    if any(not t for t in tiers):
        return [set() for _ in tiers]
    return tiers


def naive_enumerate(tiers, order):
    """All assignments spelled by chains, as tuples in natural order."""
    n = len(order)
    if any(not t for t in tiers):
        return set()
    out = set()
    for bits in product("01", repeat=n):
        by_pos = {order[i]: bits[i] for i in range(n)}
        ok = True
        for j, tier in enumerate(tiers):
            window = "".join(by_pos[order[j + k]] for k in range(3))
            if window not in tier:
                ok = False
                break
        if ok:
            natural = [None] * n
            for i, v in enumerate(order):
                natural[v - 1] = int(bits[i])
            out.add(tuple(natural))
    return out


def naive_contains(tiers, order, assignment) -> bool:
    for j, tier in enumerate(tiers):
        window = "".join(str(assignment[order[j + k] - 1]) for k in range(3))
        if window not in tier:
            return False
    return True


def naive_union(a, b):
    return [x | y for x, y in zip(a, b)]


def naive_intersect(a, b):
    return naive_clear([x & y for x, y in zip(a, b)])


def naive_concretize(tiers, order, var, value):
    tiers = [set(t) for t in tiers]
    pos = order.index(var)
    for j in range(len(tiers)):
        if j <= pos <= j + 2:
            tiers[j] = {line for line in tiers[j] if line[pos - j] == str(value)}
    return naive_clear(tiers)


def cnf_evaluate(clauses, bits) -> int:
    """Standard CNF semantics: clause satisfied when some literal is."""
    for clause in clauses:
        if not any((bits[v - 1] == 1) != bool(mark) for v, mark in clause):
            return 0
    return 1


def sat_set(formula):
    """All satisfying assignments by exhaustive scan (small n only)."""
    return {bits for bits in formula.assignments() if formula.evaluate(bits) == 1}


def joint_sat_set(structures):
    """Assignments contained in every structure (exhaustive scan)."""
    n = structures[0].n
    out = set()
    for i in range(1 << n):
        bits = tuple((i >> (n - 1 - k)) & 1 for k in range(n))
        if all(s.contains_assignment(bits) for s in structures):
            out.add(bits)
    return out


def cts_to_sets(s):
    """A structure's tiers as sets of code strings."""
    return [set(format(c, "03b") for c in s.tier_codes(j))
            for j in range(len(s.tiers))]


def naive_project(system, r, target, i=0):
    """Project set-form `target` onto tier `r` of a system: the union of
    member i's tier-r vertex substructures, each intersected with it."""
    acc = [set() for _ in target]
    for c in system.skeleton.codes(r):
        sub = unstack(system.vsub[(r, c)], system.structures)[i]
        acc = naive_union(acc, naive_intersect(cts_to_sets(sub), target))
    return acc


def naive_shift(system, edge):
    """Shift along `edge` of a pair system, straight-line in set form:
    concretize the tail vertex's substructure on the variable the edge
    adds, then project onto every earlier tier in turn."""
    j, a, b = edge
    var = system.basic.perm.order[j + 3]
    tail = unstack(system.vsub[(j, a)], system.structures)[0]
    current = naive_concretize(cts_to_sets(tail),
                               list(system.structures[0].perm.order), var, b & 1)
    for s in range(j):
        current = naive_project(system, s, current)
    return current


def naive_prune(tiers, edges):
    """Worklist cascade over a tier graph in set form.

    `tiers` is a list of code sets, `edges` a set of (j, a, b) triples
    between present vertices. Vertices lacking a neighbour in an
    adjacent tier are removed one at a time, with their edges, until
    none is left. Returns (removed count, empty tier, tiers, edges).
    The empty tier (1-based) is the lowest tier that is empty on entry;
    failing that, the highest tier from which no path reaches the last
    tier; None when no tier empties.
    """
    tiers = [set(t) for t in tiers]
    edges = set(edges)
    last = len(tiers) - 1
    empty = next((j for j, t in enumerate(tiers) if not t), None)
    if empty is None:
        reach = set(tiers[last])
        for j in range(last - 1, -1, -1):
            reach = {a for a in tiers[j] if any((j, a, b) in edges for b in reach)}
            if not reach:
                empty = j
                break

    def ups(j, c):
        return [a for (i, a, b) in edges if i == j - 1 and b == c]

    def downs(j, c):
        return [b for (i, a, b) in edges if i == j and a == c]

    removed = 0
    queue = [(j, c) for j, t in enumerate(tiers) for c in sorted(t)]
    while queue:
        j, c = queue.pop()
        if c not in tiers[j]:
            continue
        up, down = ups(j, c), downs(j, c)
        if not ((j > 0 and not up) or (j < last and not down)):
            continue
        tiers[j].discard(c)
        edges = {e for e in edges
                 if not (e[0] == j and e[1] == c) and not (e[0] == j - 1 and e[2] == c)}
        removed += 1
        queue.extend([(j - 1, a) for a in up] + [(j + 1, b) for b in down])
    return removed, None if empty is None else empty + 1, tiers, edges


def naive_chains(triples, n):
    """Greedy first-fit chaining of sorted variable triples as a full
    scan: each triple, in order, extends the first chain, in creation
    order, whose last two (else first two) variables it holds and which
    lacks its third, at that end; otherwise it starts a chain. A chain
    of n variables takes nothing more. Returns (vars, groups) lists."""
    chains = []
    for triple in triples:
        for chain, groups in chains:
            if len(chain) >= n:
                continue
            new = [v for v in triple if v not in chain[-2:]]
            if len(new) == 1 and new[0] not in chain:
                chain.append(new[0])
                groups.append(triple)
                break
            new = [v for v in triple if v not in chain[:2]]
            if len(new) == 1 and new[0] not in chain:
                chain.insert(0, new[0])
                groups.append(triple)
                break
        else:
            chains.append((list(triple), [triple]))
    return chains


def naive_decompose(formula):
    """`decompose` from plain parts: the clause set grouped by sorted
    variable triple, `naive_chains` over the triples in order, first-fit
    packing of the chains on variable sets, and each CTF built by
    `Ctf.from_clauses` from its chains' clauses, its permutation the
    chains' variables and then the unused ones ascending."""
    groups = {}
    for clause in set(formula.clauses):
        groups.setdefault(clause.variables(), []).append(clause)
    bins = []   # (variables used, chains)
    for chain in naive_chains(sorted(groups), formula.n):
        for used, packed in bins:
            if not used & set(chain[0]):
                used.update(chain[0])
                packed.append(chain)
                break
        else:
            bins.append((set(chain[0]), [chain]))
    ctfs = []
    for used, packed in bins:
        order = [v for chain, _ in packed for v in chain]
        order += [v for v in range(1, formula.n + 1) if v not in used]
        ctfs.append(Ctf.from_clauses(Perm(order), [
            c for _, triples in packed for t in triples for c in groups[t]]))
    return ctfs, DecompositionReport(k=len(ctfs), w=len(groups))


@dataclass(frozen=True)
class PairRelation:
    """Allowed value combinations for an ordered variable pair."""

    vars: tuple[int, int]
    allowed: frozenset[tuple[int, int]]


def constant_of(structure, var: int) -> int | None:
    """0 or 1 when every line in every tier covering var carries that
    value; None when both values occur. Requires a non-empty structure."""
    if structure.is_empty:
        raise ValueError("constant is undefined on an empty structure")
    p = structure.perm.position(var)
    last = len(structure.tiers) - 1
    seen = 0
    for j in range(max(0, p - 2), min(last, p) + 1):
        bit = 4 >> (p - j)
        m = structure.tiers[j]
        for c in range(8):
            if m >> c & 1:
                seen |= 2 if c & bit else 1
        if seen == 3:
            return None
    return None if seen == 3 else (1 if seen == 2 else 0)


def pair_relation(structure, a: int, b: int) -> PairRelation | None:
    """Value combinations for (a, b) intersected over all tiers holding
    both variables; None when the pair is never co-tiered."""
    if structure.is_empty:
        raise ValueError("pair relation is undefined on an empty structure")
    pa = structure.perm.position(a)
    pb = structure.perm.position(b)
    if abs(pa - pb) > 2:
        return None
    last = len(structure.tiers) - 1
    allowed: set[tuple[int, int]] | None = None
    for j in range(max(0, max(pa, pb) - 2), min(last, min(pa, pb)) + 1):
        m = structure.tiers[j]
        sa, sb = 2 - (pa - j), 2 - (pb - j)
        combos = {((c >> sa) & 1, (c >> sb) & 1) for c in range(8) if m >> c & 1}
        allowed = combos if allowed is None else allowed & combos
    return PairRelation((a, b), frozenset(allowed or ()))


class Unified(NamedTuple):
    """A unify outcome with the fixpoint as structures (None when the
    system empties); its fields compare as one tuple."""

    structures: tuple[Cts, ...] | None
    waves: int
    cause: str | None = None
    structure_index: int | None = None
    empty_tier: int | None = None

    @property
    def empty(self) -> bool:
        return self.structures is None


def lanes(x: int, perms) -> tuple[Cts, ...]:
    """The structures stacked in x, lane i over perms[i]."""
    return unstack(x, [Cts.empty(p) for p in perms])


def unstacked_result(result, perms) -> Unified:
    """A `UnifyResult` with its stacked fixpoint split into structures,
    lane i over perms[i]."""
    return Unified(None if result.empty else lanes(result.packed, perms),
                   result.waves, result.cause, result.structure_index,
                   result.empty_tier)


def unify_cts(structures, sink=None, since=None) -> Unified:
    """`unify` on a sequence of structures: stacks them (and `since`),
    builds the context from their permutations, and splits the
    fixpoint back into structures. With no `since` the structures are
    cleared first and the call is seeded from the complete system, as
    classify seeds its top-level call."""
    perms = [s.perm for s in structures]
    if since is None:
        structures = [s.clear() for s in structures]
        since = [Cts.complete(p) for p in perms]
    result = unify(stack(structures), UnifyContext(perms),
                   since=stack(since), sink=sink)
    return unstacked_result(result, perms)


def reference_unify(structures) -> Unified:
    """`ctsat.unify.unify` as a full scan, without a sink or a seed.

    Every wave reads every variable of every structure, in variable
    order, and then every co-tiered pair of variables not yet found
    constant, in pair order, restricting one window and clearing the
    whole structure after each removal; waves repeat while a wave
    removed a line. The fast `unify` must give the same result field
    for field.
    """
    from ctsat.cts import _KEEP, clear_masks
    from ctsat.unify import (_COMBOS, _PAIR_KEEP, _SEEN,
                             CAUSE_CONSTANT_CONFLICT, CAUSE_EMPTY_INPUT,
                             CAUSE_EMPTY_TIER)

    current = [s.clear() for s in structures]
    for i, s in enumerate(current):
        if s.is_empty:
            return Unified(None, waves=0, cause=CAUSE_EMPTY_INPUT,
                           structure_index=i)
    # the lowest window of every variable and co-tiered pair
    const_window = [[(p - 2, 2) if p > 2 else (0, p) for p in s.perm.pos]
                    for s in current]
    by_pair: dict = {}
    for i, s in enumerate(current):
        order = s.perm.order
        for q in range(1, len(order)):
            j = q - 2 if q > 2 else 0
            for p in range(j, q):
                x, y = order[p], order[q]
                if x < y:
                    by_pair.setdefault((x, y), []).append((i, j, p - j, q - j))
                else:
                    by_pair.setdefault((y, x), []).append((i, j, q - j, p - j))
    pair_entries = [(pair, homes) for pair, homes in sorted(by_pair.items())
                    if len(homes) >= 2]

    n = current[0].n
    masks = [list(s.tiers) for s in current]
    fixed: dict[int, int] = {}
    waves = 0
    changed = True
    while changed:
        waves += 1
        changed = False
        for var in range(1, n + 1):
            value = fixed.get(var)
            new = False
            for i, m in enumerate(masks):
                j, off = const_window[i][var - 1]
                seen = _SEEN[off][m[j]]
                if seen == 3:
                    continue
                c = 1 if seen == 2 else 0
                if value is None:
                    value = c
                    new = True
                elif value != c:
                    return Unified(None, waves=waves,
                                   cause=CAUSE_CONSTANT_CONFLICT,
                                   structure_index=i)
            if value is None or (var in fixed and not new):
                continue
            fixed[var] = value
            for i, m in enumerate(masks):
                j, off = const_window[i][var - 1]
                kept = m[j] & _KEEP[off][value]
                if kept == m[j]:
                    continue
                m[j] = kept
                _, zero = clear_masks(m)
                if zero is not None:
                    return Unified(None, waves=waves,
                                   cause=CAUSE_EMPTY_TIER,
                                   structure_index=i,
                                   empty_tier=zero + 1)
                changed = True

        for (u, w), homes in pair_entries:
            if u in fixed or w in fixed:
                continue
            rels = [_COMBOS[oa][ob][masks[i][j]] for i, j, oa, ob in homes]
            allowed = 15
            for rel in rels:
                allowed &= rel
            for (i, j, oa, ob), rel in zip(homes, rels):
                if rel == allowed:
                    continue
                masks[i][j] &= _PAIR_KEEP[oa][ob][allowed]
                _, zero = clear_masks(masks[i])
                if zero is not None:
                    return Unified(None, waves=waves,
                                   cause=CAUSE_EMPTY_TIER,
                                   structure_index=i,
                                   empty_tier=zero + 1)
                changed = True

    return Unified(tuple(Cts(s.perm, m) for s, m in zip(current, masks)),
                   waves=waves)


def concretize_then_unify(x, since, system, fix=()):
    """`ctsat.sep._unify_same_name` in two steps: x concretized on the
    pairs of `fix` in every lane with `concretize_lanes`, a full clear,
    then the cases that `unify` returns with no wave taken here, before
    any call (a tuple equal to `since`, an empty member and a lone
    member), then `unify` seeded with `since`, its waves added to the
    system's counters. The SEP must store the same tuples and counters
    with either form."""
    ctx = system.context
    lay = ctx.layout
    if fix:
        x = concretize_lanes(x, ctx.perms, fix, lay)
    if x == since:
        return x
    if has_empty_lane(x, lay):
        return None
    if lay.lanes == 1:
        return x
    result = unify(x, ctx, since=since)
    system.stats.unify_waves += result.waves
    return result.packed


def cubic_graph(vertices: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of a random connected 3-regular graph on
    0..vertices-1 (an even count >= 4), by the pairing model: the 3V
    points, three per vertex, shuffled and paired in order, drawn again
    while a pair is a loop or a double edge or the graph is
    disconnected. The edges come in the order of their pairs."""
    while True:
        points = list(range(3 * vertices))
        rng.shuffle(points)
        edges = [tuple(sorted((a // 3, b // 3)))
                 for a, b in zip(points[::2], points[1::2])]
        if any(u == v for u, v in edges) or len(set(edges)) < len(edges):
            continue
        reached, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reached:
                        reached.add(y)
                        frontier.append(y)
        if len(reached) == vertices:
            return edges


def tseitin_formula(vertices: int, seed: int, odd: bool) -> TabularFormula:
    """The Tseitin formula of `cubic_graph(vertices, SplitMix64(seed))`:
    variable i + 1 on edge i, and for each vertex the four clauses that
    forbid the assignments of its three edges whose sum mod 2 is not
    its charge. The charges are drawn from the same stream after the
    graph, one bit per vertex, the last set so the total is odd or
    even; the two totals share the graph and every other charge. An
    odd total is unsatisfiable, since the graph is connected, and an
    even one satisfiable."""
    rng = SplitMix64(seed)
    edges = cubic_graph(vertices, rng)
    charges = [rng.below(2) for _ in range(vertices - 1)]
    charges.append((sum(charges) + odd) % 2)
    clauses = []
    for u, charge in enumerate(charges):
        variables = [i + 1 for i, edge in enumerate(edges) if u in edge]
        for marks in product((0, 1), repeat=3):
            if sum(marks) % 2 != charge:
                clauses.append(Clause(tuple(zip(variables, marks))))
    return TabularFormula(len(edges), tuple(clauses))
