"""Independent reference implementations used as test oracles.

Everything here works on plain sets of (tier, code-string) rows and
brute-force enumeration, deliberately avoiding the package's bitmask
machinery so the two paths can check each other. The exceptions read
structures' tier masks directly: `constant_of` and `pair_relation`,
which state unify's fixpoint per structure, and `reference_unify`, the
full-scan form of `unify` on the same bitmask tables, kept to check the
change-driven one field for field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product


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
        acc = naive_union(acc, naive_intersect(cts_to_sets(system.vsub[(r, c)][i]),
                                               target))
    return acc


def naive_shift(system, edge):
    """Shift along `edge` of a pair system, straight-line in set form:
    concretize the tail vertex's substructure on the variable the edge
    adds, then project onto every earlier tier in turn."""
    j, a, b = edge
    var = system.basic_perm.order[j + 3]
    current = naive_concretize(cts_to_sets(system.vsub[(j, a)][0]),
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


def reference_unify(structures):
    """`ctsat.unify.unify` as a full scan, without a sink or `since`.

    Every wave reads all variables of the structures changed in the
    previous wave (every structure in the first wave) and every
    co-tiered pair touching them, restricting one window and clearing
    the whole structure after each removal. The fast `unify` must give
    the same result field for field.
    """
    from ctsat.cts import _KEEP, Cts, clear_masks
    from ctsat.unify import (_COMBOS, _PAIR_KEEP, _SEEN,
                             CAUSE_CONSTANT_CONFLICT, CAUSE_EMPTY_INPUT,
                             CAUSE_EMPTY_TIER, UnifyResult)

    current = [s.clear() for s in structures]
    for i, s in enumerate(current):
        if s.is_empty:
            return UnifyResult(None, waves=0, cause=CAUSE_EMPTY_INPUT,
                               structure_index=i)
    if len(current) == 1:
        return UnifyResult((current[0],), waves=1)

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
    pair_entries = [homes for _, homes in sorted(by_pair.items())
                    if len(homes) >= 2]

    n = current[0].n
    masks = [list(s.tiers) for s in current]
    fixed: dict[int, int] = {}
    waves = 0
    dirty = set(range(len(current)))
    while dirty:
        waves += 1
        touched: set[int] = set()
        order = sorted(dirty)
        for var in range(1, n + 1):
            value = fixed.get(var)
            new = False
            for i in order:
                j, off = const_window[i][var - 1]
                seen = _SEEN[off][masks[i][j]]
                if seen == 3:
                    continue
                c = 1 if seen == 2 else 0
                if value is None:
                    value = c
                    new = True
                elif value != c:
                    return UnifyResult(None, waves=waves,
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
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_EMPTY_TIER,
                                       structure_index=i,
                                       empty_tier=zero + 1)
                touched.add(i)

        scan = dirty | touched
        for homes in pair_entries:
            if not any(i in scan for i, _, _, _ in homes):
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
                    return UnifyResult(None, waves=waves,
                                       cause=CAUSE_EMPTY_TIER,
                                       structure_index=i,
                                       empty_tier=zero + 1)
                touched.add(i)
        dirty = touched

    return UnifyResult(tuple(Cts(s.perm, m) for s, m in zip(current, masks)),
                       waves=waves)
