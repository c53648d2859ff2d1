"""Independent reference implementations used as test oracles.

Everything here works on plain sets of (tier, code-string) rows and
brute-force enumeration, deliberately avoiding the package's bitmask
machinery so the two paths can check each other.
"""

from __future__ import annotations

import random
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


def naive_project(system, r, target):
    """Project set-form `target` onto tier `r` of a pair system: the union
    of the member's tier-r vertex substructures, each intersected with it."""
    member = system.members[0]
    acc = [set() for _ in target]
    for c in sorted(system.skeleton.tiers[r]):
        acc = naive_union(acc, naive_intersect(cts_to_sets(member.vsub[(r, c)]),
                                               target))
    return acc


def naive_shift(system, edge):
    """Shift along `edge` of a pair system, straight-line in set form:
    concretize the tail vertex's substructure on the variable the edge
    adds, then project onto every earlier tier in turn."""
    j, a, b = edge
    member = system.members[0]
    var = system.basic_perm.order[j + 3]
    current = naive_concretize(cts_to_sets(member.vsub[(j, a)]),
                               list(member.structure.perm.order), var, b & 1)
    for s in range(j):
        current = naive_project(system, s, current)
    return current
