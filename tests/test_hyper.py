from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import ctsat
from ctsat.cts import Cts, Perm
from ctsat.hyper import (Hyperstructure, InvariantViolation, basic_graph,
                         check_tier_disjoint, effective_procedure,
                         extract_jss, project_tier, shift)
from ctsat.unify import unify

import tabledata
from conftest import cts_from_rows
from naive import joint_sat_set


def to_sets(s: Cts):
    return [set(format(c, "03b") for c in s.tier_codes(j))
            for j in range(len(s.tiers))]


# -- basic graph ---------------------------------------------------------------

def test_basic_graph_matches_reference_figure(unified_pair):
    g = basic_graph(unified_pair[0])
    assert [len(t) for t in g.tiers] == [2, 2, 2, 3, 2, 2]
    assert g.edge_count() == 14
    expected_edges = {
        (0, 0b001, 0b010), (0, 0b001, 0b011), (0, 0b101, 0b010),
        (0, 0b101, 0b011),
        (1, 0b010, 0b101), (1, 0b011, 0b111),
        (2, 0b101, 0b011), (2, 0b111, 0b110), (2, 0b111, 0b111),
        (3, 0b011, 0b110), (3, 0b111, 0b110), (3, 0b110, 0b101),
        (4, 0b110, 0b100), (4, 0b101, 0b011),
    }
    assert set(g.edges()) == expected_edges


def test_basic_graph_elementary_is_path(perm5):
    g = basic_graph(Cts.from_assignment((0, 1, 1, 0, 1), perm5))
    assert [len(t) for t in g.tiers] == [1, 1, 1]
    assert g.edge_count() == 2


def test_basic_graph_complete_structure(perm5):
    g = basic_graph(Cts.complete(perm5))
    assert [len(t) for t in g.tiers] == [8, 8, 8]
    # each line has exactly two successors
    assert g.edge_count() == 32
    for c in range(8):
        assert len(g.down((0, c))) == 2


def test_basic_graph_rejects_empty_and_uncleared(perm5):
    with pytest.raises(ValueError):
        basic_graph(Cts.empty(perm5))
    raw = cts_from_rows(perm5, [(0, "000"), (0, "111"), (1, "000"),
                                (2, "000")])
    with pytest.raises(ValueError, match="cleared"):
        basic_graph(raw)


def test_graph_prune_restores_adjacency(perm5):
    g = basic_graph(Cts.complete(perm5))
    for c in range(8):
        if c != 0:
            g.remove_vertex((1, c))
    removed, empty = g.prune()
    assert empty is None
    # only chains through tier-2 line 000 survive
    assert sorted(g.tiers[0]) == [0, 4]
    assert sorted(g.tiers[2]) == [0, 1]


# -- projection and shift --------------------------------------------------------

def build_pair_hs(unified_pair):
    result = effective_procedure(*unified_pair)
    assert not result.empty
    return result


def naive_project(hs: Hyperstructure, r: int, target: Cts) -> Cts:
    parts = []
    for c in sorted(hs.skeleton.tiers[r]):
        parts.append(hs.vsub[(r, c)].intersect(target))
    acc = Cts.empty(target.perm)
    for p in parts:
        acc = acc.union(p)
    return acc


def naive_shift(hs: Hyperstructure, edge) -> Cts:
    # straight-line evaluation: concretize, then project each earlier tier
    j, a, b = edge
    var = hs.basic_perm.order[j + 3]
    current = hs.vsub[(j, a)].concretize(var, b & 1)
    for s in range(j):
        current = naive_project(hs, s, current)
    return current


def test_project_disjoint_target_is_empty(unified_pair):
    hs = build_pair_hs(unified_pair).hs
    target = Cts.from_assignment((1, 1, 1, 0, 0, 0, 1, 0), unified_pair[1].perm)
    assert project_tier(hs, 0, target).is_empty


def test_project_contained_target_survives(unified_pair):
    hs = build_pair_hs(unified_pair).hs
    target = hs.vsub[(0, 0b001)]
    got = project_tier(hs, 0, target)
    for m_got, m_target in zip(got.tiers, target.tiers):
        assert m_got & m_target == m_target


def test_shift_first_tier_is_bare_concretization(unified_pair):
    hs = build_pair_hs(unified_pair).hs
    edge = (0, 0b001, 0b010)
    new_var = hs.basic_perm.order[3]
    expected = hs.vsub[(0, 0b001)].concretize(new_var, 0)
    assert shift(hs, edge) == expected


def test_shift_empty_concretization_short_circuits(unified_pair):
    hs = build_pair_hs(unified_pair).hs
    # the substructure at (3, 101) pins the variable the next tier fixes
    var = hs.basic_perm.order[5]
    assert constant_bit(hs.vsub[(2, 0b101)], var) == 1
    # a hypothetical edge whose new-variable value contradicts the pin:
    # the concretization empties, so no projections run
    assert shift(hs, (2, 0b101, 0b010)).is_empty


def constant_bit(s: Cts, var: int) -> int:
    from ctsat.unify import constant_of
    v = constant_of(s, var)
    assert v is not None
    return v


def random_unified_pair(rng: random.Random, n: int):
    while True:
        orders = []
        for _ in range(2):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            orders.append(order)
        structures = []
        for order in orders:
            masks = [0] * (n - 2)
            for j in range(n - 2):
                for c in range(8):
                    if rng.random() < 0.75:
                        masks[j] |= 1 << c
            structures.append(Cts(Perm(order), masks).clear())
        if any(s.is_empty for s in structures):
            continue
        result = unify(structures)
        if not result.empty:
            return result.structures


def test_shift_matches_naive_reimplementation():
    rng = random.Random(4242)
    checked = 0
    for _ in range(30):
        s1, s2 = random_unified_pair(rng, 8)
        result = effective_procedure(s1, s2)
        if result.empty:
            continue
        hs = result.hs
        assert result.bg == hs.skeleton  # mirrored pruning
        for edge in list(hs.skeleton.edges()):
            assert shift(hs, edge) == naive_shift(hs, edge)
            checked += 1
    assert checked > 50


def test_project_matches_naive_reimplementation():
    rng = random.Random(777)
    checked = 0
    for _ in range(20):
        s1, s2 = random_unified_pair(rng, 8)
        result = effective_procedure(s1, s2)
        if result.empty:
            continue
        hs = result.hs
        for r in range(min(3, hs.skeleton.tier_count)):
            target = hs.vsub[sorted(hs.vsub)[rng.randrange(len(hs.vsub))]]
            assert project_tier(hs, r, target) == naive_project(hs, r, target)
            checked += 1
    assert checked > 10


# -- the effective procedure -----------------------------------------------------

def test_effective_procedure_reproduces_reference_hyperstructure(unified_pair):
    result = effective_procedure(*unified_pair)
    assert not result.empty
    hs = result.hs
    # skeleton preserved (nothing pruned in this run) and mirrored in BG
    assert [len(t) for t in hs.skeleton.tiers] == [2, 2, 2, 3, 2, 2]
    assert hs.skeleton.edge_count() == 14
    assert result.bg == hs.skeleton
    assert len(hs.vsub) == 13
    for key, rows in tabledata.HYPER_VERTEX_SUBS.items():
        expected = cts_from_rows(tabledata.PERM2, rows)
        assert hs.vsub[key].equivalent(expected) == 1, key


def test_effective_procedure_early_termination(unified_pair):
    s1 = unified_pair[0]
    # second structure contradicting every tier-1 label: a == 1 constant
    # while both tier-1 vertices need... vertex labels fix a in {0,1}; use
    # a structure whose b constant conflicts with both labels (b=0 there)
    p2 = unified_pair[1].perm
    forced = unified_pair[1].concretize(2, 1)
    if forced.is_empty:
        forced = Cts.from_assignment((1, 1, 0, 0, 1, 1, 0, 0), p2)
    result = effective_procedure(s1, forced)
    assert result.empty
    assert result.empty_tier == 1


def test_effective_procedure_same_set_reencoded():
    rng = random.Random(31)
    hits = 0
    for _ in range(30):
        n = rng.randint(5, 8)
        order1 = list(range(1, n + 1))
        order2 = list(range(1, n + 1))
        rng.shuffle(order2)
        p1, p2 = Perm(order1), Perm(order2)
        masks = [0] * (n - 2)
        for j in range(n - 2):
            for c in range(8):
                if rng.random() < 0.7:
                    masks[j] |= 1 << c
        s1 = Cts(p1, masks).clear()
        if s1.is_empty:
            continue
        encoded = s1.enumerate_assignments()
        elementary = [Cts.from_assignment(b, p2) for b in sorted(encoded)]
        s2 = elementary[0]
        for e in elementary[1:]:
            s2 = s2.union(e)
        unified = unify([s1, s2])
        if unified.empty:
            continue
        result = effective_procedure(*unified.structures)
        assert not result.empty
        got = extract_jss(result.hs, *unified.structures, limit=5000)
        assert set(got.assignments) == joint_sat_set(list(unified.structures))
        hits += 1
    assert hits > 5


def test_effective_procedure_rejects_empty_inputs(perm5):
    with pytest.raises(ValueError):
        effective_procedure(Cts.empty(perm5), Cts.complete(perm5))


# -- invariants ------------------------------------------------------------------

def test_same_tier_substructures_pairwise_disjoint():
    rng = random.Random(909)
    for _ in range(25):
        s1, s2 = random_unified_pair(rng, 8)
        result = effective_procedure(s1, s2)
        if result.empty:
            continue
        hs = result.hs
        for j, codes in enumerate(hs.skeleton.tiers):
            codes = sorted(codes)
            for i, a in enumerate(codes):
                for b in codes[i + 1:]:
                    assert hs.vsub[(j, a)].intersect(hs.vsub[(j, b)]).is_empty


def test_tier_disjoint_check_rejects_overlapping_substructures(perm5):
    zeros = Cts.from_assignment((0, 0, 0, 0, 0), perm5)
    ones = Cts.from_assignment((1, 1, 1, 1, 1), perm5)
    check_tier_disjoint({(0, 0b000): zeros, (0, 0b111): ones},
                        [{0b000, 0b111}], 0)
    with pytest.raises(InvariantViolation,
                       match="tier 1 substructures 000 and 111 overlap") as info:
        check_tier_disjoint({(0, 0b000): zeros, (0, 0b111): zeros},
                            [{0b000, 0b111}], 0)
    assert info.value.diagnostics == {
        "tier": 1, "substructures": {"000": zeros.render(),
                                     "111": zeros.render()}}


def test_tier_disjoint_check_survives_optimize():
    script = (
        "from ctsat.cts import Cts, Perm\n"
        "from ctsat.hyper import InvariantViolation, check_tier_disjoint\n"
        "assert False, 'asserts are stripped under -O'\n"
        "s = Cts.complete(Perm.identity(4))\n"
        "try:\n"
        "    check_tier_disjoint({(0, 1): s, (0, 2): s}, [{1, 2}], 0)\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctsat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "tier 1 substructures 001 and 010 overlap"


def test_substructures_intersect_every_earlier_tier():
    rng = random.Random(911)
    for _ in range(15):
        s1, s2 = random_unified_pair(rng, 8)
        result = effective_procedure(s1, s2)
        if result.empty:
            continue
        hs = result.hs
        for (j, c), sub in hs.vsub.items():
            for r in range(j):
                assert not project_tier(hs, r, sub).is_empty, (j, c, r)


def test_pair_procedure_decides_joint_satisfiability(tmp_path):
    rng = random.Random(1234)
    violations = []
    runs = 0
    for _ in range(120):
        n = rng.randint(5, 9)
        s1, s2 = random_unified_pair(rng, n)
        runs += 1
        joint = joint_sat_set([s1, s2])
        result = effective_procedure(s1, s2)
        if result.empty == bool(joint):
            violations.append({"n": n, "joint": len(joint),
                               "ep_empty": result.empty})
        if not result.empty:
            # extraction soundness stays a hard assertion
            got = extract_jss(result.hs, s1, s2, limit=len(joint) + 5)
            assert set(got.assignments) <= joint
            assert got.assignments, "non-empty HS must yield a route"
    # equivalence violations are archived findings, never fatal
    if violations:
        (tmp_path / "equivalence_findings.txt").write_text(repr(violations))
        print("equivalence check: %d violations archived at %s"
              % (len(violations), tmp_path))
    assert runs == 120


# -- route extraction -------------------------------------------------------------

def test_extract_jss_reference_five_sets(unified_pair):
    result = effective_procedure(*unified_pair)
    got = extract_jss(result.hs, *unified_pair, limit=10)
    order = tabledata.PERM2
    as_p2 = sorted("".join(str(b[v - 1]) for v in order)
                   for b in got.assignments)
    assert as_p2 == tabledata.JOINT_SETS_P2
    # the first witness comes out without any search
    assert got.dead_ends_before_first == 0


def test_extract_jss_limit_respected(unified_pair):
    result = effective_procedure(*unified_pair)
    got = extract_jss(result.hs, *unified_pair, limit=2)
    assert len(got.assignments) == 2


def test_extract_jss_elementary_pair():
    p1 = Perm.identity(6)
    p2 = Perm((6, 5, 4, 3, 2, 1))
    bits = (1, 0, 1, 1, 0, 0)
    s1 = Cts.from_assignment(bits, p1)
    s2 = Cts.from_assignment(bits, p2)
    result = effective_procedure(s1, s2)
    got = extract_jss(result.hs, s1, s2, limit=3)
    assert got.assignments == [bits]


def test_extract_jss_sound_and_complete_enough():
    rng = random.Random(2718)
    for _ in range(40):
        s1, s2 = random_unified_pair(rng, rng.randint(5, 10))
        result = effective_procedure(s1, s2)
        joint = joint_sat_set([s1, s2])
        if result.empty:
            continue
        got = extract_jss(result.hs, s1, s2, limit=3)
        assert set(got.assignments) <= joint
        for bits in got.assignments:
            assert s1.contains_assignment(bits) and s2.contains_assignment(bits)
