from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import ctsat
from ctsat.cts import Cts, Perm
from ctsat.formula import TabularFormula
from ctsat.hyper import InvariantViolation, basic_graph, check_tier_disjoint
from ctsat.sep import (HsSystem, SepStats, concordant_shift,
                       extract_jss_system, systemic_effective_procedure)
from ctsat.unify import unify

import tabledata
from conftest import cts_from_rows
from naive import cts_to_sets, joint_sat_set, naive_project, naive_shift


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
#
# The pair procedure is the systemic procedure with one member. Its runs
# use a formula without clauses, so nothing filters the joint set, and
# no early exit, so every tier gets formed.

def pair_sep(s1: Cts, s2: Cts):
    return systemic_effective_procedure(s1, [s2], TabularFormula(s1.n, ()),
                                        early_check=False)


def extract(system: HsSystem, basic: Cts, limit: int):
    got = extract_jss_system(system, basic, TabularFormula(basic.n, ()),
                             limit=limit)
    # the clause-less formula rejects nothing, so a rejected route spelled
    # an assignment outside the basic structure or the second structure
    assert got.rejected == []
    return got


def build_pair_system(unified_pair) -> HsSystem:
    result = pair_sep(*unified_pair)
    assert result.outcome == "complete"
    return result.system


def test_project_disjoint_target_is_empty(unified_pair):
    system = build_pair_system(unified_pair)
    target = Cts.from_assignment((1, 1, 1, 0, 0, 0, 1, 0), unified_pair[1].perm)
    assert not any(naive_project(system, 0, cts_to_sets(target)))


def test_project_contained_target_survives(unified_pair):
    system = build_pair_system(unified_pair)
    target = cts_to_sets(system.members[0].vsub[(0, 0b001)])
    got = naive_project(system, 0, target)
    for t_got, t_target in zip(got, target):
        assert t_target <= t_got


def test_shift_first_tier_is_bare_concretization(unified_pair):
    system = build_pair_system(unified_pair)
    edge = (0, 0b001, 0b010)
    new_var = system.basic_perm.order[3]
    expected = system.members[0].vsub[(0, 0b001)].concretize(new_var, 0)
    assert system.members[0].esub[edge] == expected
    assert concordant_shift(system, edge, SepStats()) == [expected]


def test_shift_empty_concretization_short_circuits(unified_pair):
    system = build_pair_system(unified_pair)
    # the substructure at (3, 101) pins the variable the next tier fixes
    var = system.basic_perm.order[5]
    assert constant_bit(system.members[0].vsub[(2, 0b101)], var) == 1
    # a hypothetical edge whose new-variable value contradicts the pin:
    # the concretization empties, so no projections run
    assert concordant_shift(system, (2, 0b101, 0b010), SepStats()) is None


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
        result = pair_sep(s1, s2)
        if result.outcome == "empty":
            continue
        system = result.system
        member = system.members[0]
        # stored substructures sit exactly on the pruned skeleton
        assert set(member.vsub) == set(system.skeleton.vertices())
        assert set(member.esub) == set(system.skeleton.edges())
        for edge in list(system.skeleton.edges()):
            got = concordant_shift(system, edge, SepStats())
            assert got is not None
            assert cts_to_sets(got[0]) == naive_shift(system, edge)
            checked += 1
    assert checked > 50


# -- the effective procedure -----------------------------------------------------

def test_effective_procedure_reproduces_reference_hyperstructure(unified_pair):
    result = pair_sep(*unified_pair)
    assert result.outcome == "complete"
    system = result.system
    # nothing pruned in this run: the skeleton is the whole basic graph
    assert [len(t) for t in system.skeleton.tiers] == [2, 2, 2, 3, 2, 2]
    assert system.skeleton.edge_count() == 14
    assert system.skeleton == basic_graph(unified_pair[0])
    vsub = system.members[0].vsub
    assert len(vsub) == 13
    for key, rows in tabledata.HYPER_VERTEX_SUBS.items():
        expected = cts_from_rows(tabledata.PERM2, rows)
        assert vsub[key].equivalent(expected) == 1, key


def test_effective_procedure_early_termination(unified_pair):
    s1 = unified_pair[0]
    # second structure contradicting every tier-1 label: a == 1 constant
    # while both tier-1 vertices need... vertex labels fix a in {0,1}; use
    # a structure whose b constant conflicts with both labels (b=0 there)
    p2 = unified_pair[1].perm
    forced = unified_pair[1].concretize(2, 1)
    if forced.is_empty:
        forced = Cts.from_assignment((1, 1, 0, 0, 1, 1, 0, 0), p2)
    result = pair_sep(s1, forced)
    assert result.outcome == "empty"
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
        result = pair_sep(*unified.structures)
        assert result.outcome == "complete"
        got = extract(result.system, unified.structures[0], limit=5000)
        assert set(got.assignments) == joint_sat_set(list(unified.structures))
        hits += 1
    assert hits > 5


def test_effective_procedure_rejects_empty_inputs(perm5):
    with pytest.raises(ValueError):
        pair_sep(Cts.empty(perm5), Cts.complete(perm5))


# -- invariants ------------------------------------------------------------------

def test_same_tier_substructures_pairwise_disjoint():
    rng = random.Random(909)
    for _ in range(25):
        s1, s2 = random_unified_pair(rng, 8)
        result = pair_sep(s1, s2)
        if result.outcome == "empty":
            continue
        vsub = result.system.members[0].vsub
        for j, codes in enumerate(result.system.skeleton.tiers):
            codes = sorted(codes)
            for i, a in enumerate(codes):
                for b in codes[i + 1:]:
                    assert vsub[(j, a)].intersect(vsub[(j, b)]).is_empty


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
        result = pair_sep(s1, s2)
        if result.outcome == "empty":
            continue
        system = result.system
        for (j, c), sub in system.members[0].vsub.items():
            for r in range(j):
                assert any(naive_project(system, r, cts_to_sets(sub))), \
                    (j, c, r)


def test_pair_procedure_decides_joint_satisfiability(tmp_path):
    rng = random.Random(1234)
    violations = []
    runs = 0
    for _ in range(120):
        n = rng.randint(5, 9)
        s1, s2 = random_unified_pair(rng, n)
        runs += 1
        joint = joint_sat_set([s1, s2])
        result = pair_sep(s1, s2)
        empty = result.outcome == "empty"
        if empty == bool(joint):
            violations.append({"n": n, "joint": len(joint),
                               "procedure_empty": empty})
        if not empty:
            # extraction soundness stays a hard assertion
            got = extract(result.system, s1, limit=len(joint) + 5)
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
    system = build_pair_system(unified_pair)
    got = extract(system, unified_pair[0], limit=10)
    order = tabledata.PERM2
    as_p2 = sorted("".join(str(b[v - 1]) for v in order)
                   for b in got.assignments)
    assert as_p2 == tabledata.JOINT_SETS_P2
    # the first witness comes out without any search
    first = extract(system, unified_pair[0], limit=1)
    assert first.assignments == got.assignments[:1]
    assert first.backtracks == 0


def test_extract_jss_limit_respected(unified_pair):
    got = extract(build_pair_system(unified_pair), unified_pair[0], limit=2)
    assert len(got.assignments) == 2


def test_extract_jss_elementary_pair():
    p1 = Perm.identity(6)
    p2 = Perm((6, 5, 4, 3, 2, 1))
    bits = (1, 0, 1, 1, 0, 0)
    s1 = Cts.from_assignment(bits, p1)
    s2 = Cts.from_assignment(bits, p2)
    result = pair_sep(s1, s2)
    got = extract(result.system, s1, limit=3)
    assert got.assignments == [bits]


def test_extract_jss_sound_and_complete_enough():
    rng = random.Random(2718)
    for _ in range(40):
        s1, s2 = random_unified_pair(rng, rng.randint(5, 10))
        result = pair_sep(s1, s2)
        joint = joint_sat_set([s1, s2])
        if result.outcome == "empty":
            continue
        got = extract(result.system, s1, limit=3)
        assert set(got.assignments) <= joint
        for bits in got.assignments:
            assert s1.contains_assignment(bits) and s2.contains_assignment(bits)
