from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ctsat
from ctsat.cts import Cts, Perm, clear_packed, stack, unstack
from ctsat.formula import TabularFormula
from ctsat.hyper import (InvariantViolation, TierGraph, basic_graph,
                         check_tier_codes)
from ctsat.sep import (HsSystem, concordant_shift, extract_jss_system,
                       systemic_effective_procedure)
from ctsat.unify import unify_context

import tabledata
from conftest import cts_from_rows, unsatisfiable_formula
from naive import (adjoins, constant_of, cts_to_sets, joint_sat_set,
                   naive_project, naive_prune, naive_shift, unify_cts)


# -- basic graph ---------------------------------------------------------------

def test_basic_graph_matches_reference_figure(unified_pair):
    g = basic_graph(unified_pair[0])
    assert [m.bit_count() for m in g.tiers] == [2, 2, 2, 3, 2, 2]
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
    assert [m.bit_count() for m in g.tiers] == [1, 1, 1]
    assert g.edge_count() == 2


def test_basic_graph_complete_structure(perm5):
    g = basic_graph(Cts.complete(perm5))
    assert [m.bit_count() for m in g.tiers] == [8, 8, 8]
    # each line has exactly two successors
    assert g.edge_count() == 32
    for c in range(8):
        assert len(g.down((0, c))) == 2


def test_basic_graph_edge_examples(perm5):
    g = basic_graph(Cts.complete(perm5))
    assert g.has_edge((0, 0b011, 0b110))
    assert g.has_edge((0, 0b000, 0b000))
    assert not g.has_edge((0, 0b011, 0b000))


def test_basic_graph_edges_are_two_bit_overlap(perm5):
    # lines of adjacent tiers adjoin iff the low two bits of the first
    # equal the high two bits of the second
    g = basic_graph(Cts.complete(perm5))
    for j in range(2):
        for t in range(8):
            for u in range(8):
                assert g.has_edge((j, t, u)) == (t & 3 == u >> 1)
                assert (u in g.down((j, t))) == (t & 3 == u >> 1)
                assert (t in g.up((j + 1, u))) == (t & 3 == u >> 1)


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
    assert g.codes(0) == (0, 4)
    assert g.codes(2) == (0, 1)
    assert removed == 6 + 6
    assert set(g.edges()) == {(0, 0, 0), (0, 4, 0), (1, 0, 0), (1, 0, 1)}


def test_graph_prune_matches_naive_cascade():
    # random vertex masks with random vertex and edge removals; the
    # reference builds its edges from the code strings, not from the
    # package's tables
    rng = random.Random(5150)
    outcomes = {"kept": 0, "empty on entry": 0, "emptied": 0}
    for _ in range(400):
        count = rng.randint(1, 7)
        masks = [rng.getrandbits(8) if rng.random() < 0.97 else 0
                 for _ in range(count)]
        tiers = [{c for c in range(8) if m >> c & 1} for m in masks]
        edges = {(j, a, b) for j in range(count - 1)
                 for a in tiers[j] for b in tiers[j + 1]
                 if adjoins(format(a, "03b"), format(b, "03b"))}
        g = TierGraph(masks)
        assert set(g.edges()) == edges
        vertices = sorted(g.vertices())
        for j, c in rng.sample(vertices, min(len(vertices), rng.randint(0, 4))):
            g.remove_vertex((j, c))
            tiers[j].discard(c)
            edges = {e for e in edges if (e[0], e[1]) != (j, c)
                     and (e[0] + 1, e[2]) != (j, c)}
        for e in rng.sample(sorted(edges), min(len(edges), rng.randint(0, 12))):
            g.remove_edge(e)
            edges.discard(e)
        assert set(g.edges()) == edges
        removed, empty = g.prune()
        expected = naive_prune(tiers, edges)
        assert (removed, empty) == expected[:2]
        assert list(g.vertices()) == sorted((j, c) for j, t in enumerate(expected[2])
                                            for c in t)
        assert set(g.edges()) == expected[3]
        assert g.edge_count() == len(expected[3])
        if empty is None:
            outcomes["kept"] += 1
        elif not all(tiers):
            outcomes["empty on entry"] += 1
        else:
            outcomes["emptied"] += 1
    assert min(outcomes.values()) >= 10, outcomes


# -- projection and shift --------------------------------------------------------
#
# The pair procedure is the systemic procedure with one member. Its runs
# get a formula that no assignment satisfies, so no early exit stops
# them and every tier gets formed; extraction gets a formula without
# clauses, so nothing filters the joint set.

def pair_sep(s1: Cts, s2: Cts):
    return systemic_effective_procedure(s1, [s2], unsatisfiable_formula(s1.n))


def extract(system: HsSystem, limit: int):
    got = extract_jss_system(system, TabularFormula(system.basic.n, ()),
                             limit=limit)
    # extraction leaves containment untested, as the SEP guarantees it
    for bits in got.assignments:
        assert system.basic.contains_assignment(bits)
        assert all(s.contains_assignment(bits) for s in system.structures)
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
    target = cts_to_sets(unstack(system.vsub[(0, 0b001)],
                                 system.structures)[0])
    got = naive_project(system, 0, target)
    for t_got, t_target in zip(got, target):
        assert t_target <= t_got


def test_shift_first_tier_is_bare_concretization(unified_pair):
    system = build_pair_system(unified_pair)
    edge = (0, 0b001, 0b010)
    new_var = system.basic.perm.order[3]
    tail, = unstack(system.vsub[(0, 0b001)], system.structures)
    expected = tail.concretize(new_var, 0)
    assert unstack(system.esub[edge], system.structures) == (expected,)
    got = concordant_shift(system, edge)
    assert unstack(got, system.structures) == (expected,)


def test_shift_empty_concretization_short_circuits(unified_pair):
    system = build_pair_system(unified_pair)
    # the substructure at (3, 101) pins the variable the next tier fixes
    var = system.basic.perm.order[5]
    sub, = unstack(system.vsub[(2, 0b101)], system.structures)
    assert constant_bit(sub, var) == 1
    # a hypothetical edge whose new-variable value contradicts the pin:
    # the concretization empties, so no projections run
    assert concordant_shift(system, (2, 0b101, 0b010)) is None


def constant_bit(s: Cts, var: int) -> int:
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
        result = unify_cts(structures)
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
        # stored substructures sit exactly on the pruned skeleton
        assert set(system.vsub) == set(system.skeleton.vertices())
        assert set(system.esub) == set(system.skeleton.edges())
        for edge in list(system.skeleton.edges()):
            got = concordant_shift(system, edge)
            assert got is not None
            sub, = unstack(got, system.structures)
            assert cts_to_sets(sub) == naive_shift(system, edge)
            checked += 1
    assert checked > 50


# -- the effective procedure -----------------------------------------------------

def test_effective_procedure_reproduces_reference_hyperstructure(unified_pair):
    result = pair_sep(*unified_pair)
    assert result.outcome == "complete"
    system = result.system
    # nothing pruned in this run: the skeleton is the whole basic graph
    assert [m.bit_count() for m in system.skeleton.tiers] == [2, 2, 2, 3, 2, 2]
    assert system.skeleton.edge_count() == 14
    assert system.skeleton == basic_graph(unified_pair[0])
    vsub = system.vsub
    assert len(vsub) == 13
    for key, rows in tabledata.HYPER_VERTEX_SUBS.items():
        expected = cts_from_rows(tabledata.PERM2, rows)
        sub, = unstack(vsub[key], system.structures)
        assert sub.equivalent(expected) == 1, key


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
        unified = unify_cts([s1, s2])
        if unified.empty:
            continue
        result = pair_sep(*unified.structures)
        assert result.outcome == "complete"
        got = extract(result.system, limit=5000)
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
        system = result.system
        skeleton = system.skeleton
        for j in range(skeleton.tier_count):
            codes = skeleton.codes(j)
            subs = {c: unstack(system.vsub[(j, c)], system.structures)[0]
                    for c in codes}
            for i, a in enumerate(codes):
                for b in codes[i + 1:]:
                    assert subs[a].intersect(subs[b]).is_empty


def fixed_on(perm: Perm, pairs) -> Cts:
    """The complete structure over perm with the variables of `pairs`
    fixed to their values."""
    return Cts.complete(perm).concretize_many(pairs)


def test_tier_codes_check_rejects_a_tuple_off_its_code(perm5):
    # the basic is over perm5, so tier j's window is variables j+1..j+3;
    # the members lie over perm5 and another permutation, and a lane
    # that fixes the window's variables may leave the others free
    other = Perm((5, 3, 1, 4, 2))
    ctx = unify_context((perm5, other))

    def vertex(*pairs_by_member):
        return stack(tuple(fixed_on(p, pairs) for p, pairs in
                           zip((perm5, other), pairs_by_member)))

    good = [(1, 0), (2, 1), (3, 1)]
    vsub = {(0, 0b000): vertex([(1, 0), (2, 0), (3, 0)],
                               [(1, 0), (2, 0), (3, 0), (4, 1)]),
            (0, 0b011): vertex(good, good),
            (1, 0b110): vertex([(2, 1), (3, 1), (4, 0)],
                               [(2, 1), (3, 1), (4, 0)])}
    check_tier_codes(vsub, (0b000, 0b011), 0, perm5, ctx)
    check_tier_codes(vsub, (0b110,), 1, perm5, ctx)
    for bad, member in (
            # member 1 leaves variable 2 free
            (vertex(good, [(1, 0), (3, 1)]), 1),
            # member 0 holds variable 3 at the other value
            (vertex([(1, 0), (2, 1), (3, 0)], good), 0),
            # member 1 is empty
            (stack((fixed_on(perm5, good), Cts.empty(other))), 1)):
        vsub[(0, 0b011)] = bad
        with pytest.raises(InvariantViolation,
                           match="tier 1 vertex 011: member %d does not "
                                 "hold the code's values" % member) as info:
            check_tier_codes(vsub, (0b000, 0b011), 0, perm5, ctx)
        assert info.value.diagnostics == {"tier": 1, "code": "011",
                                          "member": member}
    # at tier 1 the window is variables 2, 3 and 4
    vsub[(1, 0b110)] = vertex([(2, 1), (3, 1), (4, 0)],
                              [(2, 1), (3, 1), (4, 1)])
    with pytest.raises(InvariantViolation, match="tier 2 vertex 110: "
                                                 "member 1"):
        check_tier_codes(vsub, (0b110,), 1, perm5, ctx)


def dropped_lines(rng, s: Cts) -> Cts:
    """s with about a fifth of its lines dropped and cleared, or s
    itself when that empties it."""
    sub = Cts(s.perm, [m & sum(1 << c for c in range(8) if rng.random() < 0.8)
                       for m in s.tiers]).clear()
    return s if sub.is_empty else sub


def test_tier_codes_check_implies_same_tier_disjointness():
    # the vertex tuples of a random tier, each lane over its own
    # permutation: random cleared lines fixed on the code's window
    # values, a few lanes leaving one window variable free; the code
    # check passes exactly when every lane holds its code's values, and
    # then every two tuples of the tier have an AND that clears to
    # nothing in every lane (the paper's same-tier disjointness)
    rng = random.Random(913)
    passed = rejected = 0
    for _ in range(400):
        n = rng.randint(5, 10)
        perm = Perm(rng.sample(range(1, n + 1), n))
        perms = tuple(Perm(rng.sample(range(1, n + 1), n))
                      for _ in range(rng.randint(1, 3)))
        ctx = unify_context(perms)
        j = rng.randrange(n - 2)
        codes = tuple(sorted(rng.sample(range(8), rng.randint(2, 8))))
        vsub, holds = {}, True
        for c in codes:
            values = perm.window_values(j, c)
            lanes = []
            for p in perms:
                pairs = rng.sample(values, 2) if rng.random() < 0.05 else values
                lane = dropped_lines(rng, fixed_on(p, pairs))
                holds &= all(constant_of(lane, v) == b for v, b in values)
                lanes.append(lane)
            vsub[(j, c)] = stack(lanes)
        try:
            check_tier_codes(vsub, codes, j, perm, ctx)
        except InvariantViolation:
            assert not holds
            rejected += 1
            continue
        assert holds
        passed += 1
        stacked = [vsub[(j, c)] for c in codes]
        for i, x in enumerate(stacked):
            for y in stacked[i + 1:]:
                assert clear_packed(x & y, ctx.layout) == 0
    assert passed > 150 and rejected > 50


def test_tier_codes_check_survives_optimize():
    # also unify's refinement check
    script = (
        "from ctsat.cts import Cts, Perm\n"
        "from ctsat.hyper import InvariantViolation, check_tier_codes\n"
        "from ctsat.unify import unify, unify_context\n"
        "assert False, 'asserts are stripped under -O'\n"
        "s = Cts.complete(Perm.identity(4))\n"
        "try:\n"
        "    check_tier_codes({(0, 5): s.packed}, (5,), 0, s.perm,"
        " unify_context((s.perm,)))\n"
        "except InvariantViolation as exc:\n"
        "    print(exc, exc.diagnostics)\n"
        "try:\n"
        "    unify(s.packed, unify_context((s.perm,)), since=s.packed ^ 1)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctsat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "tier 1 vertex 101: member 0 does not hold the code's values "
        "{'tier': 1, 'code': '101', 'member': 0}",
        "x does not refine since"]


def package_nodes():
    """(file name, node) for every AST node of the package's modules."""
    package = Path(ctsat.__file__).parent
    paths = sorted(package.glob("*.py"))
    assert len(paths) > 10
    return [(path.name, node) for path in paths
            for node in ast.walk(ast.parse(path.read_text()))]


def test_package_has_no_assert_statement():
    # `python -O` strips asserts, so an invariant the package checks
    # with one would stop running there; invariants raise instead
    found = [(name, node.lineno) for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_names_it_uses():
    # a name that a module imports and never reads is a leftover of a
    # deleted caller; only the package's public names (ctsat.__all__)
    # are imported to be re-exported
    imported, used = set(), set()
    for name, node in package_nodes():
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported.update((name, alias.asname or alias.name.split(".")[0])
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add((name, node.id))
    found = sorted((name, bound) for name, bound in imported - used
                   if bound not in ctsat.__all__)
    assert found == []


def test_package_reads_every_dataclass_field():
    # a field that no module of the package reads is an artifact that
    # nothing needs; SepStats is exempt, as classify writes it whole
    # into a verdict's detail with dataclasses.asdict
    exempt = {"SepStats"}
    fields, read = [], set()
    for name, node in package_nodes():
        if isinstance(node, ast.ClassDef) and node.name not in exempt and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields.extend((name, node.name, item.target.id)
                          for item in node.body
                          if isinstance(item, ast.AnnAssign))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
    assert len(fields) > 30
    assert [f for f in fields if f[2] not in read] == []


def test_package_has_no_recursive_function():
    # recursion depth that grows with the input ends in RecursionError
    # near the interpreter's limit, so the package walks with explicit
    # stacks: no function calls itself by name, directly or as a method
    # of self (a call through super() is another function)
    found = [(name, fn.name, call.lineno)
             for name, fn in package_nodes()
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for call in ast.walk(fn) if isinstance(call, ast.Call)
             if (isinstance(call.func, ast.Name) and call.func.id == fn.name)
             or (isinstance(call.func, ast.Attribute)
                 and call.func.attr == fn.name
                 and isinstance(call.func.value, ast.Name)
                 and call.func.value.id in ("self", "cls"))]
    assert found == []


def test_sources_parse_with_the_python_3_10_grammar():
    # pyproject.toml declares requires-python >= 3.10, so no module of
    # the package, the tests or the benchmark harness may use later
    # syntax, such as except*
    root = Path(ctsat.__file__).parents[2]
    paths = [path for part in ("src/ctsat", "tests", "perfbench")
             for path in sorted((root / part).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_substructures_intersect_every_earlier_tier():
    rng = random.Random(911)
    for _ in range(15):
        s1, s2 = random_unified_pair(rng, 8)
        result = pair_sep(s1, s2)
        if result.outcome == "empty":
            continue
        system = result.system
        for (j, c), x in system.vsub.items():
            sub, = unstack(x, system.structures)
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
            got = extract(result.system, limit=len(joint) + 5)
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
    got = extract(system, limit=10)
    order = tabledata.PERM2
    as_p2 = sorted("".join(str(b[v - 1]) for v in order)
                   for b in got.assignments)
    assert as_p2 == tabledata.JOINT_SETS_P2
    # the first witness comes out without any search
    first = extract(system, limit=1)
    assert first.assignments == got.assignments[:1]
    assert first.backtracks == 0


def test_extract_jss_limit_respected(unified_pair):
    got = extract(build_pair_system(unified_pair), limit=2)
    assert len(got.assignments) == 2


def test_extract_jss_elementary_pair():
    p1 = Perm.identity(6)
    p2 = Perm((6, 5, 4, 3, 2, 1))
    bits = (1, 0, 1, 1, 0, 0)
    s1 = Cts.from_assignment(bits, p1)
    s2 = Cts.from_assignment(bits, p2)
    result = pair_sep(s1, s2)
    got = extract(result.system, limit=3)
    assert got.assignments == [bits]


def test_extract_jss_sound_and_complete_enough():
    rng = random.Random(2718)
    for _ in range(40):
        s1, s2 = random_unified_pair(rng, rng.randint(5, 10))
        result = pair_sep(s1, s2)
        joint = joint_sat_set([s1, s2])
        if result.outcome == "empty":
            continue
        got = extract(result.system, limit=3)
        assert set(got.assignments) <= joint
        for bits in got.assignments:
            assert s1.contains_assignment(bits) and s2.contains_assignment(bits)
