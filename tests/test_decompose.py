from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ctsat.cts import Perm
from ctsat.decompose import (Ctf, _chains, ctf_to_cts, decompose,
                             decompose_with_plan, group_terms)
from ctsat.difftest import DifftestParams, instance_params
from ctsat.formula import Clause, GenParams, TabularFormula, generate

import tabledata
from conftest import scrambled
from naive import naive_chains, naive_decompose, sat_set


def ideal5_ctf() -> Ctf:
    perm = Perm.identity(5)
    rows = [(0, "000"), (0, "001"), (0, "101"), (0, "111"),
            (1, "000"), (1, "100"), (1, "101"), (1, "111"),
            (2, "010"), (2, "100"), (2, "111")]
    masks = [0, 0, 0]
    for j, bits in rows:
        masks[j] |= 1 << int(bits, 2)
    return Ctf(perm, tuple(masks))


def ideal5_formula() -> TabularFormula:
    return TabularFormula(5, tuple(ideal5_ctf().to_clauses()))


# -- grouping -----------------------------------------------------------------

def test_group_terms_worked8(worked8):
    # a group is the mask of its clauses' codes, one bit per clause
    groups = group_terms(worked8)
    assert groups[(1, 2, 3)].bit_count() == 5
    assert groups[(1, 2, 5)].bit_count() == 1
    assert len(groups) == 15
    assert sum(g.bit_count() for g in groups.values()) == worked8.m


def test_group_terms_single_triple():
    f = TabularFormula(5, tuple(
        Clause(((1, m & 1), (3, (m >> 1) & 1), (4, (m >> 2) & 1)))
        for m in range(6)))
    assert len(group_terms(f)) == 1


def test_group_terms_all_distinct():
    f = TabularFormula(9, (Clause(((1, 0), (2, 0), (3, 0))),
                           Clause(((4, 0), (5, 0), (6, 0))),
                           Clause(((7, 0), (8, 0), (9, 0)))))
    assert len(group_terms(f)) == 3


# -- decomposition ------------------------------------------------------------

def clause_multiset(ctfs):
    out = []
    for ctf in ctfs:
        out.extend(ctf.to_clauses())
    return sorted(out)


def test_decompose_partitions_clauses(worked8):
    ctfs, report = decompose(worked8)
    assert clause_multiset(ctfs) == sorted(set(worked8.clauses))
    assert math.ceil(report.w / (worked8.n - 2)) <= report.k <= worked8.m
    assert report.w == 15


def test_decompose_conjunction_equivalence(worked8):
    ctfs, _ = decompose(worked8)
    for bits in worked8.assignments():
        expected = worked8.evaluate(bits)
        assert all(c.evaluate(bits) == 1 for c in ctfs) == bool(expected)


def test_decompose_ideal_formula_single_ctf():
    f = ideal5_formula()
    ctfs, report = decompose(f)
    assert report.k == 1
    assert ctfs[0].perm == Perm.identity(5)
    assert ctfs[0].tiers == ideal5_ctf().tiers


def test_decompose_upper_and_lower_extremes():
    # triples pairwise sharing x1 neither chain nor pack: k == w == m
    f = TabularFormula(7, (Clause(((1, 0), (2, 0), (3, 0))),
                           Clause(((1, 0), (4, 0), (5, 0))),
                           Clause(((1, 0), (6, 0), (7, 0)))))
    ctfs, report = decompose(f)
    assert report.k == report.w == f.m == 3
    assert clause_multiset(ctfs) == sorted(f.clauses)
    # three disjoint triples form three chains that share no variable
    # and pack into one permutation
    f = TabularFormula(9, (Clause(((1, 0), (2, 0), (3, 0))),
                           Clause(((4, 0), (5, 0), (6, 0))),
                           Clause(((7, 0), (8, 0), (9, 0)))))
    ctfs, report = decompose(f)
    assert report.k == 1 == math.ceil(report.w / (f.n - 2))
    assert clause_multiset(ctfs) == sorted(f.clauses)


def test_decompose_assemble_chains_overlapping_groups():
    # triples {1,2,3}, {2,3,4}, {3,4,5} chain into one permutation
    f = TabularFormula(5, (Clause(((1, 0), (2, 0), (3, 0))),
                           Clause(((2, 1), (3, 0), (4, 1))),
                           Clause(((3, 0), (4, 0), (5, 0)))))
    ctfs, report = decompose(f)
    assert report.k == 1 < report.w == 3


def test_decompose_packs_disjoint_chains_into_one_ctf():
    # chains [1 2 3 4], [5 6 7] and [8 9 10] fill n=12 up to 10 variables
    f = TabularFormula(12, (Clause(((1, 0), (2, 1), (3, 0))),
                            Clause(((2, 0), (3, 0), (4, 1))),
                            Clause(((5, 1), (6, 1), (7, 0))),
                            Clause(((8, 0), (9, 0), (10, 0))),
                            Clause(((8, 1), (9, 0), (10, 1)))))
    ctfs, report = decompose(f)
    assert report.k == 1 and report.w == 4
    assert ctfs[0].perm == Perm.identity(12)
    # the tiers straddling two chains stay empty
    assert [j for j, mask in enumerate(ctfs[0].tiers) if mask] == [0, 1, 4, 7]
    assert clause_multiset(ctfs) == sorted(f.clauses)
    for bits in f.assignments():
        assert ctfs[0].evaluate(bits) == f.evaluate(bits)


def test_decompose_overlapping_chains_spill_into_second_ctf():
    # chains [1 2 3 4 5] and [5 6 7 8 9] need 10 > n positions (they
    # share x5); the later chain [6 8 9] shares nothing with the first
    # and joins its permutation
    f = TabularFormula(9, (Clause(((1, 0), (2, 0), (3, 0))),
                           Clause(((2, 0), (3, 1), (4, 0))),
                           Clause(((3, 0), (4, 0), (5, 1))),
                           Clause(((5, 0), (6, 0), (7, 0))),
                           Clause(((6, 1), (7, 0), (8, 1))),
                           Clause(((6, 1), (8, 0), (9, 0))),
                           Clause(((7, 1), (8, 1), (9, 1)))))
    ctfs, report = decompose(f)
    assert report.k == 2 and report.w == 7
    assert [c.perm for c in ctfs] == [Perm([1, 2, 3, 4, 5, 6, 8, 9, 7]),
                                      Perm([5, 6, 7, 8, 9, 1, 2, 3, 4])]
    assert clause_multiset(ctfs) == sorted(f.clauses)
    for bits in f.assignments():
        assert all(c.evaluate(bits) for c in ctfs) == bool(f.evaluate(bits))


def test_decompose_packing_random_free_formulas():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(4, 12)
        f = generate(GenParams(n=n, m=rng.randint(3, 5 * n), mode="free",
                               seed=500 + trial))
        ctfs, report = decompose(f)
        assert math.ceil(report.w / (n - 2)) <= report.k <= report.w
        assert clause_multiset(ctfs) == sorted(set(f.clauses))
        assert decompose(f) == (ctfs, report)
        for bits in f.assignments():
            assert all(c.evaluate(bits) for c in ctfs) == bool(f.evaluate(bits))


@st.composite
def formulas(draw):
    n = draw(st.integers(3, 10))
    clause = st.builds(
        lambda vs, marks: Clause(tuple(zip(vs, marks))),
        st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True),
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
    return TabularFormula(n, tuple(draw(st.lists(clause, max_size=40))))


@given(formulas(), st.integers(0, 1 << 32))
@settings(max_examples=150, deadline=None)
def test_decompose_depends_only_on_the_clause_set(f, seed):
    # `classify` decomposes its input as given: clause order and
    # repeated clauses must not reach the CTFs (perms and tiers) or w
    assert decompose(scrambled(f, random.Random(seed))) == decompose(f)


@st.composite
def chained_formulas(draw):
    """Formulas whose clauses include the windows of a permutation, so
    that chains reach n variables, plus random and repeated clauses, in
    a random order."""
    n = draw(st.integers(3, 30))
    marks = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    order = draw(st.one_of(st.just(list(range(1, n + 1))),
                           st.permutations(range(1, n + 1))))
    clauses = [Clause(tuple(zip(order[j:j + 3], draw(marks))))
               for j in range(draw(st.integers(0, n - 2)))]
    clauses += draw(st.lists(st.builds(
        lambda vs, ms: Clause(tuple(zip(vs, ms))),
        st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True),
        marks), max_size=8 * n))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=10))
    return TabularFormula(n, tuple(draw(st.permutations(clauses))))


@given(chained_formulas())
@example(TabularFormula(3, (Clause(((1, 0), (2, 1), (3, 0))),
                            Clause(((1, 1), (2, 1), (3, 0))))))
@example(TabularFormula(6, tuple(Clause(((j, 1), (j + 1, 0), (j + 2, 1)))
                                 for j in (3, 1, 2, 4, 1))))
@settings(max_examples=300, deadline=None)
def test_decompose_matches_the_reference(f):
    assert decompose(f) == naive_decompose(f)


def test_decompose_matches_the_reference_on_the_sweep_family():
    # criterion 7's 1000 formulas, the benchmark's sweep_small
    params = DifftestParams(n_range=(5, 16), m_ratio=(3.0, 6.0), count=1000,
                            seed=20240601)
    for i in range(params.count):
        f = generate(instance_params(params, i))
        assert decompose(f) == naive_decompose(f)


def test_decompose_checks_k_against_w(monkeypatch):
    # one group chained twice makes k = 2 > w = 1, within m = 2
    import ctsat.decompose as decompose_mod

    f = TabularFormula(3, (Clause(((1, 0), (2, 0), (3, 0))),) * 2)
    chains = decompose_mod._chains
    monkeypatch.setattr(decompose_mod, "_chains",
                        lambda groups, n: chains(groups, n) * 2)
    with pytest.raises(RuntimeError, match="w=1 k=2 m=2"):
        decompose(f)


def test_decompose_chains_match_the_full_scan():
    # `decompose` offers each group only to the chains whose end or
    # start pair its triple holds, in creation order; the full scan
    # offers it to every chain in turn and must grow the same chains
    rng = random.Random(4711)
    full = grown_at_start = 0
    for _ in range(300):
        n = rng.randint(4, 40)
        formula = generate(GenParams(n=n, m=rng.randint(3 * n, 6 * n),
                                     seed=rng.randrange(1 << 30)))
        groups = group_terms(formula)
        triples = sorted(groups)
        # a chain takes its groups in triple order, and window t of its
        # variables holds one of them
        chains = [(chain.vars, sorted(tuple(sorted(chain.vars[t:t + 3]))
                                      for t in range(len(chain.tiers))))
                  for chain in _chains(groups, n)]
        assert chains == naive_chains(triples, n)
        full += sum(len(chain) == n for chain, _ in chains)
        grown_at_start += sum(set(chain[:3]) != set(groups[0])
                              for chain, groups in chains)
    assert full > 30 and grown_at_start > 1000


def test_decompose_soundness_random_instances():
    rng = random.Random(23)
    for trial in range(25):
        f = generate(GenParams(n=rng.randint(4, 8), m=rng.randint(3, 20),
                               mode="free", seed=trial))
        ctfs, report = decompose(f)
        assert math.ceil(report.w / (f.n - 2)) <= report.k <= f.m
        for bits in f.assignments():
            assert all(c.evaluate(bits) == 1 for c in ctfs) == bool(f.evaluate(bits))


def test_decompose_runtime_trend():
    # cost should scale roughly with m*n*k, far below quadratically in it
    def run(n, m):
        f = generate(GenParams(n=n, m=m, mode="free", seed=5))
        t0 = time.perf_counter()
        _, report = decompose(f)
        return time.perf_counter() - t0, report.k

    t_small = min(run(12, 40)[0] for _ in range(3))
    big = [run(24, 160) for _ in range(3)]
    t_big = min(t for t, _ in big)
    k_small = run(12, 40)[1]
    k_big = big[0][1]
    product_ratio = (160 * 24 * k_big) / (40 * 12 * k_small)
    assert t_big <= max(0.05, 10 * product_ratio * t_small)


# -- pinned plans ---------------------------------------------------------------

def test_decompose_with_plan_reproduces_pinned_ctfs(worked8, worked8_plan):
    ctfs, report = decompose_with_plan(worked8, worked8_plan)
    assert report.k == 3
    for ctf, (perm_order, rows) in zip(
            ctfs, ((tabledata.PERM1, tabledata.CTF1_ROWS),
                   (tabledata.PERM2, tabledata.CTF2_ROWS),
                   (tabledata.PERM3, tabledata.CTF3_ROWS))):
        assert ctf.perm == Perm(perm_order)
        masks = [0] * 6
        for j, bits in rows:
            masks[j] |= 1 << int(bits, 2)
        assert ctf.tiers == tuple(masks)


def test_decompose_with_plan_rejects_uncovered_clauses(worked8, worked8_plan):
    short = [(p, idx[:-1]) for p, idx in worked8_plan]
    short[0] = (worked8_plan[0][0], worked8_plan[0][1])
    with pytest.raises(ValueError, match="unassigned"):
        decompose_with_plan(worked8, [(tabledata.PERM1,
                                       tabledata.CTF1_CLAUSE_INDICES)])


def test_ctf_from_clauses_rejects_non_compact():
    perm = Perm.identity(5)
    with pytest.raises(ValueError, match="not compact"):
        Ctf.from_clauses(perm, [Clause(((1, 0), (2, 0), (5, 0)))])


# -- CTF -> CTS -----------------------------------------------------------------

def test_ctf_to_cts_worked5(algebra_s2):
    z = ctf_to_cts(ideal5_ctf())
    assert z.equivalent(algebra_s2) == 1
    assert z.enumerate_assignments() == {(0, 1, 1, 0, 1), (1, 0, 0, 1, 1)}


def test_ctf_to_cts_reproduces_pinned_structures(worked8, worked8_plan,
                                                 table_structures):
    ctfs, _ = decompose_with_plan(worked8, worked8_plan)
    for ctf, expected in zip(ctfs, table_structures):
        got = ctf_to_cts(ctf)
        assert got.perm == expected.perm
        assert got.equivalent(expected) == 1


def test_ctf_full_tier_is_contradictory():
    perm = Perm.identity(4)
    ctf = Ctf(perm, (0xFF, 0))
    assert ctf_to_cts(ctf).is_empty


def test_ctf_to_cts_exact_satisfying_sets():
    rng = random.Random(77)
    for trial in range(30):
        n = rng.randint(4, 9)
        f = generate(GenParams(n=n, m=rng.randint(2, 4 * n), mode="free",
                               seed=1000 + trial))
        ctfs, _ = decompose(f)
        for ctf in ctfs:
            as_formula = TabularFormula(n, tuple(ctf.to_clauses()))
            expected = sat_set(as_formula)
            got = ctf_to_cts(ctf)
            if got.is_empty:
                assert not expected
            else:
                assert got.enumerate_assignments() == expected
