"""Tabular formulas: parsing, evaluation and generation.

Running this file as a script prints the current `GENERATOR_DIGESTS`.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from ctsat.difftest import DifftestParams, instance_params
from ctsat.formula import (MAX_DIMACS_VARIABLES, MODE_SAT, MODE_UNSAT, MODES,
                           UNSAT_CORE, Clause, DimacsError, GenParams,
                           TabularFormula, bits_from_string, bits_to_string,
                           check_plantable, generate, hidden_assignment,
                           parse_dimacs)

from naive import cnf_evaluate, sat_set

WORKED5_TEXT = "p cnf 5 3\n-1 2 -4 0\n2 3 -5 0\n-3 -4 5 0\n"


# -- parsing ----------------------------------------------------------------

def test_parse_worked5_lines():
    f = parse_dimacs(WORKED5_TEXT)
    assert f.n == 5 and f.m == 3
    assert f.clauses[0].entries == ((1, 1), (2, 0), (4, 1))
    assert f.clauses[1].entries == ((2, 0), (3, 0), (5, 1))
    assert f.clauses[2].entries == ((3, 1), (4, 1), (5, 0))


def test_parse_smallest_instance():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert f.clauses[0].entries == ((1, 0), (2, 0), (3, 0))


def test_parse_repeated_variable_rejected():
    with pytest.raises(DimacsError, match="repeated variable"):
        parse_dimacs("p cnf 3 1\n1 1 2 0\n")


@pytest.mark.parametrize("text,match", [
    ("p cnf 3 1\n1 2 0\n", "exactly 3"),
    ("p cnf 3 1\n1 2 3 4 0\n", "exactly 3"),
    ("p cnf 3 1\n1 2 9 0\n", "out of range"),
    ("p cnf 3 2\n1 2 3 0\n", "declares 2"),
    ("p cnf 3 1\n1 2 3\n", "unterminated"),
    ("p cnf 10001 1\n1 2 3 0\n", "at most 10000 variables"),
    ("1 2 3 0\n", "before problem line"),
    ("p cnf 3 1\nx y z 0\n", "bad token"),
    ("", "missing problem line"),
])
def test_parse_errors(text, match):
    with pytest.raises(DimacsError, match=match):
        parse_dimacs(text)


def test_parse_error_reports_line_number():
    err = None
    try:
        parse_dimacs("c head\np cnf 3 2\n1 2 3 0\n1 1 3 0\n")
    except DimacsError as exc:
        err = exc
    assert err is not None and err.line == 4


def test_parse_error_reports_column():
    err = None
    try:
        parse_dimacs("p cnf 3 1\n1 zz 3 0\n")
    except DimacsError as exc:
        err = exc
    assert err is not None and err.line == 2 and err.column == 3
    assert "line 2, column 3" in str(err)


def test_parse_multiline_clause_and_comments():
    f = parse_dimacs("c x\np cnf 4 2\n1 2\n3 0\n-2 -3 4 0\n")
    assert f.m == 2


def test_parse_stops_at_the_satlib_trailer():
    # SATLIB's files end the clauses with a "%" line and a lone "0"
    assert (parse_dimacs(WORKED5_TEXT + "%\n0\n\n")
            == parse_dimacs(WORKED5_TEXT))


def test_clause_entries_sorted_and_validated():
    c = Clause(((4, 1), (1, 0), (2, 1)))
    assert c.entries == ((1, 0), (2, 1), (4, 1))
    with pytest.raises(ValueError):
        Clause(((1, 0), (1, 1), (2, 0)))
    with pytest.raises(ValueError):
        Clause(((1, 2), (2, 0), (3, 0)))


@pytest.mark.parametrize("entries, message", [
    (((1, 0), (2, 0)), "clause must have exactly 3 entries"),
    (((1, 0), (2, 0), (3, 0), (4, 0)), "clause must have exactly 3 entries"),
    (((1, 0), (1, 0)), "clause must have exactly 3 entries"),
    # a repeated variable in each pair of positions, and in all three
    (((2, 0), (2, 1), (3, 0)),
     "repeated variable in clause: ((2, 0), (2, 1), (3, 0))"),
    (((5, 1), (3, 0), (5, 0)),
     "repeated variable in clause: ((5, 1), (3, 0), (5, 0))"),
    (((1, 0), (4, 1), (4, 1)),
     "repeated variable in clause: ((1, 0), (4, 1), (4, 1))"),
    (((7, 0), (7, 0), (7, 1)),
     "repeated variable in clause: ((7, 0), (7, 0), (7, 1))"),
    # the repetition is found before a bad variable or mark
    (((0, 0), (0, 1), (2, 5)),
     "repeated variable in clause: ((0, 0), (0, 1), (2, 5))"),
    (((0, 0), (1, 0), (2, 0)), "variable index must be >= 1, got 0"),
    (((3, 0), (-2, 1), (1, 0)), "variable index must be >= 1, got -2"),
    (((1, 0), (2, 2), (3, 0)), "mark must be 0 or 1, got 2"),
    (((3, -1), (1, 0), (2, 0)), "mark must be 0 or 1, got -1"),
    (((1, None), (2, 0), (3, 0)), "mark must be 0 or 1, got None"),
    (((1, 0), (2, "1"), (3, 0)), "mark must be 0 or 1, got '1'"),
    # several bad entries: the entries are sorted first, then checked
    # in order, the variable of an entry before its mark
    (((2, 5), (1, -1), (3, 0)), "mark must be 0 or 1, got -1"),
    (((0, 9), (1, 2), (2, 3)), "variable index must be >= 1, got 0"),
    (((4, 7), (-1, 0), (2, 0)), "variable index must be >= 1, got -1"),
    (((2, 0), (-5, 3), (-1, 4)), "variable index must be >= 1, got -5"),
    (((3, 2), (1, 0), (2, 7)), "mark must be 0 or 1, got 7"),
])
def test_clause_rejections_and_their_messages(entries, message):
    with pytest.raises(ValueError) as excinfo:
        Clause(entries)
    assert str(excinfo.value) == message


def test_clause_keeps_sorted_entries_and_sorts_the_others():
    for entries in (((1, 0), (2, 1), (3, 1)), ((2, 1), (5, 0), (9, 1))):
        assert Clause(entries).entries == entries
    for given_order in (((9, 1), (2, 0), (5, 1)), ((2, 0), (9, 1), (5, 1)),
                        ((5, 1), (9, 1), (2, 0)), ((9, 1), (5, 1), (2, 0))):
        clause = Clause(given_order)
        assert clause.entries == ((2, 0), (5, 1), (9, 1))
        assert clause == Clause(((2, 0), (5, 1), (9, 1)))
        assert clause.variables() == (2, 5, 9)


def test_formula_refuses_a_variable_above_n():
    # the largest variable of a clause, wherever it was given, is
    # checked against n
    for entries in (((1, 0), (2, 0), (5, 1)), ((5, 1), (1, 0), (2, 0)),
                    ((1, 0), (5, 1), (2, 0))):
        with pytest.raises(ValueError) as excinfo:
            TabularFormula(4, (Clause(((1, 0), (2, 0), (4, 1))),
                               Clause(entries)))
        assert str(excinfo.value) == (
            "variable out of range in clause Clause(entries=((1, 0), (2, 0), "
            "(5, 1))) (n=4)")
    assert TabularFormula(5, (Clause(((5, 1), (1, 0), (2, 0))),)).m == 1


# -- evaluation -------------------------------------------------------------

def test_evaluate_worked5_all_zeros(worked5):
    # clause-by-clause: 00000 matches no stored line
    for c in worked5.clauses:
        assert not c.falsified_by((0, 0, 0, 0, 0))
    assert worked5.evaluate(bits_from_string("00000")) == 1


def test_evaluate_matched_clause_forces_zero(worked5):
    # assignment matching clause 1 exactly: x1=1, x2=0, x4=1
    assert worked5.evaluate(bits_from_string("10010")) == 0


def test_evaluate_ideal5_formula_satisfying_set():
    # the 5-variable CT formula whose clauses sit at windows 1..3
    lines = [(1, "000"), (1, "001"), (1, "101"), (1, "111"),
             (2, "000"), (2, "100"), (2, "101"), (2, "111"),
             (3, "010"), (3, "100"), (3, "111")]
    clauses = tuple(Clause(tuple((start + k, int(bits[k])) for k in range(3)))
                    for start, bits in lines)
    f = TabularFormula(5, clauses)
    assert f.evaluate(bits_from_string("01101")) == 1
    assert f.evaluate(bits_from_string("10011")) == 1
    assert sat_set(f) == {bits_from_string("01101"), bits_from_string("10011")}


def test_evaluate_length_mismatch(worked5):
    with pytest.raises(ValueError, match="length"):
        worked5.evaluate((0, 0, 0))


clause_strategy = st.builds(
    lambda vs, marks: Clause(tuple(zip(vs, marks))),
    st.lists(st.integers(1, 8), min_size=3, max_size=3, unique=True),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))

formula_strategy = st.builds(
    lambda cs: TabularFormula(8, tuple(cs)),
    st.lists(clause_strategy, min_size=0, max_size=20))


@given(formula_strategy)
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_standard_cnf_semantics(f):
    naive_clauses = [c.entries for c in f.clauses]
    for bits in f.assignments():
        assert f.evaluate(bits) == cnf_evaluate(naive_clauses, bits)


@given(formula_strategy)
@settings(max_examples=40, deadline=None)
def test_dimacs_round_trip(f):
    assert parse_dimacs(f.to_dimacs()) == f


# -- generation -------------------------------------------------------------

def test_generate_free_deterministic():
    p = GenParams(n=20, m=91, negation_fraction=0.5, mode="free", seed=42)
    a, b = generate(p), generate(p)
    assert a == b
    assert a.to_dimacs() == b.to_dimacs()
    assert a.m == 91 and a.n == 20


# the benchmark's small family (perfbench/workloads.py): criterion 7's
# difftest family, instances 0-999
SWEEP_SMALL = DifftestParams(n_range=(5, 16), m_ratio=(3.0, 6.0),
                             count=1000, seed=20240601)

# sha256 over generate(p).to_dimacs() for each group of
# `generator_grid`, so that a change to the generator that is meant to
# keep its output keeps every byte of it
GENERATOR_DIGESTS = {
    "free":
        "e176e0d5b01522441164c34bb711e19d110a4d91664941d4563773df7aa8cee4",
    "sat":
        "b19f7dbbe21a83bb7852ea398439e60c4119f986571c26b46abee533487e4a02",
    "unsat":
        "59bc22515315ac66b3f3b1b93f72b1050176783e14690cd3404fcc7f796d5a60",
    "sweep_small":
        "8efd9ad836ec8cc92c5aedda35923a9b55bcbfce54f58128d09d17a3e6f07bc0",
    "unsat_n40":
        "22f9f13fa2a1d2fcd29510ad923fc5279d113698ff4ec68b6f8cce018357fbbb",
    "planted_n24":
        "44daa31cf294cd520286b90aa396e6fd6497beebea4944ae8fa32373a7b8ed62",
}


def generator_grid() -> dict[str, list[GenParams]]:
    """Free, sat and unsat formulas at n = 3, 4, 12 and 40 and negation
    fractions 0, 0.3, 0.5 and 1 (sat only where plantable; unsat at the
    least m), seeds 0-9, and the three benchmark families."""
    grid: dict[str, list[GenParams]] = {mode: [] for mode in MODES}
    for mode in MODES:
        for n in (3, 4, 12, 40):
            for fraction in (0.0, 0.3, 0.5, 1.0):
                for seed in range(10):
                    params = GenParams(
                        n=n, m=UNSAT_CORE if mode == MODE_UNSAT else 4 * n,
                        negation_fraction=fraction, mode=mode, seed=seed)
                    try:
                        check_plantable(params)
                    except ValueError:
                        continue
                    grid[mode].append(params)
    grid["sweep_small"] = [instance_params(SWEEP_SMALL, i)
                           for i in range(SWEEP_SMALL.count)]
    grid["unsat_n40"] = [GenParams(n=40, m=240, mode="free", seed=s)
                         for s in range(6)]
    grid["planted_n24"] = [GenParams(n=24, m=102, mode=MODE_SAT, seed=s)
                           for s in range(6)]
    return grid


def generator_digest(group: list[GenParams]) -> str:
    digest = hashlib.sha256()
    for params in group:
        digest.update(generate(params).to_dimacs().encode())
    return digest.hexdigest()


def test_generator_output_matches_the_pinned_digests():
    grid = generator_grid()
    # the sat grid leaves out the five fraction-0 cases (three at n = 3,
    # two at n = 4) whose all-0 planted assignment falsifies every clause
    assert [len(grid[g]) for g in grid] == [160, 155, 160, 1000, 6, 6]
    assert {g: generator_digest(grid[g]) for g in grid} == GENERATOR_DIGESTS


def test_generate_different_seeds_differ():
    base = dict(n=12, m=40, negation_fraction=0.5, mode="free")
    assert generate(GenParams(seed=1, **base)) != generate(GenParams(seed=2, **base))


def test_generate_planted_sat_satisfied_by_hidden_assignment():
    for seed in range(10):
        p = GenParams(n=10, m=50, mode="sat", seed=seed)
        f = generate(p)
        assert f.evaluate(hidden_assignment(p)) == 1


def test_generate_planted_unsat_has_no_models():
    for seed in range(5):
        f = generate(GenParams(n=6, m=12, mode="unsat", seed=seed))
        assert not sat_set(f)


def test_generate_unsat_needs_room_for_core():
    with pytest.raises(ValueError, match="core"):
        GenParams(n=5, m=4, mode="unsat", seed=0)


def test_generate_negation_fraction_extremes():
    all_pos = generate(GenParams(n=8, m=30, negation_fraction=0.0, seed=3))
    assert all(mark == 0 for c in all_pos.clauses for _, mark in c.entries)
    all_neg = generate(GenParams(n=8, m=30, negation_fraction=1.0, seed=3))
    assert all(mark == 1 for c in all_neg.clauses for _, mark in c.entries)


def test_genparams_validation():
    with pytest.raises(ValueError):
        GenParams(n=2, m=1)
    with pytest.raises(ValueError):
        GenParams(n=3, m=0)
    with pytest.raises(ValueError):
        GenParams(n=3, m=1, negation_fraction=1.5)
    with pytest.raises(ValueError):
        GenParams(n=3, m=1, mode="bogus")


def test_genparams_bounds_n_by_what_dimacs_parsing_accepts():
    # every formula that can be generated parses back from its DIMACS
    # text; one more variable is refused when the parameters are built
    largest = generate(GenParams(n=MAX_DIMACS_VARIABLES, m=2, seed=1))
    assert parse_dimacs(largest.to_dimacs()) == largest
    with pytest.raises(ValueError, match="n <= %d" % MAX_DIMACS_VARIABLES):
        GenParams(n=MAX_DIMACS_VARIABLES + 1, m=2)


def test_sat_mode_refuses_a_fraction_that_falsifies_every_clause():
    # with negation fraction 0 every mark is 0, so an all-0 planted
    # assignment falsifies every clause (and fraction 1 an all-1 one):
    # generate raises instead of redrawing forever, in exactly those
    # cases, and generates every other formula as before
    refused = 0
    for seed in range(40):
        for fraction in (0.0, 1.0):
            params = GenParams(n=3, m=4, negation_fraction=fraction,
                               mode="sat", seed=seed)
            target = hidden_assignment(params)
            if target == (int(fraction),) * 3:
                with pytest.raises(ValueError, match="falsified by the "
                                   "planted assignment"):
                    generate(params)
                refused += 1
            else:
                formula = generate(params)
                assert formula.evaluate(target) == 1
                assert all(mark == fraction for c in formula.clauses
                           for _, mark in c.entries)
    assert refused == 12


def test_sat_mode_refuses_a_fraction_that_keeps_almost_no_clause():
    # a fraction near 0 with an all-0 planted assignment, or near 1 with
    # an all-1 one, keeps a drawn clause with a chance of a few in a
    # billion: generate would redraw for hours, so it is refused up front
    for fraction, seed, planted in ((1e-9, 1, "000"),
                                    (0.9999999999, 14, "111")):
        params = GenParams(n=3, m=1, negation_fraction=fraction,
                           mode="sat", seed=seed)
        assert bits_to_string(hidden_assignment(params)) == planted
        with pytest.raises(ValueError, match="falsified by the planted "
                           "assignment %s" % planted):
            check_plantable(params)


def test_bits_string_round_trip():
    assert bits_to_string(bits_from_string("01101")) == "01101"
    with pytest.raises(ValueError):
        bits_from_string("01x")


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_formula.py
    print("GENERATOR_DIGESTS = {")
    for group, params in generator_grid().items():
        print('    "%s":\n        "%s",' % (group, generator_digest(params)))
    print("}")
