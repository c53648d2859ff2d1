from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ctsat.formula import (MAX_DIMACS_VARIABLES, Clause, DimacsError,
                           GenParams, TabularFormula, bits_from_string,
                           bits_to_string, generate, hidden_assignment,
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


def test_bits_string_round_trip():
    assert bits_to_string(bits_from_string("01101")) == "01101"
    with pytest.raises(ValueError):
        bits_from_string("01x")
