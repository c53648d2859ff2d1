from __future__ import annotations

import random
from pathlib import Path

import pytest

from ctsat.cts import Cts, Perm, clear_masks
from ctsat.formula import Clause, TabularFormula

import tabledata

FIXTURES = Path(__file__).parent / "fixtures"

# filled by the acceptance module; echoed after the run so the
# per-criterion lines survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def cts_from_rows(perm, rows) -> Cts:
    """Build a structure from (tier, 'bbb') fixture rows, uncleaned."""
    if not isinstance(perm, Perm):
        perm = Perm(perm)
    return Cts.from_lines(perm, [(j, int(bits, 2)) for j, bits in rows])


def random_cleared_masks(rng, n, density):
    """Cleared, non-empty masks over n variables, or None."""
    masks, zero = clear_masks([sum(1 << c for c in range(8)
                                   if rng.random() < density)
                               for _ in range(n - 2)])
    return None if zero is not None else masks


def scrambled(formula: TabularFormula, rng: random.Random) -> TabularFormula:
    """The same clause set with about a third of the clauses repeated
    and every clause moved to a random position."""
    clauses = list(formula.clauses)
    clauses += rng.sample(clauses, len(clauses) // 3)
    rng.shuffle(clauses)
    return TabularFormula(formula.n, tuple(clauses))


def unsatisfiable_formula(n: int) -> TabularFormula:
    """The eight clauses over x1, x2, x3, so no assignment of the n
    variables satisfies it. A SEP run given it finds no early witness
    and forms every tier."""
    return TabularFormula(n, tuple(
        Clause(((1, c >> 2), (2, (c >> 1) & 1), (3, c & 1)))
        for c in range(8)))


def worked8_formula() -> TabularFormula:
    return TabularFormula(8, tuple(Clause(c) for c in tabledata.WORKED8_CLAUSES))


@pytest.fixture(scope="session")
def worked8():
    return worked8_formula()


@pytest.fixture(scope="session")
def worked5():
    """The 5-variable 3-clause instance."""
    return TabularFormula(5, (
        Clause(((1, 1), (2, 0), (4, 1))),
        Clause(((2, 0), (3, 0), (5, 1))),
        Clause(((3, 1), (4, 1), (5, 0))),
    ))


@pytest.fixture(scope="session")
def perm5():
    return Perm.identity(5)


@pytest.fixture(scope="session")
def algebra_s1(perm5):
    """First operand of the 5-variable algebra example."""
    return cts_from_rows(perm5, [(0, "010"), (0, "011"), (1, "101"),
                                 (1, "110"), (2, "011"), (2, "100"), (2, "101")])


@pytest.fixture(scope="session")
def algebra_s2(perm5):
    """Second operand (equals the structure of the ideal 5-variable CTF)."""
    return cts_from_rows(perm5, [(0, "011"), (0, "100"), (1, "110"),
                                 (1, "001"), (2, "101"), (2, "011")])


@pytest.fixture(scope="session")
def table_structures():
    """The three 8-variable structures (pre-unification)."""
    return (
        cts_from_rows(tabledata.PERM1, tabledata.S1_ROWS),
        cts_from_rows(tabledata.PERM2, tabledata.S2_ROWS),
        cts_from_rows(tabledata.PERM3, tabledata.S3_ROWS),
    )


@pytest.fixture(scope="session")
def unified_pair():
    """The unified pair (first two structures)."""
    return (
        cts_from_rows(tabledata.PERM1, tabledata.UNIFIED2_S1_ROWS),
        cts_from_rows(tabledata.PERM2, tabledata.UNIFIED2_S2_ROWS),
    )


@pytest.fixture(scope="session")
def unified_triple():
    return (
        cts_from_rows(tabledata.PERM1, tabledata.UNIFIED3_S1_ROWS),
        cts_from_rows(tabledata.PERM2, tabledata.UNIFIED3_S2_ROWS),
        cts_from_rows(tabledata.PERM3, tabledata.UNIFIED3_S3_ROWS),
    )


@pytest.fixture(scope="session")
def worked8_plan():
    return [
        (tabledata.PERM1, tabledata.CTF1_CLAUSE_INDICES),
        (tabledata.PERM2, tabledata.CTF2_CLAUSE_INDICES),
        (tabledata.PERM3, tabledata.CTF3_CLAUSE_INDICES),
    ]
