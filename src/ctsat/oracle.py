"""Trusted ground truth: exhaustive scan and a DPLL decision procedure.

Both engines are self-contained so the trust base stays small; they
cross-validate each other in the test suite and back the differential
harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Bits, TabularFormula

BRUTE_FORCE_MAX_N = 24


@dataclass(frozen=True)
class OracleResult:
    satisfiable: bool
    witness: Bits | None
    model_count: int | None = None

    def __post_init__(self):
        if self.satisfiable and self.witness is None:
            raise ValueError("satisfiable result must carry a witness")
        if not self.satisfiable and self.witness is not None:
            raise ValueError("unsatisfiable result cannot carry a witness")


def brute_force(formula: TabularFormula) -> OracleResult:
    """Bit-parallel exhaustive model counting over all 2^n assignments.

    Assignment i maps x1 to the most significant of n bits, matching
    `TabularFormula.assignments`. Each variable's column is one int with
    bit i set when the variable is 1 in assignment i. A clause clears
    from the satisfying set the AND of its columns, or their
    complements, one per entry. The model count is the satisfying set's
    popcount; the witness is its lowest assignment.
    """
    n = formula.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError("brute force bound exceeded: n=%d > %d"
                         % (n, BRUTE_FORCE_MAX_N))
    total = 1 << n
    full = (1 << total) - 1
    columns = [0] * (n + 1)
    for v in range(1, n + 1):
        half = 1 << (n - v)  # runs of zeros and ones alternate every half
        column, width = ((1 << half) - 1) << half, 2 * half
        while width < total:
            column |= column << width
            width *= 2
        columns[v] = column
    sat = full
    for clause in formula.clauses:
        falsified = sat  # only assignments still satisfying can drop out
        for v, mark in clause.entries:
            falsified &= columns[v] if mark else full ^ columns[v]
        sat ^= falsified
    if not sat:
        return OracleResult(False, None, 0)
    i = (sat & -sat).bit_length() - 1
    witness = tuple((i >> (n - v)) & 1 for v in range(1, n + 1))
    return OracleResult(True, witness, sat.bit_count())


def dpll(formula: TabularFormula) -> OracleResult:
    """Unit propagation plus branching; sound and complete.

    Each step makes one `scan` over the clauses, in order, and acts on
    the first of these it meets: a falsified clause (undo up to the
    deepest decision still at 0 and try 1 there), a unit clause (make
    its open literal true), or, when neither occurs, the first variable
    of the first shortest open clause (a decision, value 0 first). Once
    every clause holds the search stops; the witness reads 0 for the
    variables left unassigned, and is re-verified before returning.

    One scan per step is the search of a propagation pass that restarts
    after every unit, followed by a branching pass: a pass that meets no
    falsified or unit clause sees the very state the branching pass
    would see, and stopping at the first falsified or unit clause is
    what propagation does. So the units are assigned in the same order,
    the same variables are branched on, and the witnesses are the same.
    """
    n = formula.n
    clauses = [c.to_literals() for c in formula.clauses]
    # value[lit] is literal lit's truth value, None while unassigned; a
    # negative literal indexes from the end of the list
    value: list[int | None] = [None] * (2 * n + 1)

    def scan() -> tuple[int, bool] | None:
        """None at a falsified clause, else (literal to make true, whether
        it is a decision), the literal 0 when every clause holds."""
        best, best_open = 0, 4
        for a, b, c in clauses:
            if value[a] or value[b] or value[c]:
                continue
            open_lits = [lit for lit in (a, b, c) if value[lit] is None]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                return open_lits[0], False
            if len(open_lits) < best_open:
                best, best_open = -abs(open_lits[0]), len(open_lits)
        return best, True

    # the literals made true, in order, each with whether it is a
    # decision whose value 1 is still untried; an explicit stack, so
    # the depth is not bounded by Python's
    trail: list[tuple[int, bool]] = []
    while (step := scan()) != (0, True):
        if step is None:
            # undo up to the deepest decision still at 0; try 1 there
            while trail and not trail[-1][1]:
                lit = trail.pop()[0]
                value[lit] = value[-lit] = None
            if not trail:
                return OracleResult(False, None)
            step = -trail.pop()[0], False
        lit = step[0]
        value[lit], value[-lit] = 1, 0
        trail.append(step)
    bits = tuple(int(value[v] == 1) for v in range(1, n + 1))
    if formula.evaluate(bits) != 1:
        raise AssertionError("internal witness failed verification")
    return OracleResult(True, bits)
