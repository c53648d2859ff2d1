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

    Branches on the first variable of a shortest unresolved clause,
    trying value 0 first, and stops once every clause is satisfied; the
    witness reads 0 for the variables left unassigned. The witness is
    re-verified before returning.
    """
    n = formula.n
    clauses = [c.to_literals() for c in formula.clauses]
    assign: list[int | None] = [None] * (n + 1)

    def lit_value(lit: int) -> int | None:
        v = assign[abs(lit)]
        if v is None:
            return None
        return int((lit > 0) == (v == 1))

    def propagate(trail: list[int]) -> bool:
        """Assign all unit literals; False on conflict."""
        while True:
            unit = None
            for cl in clauses:
                unassigned = None
                satisfied = False
                open_count = 0
                for lit in cl:
                    lv = lit_value(lit)
                    if lv == 1:
                        satisfied = True
                        break
                    if lv is None:
                        open_count += 1
                        unassigned = lit
                if satisfied:
                    continue
                if open_count == 0:
                    return False
                if open_count == 1:
                    unit = unassigned
                    break
            if unit is None:
                return True
            assign[abs(unit)] = int(unit > 0)
            trail.append(abs(unit))

    def pick_branch() -> int | None:
        best = None
        best_open = 4
        for cl in clauses:
            open_lits = []
            satisfied = False
            for lit in cl:
                lv = lit_value(lit)
                if lv == 1:
                    satisfied = True
                    break
                if lv is None:
                    open_lits.append(lit)
            if satisfied:
                continue
            if open_lits and len(open_lits) < best_open:
                best_open = len(open_lits)
                best = abs(open_lits[0])
        return best

    def search() -> bool:
        """Depth-first over the decisions, one frame (trail, variable)
        per open decision, the variable holding the value being tried;
        an explicit stack, so the depth is not bounded by Python's."""
        frames: list[tuple[list[int], int]] = []
        trail: list[int] = []
        while True:
            if propagate(trail):
                var = pick_branch()
                if var is None:
                    return True
                assign[var] = 0
                frames.append((trail, var))
                trail = []
                continue
            # undo the failed node, and every decision whose two values
            # both failed, up to the deepest one still at 0: try 1 there
            while True:
                for v in trail:
                    assign[v] = None
                if not frames:
                    return False
                trail, var = frames.pop()
                if assign[var] == 0:
                    assign[var] = 1
                    frames.append((trail, var))
                    trail = []
                    break
                assign[var] = None

    if search():
        bits = tuple(1 if assign[v] == 1 else 0 for v in range(1, n + 1))
        if formula.evaluate(bits) != 1:
            raise AssertionError("internal witness failed verification")
        return OracleResult(True, bits)
    return OracleResult(False, None)
