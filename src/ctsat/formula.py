"""3-CNF instances in tabular form.

A formula over variables x1..xn is a table with one 0/1 line per clause:
mark 0 in column j records a positive occurrence of xj, mark 1 a negated
one. An assignment falsifies a clause exactly when it matches the
clause's line entry-wise, so the formula is true for an assignment iff
no line occurs in it as a subset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .rng import SplitMix64

Bits = tuple[int, ...]

MODE_FREE = "free"
MODE_SAT = "sat"
MODE_UNSAT = "unsat"
MODES = (MODE_FREE, MODE_SAT, MODE_UNSAT)

# Clauses of the unsatisfiable core that unsat mode plants: every mark
# pattern over one variable triple.
UNSAT_CORE = 8

# Least chance that a clause drawn in sat mode survives the planted
# assignment: below it, `generate` would redraw more than 65,536 times
# per clause on average.
MIN_KEPT_CHANCE = 2.0 ** -16

# Largest variable count a DIMACS header may declare. The classifier
# builds per-variable state for every declared variable, used or not, so
# without a cap a 20-byte file could demand gigabytes. Tests, goldens
# and benchmark families stay at n <= 50, far below this.
MAX_DIMACS_VARIABLES = 10_000


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line (and column)."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        elif line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


@dataclass(frozen=True, order=True)
class Clause:
    """Three (variable, mark) pairs over pairwise distinct variables."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = self.entries
        if len(entries) != 3:
            raise ValueError("clause must have exactly 3 entries")
        (u, a), (v, b), (w, c) = entries
        if u == v or u == w or v == w:
            raise ValueError("repeated variable in clause: %r" % (entries,))
        if not u < v < w:
            entries = tuple(sorted(entries))
            object.__setattr__(self, "entries", entries)
            (u, a), (v, b), (w, c) = entries
        # the entries ascend, so u is the least variable, and the checks
        # run entry by entry, the variable before the mark
        if u < 1:
            raise ValueError("variable index must be >= 1, got %d" % u)
        for mark in (a, b, c):
            if mark not in (0, 1):
                raise ValueError("mark must be 0 or 1, got %r" % (mark,))

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "Clause":
        """Build from DIMACS-style signed literals (positive => mark 0)."""
        return cls(tuple((abs(l), int(l < 0)) for l in literals))

    def variables(self) -> tuple[int, int, int]:
        return tuple(v for v, _ in self.entries)  # type: ignore[return-value]

    def falsified_by(self, bits: Sequence[int]) -> bool:
        (u, a), (v, b), (w, c) = self.entries
        return bits[u - 1] == a and bits[v - 1] == b and bits[w - 1] == c

    def to_literals(self) -> tuple[int, int, int]:
        return tuple(-v if mark else v for v, mark in self.entries)  # type: ignore[return-value]


@dataclass(frozen=True)
class TabularFormula:
    """A 3-CNF instance: variable count plus ordered clause lines."""

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3, got %d" % self.n)
        object.__setattr__(self, "clauses", tuple(self.clauses))
        for c in self.clauses:
            # entries ascend: the last holds the largest variable
            if c.entries[2][0] > self.n:
                raise ValueError("variable out of range in clause %r (n=%d)" % (c, self.n))

    @property
    def m(self) -> int:
        return len(self.clauses)

    def evaluate(self, bits: Sequence[int]) -> int:
        """1 iff no clause line is matched entry-wise by the assignment."""
        if len(bits) != self.n:
            raise ValueError("assignment length %d != n=%d" % (len(bits), self.n))
        # `Clause.falsified_by`, unrolled: classify calls this on every
        # witness it returns and every elementary early check
        for c in self.clauses:
            (u, a), (v, b), (w, d) = c.entries
            if bits[u - 1] == a and bits[v - 1] == b and bits[w - 1] == d:
                return 0
        return 1

    def to_dimacs(self, comments: Iterable[str] = ()) -> str:
        out = ["c %s" % c if c else "c" for c in comments]
        out.append("p cnf %d %d" % (self.n, len(self.clauses)))
        for c in self.clauses:
            out.append("%d %d %d 0" % c.to_literals())
        return "\n".join(out) + "\n"

    def assignments(self) -> Iterator[Bits]:
        """All 2^n assignments in ascending binary order (x1 is MSB)."""
        for i in range(1 << self.n):
            yield tuple((i >> (self.n - 1 - k)) & 1 for k in range(self.n))


def bits_from_string(s: str) -> Bits:
    """'01101' -> (0, 1, 1, 0, 1); position i holds the value of x(i+1)."""
    if not all(ch in "01" for ch in s):
        raise ValueError("assignment string must be over {0,1}: %r" % s)
    return tuple(int(ch) for ch in s)


def bits_to_string(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def parse_dimacs(text: str) -> TabularFormula:
    """Parse DIMACS CNF with exactly-3-literal clauses over distinct variables.

    A line starting with "%" ends the input: SATLIB's files mark the end
    of the clauses with it and put a lone "0" after it."""
    n = m = None
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise DimacsError("duplicate problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError("malformed problem line: %r" % line, lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("non-integer counts in problem line", lineno)
            if n < 3:
                raise DimacsError("need at least 3 variables, got %d" % n, lineno)
            if n > MAX_DIMACS_VARIABLES:
                raise DimacsError("at most %d variables supported, got %d"
                                  % (MAX_DIMACS_VARIABLES, n), lineno)
            continue
        if n is None:
            raise DimacsError("clause before problem line", lineno)
        for match in re.finditer(r"\S+", raw):
            tok = match.group()
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError("bad token %r" % tok, lineno,
                                  column=match.start() + 1)
            if lit == 0:
                if len(pending) != 3:
                    raise DimacsError(
                        "clause must have exactly 3 literals, got %d" % len(pending),
                        pending_line or lineno)
                if len({abs(l) for l in pending}) != 3:
                    raise DimacsError("repeated variable in clause", pending_line or lineno)
                if any(abs(l) > n for l in pending):
                    raise DimacsError("variable index out of range", pending_line or lineno)
                clauses.append(Clause.from_literals(pending))
                pending = []
                pending_line = 0
            else:
                if not pending:
                    pending_line = lineno
                pending.append(lit)
    if pending:
        raise DimacsError("unterminated clause at end of input", pending_line)
    if n is None:
        raise DimacsError("missing problem line")
    if m != len(clauses):
        raise DimacsError("header declares %d clauses, found %d" % (m, len(clauses)))
    return TabularFormula(n, tuple(clauses))


@dataclass(frozen=True)
class GenParams:
    """Parameters for random instance generation. n is at most
    `MAX_DIMACS_VARIABLES`, so every generated formula's DIMACS text
    parses back."""

    n: int
    m: int
    negation_fraction: float = 0.5
    mode: str = MODE_FREE
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.n > MAX_DIMACS_VARIABLES:
            raise ValueError("need n <= %d" % MAX_DIMACS_VARIABLES)
        if self.m < 1:
            raise ValueError("need m >= 1")
        if not 0.0 <= self.negation_fraction <= 1.0:
            raise ValueError("negation_fraction must be in [0,1]")
        if self.mode not in MODES:
            raise ValueError("mode must be one of %s" % (MODES,))
        if self.mode == MODE_UNSAT and self.m < UNSAT_CORE:
            raise ValueError("unsat mode embeds an %d-clause core; need m >= %d"
                             % (UNSAT_CORE, UNSAT_CORE))


def _random_clause(rng: SplitMix64, n: int, fraction: float) -> Clause:
    return Clause(rng.clause_entries(n, fraction))


def hidden_assignment(params: GenParams) -> Bits:
    """The planted satisfying assignment for sat mode (recomputable for checks)."""
    if params.mode != MODE_SAT:
        raise ValueError("hidden assignment only exists in sat mode")
    rng = SplitMix64(params.seed)
    return tuple(int(rng.chance(0.5)) for _ in range(params.n))


def check_plantable(params: GenParams) -> None:
    """Raise `ValueError` for sat-mode parameters under which a drawn
    clause survives the planted assignment with a chance below
    `MIN_KEPT_CHANCE`, so that `generate` would redraw (next to) forever.

    A drawn clause is falsified when each of its three variables gets
    the mark equal to its planted value, mark 0 with chance 1 - f and
    mark 1 with chance f. With Z zeros and O ones among the n planted
    values, that chance is the sum over z of
    C(Z, z) C(O, 3 - z) / C(n, 3) (1 - f)^z f^(3 - z). A fraction of
    exactly 0 with an all-0 assignment, or 1 with an all-1 one, leaves
    a clause no chance at all."""
    if params.mode != MODE_SAT:
        return
    target = hidden_assignment(params)
    frac, ones = params.negation_fraction, sum(target)
    kept = 1 - sum(math.comb(params.n - ones, z) * math.comb(ones, 3 - z)
                   * (1 - frac) ** z * frac ** (3 - z)
                   for z in range(4)) / math.comb(params.n, 3)
    if kept < MIN_KEPT_CHANCE:
        raise ValueError(
            "a clause drawn with negation fraction %.12g escapes being "
            "falsified by the planted assignment %s with chance %.3g, below "
            "%.3g" % (frac, bits_to_string(target), kept, MIN_KEPT_CHANCE))


def generate(params: GenParams) -> TabularFormula:
    """Deterministic random instance for the given parameters.

    free:  every clause drawn independently (3 distinct variables, each
           mark 1 with the configured probability).
    sat:   a hidden assignment is drawn first; clauses falsified by it
           are rejected and redrawn. Parameters under which a drawn
           clause survives with a chance below `MIN_KEPT_CHANCE` raise
           `ValueError` (`check_plantable`).
    unsat: all 8 mark patterns over one random variable triple are
           embedded (an unsatisfiable core) among otherwise free clauses,
           and the clause order is shuffled.

    Each random clause is one `SplitMix64.clause_entries` call, which
    consumes the same stream as `distinct(3, n)` followed by three
    `chance(fraction)` calls, so the formulas are those of that
    call-by-call draw, byte for byte.
    """
    rng = SplitMix64(params.seed)
    n, m, frac = params.n, params.m, params.negation_fraction
    if params.mode == MODE_FREE:
        clauses = [_random_clause(rng, n, frac) for _ in range(m)]
    elif params.mode == MODE_SAT:
        check_plantable(params)
        target = tuple(int(rng.chance(0.5)) for _ in range(n))
        clauses = []
        while len(clauses) < m:
            c = _random_clause(rng, n, frac)
            if not c.falsified_by(target):
                clauses.append(c)
    else:
        triple = rng.distinct(3, n)
        clauses = [Clause(tuple((v, (code >> k) & 1)
                                for k, v in zip((2, 1, 0), triple)))
                   for code in range(UNSAT_CORE)]
        clauses.extend(_random_clause(rng, n, frac) for _ in range(m - UNSAT_CORE))
        rng.shuffle(clauses)
    return TabularFormula(n, tuple(clauses))
