"""Differential testing of the classifier against the DPLL oracle.

Every instance is generated from a per-instance seed (base seed +
index), classified, and solved by the oracle; verdicts are tallied in
an agreement matrix. Any disagreement or classification failure is
minimized with ddmin and archived as a self-contained reproducer
directory. Soundness violations (a satisfiable verdict whose witness
fails re-verification) abort the run: they must never happen.

The canonical report (report.json) is a pure function of the parameters
and seed; wall-clock timings go to a separate, non-canonical file.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .formula import (MAX_DIMACS_VARIABLES, MODE_UNSAT, MODES, UNSAT_CORE,
                      GenParams, TabularFormula, check_plantable, generate)
from .oracle import dpll
from .rng import GENERATOR_ID, SplitMix64
from .sep import (CLASSIFICATION_FAILURE, SATISFIABLE, UNSATISFIABLE,
                  SoundnessError, classify)


@dataclass(frozen=True)
class DifftestParams:
    n_range: tuple[int, int]
    count: int
    seed: int
    m_range: tuple[int, int] | None = None
    m_ratio: tuple[float, float] | None = None
    negation_fraction: float = 0.5
    modes: tuple[str, ...] = MODES

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not 3 <= self.n_range[0] <= self.n_range[1] <= MAX_DIMACS_VARIABLES:
            raise ValueError("bad n range %r" % (self.n_range,))
        if (self.m_range is None) == (self.m_ratio is None):
            raise ValueError("exactly one of m_range / m_ratio is required")
        if self.m_range is not None and not 1 <= self.m_range[0] <= self.m_range[1]:
            raise ValueError("bad m range %r" % (self.m_range,))
        if (self.m_ratio is not None
                and not 0 < self.m_ratio[0] <= self.m_ratio[1] < math.inf):
            raise ValueError("bad m ratio %r" % (self.m_ratio,))
        # an instance draws m uniformly from m_bounds(n), one SplitMix64
        # draw of at most 2**64 values
        if any(hi - lo >= 1 << 64 for lo, hi in
               map(self.m_bounds, range(self.n_range[0], self.n_range[1] + 1))):
            raise ValueError("m range wider than 2**64 values for some n "
                             "in %r" % (self.n_range,))
        if not 0 <= self.negation_fraction <= 1:
            raise ValueError("negation fraction %r outside [0, 1]"
                             % (self.negation_fraction,))
        if not self.modes:
            raise ValueError("need at least one mode")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError("mode %r not one of %s" % (mode, MODES))

    def m_bounds(self, n: int) -> tuple[int, int]:
        """The least and the greatest clause count of an instance with n
        variables."""
        if self.m_range is not None:
            return self.m_range
        lo = max(1, math.ceil(self.m_ratio[0] * n))
        return lo, max(lo, math.ceil(self.m_ratio[1] * n))


def instance_params(params: DifftestParams, index: int) -> GenParams:
    """Deterministic generation parameters for one instance."""
    rng = SplitMix64(params.seed + index)
    n = params.n_range[0] + rng.below(params.n_range[1] - params.n_range[0] + 1)
    lo, hi = params.m_bounds(n)
    m = lo + rng.below(hi - lo + 1)
    mode = params.modes[index % len(params.modes)]
    if mode == MODE_UNSAT:
        m = max(m, UNSAT_CORE)
    return GenParams(n=n, m=m, negation_fraction=params.negation_fraction,
                     mode=mode, seed=params.seed + index)


def _agrees(verdict, oracle) -> bool:
    """The classifier and the oracle agree; a classification failure
    agrees with nothing."""
    return ((verdict.kind == SATISFIABLE and oracle.satisfiable)
            or (verdict.kind == UNSATISFIABLE and not oracle.satisfiable))


def _run_one(args: tuple) -> dict:
    params, index = args
    gen = instance_params(params, index)
    formula = generate(gen)
    verdict = classify(formula)
    oracle = dpll(formula)
    sound = True
    if verdict.kind == SATISFIABLE:
        sound = formula.evaluate(verdict.witness) == 1
    return {
        "index": index,
        "n": gen.n,
        "m": gen.m,
        "mode": gen.mode,
        "classifier": verdict.kind,
        "oracle": "satisfiable" if oracle.satisfiable else "unsatisfiable",
        "agree": _agrees(verdict, oracle),
        "sound": sound,
        "backtracks": verdict.detail.get("backtracks", 0),
    }


@dataclass
class DifftestReport:
    params: DifftestParams
    results: list[dict]
    findings: list[dict] = field(default_factory=list)
    soundness_violations: int = 0
    elapsed_seconds: float = 0.0

    @property
    def agreement_matrix(self) -> dict[str, int]:
        matrix: dict[str, int] = {}
        for r in self.results:
            key = "%s/%s" % (r["classifier"], r["oracle"])
            matrix[key] = matrix.get(key, 0) + 1
        return matrix

    @property
    def disagreements(self) -> list[dict]:
        return [r for r in self.results if not r["agree"]]

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.results
                   if r["classifier"] == CLASSIFICATION_FAILURE)

    def to_canonical_json(self) -> str:
        payload = {
            "version": __version__,
            "rng": GENERATOR_ID,
            "seed_policy": "base seed + instance index",
            "params": asdict(self.params),
            "instances": len(self.results),
            "agreement_matrix": self.agreement_matrix,
            "soundness_violations": self.soundness_violations,
            "classification_failures": self.failure_count,
            "findings": self.findings,
            "backtrack_total": sum(r["backtracks"] for r in self.results),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def summary_lines(self) -> list[str]:
        out = ["instances: %d" % len(self.results)]
        for key in sorted(self.agreement_matrix):
            out.append("  %s: %d" % (key, self.agreement_matrix[key]))
        out.append("soundness violations: %d" % self.soundness_violations)
        out.append("classification failures: %d" % self.failure_count)
        out.append("disagreements: %d" % len(self.disagreements))
        out.append("elapsed: %.1f s" % self.elapsed_seconds)
        return out


def difftest(params: DifftestParams, out_dir: str | Path,
             jobs: int = 1) -> DifftestReport:
    """Run the sweep, archive findings, and write the reports.

    Results are independent of the worker count: instances derive all
    randomness from (seed + index) and are merged in index order. A
    worker count below 1, or an instance that `generate` would refuse
    (`check_plantable`), raises `ValueError` before `out_dir` is created
    or any instance classified.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %d" % jobs)
    for i in range(params.count):
        check_plantable(instance_params(params, i))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    work = [(params, i) for i in range(params.count)]
    # the pool forks every worker on the first submit: start no more
    # than there are instances or CPUs
    workers = min(jobs, params.count, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, work, chunksize=16))
    else:
        results = [_run_one(w) for w in work]
    results.sort(key=lambda r: r["index"])

    report = DifftestReport(params=params, results=results)
    for r in results:
        if not r["sound"]:
            report.soundness_violations += 1
        if not r["agree"]:
            finding = _archive_finding(params, r, out)
            report.findings.append(finding)
    report.elapsed_seconds = time.perf_counter() - t0

    (out / "report.json").write_text(report.to_canonical_json())
    (out / "report.txt").write_text("\n".join(report.summary_lines()) + "\n")
    if report.soundness_violations:
        raise SoundnessError("%d unsound satisfiable verdicts; see %s"
                             % (report.soundness_violations, out))
    return report


def _archive_finding(params: DifftestParams, result: dict, out: Path) -> dict:
    """Write one finding directory: original and minimized DIMACS, both
    verdicts, diagnostics, and the seed."""
    index = result["index"]
    gen = instance_params(params, index)
    formula = generate(gen)
    directory = out / ("finding_%06d" % index)
    directory.mkdir(parents=True, exist_ok=True)

    def disagrees(f: TabularFormula) -> bool:
        return not _agrees(classify(f), dpll(f))

    (directory / "original.cnf").write_text(
        formula.to_dimacs(comments=["seed %d" % gen.seed, "mode %s" % gen.mode]))
    minimized = minimize(formula, disagrees)
    (directory / "minimized.cnf").write_text(minimized.to_dimacs())
    verdict = classify(minimized)
    oracle = dpll(minimized)
    (directory / "verdicts.txt").write_text(
        "classifier: %s\noracle: %s\n"
        % (verdict.kind, "satisfiable" if oracle.satisfiable else "unsatisfiable"))
    (directory / "diagnostics.json").write_text(verdict.to_json() + "\n")
    (directory / "seed.txt").write_text("%d\n" % gen.seed)
    return {
        "index": index,
        "directory": directory.name,
        "classifier": result["classifier"],
        "oracle": result["oracle"],
        "minimized_m": minimized.m,
        "minimized_n": minimized.n,
    }


class MinimizationError(RuntimeError):
    """The predicate behaved non-deterministically during minimization."""


def minimize(formula: TabularFormula,
             predicate: Callable[[TabularFormula], bool]) -> TabularFormula:
    """ddmin over the clause list, then variable compaction.

    The predicate must hold for the input and still holds for the
    result, which is 1-minimal: removing any single clause breaks the
    predicate. The ddmin loop needs no extra pass for that: the
    granularity never exceeds the clause count (a removal leaves at
    least granularity - 1 clauses), so chunks hold at least one clause,
    and the loop stops with two or more clauses only after a round of
    one-clause chunks that removed nothing. That round tried every
    single-clause removal, and none is tried twice. Unused variables
    are renumbered away afterwards when the predicate survives
    compaction.
    """
    if not predicate(formula):
        raise ValueError("predicate does not hold for the input formula")

    n = formula.n

    def holds(clauses: Sequence) -> bool:
        try:
            return bool(predicate(TabularFormula(n, tuple(clauses))))
        except ValueError:
            return False

    clauses = list(formula.clauses)
    granularity = 2
    while len(clauses) >= 2:
        size = len(clauses) // granularity
        chunks = [clauses[i:i + size] for i in range(0, len(clauses), size)]
        reduced = False
        for i in range(len(chunks)):
            rest = [c for j, chunk in enumerate(chunks) if j != i for c in chunk]
            if rest and holds(rest):
                clauses = rest
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if size == 1:
                break
            granularity = min(len(clauses), granularity * 2)

    result = TabularFormula(n, tuple(clauses))
    if not predicate(result):
        raise MinimizationError("predicate flipped on the minimized formula")
    compacted = _compact_variables(result)
    if compacted is not result and predicate(compacted):
        result = compacted
    return result


def _compact_variables(formula: TabularFormula) -> TabularFormula:
    used = sorted({v for c in formula.clauses for v in c.variables()})
    if not used:
        return formula
    renumber = {v: i + 1 for i, v in enumerate(used)}
    new_n = max(3, len(used))
    if new_n == formula.n and all(renumber[v] == v for v in used):
        return formula
    from .formula import Clause
    clauses = tuple(Clause(tuple((renumber[v], mark) for v, mark in c.entries))
                    for c in formula.clauses)
    return TabularFormula(new_n, clauses)
