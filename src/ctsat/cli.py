"""Command-line front end.

Verdict-producing subcommands (classify, oracle) signal the outcome via
the exit code: 10 satisfiable, 20 unsatisfiable, 30 classification
failure. Exit 0 means plain success for the other subcommands; exit 1
covers usage and I/O errors, so scripts can tell a crash from an UNSAT.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .difftest import DifftestParams, difftest
from .formula import DimacsError, GenParams, generate, parse_dimacs
from .oracle import brute_force, dpll
from .sep import classify
from .trace import FileTraceSink


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _range_pair(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi) if hi else int(lo)


def _ratio_pair(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition("..")
    return float(lo), float(hi) if hi else float(lo)


def _load_formula(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise SystemExit("cannot read %s: %s" % (path, exc))
    try:
        return parse_dimacs(text)
    except DimacsError as exc:
        raise SystemExit("%s: %s" % (path, exc))


def _load_plan(path: str):
    """Plan file: per CTF one `perm:` line (variable order) followed by
    one `clauses:` line (1-based indices)."""
    plan = []
    perm = None
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#")[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        values = rest.split()
        if key.strip() == "perm":
            perm = [int(v) for v in values]
        elif key.strip() == "clauses":
            if perm is None:
                raise SystemExit("%s: clauses line before perm line" % path)
            plan.append((perm, [int(v) for v in values]))
            perm = None
        else:
            raise SystemExit("%s: unknown plan line %r" % (path, raw))
    if perm is not None:
        raise SystemExit("%s: trailing perm line without clauses" % path)
    if not plan:
        raise SystemExit("%s: empty plan" % path)
    return plan


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctsat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a DIMACS instance")
    p.add_argument("file")
    p.add_argument("--trace", metavar="DIR", help="dump pipeline stages")
    p.add_argument("--strategy", choices=["simple", "assemble"],
                   default="assemble")
    p.add_argument("--plan", metavar="FILE",
                   help="pinned decomposition plan (perm/clauses lines)")

    p = sub.add_parser("oracle", help="ground-truth verdict")
    p.add_argument("file")
    p.add_argument("--engine", choices=["dpll", "brute"], default="dpll")

    p = sub.add_parser("gen", help="emit a random DIMACS instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--neg", type=float, default=0.5)
    p.add_argument("--mode", choices=["free", "sat", "unsat"], default="free")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("difftest", help="differential sweep vs the oracle")
    p.add_argument("--n-range", type=_range_pair, required=True, metavar="A..B")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m-range", type=_range_pair, metavar="C..D")
    group.add_argument("--m-ratio", type=_ratio_pair, metavar="X..Y",
                       help="clause count as a multiple of n")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neg", type=float, default=0.5)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("trace", help="dump all pipeline stages for a file")
    p.add_argument("file")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--strategy", choices=["simple", "assemble"],
                   default="assemble")
    p.add_argument("--plan", metavar="FILE")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SystemExit:
        raise
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "classify":
        formula = _load_formula(args.file)
        sink = FileTraceSink(args.trace) if args.trace else None
        plan = _load_plan(args.plan) if args.plan else None
        verdict = classify(formula, strategy=args.strategy, plan=plan,
                           sink=sink)
        print("\n".join(verdict.lines()))
        return verdict.exit_code

    if args.command == "oracle":
        formula = _load_formula(args.file)
        result = dpll(formula) if args.engine == "dpll" else brute_force(formula)
        if result.satisfiable:
            print("verdict: satisfiable")
            print("witness: %s" % "".join(map(str, result.witness)))
            if result.model_count is not None:
                print("models: %d" % result.model_count)
            return 10
        print("verdict: unsatisfiable")
        if result.model_count is not None:
            print("models: 0")
        return 20

    if args.command == "gen":
        try:
            params = GenParams(n=args.n, m=args.m, negation_fraction=args.neg,
                               mode=args.mode, seed=args.seed)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        text = generate(params).to_dimacs(
            comments=["mode %s seed %d" % (args.mode, args.seed)])
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "difftest":
        try:
            params = DifftestParams(
                n_range=args.n_range, m_range=args.m_range,
                m_ratio=args.m_ratio, count=args.count, seed=args.seed,
                negation_fraction=args.neg)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        report = difftest(params, args.out, jobs=args.jobs)
        print("\n".join(report.summary_lines()))
        return 0

    if args.command == "trace":
        formula = _load_formula(args.file)
        sink = FileTraceSink(args.out)
        plan = _load_plan(args.plan) if args.plan else None
        verdict = classify(formula, strategy=args.strategy, plan=plan,
                           sink=sink)
        print("\n".join(verdict.lines()))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
