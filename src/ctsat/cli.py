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

from .decompose import decompose_with_plan
from .difftest import DifftestParams, difftest
from .formula import MODES, DimacsError, GenParams, generate, parse_dimacs
from .oracle import brute_force, dpll
from .sep import EXIT_CODES, SATISFIABLE, UNSATISFIABLE, classify
from .trace import FileTraceSink


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _pair(kind: type):
    """The argparse type of an `A..B` range (`A` alone meaning `A..A`)
    with both ends of type `kind`; an empty end (`A..`) is an error."""
    def parse(text: str) -> tuple:
        lo, dots, hi = text.partition("..")
        return kind(lo), kind(hi if dots else lo)
    parse.__name__ = "%s range" % kind.__name__
    return parse


def _load_formula(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise SystemExit("cannot read %s: %s" % (path, exc))
    try:
        return parse_dimacs(text)
    except DimacsError as exc:
        raise SystemExit("%s: %s" % (path, exc))


def _load_plan(path: str, formula):
    """Plan file: per CTF one `perm:` line (variable order) followed by
    one `clauses:` line (1-based indices). The plan is checked against
    the formula here, so a bad one exits like a bad DIMACS file."""
    plan = []
    perm = None
    try:
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#")[0].strip()
            if not line:
                continue
            key, _, rest = line.partition(":")
            key = key.strip()
            if key not in ("perm", "clauses"):
                raise ValueError("unknown plan line %r" % raw)
            values = [int(v) for v in rest.split()]
            if key == "perm":
                perm = values
            elif perm is None:
                raise ValueError("clauses line before perm line")
            else:
                plan.append((perm, values))
                perm = None
        if perm is not None:
            raise ValueError("trailing perm line without clauses")
        if not plan:
            raise ValueError("empty plan")
        decompose_with_plan(formula, plan)
    except ValueError as exc:
        raise SystemExit("%s: %s" % (path, exc))
    return plan


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctsat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a DIMACS instance")
    p.add_argument("file")
    p.add_argument("--trace", metavar="DIR", help="dump pipeline stages")
    p.add_argument("--plan", metavar="FILE",
                   help="pinned decomposition plan (perm/clauses lines)")

    p = sub.add_parser("oracle", help="ground-truth verdict")
    p.add_argument("file")
    p.add_argument("--engine", choices=["dpll", "brute"], default="dpll")

    p = sub.add_parser("gen", help="emit a random DIMACS instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--neg", type=float, default=0.5)
    p.add_argument("--mode", choices=MODES, default="free")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("difftest", help="differential sweep vs the oracle")
    p.add_argument("--n-range", type=_pair(int), required=True, metavar="A..B")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m-range", type=_pair(int), metavar="C..D")
    group.add_argument("--m-ratio", type=_pair(float), metavar="X..Y",
                       help="clause count as a multiple of n")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neg", type=float, default=0.5)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--jobs", type=int, default=1)

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
        # a rejected plan exits before the sink creates the trace directory
        plan = _load_plan(args.plan, formula) if args.plan else None
        sink = FileTraceSink(args.trace) if args.trace else None
        verdict = classify(formula, plan=plan, sink=sink)
        print("\n".join(verdict.lines()))
        return verdict.exit_code

    if args.command == "oracle":
        formula = _load_formula(args.file)
        try:
            result = dpll(formula) if args.engine == "dpll" else brute_force(formula)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        if result.satisfiable:
            print("verdict: satisfiable")
            print("witness: %s" % "".join(map(str, result.witness)))
            if result.model_count is not None:
                print("models: %d" % result.model_count)
            return EXIT_CODES[SATISFIABLE]
        print("verdict: unsatisfiable")
        if result.model_count is not None:
            print("models: 0")
        return EXIT_CODES[UNSATISFIABLE]

    if args.command == "gen":
        try:
            params = GenParams(n=args.n, m=args.m, negation_fraction=args.neg,
                               mode=args.mode, seed=args.seed)
            formula = generate(params)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        text = formula.to_dimacs(
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
            report = difftest(params, args.out, jobs=args.jobs)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        print("\n".join(report.summary_lines()))
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
