"""The ctsat benchmark: classify a pinned instance family, check every
verdict, and print the metrics as JSON on the last line of stdout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 12 --trace 0

Each workload is a closed loop: one process, one caller, the next
instance starts when the previous one is classified. --trace 0 times
whole passes over the workload's fixed instance set until --seconds
have elapsed and prints the end-to-end metrics. --trace 1 runs that
untraced measurement in a child process, then one traced pass in this
process, and prints the per-layer metrics. The metric names and units
come from BENCHMARK.json. Every time is in reference seconds, which
discount the changing speed of a shared machine (see refclock.py).
See perfbench/DESIGN.md for the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from refclock import RefClock
from workloads import WORKLOADS, timed_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SPAN_DIR = ROOT / ".perfbench"


def _metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _stage(verdict) -> str:
    """The pipeline exit an instance took."""
    if verdict is None:
        return "exception"
    if verdict.kind != "satisfiable":
        return verdict.stage or verdict.kind
    if "backtracks" in verdict.detail:
        return "extract"
    if verdict.detail.get("early_exit"):
        return "early-sat"
    return "sat"


def fingerprint(verdicts: list) -> str:
    """Hash of (kind, stage) per instance, in instance-index order."""
    h = hashlib.sha256()
    for v in verdicts:
        h.update(("exception\n" if v is None
                  else "%s %s\n" % (v.kind, v.stage)).encode())
    return h.hexdigest()[:16]


def classify_pass(formulas, order, call) -> tuple[list, list, float, RefClock]:
    """Classify every instance once, in `order`, through call(i, formula).

    Returns the verdicts by instance index (None where classify raised),
    the per-call times in run order, the pass's time, all in reference
    seconds, and the clock that measured them.
    """
    verdicts: list = [None] * len(formulas)
    stamps = []
    with RefClock() as clock:
        start = time.perf_counter()
        for i in order:
            t0 = time.perf_counter()
            try:
                verdicts[i] = call(i, formulas[i])
            except Exception:
                # an exception is a failed instance, not the end of the run
                traceback.print_exc()
            stamps.append((t0, time.perf_counter()))
        end = time.perf_counter()
    return (verdicts, [clock.elapsed(t0, t1) for t0, t1 in stamps],
            clock.elapsed(start, end), clock)


def check(formulas, verdicts, dpll) -> tuple[int, bool]:
    """Check every verdict outside the timed window.

    Returns (failed instances, whether every output was correct). A
    satisfiable verdict whose witness does not satisfy its formula
    aborts the run. A classification failure or an exception is a failed
    instance; a verdict that disagrees with dpll is failed and wrong.
    """
    failed, correct = 0, True
    for i, (f, v) in enumerate(zip(formulas, verdicts)):
        if v is not None and v.kind == "satisfiable" and f.evaluate(v.witness) != 1:
            sys.exit("perfbench: instance %d: witness does not satisfy the formula" % i)
        oracle_sat = dpll(i, f).satisfiable
        if v is None or v.kind == "classification-failure":
            failed += 1
        elif (v.kind == "satisfiable") != oracle_sat:
            print("perfbench: instance %d: %s, dpll says %s" % (
                i, v.kind, "satisfiable" if oracle_sat else "unsatisfiable"),
                file=sys.stderr)
            failed += 1
            correct = False
    return failed, correct


def report(workload, verdicts, extra: str = "") -> str:
    fp = fingerprint(verdicts)
    mix = Counter(_stage(v) for v in verdicts)
    print("perfbench: %s %s" % (workload.name, extra))
    print("perfbench: exits %s" % " ".join(
        "%s=%d" % kv for kv in sorted(mix.items())))
    print("perfbench: fingerprint %s" % fp)
    return fp


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_samples(workload, count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_sample.py"), workload.name],
            check=True, capture_output=True, text=True, timeout=60)
        out.append(float(proc.stdout))
    return out


def untraced_run(workload, seed: int, seconds: float) -> dict:
    setup, _, formulas = timed_setup(workload)
    # sampled on both sides of the pass, so that one slow stretch of a
    # shared machine does not set the median
    setups = [setup] + setup_samples(workload, SETUP_SAMPLES // 2)
    from ctsat import classify
    from ctsat.oracle import dpll

    order = list(range(len(formulas)))
    random.Random(seed).shuffle(order)
    latencies, elapsed, passes = [], 0.0, 0
    while passes == 0 or elapsed < seconds:
        verdicts, lat, dt, _ = classify_pass(formulas, order,
                                             lambda i, f: classify(f))
        latencies += lat
        elapsed += dt
        passes += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += setup_samples(workload, SETUP_SAMPLES - len(setups))

    # classify is deterministic, so the last pass stands for every pass
    failed, correct = check(formulas, verdicts, lambda i, f: dpll(f))
    report(workload, verdicts, "seed=%d passes=%d samples=%d" % (
        seed, passes, len(latencies)))
    attempted = len(latencies)
    failed *= passes
    metrics = {
        "throughput_inst_per_s": attempted / elapsed,
        "latency_p50_s": statistics.median(latencies),
        "latency_p99_s": _quantile(latencies, 99),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib,
        "verified_frac": (attempted - failed) / attempted,
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _child_untraced(workload, seed: int, seconds: float) -> tuple[dict, str]:
    """The untraced measurement, in a fresh process so that the traced
    pass starts with the same cold caches as an untraced one."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload.name, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.splitlines()
    fp = next(line.split()[-1] for line in lines
              if line.startswith("perfbench: fingerprint "))
    return json.loads(lines[-1]), fp


def traced_run(workload, seed: int, seconds: float) -> dict:
    untraced, untraced_fp = _child_untraced(workload, seed, seconds)
    _, generate_s, formulas = timed_setup(workload)
    from ctsat import classify
    from ctsat.oracle import dpll
    from tracer import Tracer, replay

    tracer = Tracer(seed)
    order = list(range(len(formulas)))
    random.Random(seed).shuffle(order)

    def traced_classify(i, f):
        tracer.instance = i
        return tracer.call("classify", classify, f)

    tracer.install()
    try:
        verdicts, _, traced_s, clock = classify_pass(formulas, order,
                                                     traced_classify)
    finally:
        tracer.uninstall()
    tracer.rebase(clock)

    def traced_dpll(i, f):
        tracer.instance = i
        return tracer.call("oracle.dpll", dpll, f)

    first = len(tracer.spans)
    with RefClock() as clock:
        failed, correct = check(formulas, verdicts, traced_dpll)
    tracer.rebase(clock, first)
    fp = report(workload, verdicts, "seed=%d traced pass" % seed)
    correct = correct and untraced["correct"]
    if fp != untraced_fp:
        print("perfbench: tracing changed the verdicts", file=sys.stderr)
        correct = False
    ns = {}
    try:
        with RefClock() as clock:
            stamps = replay(tracer.samples)
    except ValueError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        correct = False
    else:
        ns = {name: statistics.median(clock.elapsed(t0, t1) / calls
                                      for t0, t1, calls in rows) * 1e9
              for name, rows in stamps.items() if rows[0][2]}

    stages = tracer.stage_times()
    counters = _program_counters(verdicts)
    if (counters["unify_waves"] != tracer.unify_waves["unify.top"]
            or counters["sep_unify_waves"] != tracer.unify_waves["sep.unify"]):
        print("perfbench: unify spans misattributed", file=sys.stderr)
        correct = False
    classify_s = stages["classify"][1]
    self_total = sum(row[2] for name, row in stages.items()
                     if name != "oracle.dpll")
    if abs(self_total - classify_s) > 1e-6 * classify_s:
        print("perfbench: stage self times sum to %.6f s, classify took %.6f s"
              % (self_total, classify_s), file=sys.stderr)
        correct = False

    SPAN_DIR.mkdir(exist_ok=True)
    (SPAN_DIR / ("spans-%s-seed%d.json" % (workload.name, seed))).write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "instance"],
                    "spans": tracer.spans}))

    def total(name):
        return stages.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return stages.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return stages.get(name, (0, 0.0, 0.0))[0]

    def frac(a, b):
        return a / b if b else 0.0

    n = len(formulas)
    decomposed = max(1, counters["decomposed"])
    metrics = {
        "formula.generate_s": generate_s,
        "decompose.s": total("decompose"),
        "decompose.ctf_to_cts.s": total("decompose.ctf_to_cts"),
        "decompose.k_mean": counters["k"] / decomposed,
        "decompose.w_mean": counters["w"] / decomposed,
        "decompose.cts_empty_frac": counters["exit_cts"] / n,
        "unify.top.calls": calls("unify.top"),
        "unify.top.s": total("unify.top"),
        "unify.top.waves": counters["unify_waves"],
        "unify.top.empty_frac": frac(tracer.unify_empty["unify.top"],
                                     calls("unify.top")),
        "sep.calls": calls("sep"),
        "sep.s": total("sep"),
        "sep.self_s": self_time("sep"),
        "sep.unify.calls": calls("sep.unify"),
        "sep.unify.s": total("sep.unify"),
        "sep.unify.waves": counters["sep_unify_waves"],
        "sep.shift.calls": calls("sep.shift"),
        "sep.shift.self_s": self_time("sep.shift"),
        "sep.shift.kept_frac": frac(tracer.shifts_kept, calls("sep.shift")),
        "sep.pruned_vertices": counters["pruned_vertices"],
        "sep.pruned_edges": counters["pruned_edges"],
        "sep.recompute_rounds": counters["recompute_rounds"],
        "sep.early_sat_frac": frac(counters["early_exit"], calls("sep")),
        "sep.extract.calls": calls("sep.extract"),
        "sep.extract.s": total("sep.extract"),
        "sep.extract.backtracks": counters["backtracks"],
        "hyper.basic_graph.s": total("hyper.basic_graph"),
        "hyper.prune.calls": calls("hyper.prune"),
        "hyper.prune.s": total("hyper.prune"),
        "oracle.dpll.calls": calls("oracle.dpll"),
        "oracle.dpll.s": total("oracle.dpll"),
        "classify.s": classify_s,
        "classify.self_s": self_time("classify"),
        "trace.leftover_frac": frac(self_time("classify"), classify_s),
        "trace.overhead_frac": (traced_s / n) * untraced["metrics"][
            "throughput_inst_per_s"]["value"] - 1,
    }
    for name in ("clear_masks", "intersect", "union", "concretize"):
        metrics["cts.%s.calls" % name] = tracer.counts[name]
        metrics["cts.%s.ns" % name] = ns.get(name, 0.0)
    return {"correct": correct, "attempted": n, "failed": failed,
            "metrics": metrics}


def _program_counters(verdicts) -> Counter:
    """Sums of the counters classify reports in Verdict.detail."""
    c = Counter()
    for v in verdicts:
        if v is None:
            continue
        d = v.detail
        c["exit_%s" % _stage(v)] += 1
        if "k" in d:
            c["decomposed"] += 1
            c["k"] += d["k"]
            c["w"] += d["w"]
        c["unify_waves"] += d.get("unify_waves", 0)
        c["backtracks"] += d.get("backtracks", 0)
        c["early_exit"] += bool(d.get("early_exit"))
        sep = d.get("sep", {})
        c["sep_unify_waves"] += sep.get("unify_waves", 0)
        for key in ("pruned_vertices", "pruned_edges", "recompute_rounds"):
            c[key] += sep.get(key, 0)
    return c


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctsat" / "__init__.py").is_file():
        sys.exit("perfbench: no ctsat sources under %s" % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))

    units = _metric_units()["per_layer" if args.trace else "end_to_end"]
    run = traced_run if args.trace else untraced_run
    result = run(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json"
                 % sorted(set(metrics) ^ set(units)))
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
