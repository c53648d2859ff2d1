"""Run the untraced benchmark once per seed and print each end-to-end
metric's median and quartile spread (IQR as a share of the median).

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload unsat_n40 --seeds 1 2 3 4 5

Runs are sequential, so they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads(SPEC.read_text())["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds),
             "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (
                seed, result["correct"], result["failed"]))
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        print("%-24s median %-12.6g spread %.4f  bound %.4f%s" % (
            name, med, spread, bounds[name],
            "" if spread < bounds[name] / 3 else "  (>= bound/3)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
