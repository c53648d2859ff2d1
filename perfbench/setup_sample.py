"""Print one set-up time sample, in seconds, for a workload.

Usage: python3 perfbench/setup_sample.py <workload>

It must run in a fresh interpreter, because it times the first import
of ctsat; run.py starts it once per extra sample.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, timed_setup  # noqa: E402

if __name__ == "__main__":
    print(repr(timed_setup(WORKLOADS[sys.argv[1]])[0]))
