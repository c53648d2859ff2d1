"""The benchmark's pinned instance families.

Each workload is a fixed instance set: the heavy families have heavy
tails (one n=40 instance costs 1-6 s, one planted n=24 instance
0.2-10 s), so a set drawn anew per run would measure the draw, not the
program. The run seed only decides the order in which the set is
classified. Importing this module does not import ctsat, so that the
set-up timer can measure that import.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from refclock import RefClock

# criterion 7's difftest family (tests/test_acceptance.py)
SWEEP_PARAMS = dict(n_range=(5, 16), m_ratio=(3.0, 6.0), count=1000,
                    seed=20240601)


@dataclass(frozen=True)
class Workload:
    name: str
    count: int

    def gen_params(self) -> list:
        """The GenParams of every instance, in instance-index order."""
        from ctsat import GenParams
        if self.name == "sweep_small":
            from ctsat.difftest import DifftestParams, instance_params
            params = DifftestParams(**SWEEP_PARAMS)
            return [instance_params(params, i) for i in range(self.count)]
        if self.name == "unsat_n40":
            return [GenParams(n=40, m=240, mode="free", seed=s)
                    for s in range(self.count)]
        return [GenParams(n=24, m=102, mode="sat", seed=s)
                for s in range(self.count)]


WORKLOADS = {w.name: w for w in (
    # p99 needs ten samples beyond it: 1000 instances
    Workload("sweep_small", count=1000),
    Workload("unsat_n40", count=6),
    Workload("planted_n24", count=6),
)}


def timed_setup(workload: Workload) -> tuple[float, float, list]:
    """Import ctsat (which builds the lookup tables in cts and unify) and
    generate the workload's instances.

    Returns (set-up seconds, generation seconds, formulas), in
    reference seconds (see refclock). Building the
    GenParams is not timed: for sweep_small it imports ctsat.difftest,
    and with it the oracle's numpy.
    """
    with RefClock() as clock:
        t0 = time.perf_counter()
        import ctsat
        t1 = time.perf_counter()
        params = workload.gen_params()
        t2 = time.perf_counter()
        formulas = [ctsat.generate(p) for p in params]
        t3 = time.perf_counter()
    generate_s = clock.elapsed(t2, t3)
    return clock.elapsed(t0, t1) + generate_s, generate_s, formulas
