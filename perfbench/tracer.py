"""Stage spans and Cts primitive counts, recorded from outside ctsat.

`Tracer.install` replaces public module-level functions (and two
methods) with wrappers and `Tracer.uninstall` puts the originals back;
nothing in ctsat is edited. Stage functions get spans (name, start,
end, parent, instance). The Cts primitives are only counted, with a
reservoir sample of operands and results kept for `replay`: timing
wrappers around calls this small would inflate the traced run and
misattribute the time to the primitives.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import ctsat.cts
import ctsat.decompose
import ctsat.hyper
import ctsat.sep

# (module or class, attribute, span name); the name of ctsat.sep.unify
# is decided per call, from its parent span
STAGES = (
    (ctsat.sep, "decompose", "decompose"),
    (ctsat.sep, "ctf_to_cts", "decompose.ctf_to_cts"),
    (ctsat.sep, "unify", None),
    (ctsat.sep, "systemic_effective_procedure", "sep"),
    (ctsat.sep, "concordant_shift", "sep.shift"),
    (ctsat.sep, "extract_jss_system", "sep.extract"),
    (ctsat.sep, "basic_graph", "hyper.basic_graph"),
    (ctsat.hyper.TierGraph, "prune", "hyper.prune"),
)

# unify() imports clear_masks from ctsat.cts on every call and the Cts
# methods look it up there, but ctsat.decompose bound it at import
PRIMITIVES = (
    (ctsat.cts, "clear_masks", "clear_masks"),
    (ctsat.decompose, "clear_masks", "clear_masks"),
    (ctsat.cts.Cts, "intersect", "intersect"),
    (ctsat.cts.Cts, "union", "union"),
    # Cts.concretize goes through concretize_many
    (ctsat.cts.Cts, "concretize_many", "concretize"),
)
PRIMITIVE_NAMES = ("clear_masks", "intersect", "union", "concretize")

SAMPLE_EVERY = 64      # calls between reservoir candidates
SAMPLE_SIZE = 2000     # operands kept per primitive


class Tracer:
    def __init__(self, seed: int):
        self.spans: list[list] = []   # [name, start, end, parent, instance]
        self.stack = [-1]
        self.instance = -1
        self.unify_waves = Counter()     # span name -> UnifyResult.waves
        self.unify_empty = Counter()     # span name -> emptied calls
        self.shifts_kept = 0
        self.counts = Counter()          # primitive -> calls
        self.samples = {name: [] for name in PRIMITIVE_NAMES}
        self._rng = random.Random(seed)
        self._saved: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark's own calls go through here."""
        spans, stack = self.spans, self.stack
        parent = stack[-1]
        if name is None:
            name = "unify.top" if spans[parent][0] == "classify" else "sep.unify"
        idx = len(spans)
        span = [name, 0.0, 0.0, parent, self.instance]
        spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if name in ("unify.top", "sep.unify"):
            self.unify_waves[name] += result.waves
            self.unify_empty[name] += result.empty
        elif name == "sep.shift":
            self.shifts_kept += result is not None
        return result

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- primitive counts and operand capture ----------------------------

    def _keep(self, name: str, n: int, item) -> None:
        sample = self.samples[name]
        k = n // SAMPLE_EVERY
        if len(sample) < SAMPLE_SIZE:
            sample.append(item)
        else:
            j = self._rng.randrange(k)
            if j < SAMPLE_SIZE:
                sample[j] = item

    def _count_wrapper(self, name, fn):
        counts = self.counts

        if name == "clear_masks":
            def wrapper(masks):
                n = counts[name] = counts[name] + 1
                if n % SAMPLE_EVERY:
                    return fn(masks)
                before = tuple(masks)   # clear_masks mutates its argument
                out, idx = fn(masks)
                self._keep(name, n, (before, (tuple(out), idx)))
                return out, idx
        elif name == "concretize":
            def wrapper(cts, pairs):
                n = counts[name] = counts[name] + 1
                if n % SAMPLE_EVERY:
                    return fn(cts, pairs)
                pairs = tuple(pairs)
                out = fn(cts, pairs)
                self._keep(name, n, (cts, pairs, out))
                return out
        else:
            def wrapper(cts, other):
                n = counts[name] = counts[name] + 1
                if n % SAMPLE_EVERY:
                    return fn(cts, other)
                out = fn(cts, other)
                self._keep(name, n, (cts, other, out))
                return out
        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in STAGES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span_wrapper(name, fn))
        for owner, attr, name in PRIMITIVES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- summaries ------------------------------------------------------

    def rebase(self, clock, first: int = 0) -> None:
        """Convert the stamps of spans[first:] to the clock's reference
        time (offset by its wall start)."""
        for span in self.spans[first:]:
            span[1] = clock.start + clock.ref(span[1])
            span[2] = clock.start + clock.ref(span[2])

    def stage_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus its children's durations;
        spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {name: tuple(row) for name, row in out.items()}


def replay(samples: dict[str, list], repeats: int = 7) -> dict[str, list]:
    """Replay each primitive's captured operands on the unwrapped code.

    Raises ValueError when a replayed result differs from the captured
    one. Then runs each sample `repeats` times in a tight loop and
    returns, per primitive, (start, end, calls) perf_counter stamps of
    every repeat.
    """
    Cts, clear_masks = ctsat.cts.Cts, ctsat.cts.clear_masks
    ops = {"intersect": Cts.intersect, "union": Cts.union,
           "concretize": Cts.concretize_many}
    for before, expected in samples["clear_masks"]:
        masks, idx = clear_masks(list(before))
        if (tuple(masks), idx) != expected:
            raise ValueError("clear_masks replay differs on %r" % (before,))
    for name, op in ops.items():
        for a, b, expected in samples[name]:
            if op(a, b) != expected:
                raise ValueError("%s replay differs on %r, %r" % (name, a, b))

    out: dict[str, list] = {name: [] for name in PRIMITIVE_NAMES}
    for _ in range(repeats):
        inputs = [list(before) for before, _ in samples["clear_masks"]]
        t0 = time.perf_counter()
        for masks in inputs:
            clear_masks(masks)
        out["clear_masks"].append((t0, time.perf_counter(), len(inputs)))
        for name, op in ops.items():
            sample = samples[name]
            t0 = time.perf_counter()
            for a, b, _ in sample:
                op(a, b)
            out[name].append((t0, time.perf_counter(), len(sample)))
    return out
