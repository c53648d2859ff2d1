"""The benchmark's tracer patches ctsat from outside, by attribute name.

These tests import `perfbench/tracer.py` as it is and check that every
name it patches still exists and that a traced classification records
the SEP spans, so a rename inside ctsat fails here and not only in the
benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from ctsat.formula import GenParams, generate
from ctsat.sep import UNSATISFIABLE, classify

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_mod():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_exist(tracer_mod):
    for owner, attr, _ in tracer_mod.STAGES + tracer_mod.PRIMITIVES:
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_traced_classification_records_sep_spans(tracer_mod):
    formula = generate(GenParams(n=12, m=70, mode="free", seed=20240676))
    untraced = classify(formula)
    assert untraced.stage == "sep"
    points = tracer_mod.STAGES + tracer_mod.PRIMITIVES
    originals = [getattr(owner, attr) for owner, attr, _ in points]

    tracer = tracer_mod.Tracer(0)
    tracer.install()
    try:
        traced = tracer.call("classify", classify, formula)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in points] == originals

    assert traced.kind == UNSATISFIABLE
    assert traced.to_json() == untraced.to_json()
    names = [span[0] for span in tracer.spans]
    parents = {}
    for name, _, _, parent, _ in tracer.spans:
        parents.setdefault(name, set()).add(
            tracer.spans[parent][0] if parent >= 0 else None)
    assert names.count("sep") == 1
    assert parents["sep"] == {"classify"}
    assert parents["hyper.basic_graph"] == {"sep"}
    assert parents["hyper.prune"] == {"sep"}
    assert parents["sep.shift"] == {"sep"}
    # one prune per formed tier
    assert names.count("hyper.prune") == traced.tier
    assert tracer.unify_waves["unify.top"] == traced.detail["unify_waves"]
    assert tracer.unify_waves["sep.unify"] == traced.detail["sep"]["unify_waves"]

    # this instance reaches extraction; the SEP works on stacked tuples
    # (concretizations fixed inside unify's buffer, project_lanes, one
    # OR per union and lane clears in extraction), so of the traced
    # primitives only decompose's clear_masks is called, and never
    # Cts.union, Cts.intersect or Cts.concretize_many
    formula = generate(GenParams(n=8, m=26, mode="sat", seed=20240722))
    untraced = classify(formula)
    tracer.install()
    try:
        traced = tracer.call("classify", classify, formula)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in points] == originals
    assert traced.to_json() == untraced.to_json()
    assert tracer.counts["clear_masks"] > 0
    assert (tracer.counts["union"] == tracer.counts["intersect"]
            == tracer.counts["concretize"] == 0)
