"""Opt-in threshold tier: free 3-SAT at m = round(4.26 n), judged by DPLL.

The `hard` marker keeps these cases out of the default run (see
pyproject.toml); run them with `python -m pytest -m hard`. They take
about a minute on two cores, most of it in n = 50 seed 0.
"""

from __future__ import annotations

import pytest

from ctsat import GenParams, classify
from ctsat.formula import generate
from ctsat.oracle import dpll
from ctsat.sep import CLASSIFICATION_FAILURE, SATISFIABLE

# DPLL finds n = 50 seed 0 unsatisfiable, yet the systemic procedure
# ends with a complete non-empty system from which extraction finds no
# route: the open counterexample to the paper's completeness claim
KNOWN_FAILURES = {(50, 0)}


@pytest.mark.hard
@pytest.mark.parametrize("n, seed", [(40, 0), (40, 1), (40, 2), (40, 3),
                                     (50, 0), (50, 1)])
def test_threshold_verdicts_agree_with_dpll(n, seed):
    formula = generate(GenParams(n=n, m=round(4.26 * n), mode="free",
                                 seed=seed))
    verdict = classify(formula)
    satisfiable = dpll(formula).satisfiable
    if (n, seed) in KNOWN_FAILURES:
        assert verdict.kind == CLASSIFICATION_FAILURE
        assert not satisfiable
    else:
        assert verdict.kind != CLASSIFICATION_FAILURE
        assert (verdict.kind == SATISFIABLE) == satisfiable
