"""Opt-in threshold tier: free 3-SAT at m = round(4.26 n), judged by DPLL.

The `hard` marker keeps these cases out of the default run (see
pyproject.toml); run them with `python -m pytest -m hard`. They take
about a minute and a half on two cores, most of it in n = 50 seed 0.
"""

from __future__ import annotations

import hashlib

import pytest

from ctsat import GenParams, classify
from ctsat.decompose import ctf_to_cts, decompose
from ctsat.formula import generate
from ctsat.oracle import dpll
from ctsat.sep import (CLASSIFICATION_FAILURE, SATISFIABLE,
                       systemic_effective_procedure)

from naive import unify_cts

# DPLL finds n = 50 seed 0 unsatisfiable, yet the systemic procedure
# ends with a complete non-empty system from which extraction finds no
# route: the open counterexample to the paper's completeness claim
KNOWN_FAILURES = {(50, 0)}

# sha256 of classify(...).to_json() per case, so that a change meant to
# keep verdicts byte-identical also keeps the witnesses, the counters
# and the failure's diagnostics bundle
VERDICT_DIGESTS = {
    (40, 0): "9cb1b3c20bc585fe9333b3a44825b8aaed8dc1e8b5836d625ca4416a4c222ede",
    (40, 1): "aac1fc63fab1b819f63ea5bf80942c73cbef5c4b8f5641a328b48f48a0eb651e",
    (40, 2): "6798271f60feca45f34d26cef29ac243cb511e8a3a0061387e2372282631b494",
    (40, 3): "7a09209257786fc24aac2c3eea02476c5e5130dc29c4610d4264352b04e3c1b7",
    (50, 0): "03020e267401f853fa2fa28191b9a22737de29b67d58b200473ed31a0ca34fd1",
    (50, 1): "8580d69115ca3aba2e98c99ac71dffa0284932bd25673bff14f382fc4151c101",
}

# more instances on which the systemic procedure ends complete although
# DPLL finds the formula unsatisfiable; checked on the procedure's
# outcome alone, without extraction, so each costs seconds
SEP_COMPLETE_ON_UNSAT = [(49, 6), (49, 13), (50, 18), (50, 22), (50, 34),
                         (50, 35)]


def threshold_formula(n: int, seed: int):
    return generate(GenParams(n=n, m=round(4.26 * n), mode="free",
                              seed=seed))


@pytest.mark.hard
@pytest.mark.parametrize("n, seed", sorted(VERDICT_DIGESTS))
def test_threshold_verdicts_agree_with_dpll(n, seed):
    formula = threshold_formula(n, seed)
    verdict = classify(formula)
    satisfiable = dpll(formula).satisfiable
    if (n, seed) in KNOWN_FAILURES:
        assert verdict.kind == CLASSIFICATION_FAILURE
        assert not satisfiable
    else:
        assert verdict.kind != CLASSIFICATION_FAILURE
        assert (verdict.kind == SATISFIABLE) == satisfiable
    digest = hashlib.sha256(verdict.to_json().encode()).hexdigest()
    assert digest == VERDICT_DIGESTS[(n, seed)]


@pytest.mark.hard
@pytest.mark.parametrize("n, seed", SEP_COMPLETE_ON_UNSAT)
def test_sep_ends_complete_on_unsatisfiable_formulas(n, seed):
    formula = threshold_formula(n, seed)
    ctfs, _ = decompose(formula)
    structures = [ctf_to_cts(ctf) for ctf in ctfs]
    assert not any(s.is_empty for s in structures)
    unified = unify_cts(structures)
    assert not unified.empty
    basic, *others = unified.structures
    result = systemic_effective_procedure(basic, others, formula)
    assert result.outcome == "complete"
    assert not dpll(formula).satisfiable
