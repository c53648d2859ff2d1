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
    (40, 0): "d429ccbe514df0104eb7be789238b104d2a52ab1695a28517ffc82e42cee2483",
    (40, 1): "1d396709dbe23724c02d62917954e52aba273538b396af047eb333cb722f29e3",
    (40, 2): "87c946061f1cfc4a2939d5cf165b9449c6f49808f200ed662e656f4d75e65222",
    (40, 3): "940fd4d8168c740b8e848bdbe675d5d6b5161d7ff3a50f2145c79446d403ee70",
    (50, 0): "c9be0f2d0f925a7a1412507d672c22aeb37cc36dd12ec2a6641c3b432bb9c2c2",
    (50, 1): "124d2f70c19d0381bba6801c78fcc7c2dce684746f67cbd7d157055ef851bfcc",
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
