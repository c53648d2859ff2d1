"""Every verdict on the benchmark's instance families, pinned by digest.

Each family's digest is sha256 over the concatenated
`classify(generate(p)).to_json()` bytes, in instance order. A change
that must keep every verdict byte-identical keeps these digests; a
deliberate change of verdicts updates the pin here and records the new
digest, and why it moved, in CHANGES.md; running this file as a script
prints the current digests, as given and scrambled.

The scrambled variant classifies each formula with its clauses
shuffled and some of them repeated (instance i scrambled by
`random.Random(i)`). `classify` works on the input as given, so it must
hit the same pin: a verdict may depend only on the set of clauses.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import scrambled
from ctsat.difftest import DifftestParams, instance_params
from ctsat.formula import GenParams, generate
from ctsat.sep import classify


def family_params(name: str) -> list[GenParams]:
    if name == "sweep_small":
        params = DifftestParams(n_range=(5, 16), m_ratio=(3.0, 6.0),
                                count=1000, seed=20240601)
        return [instance_params(params, i) for i in range(params.count)]
    if name == "free_n40":
        return [GenParams(n=40, m=240, mode="free", seed=s) for s in range(6)]
    return [GenParams(n=24, m=102, mode="sat", seed=s) for s in range(6)]


def family_digest(name: str, scramble: bool = False) -> str:
    h = hashlib.sha256()
    for i, p in enumerate(family_params(name)):
        formula = generate(p)
        if scramble:
            formula = scrambled(formula, random.Random(i))
        h.update(classify(formula).to_json().encode())
    return h.hexdigest()[:16]


PINS = {
    "sweep_small": "a6c1e9b459b35cac",
    "free_n40": "3f074d10bd8ed034",
    "planted_n24": "728e17e6b105800c",
}


@pytest.mark.parametrize(
    "family, scramble",
    [(name, scramble) for scramble in (False, True) for name in PINS],
    ids=[name + suffix for suffix in ("", "-scrambled") for name in PINS])
def test_verdicts_match_the_pinned_digest(family, scramble):
    assert family_digest(family, scramble) == PINS[family]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_verdict_pins.py
    for name in PINS:
        print(name, family_digest(name), family_digest(name, True))
