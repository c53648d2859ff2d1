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

The (kind, stage) of each verdict is pinned too, by the fingerprint
the benchmark prints: a change that moves only counters or the evidence
of a refutation moves the digests and keeps the fingerprints.

The decomposition is pinned the same way, by sha256 over every CTF's
permutation and tier masks, so that a change that moves CTFs without
moving a verdict still shows.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

import pytest

from conftest import scrambled
from ctsat.decompose import decompose
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


@lru_cache(maxsize=None)
def family_verdicts(name: str, scramble: bool) -> tuple:
    """The family's verdicts in instance order, classified once per
    session."""
    verdicts = []
    for i, p in enumerate(family_params(name)):
        formula = generate(p)
        if scramble:
            formula = scrambled(formula, random.Random(i))
        verdicts.append(classify(formula))
    return tuple(verdicts)


def family_digest(name: str, scramble: bool = False) -> str:
    h = hashlib.sha256()
    for verdict in family_verdicts(name, scramble):
        h.update(verdict.to_json().encode())
    return h.hexdigest()[:16]


def family_fingerprint(name: str) -> str:
    """sha256 over one "kind stage" line per instance, in instance
    order, as the benchmark's verdict fingerprint."""
    h = hashlib.sha256()
    for verdict in family_verdicts(name, False):
        h.update(("%s %s\n" % (verdict.kind, verdict.stage)).encode())
    return h.hexdigest()[:16]


def decomposition_digest(name: str) -> str:
    """sha256 over one line per instance, in instance order: the
    (permutation, tier masks) of each of its CTFs."""
    h = hashlib.sha256()
    for p in family_params(name):
        ctfs, _ = decompose(generate(p))
        h.update(b"%r\n" % [(ctf.perm.order, ctf.tiers) for ctf in ctfs])
    return h.hexdigest()[:16]


PINS = {
    "sweep_small": "f498f54ded2dad9b",
    "free_n40": "c72ec5d333f3c81f",
    "planted_n24": "78d561614c627ea8",
}


# what each verdict is and where it was decided, without its counters
# and evidence: a change that moves only wave counts or the evidence of
# a refutation keeps these
FINGERPRINTS = {
    "sweep_small": "46b21259033aca56",
    "free_n40": "8c600d5747aaacea",
    "planted_n24": "97ad3fdbf55ef74a",
}


DECOMPOSITION_PINS = {
    "sweep_small": "8a51adab9d74e864",
    "free_n40": "713bb9dfab62c582",
    "planted_n24": "24e15f3f91657cf1",
}


@pytest.mark.parametrize(
    "family, scramble",
    [(name, scramble) for scramble in (False, True) for name in PINS],
    ids=[name + suffix for suffix in ("", "-scrambled") for name in PINS])
def test_verdicts_match_the_pinned_digest(family, scramble):
    assert family_digest(family, scramble) == PINS[family]


@pytest.mark.parametrize("family", FINGERPRINTS)
def test_kinds_and_stages_match_the_pinned_fingerprint(family):
    assert family_fingerprint(family) == FINGERPRINTS[family]


@pytest.mark.parametrize("family", DECOMPOSITION_PINS)
def test_decompositions_match_the_pinned_digest(family):
    assert decomposition_digest(family) == DECOMPOSITION_PINS[family]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_verdict_pins.py
    for name in PINS:
        print(name, family_digest(name), family_digest(name, True),
              "fingerprint", family_fingerprint(name),
              "decomposition", decomposition_digest(name))
