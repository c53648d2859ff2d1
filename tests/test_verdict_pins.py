"""Every verdict on the benchmark's instance families, pinned by digest.

Each family's digest is sha256 over the concatenated
`classify(generate(p)).to_json()` bytes, in instance order. A change
that must keep every verdict byte-identical keeps these digests; a
deliberate change of verdicts updates the pin here and records the new
digest, and why it moved, in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

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


@pytest.mark.parametrize("family, digest", [
    ("sweep_small", "9546c609ff6ad998"),
    ("free_n40", "546e585bcc9c5096"),
    ("planted_n24", "3af6790085400da3"),
])
def test_verdicts_match_the_pinned_digest(family, digest):
    h = hashlib.sha256()
    for p in family_params(family):
        h.update(classify(generate(p)).to_json().encode())
    assert h.hexdigest()[:16] == digest
