"""Claim experiments under mutants that break their claim: each must fail.

A mutant is a monkeypatch that makes the library wrong in exactly the way an
experiment's claim rules out.  An experiment that still passes under such a
mutant cannot tell working code from broken code.
"""
import numpy as np
import pytest

from clonebench import fuzzy, repro

SEED = 2026


def _decode_to_zeros(monkeypatch):
    """Majority decoding that returns all-zero blocks, whatever it reads."""
    monkeypatch.setattr(fuzzy, "majority_decode", lambda coded, params: np.zeros(params.n_blocks, dtype=np.uint8))


MUTANTS = {"majority-decode-zero": _decode_to_zeros}

#: (experiment, mutant) pairs in which the experiment must notice the mutant
CELLS = [
    # both authentication rates fall to 0, which alone sits within the clone's 2% tolerance
    ("readout-clone", "majority-decode-zero"),
]


@pytest.mark.parametrize("experiment, mutant", CELLS, ids=[f"{e}-{m}" for e, m in CELLS])
def test_experiment_fails_under_a_mutant_of_its_claim(monkeypatch, experiment, mutant):
    MUTANTS[mutant](monkeypatch)
    assert repro.run(experiment, SEED)["passed"] is False
