"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line with the measured values (run pytest
with -s to see them) and asserts the same condition, so a plain `pytest` run
is the gate.  The same experiments back the `clonebench repro <name>` verb.
"""
import math

import numpy as np
import pytest

from clonebench import BitString, substream
from clonebench import acoustic, attacks, fuzzy, protocol, puf, repro, suc, trails

SEED = repro.DEFAULT_SEED


def _report(index, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {index:02d} {name}: {detail}")
    assert passed, f"criterion {index:02d} {name}: {detail}"


def test_c01_sram_ber_calibration():
    result = repro.sram_ber_experiment(SEED)
    detail = ", ".join(
        f"{row['temperature_c']:+.0f}C {row['measured']*100:.2f}% (target {row['target']*100:.0f}% +/- 0.5%)"
        for row in result["rows"]
    )
    _report(1, "sram-ber", result["passed"], detail)


def test_c02_fuzzy_extractor_corrects_quarter_errors():
    result = repro.fe_correction_experiment(SEED)
    detail = (
        f"n_rep={result['n_rep']}, recovered {result['recovered']}/{result['trials']} "
        f"(need >= {result['trials'] - 1})"
    )
    _report(2, "fe-correction", result["passed"], detail)


@pytest.fixture(scope="module")
def suc_bounds():
    # c03 and c04 check different fields of the same seeded experiment
    return repro.suc_bounds_experiment(SEED)


def test_c03_suc_cardinality(suc_bounds):
    result = suc_bounds
    ok = result["cardinality_bits"] >= 274.0 and result["batch_gap_bits"] <= 0.5
    detail = (
        f"cardinality {result['cardinality_bits']:.1f} bits (need >= 274), "
        f"disjoint batches differ by {result['batch_gap_bits']:.3f} bits (need <= 0.5)"
    )
    _report(3, "suc-cardinality", ok, detail)


def test_c04_suc_attack_bounds(suc_bounds):
    result = suc_bounds
    ok = (
        result["min_active_sboxes"] >= 40
        and result["diff_complexity_log2"] >= 80.0
        and result["lin_complexity_log2"] >= 80.0
        and result["sampled_trail_min_active"] >= result["min_active_sboxes"]
    )
    detail = (
        f"min active S-boxes {result['min_active_sboxes']} (need >= 40), "
        f"2^{result['diff_complexity_log2']:.0f} diff / 2^{result['lin_complexity_log2']:.0f} lin, "
        f"{result['sampled_trails']} sampled trails all >= bound "
        f"(min seen {result['sampled_trail_min_active']})"
    )
    _report(4, "suc-bounds", ok, detail)


def test_c05_challenge_space_arithmetic():
    result = repro.challenge_space_experiment(SEED)
    detail = (
        f"dense (t=32,k=20) {result['dense_bits']} bits (need exactly 100.0), "
        f"sparse (p=10) {result['sparse_bits']:.4f} bits (need 67.49 +/- 0.01, note present)"
    )
    _report(5, "challenge-space", result["passed"], detail)


def test_c06_structural_entropy():
    result = repro.structural_entropy_experiment(SEED)
    detail = (
        f"{result['n_devices']} devices, dof {result['dof_bits']:.1f} bits (need > 200), "
        f"iid control {result['control_dof_bits']:.1f} (need 256 +/- 5%)"
    )
    _report(6, "structural-entropy", result["passed"], detail)


def test_c07_combined_entropy_additivity():
    result = repro.combined_entropy_experiment(SEED)
    detail = (
        f"verdict {result['verdict']}, entropy {result['entropy_bits']} "
        f"== structural {result['structural_dof_bits']:.4f} + 80 exactly"
    )
    _report(7, "combined-entropy", result["passed"], detail)


def test_c08_protocol_completeness_and_soundness():
    result = repro.protocol_experiment(SEED)
    detail = (
        f"genuine {result['genuine_accepts']}/{result['genuine_trials']}, "
        f"impostor {result['impostor_accepts']}/{result['impostor_trials']} accepts, "
        f"replay rejected: {result['replay_rejected']}"
    )
    _report(8, "protocol", result["passed"], detail)


def test_c09_attack_asymmetry():
    result = repro.attack_asymmetry_experiment(SEED)
    detail = (
        f"arbiter {result['arbiter_accuracy']:.3f} with {result['arbiter_train']} CRPs (need >= 0.95), "
        f"cipher bit {result['suc_accuracy']:.3f} with {result['suc_train']} CRPs (need in [0.45, 0.55])"
    )
    _report(9, "attack-asymmetry", result["passed"], detail)


def test_c10_readout_cloning():
    result = repro.readout_clone_experiment(SEED)
    detail = (
        f"clone reference HD {result['clone_reference_hd']}, auth rates genuine "
        f"{result['genuine_auth_rate']:.3f} vs clone {result['clone_auth_rate']:.3f} (need +/- 2%), "
        f"cipher readout blocked: {result['suc_readout_blocked']}, "
        f"store audit clean: {result['store_audit_clean']}"
    )
    _report(10, "readout-clone", result["passed"], detail)


def test_c11_oracle_equivalences():
    result = repro.oracle_equivalence_experiment(SEED)
    detail = (
        f"arbiter linear==race exhaustive n=12: {result['arbiter_exhaustive_n12']}, "
        f"toeplitz==matrix <=16x16: {result['toeplitz_vs_matrix']}, "
        f"repetition exhaustive in-radius: {result['repetition_exhaustive']}"
    )
    _report(11, "oracle-equiv", result["passed"], detail)
