"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line with the measured values (run pytest
with -s to see them) and asserts the same condition, so a plain `pytest` run
is the gate.  The same experiments back the `clonebench repro <name>` verb.
Each experiment's canonical JSON at SEED is also pinned by its sha256, so a
refactor that moves any reported number, not only a pass flag, fails here.
"""
import hashlib

import pytest

from clonebench import jsonio, repro

SEED = repro.DEFAULT_SEED

# sha256 of jsonio.dumps_canonical(result) for each experiment at SEED
DIGESTS = {
    "sram-ber": "9af6c7c584124429da4566e111981c7274663285f184b529bd0c85eb01f89250",
    "fe-correction": "a398040a708e1cc5baa8aaf7051c3009dab753bb979eb3bed43d579f138d7a0f",
    "suc-bounds": "2e4d1475ac18a1cf1a6bfd2c14211f214a9f72bcf97f7a08706f5f6d1947b40c",
    "challenge-space": "74401e2d0541ccd499fb7419b3d36c62bb93d6340da953095d991c9c5eaced88",
    "structural-entropy": "abac8220f5e1495f1362e3dcfe4f7a03301a989c95afca1a1de79bc852d27ac6",
    "combined-entropy": "a97dd3a52f2b10771439d3b02086ad441f9e0c720060dc2f9148674b16e5692f",
    "protocol": "8ba94436ebaf67dcb190adc0d64365d61ba1e534251080f4d0956788baafc5c8",
    "attack-asymmetry": "cff3cbe5985d3c0e078ad6335f7d4150d3f4f2127718c6b22cbd3b0428691d75",
    "readout-clone": "b70024c95fd197eb5d3462c3263cab2f3f36b1bdef64cc7b2c6cdd21bb58eaea",
    "oracle-equiv": "4ebf3aa9b01f0e8263f037611c772e6b6d70516719b888246eba4eed08cf85bd",
}


def _report(index, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {index:02d} {name}: {detail}")
    assert passed, f"criterion {index:02d} {name}: {detail}"


def _pinned(result):
    """``result``, after checking its canonical JSON against the pinned digest."""
    digest = hashlib.sha256(jsonio.dumps_canonical(result).encode()).hexdigest()
    assert digest == DIGESTS[result["name"]], f"{result['name']} at seed {SEED} moved: {digest}"
    return result


def test_c01_sram_ber_calibration():
    result = _pinned(repro.sram_ber_experiment(SEED))
    detail = ", ".join(
        f"{row['temperature_c']:+.0f}C {row['measured']*100:.2f}% (target {row['target']*100:.0f}% +/- 0.5%)"
        for row in result["rows"]
    )
    _report(1, "sram-ber", result["passed"], detail)


def test_c02_fuzzy_extractor_corrects_quarter_errors():
    result = _pinned(repro.fe_correction_experiment(SEED))
    detail = (
        f"n_rep={result['n_rep']}, recovered {result['recovered']}/{result['trials']} "
        f"(need >= {result['trials'] - 1})"
    )
    _report(2, "fe-correction", result["passed"], detail)


@pytest.fixture(scope="module")
def suc_bounds():
    # c03 and c04 check different fields of the same seeded experiment
    return _pinned(repro.suc_bounds_experiment(SEED))


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
    result = _pinned(repro.challenge_space_experiment(SEED))
    detail = (
        f"dense (t=32,k=20) {result['dense_bits']} bits (need exactly 100.0), "
        f"sparse (p=10) {result['sparse_bits']:.4f} bits (need 67.49 +/- 0.01, note present)"
    )
    _report(5, "challenge-space", result["passed"], detail)


def test_c06_structural_entropy():
    result = _pinned(repro.structural_entropy_experiment(SEED))
    detail = (
        f"{result['n_devices']} devices, dof {result['dof_bits']:.1f} bits (need > 200), "
        f"iid control {result['control_dof_bits']:.1f} (need 256 +/- 5%)"
    )
    _report(6, "structural-entropy", result["passed"], detail)


def test_c07_combined_entropy_additivity():
    result = _pinned(repro.combined_entropy_experiment(SEED))
    detail = (
        f"verdict {result['verdict']}, entropy {result['entropy_bits']} "
        f"== structural {result['structural_dof_bits']:.4f} + 80 exactly"
    )
    _report(7, "combined-entropy", result["passed"], detail)


def test_c08_protocol_completeness_and_soundness():
    result = _pinned(repro.protocol_experiment(SEED))
    detail = (
        f"genuine {result['genuine_accepts']}/{result['genuine_trials']}, "
        f"impostor {result['impostor_accepts']}/{result['impostor_trials']} accepts, "
        f"replay rejected: {result['replay_rejected']}"
    )
    _report(8, "protocol", result["passed"], detail)


def test_c09_attack_asymmetry():
    result = _pinned(repro.attack_asymmetry_experiment(SEED))
    detail = (
        f"arbiter {result['arbiter_accuracy']:.3f} with {result['arbiter_train']} CRPs (need >= 0.95), "
        f"cipher bit {result['suc_accuracy']:.3f} with {result['suc_train']} CRPs (need in [0.45, 0.55])"
    )
    _report(9, "attack-asymmetry", result["passed"], detail)


def test_c10_readout_cloning():
    result = _pinned(repro.readout_clone_experiment(SEED))
    detail = (
        f"clone reference HD {result['clone_reference_hd']}, auth rates genuine "
        f"{result['genuine_auth_rate']:.3f} (need >= 0.99) vs clone {result['clone_auth_rate']:.3f} (need +/- 2%), "
        f"cipher readout blocked: {result['suc_readout_blocked']}, "
        f"store audit clean: {result['store_audit_clean']}"
    )
    _report(10, "readout-clone", result["passed"], detail)


def test_c11_oracle_equivalences():
    result = _pinned(repro.oracle_equivalence_experiment(SEED))
    detail = (
        f"arbiter linear==race exhaustive n=12: {result['arbiter_exhaustive_n12']}, "
        f"toeplitz==matrix <=16x16: {result['toeplitz_vs_matrix']}, "
        f"repetition exhaustive in-radius: {result['repetition_exhaustive']}"
    )
    _report(11, "oracle-equiv", result["passed"], detail)
