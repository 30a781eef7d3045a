"""Named end-to-end acceptance experiments behind the ``repro`` CLI verb.

Each experiment returns a JSON-ready dict with a ``passed`` flag plus the
measured values, and ``tests/test_acceptance.py`` asserts the same outcomes.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import acoustic, attacks, fuzzy, protocol, puf, suc, trails
from .bitstring import BitString
from .environment import EnvironmentConditions
from .rng import substream

DEFAULT_SEED = 2026


# --------------------------------------------------------------------------- helpers
def _sub(seed, *path):
    return substream(seed, "repro", *path)


def sram_ber_experiment(seed: int) -> dict:
    """Calibrated SRAM bit-error rates at the three temperature anchors."""
    cells = 100_000
    device = puf.sram_new(cells, int(_sub(seed, "sram").integers(0, 2**63)))
    reference = puf.sram_reference(device).bits
    rows = []
    passed = True
    for temp, target in puf.SRAM_BER_ANCHORS:
        env = EnvironmentConditions(temperature_c=temp)
        startup = puf.sram_startup(device, env, _sub(seed, "sram-noise", temp)).bits
        ber = float(np.mean(startup != reference))
        ok = abs(ber - target) <= 0.005
        passed = passed and ok
        rows.append({"temperature_c": temp, "target": target, "measured": ber, "ok": ok})
    return {"name": "sram-ber", "passed": passed, "cells": cells, "rows": rows}


def fe_correction_experiment(seed: int) -> dict:
    """Key recovery under i.i.d. 25% bit flips with parameters designed for that rate."""
    trials = 1000
    params = fuzzy.design_repetition(0.25, 1e-6, 128)
    rng = _sub(seed, "fe")
    w = BitString.random(params.code_len, rng)
    key, helper = fuzzy.fe_generate(w, params, 128, rng)
    recovered = 0
    for _ in range(trials):
        flips = (rng.random(params.code_len) < 0.25).astype(np.uint8)
        out = fuzzy.fe_reproduce(BitString(w.bits ^ flips), helper)
        if out is not None and out.key == key.key:
            recovered += 1
    passed = recovered >= trials - 1
    return {
        "name": "fe-correction",
        "passed": passed,
        "n_rep": params.n_rep,
        "n_blocks": params.n_blocks,
        "trials": trials,
        "recovered": recovered,
    }


def suc_bounds_experiment(seed: int) -> dict:
    """Cipher-class cardinality and differential/linear trail complexity floors."""
    params = suc.SucParams()
    batch, n_trails = 20_000, 1000
    report = suc.security_report(params, batch, _sub(seed, "sbox-a"))
    ent_b = suc.sbox_entropy_bits(batch, _sub(seed, "sbox-b"))
    batch_gap = abs(report.sbox_h_bits - ent_b.h_bits)
    active = report.min_active_sboxes
    device = suc.personalize(params, _sub(seed, "trail-dev"), "trail-dev")
    totals = trails.sample_trail_actives(
        device._sboxes, suc.DEFAULT_PERMUTATION, params.rounds, n_trails, _sub(seed, "trails")
    )
    trail_ok = bool(np.all(totals >= active))
    passed = (
        report.cardinality_bits >= 274.0
        and batch_gap <= 0.5
        and active >= params.rounds
        and report.diff_complexity_log2 >= 80.0
        and report.lin_complexity_log2 >= 80.0
        and trail_ok
    )
    return {
        "name": "suc-bounds",
        "passed": passed,
        "cardinality_bits": report.cardinality_bits,
        "h_sbox_batch_a": report.sbox_h_bits,
        "h_sbox_batch_b": ent_b.h_bits,
        "batch_gap_bits": batch_gap,
        "min_active_sboxes": active,
        "diff_complexity_log2": report.diff_complexity_log2,
        "lin_complexity_log2": report.lin_complexity_log2,
        "sampled_trails": n_trails,
        "sampled_trail_min_active": int(totals.min()),
    }


def challenge_space_experiment(seed: int) -> dict:
    """Wave-train space arithmetic, dense and sparse occupancy."""
    dense = acoustic.challenge_space_bits(acoustic.ChallengeSpaceSpec(32, 20))
    sparse = acoustic.challenge_space_bits(acoustic.ChallengeSpaceSpec(32, 20, 10))
    expected_sparse = math.log2(math.comb(20, 10)) + 50.0
    passed = (
        dense == 100.0
        and abs(sparse - 67.49) <= 0.01
        and abs(sparse - expected_sparse) < 1e-9
        and "65" in acoustic.SPARSE_OCCUPANCY_NOTE
    )
    return {
        "name": "challenge-space",
        "passed": passed,
        "dense_bits": dense,
        "sparse_bits": sparse,
        "note": acoustic.SPARSE_OCCUPANCY_NOTE,
    }


def _population_fingerprints(seed, n_devices):
    fps = []
    for i in range(n_devices):
        dev_seed = int(_sub(seed, "structure-pop", i).integers(0, 2**63))
        fps.append(acoustic.fingerprint(acoustic.structure_new(dev_seed)))
    return fps


def structural_entropy_experiment(seed: int) -> dict:
    """Degrees-of-freedom entropy of a synthetic structure population plus an i.i.d. control."""
    n_devices = 1000
    fps = _population_fingerprints(seed, n_devices)
    estimate = acoustic.structural_entropy_estimate(fps)
    control_bits = _sub(seed, "control").integers(0, 2, (n_devices, 256), dtype=np.uint8)
    control = acoustic.dof_estimate(control_bits)
    control_ok = abs(control.dof_bits - 256.0) <= 0.05 * 256.0
    passed = estimate.dof_bits > 200.0 and control_ok
    return {
        "name": "structural-entropy",
        "passed": passed,
        "n_devices": n_devices,
        "dof_bits": estimate.dof_bits,
        "mean_hd": estimate.mean_hd,
        "control_dof_bits": control.dof_bits,
    }


def combined_entropy_experiment(seed: int) -> dict:
    """Additivity of structural and cipher identification entropy in the joint verdict."""
    fps = _population_fingerprints(seed, 200)
    dof = acoustic.structural_entropy_estimate(fps).dof_bits

    model = acoustic.structure_new(int(_sub(seed, "combined-structure").integers(0, 2**63)))
    enrolled = acoustic.fingerprint(model)  # noiseless enrollment reading
    params = fuzzy.design_repetition(0.10, 1e-3, 17)
    w = BitString(enrolled.bits.bits[: params.code_len])
    _, helper = fuzzy.fe_generate(w, params, 128, _sub(seed, "combined-fe"))

    device = suc.personalize(suc.SucParams(), _sub(seed, "combined-suc"), "combined-dev")
    store = protocol.CrpStore()
    protocol.enroll(device, 4, _sub(seed, "combined-enroll"), store)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    measured = acoustic.fingerprint(model, rng=_sub(seed, "combined-measure"))
    verdict = protocol.combined_verify(
        store, helper, measured, channel, device.device_id, 0.25, structural_dof_bits=dof
    )
    passed = verdict.accepted and verdict.entropy_bits == dof + suc.KEY_BITS
    return {
        "name": "combined-entropy",
        "passed": passed,
        "structural_dof_bits": dof,
        "entropy_bits": verdict.entropy_bits,
        "verdict": verdict.verdict,
    }


def protocol_experiment(seed: int) -> dict:
    """Completeness, soundness against a random responder, and replay rejection."""
    genuine_trials, impostor_trials = 1000, 100_000
    device = suc.personalize(suc.SucParams(), _sub(seed, "protocol-dev"), "ecu-1")
    genuine_channel = protocol.DeviceChannel(protocol.SucAgent(device))

    store = protocol.CrpStore()
    protocol.enroll(device, genuine_trials, _sub(seed, "protocol-enroll-a"), store)
    genuine_accepts = sum(
        protocol.identify(store, genuine_channel, "ecu-1").accepted for _ in range(genuine_trials)
    )

    store_b = protocol.CrpStore()
    protocol.enroll(device, impostor_trials, _sub(seed, "protocol-enroll-b"), store_b)
    impostor_channel = protocol.DeviceChannel(
        protocol.RandomAgent(_sub(seed, "protocol-impostor"))
    )
    impostor_accepts = sum(
        protocol.identify(store_b, impostor_channel, "ecu-1").accepted
        for _ in range(impostor_trials)
    )

    store_c = protocol.CrpStore()
    protocol.enroll(device, 2, _sub(seed, "protocol-enroll-c"), store_c)
    replay_challenge = store_c.records["ecu-1"][0].challenge
    first = protocol.verify_challenge(store_c, genuine_channel, "ecu-1", replay_challenge)
    second = protocol.verify_challenge(store_c, genuine_channel, "ecu-1", replay_challenge)
    replay_ok = first.accepted and second.reason == protocol.REASON_REPLAY

    passed = genuine_accepts == genuine_trials and impostor_accepts == 0 and replay_ok
    return {
        "name": "protocol",
        "passed": passed,
        "genuine_accepts": genuine_accepts,
        "genuine_trials": genuine_trials,
        "impostor_accepts": impostor_accepts,
        "impostor_trials": impostor_trials,
        "replay_rejected": replay_ok,
    }


def attack_asymmetry_experiment(seed: int) -> dict:
    """Modeling attack breaks the arbiter but stays at chance against the cipher bit."""
    arbiter_train, suc_train = 5000, 100_000
    arbiter = puf.arbiter_new(64, int(_sub(seed, "asym-arb").integers(0, 2**63)))
    data = attacks.collect_crps(arbiter, arbiter_train, _sub(seed, "asym-arb-train"))
    arb_model = attacks.train_model(data)
    arb_report = attacks.eval_model(arb_model, arbiter, 2000, _sub(seed, "asym-arb-test"))

    device = suc.personalize(suc.SucParams(), _sub(seed, "asym-suc-dev"), "asym-suc")
    target = attacks.SucBitTarget(device)
    suc_data = attacks.collect_crps(target, suc_train, _sub(seed, "asym-suc-train"))
    suc_model = attacks.train_model(suc_data)
    suc_report = attacks.eval_model(suc_model, target, 2000, _sub(seed, "asym-suc-test"))

    passed = arb_report.accuracy >= 0.95 and 0.45 <= suc_report.accuracy <= 0.55
    return {
        "name": "attack-asymmetry",
        "passed": passed,
        "arbiter_train": arbiter_train,
        "arbiter_accuracy": arb_report.accuracy,
        "suc_train": suc_train,
        "suc_accuracy": suc_report.accuracy,
    }


def readout_clone_experiment(seed: int) -> dict:
    """Full-readout SRAM clone passes fingerprint authentication as the genuine chip does; the cipher offers no readout."""
    trials = 500
    params = fuzzy.design_repetition(0.06, 1e-3, 32)
    target = puf.sram_new(params.code_len, int(_sub(seed, "clone-sram").integers(0, 2**63)))
    key, helper = fuzzy.fe_generate(puf.sram_reference(target), params, 128, _sub(seed, "clone-fe"))

    clone = attacks.readout_clone(target)
    clone_hd = puf.sram_reference(clone).fractional_hamming(puf.sram_reference(target))

    def auth_rate(device, stream):
        accepted = 0
        for _ in range(trials):
            out = fuzzy.fe_reproduce(puf.sram_startup(device, rng=stream), helper)
            accepted += out is not None and out.key == key.key
        return accepted / trials

    genuine_rate = auth_rate(target, _sub(seed, "clone-genuine"))
    clone_rate = auth_rate(clone, _sub(seed, "clone-clone"))

    try:
        attacks.readout_clone(
            suc.personalize(suc.SucParams(rounds=4), _sub(seed, "clone-suc"), "no-readout")
        )
        suc_blocked = False
    except TypeError:
        suc_blocked = True

    device = suc.personalize(suc.SucParams(), _sub(seed, "clone-suc-audit"), "audit-dev")
    store = protocol.CrpStore()
    protocol.enroll(device, 64, _sub(seed, "clone-audit-enroll"), store)
    audit_clean = protocol.store_leak_audit(store, device)

    passed = (
        clone_hd == 0.0
        and genuine_rate >= 0.99  # else a broken decoder passes with both rates at 0
        and abs(genuine_rate - clone_rate) <= 0.02
        and suc_blocked
        and audit_clean
    )
    return {
        "name": "readout-clone",
        "passed": passed,
        "cells": params.code_len,
        "clone_reference_hd": clone_hd,
        "genuine_auth_rate": genuine_rate,
        "clone_auth_rate": clone_rate,
        "suc_readout_blocked": suc_blocked,
        "store_audit_clean": audit_clean,
    }


def _toeplitz_matrix_oracle(seed_bits, data_bits, out_len):
    n = len(data_bits)
    out = []
    for i in range(out_len):
        acc = 0
        for j in range(n):
            acc ^= data_bits[j] & seed_bits[i + n - 1 - j]
        out.append(acc)
    return out


def oracle_equivalence_experiment(seed: int) -> dict:
    """Cross-checks between independent computation routes for three primitives."""
    # arbiter linear form vs direct path race, exhaustive at n = 12
    device = puf.arbiter_new(12, int(_sub(seed, "oracle-arb").integers(0, 2**63)))
    all_challenges = np.array(
        [[(m >> i) & 1 for i in range(12)] for m in range(1 << 12)], dtype=np.uint8
    )
    linear = puf.arbiter_eval_batch(device, all_challenges)
    path = np.array(
        [puf.arbiter_eval_path(device, BitString(c)) for c in all_challenges], dtype=np.uint8
    )
    arbiter_ok = bool(np.array_equal(linear, path))

    # Toeplitz hash vs literal matrix multiply, up to 16 x 16
    rng = _sub(seed, "oracle-toeplitz")
    toeplitz_ok = True
    for n_in, n_out in [(4, 3), (16, 16), (9, 5), (1, 1)]:
        tseed = BitString.random(n_in + n_out - 1, rng)
        data = BitString.random(n_in, rng)
        got = list(fuzzy.toeplitz_hash(tseed, data, n_out).bits)
        want = _toeplitz_matrix_oracle(list(tseed.bits), list(data.bits), n_out)
        toeplitz_ok = toeplitz_ok and got == want
    # and the key fe_generate folds from its helper's table, through the same literal multiply
    rng = _sub(seed, "oracle-fe-key")
    for n_rep, n_blocks, key_len in [(3, 4, 5), (3, 5, 65), (1, 9, 1)]:
        w = BitString.random(n_rep * n_blocks, rng)
        key, helper = fuzzy.fe_generate(w, fuzzy.RepetitionParams(n_rep, n_blocks), key_len, rng)
        want = _toeplitz_matrix_oracle(list(helper.toeplitz_seed.bits), list(w.bits), key_len)
        toeplitz_ok = toeplitz_ok and list(key.key.bits) == want

    # repetition decoding: every in-radius pattern corrects, joint-exhaustive
    repetition_ok = True
    rng = _sub(seed, "oracle-rep")
    for n_rep, n_blocks in [(3, 4), (5, 3), (7, 2)]:
        params = fuzzy.RepetitionParams(n_rep, n_blocks)
        w = BitString.random(params.code_len, rng)
        key, helper = fuzzy.fe_generate(w, params, 16, rng)
        radius = n_rep // 2
        block_patterns = []
        for weight in range(radius + 1):
            block_patterns.extend(
                sum(1 << p for p in pos) for pos in itertools.combinations(range(n_rep), weight)
            )
        for combo in itertools.product(block_patterns, repeat=n_blocks):
            flips = np.zeros(params.code_len, dtype=np.uint8)
            for b, pattern in enumerate(combo):
                for p in range(n_rep):
                    if (pattern >> p) & 1:
                        flips[b * n_rep + p] = 1
            out = fuzzy.fe_reproduce(BitString(w.bits ^ flips), helper)
            if out is None or out.key != key.key:
                repetition_ok = False
                break

    passed = arbiter_ok and toeplitz_ok and repetition_ok
    return {
        "name": "oracle-equiv",
        "passed": passed,
        "arbiter_exhaustive_n12": arbiter_ok,
        "toeplitz_vs_matrix": toeplitz_ok,
        "repetition_exhaustive": repetition_ok,
    }


EXPERIMENTS = {
    "sram-ber": sram_ber_experiment,
    "fe-correction": fe_correction_experiment,
    "suc-bounds": suc_bounds_experiment,
    "challenge-space": challenge_space_experiment,
    "structural-entropy": structural_entropy_experiment,
    "combined-entropy": combined_entropy_experiment,
    "protocol": protocol_experiment,
    "attack-asymmetry": attack_asymmetry_experiment,
    "readout-clone": readout_clone_experiment,
    "oracle-equiv": oracle_equivalence_experiment,
}


def run(name: str, seed: int) -> dict:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](seed)
