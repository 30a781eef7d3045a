import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, substream
from clonebench.environment import NOMINAL, EnvironmentConditions
from clonebench import cli, puf


# ----------------------------------------------------------------- arbiter
def test_arbiter_new_validates():
    with pytest.raises(ValueError):
        puf.arbiter_new(0, 1)


def test_arbiter_same_seed_same_weights():
    a = puf.arbiter_new(64, 1)
    b = puf.arbiter_new(64, 1)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.stage_delays, b.stage_delays)


def test_arbiter_inter_seed_distance_near_half():
    a = puf.arbiter_new(64, 1)
    b = puf.arbiter_new(64, 2)
    challenges = substream(0, "chal").integers(0, 2, (10_000, 64), dtype=np.uint8)
    ra = puf.arbiter_eval_batch(a, challenges)
    rb = puf.arbiter_eval_batch(b, challenges)
    assert 0.45 <= np.mean(ra != rb) <= 0.55


def test_arbiter_challenge_space_n8():
    device = puf.arbiter_new(8, 5)
    all_challenges = np.array([[(m >> i) & 1 for i in range(8)] for m in range(256)], np.uint8)
    assert all_challenges.shape[0] == 2**8
    assert np.unique(all_challenges, axis=0).shape[0] == 256
    responses = puf.arbiter_eval_batch(device, all_challenges)
    assert responses.shape == (256,)


def test_arbiter_bias_only_weights_give_one():
    base = puf.arbiter_new(4, 3)
    w = np.zeros(5)
    w[-1] = 1.0
    device = puf.ArbiterPuf(4, base.stage_delays, w, 0.0, 3)
    for m in range(16):
        c = BitString([(m >> i) & 1 for i in range(4)])
        assert device.respond(c)[0] == 1


def test_arbiter_linear_form_matches_path_race_exhaustively():
    device = puf.arbiter_new(10, 9)
    mat = np.array([[(m >> i) & 1 for i in range(10)] for m in range(1 << 10)], np.uint8)
    linear = puf.arbiter_eval_batch(device, mat)
    raced = np.array([puf.arbiter_eval_path(device, BitString(row)) for row in mat])
    assert np.array_equal(linear, raced)


def test_arbiter_seeded_case_is_stable():
    # n=4, seed=42, challenge 0110: both routes agree on the recorded bit
    device = puf.arbiter_new(4, 42)
    c = BitString([0, 1, 1, 0])
    assert device.respond(c)[0] == 1
    assert puf.arbiter_eval_path(device, c) == 1


def test_arbiter_challenge_length_checked():
    device = puf.arbiter_new(8, 1)
    with pytest.raises(ValueError):
        device.respond(BitString([0, 1]))


def test_arbiter_noise_determinism_per_stream_position():
    device = puf.arbiter_new(32, 4, noise_sigma=0.5)
    challenges = substream(1, "c").integers(0, 2, (200, 32), dtype=np.uint8)
    r1 = puf.arbiter_eval_batch(device, challenges, NOMINAL, substream(2, "n"))
    r2 = puf.arbiter_eval_batch(device, challenges, NOMINAL, substream(2, "n"))
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("n", [0, 1, 2, 511, 512, 513, 1024, 1025, 1026, 20_000])
def test_matmul_blocks_cover_the_rows_and_never_leave_one_alone(n):
    blocks = puf.matmul_blocks(n)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    for b in blocks:
        assert 2 <= len(range(n)[b]) <= puf.BLOCK_ROWS + 1 or n == 1


def test_arbiter_eval_batch_memory_stays_bounded():
    # no float64 copy of all rows' features: that alone would take 10.4 MB
    n = 20_000
    challenges = substream(5, "m").integers(0, 2, (n, 64), dtype=np.uint8)
    device = puf.arbiter_new(64, 6)
    tracemalloc.start()
    try:
        device.respond(challenges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * (65 + 8 + 1) + 2**20  # int8 features, margins and output per row


# ----------------------------------------------------------------- xor arbiter
def test_xor_k1_is_plain_arbiter():
    member = puf.arbiter_new(16, 7)
    challenges = substream(3, "x").integers(0, 2, (500, 16), dtype=np.uint8)
    assert np.array_equal(
        puf.XorArbiter((member,)).respond(challenges),
        puf.arbiter_eval_batch(member, challenges),
    )


def test_xor_same_puf_twice_is_zero():
    member = puf.arbiter_new(16, 7)
    challenges = substream(4, "x").integers(0, 2, (500, 16), dtype=np.uint8)
    assert not np.any(puf.XorArbiter((member, member)).respond(challenges))


def test_xor_empty_list_rejected():
    with pytest.raises(ValueError):
        puf.XorArbiter(())


def test_xor_k4_uniformity():
    devices = puf.xor_arbiter_new(64, 4, 11)
    challenges = substream(5, "x").integers(0, 2, (20_000, 64), dtype=np.uint8)
    mean = devices.respond(challenges).mean()
    assert 0.45 <= mean <= 0.55


# ----------------------------------------------------------------- ring oscillator
def _ro_pair_oracle(device, n_rows, rng):
    """Per-pair scalar comparator over the fixed pairs (2i, 2i+1): each
    frequency is read with its own noise draw, 2i before 2i+1."""
    bits = []
    for _ in range(n_rows):
        for i in range(0, device.m_oscillators - 1, 2):
            fi, fj = device.frequencies[i], device.frequencies[i + 1]
            if rng is not None and device.meas_sigma > 0:
                fi = fi + rng.normal(0.0, device.meas_sigma)
                fj = fj + rng.normal(0.0, device.meas_sigma)
            bits.append(int(fi > fj))
    return np.array(bits, dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 129),
    seed=st.integers(0, 2**63 - 1),
    sigma=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    rows=st.integers(1, 3),
    draw_seed=st.integers(0, 2**32 - 1),
    noisy=st.booleans(),
)
def test_ro_respond_matches_per_pair_oracle(m, seed, sigma, rows, draw_seed, noisy):
    device = puf.ro_new(m, seed, sigma)
    challenges = None if rows == 1 else [None] * rows
    fast_rng = substream(draw_seed, "ro") if noisy else None
    slow_rng = substream(draw_seed, "ro") if noisy else None
    got = device.respond(challenges, rng=fast_rng)
    assert np.array_equal(got, _ro_pair_oracle(device, rows, slow_rng))
    if noisy:  # the same number of draws, so later draws stay aligned
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_ro_noiseless_comparison_and_antisymmetry():
    device = puf.ro_new(16, 21)
    bits = device.respond()
    assert np.array_equal(bits, (device.frequencies[0::2] > device.frequencies[1::2]).astype(np.uint8))
    swapped = puf.RoPuf(16, device.frequencies.reshape(-1, 2)[:, ::-1].ravel(), 0.0, 21)
    assert np.array_equal(swapped.respond(), 1 - bits)


def test_ro_flip_probability_matches_gaussian_form():
    device = puf.ro_new(4, 33)
    delta = abs(device.frequencies[0] - device.frequencies[1])
    # 50_000 copies of pair (0, 1): two noisy reads give 100_000 comparisons
    noisy = puf.RoPuf(100_000, np.tile(device.frequencies[:2], 50_000), delta / 2.0, 33)
    expected = 0.5 * math.erfc(delta / (2 * noisy.meas_sigma))
    noiseless = device.respond()[0]
    flips = np.count_nonzero(noisy.respond([None, None], rng=substream(6, "ro")) != noiseless)
    assert abs(flips / 100_000 - expected) < 0.005


# ----------------------------------------------------------------- sram
def test_sram_zero_noise_returns_reference():
    device = puf.sram_new(512, 8)
    ref = puf.sram_reference(device)
    for env in (NOMINAL, EnvironmentConditions(temperature_c=-40.0), EnvironmentConditions(temperature_c=85.0)):
        assert puf.sram_startup(device, env, None) == ref
        assert np.array_equal(device.respond(None, env, None), ref.bits)


def test_calibrate_closed_form():
    assert abs(puf.calibrate_sram_noise(0.06) - 0.1908) < 5e-4
    assert abs(puf.calibrate_sram_noise(0.08) - 0.2568) < 5e-4
    assert puf.calibrate_sram_noise(1e-9) < 1e-8
    with pytest.raises(ValueError):
        puf.calibrate_sram_noise(0.5)
    with pytest.raises(ValueError):
        puf.calibrate_sram_noise(0.0)


def test_calibrate_monte_carlo_oracle():
    # flip rate over 1e6 bias/noise draws matches the arctan closed form
    rng = substream(10, "cal")
    sigma = puf.calibrate_sram_noise(0.06)
    bias = rng.standard_normal(1_000_000)
    noise = rng.normal(0.0, sigma, 1_000_000)
    ber = np.mean((bias > 0) != (bias + noise > 0))
    assert abs(ber - 0.06) < 0.002


@pytest.mark.parametrize("temp,target", [(-40.0, 0.08), (25.0, 0.06), (85.0, 0.08)])
def test_sram_ber_calibration(temp, target):
    device = puf.sram_new(100_000, 12)
    env = EnvironmentConditions(temperature_c=temp)
    ref = puf.sram_reference(device).bits
    got = puf.sram_startup(device, env, substream(13, "ber", temp)).bits
    assert abs(np.mean(got != ref) - target) <= 0.005


def test_sram_ber_monotone_in_sigma():
    # common random numbers make the flip count deterministic-monotone in sigma
    rng = substream(14, "mono")
    bias = substream(15, "bias").standard_normal(50_000)
    noise = rng.standard_normal(50_000)
    previous = -1
    for sigma in (0.0, 0.05, 0.15, 0.3, 0.6):
        flips = int(np.sum((bias > 0) != (bias + sigma * noise > 0)))
        assert flips >= previous
        previous = flips


def test_environment_ranges_enforced():
    with pytest.raises(ValueError):
        EnvironmentConditions(temperature_c=90.0)
    with pytest.raises(ValueError):
        EnvironmentConditions(voltage_v=1.5)


# ----------------------------------------------------------------- population
def _response_matrix(devices, challenges=None):
    return np.stack([d.respond(challenges) for d in devices])


@pytest.mark.parametrize("model", ["arbiter", "xor", "ro", "sram"])
def test_uniqueness_every_model(model):
    rng = substream(16, "uniq", model)
    n_dev = 15  # 105 device pairs
    if model == "arbiter":
        devices = [puf.arbiter_new(64, int(rng.integers(0, 2**63))) for _ in range(n_dev)]
        challenges = [BitString.random(64, rng) for _ in range(256)]
    elif model == "xor":
        devices = [puf.xor_arbiter_new(64, 4, int(rng.integers(0, 2**63))) for _ in range(n_dev)]
        challenges = [BitString.random(64, rng) for _ in range(256)]
    elif model == "ro":
        devices = [puf.ro_new(256, int(rng.integers(0, 2**63))) for _ in range(n_dev)]
        challenges = None
    else:
        devices = [puf.sram_new(256, int(rng.integers(0, 2**63))) for _ in range(n_dev)]
        challenges = None
    mat = _response_matrix(devices, challenges)
    from clonebench.acoustic import pairwise_distance_stats

    mean, _ = pairwise_distance_stats(mat)
    assert 0.45 <= mean <= 0.55


def test_descriptor_file_is_private(tmp_path, capsys):
    # the descriptor's seed rebuilds the device, so a result file holding it is clone material
    path = tmp_path / "sim.json"
    old_umask = os.umask(0o022)
    try:
        code = cli.main(["puf", "simulate", "--model", "sram", "--cells", "64", "--seed", "3", "--out", str(path)])
    finally:
        os.umask(old_umask)
    assert code == 0
    assert json.loads(path.read_text())["descriptor"] == puf.sram_new(64, 3).descriptor()
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
