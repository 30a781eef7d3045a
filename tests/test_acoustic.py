import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import substream
from clonebench import acoustic
from clonebench.environment import EnvironmentConditions


def _population(n, seed=0, n_bins=256, smoothing=0.0, noisy=False):
    fps = []
    for i in range(n):
        dev_seed = int(substream(seed, "pop", i).integers(0, 2**63))
        model = acoustic.structure_new(dev_seed, n_bins, smoothing)
        rng = substream(seed, "meas", i) if noisy else None
        fps.append(acoustic.fingerprint(model, rng=rng))
    return fps


# ----------------------------------------------------------------- structure
def test_structure_minimum_bins():
    with pytest.raises(ValueError):
        acoustic.structure_new(1, n_bins=16)


def test_smoothing_zero_is_uncorrelated():
    model = acoustic.structure_new(1, n_bins=4096, smoothing=0.0)
    h = model.freq_response
    corr = np.corrcoef(np.abs(h[:-1]), np.abs(h[1:]))[0, 1]
    assert abs(corr) < 0.05


def test_smoothing_correlates_neighbors():
    model = acoustic.structure_new(1, n_bins=4096, smoothing=0.9)
    h = model.freq_response
    corr = np.corrcoef(h[:-1].real, h[1:].real)[0, 1]
    assert corr > 0.8


def _structure_oracle(seed, n_bins, smoothing):
    """The AR(1) recurrence run bin by bin on numpy complex scalars."""
    rng = substream(seed, "structure")
    fresh = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    response = np.empty(n_bins, dtype=complex)
    response[0] = fresh[0]
    carry = math.sqrt(1.0 - smoothing**2)
    for i in range(1, n_bins):
        response[i] = smoothing * response[i - 1] + carry * fresh[i]
    return response


@pytest.mark.parametrize("smoothing", [0.0, 0.3, 0.5, 0.9, 0.999])
def test_structure_matches_scalar_oracle_bytewise(smoothing):
    for seed in range(40):
        model = acoustic.structure_new(seed, 256, smoothing)
        assert model.freq_response.tobytes() == _structure_oracle(seed, 256, smoothing).tobytes()
        assert not model.freq_response.flags.writeable


@pytest.mark.parametrize("n_bins", [32, 256, 4096])
def test_unsmoothed_structure_is_the_raw_draw_pair_bytewise(n_bins):
    for seed in range(10):
        rng = substream(seed, "structure")
        re, im = rng.standard_normal(n_bins), rng.standard_normal(n_bins)
        got = acoustic.structure_new(seed, n_bins, 0.0).freq_response
        assert got.tobytes() == (re + 1j * im).tobytes()


def test_two_seeds_give_distinct_responses():
    a = acoustic.structure_new(1).freq_response
    b = acoustic.structure_new(2).freq_response
    assert np.all(np.abs(a) != np.abs(b))


# ----------------------------------------------------------------- stimulate
def test_stimulate_noiseless_nominal_reads_h_exactly():
    model = acoustic.structure_new(3)
    train = acoustic.WaveTrain((0, 5, 31), 32, 3)
    y = acoustic.stimulate(model, train)
    bins = acoustic.wave_train_bins(train, model.n_bins)
    assert np.array_equal(y, model.freq_response[bins])


def test_stimulate_deterministic():
    model = acoustic.structure_new(4)
    train = acoustic.WaveTrain(tuple(range(20)), 32, 20)
    assert np.array_equal(acoustic.stimulate(model, train), acoustic.stimulate(model, train))


def test_stimulate_temperature_gain():
    model = acoustic.structure_new(5)
    train = acoustic.WaveTrain((1, 2), 32, 2)
    hot = acoustic.stimulate(model, train, EnvironmentConditions(temperature_c=85.0))
    nominal = acoustic.stimulate(model, train)
    assert np.allclose(hot, nominal * (1 + acoustic.TEMP_COEFF * 60))
    assert not np.allclose(hot, nominal)


def test_stimulate_rejects_oversized_grid():
    model = acoustic.structure_new(6, n_bins=32)
    train = acoustic.WaveTrain((0,), 64, 1)
    with pytest.raises(ValueError):
        acoustic.stimulate(model, train)


def test_two_structures_differ_in_every_slot():
    train = acoustic.WaveTrain(tuple(range(20)), 32, 20)
    rng = substream(7, "pairs")
    for _ in range(20):
        sa = acoustic.structure_new(int(rng.integers(0, 2**62)))
        sb = acoustic.structure_new(int(rng.integers(0, 2**62)))
        diff = acoustic.stimulate(sa, train) - acoustic.stimulate(sb, train)
        assert np.all(np.abs(diff) > 0)


def test_wave_train_validation():
    with pytest.raises(ValueError):
        acoustic.WaveTrain((0, 1), 32, 3)  # wrong slot count
    with pytest.raises(ValueError):
        acoustic.WaveTrain((32,), 32, 1)  # index out of range


# ----------------------------------------------------------------- fingerprint
def test_fingerprint_noiseless_repeatable():
    model = acoustic.structure_new(8)
    assert acoustic.fingerprint(model).bits == acoustic.fingerprint(model).bits


def test_fingerprint_inter_device_distance():
    fps = _population(300, seed=9)
    mat = np.stack([fp.bits.bits for fp in fps])
    mean, _ = acoustic.pairwise_distance_stats(mat)
    assert 0.48 <= mean <= 0.52


def test_fingerprint_intra_device_ber_within_extractor_range():
    model = acoustic.structure_new(10)
    reference = acoustic.fingerprint(model).bits
    rng = substream(11, "intra")
    total = 0
    for _ in range(100):
        noisy = acoustic.fingerprint(model, rng=rng).bits
        total += reference.fractional_hamming(noisy)
    assert total / 100 <= 0.10


# ----------------------------------------------------------------- challenge space
def test_space_bits_dense_exact():
    assert acoustic.challenge_space_bits(acoustic.ChallengeSpaceSpec(32, 20)) == 100.0
    assert acoustic.challenge_space_bits(acoustic.ChallengeSpaceSpec(2, 1)) == 1.0


def test_space_bits_sparse_value_and_note():
    bits = acoustic.challenge_space_bits(acoustic.ChallengeSpaceSpec(32, 20, 10))
    assert abs(bits - (math.log2(math.comb(20, 10)) + 50.0)) < 1e-12
    assert abs(bits - 67.49) <= 0.01
    assert "65" in acoustic.SPARSE_OCCUPANCY_NOTE  # discrepancy stays documented


def test_space_size_matches_bigint():
    for t, k, p in [(32, 20, None), (32, 20, 10), (64, 64, 32), (3, 5, 2)]:
        spec = acoustic.ChallengeSpaceSpec(t, k, p)
        size = t**k if p is None else math.comb(k, p) * t**p
        assert abs(acoustic.challenge_space_bits(spec) - math.log2(size)) < 1e-9
    # the counts above are exact: enumerate every small wave train, an idle slot as None
    trains = list(itertools.product([None, *range(3)], repeat=5))
    assert sum(None not in w for w in trains) == 3**5
    assert sum(sum(s is not None for s in w) == 2 for w in trains) == math.comb(5, 2) * 3**2


def test_space_spec_validation():
    with pytest.raises(ValueError):
        acoustic.ChallengeSpaceSpec(32, 20, 21)
    with pytest.raises(ValueError):
        acoustic.ChallengeSpaceSpec(1, 5)


# ----------------------------------------------------------------- entropy estimator
def test_dof_iid_control():
    bits = substream(13, "ctl").integers(0, 2, (1000, 256), dtype=np.uint8)
    estimate = acoustic.dof_estimate(bits)
    assert abs(estimate.dof_bits - 256) <= 0.05 * 256
    assert not estimate.degenerate


def _gram_counts(mat, dtype=np.int64):
    """Hamming counts of the pairs i < j from a Gram of dtype, in np.triu_indices order."""
    mat = np.asarray(mat, dtype=dtype)
    ones = mat.sum(axis=1)
    counts = (ones[:, None] + ones[None, :] - 2 * (mat @ mat.T))[np.triu_indices(len(mat), k=1)]
    return counts.astype(np.int64)


def _distance_stats_oracle(mat, dtype=np.int64):
    """Mean and sample variance of pairwise fractional Hamming distance, each rounded
    once from exact Python-int sums of the Gram's Hamming counts."""
    width, counts = mat.shape[1], _gram_counts(mat, dtype).tolist()
    pairs, total = len(counts), sum(counts)
    mean = total / (width * pairs)  # int / int: CPython rounds the exact quotient once
    if pairs < 2:
        return mean, float("nan")
    # the squared deviations of c / width from total / (width pairs), over pairs - 1
    deviations = sum((c * pairs - total) ** 2 for c in counts)
    return mean, deviations / (width**2 * pairs**2 * (pairs - 1))


def _assert_exact_stats(mat, dtype=np.int64):
    got = acoustic.pairwise_distance_stats(mat)
    # equal to the bit, NaN (a single pair has no sample variance) included
    assert np.array(got).tobytes() == np.array(_distance_stats_oracle(mat, dtype)).tobytes()
    # and close to numpy's rounded sums of the float64 distances
    distances = _gram_counts(mat) / mat.shape[1]
    np.testing.assert_allclose(got[0], distances.mean(), rtol=1e-12)
    if distances.size > 1:
        np.testing.assert_allclose(got[1], distances.var(ddof=1), rtol=1e-12)


def _distance_cases():
    rng = substream(18, "gram")
    random = rng.integers(0, 2, (300, 256), dtype=np.uint8)
    mixed = random[:50].copy()
    mixed[3] = 0
    mixed[7] = 1
    mixed[11] = mixed[12] = mixed[20]
    return {
        "random": random,
        "random-odd-width": rng.integers(0, 2, (97, 13), dtype=np.uint8),
        "zero-one-duplicate-rows": mixed,
        "all-zero": np.zeros((5, 64), dtype=np.uint8),
        "all-one": np.ones((5, 64), dtype=np.uint8),
        "two-rows": random[:2],
        "two-equal-rows": np.ones((2, 8), dtype=np.uint8),
    }


@pytest.mark.parametrize("name", list(_distance_cases()))
def test_distance_stats_match_int64_gram_oracle(name):
    _assert_exact_stats(_distance_cases()[name])


@pytest.mark.parametrize("width", [1, 255, 256, 257])
@pytest.mark.parametrize("rows", ["random", "two-rows", "identical-rows"])
def test_distance_stats_match_float64_gram_oracle(width, rows):
    mat = substream(19, "gram", width).integers(0, 2, (120, width), dtype=np.uint8)
    if rows == "two-rows":  # one pair: no sample variance
        mat = mat[:2]
    elif rows == "identical-rows":  # every distance 0: the degenerate population
        mat = np.repeat(mat[:1], 40, axis=0)
    _assert_exact_stats(mat, np.float64)


@pytest.mark.parametrize("shape", [(1, 8), (5, 0), (8,)])
def test_distance_stats_need_two_rows_and_one_bit(shape):
    with pytest.raises(ValueError):
        acoustic.pairwise_distance_stats(np.zeros(shape, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(2, 120), width=st.integers(1, 300), seed=st.integers(0, 2**63 - 1))
def test_streamed_distance_stats_match_oracle_for_any_shape(rows, width, seed):
    _assert_exact_stats(substream(seed, "shape").integers(0, 2, (rows, width), dtype=np.uint8))


@pytest.mark.parametrize("k", range(2, 10))
def test_simplex_code_distances_are_all_equal(k):
    # the 2^k codewords of the [2^k - 1, k] simplex code lie 2^(k-1) bits apart in every pair
    msgs = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    cols = (np.arange(1, 2**k)[:, None] >> np.arange(k)) & 1
    code = (msgs @ cols.T) % 2
    estimate = acoustic.dof_estimate(code)
    assert estimate.hd_variance == 0.0
    assert estimate.degenerate and math.isnan(estimate.dof_bits)
    assert estimate.mean_hd == 2 ** (k - 1) / (2**k - 1)


def _dof_peak(rows):
    bits = substream(13, "ctl").integers(0, 2, (rows, 256), dtype=np.uint8)
    tracemalloc.start()
    try:
        acoustic.dof_estimate(bits)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dof_estimate_peak_memory():
    # a float64 Gram and distance matrix gathered with np.triu_indices peaked at 34 MB;
    # a float32 Gram turned into distances in place and gathered by a mask, at 13 MB;
    # 64-row Gram blocks copied into the 4 MB distance vector, at 5.6 MB; the 1 MB
    # float32 input copy, one 32-row block and its triangle of int64 counts, at 1.6 MB
    assert _dof_peak(1000) < 2.5e6


def test_dof_estimate_peak_memory_at_4000_devices():
    # the whole distance vector peaked at 70 MB; the integer sums hold the 4 MB
    # float32 input copy, a 512 KB block and its triangle of int64 counts, at 6.5 MB
    assert _dof_peak(4000) < 8e6


def test_dof_degenerate_population_flagged():
    fp = _population(1, seed=14)[0]
    clones = [fp] * 120
    estimate = acoustic.structural_entropy_estimate(clones)
    assert estimate.degenerate
    assert math.isnan(estimate.dof_bits)


def test_structural_entropy_population_floor():
    with pytest.raises(ValueError):
        acoustic.structural_entropy_estimate(_population(99, seed=15))


def test_smoothing_never_increases_dof():
    values = []
    for smoothing in (0.0, 0.5, 0.9):
        fps = _population(300, seed=16, smoothing=smoothing)
        mat = np.stack([fp.bits.bits for fp in fps])
        values.append(acoustic.dof_estimate(mat).dof_bits)
    assert values[0] >= values[1] >= values[2]


# ----------------------------------------------------------------- persistence
def test_fingerprint_roundtrip(tmp_path):
    fp = _population(1, seed=17)[0]
    path = tmp_path / "fp.json"
    acoustic.save_fingerprint(fp, path)
    loaded = acoustic.load_fingerprint(path)
    assert loaded.bits == fp.bits
    assert loaded.device_id == fp.device_id


@settings(max_examples=50, deadline=None)
@given(
    n_bins=st.integers(32, 300),
    smoothing=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**63 - 1),
    noisy=st.booleans(),
)
def test_fingerprint_roundtrip_property(tmp_path_factory, n_bins, smoothing, seed, noisy):
    model = acoustic.structure_new(seed, n_bins, smoothing)
    fp = acoustic.fingerprint(model, rng=substream(seed, "measure") if noisy else None)
    path = tmp_path_factory.mktemp("fp") / "fp.json"
    acoustic.save_fingerprint(fp, path)
    loaded = acoustic.load_fingerprint(path)
    assert loaded.bits == fp.bits
    assert loaded.device_id == fp.device_id

