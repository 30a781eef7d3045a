import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from clonebench import BitString, substream
from clonebench import fuzzy
from clonebench.errors import InfeasibleDesignError


# ----------------------------------------------------------------- design
def test_design_zero_ber_needs_no_repetition():
    assert fuzzy.design_repetition(0.0, 1e-6, 16).n_rep == 1


def test_design_quarter_error_rate():
    params = fuzzy.design_repetition(0.25, 1e-6, 128)
    assert params.n_rep == 111  # smallest odd n with 128 * tail <= 1e-6
    # independent route: scipy's regularized-beta binomial tail
    sf = lambda n: 128 * binom.sf(n // 2, n, 0.25)
    assert sf(111) <= 1e-6 < sf(109)


def test_design_satisfies_its_own_bound_exactly():
    for ber, fail, blocks in [(0.25, 1e-6, 128), (0.1, 1e-3, 17), (0.06, 1e-3, 32)]:
        params = fuzzy.design_repetition(ber, fail, blocks)
        assert blocks * fuzzy.binomial_tail_gt_half(params.n_rep, ber) <= fail
        if params.n_rep > 1:
            assert blocks * fuzzy.binomial_tail_gt_half(params.n_rep - 2, ber) > fail


def test_design_monotone_in_ber():
    previous = 0
    for ber in (0.01, 0.05, 0.1, 0.2, 0.25, 0.3):
        n = fuzzy.design_repetition(ber, 1e-6, 64).n_rep
        assert n >= previous
        previous = n


def test_design_infeasible():
    with pytest.raises(InfeasibleDesignError):
        fuzzy.design_repetition(0.49, 1e-9, 1024)


def test_params_validation():
    with pytest.raises(ValueError):
        fuzzy.RepetitionParams(4, 2)  # even
    with pytest.raises(ValueError):
        fuzzy.RepetitionParams(3, 0)


# ----------------------------------------------------------------- generate / reproduce
def _setup(n_rep=5, n_blocks=8, key_len=32, seed=1):
    params = fuzzy.RepetitionParams(n_rep, n_blocks)
    rng = substream(seed, "fe")
    w = BitString.random(params.code_len, rng)
    key, helper = fuzzy.fe_generate(w, params, key_len, rng)
    return params, w, key, helper


def test_generate_reproduce_roundtrip():
    _, w, key, helper = _setup()
    out = fuzzy.fe_reproduce(w, helper)
    assert out is not None and out.key == key.key


def test_generate_length_checked():
    params = fuzzy.RepetitionParams(3, 4)
    with pytest.raises(ValueError):
        fuzzy.fe_generate(BitString([0] * 11), params, 8, substream(0, "x"))


def test_two_generates_differ_but_both_reproduce():
    params = fuzzy.RepetitionParams(5, 8)
    w = BitString.random(params.code_len, substream(2, "w"))
    key_a, helper_a = fuzzy.fe_generate(w, params, 32, substream(3, "a"))
    key_b, helper_b = fuzzy.fe_generate(w, params, 32, substream(4, "b"))
    assert helper_a.sketch != helper_b.sketch
    assert fuzzy.fe_reproduce(w, helper_a).key == key_a.key
    assert fuzzy.fe_reproduce(w, helper_b).key == key_b.key


def test_sketch_xor_codeword_recovers_w():
    params = fuzzy.RepetitionParams(5, 8)
    rng = substream(5, "s")
    w = BitString.random(params.code_len, rng)
    state = rng.bit_generator.state
    _, helper = fuzzy.fe_generate(w, params, 16, rng)
    rng.bit_generator.state = state
    secret_blocks = rng.integers(0, 2, params.n_blocks, dtype=np.uint8)
    codeword = fuzzy.repeat_encode(secret_blocks, params.n_rep)
    assert np.array_equal(helper.sketch.bits ^ codeword, w.bits)


def test_in_radius_errors_correct_exactly():
    params, w, key, helper = _setup(n_rep=7, n_blocks=16)
    rng = substream(6, "err")
    radius = params.n_rep // 2
    for _ in range(50):
        flips = np.zeros(params.code_len, np.uint8)
        for b in range(params.n_blocks):
            weight = rng.integers(0, radius + 1)
            pos = rng.choice(params.n_rep, size=weight, replace=False)
            flips[b * params.n_rep + pos] = 1
        out = fuzzy.fe_reproduce(BitString(w.bits ^ flips), helper)
        assert out is not None and out.key == key.key


def test_overweight_block_fails_closed():
    params, w, key, helper = _setup(n_rep=7, n_blocks=4)
    flips = np.zeros(params.code_len, np.uint8)
    flips[: params.n_rep // 2 + 2] = 1  # ceil(n/2)+1 flips inside block 0
    assert fuzzy.fe_reproduce(BitString(w.bits ^ flips), helper) is None


def test_quarter_noise_recovery_rate():
    params = fuzzy.design_repetition(0.25, 1e-6, 32)
    rng = substream(7, "q")
    w = BitString.random(params.code_len, rng)
    key, helper = fuzzy.fe_generate(w, params, 64, rng)
    ok = 0
    for _ in range(200):
        flips = (rng.random(params.code_len) < 0.25).astype(np.uint8)
        out = fuzzy.fe_reproduce(BitString(w.bits ^ flips), helper)
        ok += out is not None and out.key == key.key
    assert ok >= 199


def test_reproduce_length_checked():
    _, w, _, helper = _setup()
    with pytest.raises(ValueError):
        fuzzy.fe_reproduce(BitString(w.bits[:-1]), helper)


# ----------------------------------------------------------------- toeplitz
def test_toeplitz_zero_input_is_zero():
    seed = BitString.random(16 + 8 - 1, substream(8, "t"))
    out = fuzzy.toeplitz_hash(seed, BitString([0] * 16), 8)
    assert not np.any(out.bits)


def test_toeplitz_gf2_linearity():
    rng = substream(9, "t")
    seed = BitString.random(32 + 16 - 1, rng)
    for _ in range(20):
        x = BitString.random(32, rng)
        y = BitString.random(32, rng)
        lhs = fuzzy.toeplitz_hash(seed, x ^ y, 16)
        rhs = fuzzy.toeplitz_hash(seed, x, 16) ^ fuzzy.toeplitz_hash(seed, y, 16)
        assert lhs == rhs


def test_toeplitz_explicit_3x4_case():
    seed = BitString([1, 0, 1, 1, 0, 1])
    data = BitString([1, 1, 0, 1])
    # rows of the 3x4 matrix are seed[i], i+n-1-j: [1101], [0110], [1011]
    assert list(fuzzy.toeplitz_hash(seed, data, 3).bits) == [1, 1, 0]


def _toeplitz_window_oracle(seed, data, out_len):
    """Row i of the matrix is seed[i : i+n] reversed: a windowed dot with the reversed input."""
    windows = np.lib.stride_tricks.sliding_window_view(seed.bits, len(data))
    acc = windows.astype(np.int64) @ data.bits[::-1].astype(np.int64)
    return BitString((acc & 1).astype(np.uint8))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2000),
    out_len=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_toeplitz_matches_window_oracle(n, out_len, seed):
    rng = substream(seed, "toeplitz")
    key_seed = BitString.random(n + out_len - 1, rng)
    data = BitString.random(n, rng)
    assert fuzzy.toeplitz_hash(key_seed, data, out_len) == _toeplitz_window_oracle(key_seed, data, out_len)


def test_toeplitz_matches_window_oracle_at_extractor_size():
    # the 14208-bit code of a 0.25-BER, 128-block design hashed to a 128-bit key
    rng = substream(11, "toeplitz-large")
    key_seed = BitString.random(14208 + 128 - 1, rng)
    for data in (BitString.random(14208, rng), BitString(np.ones(14208, dtype=np.uint8))):
        assert fuzzy.toeplitz_hash(key_seed, data, 128) == _toeplitz_window_oracle(key_seed, data, 128)


def test_toeplitz_seed_length_checked():
    with pytest.raises(ValueError):
        fuzzy.toeplitz_hash(BitString([0] * 5), BitString([0] * 4), 3)


def test_toeplitz_keys_do_not_collide_for_fixed_seed():
    rng = substream(10, "t")
    seed = BitString.random(128 + 64 - 1, rng)
    keys = {fuzzy.toeplitz_hash(seed, BitString.random(128, rng), 64) for _ in range(100)}
    assert len(keys) == 100


# ----------------------------------------------------------------- accounting
def test_entropy_accounting():
    assert fuzzy.entropy_accounting(256, 0, 1.0) == 256
    assert fuzzy.entropy_accounting(100, 100) == 0
    leak = fuzzy.sketch_leak_bits(fuzzy.RepetitionParams(15, 20))
    assert leak == 280
    assert fuzzy.entropy_accounting(300, leak, 2.0**-40) == 0
    assert fuzzy.entropy_accounting(500, leak, 2.0**-40) == 140
    with pytest.raises(ValueError):
        fuzzy.entropy_accounting(0, 0)


# ----------------------------------------------------------------- persistence
@settings(max_examples=50, deadline=None)
@given(
    n_rep=st.integers(0, 6).map(lambda i: 2 * i + 1),
    n_blocks=st.integers(1, 40),
    key_len=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_helper_roundtrip_property(tmp_path_factory, n_rep, n_blocks, key_len, seed):
    _, w, key, helper = _setup(n_rep, n_blocks, key_len, seed)
    path = tmp_path_factory.mktemp("helper") / "helper.json"
    fuzzy.save_helper(helper, path)
    loaded = fuzzy.load_helper(path)
    assert loaded == helper
    assert fuzzy.fe_reproduce(w, loaded).key == key.key


def test_helper_roundtrip(tmp_path):
    _, w, key, helper = _setup(n_rep=3, n_blocks=5, key_len=16)
    path = tmp_path / "helper.json"
    fuzzy.save_helper(helper, path)
    loaded = fuzzy.load_helper(path)
    assert loaded.sketch == helper.sketch
    assert loaded.toeplitz_seed == helper.toeplitz_seed
    assert loaded.checksum == helper.checksum
    assert fuzzy.fe_reproduce(w, loaded).key == key.key
