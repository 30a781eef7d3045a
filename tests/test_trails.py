import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import substream
from clonebench import kernels, suc, trails
from clonebench.rng import WordReader


def test_single_round_needs_one_box():
    assert trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, 1) == 1


@pytest.mark.parametrize("rounds", [1, 2, 5, 9])
def test_identity_permutation_activity_stays_put(rounds):
    assert trails.min_active_sboxes(tuple(range(64)), rounds) == rounds


@pytest.mark.parametrize("rounds", [5, 16, 40])
def test_default_permutation_bound(rounds):
    active = trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, rounds)
    assert active >= rounds


def test_rounds_validated():
    with pytest.raises(ValueError):
        trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, 0)


def test_permutation_validated():
    with pytest.raises(ValueError):
        trails.validate_permutation([0, 0, 1, 2])
    with pytest.raises(ValueError):
        trails.validate_permutation(list(range(10)))  # not nibble aligned


def test_nibble_reach_default_perm():
    reach = trails.nibble_reach(suc.DEFAULT_PERMUTATION)
    assert len(reach) == 16
    for masks in reach:
        # four distinct destination nibbles -> all 15 nonempty subsets
        assert len(masks) == 15
        assert all(0 < m < (1 << 16) for m in masks)


def _permutations():
    """The default permutation, its inverse, the identity and a random one."""
    perm = np.array(suc.DEFAULT_PERMUTATION)
    return [perm, np.argsort(perm), np.arange(64), substream(34, "perm").permutation(64)]


def _place_oracle(dest):
    """table[j][v]: the set bits b of 4-bit value v at nibble j moved to dest[4j+b], bit by bit."""
    out = np.zeros((len(dest) // 4, 16), dtype=np.uint64)
    for j in range(len(dest) // 4):
        for v in range(16):
            acc = 0
            for b in range(4):
                if (v >> b) & 1:
                    acc |= 1 << int(dest[4 * j + b])
            out[j, v] = acc
    return out


def _reach_oracle(perm):
    reach = []
    for j in range(len(perm) // 4):
        dest_nibble = [int(perm[4 * j + b]) // 4 for b in range(4)]
        masks = set()
        for value in range(1, 16):
            mask = 0
            for b in range(4):
                if (value >> b) & 1:
                    mask |= 1 << dest_nibble[b]
            masks.add(mask)
        reach.append(sorted(masks))
    return reach


def test_scatter_table_and_reach_match_oracles():
    for perm in _permutations():
        assert np.array_equal(trails.scatter_table(perm), _place_oracle(perm))
        assert trails.nibble_reach(perm) == _reach_oracle(perm)


def _trail_sboxes():
    return suc.sample_sbox_tables(40, substream(31, "trail-sboxes"))


@pytest.mark.parametrize(
    "rounds, n_trails, seed, digest",
    [
        (10, 200, 32, "d4664e200696ed9fb8a065a69e53e1493f30b5ddcbf0f762c9cacb70c25dd50d"),
        (40, 100, 33, "848d45797ef5c476ad73269340114657b600dd4bcc0f0e777d62ac6a03aa7273"),
    ],
)
def test_sampled_trail_totals_pinned(rounds, n_trails, seed, digest):
    totals = trails.sample_trail_actives(
        _trail_sboxes(), suc.DEFAULT_PERMUTATION, rounds, n_trails, substream(seed, "trail-sample")
    )
    assert hashlib.sha256(totals.astype("<i8").tobytes()).hexdigest() == digest


def _sample_oracle(sboxes, perm, rounds, n_trails, rng):
    """The trail sampler with a per-table Python DDT and a bit-by-bit output scatter."""
    compat = []
    for sbox in sboxes[:rounds].tolist():
        compat.append([sorted({sbox[x ^ a] ^ sbox[x] for x in range(16)} - {0}) for a in range(16)])
    totals = []
    for _ in range(n_trails):
        delta = 0
        while delta == 0:
            delta = int.from_bytes(rng.bytes(len(perm) // 8), "big")
        total = 0
        for r in range(rounds):
            out_delta = 0
            for j in range(len(perm) // 4):
                a = (delta >> (4 * j)) & 0xF
                if a:
                    total += 1
                    choices = compat[r][a]
                    b = choices[rng.integers(0, len(choices))]
                    for bit in range(4):
                        if (b >> bit) & 1:
                            out_delta |= 1 << int(perm[4 * j + bit])
            delta = out_delta
        totals.append(total)
    return totals


def _assert_matches_oracle(sboxes, perm, rounds, n_trails, make_rng):
    """Equal totals, and the generator left in the oracle's state with the same next draw."""
    rng, oracle_rng = make_rng(), make_rng()
    totals = trails.sample_trail_actives(sboxes, perm, rounds, n_trails, rng)
    assert totals.tolist() == _sample_oracle(sboxes, perm, rounds, n_trails, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("rounds, n_trails", [(1, 30), (10, 40), (40, 10)])
def test_sampled_trail_totals_match_oracle(rounds, n_trails):
    sboxes = _trail_sboxes()
    for perm in _permutations()[::3]:  # the default and a random permutation
        _assert_matches_oracle(sboxes, perm, rounds, n_trails, lambda: substream(35, "oracle"))


def test_sampler_entering_with_buffered_half_word_matches_oracle():
    def make_rng():
        rng = substream(36, "half-word")
        rng.integers(0, 2**32, dtype=np.uint32)  # PCG64 keeps the other half of the 64-bit output
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    _assert_matches_oracle(_trail_sboxes(), suc.DEFAULT_PERMUTATION, 10, 20, make_rng)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_sampler_across_read_ahead_chunks_matches_oracle(monkeypatch, chunk):
    # 10 rounds x 20 trails use about 3000 words, so every chunk size here ends
    # inside a bytes() draw and inside a Lemire redraw somewhere
    monkeypatch.setattr(WordReader, "CHUNK", chunk)
    _assert_matches_oracle(_trail_sboxes(), suc.DEFAULT_PERMUTATION, 10, 20, lambda: substream(37, "chunks"))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    rounds=st.integers(min_value=1, max_value=8),
    n_trails=st.integers(min_value=0, max_value=12),
)
def test_sampler_matches_oracle_for_any_seed(seed, rounds, n_trails):
    _assert_matches_oracle(_trail_sboxes(), suc.DEFAULT_PERMUTATION, rounds, n_trails, lambda: substream(seed, "prop"))


def test_sampler_needs_whole_bytes():
    # starting differences are drawn as whole bytes, so nibble 2 of a 12-bit state would never start active
    assert trails.min_active_sboxes(list(range(12)), 1) == 1
    with pytest.raises(ValueError):
        trails.sample_trail_actives(_trail_sboxes(), list(range(12)), 1, 10, substream(38, "short"))


def test_ddt_compatible_outputs_nonempty():
    rng = substream(1, "ddt")
    table = rng.permutation(16).astype(np.uint8)
    ddt, _ = kernels.sbox_spectra(table[None])
    for a in range(1, 16):
        assert ddt[0, a, 0] == 0 and ddt[0, a, 1:].any(), "bijective S-box maps nonzero differences to nonzero ones"


def test_sampled_concrete_trails_respect_dp_bound():
    params = suc.SucParams(rounds=10)
    device = suc.personalize(params, substream(2, "trail"), "trail-dev")
    bound = trails.min_active_sboxes(params.permutation, params.rounds)
    totals = trails.sample_trail_actives(
        device._sboxes, params.permutation, params.rounds, 200, substream(3, "sample")
    )
    assert totals.min() >= bound
