import hashlib
import heapq
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import substream
from clonebench import kernels, suc, trails
from wordstream import WordReader


def test_single_round_needs_one_box():
    assert trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, 1) == 1


@pytest.mark.parametrize("rounds", [1, 2, 5, 9])
def test_identity_permutation_activity_stays_put(rounds):
    assert trails.min_active_sboxes(tuple(range(64)), rounds) == rounds


@pytest.mark.parametrize("rounds", [5, 16, 40])
def test_default_permutation_bound(rounds):
    active = trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, rounds)
    assert active == rounds


def test_rounds_validated():
    with pytest.raises(ValueError):
        trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, 0)
    with pytest.raises(TypeError):
        trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, 2.5)


def test_permutation_validated():
    for perm in ([0, 0, 1, 2], list(range(10))):  # not a bijection; not nibble aligned
        with pytest.raises(ValueError):
            trails.validate_permutation(perm)
        with pytest.raises(ValueError):
            trails.min_active_sboxes(perm, 3)


def test_min_active_sboxes_at_a_million_rounds_stays_small():
    tracemalloc.start()
    try:
        active = trails.min_active_sboxes(suc.DEFAULT_PERMUTATION, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert active == 10**6 and type(active) is int
    assert peak < 100_000


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


def test_scatter_table_matches_oracle():
    for perm in _permutations():
        assert np.array_equal(trails.scatter_table(perm), _place_oracle(perm))


def _successors(state: int, reach) -> set:
    options = {0}
    j = 0
    while state:
        if state & 1:
            options = {base | mask for base in options for mask in reach[j]}
        state >>= 1
        j += 1
    return options


def _min_active_oracle(perm, rounds: int) -> int:
    """Exact minimum number of active S-boxes over all nonzero truncated trails, by best-first search.

    States are nibble-activity patterns.  One round maps each active nibble to
    any nonempty subset of the nibbles its four output bits reach through the
    permutation, and a trail's cost is its total count of active nibbles.  The
    bound of one active box per remaining round is admissible; subset states
    dominate superset states, so single-nibble starts suffice.
    """
    reach = _reach_oracle(perm)
    n_nibbles = len(reach)
    # f = cost so far + one box per remaining round (admissible), so the first
    # state popped at the final round carries the exact minimum
    frontier = [(1 + (rounds - 1), 1, 1 << j) for j in range(n_nibbles)]
    heapq.heapify(frontier)
    best = {}
    while frontier:
        f, depth, state = heapq.heappop(frontier)
        cost = f - (rounds - depth)
        if best.get((depth, state), 1 << 30) < cost:
            continue
        if depth == rounds:
            return cost
        for nxt in _successors(state, reach):
            ncost = cost + bin(nxt).count("1")
            key = (depth + 1, nxt)
            if ncost < best.get(key, 1 << 30):
                best[key] = ncost
                heapq.heappush(frontier, (ncost + (rounds - depth - 1), depth + 1, nxt))
    raise AssertionError("trail search exhausted without reaching the final round")


@pytest.mark.parametrize("rounds", [1, 2, 3, 6])
def test_min_active_sboxes_matches_search_on_fixed_permutations(rounds):
    for perm in _permutations()[:3]:  # the default permutation, its inverse and the identity
        assert trails.min_active_sboxes(perm, rounds) == _min_active_oracle(perm, rounds) == rounds


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n_nibbles=st.integers(min_value=1, max_value=16),
    rounds=st.integers(min_value=1, max_value=6),
)
def test_min_active_sboxes_matches_search(seed, n_nibbles, rounds):
    perm = substream(seed, "perm").permutation(4 * n_nibbles)
    assert trails.min_active_sboxes(perm, rounds) == _min_active_oracle(perm, rounds)


def _trail_sboxes():
    return suc.sample_sbox_tables(40, substream(31, "trail-sboxes"))


@pytest.mark.parametrize(
    "rounds, n_trails, seed, digest",
    [
        (10, 200, 32, "4dbc10f42029df4b9a0805686a7b7e74b40e2eecea597cacd74ee01d7c96a3f6"),
        (40, 100, 33, "1598c4fc307cc7242b9ad82b577b3135d8a217db186e890d28d2b5f4e62fb638"),
    ],
)
def test_sampled_trail_totals_pinned(rounds, n_trails, seed, digest):
    totals = trails.sample_trail_actives(
        _trail_sboxes(), suc.DEFAULT_PERMUTATION, rounds, n_trails, substream(seed, "trail-sample")
    )
    assert hashlib.sha256(totals.astype("<i8").tobytes()).hexdigest() == digest


def _sample_oracle(sboxes, perm, rounds, n_trails, rng):
    """The trail sampler's documented draws, per nibble from the word stream, with a per-table Python DDT and bit-by-bit nibbles."""
    compat = []
    for sbox in sboxes[:rounds].tolist():
        compat.append([sorted({sbox[x ^ a] ^ sbox[x] for x in range(16)} - {0}) for a in range(16)])
    deltas = [int(d) for d in rng.integers(1, 2 ** len(perm), size=n_trails, dtype=np.uint64)]
    totals = [0] * n_trails
    # each round's integers(0, counts) call, replayed word by word: one draw per
    # nibble, trail-major, where an inactive nibble has count 1 and draws nothing
    with WordReader(rng) as words:
        for r in range(rounds):
            for t, delta in enumerate(deltas):
                out_delta = 0
                for j in range(len(perm) // 4):
                    a = (delta >> (4 * j)) & 0xF
                    if a:
                        totals[t] += 1
                        b = compat[r][a][words.below(len(compat[r][a]))]
                        for bit in range(4):
                            if (b >> bit) & 1:
                                out_delta |= 1 << int(perm[4 * j + bit])
                deltas[t] = out_delta
    return totals


def _assert_matches_oracle(sboxes, perm, rounds, n_trails, make_rng):
    """Equal totals, and the generator left in the oracle's state with the same next draw."""
    rng, oracle_rng = make_rng(), make_rng()
    totals = trails.sample_trail_actives(sboxes, perm, rounds, n_trails, rng)
    assert totals.dtype == np.int64
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
    # 10 rounds x 20 trails use about 3000 words, about 300 a round, so every
    # chunk size here ends inside a round's integers(0, counts) call
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


def _nibble_count_oracle(diffs, n_nibbles):
    """Active nibbles per trail over rounds 0 .. rounds - 1, from one (rounds, trails, nibbles) tensor."""
    nibbles = (diffs[:-1, :, None] >> np.arange(0, 4 * n_nibbles, 4, dtype=np.uint64)) & np.uint64(0xF)
    return np.count_nonzero(nibbles, axis=(0, 2)).astype(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    width=st.sampled_from([12, 16, 32, 64]),
    rounds=st.integers(min_value=1, max_value=40),
    n_trails=st.integers(min_value=0, max_value=300),
)
def test_active_totals_match_nibble_tensor_oracle(seed, width, rounds, n_trails):
    perm = substream(seed, "perm").permutation(width)
    diffs = trails._sample_differences(_trail_sboxes(), perm, rounds, n_trails, substream(seed, "count"))
    totals = trails.sample_trail_actives(_trail_sboxes(), perm, rounds, n_trails, substream(seed, "count"))
    assert totals.dtype == np.int64
    assert totals.tolist() == _nibble_count_oracle(diffs, width // 4).tolist()


def test_sample_trail_actives_peak_memory():
    sboxes = _trail_sboxes()
    rng = substream(40, "trail-memory")
    tracemalloc.start()
    try:
        trails.sample_trail_actives(sboxes, suc.DEFAULT_PERMUTATION, 40, 1000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (40, 1000, 16) uint64 nibble tensor peaked at 6.2 MB; counting on the
    # (40, 1000) differences, at 1.0 MB
    assert peak <= 1.5e6


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    rounds=st.integers(min_value=1, max_value=8),
    n_trails=st.integers(min_value=1, max_value=12),
)
def test_sampled_differences_follow_each_rounds_ddt(seed, rounds, n_trails):
    sboxes = _trail_sboxes()
    perm = suc.DEFAULT_PERMUTATION
    ddt, _ = kernels.sbox_spectra(sboxes[:rounds])
    diffs = trails._sample_differences(sboxes, perm, rounds, n_trails, substream(seed, "prop"))
    assert diffs.shape == (rounds + 1, n_trails) and diffs[0].all()
    totals = np.zeros(n_trails, dtype=np.int64)
    for r in range(rounds):
        for t in range(n_trails):
            before, after = int(diffs[r, t]), int(diffs[r + 1, t])
            # undo the permutation bit by bit: output bit 4j+b of the S-box layer went to perm[4j+b]
            sbox_out = sum(1 << src for src, dst in enumerate(perm) if (after >> dst) & 1)
            for j in range(len(perm) // 4):
                a, b = (before >> (4 * j)) & 0xF, (sbox_out >> (4 * j)) & 0xF
                if a:
                    totals[t] += 1
                    assert b and ddt[r, a, b] > 0
                else:
                    assert b == 0
    assert totals.tolist() == trails.sample_trail_actives(sboxes, perm, rounds, n_trails, substream(seed, "prop")).tolist()
    assert totals.min() >= trails.min_active_sboxes(perm, rounds)


def test_permutations_wider_than_64_bits_refused():
    wide = np.arange(128)
    with pytest.raises(ValueError):
        trails.scatter_table(wide)
    with pytest.raises(ValueError):
        trails.scatter_table([-1, 0, 1, 2])
    with pytest.raises(ValueError):
        trails.sample_trail_actives(np.zeros((1, 16), dtype=np.uint8), wide, 1, 10, substream(39, "wide"))
    assert trails.min_active_sboxes(wide, 3) == 3  # the bound needs no uint64 state
    assert trails.min_active_sboxes(np.arange(512), 3) == 3


def test_sampler_takes_nibble_aligned_widths():
    # 12 bits is three nibbles but not whole bytes; the trail bound takes it too
    perm = substream(38, "short").permutation(12)
    for rounds in (1, 4, 9):
        totals = trails.sample_trail_actives(_trail_sboxes(), perm, rounds, 200, substream(39, "short"))
        assert totals.shape == (200,)
        assert totals.min() >= trails.min_active_sboxes(perm, rounds)
        assert totals.max() <= 3 * rounds


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
