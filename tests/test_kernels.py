"""The numpy kernels: S-box audits against the scalar reference, and the
byte-table form of the SPN rounds."""
import tracemalloc

import numpy as np
import pytest

from clonebench import kernels, substream, suc, trails
from test_suc import _oracle_maxima


def test_backend_flag():
    assert kernels.active_backend() == "numpy"


def test_audit_batch_matches_scalar_reference():
    rng = substream(14, "audit-ref")
    tables = np.argsort(rng.random((32, 16)), axis=1).astype(np.uint8)
    d, w = kernels.sbox_audit_batch(tables)
    for i in range(tables.shape[0]):
        assert _oracle_maxima(tables[i].tolist()) == (int(d[i]), int(w[i]))


def test_identity_sbox_saturates_audit():
    tables = np.arange(16, dtype=np.uint8)[None, :]
    d, w = kernels.sbox_audit_batch(tables)
    assert int(d[0]) == 16
    assert int(w[0]) == 16


def test_audit_chunks_agree_with_one_spectra_call():
    tables = np.argsort(substream(15, "audit-chunks").random((2500, 16)), axis=1).astype(np.uint8)
    ddt, walsh = kernels.sbox_spectra(tables)
    d, w = kernels.sbox_audit_batch(tables)
    assert np.array_equal(d, ddt[:, 1:, 1:].max(axis=(1, 2)))
    assert np.array_equal(w, np.abs(walsh[:, 1:, 1:]).max(axis=(1, 2)))


# ----------------------------------------------------------------- SPN byte tables
def _device(rounds=40):
    return suc.personalize(suc.SucParams(rounds=rounds), substream(16, "byte-tables"), "bt")


def _nibble_tables(perm, sboxes):
    place = trails.scatter_table(perm)
    return np.stack([place[:, sbox] for sbox in sboxes])


def test_byte_tables_are_the_or_of_nibble_lookups():
    sboxes = suc.sample_sbox_tables(6, substream(17, "bt-sboxes"))
    nib = _nibble_tables(suc.DEFAULT_PERMUTATION, sboxes)
    tables, shifts = kernels.byte_tables(nib)
    assert tables.shape == (6, 256) and tables.flags.c_contiguous
    x = np.arange(256)
    for p in range(8):
        moved = tables << shifts[:, p, None].astype(np.uint64)
        assert np.array_equal(moved, nib[:, 2 * p, x & 15] | nib[:, 2 * p + 1, x >> 4])


def test_cipher_table_sets_have_the_permutation_shifts():
    device = _device()
    enc_tables, enc_shifts, _ = device._enc
    dec_tables, dec_shifts, _ = device._dec
    assert (enc_shifts == 2 * np.arange(8)).all()
    assert (dec_shifts[:-1] == [0, 32, 1, 33, 2, 34, 3, 35]).all()
    assert (dec_shifts[-1] == 8 * np.arange(8)).all()
    # 2 KiB of table and 8 bytes of shifts per table round
    for tables, shifts, _ in (device._enc, device._dec):
        assert tables.nbytes == 2048 * len(tables) and shifts.nbytes == 8 * len(tables)
    assert len(enc_tables) == 40 and len(dec_tables) == 41


def test_byte_tables_reject_a_random_permutation():
    perm = np.argsort(substream(18, "bt-perm").random(64))
    sboxes = suc.sample_sbox_tables(3, substream(19, "bt-sboxes"))
    with pytest.raises(ValueError, match="not shifts"):
        kernels.byte_tables(_nibble_tables(perm, sboxes))


def test_byte_tables_reject_a_shift_that_drops_a_bit():
    # byte 0 fills bits 56..63 and byte 1 is byte 0 two bits up, cut at bit 63:
    # every entry matches a shift of 2, but bits 62 and 63 of byte 0 would
    # leave the word; bytes 2..7 repeat byte 0
    v = np.arange(16, dtype=np.uint64)
    byte0 = np.stack([v << np.uint64(56), v << np.uint64(60)])
    nib = np.tile(byte0, (1, 8, 1))
    nib[0, 2:4] = byte0 << np.uint64(2)
    with pytest.raises(ValueError, match="past bit 63"):
        kernels.byte_tables(nib)


def test_batch_memory_is_four_block_buffers():
    # the state, the accumulator, the byte index and the shifted lookup, reused every round
    device = _device()
    blocks = substream(20, "bt-mem").integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    tracemalloc.start()
    try:
        device.encrypt_blocks(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * blocks.nbytes + 64 * 1024


def test_block_rounds_share_one_int_per_table_value():
    device = _device()
    for (tables, shifts, keys), (rounds, out_key), n_values in (
        (device._enc, device._enc_block, 256), (device._dec, device._dec_block, 508),
    ):
        assert len(rounds) == len(tables)
        for r, (t, k, *s) in enumerate(rounds):
            assert list(t) == tables[r].tolist()
            assert k == int(keys[r]) and s == shifts[r, 1:].tolist()
        assert out_key == int(keys[-1])
        # every round's table permutes one value set, so the rounds share its ints
        assert len({id(v) for t, *_ in rounds for v in t}) == len(np.unique(tables)) == n_values


def test_block_rounds_memory_is_one_int_pool():
    # 40 tuples of 256 slots and 256 shared ints; tables.tolist() would hold about 414 KB
    device = _device()
    tracemalloc.start()
    try:
        rounds, _ = kernels.spn_block_rounds(*device._enc)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rounds) == 40 and retained <= 128 * 1024


@pytest.mark.parametrize("state", [-1, 2**64])
def test_block_refuses_a_state_outside_64_bits(state):
    device = _device()
    for rounds, out_key in (device._enc_block, device._dec_block):
        with pytest.raises(OverflowError):
            kernels.spn_block(state, rounds, out_key)
