"""The SUC cipher pinned from outside the library.

Known-answer vectors freeze the ciphertexts of pinned devices; a pure-Python
oracle written from the cipher's specification checks both directions; and a
property test checks that decrypt and encrypt are two-sided inverses.
"""
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, substream, suc

KAT_BLOCKS = (0x0000000000000000, 0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF, 0x8000000000000001)

# (seed, rounds) -> (ciphertexts of KAT_BLOCKS, plaintexts decrypted from KAT_BLOCKS)
KNOWN_ANSWERS = {
    (31, 1): (
        ("d25681ecce52be39", "ffab8cf11d496086", "9c0ffe79c8f5ecd0", "525781ed4e52be38"),
        ("58b7cc47c76d9588", "067944885b355a6e", "95b701488d3d346e", "78b7cc47c76d9580"),
    ),
    (32, 4): (
        ("81f8d8e1a3664fa1", "5987e841f6ced926", "d57f433229ca8a49", "17a9f4a41581d640"),
        ("2fae77d10a652538", "179adbd0df53340c", "22cf8a5ed89dc481", "010e005b8a9a2297"),
    ),
    (33, 40): (
        ("65d697e9030fe393", "1f1f1499b05ecff7", "f5d28ad1d7c8853f", "b70598da809c9ce0"),
        ("2cad8fdbd7ba929c", "ab2df041bf56ea58", "1d722d49883876a7", "cef518ffaa97c7c3"),
    ),
}

MASK64 = (1 << 64) - 1


@lru_cache(maxsize=None)
def _kat_device(seed, rounds):
    return suc.personalize(suc.SucParams(rounds=rounds), substream(seed, "kat"), "kat")


@lru_cache(maxsize=None)
def _prop_device(seed, rounds):
    return suc.personalize(suc.SucParams(rounds=rounds), substream(seed, "spn-prop"), "prop")


# ----------------------------------------------------------------- oracle
def _oracle_round_keys(master_key, rounds, key_bits=80):
    # top 64 bits of the key register, register rotated left by 61 between rounds
    keys, reg, mask = [], master_key, (1 << key_bits) - 1
    for _ in range(rounds + 1):
        keys.append(reg >> (key_bits - 64))
        reg = ((reg << 61) | (reg >> (key_bits - 61))) & mask
    return keys


def _oracle_permute(s, inverse=False):
    # bit i moves to 16*i mod 63; bit 63 stays
    out = 0
    for i in range(64):
        dst = 63 if i == 63 else (16 * i) % 63
        src, dst = (dst, i) if inverse else (i, dst)
        out |= ((s >> src) & 1) << dst
    return out


def _oracle_substitute(s, sbox):
    return sum(sbox[(s >> (4 * j)) & 15] << (4 * j) for j in range(16))


def _oracle_encrypt(device, x):
    sboxes = device._sboxes.tolist()
    keys = _oracle_round_keys(device._master_key, len(sboxes))
    s = x
    for r, sbox in enumerate(sboxes):
        s = _oracle_permute(_oracle_substitute(s ^ keys[r], sbox))
    return s ^ keys[-1]


def _oracle_decrypt(device, y):
    sboxes = device._sboxes.tolist()
    keys = _oracle_round_keys(device._master_key, len(sboxes))
    s = y ^ keys[-1]
    for r in range(len(sboxes) - 1, -1, -1):
        inverse = [sboxes[r].index(v) for v in range(16)]
        s = _oracle_substitute(_oracle_permute(s, inverse=True), inverse) ^ keys[r]
    return s


def test_oracle_permutation_and_keys_match_the_spec():
    assert _oracle_permute(1 << 1) == 1 << 16
    assert _oracle_permute(1 << 4) == 1 << 1  # 64 mod 63
    assert _oracle_permute(1 << 63) == 1 << 63
    for x in (0x0123456789ABCDEF, MASK64, 1):
        assert _oracle_permute(_oracle_permute(x), inverse=True) == x
    master = int.from_bytes(substream(22, "ks").bytes(10), "big")
    assert _oracle_round_keys(master, 40) == [int(k) for k in suc.round_keys(master, 40)]


# ----------------------------------------------------------------- known answers
def test_known_answer_vectors():
    blocks = np.array(KAT_BLOCKS, dtype=np.uint64)
    for (seed, rounds), (cipher_hex, plain_hex) in KNOWN_ANSWERS.items():
        device = _kat_device(seed, rounds)
        assert [f"{int(v):016x}" for v in device.encrypt_blocks(blocks)] == list(cipher_hex)
        assert [f"{int(v):016x}" for v in device.decrypt_blocks(blocks)] == list(plain_hex)
        assert device.encrypt(BitString.from_int(KAT_BLOCKS[2], 64)).to_hex() == cipher_hex[2]
        assert device.decrypt(BitString.from_int(KAT_BLOCKS[2], 64)).to_hex() == plain_hex[2]


def test_known_answer_vectors_match_oracle():
    for (seed, rounds), (cipher_hex, plain_hex) in KNOWN_ANSWERS.items():
        device = _kat_device(seed, rounds)
        for x, c, p in zip(KAT_BLOCKS, cipher_hex, plain_hex):
            assert _oracle_encrypt(device, x) == int(c, 16)
            assert _oracle_decrypt(device, x) == int(p, 16)


def test_blocks_match_oracle():
    blocks = substream(34, "oracle").integers(0, 2**64, 64, dtype=np.uint64, endpoint=False)
    for rounds in (1, 2, 5, 40):
        device = _prop_device(rounds, rounds)
        enc = device.encrypt_blocks(blocks)
        dec = device.decrypt_blocks(blocks)
        for x, y, z in zip(blocks.tolist(), enc.tolist(), dec.tolist()):
            assert y == _oracle_encrypt(device, x)
            assert z == _oracle_decrypt(device, x)


# ----------------------------------------------------------------- inverse property
@settings(max_examples=200, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=MASK64),
    rounds=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
)
def test_decrypt_and_encrypt_are_two_sided_inverses(value, rounds, seed):
    device = _prop_device(seed, rounds)
    block = np.array([value], dtype=np.uint64)
    assert int(device.decrypt_blocks(device.encrypt_blocks(block))[0]) == value
    assert int(device.encrypt_blocks(device.decrypt_blocks(block))[0]) == value
