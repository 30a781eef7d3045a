"""Code-offset fuzzy extractor: repetition ECC, Toeplitz key hashing, leak accounting.

generate(w) masks a random codeword with the noisy secret w and publishes the
offset; reproduce(w') majority-decodes the offset against a fresh reading and
re-derives the key with a seeded Toeplitz hash.  A 32-bit checksum of w rides
along in the helper data so decoding failures are detected instead of silently
yielding a wrong key.

Over GF(2) the Toeplitz hash is linear in its input: out bit i is the parity
of sum_j data_j * seed_{i+n-1-j}, one entry of ``np.convolve(seed, data,
"valid")``, which float64 computes exactly as every sum is at most n < 2^53.
The enrolled reading is w = sketch XOR repeat(s) for the secret block bits s,
so its key is T*sketch XOR the XOR, over the blocks b with s_b = 1, of block
b's n_rep matrix columns ``seed[n-1-j : n-1-j+key_len]``.  Those columns
cover a run of seed bits, so with c[m] the parity of ``seed[:m]`` block b's
fold has bit i = c[n - b*n_rep + i] XOR c[n - (b+1)*n_rep + i].  A helper's
sketch and seed never change, so :attr:`HelperData.key_table` packs T*sketch
and the block folds into n_blocks + 1 uint64 columns once per helper
(:func:`_fold_key_table`); generate and each reproduce then XOR at most
n_blocks + 1 columns.  The table of a 14208-bit code with 128 blocks and a
128-bit key holds 2 KB, and building it peaks under 0.4 MB.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .bitstring import BitString
from .errors import InfeasibleDesignError
from .jsonio import decoding, read_json, write_json

MAX_REPETITION = 1023
DEFAULT_EPSILON = 2.0**-40
CHECKSUM_BITS = 32  # published in the helper data, so it counts toward the leak
_T_SKETCH = np.ones(1, dtype=np.uint8)  # selects HelperData.key_table's T*sketch column


@dataclass(frozen=True)
class RepetitionParams:
    n_rep: int
    n_blocks: int

    def __post_init__(self):
        if type(self.n_rep) is not int or self.n_rep < 1 or self.n_rep % 2 == 0:  # bools too
            raise ValueError("n_rep must be an odd int >= 1")
        if type(self.n_blocks) is not int or self.n_blocks < 1:
            raise ValueError("n_blocks must be an int >= 1")

    @property
    def code_len(self) -> int:
        return self.n_rep * self.n_blocks


@dataclass(frozen=True)
class HelperData:
    sketch: BitString
    toeplitz_seed: BitString
    key_len: int
    params: RepetitionParams
    checksum: bytes  # 32-bit digest of the enrolled secret

    def __post_init__(self):
        if type(self.key_len) is not int or self.key_len < 1:  # bools too
            raise ValueError("key_len must be an int >= 1")
        if len(self.sketch) != self.params.code_len:
            raise ValueError("sketch length != n_rep * n_blocks")
        if len(self.toeplitz_seed) != self.params.code_len + self.key_len - 1:
            raise ValueError("toeplitz seed length != input_len + key_len - 1")
        if len(self.checksum) != CHECKSUM_BITS // 8:
            raise ValueError(f"checksum must be {CHECKSUM_BITS // 8} bytes")

    @cached_property
    def key_table(self) -> np.ndarray:
        """Packed key columns, folded once per helper: T*sketch, then one per block.

        A read-only (ceil(key_len/64), n_blocks + 1) uint64 array with zero bits
        past key_len; bit i of a column sits at bit i % 64 of word i // 64.
        Column 1 + b is the XOR of block b's n_rep Toeplitz columns, so the XOR
        of columns 0 and 1 + b over the set bits b of s is the key of
        sketch XOR repeat(s) (:func:`_block_key`).
        """
        return _fold_key_table(self.toeplitz_seed.bits, self.sketch.bits, self.params, self.key_len)


@dataclass(frozen=True)
class ExtractedKey:
    key: BitString
    corrected_fraction: float = 0.0  # fraction of input bits the decoder flipped


def binomial_tail_gt_half(n: int, p: float) -> Fraction:
    """Exact P[Bin(n, p) > n/2] as a rational number."""
    pf = Fraction(p)
    qf = 1 - pf
    return sum(
        math.comb(n, k) * pf**k * qf ** (n - k) for k in range(n // 2 + 1, n + 1)
    )


def _tail_gt_half_float(n: int, p: float) -> float:
    """Log-space float estimate of the same tail, used to prescreen candidates."""
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    total = 0.0
    for k in range(n // 2 + 1, n + 1):
        log_pmf = (
            log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q
        )
        total += math.exp(log_pmf)
    return total


def design_repetition(ber: float, fail_target: float, n_blocks: int) -> RepetitionParams:
    """Smallest odd repetition length whose exact block-failure union bound meets the target.

    Candidates are prescreened with a float tail; the returned length is always
    certified by the exact rational tail.
    """
    if not 0 <= ber < 0.5:
        raise ValueError("ber must be in [0, 0.5)")
    if not 0 < fail_target < 1:
        raise ValueError("fail_target must be in (0, 1)")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    if ber == 0:
        return RepetitionParams(1, n_blocks)
    target = Fraction(fail_target)
    for n_rep in range(1, MAX_REPETITION + 1, 2):
        if n_blocks * _tail_gt_half_float(n_rep, ber) > fail_target * (1 + 1e-6):
            continue
        if n_blocks * binomial_tail_gt_half(n_rep, ber) <= target:
            return RepetitionParams(n_rep, n_blocks)
    raise InfeasibleDesignError(
        f"no odd n_rep <= {MAX_REPETITION} reaches {fail_target} at ber {ber}"
    )


# --------------------------------------------------------------------------- codec
def repeat_encode(block_bits: np.ndarray, n_rep: int) -> np.ndarray:
    return np.repeat(np.asarray(block_bits, dtype=np.uint8), n_rep)


def majority_decode(coded: np.ndarray, params: RepetitionParams) -> np.ndarray:
    votes = np.asarray(coded, dtype=np.uint8).reshape(params.n_blocks, params.n_rep)
    return (votes.sum(axis=1) > params.n_rep // 2).astype(np.uint8)


def _toeplitz_parity(seed_bits: np.ndarray, data_bits: np.ndarray) -> np.ndarray:
    """Out bit i = XOR_j data_j & seed_{i+n-1-j} as 0/1 uint8, from one exact float64 convolution."""
    sums = np.convolve(seed_bits.astype(np.float64), data_bits.astype(np.float64), "valid")
    return (sums % 2).astype(np.uint8)


def _fold_key_table(seed_bits, sketch_bits, params: RepetitionParams, key_len: int) -> np.ndarray:
    """:attr:`HelperData.key_table` from the seed's XOR prefix and one convolution."""
    prefix = np.zeros(len(seed_bits) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(seed_bits, out=prefix[1:])
    # window k starts at prefix index k * n_rep; reversed, row b starts at n - b * n_rep
    windows = np.lib.stride_tricks.sliding_window_view(prefix, key_len)[:: params.n_rep][::-1]
    bits = np.zeros((params.n_blocks + 1, 64 * -(-key_len // 64)), dtype=np.uint8)
    bits[0, :key_len] = _toeplitz_parity(seed_bits, sketch_bits)
    np.bitwise_xor(windows[:-1], windows[1:], out=bits[1:, :key_len])
    table = np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little").view("<u8").T)
    table.flags.writeable = False
    return table


def _block_key(helper: HelperData, blocks: np.ndarray) -> BitString:
    """Key of the reading sketch XOR repeat(blocks), for 0/1 uint8 block bits.

    The XOR of ``key_table`` column 0 and the columns 1 + b of the set blocks b.
    """
    selected = np.concatenate((_T_SKETCH, blocks)).view(bool)
    words = np.bitwise_xor.reduce(np.compress(selected, helper.key_table, axis=1), axis=1)
    return BitString(np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")[: helper.key_len])


def toeplitz_hash(seed: BitString, data: BitString, out_len: int) -> BitString:
    """GF(2) Toeplitz matrix-vector product; out bit i = XOR_j data_j & seed_{i+n-1-j}."""
    if out_len < 1:
        raise ValueError("out_len must be >= 1")
    if len(seed) != len(data) + out_len - 1:
        raise ValueError(f"seed length {len(seed)} != {len(data) + out_len - 1}")
    return BitString(_toeplitz_parity(seed.bits, data.bits))


def _checksum(bits: np.ndarray) -> bytes:
    return hashlib.sha256(np.packbits(bits).tobytes()).digest()[: CHECKSUM_BITS // 8]


def fe_generate(w: BitString, params: RepetitionParams, key_len: int, rng) -> tuple:
    """Enroll a noisy secret; returns (ExtractedKey, HelperData)."""
    if len(w) != params.code_len:
        raise ValueError(f"input length {len(w)} != {params.code_len}")
    if key_len < 1:
        raise ValueError("key_len must be >= 1")
    secret_blocks = rng.integers(0, 2, params.n_blocks, dtype=np.uint8)
    sketch = BitString(w.bits ^ repeat_encode(secret_blocks, params.n_rep))
    seed = BitString.random(params.code_len + key_len - 1, rng)
    helper = HelperData(sketch, seed, key_len, params, _checksum(w.bits))
    return ExtractedKey(_block_key(helper, secret_blocks)), helper


def fe_reproduce(w_noisy: BitString, helper: HelperData):
    """Recover the enrolled key and the fraction of bits corrected, or None if decoding failed."""
    if len(w_noisy) != len(helper.sketch):
        raise ValueError(f"input length {len(w_noisy)} != {len(helper.sketch)}")
    offset = w_noisy.bits ^ helper.sketch.bits
    blocks = majority_decode(offset, helper.params)
    w_est = helper.sketch.bits ^ repeat_encode(blocks, helper.params.n_rep)
    if _checksum(w_est) != helper.checksum:
        return None
    corrected = np.count_nonzero(w_est != w_noisy.bits) / len(w_noisy)
    return ExtractedKey(_block_key(helper, blocks), corrected)


fe_reproduce_detail = fe_reproduce  # the name protocol imports


def entropy_accounting(minentropy_in: float, leak_bits: float) -> int:
    """Leftover-hash key budget at eps = DEFAULT_EPSILON: floor(H_in - leak - 2 log2(1/eps)), clamped at 0.

    For the code-offset sketch with its checksum,
    leak_bits = len(sketch) - n_blocks + CHECKSUM_BITS (see :func:`sketch_leak_bits`).
    """
    if minentropy_in <= 0:
        raise ValueError("minentropy_in must be > 0")
    return max(0, math.floor(minentropy_in - leak_bits - 2 * math.log2(1.0 / DEFAULT_EPSILON)))


def sketch_leak_bits(params: RepetitionParams) -> int:
    """Bits of the secret the helper data publishes: the sketch's redundancy and the checksum."""
    return params.code_len - params.n_blocks + CHECKSUM_BITS


# --------------------------------------------------------------------------- persistence
def save_helper(helper: HelperData, path) -> None:
    write_json(
        path,
        {
            "sketch_hex": helper.sketch.to_hex(),
            "seed_hex": helper.toeplitz_seed.to_hex(),
            "key_len": helper.key_len,
            "n_rep": helper.params.n_rep,
            "n_blocks": helper.params.n_blocks,
            "checksum_hex": helper.checksum.hex(),
        },
    )


def load_helper(path) -> HelperData:
    doc = read_json(path)
    with decoding(path):
        params = RepetitionParams(doc["n_rep"], doc["n_blocks"])
        return HelperData(
            BitString.from_hex(doc["sketch_hex"], params.code_len),
            BitString.from_hex(doc["seed_hex"], params.code_len + doc["key_len"] - 1),
            doc["key_len"],
            params,
            np.packbits(BitString.from_hex(doc["checksum_hex"], CHECKSUM_BITS).bits).tobytes(),
        )
