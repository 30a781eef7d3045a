"""Secret Unknown Cipher: a per-device random SPN nobody, including the issuer, knows.

Personalization rejection-samples one cryptographically strong 4-bit S-box per
round plus an 80-bit master key from a throwaway entropy stream; only the
device object retains the result.  The cipher is a 64-bit SPN: round key XOR,
the round's secret S-box on all 16 nibbles, a fixed public bit permutation,
and a final whitening key.  The class cardinality is computed from sampled
S-box acceptance; the active S-box trail bound is the closed form
``trails.min_active_sboxes`` (one box per round), which the tier-1 tests check
against an exact best-first trail search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, trails
from .bitstring import BitString, bit_matrix
from .environment import NOMINAL
from .errors import DataFormatError, GenerationFailureError
from .jsonio import decoding, read_json, write_json

#: bit i of the state moves to position 16*i mod 63 (position 63 is fixed)
DEFAULT_PERMUTATION = tuple((16 * i) % 63 for i in range(63)) + (63,)

#: the SPN's block width: 16 nibbles of 4 bits
BLOCK_BITS = 64

#: the master key width
KEY_BITS = 80
#: an accepted S-box has DDT entries and Walsh coefficients (nonzero masks) at most these
SBOX_DDT_MAX = 4
SBOX_WALSH_MAX = 8

_KEY_ROTATION = 61  # coprime to 80, spreads every key bit across round keys
_SBOX_BUDGET = 10**6
_MASK64 = (1 << 64) - 1
_LOG2_16_FACTORIAL = math.log2(math.factorial(16))


@dataclass(frozen=True)
class SucParams:
    """A member of the cipher class: ``rounds`` is the only field; the class attributes are fixed."""

    rounds: int = 40
    key_bits = KEY_BITS
    permutation = DEFAULT_PERMUTATION

    def __post_init__(self):
        if type(self.rounds) is not int or self.rounds < 1:  # bools too
            raise ValueError("rounds must be an int >= 1")


@dataclass(frozen=True)
class SecurityReport:
    cardinality_bits: float
    min_active_sboxes: int
    diff_complexity_log2: float
    lin_complexity_log2: float
    sbox_h_bits: float
    sbox_acceptance_rate: float
    sample_budget: int


@dataclass(frozen=True)
class SboxEntropy:
    h_bits: float
    acceptance_rate: float
    accepted: int
    sampled: int


# --------------------------------------------------------------------------- S-boxes
def sample_sbox_tables(count: int, rng) -> np.ndarray:
    """Uniform random bijections on 0..15, one per row."""
    return np.argsort(rng.random((count, 16)), axis=1).astype(np.uint8)


def sbox_accepted_mask(tables: np.ndarray) -> np.ndarray:
    ddt_max, walsh_max = kernels.sbox_audit_batch(tables)
    return (ddt_max <= SBOX_DDT_MAX) & (walsh_max <= SBOX_WALSH_MAX)


def generate_sbox(rng) -> np.ndarray:
    """Rejection-sample one acceptable S-box; draws stay sequential for replayability."""
    chunk = 64
    drawn = 0
    while drawn < _SBOX_BUDGET:
        tables = sample_sbox_tables(min(chunk, _SBOX_BUDGET - drawn), rng)
        drawn += tables.shape[0]
        good = sbox_accepted_mask(tables)
        idx = np.flatnonzero(good)
        if idx.size:
            return tables[idx[0]].copy()
    raise GenerationFailureError(f"no acceptable S-box in {_SBOX_BUDGET} candidates")


def sbox_entropy_bits(sample_budget: int, rng, params: SucParams = SucParams()) -> SboxEntropy:
    """Monte-Carlo bits per secret S-box: log2(16!) + log2(acceptance rate).

    Every member of the cipher class shares the acceptance bounds, so
    ``params`` is not read; it stays because the benchmark's analysis
    workload passes it.
    """
    if sample_budget < 10**3:
        raise ValueError("sample_budget must be >= 1000")
    accepted = 0
    remaining = sample_budget
    # one audit chunk at a time: rng.random takes one word per double, so the
    # tables are those of one call for the whole budget
    while remaining > 0:
        batch = min(remaining, kernels.AUDIT_CHUNK)
        tables = sample_sbox_tables(batch, rng)
        accepted += int(sbox_accepted_mask(tables).sum())
        remaining -= batch
    if accepted == 0:
        raise RuntimeError("no acceptable S-box sampled; increase sample_budget")
    rate = accepted / sample_budget
    return SboxEntropy(_LOG2_16_FACTORIAL + math.log2(rate), rate, accepted, sample_budget)


# --------------------------------------------------------------------------- key schedule
def round_keys(master_key: int, rounds: int) -> np.ndarray:
    """Rotate-extract schedule: top 64 bits of the key register, rotated between rounds."""
    if master_key < 0 or master_key >> KEY_BITS:
        raise ValueError(f"master key does not fit in {KEY_BITS} bits")
    mask = (1 << KEY_BITS) - 1
    reg = master_key
    keys = np.zeros(rounds + 1, dtype=np.uint64)
    for r in range(rounds + 1):
        keys[r] = (reg >> (KEY_BITS - 64)) & _MASK64
        reg = ((reg << _KEY_ROTATION) | (reg >> (KEY_BITS - _KEY_ROTATION))) & mask
    return keys


# --------------------------------------------------------------------------- device
def challenge_blocks(challenges) -> np.ndarray:
    """0/1 plaintext rows of BLOCK_BITS bits as uint64 blocks, a row's first bit the most significant."""
    rows = bit_matrix(challenges, BLOCK_BITS)
    return np.packbits(rows, axis=1).view(">u8").ravel().astype(np.uint64)


class SucDevice:
    """A personalized cipher instance; the descriptor never leaves this object
    except through :func:`save_device` on an explicitly provided path."""

    __slots__ = (
        "device_id", "params", "_sboxes", "_master_key", "_enc", "_dec", "_enc_block", "_dec_block",
    )

    name = "suc"

    def __init__(self, device_id: str, params: SucParams, sboxes: np.ndarray, master_key: int):
        sboxes = np.asarray(sboxes, dtype=np.uint8)
        if sboxes.shape != (params.rounds, 16):
            raise ValueError("need one 16-entry S-box per round")
        if not np.array_equal(np.sort(sboxes, axis=1), np.broadcast_to(np.arange(16), sboxes.shape)):
            raise ValueError("every S-box must be a bijection on 0..15")
        self.device_id = str(device_id)
        self.params = params
        self._sboxes = sboxes
        self._master_key = int(master_key)
        perm = np.asarray(DEFAULT_PERMUTATION, dtype=np.int64)
        place = trails.scatter_table(perm)
        inv_place = trails.scatter_table(np.argsort(perm))
        inv_sboxes = np.argsort(sboxes, axis=1)
        keys = round_keys(self._master_key, params.rounds)
        # Each table set is (tables, shifts, keys), the byte-table form of the
        # per-nibble scatter tables (kernels.byte_tables).  The permutation
        # P(4j+b) = 16b+j sends nibble j+1 one bit above nibble j, so the
        # encrypt rounds shift byte p by 2p; P^-1 gives 0, 32, 1, 33, ..., 35.
        self._enc = (*kernels.byte_tables(place[:, sboxes].swapaxes(0, 1)), keys)
        # Equivalent inverse cipher (Daemen & Rijmen, The Design of Rijndael, 2002):
        # P^-1 is linear, so P^-1(x ^ k) = P^-1(x) ^ P^-1(k) and each P^-1 moves
        # ahead of the key XOR that follows it.  Table round 0 is P^-1 alone with
        # key 0; round i in 1..R-1 XORs P^-1(k[R-i+1]), inverts S-box R-i and
        # applies P^-1; round R XORs P^-1(k[1]) and inverts S-box 0 (an identity
        # scatter, shifts 8p); k[0] whitens.
        dec_tables, dec_shifts = kernels.byte_tables(np.stack(
            [inv_place]
            + [inv_place[:, inv] for inv in inv_sboxes[:0:-1]]
            + [trails.scatter_table(np.arange(64))[:, inv_sboxes[0]]]
        ))
        # table round 0 alone, keyless, permutes every round key at once
        inv_keys = kernels.spn_batch(keys, dec_tables[:1], dec_shifts[:1], np.zeros(2, dtype=np.uint64))
        dec_keys = np.concatenate((np.zeros(1, dtype=np.uint64), inv_keys[:0:-1], keys[:1]))
        self._dec = (dec_tables, dec_shifts, dec_keys)
        # the same two table sets as tuples of Python ints for the single-block
        # evaluator; each set's rounds share one int per distinct table value
        self._enc_block = kernels.spn_block_rounds(*self._enc)
        self._dec_block = kernels.spn_block_rounds(*self._dec)

    # ------------------------------------------------------------- device interface
    @property
    def challenge_bits(self) -> int:
        return BLOCK_BITS

    def respond(self, challenges, env=NOMINAL, rng=None) -> np.ndarray:
        """Ciphertext bits of each plaintext row; a digital device has no noise path."""
        cipher = self.encrypt_blocks(challenge_blocks(challenges))
        return np.unpackbits(cipher.astype(">u8").view(np.uint8))

    # ------------------------------------------------------------- block API
    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
        return kernels.spn_batch(blocks, *self._enc)

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
        return kernels.spn_batch(blocks, *self._dec)

    def encrypt(self, x: BitString) -> BitString:
        if len(x) != BLOCK_BITS:
            raise ValueError(f"block must be {BLOCK_BITS} bits")
        return BitString.from_int(kernels.spn_block(x.to_int(), *self._enc_block), BLOCK_BITS)

    def decrypt(self, y: BitString) -> BitString:
        if len(y) != BLOCK_BITS:
            raise ValueError(f"block must be {BLOCK_BITS} bits")
        return BitString.from_int(kernels.spn_block(y.to_int(), *self._dec_block), BLOCK_BITS)

    def __repr__(self):
        return f"SucDevice(device_id={self.device_id!r}, rounds={self.params.rounds})"


def personalize(params: SucParams, trng, device_id: str) -> SucDevice:
    """One-shot creation of a device-private cipher from the given entropy stream.

    The stream is consumed and nothing about the draw is retained outside the
    returned device.  Pass a generator seeded from OS entropy in production use;
    pinned seeds are for tests only.
    """
    sboxes = np.stack([generate_sbox(trng) for _ in range(params.rounds)])
    master_key = int.from_bytes(trng.bytes(KEY_BITS // 8), "big")
    return SucDevice(device_id, params, sboxes, master_key)


# --------------------------------------------------------------------------- analysis
def security_report(params: SucParams, sample_budget: int, rng) -> SecurityReport:
    """Cardinality and single-trail attack-complexity lower bounds for this cipher class.

    cardinality_bits counts the key plus per-round S-box choice entropy measured
    by Monte-Carlo acceptance sampling of ``sample_budget`` tables drawn from
    ``rng``.  With A = minimum active S-boxes, the wide-trail bound (Daemen &
    Rijmen, The Design of Rijndael, 2002) puts the best differential trail at
    probability <= (SBOX_DDT_MAX/16)^A and the best linear trail at correlation
    <= (SBOX_WALSH_MAX/16)^A, so both attacks need on the order of 2^(2A) data.
    A = rounds: a nonzero difference keeps at least one nibble active through
    every round, and a one-bit S-box output keeps exactly one active.
    """
    entropy = sbox_entropy_bits(sample_budget, rng)
    active = trails.min_active_sboxes(DEFAULT_PERMUTATION, params.rounds)
    return SecurityReport(
        cardinality_bits=KEY_BITS + params.rounds * entropy.h_bits,
        min_active_sboxes=active,
        diff_complexity_log2=math.log2(16 / SBOX_DDT_MAX) * active,
        lin_complexity_log2=2 * math.log2(16 / SBOX_WALSH_MAX) * active,
        sbox_h_bits=entropy.h_bits,
        sbox_acceptance_rate=entropy.acceptance_rate,
        sample_budget=sample_budget,
    )


# --------------------------------------------------------------------------- persistence
def _params_doc(rounds: int) -> dict:
    """A device file's ``params``; every value but ``rounds`` is a class constant."""
    return {
        "rounds": rounds,
        "key_bits": KEY_BITS,
        "sbox_ddt_max": SBOX_DDT_MAX,
        "sbox_walsh_max": SBOX_WALSH_MAX,
        "permutation": list(DEFAULT_PERMUTATION),
    }


def _key_hex(dev: SucDevice) -> str:
    return f"{dev._master_key:0{KEY_BITS // 4}x}"


def save_device(dev: SucDevice, path) -> None:
    """Write the secret device file; keep it out of any authority-side store."""
    write_json(
        path,
        {
            "kind": "suc_device",
            "device_id": dev.device_id,
            "params": _params_doc(dev.params.rounds),
            "descriptor": descriptor_dict(dev),
        },
    )


def descriptor_dict(dev: SucDevice) -> dict:
    return {"sboxes": dev._sboxes.tolist(), "master_key_hex": _key_hex(dev)}


def descriptor_secret_strings(dev: SucDevice) -> list:
    """Substrings whose appearance in any authority-side artifact means a leak."""
    secrets = [_key_hex(dev)]
    secrets.extend(",".join(str(v) for v in row) for row in dev._sboxes.tolist())
    return secrets


def load_device(path) -> SucDevice:
    doc = read_json(path)
    if doc.get("kind") != "suc_device":
        raise DataFormatError(f"{path}: not a SUC device file")
    with decoding(path):
        if not isinstance(doc["device_id"], str):
            raise TypeError(f"device_id must be a string, not {doc['device_id']!r}")
        params = SucParams(rounds=doc["params"]["rounds"])
        if doc["params"] != _params_doc(params.rounds):
            raise DataFormatError(f"{path}: params other than rounds differ from the cipher class")
        desc = doc["descriptor"]
        device = SucDevice(
            doc["device_id"],
            params,
            np.array(desc["sboxes"], dtype=np.uint8),
            BitString.from_hex(desc["master_key_hex"], KEY_BITS).to_int(),
        )
        # a bijection outside the class (the identity, say) would get the class's bounds
        if not sbox_accepted_mask(device._sboxes).all():
            raise ValueError(f"an S-box exceeds DDT max {SBOX_DDT_MAX} or Walsh max {SBOX_WALSH_MAX}")
        return device
