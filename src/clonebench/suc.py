"""Secret Unknown Cipher: a per-device random SPN nobody, including the issuer, knows.

Personalization rejection-samples one cryptographically strong 4-bit S-box per
round plus an 80-bit master key from a throwaway entropy stream; only the
device object retains the result.  The cipher is a 64-bit SPN: round key XOR,
the round's secret S-box on all 16 nibbles, a fixed public bit permutation,
and a final whitening key.  Security quantities (class cardinality, active
S-box trail bounds) are computed, not asserted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, trails
from .bitstring import BitString
from .environment import NOMINAL
from .errors import DataFormatError, GenerationFailureError
from .jsonio import decoding, read_json, write_json
from .rng import substream

#: bit i of the state moves to position 16*i mod 63 (position 63 is fixed)
DEFAULT_PERMUTATION = tuple((16 * i) % 63 for i in range(63)) + (63,)

_KEY_ROTATION = 61  # coprime to 80, spreads every key bit across round keys
_SBOX_BUDGET = 10**6
_MASK64 = (1 << 64) - 1
_LOG2_16_FACTORIAL = math.log2(math.factorial(16))


@dataclass(frozen=True)
class SucParams:
    block_bits: int = 64
    nibbles: int = 16
    rounds: int = 40
    key_bits: int = 80
    sbox_ddt_max: int = 4
    sbox_walsh_max: int = 8
    permutation: tuple = DEFAULT_PERMUTATION

    def __post_init__(self):
        if self.block_bits != 64 or self.nibbles != 16:
            raise ValueError("this SPN is fixed at 64-bit blocks of 16 nibbles")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.key_bits < 64:
            raise ValueError("key_bits must cover at least one round key")
        perm = trails.validate_permutation(self.permutation)
        if perm.size != self.block_bits:
            raise ValueError("permutation must act on 64 bit positions")


@dataclass(frozen=True)
class SecurityReport:
    cardinality_bits: float
    min_active_sboxes: int
    diff_complexity_log2: float
    lin_complexity_log2: float
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


def sbox_accepted_mask(tables: np.ndarray, params: SucParams) -> np.ndarray:
    ddt_max, walsh_max = kernels.sbox_audit_batch(tables)
    return (ddt_max <= params.sbox_ddt_max) & (walsh_max <= params.sbox_walsh_max)


def generate_sbox(params: SucParams, rng, budget: int = _SBOX_BUDGET) -> np.ndarray:
    """Rejection-sample one acceptable S-box; draws stay sequential for replayability."""
    chunk = 64
    drawn = 0
    while drawn < budget:
        tables = sample_sbox_tables(min(chunk, budget - drawn), rng)
        drawn += tables.shape[0]
        good = sbox_accepted_mask(tables, params)
        idx = np.flatnonzero(good)
        if idx.size:
            return tables[idx[0]].copy()
    raise GenerationFailureError(f"no acceptable S-box in {budget} candidates")


def sbox_entropy_bits(sample_budget: int, rng, params: SucParams = SucParams()) -> SboxEntropy:
    """Monte-Carlo bits per secret S-box: log2(16!) + log2(acceptance rate)."""
    if sample_budget < 10**3:
        raise ValueError("sample_budget must be >= 1000")
    accepted = 0
    remaining = sample_budget
    while remaining > 0:
        batch = min(remaining, 1 << 14)
        tables = sample_sbox_tables(batch, rng)
        accepted += int(sbox_accepted_mask(tables, params).sum())
        remaining -= batch
    if accepted == 0:
        raise RuntimeError("no acceptable S-box sampled; increase sample_budget")
    rate = accepted / sample_budget
    return SboxEntropy(_LOG2_16_FACTORIAL + math.log2(rate), rate, accepted, sample_budget)


# --------------------------------------------------------------------------- key schedule
def round_keys(master_key: int, rounds: int, key_bits: int = 80) -> np.ndarray:
    """Rotate-extract schedule: top 64 bits of the key register, rotated between rounds."""
    if master_key < 0 or master_key >> key_bits:
        raise ValueError(f"master key does not fit in {key_bits} bits")
    mask = (1 << key_bits) - 1
    reg = master_key
    keys = np.zeros(rounds + 1, dtype=np.uint64)
    for r in range(rounds + 1):
        keys[r] = (reg >> (key_bits - 64)) & _MASK64
        reg = ((reg << _KEY_ROTATION) | (reg >> (key_bits - _KEY_ROTATION))) & mask
    return keys


# --------------------------------------------------------------------------- device
def _perm_place_tables(perm: np.ndarray) -> np.ndarray:
    """tables[j][v]: 4-bit value v at source nibble j scattered to its destinations."""
    out = np.zeros((16, 16), dtype=np.uint64)
    for j in range(16):
        for v in range(16):
            acc = 0
            for b in range(4):
                if (v >> b) & 1:
                    acc |= 1 << int(perm[4 * j + b])
            out[j, v] = acc
    return out


class SucDevice:
    """A personalized cipher instance; the descriptor never leaves this object
    except through :func:`save_device` on an explicitly provided path."""

    __slots__ = (
        "device_id", "params", "_sboxes", "_master_key",
        "_enc", "_enc_keys", "_dec", "_dec_keys", "_enc_block", "_dec_block",
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
        perm = np.asarray(params.permutation, dtype=np.int64)
        place = _perm_place_tables(perm)
        inv_place = _perm_place_tables(np.argsort(perm))
        inv_sboxes = np.argsort(sboxes, axis=1)
        keys = round_keys(self._master_key, params.rounds, params.key_bits)
        # C order, so that each round's 256 entries are one run of memory for spn_block_rounds
        self._enc = np.ascontiguousarray(np.stack([place[:, sbox] for sbox in sboxes]))
        self._enc_keys = keys
        # Equivalent inverse cipher (Daemen & Rijmen, The Design of Rijndael, 2002):
        # P^-1 is linear, so P^-1(x ^ k) = P^-1(x) ^ P^-1(k) and each P^-1 moves
        # ahead of the key XOR that follows it.  Table round 0 is P^-1 alone with
        # key 0; round i in 1..R-1 XORs P^-1(k[R-i+1]), inverts S-box R-i and
        # applies P^-1; round R XORs P^-1(k[1]) and inverts S-box 0; k[0] whitens.
        self._dec = np.stack(
            [inv_place]
            + [inv_place[:, inv] for inv in inv_sboxes[:0:-1]]
            + [_perm_place_tables(np.arange(64))[:, inv_sboxes[0]]]
        )
        # one keyless table round of P^-1 alone permutes every round key at once
        inv_keys = kernels.spn_batch(keys, inv_place[None], np.zeros(2, dtype=np.uint64))
        self._dec_keys = np.concatenate((np.zeros(1, dtype=np.uint64), inv_keys[:0:-1], keys[:1]))
        # the same two table sets, wrapped for the single-block evaluator
        self._enc_block = kernels.spn_block_rounds(self._enc, self._enc_keys)
        self._dec_block = kernels.spn_block_rounds(self._dec, self._dec_keys)

    # ------------------------------------------------------------- device interface
    @property
    def challenge_bits(self) -> int:
        return self.params.block_bits

    def respond(self, challenges, env=NOMINAL, rng=None) -> np.ndarray:
        """Ciphertext bits of each plaintext row; a digital device has no noise path."""
        rows = np.atleast_2d(np.asarray(challenges, dtype=np.uint8))
        if rows.shape[1] != self.params.block_bits:
            raise ValueError(f"challenge rows must be {self.params.block_bits} bits")
        blocks = np.packbits(rows, axis=1).view(">u8").ravel().astype(np.uint64)
        return np.unpackbits(self.encrypt_blocks(blocks).astype(">u8").view(np.uint8))

    # ------------------------------------------------------------- block API
    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
        return kernels.spn_batch(blocks, self._enc, self._enc_keys)

    def decrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
        return kernels.spn_batch(blocks, self._dec, self._dec_keys)

    def encrypt(self, x: BitString) -> BitString:
        if len(x) != self.params.block_bits:
            raise ValueError(f"block must be {self.params.block_bits} bits")
        return BitString.from_int(kernels.spn_block(x.to_int(), *self._enc_block), self.params.block_bits)

    def decrypt(self, y: BitString) -> BitString:
        if len(y) != self.params.block_bits:
            raise ValueError(f"block must be {self.params.block_bits} bits")
        return BitString.from_int(kernels.spn_block(y.to_int(), *self._dec_block), self.params.block_bits)

    def __repr__(self):
        return f"SucDevice(device_id={self.device_id!r}, rounds={self.params.rounds})"


def personalize(params: SucParams, trng, device_id: str) -> SucDevice:
    """One-shot creation of a device-private cipher from the given entropy stream.

    The stream is consumed and nothing about the draw is retained outside the
    returned device.  Pass a generator seeded from OS entropy in production use;
    pinned seeds are for tests only.
    """
    sboxes = np.stack([generate_sbox(params, trng) for _ in range(params.rounds)])
    master_key = int.from_bytes(trng.bytes(params.key_bits // 8), "big")
    master_key &= (1 << params.key_bits) - 1
    return SucDevice(device_id, params, sboxes, master_key)


# --------------------------------------------------------------------------- analysis
def security_report(params: SucParams, sample_budget: int = 20000, rng=None) -> SecurityReport:
    """Cardinality and single-trail attack-complexity lower bounds for this cipher class.

    cardinality_bits counts the key plus per-round S-box choice entropy measured
    by Monte-Carlo acceptance sampling.  With A = minimum active S-boxes, the
    best differential trail has probability <= (2^-2)^A and the best linear
    trail correlation <= 2^-A, so both attacks need on the order of 2^(2A) data.
    """
    if sample_budget < 10**3:
        raise ValueError("sample_budget must be >= 1000")
    rng = substream(0, "suc", "sbox-entropy") if rng is None else rng
    entropy = sbox_entropy_bits(sample_budget, rng, params)
    active = trails.min_active_sboxes(params.permutation, params.rounds)
    return SecurityReport(
        cardinality_bits=params.key_bits + params.rounds * entropy.h_bits,
        min_active_sboxes=active,
        diff_complexity_log2=2.0 * active,
        lin_complexity_log2=2.0 * active,
        sbox_acceptance_rate=entropy.acceptance_rate,
        sample_budget=sample_budget,
    )


# --------------------------------------------------------------------------- persistence
def save_device(dev: SucDevice, path) -> None:
    """Write the secret device file; keep it out of any authority-side store."""
    write_json(
        path,
        {
            "kind": "suc_device",
            "device_id": dev.device_id,
            "params": {
                "rounds": dev.params.rounds,
                "key_bits": dev.params.key_bits,
                "sbox_ddt_max": dev.params.sbox_ddt_max,
                "sbox_walsh_max": dev.params.sbox_walsh_max,
                "permutation": list(dev.params.permutation),
            },
            "descriptor": descriptor_dict(dev),
        },
        secret=True,
    )


def descriptor_dict(dev: SucDevice) -> dict:
    return {
        "sboxes": dev._sboxes.tolist(),
        "master_key_hex": f"{dev._master_key:0{dev.params.key_bits // 4}x}",
    }


def descriptor_secret_strings(dev: SucDevice) -> list:
    """Substrings whose appearance in any authority-side artifact means a leak."""
    secrets = [f"{dev._master_key:0{dev.params.key_bits // 4}x}"]
    secrets.extend(",".join(str(v) for v in row) for row in dev._sboxes.tolist())
    return secrets


def load_device(path) -> SucDevice:
    doc = read_json(path)
    if doc.get("kind") != "suc_device":
        raise DataFormatError(f"{path}: not a SUC device file")
    with decoding(path):
        p = doc["params"]
        params = SucParams(
            rounds=p["rounds"],
            key_bits=p["key_bits"],
            sbox_ddt_max=p["sbox_ddt_max"],
            sbox_walsh_max=p["sbox_walsh_max"],
            permutation=tuple(p["permutation"]),
        )
        desc = doc["descriptor"]
        return SucDevice(
            doc["device_id"],
            params,
            np.array(desc["sboxes"], dtype=np.uint8),
            int(desc["master_key_hex"], 16),
        )
