"""Enrollment and challenge-response identification against a trusted-authority store.

CRPs are strictly single-use: a record is atomically marked consumed before its
challenge goes to the channel, so a concurrent session can never replay it.
Surviving a crash is up to whoever persists the store: the CLI session writes
the store with the burned record to disk before the device answers, and
in-memory callers own their persistence.  The device side sits behind an
in-process channel object into which bit-flip faults can be injected; the store
itself never sees cipher internals.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .acoustic import Fingerprint
from .bitstring import BitString
from .errors import DataFormatError
from .fuzzy import HelperData, fe_reproduce_detail
from .jsonio import decoding, dumps_canonical, read_json, write_json
from .suc import BLOCK_BITS, KEY_BITS, SucDevice, descriptor_secret_strings

FORWARD = "forward"
INVERSE = "inverse"

REASON_MATCH = "match"
REASON_MISMATCH = "mismatch"
REASON_DEPLETED = "depleted"
REASON_REPLAY = "replay"
REASON_TAMPER = "tamper"

#: a device whose response takes no challenge is enrolled under a power-up index
POWER_UP_INDEX_BITS = 8


@dataclass(frozen=True)
class VerdictReport:
    """The outcome of one round: accepted exactly when the reason is a match."""

    reason: str
    entropy_bits: float | None = None

    @property
    def accepted(self) -> bool:
        return self.reason == REASON_MATCH

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else "reject"


@dataclass
class CrpRecord:
    challenge: BitString
    response: BitString
    used: bool = False


@dataclass
class CrpStore:
    """Authority-side single-use CRP database, keyed by device id."""

    mode: str = FORWARD
    records: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    _cursor: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (FORWARD, INVERSE):
            raise ValueError(f"mode must be '{FORWARD}' or '{INVERSE}'")

    def device_records(self, device_id: str) -> list:
        return self.records.setdefault(device_id, [])

    def challenges(self, device_id: str) -> set:
        return {rec.challenge for rec in self.records.get(device_id, [])}

    def count_unused(self, device_id: str) -> int:
        return sum(not rec.used for rec in self.records.get(device_id, []))

    def consume_next(self, device_id: str):
        """Atomically claim the next unused record (it is burned regardless of verdict)."""
        with self._lock:
            records = self.records.get(device_id, [])
            i = self._cursor.get(device_id, 0)
            while i < len(records):
                if not records[i].used:
                    records[i].used = True
                    self._cursor[device_id] = i + 1
                    return records[i]
                i += 1
            self._cursor[device_id] = i
        return None

    def consume_challenge(self, device_id: str, challenge: BitString):
        """Claim a specific record; returns (record, was_already_used)."""
        with self._lock:
            for rec in self.records.get(device_id, []):
                if rec.challenge == challenge:
                    if rec.used:
                        return rec, True
                    rec.used = True
                    return rec, False
        return None, False


# --------------------------------------------------------------------------- device side
class SucAgent:
    """Device-resident responder: encrypts forward challenges, decrypts inverse ones."""

    def __init__(self, device: SucDevice):
        self._device = device

    def forward(self, challenge: BitString) -> BitString:
        return self._device.encrypt(challenge)

    def inverse(self, ciphertext: BitString) -> BitString:
        return self._device.decrypt(ciphertext)


class RandomAgent:
    """Impostor baseline: answers every exchange with uniform random bits."""

    def __init__(self, rng):
        self._rng = rng

    def forward(self, challenge: BitString) -> BitString:
        return BitString.random(BLOCK_BITS, self._rng)

    inverse = forward


class DeviceChannel:
    """In-process transport to a device agent with optional injected bit faults."""

    def __init__(self, agent, fault_mask: BitString | None = None):
        self.agent = agent
        self.fault_mask = fault_mask

    def _deliver(self, reply: BitString) -> BitString:
        if self.fault_mask is None:
            return reply
        return reply ^ self.fault_mask

    def forward(self, challenge: BitString) -> BitString:
        return self._deliver(self.agent.forward(challenge))

    def inverse(self, ciphertext: BitString) -> BitString:
        return self._deliver(self.agent.inverse(ciphertext))


def tamper_channel(channel: DeviceChannel, flip_positions) -> DeviceChannel:
    """Channel that additionally XORs the given bit positions into every reply."""
    mask = np.zeros(BLOCK_BITS, dtype=np.uint8)
    for pos in flip_positions:
        if not 0 <= pos < BLOCK_BITS:
            raise ValueError(f"flip position {pos} out of range")
        mask[pos] ^= 1
    new_mask = BitString(mask)
    if channel.fault_mask is not None:
        new_mask = new_mask ^ channel.fault_mask
    if not np.any(new_mask.bits):
        return DeviceChannel(channel.agent, None)
    return DeviceChannel(channel.agent, new_mask)


# --------------------------------------------------------------------------- enrollment
def enroll(device, n_pairs: int, rng, store: CrpStore, device_id: str | None = None) -> int:
    """Evaluate n_pairs fresh distinct challenges on the device and bank the records."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    device_id = getattr(device, "device_id", device_id) or device_id
    if device_id is None:
        raise ValueError("device_id required for devices that do not carry one")
    n_bits = device.challenge_bits or POWER_UP_INDEX_BITS
    seen = store.challenges(device_id)
    if n_pairs > (1 << n_bits) - len(seen):
        raise ValueError(f"challenge space exhausted: {n_pairs} fresh pairs of {n_bits} bits")
    fresh: list[BitString] = []
    while len(fresh) < n_pairs:
        c = BitString.random(n_bits, rng)
        if c in seen:
            continue
        seen.add(c)
        fresh.append(c)
    replies = device.respond(fresh).reshape(n_pairs, -1)
    records = [CrpRecord(c, BitString(r)) for c, r in zip(fresh, replies)]
    with store._lock:
        store.device_records(device_id).extend(records)
    return len(records)


# --------------------------------------------------------------------------- identification
def _run_exchange(store: CrpStore, channel: DeviceChannel, record: CrpRecord) -> VerdictReport:
    try:
        if store.mode == FORWARD:
            reply = channel.forward(record.challenge)
            expected = record.response
        else:
            reply = channel.inverse(record.response)
            expected = record.challenge
    except Exception:
        return VerdictReport(REASON_TAMPER)
    return VerdictReport(REASON_MATCH if reply == expected else REASON_MISMATCH)


def identify(store: CrpStore, channel: DeviceChannel, device_id: str) -> VerdictReport:
    """One single-use identification round; consumes a record even on reject."""
    record = store.consume_next(device_id)
    if record is None:
        return VerdictReport(REASON_DEPLETED)
    return _run_exchange(store, channel, record)


def verify_challenge(
    store: CrpStore, channel: DeviceChannel, device_id: str, challenge: BitString
) -> VerdictReport:
    """Identification pinned to a specific stored challenge; replays are refused."""
    record, already_used = store.consume_challenge(device_id, challenge)
    if record is None:
        return VerdictReport(REASON_DEPLETED)
    if already_used:
        return VerdictReport(REASON_REPLAY)
    return _run_exchange(store, channel, record)


def combined_verify(
    store: CrpStore,
    structural_helper: HelperData,
    fp_measured: Fingerprint,
    channel: DeviceChannel,
    device_id: str,
    tau: float,
    *,
    structural_dof_bits: float | None = None,
    suc_key_bits: int = KEY_BITS,
) -> VerdictReport:
    """Joint mechatronic check: structural key reproduction AND cipher identification.

    tau bounds the fraction of fingerprint bits the extractor may correct on the
    structural path; the cipher path is exact-match.  The reported entropy is
    the sum of the structural estimate and the cipher key entropy.
    """
    if not 0 < tau < 0.5:
        raise ValueError("tau must be in (0, 0.5)")
    entropy = None if structural_dof_bits is None else float(structural_dof_bits) + suc_key_bits
    code_len = len(structural_helper.sketch)
    if len(fp_measured.bits) < code_len:
        raise ValueError(f"fingerprint has {len(fp_measured.bits)} bits, helper needs {code_len}")
    reading = fp_measured.bits
    if len(reading) > code_len:  # extractor consumes the leading code_len bits
        reading = BitString(reading.bits[:code_len])
    reproduced = fe_reproduce_detail(reading, structural_helper)
    if reproduced is None or reproduced.corrected_fraction > tau:
        return VerdictReport(REASON_MISMATCH, entropy)
    return VerdictReport(identify(store, channel, device_id).reason, entropy)


# --------------------------------------------------------------------------- persistence
def _device_entry(device_id: str, records) -> dict:
    entry = {
        "device_id": device_id,
        "records": [
            {"c_hex": r.challenge.to_hex(), "r_hex": r.response.to_hex(), "used": r.used}
            for r in records
        ],
    }
    if records:
        entry["c_bits"] = len(records[0].challenge)
        entry["r_bits"] = len(records[0].response)
    return entry


def _entry_records(entry: dict) -> list:
    c_bits = entry.get("c_bits")
    r_bits = entry.get("r_bits")
    out = []
    for row in entry.get("records", []):
        challenge = BitString.from_hex(row["c_hex"], c_bits)
        response = BitString.from_hex(row["r_hex"], r_bits)
        out.append(CrpRecord(challenge, response, bool(row["used"])))
    return out


def _store_doc(store: CrpStore) -> dict:
    """Single-device stores use the flat layout; multi-device stores nest per device."""
    ids = sorted(store.records)
    if len(ids) == 1:
        doc = _device_entry(ids[0], store.records[ids[0]])
        doc["mode"] = store.mode
        return doc
    return {"mode": store.mode, "devices": [_device_entry(d, store.records[d]) for d in ids]}


def save_store(store: CrpStore, path) -> None:
    """Write the store 0600: its unused responses are all an impostor needs."""
    write_json(path, _store_doc(store), secret=True)


def load_store(path) -> CrpStore:
    doc = read_json(path)
    mode = doc.get("mode")
    if mode not in (FORWARD, INVERSE):
        raise DataFormatError(f"{path}: bad store mode {mode!r}")
    store = CrpStore(mode=mode)
    with decoding(path):
        if "device_id" in doc:
            store.records[doc["device_id"]] = _entry_records(doc)
        else:
            for entry in doc["devices"]:
                store.records[entry["device_id"]] = _entry_records(entry)
    return store


def store_leak_audit(store: CrpStore, device: SucDevice) -> bool:
    """True when no descriptor material appears anywhere in the serialized store."""
    blob = dumps_canonical(_store_doc(store))
    return not any(secret in blob for secret in descriptor_secret_strings(device))
