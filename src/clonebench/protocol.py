"""Enrollment and challenge-response identification against a trusted-authority store.

CRPs are strictly single-use: a record is atomically marked consumed before its
challenge goes to the channel, so a concurrent session can never replay it.
Surviving a crash is up to whoever persists the store: the CLI session writes
the store with the burned record to disk before the device answers, and
in-memory callers own their persistence.  The device side sits behind an
in-process channel object into which bit-flip faults can be injected; the store
itself never sees cipher internals.

The store is loaded, burned and saved around every CLI round, so persistence and
enrollment work a matrix at a time: :func:`save_store` and :func:`load_store` run
the batch hex codec of :mod:`clonebench.bitstring` once per column of a device
entry, at the width its ``c_bits`` or ``r_bits`` declares (only the check that
``used`` is a JSON boolean stays per record), so a device's records share one
width.  :func:`enroll` draws the missing challenges in one ``rng.integers`` call
(when their width is a multiple of four bits) and wraps challenges and replies
with :meth:`BitString.rows`.

A pinned challenge is found through an index, not a scan.  The store keeps one
lookup state per device beside its records: the record list as last seen
(compared by identity) and its length then, the ``consume_next`` cursor and,
from the first ``consume_challenge`` on, a dict from each challenge to its first
record, keyed by the records' own BitStrings.  Each consume call brings the
state up to date under the lock: records appended since, by :func:`enroll` or a
caller, join the index, a replaced or shortened list starts afresh, and a
device without records keeps no state.  The answers are those of a scan from
the start of the list as long as a device's list is only appended to or
replaced whole; a record edited or reordered in place is not seen.  The index
takes 37 bytes a record (0.15 MB for 4000) and is built by the first pinned
lookup after a store is loaded or replaced.  :func:`load_store` refuses a
device that holds a challenge twice, which ``consume_next`` would hand out
twice; the check costs about 1 ms per 4000-record load.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .acoustic import Fingerprint
from .bitstring import BitString
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
class _DeviceLookup:
    """What the consume calls know of one device's record list."""

    records: list  # the list as last seen, compared by identity
    seen: int = 0  # its length then
    cursor: int = 0  # every record before it is used
    by_challenge: dict | None = None  # first record of each challenge, once asked for


@dataclass
class CrpStore:
    """Authority-side single-use CRP database, keyed by device id."""

    mode: str = FORWARD
    records: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    _lookups: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (FORWARD, INVERSE):
            raise ValueError(f"mode must be '{FORWARD}' or '{INVERSE}'")

    def device_records(self, device_id: str) -> list:
        return self.records.setdefault(device_id, [])

    def count_unused(self, device_id: str) -> int:
        return sum(not rec.used for rec in self.records.get(device_id, []))

    def _lookup(self, device_id: str, index: bool = False) -> _DeviceLookup | None:
        """The device's lookup state brought up to date with its records; hold _lock.

        A replaced or shortened list starts afresh, records appended since the
        last call join the index, and a device without records keeps no state.
        """
        records = self.records.get(device_id)
        if not records:
            self._lookups.pop(device_id, None)
            return None
        state = self._lookups.get(device_id)
        if state is None or state.records is not records or len(records) < state.seen:
            state = self._lookups[device_id] = _DeviceLookup(records)
        if index and state.by_challenge is None:
            state.by_challenge, state.seen = {}, 0  # index the whole list below
        if state.by_challenge is not None:
            for rec in records[state.seen :]:
                state.by_challenge.setdefault(rec.challenge, rec)
        state.seen = len(records)
        return state

    def consume_next(self, device_id: str):
        """Atomically claim the next unused record (it is burned regardless of verdict)."""
        with self._lock:
            state = self._lookup(device_id)
            if state is None:
                return None
            records = state.records
            for i in range(state.cursor, len(records)):
                if not records[i].used:
                    records[i].used = True
                    state.cursor = i + 1
                    return records[i]
            state.cursor = len(records)
        return None

    def consume_challenge(self, device_id: str, challenge: BitString):
        """Claim a specific record; returns (record, was_already_used)."""
        with self._lock:
            state = self._lookup(device_id, index=True)
            rec = None if state is None else state.by_challenge.get(challenge)
            if rec is None:
                return None, False
            if rec.used:
                return rec, True
            rec.used = True
            return rec, False


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
    seen = {rec.challenge.bits.tobytes() for rec in store.records.get(device_id, [])}
    if n_pairs > (1 << n_bits) - len(seen):
        raise ValueError(f"challenge space exhausted: {n_pairs} fresh pairs of {n_bits} bits")
    # Drawing every missing row in one call replays the per-row draws, bits and
    # generator state, only when n_bits % 4 == 0: numpy takes four uint8 from each
    # 32-bit word and drops the word's unused rest when a call ends.
    fresh: list[bytes] = []
    while len(fresh) < n_pairs:
        deficit = n_pairs - len(fresh)
        draws = rng.integers(0, 2, (deficit if n_bits % 4 == 0 else 1, n_bits), dtype=np.uint8).tobytes()
        for start in range(0, len(draws), n_bits):
            c = draws[start : start + n_bits]
            if c not in seen:
                seen.add(c)
                fresh.append(c)
    challenges = np.frombuffer(b"".join(fresh), dtype=np.uint8).reshape(n_pairs, n_bits)
    replies = device.respond(challenges).reshape(n_pairs, -1)
    records = [CrpRecord(c, r) for c, r in zip(BitString.rows(challenges), BitString.rows(replies))]
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
    except OSError:  # only a transport fault is tamper; the authority's own faults propagate
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
    if structural_dof_bits is not None and not np.isfinite(structural_dof_bits):
        raise ValueError("structural_dof_bits must be finite")
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
    c_hex = BitString.to_hex_batch([r.challenge for r in records])
    r_hex = BitString.to_hex_batch([r.response for r in records])
    entry = {
        "device_id": device_id,
        "records": [{"c_hex": c, "r_hex": r, "used": rec.used} for c, r, rec in zip(c_hex, r_hex, records)],
    }
    if records:
        entry["c_bits"] = len(records[0].challenge)
        entry["r_bits"] = len(records[0].response)
    return entry


def _entry_records(entry: dict) -> list:
    rows = entry["records"]
    if not isinstance(rows, list):  # "" or {} would read as a depleted device
        raise TypeError(f"records must be an array, not {rows!r}")
    c_hex, r_hex = [row["c_hex"] for row in rows], [row["r_hex"] for row in rows]
    if not rows:
        return []
    for key in ("c_bits", "r_bits"):
        if type(entry[key]) is not int:  # bools too
            raise TypeError(f"{key} must be an integer, not {entry[key]!r}")
    challenges = BitString.from_hex_batch(c_hex, entry["c_bits"])
    responses = BitString.from_hex_batch(r_hex, entry["r_bits"])
    out = []
    for row, challenge, response in zip(rows, challenges, responses):
        if not isinstance(row["used"], bool):
            raise ValueError(f"used must be true or false, not {row['used']!r}")
        out.append(CrpRecord(challenge, response, row["used"]))
    if len({c.bits.tobytes() for c in challenges}) < len(challenges):
        raise ValueError(f"device {entry['device_id']!r} holds a challenge twice: each CRP is single-use")
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
    """Write the store 0600: its unused responses are all an impostor needs.

    A device whose records differ in width is a ValueError before any byte is written.
    """
    write_json(path, _store_doc(store))


def load_store(path) -> CrpStore:
    doc = read_json(path)
    with decoding(path):
        store = CrpStore(mode=doc.get("mode"))
        for entry in [doc] if "device_id" in doc else doc["devices"]:
            if not isinstance(entry["device_id"], str):
                raise TypeError(f"device_id must be a string, not {entry['device_id']!r}")
            if entry["device_id"] in store.records:
                raise ValueError(f"device {entry['device_id']!r} is listed twice: a second entry would hide the first")
            store.records[entry["device_id"]] = _entry_records(entry)
    return store


def store_leak_audit(store: CrpStore, device: SucDevice) -> bool:
    """True when no descriptor material appears anywhere in the serialized store."""
    blob = dumps_canonical(_store_doc(store))
    return not any(secret in blob for secret in descriptor_secret_strings(device))
