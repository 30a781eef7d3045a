import json
import os
import stat
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, substream
from clonebench import acoustic, fuzzy, protocol, puf, suc
from clonebench.errors import DataFormatError


def _device(seed=1, device_id="ecu-1", rounds=8):
    return suc.personalize(suc.SucParams(rounds=rounds), substream(seed, "pd"), device_id)


def _enrolled(device, n, seed=2, mode=protocol.FORWARD):
    store = protocol.CrpStore(mode=mode)
    protocol.enroll(device, n, substream(seed, "en"), store)
    return store


# ----------------------------------------------------------------- enroll
def test_enroll_thousand_distinct_unused():
    device = _device()
    store = _enrolled(device, 1000)
    records = store.records["ecu-1"]
    assert len(records) == 1000
    assert all(not r.used for r in records)
    assert len({r.challenge for r in records}) == 1000


def test_enroll_validates_count():
    with pytest.raises(ValueError):
        protocol.enroll(_device(), 0, substream(0, "x"), protocol.CrpStore())


def test_enroll_refuses_exhausted_challenge_space():
    from clonebench import puf

    device = puf.sram_new(64, 3)  # 8-bit power-up index, 256 possible challenges
    with pytest.raises(ValueError):
        protocol.enroll(device, 300, substream(1, "x"), protocol.CrpStore(), device_id="s1")


def test_enroll_device_without_challenge_under_power_up_index():
    from clonebench import puf

    device = puf.ro_new(32, 4)
    store = protocol.CrpStore()
    assert protocol.enroll(device, 5, substream(2, "x"), store, device_id="ro-1") == 5
    records = store.records["ro-1"]
    assert {len(r.challenge) for r in records} == {protocol.POWER_UP_INDEX_BITS}
    assert len({r.challenge for r in records}) == 5
    assert all(r.response == puf.ro_response(device) for r in records)


def _enroll_per_row(device, n_pairs, rng, store, device_id):
    """Reference enrollment: one BitString.random draw per challenge, repeats skipped."""
    n_bits = device.challenge_bits or protocol.POWER_UP_INDEX_BITS
    seen = {rec.challenge for rec in store.records.get(device_id, [])}
    fresh = []
    while len(fresh) < n_pairs:
        c = BitString.random(n_bits, rng)
        if c not in seen:
            seen.add(c)
            fresh.append(c)
    replies = device.respond(fresh).reshape(n_pairs, -1)
    store.device_records(device_id).extend(protocol.CrpRecord(c, BitString(r)) for c, r in zip(fresh, replies))


@pytest.mark.parametrize(
    "make, pairs",
    [
        (lambda: _device(), (300, 200)),
        # 200 of the 256 power-up indices: repeats force top-up draws
        (lambda: puf.sram_new(64, 3), (120, 80)),
        (lambda: puf.arbiter_new(63, 4, 0.0), (50, 30)),
        (lambda: puf.arbiter_new(64, 4, 0.0), (50, 30)),
    ],
    ids=["suc-64", "sram-index-8", "arbiter-63", "arbiter-64"],
)
def test_enroll_replays_the_per_row_loop(make, pairs):
    device = make()
    did = getattr(device, "device_id", "d")  # a SucDevice enrolls under its own id
    batch, per_row = protocol.CrpStore(), protocol.CrpStore()
    batch_rng, per_row_rng = substream(9, "en"), substream(9, "en")
    for n in pairs:  # the second call draws around the first call's challenges
        protocol.enroll(device, n, batch_rng, batch, device_id=did)
        _enroll_per_row(device, n, per_row_rng, per_row, did)
    assert len(batch.records[did]) == sum(pairs)
    assert batch.records == per_row.records
    assert batch_rng.integers(0, 2**62) == per_row_rng.integers(0, 2**62)


def test_reenroll_after_depletion_restores_capacity():
    device = _device()
    store = _enrolled(device, 3)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    for _ in range(3):
        assert protocol.identify(store, channel, "ecu-1").accepted
    assert protocol.identify(store, channel, "ecu-1").reason == protocol.REASON_DEPLETED
    protocol.enroll(device, 5, substream(3, "re"), store)
    assert store.count_unused("ecu-1") == 5
    assert protocol.identify(store, channel, "ecu-1").accepted
    assert len({r.challenge for r in store.records["ecu-1"]}) == 8  # still all distinct


def test_store_file_roundtrips_byte_identically(tmp_path):
    device = _device()
    store = _enrolled(device, 20)
    protocol.identify(store, protocol.DeviceChannel(protocol.SucAgent(device)), "ecu-1")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    protocol.save_store(store, p1)
    protocol.save_store(protocol.load_store(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@st.composite
def _stores(draw):
    store = protocol.CrpStore(mode=draw(st.sampled_from([protocol.FORWARD, protocol.INVERSE])))
    ids = draw(st.lists(st.text("abcdef-0123", min_size=1, max_size=6), min_size=1, max_size=3, unique=True))
    for device_id in ids:
        c_bits, r_bits = draw(st.integers(1, 80)), draw(st.integers(1, 80))
        row = st.tuples(st.integers(0, 2**c_bits - 1), st.integers(0, 2**r_bits - 1), st.booleans())
        store.records[device_id] = [
            protocol.CrpRecord(BitString.from_int(c, c_bits), BitString.from_int(r, r_bits), used)
            for c, r, used in draw(st.lists(row, max_size=6, unique_by=lambda t: t[0]))
        ]
    return store


@settings(max_examples=100, deadline=None)
@given(store=_stores())
def test_store_roundtrip_property(tmp_path_factory, store):
    # one device uses the flat layout, several the nested one
    path = tmp_path_factory.mktemp("store") / "store.json"
    protocol.save_store(store, path)
    assert protocol.load_store(path) == store


def test_store_file_is_private_and_stays_private(tmp_path):
    store = _enrolled(_device(), 3)
    path = tmp_path / "store.json"
    old_umask = os.umask(0o022)
    try:
        protocol.save_store(store, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        path.chmod(0o644)  # a store written before stores were private
        protocol.save_store(store, path)
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_store_flat_schema_fields(tmp_path):
    store = _enrolled(_device(), 2)
    path = tmp_path / "store.json"
    protocol.save_store(store, path)
    doc = json.loads(path.read_text())
    assert doc["device_id"] == "ecu-1"
    assert doc["mode"] == "forward"
    assert {"c_hex", "r_hex", "used"} <= set(doc["records"][0])


def test_failed_store_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    store = _enrolled(_device(), 4)
    path = tmp_path / "store.json"
    protocol.save_store(store, path)
    before = path.read_bytes()
    store.consume_next("ecu-1")

    def crash(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError):
        protocol.save_store(store, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["store.json"]


@pytest.mark.parametrize("column", ["challenge", "response"])
def test_save_store_refuses_mixed_widths_before_writing(tmp_path, column):
    # the entry declares one width per column, so a file of mixed widths could not load
    store = _enrolled(_device(), 3)
    path = tmp_path / "store.json"
    protocol.save_store(store, path)
    before = path.read_bytes()
    rec = store.records["ecu-1"][1]
    setattr(rec, column, BitString(getattr(rec, column).bits[:60]))
    with pytest.raises(ValueError):
        protocol.save_store(store, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["store.json"]


def test_store_write_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    # an unsynced rename can be undone by a power loss, bringing back a store
    # whose burned record reads unused
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "store.json"
    protocol.save_store(_enrolled(_device(), 2), path)
    (_, file_is_dir, _), renamed, dir_sync = events
    assert not file_is_dir
    assert renamed == ("replace", str(path))
    assert dir_sync == ("fsync", True, tmp_path.stat().st_ino)


def test_store_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99, "mode": "forward", "device_id": "x", "records": []}')
    with pytest.raises(DataFormatError):
        protocol.load_store(path)


def test_store_rejects_missing_or_ill_typed_fields(tmp_path):
    path = tmp_path / "bad.json"
    for doc in (
        {"mode": "forward", "device_id": "x", "records": 5},
        {"mode": "forward", "device_id": "x", "c_bits": "64", "records": [{"c_hex": "00", "r_hex": "00", "used": False}]},
        {"mode": "forward", "device_id": "x", "records": [{"c_hex": "00"}]},
        {"mode": "forward", "devices": [{"records": []}]},
        {"mode": "forward", "device_id": "x"},  # no records is not a depleted device
        {"mode": "forward", "device_id": "x", "r_bits": 8, "records": [{"c_hex": "08", "r_hex": "00", "used": False}]},
        {"mode": "forward", "device_id": "x", "c_bits": 5, "records": [{"c_hex": "08", "r_hex": "00", "used": False}]},
        {"mode": "forward", "device_id": "x", "records": ""},  # not an array: read as a depleted device
        {"mode": "forward", "device_id": "x", "records": {}},
        # JSON true equals 1, so these records read as one bit wide
        {"mode": "forward", "device_id": "x", "c_bits": True, "r_bits": True, "records": [{"c_hex": "8", "r_hex": "8", "used": False}]},
    ):
        path.write_text(json.dumps(dict(doc, schema_version=1)))
        with pytest.raises(DataFormatError):
            protocol.load_store(path)


@pytest.mark.parametrize(
    "twin",
    [lambda row: dict(row), lambda row: dict(row, c_hex=row["c_hex"].upper(), r_hex="0" * 16)],
    ids=["same-row", "same-challenge"],
)
def test_store_rejects_a_challenge_stored_twice(tmp_path, twin):
    # consume_next would hand the same challenge out twice
    path = tmp_path / "store.json"
    protocol.save_store(_enrolled(_device(), 3), path)
    doc = json.loads(path.read_text())
    doc["records"].append(twin(doc["records"][1]))
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="holds a challenge twice"):
        protocol.load_store(path)


def test_store_rejects_a_device_listed_twice(tmp_path):
    # the second entry would replace the first, and the next save would drop its records
    store = _enrolled(_device(device_id="d"), 2)
    protocol.enroll(_device(seed=3, device_id="e"), 1, substream(4, "en"), store)
    path = tmp_path / "store.json"
    protocol.save_store(store, path)
    doc = json.loads(path.read_text())
    doc["devices"][1]["device_id"] = "d"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="listed twice"):
        protocol.load_store(path)


@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
def test_store_rejects_a_device_id_that_is_not_a_string(tmp_path, nested):
    path = tmp_path / "bad.json"
    entry = {"device_id": 123, "records": []}
    doc = {"mode": "forward", "devices": [entry]} if nested else dict(entry, mode="forward")
    path.write_text(json.dumps(dict(doc, schema_version=1)))
    with pytest.raises(DataFormatError, match="device_id must be a string"):
        protocol.load_store(path)


# ----------------------------------------------------------------- consume
def _scan_next(store, device_id):
    """Reference consume_next: the first unused record, found by a scan from the start."""
    for rec in store.records.get(device_id, []):
        if not rec.used:
            rec.used = True
            return rec
    return None


def _scan_challenge(store, device_id, challenge):
    """Reference consume_challenge: the first record with the challenge, found by a scan."""
    key = challenge.bits.tobytes()
    for rec in store.records.get(device_id, []):
        if rec.challenge.bits.tobytes() == key:
            if rec.used:
                return rec, True
            rec.used = True
            return rec, False
    return None, False


class _ComplementDevice:
    """Five-bit challenges answered by their complement: a small space that enroll can exhaust."""

    challenge_bits = 5

    def respond(self, challenges):
        return 1 - np.asarray(challenges)


def _records5(rows):
    return [protocol.CrpRecord(BitString.from_int(c, 5), BitString.from_int(31 - c, 5), used) for c, used in rows]


_DEVICES = st.sampled_from(["a", "b"])
_ROWS = st.lists(st.tuples(st.integers(0, 31), st.booleans()), max_size=12)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("next"), _DEVICES),
        st.tuples(st.just("challenge"), _DEVICES, st.integers(0, 31)),  # known, used or unknown
        st.tuples(st.just("enroll"), _DEVICES, st.integers(1, 4), st.integers(0, 2**16)),
        st.tuples(st.just("append"), _DEVICES, _ROWS),
        st.tuples(st.just("replace"), _DEVICES, _ROWS),
        st.tuples(st.just("drop"), _DEVICES),
    ),
    max_size=40,
)


def _apply(store, step, consume_next, consume_challenge):
    """Run one step on ``store``; the position of a claimed record stands for the record."""
    kind, did = step[0], step[1]

    def position(rec):
        return None if rec is None else next(i for i, r in enumerate(store.records[did]) if r is rec)

    if kind == "next":
        return position(consume_next(did))
    if kind == "challenge":
        rec, already_used = consume_challenge(did, BitString.from_int(step[2], 5))
        return position(rec), already_used
    if kind == "enroll":
        try:
            return protocol.enroll(_ComplementDevice(), step[2], substream(step[3], "en"), store, device_id=did)
        except ValueError as exc:  # the five-bit space ran out
            return str(exc)
    if kind == "append":
        store.device_records(did).extend(_records5(step[2]))
    elif kind == "replace":
        store.records[did] = _records5(step[2])
    else:
        store.records.pop(did, None)
    return None


@settings(max_examples=300, deadline=None)
@given(start=_ROWS, steps=_STEPS)
def test_consume_calls_answer_as_the_scan_does(start, steps):
    store, oracle = protocol.CrpStore(), protocol.CrpStore()
    store.records["a"], oracle.records["a"] = _records5(start), _records5(start)
    for step in steps:
        got = _apply(store, step, store.consume_next, store.consume_challenge)
        want = _apply(oracle, step, lambda d: _scan_next(oracle, d), lambda d, c: _scan_challenge(oracle, d, c))
        assert got == want, step
        assert store.records == oracle.records, step  # records and used flags, in order
        if step[0] in ("next", "challenge"):  # a consume call keeps state only for records
            assert (step[1] in store._lookups) == bool(store.records.get(step[1])), step


def test_an_append_extends_the_challenge_index_in_place(monkeypatch):
    device = _device()
    store = _enrolled(device, 5)
    records = store.records["ecu-1"]
    assert store.consume_challenge("ecu-1", records[0].challenge) == (records[0], False)
    index = store._lookups["ecu-1"].by_challenge
    protocol.enroll(device, 3, substream(3, "more"), store)
    records.extend(_enrolled(device, 2, seed=4).records["ecu-1"])  # an append by the caller
    hashed = []
    real_hash = BitString.__hash__
    monkeypatch.setattr(BitString, "__hash__", lambda self: hashed.append(self) or real_hash(self))
    assert store.consume_challenge("ecu-1", records[9].challenge) == (records[9], False)
    assert len(hashed) == 6  # the five appended records and the asked challenge
    assert store._lookups["ecu-1"].by_challenge is index and len(index) == 10


def test_identify_after_the_records_are_replaced_starts_from_the_new_list():
    device = _device()
    store = _enrolled(device, 3)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    assert all(protocol.identify(store, channel, "ecu-1").accepted for _ in range(2))
    store.records["ecu-1"] = _enrolled(device, 3, seed=5).records["ecu-1"]
    assert [protocol.identify(store, channel, "ecu-1").reason for _ in range(4)] == ["match"] * 3 + ["depleted"]
    assert store.count_unused("ecu-1") == 0


def test_a_shortened_list_starts_a_fresh_lookup():
    store = _enrolled(_device(), 4)
    records = store.records["ecu-1"]
    for rec in records:
        store.consume_challenge("ecu-1", rec.challenge)
    gone = records.pop()
    assert store.consume_challenge("ecu-1", gone.challenge) == (None, False)
    assert store.consume_next("ecu-1") is None


def test_consume_keeps_no_state_for_a_device_without_records():
    store = _enrolled(_device(), 2)
    store.records["empty"] = []
    probe = store.records["ecu-1"][0].challenge
    for did in ("ghost", "empty"):
        assert store.consume_next(did) is None
        assert store.consume_challenge(did, probe) == (None, False)
    assert store._lookups == {}
    store.consume_challenge("ecu-1", probe)
    store.records["ecu-1"] = []  # a device whose records are gone drops its state
    assert store.consume_next("ecu-1") is None and store._lookups == {}


# ----------------------------------------------------------------- identify
def test_identify_genuine_accepts_every_unused_record():
    device = _device()
    store = _enrolled(device, 50)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    verdicts = [protocol.identify(store, channel, "ecu-1") for _ in range(50)]
    assert all(v.accepted and v.reason == protocol.REASON_MATCH for v in verdicts)
    assert store.count_unused("ecu-1") == 0


def test_identify_random_impostor_rejected():
    device = _device()
    store = _enrolled(device, 1000)
    channel = protocol.DeviceChannel(protocol.RandomAgent(substream(4, "imp")))
    accepts = sum(protocol.identify(store, channel, "ecu-1").accepted for _ in range(1000))
    assert accepts == 0


def test_identify_consumes_before_verdict_even_on_mismatch():
    device = _device()
    store = _enrolled(device, 2)
    bad = protocol.DeviceChannel(protocol.RandomAgent(substream(5, "imp")))
    assert not protocol.identify(store, bad, "ecu-1").accepted
    assert store.count_unused("ecu-1") == 1


def test_identify_channel_failure_is_tamper():
    class BrokenAgent:
        def forward(self, challenge):
            raise ConnectionError("bus fault")

    device = _device()
    store = _enrolled(device, 2)
    verdict = protocol.identify(store, protocol.DeviceChannel(BrokenAgent()), "ecu-1")
    assert verdict.reason == protocol.REASON_TAMPER
    assert store.count_unused("ecu-1") == 1  # fail-safe: record burned anyway


def test_identify_authority_fault_raises_and_burns_the_record():
    device = _device()
    store = _enrolled(device, 2)
    first = store.records["ecu-1"][0]
    store.records["ecu-1"][0] = protocol.CrpRecord(BitString(first.challenge.bits[:60]), first.response)
    with pytest.raises(ValueError, match="block must be 64 bits"):
        protocol.identify(store, protocol.DeviceChannel(protocol.SucAgent(device)), "ecu-1")
    assert store.records["ecu-1"][0].used and store.count_unused("ecu-1") == 1


def test_identify_depleted():
    store = protocol.CrpStore()
    verdict = protocol.identify(store, None, "ghost")
    assert verdict.reason == protocol.REASON_DEPLETED


def test_replay_rejected_deterministically():
    device = _device()
    store = _enrolled(device, 3)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    challenge = store.records["ecu-1"][1].challenge
    first = protocol.verify_challenge(store, channel, "ecu-1", challenge)
    assert first.accepted
    for _ in range(3):
        replay = protocol.verify_challenge(store, channel, "ecu-1", challenge)
        assert replay.reason == protocol.REASON_REPLAY


def test_inverse_mode_identifies_by_decryption():
    device = _device()
    store = _enrolled(device, 10, mode=protocol.INVERSE)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    assert protocol.identify(store, channel, "ecu-1").accepted
    impostor = protocol.DeviceChannel(protocol.RandomAgent(substream(6, "imp")))
    assert not protocol.identify(store, impostor, "ecu-1").accepted


def test_verdict_invariant():
    # the verdict is derived from the reason: only a match is accepted
    for reason in (
        protocol.REASON_MATCH, protocol.REASON_MISMATCH, protocol.REASON_DEPLETED,
        protocol.REASON_REPLAY, protocol.REASON_TAMPER,
    ):
        report = protocol.VerdictReport(reason)
        assert report.verdict == ("accept" if reason == protocol.REASON_MATCH else "reject")
        assert report.accepted == (report.verdict == "accept")


# ----------------------------------------------------------------- tamper channel
def test_tamper_empty_mask_is_identity():
    device = _device()
    store = _enrolled(device, 4)
    channel = protocol.tamper_channel(protocol.DeviceChannel(protocol.SucAgent(device)), [])
    assert protocol.identify(store, channel, "ecu-1").accepted


def test_tamper_single_bit_flip_rejects():
    device = _device()
    store = _enrolled(device, 4)
    channel = protocol.tamper_channel(protocol.DeviceChannel(protocol.SucAgent(device)), [17])
    verdict = protocol.identify(store, channel, "ecu-1")
    assert verdict.reason == protocol.REASON_MISMATCH


def test_tamper_twice_cancels():
    device = _device()
    store = _enrolled(device, 4)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    doubled = protocol.tamper_channel(protocol.tamper_channel(channel, [3, 9]), [3, 9])
    assert doubled.fault_mask is None
    assert protocol.identify(store, doubled, "ecu-1").accepted


def test_tamper_position_validated():
    channel = protocol.DeviceChannel(protocol.SucAgent(_device()))
    with pytest.raises(ValueError):
        protocol.tamper_channel(channel, [64])


# ----------------------------------------------------------------- concurrency
def test_concurrent_sessions_never_share_a_record():
    device = _device()
    n = 400
    store = _enrolled(device, n)
    challenges = [r.challenge for r in store.records["ecu-1"]]
    consumed = []

    def by_next():
        while (record := store.consume_next("ecu-1")) is not None:
            consumed.append(record.challenge.to_hex())

    def by_challenge(order):
        for challenge in order:
            record, already_used = store.consume_challenge("ecu-1", challenge)
            if not already_used:
                consumed.append(record.challenge.to_hex())

    orders = [challenges[k:] + challenges[:k] for k in range(0, n, n // 4)]
    threads = [threading.Thread(target=by_next) for _ in range(4)]
    threads += [threading.Thread(target=by_challenge, args=(order[::step],)) for order, step in zip(orders, (1, -1, 1, -1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(consumed) == n
    assert len(set(consumed)) == n
    assert store.count_unused("ecu-1") == 0


# ----------------------------------------------------------------- combined verification
def _structural_setup(seed):
    model = acoustic.structure_new(int(substream(seed, "structure").integers(0, 2**62)))
    enrolled = acoustic.fingerprint(model)
    params = fuzzy.design_repetition(0.10, 1e-3, 17)
    w = BitString(enrolled.bits.bits[: params.code_len])
    _, helper = fuzzy.fe_generate(w, params, 128, substream(seed, "fe"))
    return model, helper


def test_combined_verify_genuine_and_additive_entropy():
    device = _device()
    store = _enrolled(device, 4)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    model, helper = _structural_setup(7)
    measured = acoustic.fingerprint(model, rng=substream(8, "m"))
    verdict = protocol.combined_verify(
        store, helper, measured, channel, "ecu-1", 0.25, structural_dof_bits=230.0
    )
    assert verdict.accepted
    assert verdict.entropy_bits == 230.0 + 80.0


def test_combined_verify_low_structural_entropy_still_accepts():
    device = _device()
    store = _enrolled(device, 4)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    model, helper = _structural_setup(9)
    measured = acoustic.fingerprint(model, rng=substream(10, "m"))
    verdict = protocol.combined_verify(
        store, helper, measured, channel, "ecu-1", 0.25, structural_dof_bits=40.0
    )
    assert verdict.accepted
    assert verdict.entropy_bits == 120.0


def test_combined_verify_foreign_structure_rejected():
    device = _device()
    store = _enrolled(device, 4)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    _, helper = _structural_setup(11)
    foreign = acoustic.fingerprint(acoustic.structure_new(999_999))
    verdict = protocol.combined_verify(store, helper, foreign, channel, "ecu-1", 0.25)
    assert not verdict.accepted
    assert store.count_unused("ecu-1") == 4  # cipher path never consulted


def test_combined_verify_tau_validated():
    device = _device()
    store = _enrolled(device, 2)
    channel = protocol.DeviceChannel(protocol.SucAgent(device))
    model, helper = _structural_setup(12)
    fp = acoustic.fingerprint(model)
    with pytest.raises(ValueError):
        protocol.combined_verify(store, helper, fp, channel, "ecu-1", 0.7)


# ----------------------------------------------------------------- secrecy audit
def test_store_bytes_contain_no_descriptor_material():
    device = _device(rounds=40)
    store = _enrolled(device, 200)
    assert protocol.store_leak_audit(store, device)


def test_leak_audit_flags_a_device_id_that_is_the_master_key():
    device = _device()
    key_hex = suc.descriptor_dict(device)["master_key_hex"]
    leaky = suc.SucDevice(key_hex, device.params, device._sboxes, device._master_key)
    assert not protocol.store_leak_audit(_enrolled(leaky, 2), leaky)
