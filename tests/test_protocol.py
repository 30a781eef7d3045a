import json
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, substream
from clonebench import acoustic, fuzzy, protocol, suc
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
            for c, r, used in draw(st.lists(row, max_size=6))
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
    ):
        path.write_text(json.dumps(dict(doc, schema_version=1)))
        with pytest.raises(DataFormatError):
            protocol.load_store(path)


@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
def test_store_rejects_a_device_id_that_is_not_a_string(tmp_path, nested):
    path = tmp_path / "bad.json"
    entry = {"device_id": 123, "records": []}
    doc = {"mode": "forward", "devices": [entry]} if nested else dict(entry, mode="forward")
    path.write_text(json.dumps(dict(doc, schema_version=1)))
    with pytest.raises(DataFormatError, match="device_id must be a string"):
        protocol.load_store(path)


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
    consumed = []

    def worker():
        while True:
            record = store.consume_next("ecu-1")
            if record is None:
                return
            consumed.append(record.challenge.to_hex())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
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
