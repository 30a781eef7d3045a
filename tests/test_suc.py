import dataclasses
import json
import os
import stat

import numpy as np
import pytest

from clonebench import BitString, substream
from clonebench import kernels, suc
from clonebench.errors import DataFormatError

# a published-class optimal 4-bit S-box: differential uniformity 4, linearity 8
OPTIMAL_SBOX = [0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2]


def _device(rounds=8, seed=100, device_id="dev"):
    return suc.personalize(suc.SucParams(rounds=rounds), substream(seed, "dev"), device_id)


# ----------------------------------------------------------------- s-box audit
def _audit_oracle(table):
    """Full DDT and Walsh tables of one S-box, counted directly over all inputs."""
    ddt = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for x in range(16):
            ddt[a][table[x ^ a] ^ table[x]] += 1
    walsh = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for b in range(16):
            for x in range(16):
                walsh[a][b] += (-1) ** (bin(a & x).count("1") + bin(b & table[x]).count("1"))
    return ddt, walsh


def _oracle_maxima(table):
    ddt, walsh = _audit_oracle(table)
    nonzero = [(a, b) for a in range(1, 16) for b in range(1, 16)]
    return max(ddt[a][b] for a, b in nonzero), max(abs(walsh[a][b]) for a, b in nonzero)


def _audit(tables):
    ddt_max, walsh_max = kernels.sbox_audit_batch(np.asarray(tables, dtype=np.uint8))
    return list(zip(ddt_max.tolist(), walsh_max.tolist()))


def test_audit_identity_sbox():
    assert _audit([list(range(16))]) == [(16, 16)]


def test_audit_optimal_sbox_against_oracle():
    assert _oracle_maxima(OPTIMAL_SBOX) == (4, 8)
    assert _audit([OPTIMAL_SBOX]) == [(4, 8)]


def test_audit_random_tables_against_oracle():
    rng = substream(1, "audit")
    tables = [list(rng.permutation(16)) for _ in range(10)]
    assert _audit(tables) == [_oracle_maxima(t) for t in tables]


def test_ddt_rows_sum_to_16():
    ddt, walsh = _audit_oracle(OPTIMAL_SBOX)
    for a in range(16):
        assert sum(ddt[a]) == 16
        assert sum(w * w for w in walsh[a]) == 256  # Parseval


def test_full_spectra_against_oracle():
    rng = substream(30, "spectra")
    tables = [list(range(16)), OPTIMAL_SBOX] + [rng.permutation(16).tolist() for _ in range(32)]
    assert _audit(tables) == [_oracle_maxima(t) for t in tables]
    ddt, walsh = kernels.sbox_spectra(np.array(tables, dtype=np.uint8))
    assert ddt.dtype == walsh.dtype == np.int64
    assert [_audit_oracle(t) for t in tables] == list(zip(ddt.tolist(), walsh.tolist()))


# ----------------------------------------------------------------- personalization
def test_installed_sboxes_meet_thresholds():
    device = _device(rounds=12)
    for ddt_max, walsh_max in _audit(device._sboxes):
        assert ddt_max <= 4
        assert walsh_max <= 8


def test_personalize_pinned_seed_reproduces_descriptor():
    a = _device(seed=5)
    b = _device(seed=5)
    assert np.array_equal(a._sboxes, b._sboxes)
    assert a._master_key == b._master_key


def test_personalizations_differ_and_diffuse():
    a = suc.personalize(suc.SucParams(), substream(6, "a"), "a")
    b = suc.personalize(suc.SucParams(), substream(7, "b"), "b")
    assert not np.array_equal(a._sboxes, b._sboxes)
    assert a._master_key != b._master_key
    blocks = substream(8, "pt").integers(0, 2**63, 2000, dtype=np.uint64)
    diff = a.encrypt_blocks(blocks) ^ b.encrypt_blocks(blocks)
    frac = np.unpackbits(diff.astype(">u8").view(np.uint8)).mean()
    assert 0.45 <= frac <= 0.55


# ----------------------------------------------------------------- cipher
def test_roundtrip_many_blocks():
    device = _device()
    blocks = substream(9, "rt").integers(0, 2**63, 10_000, dtype=np.uint64)
    assert np.array_equal(device.decrypt_blocks(device.encrypt_blocks(blocks)), blocks)


def test_cipher_output_is_balanced():
    device = suc.personalize(suc.SucParams(), substream(10, "d"), "d")
    blocks = substream(11, "b").integers(0, 2**63, 2000, dtype=np.uint64)  # 128k bits
    bits = np.unpackbits(device.encrypt_blocks(blocks).astype(">u8").view(np.uint8))
    assert abs(bits.mean() - 0.5) <= 0.01


def test_bitstring_api_roundtrip_and_two_sided_inverse():
    device = _device()
    rng = substream(10, "bs")
    for _ in range(20):
        x = BitString.random(64, rng)
        assert device.decrypt(device.encrypt(x)) == x
        y = BitString.random(64, rng)
        assert device.encrypt(device.decrypt(y)) == y


def test_block_length_checked():
    device = _device()
    with pytest.raises(ValueError):
        device.encrypt(BitString([0] * 32))


def test_avalanche_single_bit_flip():
    device = _device(rounds=40)
    rng = substream(11, "av")
    base = rng.integers(0, 2**63, 10_000, dtype=np.uint64)
    flips = np.uint64(1) << rng.integers(0, 64, 10_000).astype(np.uint64)
    diff = device.encrypt_blocks(base) ^ device.encrypt_blocks(base ^ flips)
    frac = np.unpackbits(diff.astype(">u8").view(np.uint8)).mean()
    assert abs(frac - 0.5) <= 0.02


def test_injective_on_random_sample():
    device = _device()
    blocks = np.unique(substream(12, "inj").integers(0, 2**63, 1 << 16, dtype=np.uint64))
    assert np.unique(device.encrypt_blocks(blocks)).size == blocks.size


def test_foreign_device_decrypt_recovers_nothing():
    a = _device(seed=13, device_id="a")
    b = _device(seed=14, device_id="b")
    n = 1 << 20
    blocks = substream(15, "fd").integers(0, 2**63, n, dtype=np.uint64)
    recovered = b.decrypt_blocks(a.encrypt_blocks(blocks))
    assert int(np.sum(recovered == blocks)) == 0
    # on 16-bit truncations the collision rate sits near 2^-16
    hits = int(np.sum((recovered & np.uint64(0xFFFF)) == (blocks & np.uint64(0xFFFF))))
    assert 2 <= hits <= 40  # Poisson(16) band


def test_key_schedule_spreads_key_bits():
    master = int.from_bytes(substream(22, "ks").bytes(10), "big")
    keys = suc.round_keys(master, 40)
    assert keys.shape == (41,)
    assert np.unique(keys).size == 41
    assert np.array_equal(keys, suc.round_keys(master, 40))
    with pytest.raises(ValueError):
        suc.round_keys(1 << 80, 4)


def test_params_validation():
    with pytest.raises(ValueError):
        suc.SucParams(rounds=0)
    # the cipher class is fixed except for its round count
    assert [f.name for f in dataclasses.fields(suc.SucParams)] == ["rounds"]
    with pytest.raises(TypeError):
        suc.SucParams(key_bits=84)


def test_default_permutation_is_bijection():
    assert sorted(suc.DEFAULT_PERMUTATION) == list(range(64))
    assert suc.DEFAULT_PERMUTATION[63] == 63


# ----------------------------------------------------------------- reports
def test_security_report_single_round():
    report = suc.security_report(suc.SucParams(rounds=1), 2000, substream(16, "sr"))
    assert report.min_active_sboxes == 1
    assert report.diff_complexity_log2 == 2.0
    assert report.lin_complexity_log2 == 2.0


def test_security_report_default_meets_targets():
    report = suc.security_report(suc.SucParams(), 4000, substream(17, "sr"))
    assert report.cardinality_bits >= 274.0
    assert report.diff_complexity_log2 >= 80.0
    assert report.lin_complexity_log2 >= 80.0


def test_security_report_insufficient_sampling():
    with pytest.raises(ValueError):
        suc.security_report(suc.SucParams(), 999, substream(18, "sr"))


def test_sbox_entropy_batches_agree():
    a = suc.sbox_entropy_bits(10_000, substream(18, "ea"))
    b = suc.sbox_entropy_bits(10_000, substream(19, "eb"))
    assert abs(a.h_bits - b.h_bits) <= 0.5


# ----------------------------------------------------------------- secrecy + files
def test_device_public_surface_hides_descriptor():
    device = _device(rounds=4)
    public = [name for name in device.__slots__ if not name.startswith("_")]
    assert public == ["device_id", "params"]


def test_device_file_roundtrip(tmp_path):
    device = _device(rounds=6, seed=20)
    path = tmp_path / "dev.json"
    suc.save_device(device, path)
    loaded = suc.load_device(path)
    blocks = substream(21, "df").integers(0, 2**63, 100, dtype=np.uint64)
    assert np.array_equal(device.encrypt_blocks(blocks), loaded.encrypt_blocks(blocks))
    with pytest.raises(DataFormatError):
        suc.load_device(tmp_path / "missing.json")


def test_non_bijective_sbox_rejected():
    device = _device(rounds=4, seed=23)
    sboxes = device._sboxes.copy()
    sboxes[2] = 0
    with pytest.raises(ValueError):
        suc.SucDevice("bad", device.params, sboxes, device._master_key)


def test_device_file_missing_or_ill_typed_fields(tmp_path):
    device = _device(rounds=4, seed=24)
    path = tmp_path / "dev.json"
    suc.save_device(device, path)
    good = json.loads(path.read_text())
    for mutate in (
        lambda d: d.pop("params"),
        lambda d: d["descriptor"].pop("master_key_hex"),
        lambda d: d["params"].update(rounds="four"),
        lambda d: d["descriptor"].update(master_key_hex=5),
        lambda d: d["descriptor"].update(sboxes=[[-1] * 16] * 4),
        lambda d: d["descriptor"]["sboxes"].__setitem__(2, [0] * 16),
        # the cipher class is fixed except for its round count
        lambda d: d["params"].update(key_bits=96),
        lambda d: d["params"].update(sbox_ddt_max=6),
        lambda d: d["params"].update(sbox_walsh_max=10),
        lambda d: d["params"].update(permutation=list(range(64))),
        lambda d: d["params"].update(extra=1),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            suc.load_device(path)


def test_device_file_is_private_from_creation(tmp_path, monkeypatch):
    existing = tmp_path / "existing.json"
    existing.write_text("{}")
    existing.chmod(0o644)
    # a chmod after the write would leave a window; the mode must come from creation
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    device = _device(rounds=4, seed=25)
    fresh = tmp_path / "fresh.json"
    suc.save_device(device, fresh)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o600
    suc.save_device(device, existing)
    assert stat.S_IMODE(existing.stat().st_mode) == 0o600
