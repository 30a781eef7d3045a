import dataclasses
import json

import numpy as np
import pytest

from clonebench import BitString, substream
from clonebench import metrics, puf, suc
from clonebench.environment import EnvironmentConditions


def test_identical_devices_have_zero_uniqueness():
    devices = [puf.sram_new(256, 7), puf.sram_new(256, 7)]
    report = metrics.uniqueness(devices)
    assert report.uniqueness_mean == 0.0


def test_single_device_rejected():
    with pytest.raises(ValueError):
        metrics.uniqueness([puf.sram_new(64, 1)])


def test_sram_population_uniqueness():
    rng = substream(1, "u")
    devices = [puf.sram_new(256, int(rng.integers(0, 2**63))) for _ in range(100)]
    report = metrics.uniqueness(devices)
    assert 0.45 <= report.uniqueness_mean <= 0.55
    assert report.model == "sram"
    assert report.n_devices == 100


def test_suc_population_uniqueness():
    rng = substream(2, "u")
    devices = [
        suc.personalize(suc.SucParams(rounds=6), substream(3, "dev", i), f"d{i}")
        for i in range(12)
    ]
    challenges = [BitString.random(64, rng) for _ in range(16)]
    report = metrics.uniqueness(devices, challenges)
    assert 0.48 <= report.uniqueness_mean <= 0.52


def test_pairwise_distance_symmetry_and_self_zero():
    bits = substream(4, "p").integers(0, 2, (6, 64), dtype=np.uint8)
    mat = bits.astype(np.int64)
    gram = mat @ mat.T
    ones = mat.sum(1)
    dist = (ones[:, None] + ones[None, :] - 2 * gram) / 64
    assert np.allclose(dist, dist.T)
    assert np.all(np.diag(dist) == 0)


def test_reliability_sram_matches_anchors():
    device = puf.sram_new(4096, 5)
    grid = [EnvironmentConditions(temperature_c=t) for t in (-40.0, 25.0, 85.0)]
    table = metrics.reliability(device, grid, reps=100, rng=substream(6, "r"))
    by_temp = {row[0]: row[2] for row in table.rows}
    assert abs(by_temp[25.0] - 0.06) <= 0.005
    assert abs(by_temp[-40.0] - 0.08) <= 0.005
    assert abs(by_temp[85.0] - 0.08) <= 0.005


def test_reliability_suc_is_exactly_zero():
    device = suc.personalize(suc.SucParams(rounds=6), substream(7, "d"), "d")
    challenges = [BitString.random(64, substream(8, "c")) for _ in range(4)]
    grid = [EnvironmentConditions(temperature_c=t) for t in (-40.0, 85.0)]
    table = metrics.reliability(device, grid, reps=100, rng=substream(9, "r"), challenges=challenges)
    assert all(row[2] == 0.0 for row in table.rows)


def test_reliability_reps_floor():
    with pytest.raises(ValueError):
        metrics.reliability(puf.sram_new(64, 1), [], reps=99, rng=substream(0, "r"))


def test_uniformity_trivial_and_cipher():
    assert metrics.uniformity([BitString.zeros(16)]) == 0.0
    assert metrics.uniformity([BitString([1, 1, 1, 1])]) == 1.0
    device = suc.personalize(suc.SucParams(), substream(10, "d"), "d")
    blocks = substream(11, "b").integers(0, 2**63, 2000, dtype=np.uint64)  # 128k bits
    bits = np.unpackbits(device.encrypt_blocks(blocks).astype(">u8").view(np.uint8))
    assert abs(metrics.uniformity(bits) - 0.5) <= 0.01


def test_reports_survive_json_roundtrip_exactly():
    rng = substream(12, "u")
    devices = [puf.sram_new(128, int(rng.integers(0, 2**63))) for _ in range(10)]
    report = metrics.uniqueness(devices)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc == {"schema_version": 1, **dataclasses.asdict(report)}

    grid = [EnvironmentConditions(temperature_c=25.0)]
    table = metrics.reliability(devices[0], grid, reps=100, rng=substream(13, "r"))
    doc = json.loads(json.dumps(table.to_json()))
    assert doc["model"] == table.model
    assert [(r["temperature_c"], r["voltage_v"], r["ber"]) for r in doc["rows"]] == list(table.rows)
