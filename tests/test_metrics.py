import dataclasses
import json

import numpy as np
import pytest

from clonebench import BitString, substream
from clonebench import metrics, puf, suc


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


def test_reports_survive_json_roundtrip_exactly():
    rng = substream(12, "u")
    devices = [puf.sram_new(128, int(rng.integers(0, 2**63))) for _ in range(10)]
    report = metrics.uniqueness(devices)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc == {"schema_version": 1, **dataclasses.asdict(report)}

