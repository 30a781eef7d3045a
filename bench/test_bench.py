"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q bench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from clonebench import BitString, fuzzy, protocol  # noqa: E402

TINY = {
    "identify": workloads.IdentifySizes(
        devices=2, forward_crps=60, inverse_crps=30, checkpoint_every=25, unit_rounds=120
    ),
    "analysis": workloads.AnalysisSizes(sbox_batch=10_000, trails=20, fe_trials=20, roundtrip_blocks=64),
    "clone-attack": workloads.AttackSizes(suc_train=5000, auth_trials=50),
}


_CLASSES = dict(workloads.WORKLOADS)


def _tiny(name, cls=None):
    cls = cls or _CLASSES[name]
    return lambda seed, workdir: cls(seed, workdir, TINY[name])


def _main(monkeypatch, capsys, name, trace, cls=None):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name, cls))
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_and_every_gate_passes(monkeypatch, capsys, name):
    plain = _main(monkeypatch, capsys, name, 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert [(k, v["unit"]) for k, v in plain["metrics"].items()] == [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _main(monkeypatch, capsys, name, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert [(k, v["unit"]) for k, v in traced["metrics"].items()] == [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    records = [
        json.loads((ROOT / ".bench-out" / f"{name}-seed7-trace{t}.json").read_text()) for t in (0, 1)
    ]
    assert records[0]["report"]["digest"] == records[1]["report"]["digest"]
    assert records[1]["spans"]["spans"]


class _ForeignStore(workloads.IdentifyWorkload):
    """ecu-0's forward store holds CRPs enrolled from ecu-1's device."""

    def setup(self):
        state = super().setup()
        first, second = state["members"][:2]
        store = protocol.CrpStore()
        protocol.enroll(second.device, self.sizes.forward_crps, workloads.stream(0, "foreign"), store)
        store.records[first.device.device_id] = store.records.pop(second.device.device_id)
        first.stores[protocol.FORWARD] = store
        return state


class _ForeignHelper(workloads.AnalysisWorkload):
    """The key-recovery trials get helper data enrolled from another secret."""

    def setup(self):
        state = super().setup()
        other = BitString.random(state["code"].code_len, np.random.default_rng(1))
        _, state["helper"] = fuzzy.fe_generate(other, state["code"], 128, np.random.default_rng(2))
        return state


@pytest.mark.parametrize("name, cls", [("identify", _ForeignStore), ("analysis", _ForeignHelper)])
def test_a_wrong_input_is_counted_as_failed(monkeypatch, capsys, name, cls):
    result = _main(monkeypatch, capsys, name, 0, cls)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_tracer_patches_names_imported_elsewhere_and_restores_them():
    from clonebench import attacks, fuzzy, protocol, puf

    originals = (fuzzy.fe_reproduce_detail, puf.parity_transform, protocol.CrpStore.consume_next)
    t = tracer.Tracer()
    t.install()
    try:
        assert protocol.fe_reproduce_detail is fuzzy.fe_reproduce_detail is not originals[0]
        assert attacks.parity_transform is puf.parity_transform is not originals[1]
        attacks.parity_transform(np.zeros((3, 8), dtype=np.uint8))
        assert [s[0] for s in t.spans] == ["puf.parity_transform"]
    finally:
        t.uninstall()
    assert (fuzzy.fe_reproduce_detail, puf.parity_transform, protocol.CrpStore.consume_next) == originals
    assert protocol.fe_reproduce_detail is originals[0] and attacks.parity_transform is originals[1]


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
