import json
import os
import stat

import pytest

from clonebench import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_space_verb_exact_value(capsys):
    code, out = run_cli(capsys, "acoustic", "space", "--t", "32", "--k", "20")
    assert code == 0
    assert json.loads(out)["bits"] == 100.0


def test_space_sparse_emits_note(capsys):
    code, out = run_cli(capsys, "acoustic", "space", "--t", "32", "--k", "20", "--p", "10")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["bits"] - 67.4953) < 1e-3
    assert "65" in doc["note"]


def test_stdout_is_byte_identical_for_same_seed(capsys):
    _, first = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64", "--seed", "9")
    _, second = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64", "--seed", "9")
    assert first == second
    _, third = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64", "--seed", "10")
    assert third != first


def test_usage_error_exit_code(capsys):
    assert cli.main(["puf", "simulate", "--model", "nonsense"]) == 2
    assert cli.main(["repro", "not-an-experiment"]) == 2
    assert cli.main(["fe", "design", "--ber", "0.9", "--blocks", "8"]) == 2
    assert cli.main(["attack", "model", "--target", "xor", "--k", "5", "--seed", "1"]) == 2


def test_malformed_data_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["identify", "--device", str(bad), "--store", str(bad)]) == 3
    versioned = tmp_path / "versioned.json"
    versioned.write_text('{"schema_version": 2, "device_id": "x"}')
    assert cli.main(["suc", "encrypt", "--device", str(versioned), "--block-hex", "00"]) == 3


def test_full_protocol_flow_via_cli(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    code, out = run_cli(
        capsys, "suc", "personalize", "--device-id", "ecu-9", "--rounds", "8",
        "--seed", "44", "--device-out", str(dev),
    )
    assert code == 0
    assert "descriptor" not in json.loads(out)  # secret unless --unsafe-dump

    code, out = run_cli(
        capsys, "enroll", "--device", str(dev), "--pairs", "3", "--store", str(store), "--seed", "45",
    )
    assert code == 0 and json.loads(out)["stored"] == 3

    for expected_code in (0, 0, 0, 1):  # three records, then depleted
        code, out = run_cli(capsys, "identify", "--device", str(dev), "--store", str(store), "--seed", "46")
        assert code == expected_code
    assert json.loads(out)["reason"] == "depleted"


def test_identify_tamper_bits_reject(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "e", "--rounds", "8", "--seed", "47", "--device-out", str(dev))
    run_cli(capsys, "enroll", "--device", str(dev), "--pairs", "2", "--store", str(store), "--seed", "48")
    code, out = run_cli(
        capsys, "identify", "--device", str(dev), "--store", str(store), "--tamper-bits", "5", "--seed", "49",
    )
    assert code == 1
    assert json.loads(out)["reason"] == "mismatch"


def test_unsafe_dump_gates_descriptor(capsys):
    code, out = run_cli(
        capsys, "suc", "personalize", "--device-id", "d", "--rounds", "4", "--seed", "50", "--unsafe-dump",
    )
    doc = json.loads(out)
    assert code == 0
    assert "sboxes" in doc["descriptor"]


def test_unsafe_dump_out_file_is_private(tmp_path, capsys):
    path = tmp_path / "dump.json"
    old_umask = os.umask(0o022)
    try:
        code, _ = run_cli(
            capsys, "suc", "personalize", "--device-id", "d", "--rounds", "4", "--seed", "51",
            "--unsafe-dump", "--out", str(path),
        )
    finally:
        os.umask(old_umask)
    assert code == 0
    assert "master_key_hex" in json.loads(path.read_text())["descriptor"]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_fe_reproduce_fail_exit(tmp_path, capsys):
    helper = tmp_path / "helper.json"
    # 3 * 8 = 24 bits = 6 hex digits
    code, out = run_cli(
        capsys, "fe", "generate", "--input-hex", "abcdef", "--n-rep", "3", "--blocks", "8",
        "--key-len", "16", "--helper-out", str(helper), "--seed", "52",
    )
    assert code == 0
    key_hex = json.loads(out)["key_hex"]
    code, out = run_cli(capsys, "fe", "reproduce", "--input-hex", "abcdef", "--helper", str(helper))
    assert code == 0 and json.loads(out)["key_hex"] == key_hex
    # flood with errors -> checksum FAIL and reject exit code
    code, out = run_cli(capsys, "fe", "reproduce", "--input-hex", "543210", "--helper", str(helper))
    assert code == 1 and json.loads(out)["result"] == "fail"


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 10}))
    code, out = run_cli(
        capsys, "acoustic", "space", "--t", "32", "--k", "20", "--config", str(cfg),
    )
    assert code == 0
    assert json.loads(out)["p"] == 10


def test_out_flag_writes_result_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out = run_cli(capsys, "acoustic", "space", "--t", "4", "--k", "3", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["bits"] == json.loads(out)["bits"]
    assert doc["schema_version"] == 1


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("CLONEBENCH_SEED", "777")
    _, out = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64")
    doc = json.loads(out)
    assert doc["seed"] == 777
    _, explicit = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64", "--seed", "777")
    assert out == explicit


def test_unseeded_run_echoes_drawn_seed(capsys):
    _, out = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64")
    doc = json.loads(out)
    assert isinstance(doc["seed"], int)  # drawn from OS entropy, echoed for replay


def test_combined_verify_verb(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    fp = tmp_path / "fp.json"
    helper = tmp_path / "helper.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "cv", "--rounds", "8", "--seed", "60", "--device-out", str(dev))
    run_cli(capsys, "enroll", "--device", str(dev), "--pairs", "2", "--store", str(store), "--seed", "61")
    _, out = run_cli(capsys, "acoustic", "fingerprint", "--seed", "62", "--noiseless", "--fingerprint-out", str(fp))
    bits_hex = json.loads(out)["bits_hex"]
    # n_rep = 1: the noiseless reading reproduces exactly, no correction needed
    run_cli(
        capsys, "fe", "generate", "--input-hex", bits_hex, "--n-rep", "1", "--blocks", "256",
        "--key-len", "64", "--helper-out", str(helper), "--seed", "63",
    )
    code, out = run_cli(
        capsys, "combined-verify", "--device", str(dev), "--store", str(store),
        "--helper", str(helper), "--fingerprint", str(fp), "--structural-dof", "220", "--seed", "64",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "accept"
    assert doc["entropy_bits"] == 300.0


def test_repro_verb_smoke(capsys):
    code, out = run_cli(capsys, "repro", "challenge-space")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_puf_metrics_verb(capsys):
    code, out = run_cli(
        capsys, "puf", "metrics", "--model", "sram", "--devices", "12", "--cells", "128", "--seed", "53",
    )
    doc = json.loads(out)
    assert code == 0
    assert 0.4 <= doc["uniqueness_mean"] <= 0.6


def test_attack_model_verb_small(capsys):
    code, out = run_cli(
        capsys, "attack", "model", "--target", "arbiter", "--train", "1500", "--test", "500",
        "--stages", "32", "--epochs", "200", "--seed", "54",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["accuracy"] >= 0.9


def _write_doc(path, doc):
    path.write_text(json.dumps(dict(doc, schema_version=1)))
    return str(path)


def test_malformed_device_file_exit_code(tmp_path, capsys):
    missing = _write_doc(tmp_path / "missing.json", {"kind": "suc_device", "device_id": "x"})
    assert cli.main(["suc", "encrypt", "--device", missing, "--block-hex", "00"]) == 3
    dev = tmp_path / "dev.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "m", "--rounds", "4", "--seed", "70", "--device-out", str(dev))
    doc = json.loads(dev.read_text())
    doc["descriptor"]["sboxes"][0] = [0] * 16
    bad_sbox = _write_doc(tmp_path / "bad-sbox.json", doc)
    assert cli.main(["suc", "encrypt", "--device", bad_sbox, "--block-hex", "00"]) == 3


def test_malformed_helper_file_exit_code(tmp_path, capsys):
    missing = _write_doc(tmp_path / "missing.json", {"n_rep": 3})
    assert cli.main(["fe", "reproduce", "--input-hex", "abcdef", "--helper", missing]) == 3
    ill_typed = _write_doc(
        tmp_path / "ill-typed.json",
        {"n_rep": "3", "n_blocks": 8, "key_len": 16, "sketch_hex": "00", "seed_hex": "00", "checksum_hex": "00"},
    )
    assert cli.main(["fe", "reproduce", "--input-hex", "abcdef", "--helper", ill_typed]) == 3


def test_malformed_fingerprint_file_exit_code(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    helper = tmp_path / "helper.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "fp", "--rounds", "4", "--seed", "71", "--device-out", str(dev))
    run_cli(capsys, "enroll", "--device", str(dev), "--pairs", "1", "--store", str(store), "--seed", "72")
    run_cli(
        capsys, "fe", "generate", "--input-hex", "abcdef", "--n-rep", "3", "--blocks", "8",
        "--key-len", "16", "--helper-out", str(helper), "--seed", "73",
    )
    argv = ["combined-verify", "--device", str(dev), "--store", str(store), "--helper", str(helper), "--seed", "74"]
    missing = _write_doc(tmp_path / "missing.json", {"bits_hex": "abcdef"})
    assert cli.main(argv + ["--fingerprint", missing]) == 3
    ill_typed = _write_doc(tmp_path / "ill-typed.json", {"bits_hex": "abcdef", "n_bins": 24, "thresholds": "high"})
    assert cli.main(argv + ["--fingerprint", ill_typed]) == 3
