import json
import os
import stat
import subprocess
import sys

import pytest

from clonebench import cli, protocol, repro


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


@pytest.mark.parametrize("verb", [["puf", "simulate"], ["puf", "metrics", "--devices", "3"]])
def test_sram_refuses_noise_sigma(capsys, verb):
    # SRAM noise comes only from its calibrated anchors
    argv = verb + ["--model", "sram", "--cells", "64", "--seed", "5"]
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--noise-sigma", "0.3"]) == 2


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


def test_out_file_without_a_descriptor_is_not_secret(tmp_path, capsys):
    path = tmp_path / "space.json"
    old_umask = os.umask(0o022)
    try:
        code, _ = run_cli(capsys, "acoustic", "space", "--t", "32", "--k", "20", "--out", str(path))
    finally:
        os.umask(old_umask)
    assert code == 0
    assert "descriptor" not in json.loads(path.read_text())
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_puf_simulate_has_no_save_flag(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, _ = run_cli(capsys, "puf", "simulate", "--model", "sram", "--cells", "64", "--save", str(path))
    assert code == 2
    assert not path.exists()


def test_fe_design_reports_the_full_entropy_key_budget(capsys):
    for ber, blocks, budget in (("0.1", "8", 0), ("0.25", "128", 16)):
        code, out = run_cli(capsys, "fe", "design", "--ber", ber, "--blocks", blocks)
        assert code == 0
        assert json.loads(out)["key_budget_bits"] == budget


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


def _simulate_with_config(tmp_path, capsys, config, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run_cli(capsys, "puf", "simulate", "--model", "arbiter", "--seed", "3", "--config", str(cfg), *flags)


def test_config_sets_flags_that_have_real_defaults(tmp_path, capsys):
    code, out = _simulate_with_config(tmp_path, capsys, {"stages": 8, "noise-sigma": 0.5, "challenges": 4})
    doc = json.loads(out)
    assert code == 0
    assert doc["descriptor"]["params"] == {"n_stages": 8, "noise_sigma": 0.5}
    assert doc["response_bits"] == 4


@pytest.mark.parametrize("flag", ["--stages", "--stag"])
def test_config_loses_to_explicit_flags_abbreviations_included(tmp_path, capsys, flag):
    code, out = _simulate_with_config(tmp_path, capsys, {"stages": 8, "challenges": 4}, flag, "12")
    doc = json.loads(out)
    assert code == 0
    assert doc["descriptor"]["params"]["n_stages"] == 12
    assert doc["response_bits"] == 4


def test_config_values_parse_like_flags(tmp_path, capsys):
    code, configured = _simulate_with_config(tmp_path, capsys, {"temp": -40, "volt": "1.3"})
    assert code == 0
    _, flagged = run_cli(capsys, "puf", "simulate", "--model", "arbiter", "--seed", "3", "--temp", "-40", "--volt", "1.3")
    assert configured == flagged


@pytest.mark.parametrize(
    "config",
    [{"nonsense": 1}, {"bins": 64}, {"model": "bogus"}, {"stages": "many"}, {"stages": True}, ["stages", 8]],
    ids=["unknown-key", "other-verb-flag", "bad-choice", "bad-int", "bool-for-int", "not-an-object"],
)
def test_config_key_or_value_that_fits_no_flag_exits_3(tmp_path, capsys, config):
    code, out = _simulate_with_config(tmp_path, capsys, config)
    assert code == 3 and out == ""


def test_config_switch_takes_a_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noiseless": "yes"}))
    assert cli.main(["acoustic", "fingerprint", "--bins", "64", "--seed", "1", "--config", str(cfg)]) == 3
    cfg.write_text(json.dumps({"noiseless": True}))
    _, configured = run_cli(capsys, "acoustic", "fingerprint", "--bins", "64", "--seed", "1", "--config", str(cfg))
    _, flagged = run_cli(capsys, "acoustic", "fingerprint", "--bins", "64", "--seed", "1", "--noiseless")
    assert configured == flagged


def test_enroll_mode_must_match_existing_store(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "m", "--rounds", "4", "--seed", "80", "--device-out", str(dev))
    for mode in ("forward", "inverse"):
        store = tmp_path / f"{mode}.json"
        other = "inverse" if mode == "forward" else "forward"
        argv = ["enroll", "--device", str(dev), "--pairs", "2", "--store", str(store), "--seed", "81"]
        assert cli.main(argv + ["--mode", mode]) == 0
        banked = store.read_text()
        assert cli.main(argv + ["--mode", other]) == 2
        assert store.read_text() == banked
        assert cli.main(argv + ["--mode", mode, "--seed", "82"]) == 0
        assert json.loads(store.read_text())["mode"] == mode


def test_out_flag_writes_result_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out = run_cli(capsys, "acoustic", "space", "--t", "4", "--k", "3", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["bits"] == json.loads(out)["bits"]
    assert doc["schema_version"] == 1


def test_repro_seed_defaults_to_2026_whatever_the_environment(monkeypatch, capsys):
    code, out = run_cli(capsys, "repro", "challenge-space")
    assert code == 0 and json.loads(out)["seed"] == repro.DEFAULT_SEED
    assert out == run_cli(capsys, "repro", "challenge-space", "--seed", str(repro.DEFAULT_SEED))[1]
    monkeypatch.setenv("CLONEBENCH_SEED", "5")  # no longer a seed source
    assert run_cli(capsys, "repro", "challenge-space") == (code, out)
    code, help_text = run_cli(capsys, "repro", "--help")
    assert code == 0 and "OS entropy" not in help_text and f"default: {repro.DEFAULT_SEED}" in help_text


def test_config_seed_beats_the_repro_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5}))
    code, configured = run_cli(capsys, "repro", "challenge-space", "--config", str(cfg))
    assert code == 0 and json.loads(configured)["seed"] == 5
    assert configured == run_cli(capsys, "repro", "challenge-space", "--seed", "5")[1]
    assert json.loads(run_cli(capsys, "repro", "challenge-space", "--config", str(cfg), "--seed", "6")[1])["seed"] == 6


DRAWLESS_VERBS = [
    ["fe", "design", "--ber", "0.1", "--blocks", "8"],
    ["fe", "reproduce", "--input-hex", "abcdef", "--helper", "helper.json"],
    ["suc", "encrypt", "--device", "dev.json", "--block-hex", "00"],
    ["acoustic", "space", "--t", "32", "--k", "20"],
]


@pytest.mark.parametrize("argv", DRAWLESS_VERBS, ids=[" ".join(v[:2]) for v in DRAWLESS_VERBS])
def test_verbs_that_draw_nothing_refuse_a_seed(tmp_path, capsys, argv):
    assert cli.main(argv + ["--seed", "1"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert cli.main(argv + ["--config", str(cfg)]) == 3
    assert capsys.readouterr().out == ""


def test_config_seed_is_resolved_and_echoed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    argv = ["puf", "simulate", "--model", "sram", "--cells", "64"]
    _, configured = run_cli(capsys, *argv, "--config", str(cfg))
    assert json.loads(configured)["seed"] == 9
    assert configured == run_cli(capsys, *argv, "--seed", "9")[1]


def test_concurrent_identify_runs_consume_each_record_once(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "lk", "--rounds", "4", "--seed", "90", "--device-out", str(dev))
    run_cli(capsys, "enroll", "--device", str(dev), "--pairs", "50", "--store", str(store), "--seed", "91")
    workers, rounds = 4, 10
    argv = ["identify", "--device", str(dev), "--store", str(store), "--seed", "92"]
    script = f"import sys\nfrom clonebench import cli\nsys.exit(max(cli.main({argv!r}) for _ in range({rounds})))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    procs = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for _ in range(workers)
    ]
    try:
        codes = [p.wait(timeout=300) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert codes == [0] * workers  # every round accepted, none depleted
    records = json.loads(store.read_text())["records"]
    assert sum(r["used"] for r in records) == workers * rounds  # a lost update would reuse a CRP


def _enrolled(tmp_path, capsys, pairs=3):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "bn", "--rounds", "4", "--seed", "93", "--device-out", str(dev))
    run_cli(capsys, "enroll", "--device", str(dev), "--pairs", str(pairs), "--store", str(store), "--seed", "94")
    return dev, store


def test_identify_burns_the_record_on_disk_before_the_device_answers(tmp_path, capsys):
    dev, store = _enrolled(tmp_path, capsys)
    argv = ["identify", "--device", str(dev), "--store", str(store), "--seed", "95"]
    # the process dies while the device holds the challenge, before any verdict
    script = (
        "import os\nfrom clonebench import cli, protocol\n"
        "protocol.SucAgent.forward = lambda self, challenge: os._exit(9)\n"
        f"cli.main({argv!r})"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 9 and proc.stdout == b""
    records = json.loads(store.read_text())["records"]
    assert [r["used"] for r in records] == [True, False, False]  # the seen challenge is never handed out again


def test_identify_store_write_failure_exits_2_before_the_device_answers(tmp_path, capsys, monkeypatch):
    dev, store = _enrolled(tmp_path, capsys)
    before = store.read_bytes()
    seen = []

    def refuse(store, path):
        raise OSError("no space left on device")

    monkeypatch.setattr(protocol, "save_store", refuse)
    monkeypatch.setattr(protocol.SucAgent, "forward", lambda self, challenge: seen.append(challenge))
    code, out = run_cli(capsys, "identify", "--device", str(dev), "--store", str(store), "--seed", "96")
    assert (code, out) == (2, "")  # no tamper verdict for a local write failure
    assert seen == []
    assert store.read_bytes() == before


@pytest.mark.parametrize("verb", [["identify"], ["enroll", "--pairs", "2"]], ids=["identify", "enroll"])
def test_identify_store_with_malformed_record_widths_exits_3(tmp_path, capsys, verb):
    dev, store = _enrolled(tmp_path, capsys)
    doc = json.loads(store.read_text())
    doc["c_bits"] = 60
    for rec in doc["records"]:
        rec["c_hex"] = rec["c_hex"][:15]
    store.write_text(json.dumps(doc))
    before = store.read_bytes()
    code, out = run_cli(capsys, *verb, "--device", str(dev), "--store", str(store), "--seed", "97")
    assert (code, out) == (3, "")
    assert store.read_bytes() == before  # nothing burned or banked


def test_identify_store_with_a_duplicated_record_exits_3(tmp_path, capsys):
    dev, store = _enrolled(tmp_path, capsys)
    doc = json.loads(store.read_text())
    doc["records"].append(doc["records"][0])  # identify would otherwise hand this CRP out twice
    store.write_text(json.dumps(doc))
    before = store.read_bytes()
    code, out = run_cli(capsys, "identify", "--device", str(dev), "--store", str(store), "--seed", "98")
    assert (code, out) == (3, "")
    assert store.read_bytes() == before


def test_identify_with_a_numeric_device_id_exits_3(tmp_path, capsys):
    dev, store = _enrolled(tmp_path, capsys)
    doc = json.loads(dev.read_text())
    doc["device_id"] = 7
    dev.write_text(json.dumps(doc))
    before = store.read_bytes()
    code, out = run_cli(capsys, "identify", "--device", str(dev), "--store", str(store), "--seed", "98")
    assert (code, out) == (3, "")
    assert store.read_bytes() == before


@pytest.mark.parametrize("field,value", [("c_hex", 123), ("used", None), ("used", "false"), ("used", 0)])
def test_identify_store_with_ill_typed_field_exits_3(tmp_path, capsys, field, value):
    dev, store = _enrolled(tmp_path, capsys)
    doc = json.loads(store.read_text())
    doc["records"][0][field] = value
    store.write_text(json.dumps(doc))
    before = store.read_bytes()
    code, out = run_cli(capsys, "identify", "--device", str(dev), "--store", str(store), "--seed", "98")
    assert (code, out) == (3, "")
    assert store.read_bytes() == before


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


def test_combined_verify_tau_bounds_the_corrected_fraction(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    store = tmp_path / "store.json"
    fp = tmp_path / "fp.json"
    helper = tmp_path / "helper.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "tau", "--rounds", "4", "--seed", "65", "--device-out", str(dev))
    run_cli(capsys, "enroll", "--device", str(dev), "--pairs", "2", "--store", str(store), "--seed", "66")
    _, out = run_cli(capsys, "acoustic", "fingerprint", "--bins", "96", "--noiseless", "--fingerprint-out", str(fp), "--seed", "67")
    # enroll a reading 4 bits off, one in each of four 3-bit repetition blocks:
    # the fingerprint reproduces the key with a corrected fraction of 4/96
    enrolled = int(json.loads(out)["bits_hex"], 16) ^ 0b001001001001
    run_cli(
        capsys, "fe", "generate", "--input-hex", f"{enrolled:024x}", "--n-rep", "3", "--blocks", "32",
        "--key-len", "16", "--helper-out", str(helper), "--seed", "68",
    )
    argv = [
        "combined-verify", "--device", str(dev), "--store", str(store),
        "--helper", str(helper), "--fingerprint", str(fp), "--seed", "69",
    ]
    code, out = run_cli(capsys, *argv, "--tau", "0.04")
    assert (code, json.loads(out)["reason"]) == (1, protocol.REASON_MISMATCH)
    code, out = run_cli(capsys, *argv)
    assert (code, json.loads(out)["verdict"]) == (0, "accept")
    for tau in ("0", "0.5"):
        assert run_cli(capsys, *argv, "--tau", tau) == (2, "")


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
        "--stages", "32", "--seed", "54",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["accuracy"] >= 0.9


# a Newton step has no learning rate and Newton's stopping rule ends training,
# so neither --lr nor --epochs is an option at all
@pytest.mark.parametrize("flag", ["--epochs=0", "--epochs=-1", "--lr=nan", "--lr=-1"])
def test_attack_model_refuses_untrainable_settings(capsys, flag):
    argv = ["attack", "model", "--target", "arbiter", "--train", "200", "--test", "200", "--seed", "1"]
    assert cli.main(argv + [flag]) == 2
    assert capsys.readouterr().out == ""


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


def test_device_file_with_other_cipher_class_exit_code(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "k", "--rounds", "4", "--seed", "75", "--device-out", str(dev))
    block = ["--block-hex", "0123456789abcdef"]
    assert cli.main(["suc", "encrypt", "--device", str(dev)] + block) == 0
    doc = json.loads(dev.read_text())
    doc["params"]["key_bits"] = 96
    wide_key = _write_doc(tmp_path / "wide-key.json", doc)
    assert cli.main(["suc", "encrypt", "--device", wide_key] + block) == 3


def test_malformed_helper_file_exit_code(tmp_path, capsys):
    missing = _write_doc(tmp_path / "missing.json", {"n_rep": 3})
    assert cli.main(["fe", "reproduce", "--input-hex", "abcdef", "--helper", missing]) == 3
    ill_typed = _write_doc(
        tmp_path / "ill-typed.json",
        {"n_rep": "3", "n_blocks": 8, "key_len": 16, "sketch_hex": "00", "seed_hex": "00", "checksum_hex": "00"},
    )
    assert cli.main(["fe", "reproduce", "--input-hex", "abcdef", "--helper", ill_typed]) == 3


@pytest.mark.parametrize("key_len", [0, True])
def test_helper_with_key_len_below_one_or_bool_exits_3(tmp_path, capsys, key_len):
    # the seed is cut to code_len + key_len - 1 bits, so only key_len itself is wrong
    helper = tmp_path / "helper.json"
    code, _ = run_cli(
        capsys, "fe", "generate", "--n-rep", "3", "--blocks", "4", "--input-hex", "abc",
        "--key-len", "8", "--helper-out", str(helper), "--seed", "81",
    )
    assert code == 0
    doc = json.loads(helper.read_text())
    seed_bits = 12 + key_len - 1
    top = int(doc["seed_hex"], 16) >> (4 * len(doc["seed_hex"]) - seed_bits)
    doc["key_len"], doc["seed_hex"] = key_len, f"{top << (-seed_bits % 4):0{-(-seed_bits // 4)}x}"
    mutated = _write_doc(tmp_path / "mutated.json", doc)
    assert cli.main(["fe", "reproduce", "--input-hex", "abc", "--helper", mutated]) == 3


def test_device_with_bool_rounds_exits_3(tmp_path, capsys):
    # JSON true equals 1 in Python, so a 1-round device read it as its round count
    dev = tmp_path / "dev.json"
    run_cli(capsys, "suc", "personalize", "--device-id", "b", "--rounds", "1", "--seed", "82", "--device-out", str(dev))
    block = ["--block-hex", "0123456789abcdef"]
    assert cli.main(["suc", "encrypt", "--device", str(dev)] + block) == 0
    doc = json.loads(dev.read_text())
    doc["params"]["rounds"] = True
    mutated = _write_doc(tmp_path / "mutated.json", doc)
    assert cli.main(["suc", "encrypt", "--device", mutated] + block) == 3


@pytest.mark.parametrize("field", ["n_rep", "n_blocks"])
def test_helper_with_bool_repetition_params_exits_3(tmp_path, capsys, field):
    helper = tmp_path / "helper.json"
    code, _ = run_cli(
        capsys, "fe", "generate", "--n-rep", "1", "--blocks", "1", "--input-hex", "8",
        "--key-len", "8", "--helper-out", str(helper), "--seed", "83",
    )
    assert code == 0
    assert cli.main(["fe", "reproduce", "--input-hex", "8", "--helper", str(helper)]) == 0
    doc = json.loads(helper.read_text())
    doc[field] = True
    mutated = _write_doc(tmp_path / "mutated.json", doc)
    assert cli.main(["fe", "reproduce", "--input-hex", "8", "--helper", mutated]) == 3


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
    other = _write_doc(tmp_path / "other.json", {"bits_hex": "abcdef", "n_bins": 24, "thresholds": [1.0] * 24})
    assert cli.main(argv + ["--fingerprint", other]) == 3
