"""Command-line surface: every verb prints one JSON result to stdout and logs
to stderr.  Exit codes: 0 success/Accept, 1 Reject or failed experiment,
2 usage error, 3 malformed data file."""
from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import logging
import os
import sys

import numpy as np

from . import acoustic, attacks, fuzzy, metrics, protocol, puf, repro, suc
from .bitstring import BitString
from .environment import NOMINAL, EnvironmentConditions
from .errors import DataFormatError
from .jsonio import dumps_canonical, write_json
from .rng import fresh_seed, substream

log = logging.getLogger("clonebench")

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_DATA = 3


# --------------------------------------------------------------------------- puf
def _build_puf(model, args, seed, noise_sigma=0.0):
    """The PUF a ``--model`` or ``--target`` name stands for, sized by the verb's flags."""
    if model == "arbiter":
        return puf.arbiter_new(args.stages, seed, noise_sigma)
    if model == "xor":
        return puf.xor_arbiter_new(args.stages, args.k, seed, noise_sigma)
    if model == "ro":
        return puf.ro_new(args.oscillators, seed, noise_sigma)
    if model == "sram":
        if noise_sigma:
            raise ValueError("--model sram takes its noise from calibrated anchors, not --noise-sigma")
        return puf.sram_new(args.cells, seed)
    raise ValueError(f"unknown model {model}")


def _puf_challenges(device, n, rng):
    if not device.challenge_bits:
        return None
    return [BitString.random(device.challenge_bits, rng) for _ in range(n)]


def cmd_puf_simulate(args):
    device = _build_puf(args.model, args, args.seed, args.noise_sigma)
    env = EnvironmentConditions(args.temp, args.volt)
    rng = substream(args.seed, "puf-simulate")
    challenges = _puf_challenges(device, args.challenges, rng)
    noisy = device.respond(challenges, env, rng)
    reference = device.respond(challenges)
    result = {
        "descriptor": device.descriptor(),
        "temperature_c": env.temperature_c,
        "voltage_v": env.voltage_v,
        "response_hex": BitString(noisy).to_hex(),
        "response_bits": int(noisy.size),
        "ber_vs_reference": float(np.mean(noisy != reference)),
    }
    return result, EXIT_OK


def cmd_puf_metrics(args):
    rng = substream(args.seed, "puf-metrics")
    devices = []
    for i in range(args.devices):
        dev_seed = int(substream(args.seed, "puf-metrics-device", i).integers(0, 2**63))
        devices.append(_build_puf(args.model, args, dev_seed, args.noise_sigma))
    challenges = _puf_challenges(devices[0], args.challenges, rng)
    return metrics.uniqueness(devices, challenges).to_json(), EXIT_OK


# --------------------------------------------------------------------------- fe
def cmd_fe_design(args):
    params = fuzzy.design_repetition(args.ber, args.fail_target, args.blocks)
    leak_bits = fuzzy.sketch_leak_bits(params)
    return {
        "n_rep": params.n_rep,
        "n_blocks": params.n_blocks,
        "code_len": params.code_len,
        "leak_bits": leak_bits,
        # the key budget when every input bit is fully random
        "key_budget_bits": fuzzy.entropy_accounting(params.code_len, leak_bits),
    }, EXIT_OK


def cmd_fe_generate(args):
    params = fuzzy.RepetitionParams(args.n_rep, args.blocks)
    w = BitString.from_hex(args.input_hex, params.code_len)
    key, helper = fuzzy.fe_generate(w, params, args.key_len, substream(args.seed, "fe-generate"))
    if args.helper_out:
        fuzzy.save_helper(helper, args.helper_out)
        log.info("helper data written to %s", args.helper_out)
    return {"key_hex": key.key.to_hex(), "key_len": args.key_len}, EXIT_OK


def cmd_fe_reproduce(args):
    helper = fuzzy.load_helper(args.helper)
    w = BitString.from_hex(args.input_hex, helper.params.code_len)
    key = fuzzy.fe_reproduce(w, helper)
    if key is None:
        return {"result": "fail"}, EXIT_REJECT
    return {"result": "ok", "key_hex": key.key.to_hex()}, EXIT_OK


# --------------------------------------------------------------------------- suc
def cmd_suc_personalize(args):
    params = suc.SucParams(rounds=args.rounds)
    device = suc.personalize(params, substream(args.seed, "personalize"), args.device_id)
    result = {
        "device_id": device.device_id,
        "rounds": params.rounds,
        "key_bits": suc.KEY_BITS,
    }
    if args.device_out:
        suc.save_device(device, args.device_out)
        log.info("secret device file written to %s", args.device_out)
    if args.unsafe_dump:
        result["descriptor"] = suc.descriptor_dict(device)
        log.warning("descriptor printed to stdout at your request (--unsafe-dump)")
    return result, EXIT_OK


def cmd_suc_analyze(args):
    params = suc.SucParams(rounds=args.rounds)
    report = suc.security_report(params, args.samples, substream(args.seed, "suc-analyze"))
    return {
        "rounds": params.rounds,
        "cardinality_bits": report.cardinality_bits,
        "min_active_sboxes": report.min_active_sboxes,
        "diff_complexity_log2": report.diff_complexity_log2,
        "lin_complexity_log2": report.lin_complexity_log2,
        "sbox_acceptance_rate": report.sbox_acceptance_rate,
        "sample_budget": report.sample_budget,
    }, EXIT_OK


def cmd_suc_encrypt(args):
    device = suc.load_device(args.device)
    block = BitString.from_hex(args.block_hex, suc.BLOCK_BITS)
    return {"device_id": device.device_id, "ciphertext_hex": device.encrypt(block).to_hex()}, EXIT_OK


# --------------------------------------------------------------------------- acoustic
def cmd_acoustic_fingerprint(args):
    model = acoustic.structure_new(args.seed, args.bins, args.smoothing)
    rng = None if args.noiseless else substream(args.seed, "acoustic-measure")
    fp = acoustic.fingerprint(model, EnvironmentConditions(args.temp, args.volt), rng)
    if args.fingerprint_out:
        acoustic.save_fingerprint(fp, args.fingerprint_out)
        log.info("fingerprint written to %s", args.fingerprint_out)
    return {
        "device_id": fp.device_id,
        "n_bins": len(fp.bits),
        "bits_hex": fp.bits.to_hex(),
    }, EXIT_OK


def cmd_acoustic_entropy(args):
    fps = [
        acoustic.fingerprint(acoustic.structure_new(int(substream(args.seed, "acoustic-pop", i).integers(0, 2**63)), args.bins, args.smoothing))
        for i in range(args.devices)
    ]
    estimate = acoustic.structural_entropy_estimate(fps)
    return {
        "n_devices": args.devices,
        "mean_hd": estimate.mean_hd,
        "dof_bits": estimate.dof_bits,
        "degenerate": estimate.degenerate,
    }, EXIT_OK


def cmd_acoustic_space(args):
    spec = acoustic.ChallengeSpaceSpec(args.t, args.k, args.p)
    result = {"bits": acoustic.challenge_space_bits(spec), "t": args.t, "k": args.k}
    if args.p is not None:
        result["p"] = args.p
        result["note"] = acoustic.SPARSE_OCCUPANCY_NOTE
    return result, EXIT_OK


# --------------------------------------------------------------------------- protocol
@contextlib.contextmanager
def _store_session(args, device, mode=None):
    """Yield the store under an exclusive flock on ``<store>.lock`` from load to
    save, so that processes sharing it change it one at a time.

    ``mode`` (enroll) starts a missing store empty and must match an existing
    one.  Records of ``device`` not ``suc.BLOCK_BITS`` wide exit 3 before any
    change.  Each record ``consume_next`` hands out is saved as used before the
    device sees it: a crash mid-exchange cannot reissue it, and a failed write
    raises its OSError ahead of the exchange.  Only ``consume_next`` burns to
    disk, as no verb calls ``verify_challenge``.
    """
    with open(f"{args.store}.lock", "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        if mode is not None and not os.path.exists(args.store):
            store = protocol.CrpStore(mode=mode)
        else:
            store = protocol.load_store(args.store)
            if mode is not None and store.mode != mode:
                raise ValueError(f"{args.store} holds {store.mode} CRPs, not --mode {mode}")
        for rec in store.records.get(device.device_id, []):
            if len(rec.challenge) != suc.BLOCK_BITS or len(rec.response) != suc.BLOCK_BITS:
                raise DataFormatError(f"{args.store}: a CRP of {device.device_id} is not {suc.BLOCK_BITS} bits wide")
        consume_next = store.consume_next

        def burn_next(device_id):
            record = consume_next(device_id)
            if record is not None:
                protocol.save_store(store, args.store)
            return record

        store.consume_next = burn_next
        yield store


def cmd_enroll(args):
    device = suc.load_device(args.device)
    with _store_session(args, device, args.mode) as store:
        stored = protocol.enroll(device, args.pairs, substream(args.seed, "enroll"), store)
        protocol.save_store(store, args.store)
    log.info("stored %d CRPs for %s in %s", stored, device.device_id, args.store)
    return {"device_id": device.device_id, "stored": stored, "mode": store.mode}, EXIT_OK


def _run_session(args, exchange):
    """Load the device and run ``exchange(store, channel, device_id)`` in a store
    session over the channel the session flags ask for."""
    device = suc.load_device(args.device)
    if args.impostor:
        agent = protocol.RandomAgent(substream(args.seed, "impostor"))
    else:
        agent = protocol.SucAgent(device)
    channel = protocol.DeviceChannel(agent)
    if args.tamper_bits:
        positions = [int(p) for p in args.tamper_bits.split(",") if p != ""]
        channel = protocol.tamper_channel(channel, positions)
    with _store_session(args, device) as store:
        verdict = exchange(store, channel, device.device_id)
    return verdict, device.device_id


def cmd_identify(args):
    verdict, device_id = _run_session(args, protocol.identify)
    result = {
        "verdict": verdict.verdict,
        "reason": verdict.reason,
        "device_id": device_id,
    }
    return result, EXIT_OK if verdict.accepted else EXIT_REJECT


def cmd_combined_verify(args):
    helper = fuzzy.load_helper(args.helper)
    fp = acoustic.load_fingerprint(args.fingerprint)
    verdict, _ = _run_session(
        args,
        lambda store, channel, device_id: protocol.combined_verify(
            store, helper, fp, channel, device_id, args.tau, structural_dof_bits=args.structural_dof
        ),
    )
    result = {"verdict": verdict.verdict, "reason": verdict.reason}
    if verdict.entropy_bits is not None:
        result["entropy_bits"] = verdict.entropy_bits
    return result, EXIT_OK if verdict.accepted else EXIT_REJECT


# --------------------------------------------------------------------------- attacks
def cmd_attack_model(args):
    if args.target == "suc":
        device = suc.personalize(suc.SucParams(), substream(args.seed, "attack-target"), "attack-target")
        target = attacks.SucBitTarget(device)
    else:
        target = _build_puf(args.target, args, args.seed)
    data = attacks.collect_crps(target, args.train, substream(args.seed, "attack-train"))
    model = attacks.train_model(data)
    report = attacks.eval_model(model, target, args.test, substream(args.seed, "attack-test"))
    return report.to_json(), EXIT_OK


# --------------------------------------------------------------------------- repro
def cmd_repro(args):
    result = repro.run(args.name, args.seed)
    return result, EXIT_OK if result["passed"] else EXIT_REJECT


# --------------------------------------------------------------------------- wiring
def _add_common(sp, handler, draws=True, seed_default=None):
    """The flags every verb takes, and --seed for the verbs that draw; main draws a missing seed and echoes it."""
    if draws:
        help_text = f"run seed (default: {'OS entropy' if seed_default is None else seed_default})"
        sp.add_argument("--seed", type=int, default=seed_default, help=help_text)
    sp.add_argument("--config", default=None, help="JSON file of flag defaults; explicit flags win")
    sp.add_argument("--out", default=None, help="also write the JSON result to this path (0600 if it holds a descriptor)")
    sp.set_defaults(handler=handler, leaf=sp)


def _add_puf_model(sp, challenges):
    sp.add_argument("--model", choices=["arbiter", "xor", "ro", "sram"], required=True)
    sp.add_argument("--stages", type=int, default=64)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--oscillators", type=int, default=128)
    sp.add_argument("--cells", type=int, default=256)
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--challenges", type=int, default=challenges)


def _add_env(sp):
    sp.add_argument("--temp", type=float, default=NOMINAL.temperature_c)
    sp.add_argument("--volt", type=float, default=NOMINAL.voltage_v)


def _add_session(sp):
    sp.add_argument("--device", required=True)
    sp.add_argument("--store", required=True)
    sp.add_argument("--tamper-bits", default=None, help="comma-separated bit positions to flip in transit")
    sp.add_argument("--impostor", action="store_true", help="replace the device with a random responder")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clonebench", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("puf", help="simulate PUF devices and population metrics")
    puf_sub = p.add_subparsers(dest="action", required=True)
    ps = puf_sub.add_parser("simulate")
    _add_puf_model(ps, challenges=64)
    _add_env(ps)
    _add_common(ps, cmd_puf_simulate)
    pm = puf_sub.add_parser("metrics")
    _add_puf_model(pm, challenges=128)
    pm.add_argument("--devices", type=int, default=50)
    _add_common(pm, cmd_puf_metrics)

    f = sub.add_parser("fe", help="fuzzy extractor design, generate, reproduce")
    fe_sub = f.add_subparsers(dest="action", required=True)
    fd = fe_sub.add_parser("design")
    fd.add_argument("--ber", type=float, required=True)
    fd.add_argument("--fail-target", type=float, default=1e-6)
    fd.add_argument("--blocks", type=int, required=True)
    _add_common(fd, cmd_fe_design, draws=False)
    fg = fe_sub.add_parser("generate")
    fg.add_argument("--input-hex", required=True)
    fg.add_argument("--n-rep", type=int, required=True)
    fg.add_argument("--blocks", type=int, required=True)
    fg.add_argument("--key-len", type=int, default=128)
    fg.add_argument("--helper-out", default=None)
    _add_common(fg, cmd_fe_generate)
    fr = fe_sub.add_parser("reproduce")
    fr.add_argument("--input-hex", required=True)
    fr.add_argument("--helper", required=True)
    _add_common(fr, cmd_fe_reproduce, draws=False)

    s = sub.add_parser("suc", help="secret unknown cipher operations")
    suc_sub = s.add_subparsers(dest="action", required=True)
    sp_ = suc_sub.add_parser("personalize")
    sp_.add_argument("--device-id", required=True)
    sp_.add_argument("--rounds", type=int, default=40)
    sp_.add_argument("--device-out", default=None, help="write the secret device file here")
    sp_.add_argument("--unsafe-dump", action="store_true", help="print the descriptor to stdout")
    _add_common(sp_, cmd_suc_personalize)
    sa = suc_sub.add_parser("analyze")
    sa.add_argument("--rounds", type=int, default=40)
    sa.add_argument("--samples", type=int, default=20000)
    _add_common(sa, cmd_suc_analyze)
    se = suc_sub.add_parser("encrypt")
    se.add_argument("--device", required=True)
    se.add_argument("--block-hex", required=True)
    _add_common(se, cmd_suc_encrypt, draws=False)

    a = sub.add_parser("acoustic", help="structural identity pipeline")
    ac_sub = a.add_subparsers(dest="action", required=True)
    af = ac_sub.add_parser("fingerprint")
    af.add_argument("--bins", type=int, default=256)
    af.add_argument("--smoothing", type=float, default=0.0)
    af.add_argument("--noiseless", action="store_true")
    af.add_argument("--fingerprint-out", default=None, help="write the fingerprint file here")
    _add_env(af)
    _add_common(af, cmd_acoustic_fingerprint)
    ae = ac_sub.add_parser("entropy")
    ae.add_argument("--devices", type=int, default=1000)
    ae.add_argument("--bins", type=int, default=256)
    ae.add_argument("--smoothing", type=float, default=0.0)
    _add_common(ae, cmd_acoustic_entropy)
    asp = ac_sub.add_parser("space")
    asp.add_argument("--t", type=int, required=True)
    asp.add_argument("--k", type=int, required=True)
    asp.add_argument("--p", type=int, default=None)
    _add_common(asp, cmd_acoustic_space, draws=False)

    e = sub.add_parser("enroll", help="bank single-use CRPs with the trusted authority")
    e.add_argument("--device", required=True)
    e.add_argument("--pairs", type=int, required=True)
    e.add_argument("--store", required=True)
    e.add_argument("--mode", choices=[protocol.FORWARD, protocol.INVERSE], default=protocol.FORWARD, help="must match an existing store")
    _add_common(e, cmd_enroll)

    i = sub.add_parser("identify", help="run one identification round")
    _add_session(i)
    _add_common(i, cmd_identify)

    cv = sub.add_parser("combined-verify", help="joint structural + cipher verification")
    _add_session(cv)
    cv.add_argument("--helper", required=True)
    cv.add_argument("--fingerprint", required=True)
    cv.add_argument("--tau", type=float, default=0.25)
    cv.add_argument("--structural-dof", type=float, default=None)
    _add_common(cv, cmd_combined_verify)

    at = sub.add_parser("attack", help="cloning attacks")
    at_sub = at.add_subparsers(dest="action", required=True)
    am = at_sub.add_parser("model")
    am.add_argument("--target", choices=["arbiter", "xor", "suc"], required=True)
    am.add_argument("--train", type=int, default=5000)
    am.add_argument("--test", type=int, default=2000)
    am.add_argument("--stages", type=int, default=64)
    am.add_argument("--k", type=int, default=2)
    _add_common(am, cmd_attack_model)

    r = sub.add_parser("repro", help="named acceptance experiments")
    r.add_argument("name", choices=sorted(repro.EXPERIMENTS))
    _add_common(r, cmd_repro, seed_default=repro.DEFAULT_SEED)

    return parser


def _config_value(path, key, action, value):
    """A config value as the flag would parse it on the command line."""
    if action.nargs == 0:  # a switch such as --impostor
        if not isinstance(value, bool):
            raise DataFormatError(f"config {path}: {key!r} must be true or false")
        return value
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        parsed = action.type(text) if action.type else text
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"config {path}: bad value for {key!r}: {exc}") from exc
    if action.choices is not None and parsed not in action.choices:
        raise DataFormatError(f"config {path}: {key!r} must be one of {list(action.choices)}")
    return parsed


def _apply_config(parser, argv, args):
    """Parse again with the config file's values as the defaults of the verb's flags.

    Keys are flag names without the dashes (``noise-sigma`` or ``noise_sigma``);
    flags given on the command line win.
    """
    if not args.config:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(values, dict):
        raise DataFormatError(f"config {args.config} must be a JSON object")
    flags = {a.dest: a for a in args.leaf._actions if a.option_strings and a.dest != argparse.SUPPRESS}
    defaults = {}
    for key, value in values.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise DataFormatError(f"config {args.config}: {key!r} is not a flag of this verb")
        defaults[action.dest] = _config_value(args.config, key, action, value)
    args.leaf.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args = _apply_config(parser, argv, args)
        if "seed" in args and args.seed is None:
            args.seed = fresh_seed()
            log.info("no seed given; drew %d from OS entropy (echoed in output)", args.seed)
        result, code = args.handler(args)
    except DataFormatError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except (ValueError, TypeError, OSError) as exc:
        log.error("usage error: %s", exc)
        return EXIT_USAGE
    if "seed" in args:
        result["seed"] = args.seed
    line = dumps_canonical(result)
    print(line)
    if args.out:
        # a descriptor rebuilds its device, so a result holding one is secret
        write_json(args.out, result, secret="descriptor" in result)
    return code


if __name__ == "__main__":
    sys.exit(main())
