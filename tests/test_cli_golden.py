"""Golden stdout of every CLI verb at fixed seeds and small sizes.

Each case pins the exit code and the sha256 of stdout.  A change to any
seeded output, a draw order, a default or a printed field shows up here.
"""
import hashlib
import json

import pytest

from clonebench import cli, substream, suc


def _run(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _digest(code, out):
    return code, hashlib.sha256(out.encode()).hexdigest()


# (case id, argv, exit code, sha256 of stdout)
STATELESS = [
    ("puf-simulate-arbiter", "puf simulate --model arbiter --stages 16 --challenges 32 --seed 101", 0, "f540a6286bb0a5ea82314ec38a1a12aa140b38f1dca9042f9b5d8fc20fb9c111"),
    ("puf-simulate-arbiter-noise", "puf simulate --model arbiter --stages 16 --challenges 32 --noise-sigma 2.0 --seed 101", 0, "34a48b66421cd4f1a696e20d3ab150086d78d5d49585f6b1f47fbc35d1629f31"),
    ("puf-simulate-arbiter-temp", "puf simulate --model arbiter --stages 16 --challenges 32 --noise-sigma 2.0 --temp -40 --seed 101", 0, "3b07038bbaed28254c5b293d8808d30fd532ae1828ceea0d80a7ee387197c799"),
    ("puf-simulate-xor", "puf simulate --model xor --stages 16 --k 3 --challenges 32 --seed 102", 0, "97235e865798a3f04660bb7f05d7f43d21847b56115dba0dd12acc245ceeb312"),
    ("puf-simulate-xor-noise", "puf simulate --model xor --stages 16 --k 3 --challenges 32 --noise-sigma 2.0 --seed 102", 0, "9981a77b4886046c6358786db2c3483df3ac2cc099cc27cf55d51399877eb436"),
    ("puf-simulate-xor-temp", "puf simulate --model xor --stages 16 --k 3 --challenges 32 --noise-sigma 2.0 --temp 85 --seed 102", 0, "05dc8d0598130f60c65efaecb501355b4b684d77f07ebaff4b45266399968213"),
    ("puf-simulate-ro", "puf simulate --model ro --oscillators 33 --challenges 3 --seed 103", 0, "aa5d66f9cc82300ad7d7bd0eac7b9222880549506945f9a422cc113ea9377f7e"),
    ("puf-simulate-ro-noise", "puf simulate --model ro --oscillators 33 --challenges 3 --noise-sigma 1.0 --seed 103", 0, "682f650b41ef1091d3ed3e299cf62da1cabb0d53e96d8ee05207590a1b3cff29"),
    ("puf-simulate-ro-temp", "puf simulate --model ro --oscillators 32 --noise-sigma 1.0 --temp 60 --seed 103", 0, "d9a73ddeffe6473f622e20cf4299f8118d6188a3217715ceaa076b1d71940c23"),
    ("puf-simulate-sram", "puf simulate --model sram --cells 64 --seed 104", 0, "8e7a187f7857befc54a0a6ab85d3f44c3bd45e64e2a9d7a7f121378d2e55687e"),
    ("puf-simulate-sram-hot", "puf simulate --model sram --cells 64 --temp 85 --seed 104", 0, "217ce556fdded9e1d3023995daceece4203203dbc23b1277b0aac75687c83b06"),
    ("puf-simulate-sram-temp", "puf simulate --model sram --cells 64 --temp -40 --volt 1.3 --seed 104", 0, "077519b5690312afbb5ed1719b168a0b96e2775741c42706d573257de1ae43d1"),
    ("puf-metrics-arbiter", "puf metrics --model arbiter --devices 6 --stages 16 --challenges 16 --seed 105", 0, "e66a1e27b073ccaf4d22c1832dc2147095a98e916fd5a20f34a2d518bcc8b558"),
    ("puf-metrics-ro", "puf metrics --model ro --devices 6 --oscillators 64 --seed 105", 0, "24d55bb4a409f8a198db06c38f0527722b97ef81682a972bb17e71e2a09aed73"),
    ("fe-design", "fe design --ber 0.1 --blocks 8", 0, "62728e5968f3319b4bb02f9c0ca2b6045084dfeafda4e34f62393232397fa87a"),
    ("fe-generate", "fe generate --input-hex abcdef --n-rep 3 --blocks 8 --key-len 16 --seed 106", 0, "ebee2e1935b049d484dc662c8b8b96b3f53c343434883bcfaefc9b5e4ddadc67"),
    ("suc-analyze", "suc analyze --rounds 4 --samples 1000 --seed 107", 0, "720d88b43d327e88360bef8618de8a7771b01148739c2b44c39594239ee5b707"),
    ("acoustic-fingerprint", "acoustic fingerprint --bins 64 --seed 109", 0, "258daad686cf82386b865d4b0e12dee750e0999f9d1964e16e12db71af1054c4"),
    ("acoustic-fingerprint-noiseless", "acoustic fingerprint --bins 64 --noiseless --seed 109", 0, "2c4871b09ca404bd56900a65dbbd1f6d6f6a0bd7766acc2bcd7206c331c08869"),
    ("acoustic-fingerprint-temp", "acoustic fingerprint --bins 64 --smoothing 0.5 --temp 60 --volt 1.2 --seed 109", 0, "5cd0914a7afe0a21c33838b35280758b62d137f93c221bf7bea3590d6ab145f5"),
    ("acoustic-entropy", "acoustic entropy --devices 100 --bins 64 --seed 110", 0, "5d7b35a13f6036ddda677848946fc94ba559ca23cf4739c3563c068e5e0e3a73"),
    ("acoustic-space", "acoustic space --t 32 --k 20 --p 10", 0, "d2bf69ebe1235d7b2751ac6460fed3832f49ddc410e8fb24e5d0a0ce666d3754"),
    ("attack-model-arbiter", "attack model --target arbiter --train 300 --test 100 --stages 16 --seed 111", 0, "0f94af1ab8db08fac2887378f62887c3d97998ee2ad1f39c0d08f07c45869278"),
    ("attack-model-xor", "attack model --target xor --k 2 --train 300 --test 100 --stages 16 --seed 111", 0, "9469a5e9d6c16a31dd142af60cb069393ff46dcd6a1c694530af62efa93f0e0c"),
    ("attack-model-suc", "attack model --target suc --train 300 --test 100 --seed 111", 0, "21fe3b7b556facbce10753e42289db50ff00e9effb6d80836bd7be0ce4d86f0a"),
    # campaign sizes: the 100k cipher-bit CRPs cross the collection and feature chunks
    ("attack-model-suc-campaign", "attack model --target suc --train 100000 --test 2000 --seed 1", 0, "5f7fdb29ada1fa26e9b4dac10b68b68908ff4b9243d7be8915ec4cb2c0b7292d"),
    ("attack-model-arbiter-campaign", "attack model --target arbiter --stages 64 --train 5000 --test 2000 --seed 1", 0, "f1702e0ae04b237585bc2ff1d87a6923a630c53f15aab54268771fb603142b79"),
    ("repro-challenge-space", "repro challenge-space --seed 113", 0, "7c6653ab2948e41239028eb639caf89315466a03b5980772dfd2d0f65d0e12a4"),
    ("repro-readout-clone", "repro readout-clone --seed 112", 0, "86d749872dc72823e593a31655413cdc91f0161eac1923ba2bfcf6557d99a717"),
]


@pytest.mark.parametrize("argv, code, sha", [c[1:] for c in STATELESS], ids=[c[0] for c in STATELESS])
def test_stateless_verb_stdout(capsys, argv, code, sha):
    assert _digest(*_run(capsys, argv.split())) == (code, sha)


# (step, argv template, exit code, sha256 of stdout); {dir} is the work directory
# and {bits} the noiseless fingerprint printed by the "fingerprint" step.  The
# CLI makes a device from unrecorded entropy, so the flow's fixed dev.json comes
# from the library, and the "personalize" step writes a device of its own.
FLOW = [
    ("personalize", "suc personalize --device-id flow --rounds 6 --device-out {dir}/fresh.json", 0, "fb14e9c0de2c26f0a9622f4aac1fe64b1c18a88010f9f3a3d6dc87a6d193406c"),
    ("encrypt", "suc encrypt --device {dir}/dev.json --block-hex 0123456789abcdef", 0, "6196e949bc708c94af237e2aa29d1262922aba177809b02c4c3a3dd14ebd26fb"),
    ("enroll", "enroll --device {dir}/dev.json --pairs 6 --store {dir}/fwd.json", 0, "8205b268ec6d87fcf66a63439cba2f8e6115b44b9b48a023eac7738c13ebac70"),
    ("identify-forward", "identify --device {dir}/dev.json --store {dir}/fwd.json --seed 122", 0, "d143161c42629f676d0bde491be7a215bc87b3583c006be3661ac3f1630603bd"),
    ("identify-impostor", "identify --device {dir}/dev.json --store {dir}/fwd.json --impostor --seed 123", 1, "abc1abbdc7d2361bff4cc5364b5e0a4c038f7aad36408318aa2eee0ac2fbecdd"),
    ("identify-tamper", "identify --device {dir}/dev.json --store {dir}/fwd.json --tamper-bits 0,5 --seed 124", 1, "75f8f9fed95f49b929358408b43806bcb8e76eb1deb1312000d6b6e5fe83ad6f"),
    ("enroll-inverse", "enroll --device {dir}/dev.json --pairs 2 --store {dir}/inv.json --mode inverse", 0, "ecc6d8a2967fd94f9f1967562440211c09e13f116abb61034f983e750e5854d7"),
    ("identify-inverse", "identify --device {dir}/dev.json --store {dir}/inv.json --seed 126", 0, "ff39265cf7d4bd5f6b917a617a82fcbe3c32fb05d8cb885b5116c6f2f9d7f18c"),
    ("fingerprint", "acoustic fingerprint --noiseless --fingerprint-out {dir}/fp.json --seed 127", 0, "498b7973fd3679e4cfd9897bfb48a0a88c60113695fe52645fe34ea0d014506c"),
    ("helper", "fe generate --input-hex {bits} --n-rep 1 --blocks 256 --key-len 64 --helper-out {dir}/helper.json --seed 128", 0, "e2012e6196de3e64db9320b8ff9a7571cc385ff725e7b6c4638bcf641e0e735e"),
    ("reproduce", "fe reproduce --input-hex {bits} --helper {dir}/helper.json", 0, "9eafa6c735a040a067cef29dbcf05c92c82a9142a2f61620c4e9b71f5a05bc37"),
    ("combined-verify", "combined-verify --device {dir}/dev.json --store {dir}/fwd.json --helper {dir}/helper.json --fingerprint {dir}/fp.json --structural-dof 220 --seed 129", 0, "520b07ad289814c9a509d4fad5626d5debd10ddde82d84b6aa1343acb2d883cd"),
    ("combined-verify-impostor", "combined-verify --device {dir}/dev.json --store {dir}/fwd.json --helper {dir}/helper.json --fingerprint {dir}/fp.json --impostor --seed 130", 1, "1899a22c5bb3655ba3a1136513970731a6d7d0093a8c7f6a59b40e3ce2d374a2"),
]


def test_stateful_flow_stdout(tmp_path, capsys):
    device = suc.personalize(suc.SucParams(rounds=6), substream(120, "personalize"), "flow")
    suc.save_device(device, tmp_path / "dev.json")
    bits = ""
    got, want = [], []
    for step, template, code, sha in FLOW:
        out = _run(capsys, template.format(dir=tmp_path, bits=bits).split())
        if step == "fingerprint":
            bits = json.loads(out[1])["bits_hex"]
        got.append((step, *_digest(*out)))
        want.append((step, code, sha))
    assert got == want
