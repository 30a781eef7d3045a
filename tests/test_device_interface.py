"""Known answers for every device type: the responses the metrics use, the
PUF descriptors and enrolled CRP records, all recorded before the device types
shared one interface (``name``, ``challenge_bits``, ``respond``)."""
import hashlib

import pytest

from clonebench import BitString, substream
from clonebench import protocol, puf, suc
from clonebench.environment import EnvironmentConditions
from clonebench.jsonio import dumps_canonical

HOT = EnvironmentConditions(temperature_c=60.0)

BUILDERS = {
    "arbiter": lambda: puf.arbiter_new(32, 101, 4.0),
    "xor": lambda: puf.xor_arbiter_new(32, 3, 102, 1.5),
    "ro": lambda: puf.ro_new(32, 103, 0.2),
    "sram": lambda: puf.sram_new(64, 104),
    "suc": lambda: suc.personalize(suc.SucParams(rounds=4), substream(105, "kat"), "kat"),
}

# model: (name, challenge bits, response bits over 16 challenges (or one
#         evaluation of a device that takes none),
#         sha256 of the nominal response, sha256 of the noisy response at HOT)
RESPONSES = {
    "arbiter": (
        "arbiter", 32, 16,
        "eec0abbb13cc8848363f7d1311ae2cc188e62295ff6bd6103e67afe5a2fc1215",
        "e3ce1bfb79d68dc7e63e4ed39d5e50035de36b8cf657a818e24dcf6af4162bcc",
    ),
    "xor": (
        "xor_arbiter_k3", 32, 16,
        "6cb43a81306190de501a37ee2ca62a47b8b771d14811f290b507937b248b4050",
        "03006e285a070307a28ec4a09b3d1c7371252a5c6ff902d691c47e677b87d432",
    ),
    "ro": (
        "ro", 0, 16,
        "44cad1cc9a1230a50f7f7100a1c83897ced3012617a7443f85b20e2369922ac2",
        "0a77b9d4397b175eb80965825db81d11c5dbb85256d006c435d621f2f29de881",
    ),
    "sram": (
        "sram", 0, 64,
        "ab82c26e9514fc8ee4a28f512ba6ebf25b4b6b7d3be89701ce06ecdfc6edb255",
        "4a80b99a6c9c9a4b9424b9e87bb8a14828fdc7e31ed8e39e863766fa2c01edce",
    ),
    "suc": (
        "suc", 64, 1024,
        "e76396e06033893efb2e8e7c938db81c82b76dd350eb34e321ade8db94b3535f",
        "e76396e06033893efb2e8e7c938db81c82b76dd350eb34e321ade8db94b3535f",
    ),
}

DESCRIPTORS = {
    "arbiter": '{"model":"arbiter","params":{"n_stages":32,"noise_sigma":4.0},"seed":101}',
    "xor": (
        '{"model":"xor_arbiter","params":{"k":3,"member_seeds":[6817568655621772002,'
        '7084759535754496513,5091789433436382394],"n_stages":32,"noise_sigma":1.5},'
        '"seed":6817568655621772002}'
    ),
    "ro": '{"model":"ro","params":{"m_oscillators":32,"meas_sigma":0.2},"seed":103}',
    "sram": (
        '{"model":"sram","params":{"ber_anchors":[[-40.0,0.08],[25.0,0.06],[85.0,0.08]],'
        '"n_cells":64},"seed":104}'
    ),
}

ENROLLED = {
    "arbiter": [
        ("49b93ec4", "8"), ("25d60725", "8"), ("f32ab107", "0"),
        ("b473e44e", "0"), ("7252116a", "0"), ("953d36a7", "8"),
    ],
    "sram": [(c, "485bfcf12e6cbb37") for c in ("49", "b9", "3e", "c4", "25", "d6")],
    "suc": [
        ("49b93ec425d60725", "6aac94f8cecb6f5a"), ("f32ab107b473e44e", "e3696a39def9c37f"),
        ("7252116a953d36a7", "a4e83fb562bca292"), ("3a14e44ca2185b10", "e2cdb087878a0584"),
        ("278caf80d299f656", "7cc9401ec15354e3"), ("54df3087124b3092", "55cda73e0e22fafc"),
    ],
}


def _sha(bits) -> str:
    return hashlib.sha256(bits.tobytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(RESPONSES))
def test_metrics_responses_known_answer(model):
    name, n_bits, size, nominal_sha, noisy_sha = RESPONSES[model]
    device = BUILDERS[model]()
    rng = substream(106, "kat-c")
    challenges = [BitString.random(n_bits, rng) for _ in range(16)] if n_bits else None
    nominal = device.respond(challenges)
    noisy = device.respond(challenges, HOT, substream(107, "kat-n"))
    assert (device.name, device.challenge_bits) == (name, n_bits)
    assert nominal.size == noisy.size == size
    assert (_sha(nominal), _sha(noisy)) == (nominal_sha, noisy_sha)


@pytest.mark.parametrize("model", sorted(DESCRIPTORS))
def test_descriptor_known_answer(model):
    device = BUILDERS[model]()
    assert dumps_canonical(device.descriptor()) == DESCRIPTORS[model]


@pytest.mark.parametrize("model", sorted(ENROLLED))
def test_enroll_records_known_answer(model):
    store = protocol.CrpStore()
    assert protocol.enroll(BUILDERS[model](), 6, substream(108, "kat-e"), store, "kat") == 6
    got = [(r.challenge.to_hex(), r.response.to_hex()) for r in store.records["kat"]]
    assert got == ENROLLED[model]
    assert not any(r.used for r in store.records["kat"])
