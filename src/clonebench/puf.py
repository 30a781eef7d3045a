"""Simulated classic PUFs: arbiter, XOR-arbiter, ring-oscillator, and SRAM startup.

All randomness in a device is fixed by its construction seed; measurement noise
comes from the explicit generator handle passed to each evaluation.  Passing
``rng=None`` evaluates the noiseless reference behavior, which is also what the
population metrics use.

Every device type, these PUFs and :class:`clonebench.suc.SucDevice` alike,
answers one interface: ``name``, ``challenge_bits`` (0 when the response takes
no challenge) and ``respond(challenges, env=NOMINAL, rng=None)``, which returns
the response bits of each challenge row concatenated into one uint8 vector.
The PUFs also give a JSON ``descriptor()``; the cipher has no readout path.

The arbiter model keeps both routes to a response: the exact linear-threshold
form ``sign(w . phi(c))`` used everywhere, and a direct stage-by-stage race
simulation (``arbiter_eval_path``) that the linear weights are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstring import BitString
from .environment import NOMINAL, EnvironmentConditions
from .jsonio import read_json, write_json
from .rng import substream

#: columns of ``stage_delays``: straight top, straight bottom,
#: crossed top-to-bottom, crossed bottom-to-top
DELAY_COLUMNS = ("straight_top", "straight_bottom", "cross_tb", "cross_bt")

#: calibration anchors (temperature C, target BER); voltage adds nothing in
#: [1.20, 1.32] V since the reported error rate is flat across that range
DEFAULT_BER_ANCHORS = ((-40.0, 0.08), (25.0, 0.06), (85.0, 0.08))


def env_scale(env: EnvironmentConditions) -> float:
    """Arbiter noise multiplier: 1 at 25 C, +1% per degree away (tunable convention)."""
    return 1.0 + 0.01 * abs(env.temperature_c - 25.0)


def _per_row(challenges, evaluate) -> np.ndarray:
    """One evaluation per challenge row, or a single one when given none.

    For a device whose response takes no challenge; the rows' bits are unused.
    """
    n = 1 if challenges is None else len(challenges)
    return np.concatenate([evaluate() for _ in range(n)])


# =====================================================================  arbiter
@dataclass(frozen=True, eq=False)
class ArbiterPuf:
    n_stages: int
    stage_delays: np.ndarray  # (n_stages, 4), see DELAY_COLUMNS
    weights: np.ndarray  # (n_stages + 1,), exact linear reduction of the delays
    noise_sigma: float
    seed: int

    name = "arbiter"

    @property
    def challenge_bits(self) -> int:
        return self.n_stages

    def respond(self, challenges, env=NOMINAL, rng=None) -> np.ndarray:
        return arbiter_eval_batch(self, challenges, env, rng)

    def descriptor(self) -> dict:
        return {
            "model": "arbiter",
            "params": {"n_stages": self.n_stages, "noise_sigma": self.noise_sigma},
            "seed": self.seed,
        }


def derive_weights(stage_delays: np.ndarray) -> np.ndarray:
    """Reduce per-stage race delays to the equivalent linear-threshold weights.

    With u = straight differential, v = crossed differential, alpha = (u+v)/2 and
    beta = (u-v)/2, the final top/bottom arrival difference is w . phi(c) where
    phi_i = prod_{j>=i}(1-2c_j) and phi_n = 1.
    """
    n = stage_delays.shape[0]
    u = stage_delays[:, 0] - stage_delays[:, 1]
    v = stage_delays[:, 3] - stage_delays[:, 2]
    alpha = (u + v) / 2.0
    beta = (u - v) / 2.0
    w = np.zeros(n + 1)
    w[0] = beta[0]
    w[1:n] = alpha[: n - 1] + beta[1:]
    w[n] = alpha[n - 1]
    return w


def parity_transform(challenges: np.ndarray) -> np.ndarray:
    """Map 0/1 challenges (N, n) to the (N, n+1) parity feature vectors phi."""
    challenges = np.atleast_2d(np.asarray(challenges))
    signs = 1.0 - 2.0 * challenges.astype(np.float64)
    feats = np.ones((challenges.shape[0], challenges.shape[1] + 1))
    feats[:, : challenges.shape[1]] = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return feats


def arbiter_new(n_stages: int, seed: int, noise_sigma: float = 0.0) -> ArbiterPuf:
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    delays = substream(seed, "arbiter", "delays").standard_normal((n_stages, 4))
    delays.flags.writeable = False
    weights = derive_weights(delays)
    weights.flags.writeable = False
    return ArbiterPuf(n_stages, delays, weights, float(noise_sigma), int(seed))


def _challenge_matrix(puf: ArbiterPuf, challenges) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(challenges, dtype=np.uint8))
    if mat.shape[1] != puf.n_stages:
        raise ValueError(f"challenge length {mat.shape[1]} != {puf.n_stages} stages")
    return mat


def arbiter_eval_batch(puf: ArbiterPuf, challenges, env=NOMINAL, rng=None) -> np.ndarray:
    """Responses for (N, n_stages) challenge rows; rng=None means zero noise."""
    mat = _challenge_matrix(puf, challenges)
    delta = parity_transform(mat) @ puf.weights
    if rng is not None and puf.noise_sigma > 0:
        delta = delta + rng.normal(0.0, puf.noise_sigma * env_scale(env), delta.shape)
    return (delta > 0).astype(np.uint8)


def arbiter_eval(puf: ArbiterPuf, c: BitString, env=NOMINAL, rng=None) -> int:
    return int(arbiter_eval_batch(puf, c, env, rng)[0])


def arbiter_eval_path(puf: ArbiterPuf, c: BitString) -> int:
    """Noiseless response by racing the two signal paths stage by stage."""
    if len(c) != puf.n_stages:
        raise ValueError(f"challenge length {len(c)} != {puf.n_stages} stages")
    t_top = 0.0
    t_bot = 0.0
    for i, bit in enumerate(c):
        straight_top, straight_bot, cross_tb, cross_bt = puf.stage_delays[i]
        if bit == 0:
            t_top, t_bot = t_top + straight_top, t_bot + straight_bot
        else:
            t_top, t_bot = t_bot + cross_bt, t_top + cross_tb
    return 1 if (t_top - t_bot) > 0 else 0


@dataclass(frozen=True, eq=False)
class XorArbiter:
    """Member arbiters that share every challenge; the response is the XOR of theirs."""

    members: tuple  # of ArbiterPuf

    def __post_init__(self):
        if not self.members:
            raise ValueError("need at least one arbiter")
        if len({p.n_stages for p in self.members}) != 1:
            raise ValueError("all arbiters must share n_stages")

    @property
    def name(self) -> str:
        return f"xor_arbiter_k{len(self.members)}"

    @property
    def challenge_bits(self) -> int:
        return self.members[0].n_stages

    def respond(self, challenges, env=NOMINAL, rng=None) -> np.ndarray:
        acc = arbiter_eval_batch(self.members[0], challenges, env, rng)
        for p in self.members[1:]:
            acc = acc ^ arbiter_eval_batch(p, challenges, env, rng)
        return acc

    def descriptor(self) -> dict:
        first = self.members[0]
        return {
            "model": "xor_arbiter",
            "params": {
                "n_stages": first.n_stages,
                "k": len(self.members),
                "noise_sigma": first.noise_sigma,
                "member_seeds": [p.seed for p in self.members],
            },
            "seed": first.seed,
        }


def xor_arbiter_new(n_stages: int, k: int, seed: int, noise_sigma: float = 0.0) -> XorArbiter:
    """k independent arbiters sharing a challenge, combined by XOR."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return XorArbiter(tuple(
        arbiter_new(n_stages, substream(seed, "xor_arbiter", i).integers(0, 2**63), noise_sigma)
        for i in range(k)
    ))


# =====================================================================  ring oscillator
@dataclass(frozen=True, eq=False)
class RoPuf:
    m_oscillators: int
    frequencies: np.ndarray  # offsets from the nominal frequency
    meas_sigma: float
    seed: int

    name = "ro"
    challenge_bits = 0  # the response is the fixed default pair set

    def respond(self, challenges=None, env=NOMINAL, rng=None) -> np.ndarray:
        return _per_row(challenges, lambda: ro_response(self, None, rng).bits)

    def descriptor(self) -> dict:
        return {
            "model": "ro",
            "params": {"m_oscillators": self.m_oscillators, "meas_sigma": self.meas_sigma},
            "seed": self.seed,
        }


def ro_new(m_oscillators: int, seed: int, meas_sigma: float = 0.0) -> RoPuf:
    if m_oscillators < 2:
        raise ValueError("need at least two oscillators")
    if meas_sigma < 0:
        raise ValueError("meas_sigma must be >= 0")
    freqs = substream(seed, "ro", "freqs").standard_normal(m_oscillators)
    freqs.flags.writeable = False
    return RoPuf(int(m_oscillators), freqs, float(meas_sigma), int(seed))


def ro_eval(puf: RoPuf, pair, rng=None) -> int:
    """Compare two oscillator frequency counts; each measurement is noisy separately."""
    i, j = pair
    if i == j:
        raise ValueError("oscillator pair must be distinct")
    if not (0 <= i < puf.m_oscillators and 0 <= j < puf.m_oscillators):
        raise ValueError("oscillator index out of range")
    fi, fj = puf.frequencies[i], puf.frequencies[j]
    if rng is not None and puf.meas_sigma > 0:
        fi = fi + rng.normal(0.0, puf.meas_sigma)
        fj = fj + rng.normal(0.0, puf.meas_sigma)
    return int(fi > fj)


def ro_flip_probability(puf: RoPuf, pair) -> float:
    """Closed-form chance that noise inverts the comparison for this pair."""
    i, j = pair
    if puf.meas_sigma == 0:
        return 0.0
    delta = abs(puf.frequencies[i] - puf.frequencies[j])
    return 0.5 * math.erfc(delta / (2.0 * puf.meas_sigma))


def ro_default_pairs(puf: RoPuf):
    return [(2 * i, 2 * i + 1) for i in range(puf.m_oscillators // 2)]


def ro_response(puf: RoPuf, pairs=None, rng=None) -> BitString:
    pairs = ro_default_pairs(puf) if pairs is None else pairs
    return BitString([ro_eval(puf, p, rng) for p in pairs])


# =====================================================================  SRAM
@dataclass(frozen=True, eq=False)
class SramPuf:
    n_cells: int
    cell_bias: np.ndarray  # standard-normal preferred-state strengths
    ber_anchors: tuple  # ((temp_c, ber), ...) noise calibration anchors
    seed: int

    name = "sram"
    challenge_bits = 0  # the response is the whole startup pattern

    def respond(self, challenges=None, env=NOMINAL, rng=None) -> np.ndarray:
        return _per_row(challenges, lambda: sram_startup(self, env, rng).bits)

    def descriptor(self) -> dict:
        return {
            "model": "sram",
            "params": {"n_cells": self.n_cells, "ber_anchors": [list(a) for a in self.ber_anchors]},
            "seed": self.seed,
        }


def calibrate_sram_noise(target_ber: float) -> float:
    """Noise sigma giving the target population-average flip rate.

    With cell bias b ~ N(0,1) and startup noise e ~ N(0, sigma^2), the average
    flip probability is arctan(sigma)/pi, so sigma = tan(pi * ber).
    """
    if not 0 < target_ber < 0.5:
        raise ValueError("target_ber must be in (0, 0.5)")
    return math.tan(math.pi * target_ber)


def sram_new(n_cells: int, seed: int, ber_anchors=DEFAULT_BER_ANCHORS) -> SramPuf:
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    anchors = tuple(sorted((float(t), float(b)) for t, b in ber_anchors))
    for _, ber in anchors:
        if not 0 <= ber < 0.5:
            raise ValueError("anchor BER must be in [0, 0.5)")
    bias = substream(seed, "sram", "bias").standard_normal(n_cells)
    bias.flags.writeable = False
    return SramPuf(int(n_cells), bias, anchors, int(seed))


def sram_noise_sigma(puf: SramPuf, env: EnvironmentConditions = NOMINAL) -> float:
    """Sigma(T): piecewise-linear through the calibrated anchors; flat in voltage."""
    temps = np.array([t for t, _ in puf.ber_anchors])
    sigmas = np.array([math.tan(math.pi * b) if b > 0 else 0.0 for _, b in puf.ber_anchors])
    return float(np.interp(env.temperature_c, temps, sigmas))


def sram_reference(puf: SramPuf) -> BitString:
    """The deterministic zero-noise startup pattern (the cell's preferred states)."""
    return BitString((puf.cell_bias > 0).astype(np.uint8))


def sram_startup(puf: SramPuf, env: EnvironmentConditions = NOMINAL, rng=None) -> BitString:
    sigma = sram_noise_sigma(puf, env)
    values = puf.cell_bias
    if rng is not None and sigma > 0:
        values = values + rng.normal(0.0, sigma, puf.n_cells)
    return BitString((values > 0).astype(np.uint8))


# =====================================================================  descriptors
def device_from_descriptor(doc: dict):
    model = doc.get("model")
    params = doc.get("params", {})
    seed = doc.get("seed")
    if model == "arbiter":
        return arbiter_new(params["n_stages"], seed, params.get("noise_sigma", 0.0))
    if model == "ro":
        return ro_new(params["m_oscillators"], seed, params.get("meas_sigma", 0.0))
    if model == "sram":
        anchors = params.get("ber_anchors")
        anchors = DEFAULT_BER_ANCHORS if anchors is None else [tuple(a) for a in anchors]
        return sram_new(params["n_cells"], seed, anchors)
    if model == "xor_arbiter":
        return XorArbiter(tuple(
            arbiter_new(params["n_stages"], s, params.get("noise_sigma", 0.0))
            for s in params["member_seeds"]
        ))
    raise ValueError(f"unknown PUF model: {model!r}")


def save_puf(dev, path) -> None:
    write_json(path, dev.descriptor())


def load_puf(path):
    return device_from_descriptor(read_json(path))
