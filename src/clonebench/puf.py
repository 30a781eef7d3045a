"""Simulated classic PUFs: arbiter, XOR-arbiter, ring-oscillator, and SRAM startup.

All randomness in a device is fixed by its construction seed; measurement noise
comes from the explicit generator handle passed to each evaluation.  Passing
``rng=None`` evaluates the noiseless reference behavior, which is also what the
population metrics use.

Every device type, these PUFs and :class:`clonebench.suc.SucDevice` alike,
answers one interface: ``name``, ``challenge_bits`` (0 when the response takes
no challenge) and ``respond(challenges, env=NOMINAL, rng=None)``, which returns
the response bits of each challenge row concatenated into one uint8 vector.
The PUFs also give a JSON ``descriptor()``, whose seed rebuilds the device;
the cipher has no readout path.

The arbiter model keeps both routes to a response: the exact linear-threshold
form ``sign(w . phi(c))`` used everywhere, and a direct stage-by-stage race
simulation (``arbiter_eval_path``) that the linear weights are checked against.
The parity features phi(c) are int8 +-1 (``parity_transform``), a byte per
entry instead of a float64's eight; ``arbiter_eval_batch`` widens them to
float64 ``BLOCK_ROWS`` rows at a time (``matmul_blocks``), so no float64 copy
of the whole feature matrix is made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstring import BitString, bit_matrix
from .environment import NOMINAL, EnvironmentConditions
from .rng import substream

#: columns of ``stage_delays``: straight top, straight bottom,
#: crossed top-to-bottom, crossed bottom-to-top
DELAY_COLUMNS = ("straight_top", "straight_bottom", "cross_tb", "cross_bt")

#: calibration anchors (temperature C, target BER); voltage adds nothing in
#: [1.20, 1.32] V since the reported error rate is flat across that range
SRAM_BER_ANCHORS = ((-40.0, 0.08), (25.0, 0.06), (85.0, 0.08))

#: feature rows widened to float64 for one matrix product
BLOCK_ROWS = 512


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
    """Map 0/1 challenges (N, n) to the (N, n+1) int8 parity feature vectors phi.

    phi_i = prod_{j >= i} (1 - 2 c_j) = 1 - 2 (c_i ^ ... ^ c_{n-1}) and
    phi_n = 1, built inside the int8 output alone: the reversed challenges go
    into a reversed view of its first n columns, an XOR prefix runs in place
    along that view, and each parity p becomes 1 - 2p.  Every entry is +-1,
    so widening to float64 gives exactly the float products.
    """
    challenges = np.atleast_2d(np.asarray(challenges))
    n_rows, n_bits = challenges.shape
    feats = np.empty((n_rows, n_bits + 1), dtype=np.int8)
    feats[:, n_bits] = 1
    # not feats[:, n_bits - 1 :: -1], which is the whole matrix when n_bits == 0
    parities = feats[:, :n_bits][:, ::-1]
    np.copyto(parities, challenges[:, ::-1], casting="unsafe")
    np.bitwise_xor.accumulate(parities, axis=1, out=parities)
    parities *= -2
    parities += 1
    return feats


def matmul_blocks(n: int) -> list:
    """Slices of ``BLOCK_ROWS`` rows covering n rows, a lone last row joined to the block before it.

    numpy computes a one-row matmul by ``dot``, which rounds unlike the
    ``gemv`` of a taller matrix; with these blocks every row of a blockwise
    product rounds as in one product over all n rows.
    """
    starts = range(0, n, BLOCK_ROWS)
    if n % BLOCK_ROWS == 1 and n > 1:
        starts = starts[:-1]
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def arbiter_new(n_stages: int, seed: int, noise_sigma: float = 0.0) -> ArbiterPuf:
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be finite and >= 0")
    delays = substream(seed, "arbiter", "delays").standard_normal((n_stages, 4))
    delays.flags.writeable = False
    weights = derive_weights(delays)
    weights.flags.writeable = False
    return ArbiterPuf(n_stages, delays, weights, float(noise_sigma), int(seed))


def arbiter_eval_batch(puf: ArbiterPuf, challenges, env=NOMINAL, rng=None) -> np.ndarray:
    """Responses for (N, n_stages) challenge rows; rng=None means zero noise."""
    features = parity_transform(bit_matrix(challenges, puf.n_stages))
    delta = np.empty(len(features))
    for rows in matmul_blocks(len(features)):
        np.matmul(features[rows], puf.weights, out=delta[rows])
    if rng is not None and puf.noise_sigma > 0:
        delta += rng.normal(0.0, puf.noise_sigma * env_scale(env), delta.shape)
    return (delta > 0).astype(np.uint8)


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
    challenge_bits = 0  # the response compares the fixed pairs (2i, 2i+1)

    def respond(self, challenges=None, env=NOMINAL, rng=None) -> np.ndarray:
        return _per_row(challenges, lambda: ro_response(self, rng).bits)

    def descriptor(self) -> dict:
        return {
            "model": "ro",
            "params": {"m_oscillators": self.m_oscillators, "meas_sigma": self.meas_sigma},
            "seed": self.seed,
        }


def ro_new(m_oscillators: int, seed: int, meas_sigma: float = 0.0) -> RoPuf:
    if m_oscillators < 2:
        raise ValueError("need at least two oscillators")
    if not 0 <= meas_sigma < math.inf:
        raise ValueError("meas_sigma must be finite and >= 0")
    freqs = substream(seed, "ro", "freqs").standard_normal(m_oscillators)
    freqs.flags.writeable = False
    return RoPuf(int(m_oscillators), freqs, float(meas_sigma), int(seed))


def ro_response(puf: RoPuf, rng=None) -> BitString:
    """Bit i is 1 when oscillator 2i counts faster than oscillator 2i+1.

    Each paired frequency is read with its own noise draw, drawn in oscillator
    order (seeded reads depend on it); an odd last oscillator is left unpaired.
    """
    freqs = puf.frequencies[: puf.m_oscillators // 2 * 2].reshape(-1, 2)
    if rng is not None and puf.meas_sigma > 0:
        freqs = freqs + rng.normal(0.0, puf.meas_sigma, freqs.shape)
    return BitString((freqs[:, 0] > freqs[:, 1]).astype(np.uint8))


# =====================================================================  SRAM
@dataclass(frozen=True, eq=False)
class SramPuf:
    n_cells: int
    cell_bias: np.ndarray  # standard-normal preferred-state strengths
    seed: int

    name = "sram"
    challenge_bits = 0  # the response is the whole startup pattern

    def respond(self, challenges=None, env=NOMINAL, rng=None) -> np.ndarray:
        return _per_row(challenges, lambda: sram_startup(self, env, rng).bits)

    def descriptor(self) -> dict:
        return {
            "model": "sram",
            "params": {"n_cells": self.n_cells, "ber_anchors": [list(a) for a in SRAM_BER_ANCHORS]},
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


_SRAM_ANCHOR_TEMPS = np.array([t for t, _ in SRAM_BER_ANCHORS])
_SRAM_ANCHOR_SIGMAS = np.array([calibrate_sram_noise(b) for _, b in SRAM_BER_ANCHORS])


def sram_new(n_cells: int, seed: int) -> SramPuf:
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    bias = substream(seed, "sram", "bias").standard_normal(n_cells)
    bias.flags.writeable = False
    return SramPuf(int(n_cells), bias, int(seed))


def sram_noise_sigma(env: EnvironmentConditions = NOMINAL) -> float:
    """Sigma(T): piecewise-linear through the calibrated anchors; flat in voltage."""
    return float(np.interp(env.temperature_c, _SRAM_ANCHOR_TEMPS, _SRAM_ANCHOR_SIGMAS))


def sram_reference(puf: SramPuf) -> BitString:
    """The deterministic zero-noise startup pattern (the cell's preferred states)."""
    return BitString((puf.cell_bias > 0).astype(np.uint8))


def sram_startup(puf: SramPuf, env: EnvironmentConditions = NOMINAL, rng=None) -> BitString:
    values = puf.cell_bias
    if rng is not None:
        values = values + rng.normal(0.0, sram_noise_sigma(env), puf.n_cells)
    return BitString((values > 0).astype(np.uint8))
