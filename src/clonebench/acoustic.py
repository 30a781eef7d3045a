"""Synthetic mechatronic structural identity over an ultrasonic stimulation band.

A structure is a random complex frequency response on a 30-50 kHz bin grid
(dimensionless underneath; the units are labels).  Wave-train stimulation reads
selected bins, fingerprinting thresholds the full-grid magnitude response, and
the entropy calculators quantify both the challenge space of wave trains and
the structural degrees of freedom of a fingerprint population.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitstring import BitString
from .environment import NOMINAL, EnvironmentConditions
from .jsonio import decoding, read_json, write_json
from .rng import substream

#: |H| is Rayleigh(1) under the unit-normal re/im draw, so the population
#: median magnitude is sqrt(2 ln 2); every fingerprint bit is thresholded there
RAYLEIGH_MEDIAN = math.sqrt(2.0 * math.log(2.0))

#: occupancy-aware size is C(k,p) slot patterns times t^p frequency choices;
#: for t=32, k=20, p=10 that is ~2^67.50 bits, not the sometimes-quoted 2^65
SPARSE_OCCUPANCY_NOTE = (
    "sparse wave-train space counted as log2(C(k,p)) + p*log2(t); "
    "for t=32,k=20,p=10 this gives ~67.50 bits, not the sometimes-quoted 65 bits"
)


#: relative gain slope per degree C away from 25 C
TEMP_COEFF = 0.002

#: per-component complex measurement noise
MEAS_NOISE_SIGMA = 0.15

_GRAM_ROWS = 32  # Gram rows per block of pair counts: 128 KB, and its triangle 252 KB as int64, at 1000 columns


@dataclass(frozen=True, eq=False)
class StructureModel:
    freq_response: np.ndarray  # complex, one entry per bin, fixed at fabrication
    seed: int

    @property
    def n_bins(self) -> int:
        return self.freq_response.size


@dataclass(frozen=True)
class WaveTrain:
    slots: tuple  # k frequency indices, each in 0..t-1
    t: int
    k: int

    def __post_init__(self):
        if self.t < 2 or self.k < 1:
            raise ValueError("need t >= 2 frequencies and k >= 1 slots")
        if len(self.slots) != self.k:
            raise ValueError("slot count != k")
        if any(not 0 <= s < self.t for s in self.slots):
            raise ValueError("slot index out of range")


@dataclass(frozen=True)
class ChallengeSpaceSpec:
    t: int
    k: int
    p: int | None = None

    def __post_init__(self):
        if self.t < 2 or self.k < 1:
            raise ValueError("need t >= 2 and k >= 1")
        if self.p is not None and not 1 <= self.p <= self.k:
            raise ValueError("p must satisfy 1 <= p <= k")


@dataclass(eq=False)
class Fingerprint:
    bits: BitString
    device_id: str = ""


@dataclass(frozen=True)
class EntropyEstimate:
    mean_hd: float
    hd_variance: float
    dof_bits: float
    degenerate: bool


# --------------------------------------------------------------------------- model
def structure_new(seed: int, n_bins: int = 256, smoothing: float = 0.0) -> StructureModel:
    """Draw a structure: AR(1)-correlated complex spectrum across the bin grid."""
    if n_bins < 32:
        raise ValueError("n_bins must be >= 32")
    if not 0 <= smoothing < 1:
        raise ValueError("smoothing must be in [0, 1)")
    rng = substream(seed, "structure")
    response = rng.standard_normal(n_bins) + 1j * rng.standard_normal(n_bins)
    if smoothing:  # at 0 the recurrence 0*h + 1*x is x, bit for bit
        # h[i] = smoothing*h[i-1] + carry*x[i]: the carry products in numpy, then the
        # same two IEEE operations per bin, the sum taken in the other (commutative) order
        response[1:] *= math.sqrt(1.0 - smoothing**2)
        values = response.tolist()
        for i in range(1, n_bins):
            values[i] += smoothing * values[i - 1]
        response = np.array(values, dtype=complex)
    response.flags.writeable = False
    return StructureModel(response, int(seed))


def _measure(response: np.ndarray, env: EnvironmentConditions, rng) -> np.ndarray:
    """Read the ``response`` bins at the gain of env; rng=None reads noiselessly."""
    y = response * (1.0 + TEMP_COEFF * (env.temperature_c - 25.0))
    if rng is not None:
        # the real part is drawn before the imaginary part; seeded reads depend on that order
        y = y + MEAS_NOISE_SIGMA * (
            rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
        )
    return y


def wave_train_bins(train: WaveTrain, n_bins: int) -> np.ndarray:
    """Map slot frequency indices onto the model's bin grid."""
    if train.t > n_bins:
        raise ValueError(f"{train.t} stimulation frequencies exceed the {n_bins}-bin grid")
    return (np.asarray(train.slots, dtype=np.int64) * n_bins) // train.t


def stimulate(model: StructureModel, train: WaveTrain, env=NOMINAL, rng=None) -> np.ndarray:
    """Complex response at each wave-train slot; rng=None reads noiselessly."""
    return _measure(model.freq_response[wave_train_bins(train, model.n_bins)], env, rng)


def fingerprint(model: StructureModel, env=NOMINAL, rng=None) -> Fingerprint:
    """Threshold the full-grid magnitude response at RAYLEIGH_MEDIAN into identity bits."""
    measured = _measure(model.freq_response, env, rng)
    bits = BitString((np.abs(measured) > RAYLEIGH_MEDIAN).astype(np.uint8))
    return Fingerprint(bits, f"structure-{model.seed}")


# --------------------------------------------------------------------------- entropy
def challenge_space_bits(spec: ChallengeSpaceSpec) -> float:
    if spec.p is None:
        return spec.k * math.log2(spec.t)
    return math.log2(math.comb(spec.k, spec.p)) + spec.p * math.log2(spec.t)


def pairwise_distance_stats(bit_matrix: np.ndarray) -> tuple:
    """(mean, sample variance) of fractional Hamming distance over all device pairs.

    Both come from the exact integer sums of the pairs' Hamming counts and of their
    squares, taken one Gram block at a time so that the n(n-1)/2 distances are never
    held, and each is rounded once to float64 by an int / int true division.
    """
    mat = np.asarray(bit_matrix)
    if mat.ndim != 2 or mat.shape[0] < 2 or mat.shape[1] < 1:
        raise ValueError("need a (devices, bits) matrix with >= 2 rows and >= 1 bit")
    n, width = mat.shape
    # count ones_i + ones_j - 2 gram_ij from a BLAS Gram of 0/1 entries: every intermediate
    # is an integer of magnitude <= 2 * width, which float32 holds exactly up to
    # width 2^23 (float64 up to 2^52)
    mat = mat.astype(np.float32 if width <= 2**23 else np.float64)
    ones = mat.sum(axis=1)
    upper = np.arange(n - 1) >= np.arange(_GRAM_ROWS)[:, None]  # block row k pairs with columns k..
    # a block's sum of squared counts is at most _GRAM_ROWS (n - 1) width^2: int64 below
    # 2^63, Python ints past it (from n = 4096 at width 2^23)
    wide = np.int64 if _GRAM_ROWS * (n - 1) * width**2 < 2**63 else object
    s1 = s2 = 0
    for top in range(0, n - 1, _GRAM_ROWS):
        rows = slice(top, min(top + _GRAM_ROWS, n - 1))
        hd = mat[rows] @ mat[top + 1 :].T  # column c is row top + 1 + c
        hd *= -2
        hd += ones[rows, None]
        hd += ones[top + 1 :]
        hd = hd[upper[: hd.shape[0], : hd.shape[1]]].astype(np.int64).astype(wide, copy=False)
        s1 += int(hd.sum())
        s2 += int(hd @ hd)
        del hd  # freed before the next block is made
    pairs = n * (n - 1) // 2
    mean = s1 / (width * pairs)
    if pairs < 2:
        return mean, float("nan")
    # the squared deviations of count / width from the exact mean, over pairs - 1, multiplied out
    return mean, (pairs * s2 - s1 * s1) / (width**2 * pairs * (pairs - 1))


def dof_estimate(bit_matrix: np.ndarray) -> EntropyEstimate:
    """Binomial-fit degrees of freedom: p(1-p)/var of the pairwise distances."""
    mean, var = pairwise_distance_stats(bit_matrix)
    if var == 0.0 or math.isnan(var):
        return EntropyEstimate(mean, var, float("nan"), True)
    return EntropyEstimate(mean, var, mean * (1.0 - mean) / var, False)


def structural_entropy_estimate(population) -> EntropyEstimate:
    """Entropy of a fingerprint population; needs >= 100 fingerprints."""
    if len(population) < 100:
        raise ValueError("need at least 100 fingerprints")
    mat = np.stack([fp.bits.bits for fp in population])
    return dof_estimate(mat)


# --------------------------------------------------------------------------- persistence
def save_fingerprint(fp: Fingerprint, path) -> None:
    write_json(
        path,
        {
            "device_id": fp.device_id,
            "bits_hex": fp.bits.to_hex(),
            "thresholds": [RAYLEIGH_MEDIAN] * len(fp.bits),
            "n_bins": len(fp.bits),
        },
    )


def load_fingerprint(path) -> Fingerprint:
    doc = read_json(path)
    with decoding(path):
        if type(doc["n_bins"]) is not int:  # bools too: true would read a 1-bit fingerprint
            raise TypeError(f"n_bins must be an integer, not {doc['n_bins']!r}")
        if not isinstance(doc.get("device_id", ""), str):
            raise TypeError(f"device_id must be a string, not {doc['device_id']!r}")
        bits = BitString.from_hex(doc["bits_hex"], doc["n_bins"])
        if doc["thresholds"] != [RAYLEIGH_MEDIAN] * len(bits):
            raise ValueError(f"every threshold must be RAYLEIGH_MEDIAN = {RAYLEIGH_MEDIAN!r}")
        return Fingerprint(bits, doc.get("device_id", ""))

