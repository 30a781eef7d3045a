"""Population-level PUF quality metrics: uniqueness, reliability, uniformity."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustic import dof_estimate, pairwise_distance_stats
from .jsonio import SCHEMA_VERSION


@dataclass(frozen=True)
class PopulationReport:
    model: str
    n_devices: int
    uniqueness_mean: float
    uniqueness_std: float
    uniformity: float
    dof_bits: float

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "n_devices": self.n_devices,
            "uniqueness_mean": self.uniqueness_mean,
            "uniqueness_std": self.uniqueness_std,
            "uniformity": self.uniformity,
            "dof_bits": self.dof_bits,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PopulationReport":
        return cls(
            doc["model"],
            doc["n_devices"],
            doc["uniqueness_mean"],
            doc["uniqueness_std"],
            doc["uniformity"],
            doc["dof_bits"],
        )


@dataclass(frozen=True)
class ReliabilityTable:
    model: str
    rows: tuple  # ((temperature_c, voltage_v, ber), ...)

    def __post_init__(self):
        for _, _, ber in self.rows:
            if not 0 <= ber <= 0.5:
                raise ValueError("BER outside [0, 0.5]")

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model": self.model,
            "rows": [
                {"temperature_c": t, "voltage_v": v, "ber": b} for t, v, b in self.rows
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ReliabilityTable":
        return cls(
            doc["model"],
            tuple((r["temperature_c"], r["voltage_v"], r["ber"]) for r in doc["rows"]),
        )


def uniqueness(population, challenges=None) -> PopulationReport:
    """Pairwise fractional Hamming statistics of zero-noise responses across devices.

    ``challenges`` is a sequence of BitStrings (or 0/1 rows) for devices that
    take challenges, and None for those that take none.
    """
    if len(population) < 2:
        raise ValueError("need at least 2 devices")
    if challenges is not None and len(challenges) < 1:
        raise ValueError("need at least 1 challenge")
    vectors = np.stack([dev.respond(challenges) for dev in population])
    mean, var = pairwise_distance_stats(vectors)
    estimate = dof_estimate(vectors)
    return PopulationReport(
        model=population[0].name,
        n_devices=len(population),
        uniqueness_mean=mean,
        uniqueness_std=float(np.sqrt(var)),
        uniformity=float(vectors.mean()),
        dof_bits=estimate.dof_bits,
    )


def reliability(device, env_grid, reps: int, rng, challenges=None) -> ReliabilityTable:
    """BER against the zero-noise nominal reference, per environment grid point."""
    if reps < 100:
        raise ValueError("reps must be >= 100")
    reference = device.respond(challenges)
    rows = []
    for env in env_grid:
        errors = 0
        for _ in range(reps):
            errors += int(np.count_nonzero(device.respond(challenges, env, rng) != reference))
        rows.append((env.temperature_c, env.voltage_v, errors / (reps * reference.size)))
    return ReliabilityTable(device.name, tuple(rows))


def uniformity(responses) -> float:
    """Fraction of 1-bits over all given responses."""
    if isinstance(responses, np.ndarray):
        if responses.size < 1:
            raise ValueError("need at least one response bit")
        return float(responses.mean())
    if len(responses) < 1:
        raise ValueError("need at least one response")
    bits = np.concatenate([np.asarray(r) for r in responses])
    return float(bits.mean())
