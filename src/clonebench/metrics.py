"""Population-level PUF quality metrics: the uniqueness report."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .acoustic import dof_estimate
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
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


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
    estimate = dof_estimate(vectors)
    return PopulationReport(
        model=population[0].name,
        n_devices=len(population),
        uniqueness_mean=estimate.mean_hd,
        uniqueness_std=float(np.sqrt(estimate.hd_variance)),
        uniformity=float(vectors.mean()),
        dof_bits=estimate.dof_bits,
    )

