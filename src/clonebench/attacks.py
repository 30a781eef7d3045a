"""Cloning attacks: characterize a device from CRPs, then emulate or copy it.

Delay PUFs fall to logistic regression on the parity feature map; the same
attacker run against a secret-cipher bit stays at coin-flip accuracy, which is
the toolkit's headline discrimination experiment.  Memory PUFs fall instead to
full readout cloning, modeled here as copying the reference startup pattern.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jsonio import SCHEMA_VERSION
from .puf import ArbiterPuf, SramPuf, parity_transform
from .suc import SucDevice

#: ciphertext bit index the cipher attack tries to predict (MSB)
SUC_TARGET_BIT = 0

#: XOR-arbiter attacks are scoped to at most this many member arbiters
XOR_ATTACK_MAX_K = 4


# --------------------------------------------------------------------------- targets
def ArbiterTarget(puf: ArbiterPuf) -> ArbiterPuf:
    """The arbiter itself; kept only because the benchmark's workloads call it."""
    return puf


class SucBitTarget:
    """Response bit = one fixed ciphertext bit, making the comparison model-for-model fair."""

    name = "suc_bit"

    def __init__(self, device: SucDevice, bit_index: int = SUC_TARGET_BIT):
        if not 0 <= bit_index < device.challenge_bits:
            raise ValueError("bit_index out of range")
        self.device = device
        self.bit_index = bit_index
        self.challenge_bits = device.challenge_bits

    def respond(self, challenges) -> np.ndarray:
        return self.device.respond(challenges)[self.bit_index :: self.challenge_bits]


# --------------------------------------------------------------------------- data + model
@dataclass(frozen=True, eq=False)
class CrpDataset:
    challenges: np.ndarray  # (n, n_bits) uint8
    responses: np.ndarray  # (n,) uint8
    source: str

    def __len__(self) -> int:
        return self.responses.size


@dataclass(eq=False)
class LinearModel:
    weights: np.ndarray  # (n_bits + 1,) over the parity features
    source: str
    train_size: int
    loss_history: np.ndarray = field(default=None, repr=False)


@dataclass(frozen=True)
class AttackReport:
    target: str
    train_size: int
    test_size: int
    accuracy: float

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "accuracy": self.accuracy,
        }


def collect_crps(target, n: int, rng) -> CrpDataset:
    """n uniform challenges measured noiselessly at nominal conditions (attacker's best case).

    ``target`` is any device with a one-bit response, such as an ArbiterPuf or
    an XorArbiter, or a SucBitTarget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(getattr(target, "members", ())) > XOR_ATTACK_MAX_K:
        raise ValueError(f"XOR-arbiter attacks are scoped to k <= {XOR_ATTACK_MAX_K}")
    challenges = rng.integers(0, 2, (n, target.challenge_bits), dtype=np.uint8)
    return CrpDataset(challenges, target.respond(challenges), target.name)


def logistic_loss_and_grad(weights: np.ndarray, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its analytic gradient for the linear logistic model."""
    z = features @ weights
    p = 1.0 / (1.0 + np.exp(-z))
    eps = 1e-12
    loss = -np.mean(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    grad = features.T @ (p - labels) / labels.size
    return float(loss), grad


def train_model(data: CrpDataset, epochs: int = 500, learning_rate: float = 0.5) -> LinearModel:
    """Full-batch gradient descent from zero weights; deterministic for given inputs."""
    if len(data) < 10:
        raise ValueError("need at least 10 CRPs to train")
    if data.challenges.ndim != 2 or data.challenges.shape[0] != data.responses.size:
        raise ValueError("challenge matrix and response vector disagree")
    features = parity_transform(data.challenges)
    labels = data.responses.astype(np.float64)
    weights = np.zeros(features.shape[1])
    losses = np.zeros(epochs)
    for epoch in range(epochs):
        loss, grad = logistic_loss_and_grad(weights, features, labels)
        losses[epoch] = loss
        weights -= learning_rate * grad
    return LinearModel(weights, data.source, len(data), losses)


def predict(model: LinearModel, challenges: np.ndarray) -> np.ndarray:
    return (parity_transform(challenges) @ model.weights > 0).astype(np.uint8)


def eval_model(model: LinearModel, target, n_test: int, rng) -> AttackReport:
    """Emulation accuracy on fresh challenges never seen during characterization."""
    if n_test < 100:
        raise ValueError("n_test must be >= 100")
    fresh = collect_crps(target, n_test, rng)
    accuracy = float(np.mean(predict(model, fresh.challenges) == fresh.responses))
    return AttackReport(target.name, model.train_size, n_test, accuracy)


# --------------------------------------------------------------------------- readout cloning
def readout_clone(target: SramPuf) -> SramPuf:
    """Clone an SRAM PUF given full reference-pattern readout access.

    The clone's zero-noise startup pattern equals the target's; measurement
    noise is redrawn per power-up as usual.  There is deliberately no overload
    for cipher devices: their interface exposes no descriptor to read out.
    """
    if not isinstance(target, SramPuf):
        raise TypeError(
            f"readout cloning needs memory readout access; {type(target).__name__} has none"
        )
    bias = target.cell_bias.copy()
    bias.flags.writeable = False
    return SramPuf(target.n_cells, bias, target.ber_anchors, target.seed)
