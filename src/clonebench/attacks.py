"""Cloning attacks: characterize a device from CRPs, then emulate or copy it.

Delay PUFs fall to logistic regression on the parity feature map; the same
attacker run against a secret-cipher bit stays at coin-flip accuracy, which is
the toolkit's headline discrimination experiment.  Memory PUFs fall instead to
full readout cloning, modeled here as copying the reference startup pattern.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bitstring import bit_matrix
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

    def __init__(self, device: SucDevice):
        self.device = device
        self.challenge_bits = device.challenge_bits

    def respond(self, challenges) -> np.ndarray:
        # a copy, so the labels do not keep every ciphertext bit alive
        return self.device.respond(challenges)[SUC_TARGET_BIT :: self.challenge_bits].copy()


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
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


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


def train_model(data: CrpDataset, epochs: int = 500, learning_rate: float = 0.5) -> LinearModel:
    """Full-batch gradient descent on the mean cross-entropy from zero weights.

    Deterministic for given inputs.  Each epoch runs in two length-n buffers,
    and the loss takes one log per sample, the log of the probability the
    model gives the observed response; for 0/1 responses that equals
    ``y*log(p+eps) + (1-y)*log(1-p+eps)`` bit for bit, since the other term
    is a signed zero added to a finite log.
    """
    if len(data) < 10:
        raise ValueError("need at least 10 CRPs to train")
    if data.challenges.ndim != 2:
        raise ValueError("challenges must be a 2-D matrix")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError("learning rate must be finite and > 0")
    labels = bit_matrix(data.responses, len(data.challenges))[0]  # one response per challenge row
    ones = labels == 1
    features = parity_transform(bit_matrix(data.challenges))
    weights = np.zeros(features.shape[1])
    losses = np.zeros(epochs)
    p = np.empty(labels.size)  # probability of response 1, then the residual
    log_lik = np.empty(labels.size)
    for epoch in range(epochs):
        np.matmul(features, weights, out=p)
        np.negative(p, out=p)
        np.exp(p, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)
        np.subtract(1.0, p, out=log_lik)
        np.copyto(log_lik, p, where=ones)
        log_lik += 1e-12
        np.log(log_lik, out=log_lik)
        losses[epoch] = -np.mean(log_lik)
        p -= labels
        weights -= learning_rate * (features.T @ p / labels.size)
    return LinearModel(weights, data.source, len(data), losses)


def predict(model: LinearModel, challenges: np.ndarray) -> np.ndarray:
    features = parity_transform(bit_matrix(challenges, model.weights.size - 1))
    return (features @ model.weights > 0).astype(np.uint8)


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
    return SramPuf(target.n_cells, bias, target.seed)
