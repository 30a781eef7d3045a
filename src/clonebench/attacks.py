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

#: weight of the ridge term RIDGE/2·‖w‖² in the objective train_model minimises
RIDGE = 1e-3

#: train_model stops once the Newton decrement falls to this; about where the
#: objective's float64 rounding can no longer confirm a decrease
NEWTON_TOL = 1e-16

_HESSIAN_ROWS = 512  # rows per block of the Hessian sum
_ARMIJO = 1e-4  # share of the predicted decrease a damped step must achieve
_MAX_HALVINGS = 30


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


def _objective(margins: np.ndarray, weights: np.ndarray, spare: np.ndarray) -> float:
    """Mean log(1 + e^-m) over the margins m plus RIDGE/2·‖w‖²; overwrites ``spare``.

    log(1 + e^-m) is taken as max(-m, 0) + log 2 - log1p(|tanh(m/2)|): there
    is no exp to overflow or underflow, however far out a trial step lands.
    """
    np.multiply(margins, 0.5, out=spare)
    np.tanh(spare, out=spare)
    np.abs(spare, out=spare)
    np.log1p(spare, out=spare)
    np.subtract(math.log(2.0), spare, out=spare)
    np.subtract(spare, margins, out=spare, where=margins < 0)
    return float(np.mean(spare)) + 0.5 * RIDGE * float(weights @ weights)


def _newton_system(features, margins, zeros, weights, spare):
    """Gradient and Hessian of the objective at the margins; overwrites ``spare``.

    With t = tanh(m/2) the model gives the observed response probability
    (1 + t)/2.  So the residual p - y of the probability p of response 1 is
    -(1 - t)/2 where y = 1 and (1 - t)/2 where y = 0, and the Hessian weight
    p(1 - p) is (1 - t)(1 + t)/4.  The Hessian is summed over blocks of
    ``_HESSIAN_ROWS`` rows, so no temporary as large as the features is made.
    """
    n, k = features.shape
    np.multiply(margins, 0.5, out=spare)
    np.tanh(spare, out=spare)
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    block = np.empty((_HESSIAN_ROWS, k))
    for start in range(0, n, _HESSIAN_ROWS):
        rows = slice(start, start + _HESSIAN_ROWS)
        x, t = features[rows], spare[rows]
        scaled = np.multiply(x, np.sqrt((1.0 - t) * (1.0 + t))[:, None], out=block[: len(x)])
        hess += scaled.T @ scaled
        t -= 1.0
        np.negative(t, out=t, where=zeros[rows])
        grad += x.T @ t
    grad *= 0.5 / n
    grad += RIDGE * weights
    hess *= 0.25 / n
    hess[np.diag_indices(k)] += RIDGE
    return grad, hess


def train_model(data: CrpDataset, epochs: int = 500) -> LinearModel:
    """Damped Newton's method on the mean cross-entropy plus RIDGE/2·‖w‖², from zero weights.

    Each step solves the (n_bits + 1)-square Newton system H·Δ = g and
    backtracks from the full step, halving it until the objective falls by
    at least ``_ARMIJO`` times the decrease the gradient predicts.  Training
    stops when the Newton decrement gᵀΔ/2 is at most ``NEWTON_TOL``, after
    ``epochs`` steps, or when ``_MAX_HALVINGS`` halvings find no decrease
    the objective's rounding can resolve.  ``loss_history`` holds the
    objective after each step taken.  ``epochs`` is a step cap for library
    callers; the CLI keeps the default, which the stopping rule ends first.

    Deterministic for given inputs.  Besides the features, a step works in
    two length-n float buffers and one block of Hessian rows.
    """
    if len(data) < 10:
        raise ValueError("need at least 10 CRPs to train")
    if data.challenges.ndim != 2:
        raise ValueError("challenges must be a 2-D matrix")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    labels = bit_matrix(data.responses, len(data.challenges))[0]  # one response per challenge row
    zeros = labels == 0  # where the margin is the negated logit
    features = parity_transform(bit_matrix(data.challenges))
    weights = np.zeros(features.shape[1])
    margins = np.zeros(labels.size)  # the logit of each observed response
    spare = np.empty(labels.size)
    loss = _objective(margins, weights, spare)
    losses = []
    for _ in range(epochs):
        grad, hess = _newton_system(features, margins, zeros, weights, spare)
        delta = np.linalg.solve(hess, grad)
        decrement = 0.5 * float(grad @ delta)
        if decrement <= NEWTON_TOL:
            break
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = weights - step * delta
            np.matmul(features, trial, out=spare)
            np.negative(spare, out=spare, where=zeros)
            trial_loss = _objective(spare, trial, margins)
            if trial_loss <= loss - _ARMIJO * step * 2.0 * decrement:
                break
            step *= 0.5
        else:
            break  # the change is below the objective's rounding: nothing left to gain
        weights, loss = trial, trial_loss
        margins, spare = spare, margins
        losses.append(loss)
    return LinearModel(weights, data.source, len(data), np.array(losses))


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
