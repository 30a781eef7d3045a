"""Cloning attacks: characterize a device from CRPs, then emulate or copy it.

Delay PUFs fall to logistic regression on the parity feature map; the same
attacker run against a secret-cipher bit stays at coin-flip accuracy, which is
the toolkit's headline discrimination experiment.  Memory PUFs fall instead to
full readout cloning, modeled here as copying the reference startup pattern.

A campaign keeps its data at one bit per entry: a ``CrpDataset`` holds its
challenges bit-packed, ``collect_crps`` draws and answers them ``_CHUNK_ROWS``
rows at a time, and training holds the parity features as packed sign bits,
widened to exact float64 +-1 only ``BLOCK_ROWS`` rows at a time.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bitstring import bit_matrix
from .jsonio import SCHEMA_VERSION
from .puf import BLOCK_ROWS, ArbiterPuf, SramPuf, matmul_blocks, parity_transform
from .suc import SucDevice, challenge_blocks

#: ciphertext bit index the cipher attack tries to predict (MSB)
SUC_TARGET_BIT = 0

#: XOR-arbiter attacks are scoped to at most this many member arbiters
XOR_ATTACK_MAX_K = 4

#: weight of the ridge term RIDGE/2·‖w‖² in the objective train_model minimises
RIDGE = 1e-3

#: train_model stops once the Newton decrement falls to this; about where the
#: objective's float64 rounding can no longer confirm a decrease
NEWTON_TOL = 1e-16

_CHUNK_ROWS = 16384  # challenge rows drawn and answered at a time
_FEATURE_ROWS = 4096  # challenge rows turned into int8 parity features at a time
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
        cipher = self.device.encrypt_blocks(challenge_blocks(challenges))
        cipher >>= 63 - SUC_TARGET_BIT  # bit 0 is the most significant
        cipher &= 1
        return cipher.astype(np.uint8)


# --------------------------------------------------------------------------- data + model
class CrpDataset:
    """Challenge rows and one response bit each, the rows kept bit-packed.

    The constructor checks the 0/1 challenge matrix and the responses once
    and keeps ``packed = np.packbits(rows, axis=1)`` with the row ``width``;
    ``rows(start, stop)`` unpacks a slice.  No unpacked copy is kept.
    """

    def __init__(self, challenges, responses, source: str):
        rows = np.asarray(challenges)
        if rows.ndim != 2:
            raise ValueError("challenges must be a 2-D matrix")
        rows = bit_matrix(rows)
        self.packed = np.packbits(rows, axis=1)
        self.width = rows.shape[1]
        self.responses = bit_matrix(responses, len(rows))[0]  # one response per challenge row
        self.source = source

    @classmethod
    def _of_packed(cls, packed, width, responses, source):
        """Wrap rows packed by ``collect_crps`` and their responses, with no further check."""
        data = cls.__new__(cls)
        data.packed, data.width, data.responses, data.source = packed, width, responses, source
        return data

    def __len__(self) -> int:
        return self.responses.size

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The 0/1 challenge rows from ``start`` to ``stop``, unpacked to uint8."""
        return np.unpackbits(self.packed[start:stop], axis=1, count=self.width)


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
    width = target.challenge_bits
    packed = np.empty((n, -(-width // 8)), dtype=np.uint8)
    responses = np.empty(n, dtype=np.uint8)
    # the chunks replay one rng.integers(0, 2, (n, width), uint8) call: each
    # draw takes one byte of a 32-bit word, and every chunk but the last holds
    # a multiple of 4 draws, so none splits a word
    for start in range(0, n, _CHUNK_ROWS):
        rows = rng.integers(0, 2, (min(_CHUNK_ROWS, n - start), width), dtype=np.uint8)
        chunk = slice(start, start + len(rows))
        packed[chunk] = np.packbits(rows, axis=1)
        responses[chunk] = target.respond(rows)
    return CrpDataset._of_packed(packed, width, responses, target.name)


def _sign_bits(rows) -> np.ndarray:
    """The parity features of 0/1 rows as packed sign bits: bit j is 1 where feature j is -1."""
    features = parity_transform(rows)
    features -= 1  # -1 becomes -2 and 1 becomes 0; packbits keeps any nonzero as 1
    return np.packbits(features, axis=1)


def _packed_parity(rows_of, n: int, width: int) -> np.ndarray:
    """The sign bits of rows_of(start, stop) for n rows, ``_FEATURE_ROWS`` rows of int8 features at a time."""
    packed = np.empty((n, -(-(width + 1) // 8)), dtype=np.uint8)
    for start in range(0, n, _FEATURE_ROWS):
        stop = min(start + _FEATURE_ROWS, n)
        packed[start:stop] = _sign_bits(rows_of(start, stop))
    return packed


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


def _widened(features, block, slices):
    """Yield (rows, x) for each slice of rows: their packed features widened into ``block``.

    ``x`` is a float64 view of ``block`` holding exact +-1.0, reused for the
    next slice.  A sign bit b becomes the int8 1 - 2b as 254·b + 1 in uint8.
    """
    k = block.shape[1]
    for rows in slices:
        bits = np.unpackbits(features[rows], axis=1, count=k)
        bits *= 254
        bits += 1
        x = block[: len(bits)]
        np.copyto(x, bits.view(np.int8))
        yield rows, x


def _margins(features, weights, block, out) -> None:
    """``out`` = the widened features times ``weights``, rounded as one product over all rows."""
    for rows, x in _widened(features, block, matmul_blocks(len(out))):
        np.matmul(x, weights, out=out[rows])


def _newton_system(features, margins, zeros, weights, spare, block):
    """Gradient and Hessian of the objective at the margins; overwrites ``spare``.

    With t = tanh(m/2) the model gives the observed response probability
    (1 + t)/2.  So the residual p - y of the probability p of response 1 is
    -(1 - t)/2 where y = 1 and (1 - t)/2 where y = 0, and the Hessian weight
    p(1 - p) is (1 - t)(1 + t)/4.  Both are summed over blocks of
    ``BLOCK_ROWS`` rows widened into ``block``, so no float64 temporary as
    large as the features is made.
    """
    n, k = len(features), block.shape[1]
    np.multiply(margins, 0.5, out=spare)
    np.tanh(spare, out=spare)
    grad = np.zeros(k)
    hess = np.zeros((k, k))
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS)]
    for rows, x in _widened(features, block, blocks):
        t = spare[rows]
        root = np.sqrt((1.0 - t) * (1.0 + t))
        t -= 1.0
        np.negative(t, out=t, where=zeros[rows])
        grad += x.T @ t
        x *= root[:, None]
        hess += x.T @ x
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

    Deterministic for given inputs.  The parity features are built
    ``_FEATURE_ROWS`` rows at a time and kept as packed sign bits, one bit per
    entry.  Besides them a step works in two length-n float64 buffers and one
    float64 block of ``BLOCK_ROWS`` + 1 feature rows, which both the Newton
    system and the trial margins widen their rows into.
    """
    if len(data) < 10:
        raise ValueError("need at least 10 CRPs to train")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    n = len(data)
    features = _packed_parity(data.rows, n, data.width)
    zeros = data.responses == 0  # where the margin is the negated logit
    weights = np.zeros(data.width + 1)
    margins = np.zeros(n)  # the logit of each observed response
    spare = np.empty(n)
    block = np.empty((BLOCK_ROWS + 1, weights.size))
    loss = _objective(margins, weights, spare)
    losses = []
    for _ in range(epochs):
        grad, hess = _newton_system(features, margins, zeros, weights, spare, block)
        delta = np.linalg.solve(hess, grad)
        decrement = 0.5 * float(grad @ delta)
        if decrement <= NEWTON_TOL:
            break
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            trial = weights - step * delta
            _margins(features, trial, block, spare)
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
    """The model's response bit for each 0/1 challenge row, through the same packed features as training."""
    rows = bit_matrix(challenges, model.weights.size - 1)
    margins = np.empty(len(rows))
    features = _packed_parity(lambda start, stop: rows[start:stop], len(rows), rows.shape[1])
    _margins(features, model.weights, np.empty((BLOCK_ROWS + 1, model.weights.size)), margins)
    return (margins > 0).astype(np.uint8)


def eval_model(model: LinearModel, target, n_test: int, rng) -> AttackReport:
    """Emulation accuracy on fresh challenges never seen during characterization."""
    if n_test < 100:
        raise ValueError("n_test must be >= 100")
    fresh = collect_crps(target, n_test, rng)
    accuracy = float(np.mean(predict(model, fresh.rows()) == fresh.responses))
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
