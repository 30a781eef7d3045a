"""Differential trails of the 64-bit SPN over its public bit permutation.

In the truncated model a trail is a sequence of nibble-activity patterns, and
its cost is the total count of active nibbles.  Over any nibble-aligned bit
permutation the minimum is exactly one active S-box per round, a theorem that
``min_active_sboxes`` returns in closed form (tier-1 checks it against an exact
best-first search).  ``sample_trail_actives`` draws concrete trails through a
device's real S-boxes, choosing each round's output differences from its DDT,
and counts their active boxes as a cross-check on that bound.
"""
from __future__ import annotations

import operator

import numpy as np

from . import kernels


def validate_permutation(perm) -> np.ndarray:
    arr = np.asarray(perm, dtype=np.int64)
    if arr.ndim != 1 or sorted(arr.tolist()) != list(range(arr.size)):
        raise ValueError("permutation must be a bijection on 0..n-1")
    if arr.size % 4:
        raise ValueError("permutation length must be a multiple of 4")
    return arr


def scatter_table(dest) -> np.ndarray:
    """(len(dest) // 4, 16) uint64: entry [j][v] holds the set bits b of v moved to dest[4j+b]."""
    dest = np.asarray(dest)
    if dest.size and not 0 <= dest.min() <= dest.max() < 64:
        raise ValueError("bit positions must lie in 0..63 to fit a uint64")
    dest = dest.astype(np.uint64).reshape(-1, 4)
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1  # bits[v, b]
    moved = np.where(bits[None, :, :], np.uint64(1) << dest[:, None, :], np.uint64(0))
    return np.bitwise_or.reduce(moved, axis=2)


def min_active_sboxes(perm, rounds: int) -> int:
    """Minimum number of active S-boxes over all nonzero truncated trails: ``rounds``.

    Lower bound: a bijective S-box maps a nonzero difference to a nonzero one,
    and a bit permutation keeps it nonzero, so every round has an active nibble.
    Attained: an output difference of weight 1 (1, 2, 4 or 8) lands in exactly
    one nibble, so a trail with one active nibble per round exists.
    """
    rounds = operator.index(rounds)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    validate_permutation(perm)
    return rounds


def _nibbles(x: np.ndarray, n_nibbles: int) -> np.ndarray:
    """x[..., j]: nibble j (bits 4j..4j+3) of each uint64 in x."""
    return (x[..., None] >> np.arange(0, 4 * n_nibbles, 4, dtype=np.uint64)) & np.uint64(0xF)


def _active_nibbles(x: np.ndarray) -> np.ndarray:
    """The number of nonzero nibbles of each uint64 in x, as a uint64 array of x's shape."""
    # fold each nibble onto its low bit, then add the bits a byte at a time: a
    # byte's count is at most 2 and the total at most 16, so no sum carries
    y = x >> np.uint64(1)
    y |= x
    x = y >> np.uint64(2)
    x |= y
    x &= np.uint64(0x1111_1111_1111_1111)
    np.right_shift(x, np.uint64(4), out=y)
    y += x
    y &= np.uint64(0x0F0F_0F0F_0F0F_0F0F)
    y *= np.uint64(0x0101_0101_0101_0101)  # wraps mod 2^64; the total lands in the top byte
    y >>= np.uint64(56)
    return y


def _sample_differences(sboxes, perm, rounds: int, n_trails: int, rng) -> np.ndarray:
    """(rounds + 1, n_trails) uint64: row r holds each trail's input difference to round r."""
    arr = validate_permutation(perm)
    place = scatter_table(arr)
    sboxes = np.asarray(sboxes, dtype=np.uint8)
    if sboxes.shape[0] < rounds:
        raise ValueError("need one S-box table per round")
    ddt, _ = kernels.sbox_spectra(sboxes[:rounds])
    allowed = ddt > 0  # row a == 0 allows only b == 0: an inactive nibble draws nothing and stays 0
    allowed[:, 1:, 0] = False  # an active nibble's output is nonzero
    counts = allowed.sum(axis=2, dtype=np.int64)
    # outputs[r, a, :counts[r, a]]: the allowed b in ascending order
    outputs = np.argsort(~allowed, axis=2, kind="stable").astype(np.uint8)
    nibble = np.arange(place.shape[0])
    diffs = np.empty((rounds + 1, n_trails), dtype=np.uint64)
    diffs[0] = rng.integers(1, 2**arr.size, size=n_trails, dtype=np.uint64)
    for r in range(rounds):
        a = _nibbles(diffs[r], place.shape[0]).astype(np.intp)
        b = outputs[r, a, rng.integers(0, counts[r, a])]
        diffs[r + 1] = np.bitwise_or.reduce(place[nibble, b], axis=1)
    return diffs


def sample_trail_actives(sboxes: np.ndarray, perm, rounds: int, n_trails: int, rng) -> np.ndarray:
    """Active-box totals of random concrete differential trails through real S-boxes.

    Each trail starts from a difference drawn uniformly from the nonzero
    values; round r maps each active nibble a to an output difference drawn
    uniformly from the nonzero b with DDT[a][b] > 0 of S-box r, which the
    permutation then moves.  All trails advance together, with one generator
    call to start and one per round:

    - ``rng.integers(1, 2**n_bits, size=n_trails, dtype=np.uint64)`` for the
      starting differences;
    - ``rng.integers(0, counts)`` in round r, where ``counts`` is the int64
      (n_trails, n_bits // 4) matrix of each nibble's number of allowed
      outputs (1 for an inactive nibble, whose output is 0), and the draw
      indexes those outputs in ascending order.
    """
    diffs = _sample_differences(sboxes, perm, rounds, n_trails, rng)
    return _active_nibbles(diffs[:-1]).sum(axis=0, dtype=np.int64)

