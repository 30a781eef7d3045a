"""Active S-box lower bounds for the 64-bit SPN over its public bit permutation.

States are 16-bit nibble-activity patterns.  One round maps each active nibble
to any nonempty subset of the nibbles its four output bits reach through the
permutation (the S-box output difference is a free nonzero 4-bit value), and
the trail cost is the total count of active nibbles across rounds.  The minimum
over all nonzero starting patterns is found by best-first search with the
admissible bound of one active box per remaining round; subset states dominate
superset states (thinning a trail never increases its cost), so single-nibble
starts suffice.
"""
from __future__ import annotations

import heapq

import numpy as np

from . import kernels
from .rng import WordReader

_EXPANSION_CAP = 1 << 22


def validate_permutation(perm) -> np.ndarray:
    arr = np.asarray(perm, dtype=np.int64)
    if arr.ndim != 1 or sorted(arr.tolist()) != list(range(arr.size)):
        raise ValueError("permutation must be a bijection on 0..n-1")
    if arr.size % 4:
        raise ValueError("permutation length must be a multiple of 4")
    return arr


def scatter_table(dest) -> np.ndarray:
    """(len(dest) // 4, 16) uint64: entry [j][v] holds the set bits b of v moved to dest[4j+b]."""
    dest = np.asarray(dest, dtype=np.uint64).reshape(-1, 4)
    bits = (np.arange(16)[:, None] >> np.arange(4)) & 1  # bits[v, b]
    moved = np.where(bits[None, :, :], np.uint64(1) << dest[:, None, :], np.uint64(0))
    return np.bitwise_or.reduce(moved, axis=2)


def nibble_reach(perm) -> list:
    """For each source nibble, the distinct activity masks of its 15 nonzero outputs."""
    arr = validate_permutation(perm)
    return [sorted(set(row[1:])) for row in scatter_table(arr // 4).tolist()]


def _successors(state: int, reach) -> set:
    options = {0}
    j = 0
    while state:
        if state & 1:
            options = {base | mask for base in options for mask in reach[j]}
        state >>= 1
        j += 1
    return options


def min_active_sboxes(perm, rounds: int) -> int:
    """Exact minimum number of active S-boxes over all nonzero truncated trails."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    reach = nibble_reach(perm)
    n_nibbles = len(reach)
    # f = cost so far + one box per remaining round (admissible), so the first
    # state popped at the final round carries the exact minimum
    frontier = [(1 + (rounds - 1), 1, 1 << j) for j in range(n_nibbles)]
    heapq.heapify(frontier)
    best = {}
    expansions = 0
    while frontier:
        f, depth, state = heapq.heappop(frontier)
        cost = f - (rounds - depth)
        if best.get((depth, state), 1 << 30) < cost:
            continue
        if depth == rounds:
            assert cost >= rounds
            return cost
        expansions += 1
        if expansions > _EXPANSION_CAP:
            raise RuntimeError("trail search exceeded its expansion cap")
        for nxt in _successors(state, reach):
            ncost = cost + bin(nxt).count("1")
            key = (depth + 1, nxt)
            if ncost < best.get(key, 1 << 30):
                best[key] = ncost
                heapq.heappush(frontier, (ncost + (rounds - depth - 1), depth + 1, nxt))
    raise RuntimeError("trail search exhausted without reaching the final round")


def sample_trail_actives(sboxes: np.ndarray, perm, rounds: int, n_trails: int, rng) -> np.ndarray:
    """Active-box totals of random concrete differential trails through real S-boxes.

    Round r draws each active nibble's output difference uniformly from the
    nonzero b with DDT[a][b] > 0 of S-box r, listed in ascending order.  The
    draws replay ``rng.bytes`` and ``rng.integers`` word for word (see
    ``WordReader``), so totals and the generator's later state match a
    sampler that calls them directly.
    """
    arr = validate_permutation(perm)
    if arr.size % 8:  # starting differences are drawn as whole bytes
        raise ValueError("permutation length must be a multiple of 8")
    sboxes = np.asarray(sboxes, dtype=np.uint8)
    if sboxes.shape[0] < rounds:
        raise ValueError("need one S-box table per round")
    ddt, _ = kernels.sbox_spectra(sboxes[:rounds])
    compat = [[(np.flatnonzero(row[1:]) + 1).tolist() for row in table] for table in ddt]
    place = scatter_table(arr).tolist()
    n_bits = arr.size
    totals = np.zeros(n_trails, dtype=np.int64)
    with WordReader(rng) as words:
        below = words.below
        for t in range(n_trails):
            delta = 0
            while delta == 0:
                delta = int.from_bytes(words.bytes(n_bits // 8), "big")
            total = 0
            for compat_r in compat:
                out_delta = 0
                j = 0
                while delta:
                    a = delta & 0xF
                    if a:
                        total += 1
                        choices = compat_r[a]
                        out_delta |= place[j][choices[below(len(choices))]]
                    delta >>= 4
                    j += 1
                delta = out_delta
            totals[t] = total
    return totals
