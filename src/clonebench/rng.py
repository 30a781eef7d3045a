"""Deterministic randomness: one global seed fans out to named, independent substreams.

Every stochastic operation in the toolkit takes an explicit ``numpy.random.Generator``
handle.  ``substream(seed, *path)`` derives a generator from a seed plus a path of
labels (module name, device index, ...) so experiments replay exactly from a single
seed without coupling the modules' draw orders.
"""
import hashlib
import secrets

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_entropy(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK64
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the named substream of ``seed``; same (seed, path) -> same stream."""
    entropy = [int(seed) & _MASK64] + [_label_entropy(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def fresh_seed() -> int:
    """64-bit seed from OS entropy, for runs where the caller gave none."""
    return secrets.randbits(64)
