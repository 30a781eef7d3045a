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


class WordReader:
    """Replays a Generator's ``bytes`` and ``integers(0, k)`` draws from its raw uint32 stream.

    Both draws reduce to the bit generator's 32-bit outputs: ``bytes(n)`` packs
    max(1, ceil(n / 4)) words little-endian, and ``integers(0, k)`` is Lemire's
    multiply-shift step over one word, redrawn while the low half of the
    product falls below (2**32 - k) % k (``k == 1`` draws nothing).  Words are
    read ahead in chunks; on exit the generator is rewound and advanced by
    exactly the words consumed, so its later draws match too.
    """

    CHUNK = 4096

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._words = []  # unread words of the current chunk, next one last
        self._read = 0

    def __enter__(self):
        self._state = self._rng.bit_generator.state
        return self

    def __exit__(self, *exc):
        self._rng.bit_generator.state = self._state
        left = self._read - len(self._words)
        while left:
            n = min(left, self.CHUNK)
            self._rng.integers(0, 2**32, size=n, dtype=np.uint32)
            left -= n
        return False

    def _refill(self):
        chunk = self._rng.integers(0, 2**32, size=self.CHUNK, dtype=np.uint32)
        self._words.extend(chunk[::-1].tolist())
        self._read += self.CHUNK

    def word(self) -> int:
        if not self._words:
            self._refill()
        return self._words.pop()

    def bytes(self, n: int) -> bytes:
        """Same bytes as ``rng.bytes(n)``, which draws one word even for n == 0."""
        return b"".join(self.word().to_bytes(4, "little") for _ in range(max(1, (n + 3) // 4)))[:n]

    def below(self, k: int) -> int:
        """Same value as ``rng.integers(0, k)`` for 1 <= k <= 2**32."""
        if k < 2:
            if k == 1:
                return 0
            raise ValueError("k must be >= 1")
        threshold = (2**32 - k) % k
        words = self._words
        while True:
            if not words:
                self._refill()
            m = words.pop() * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def fresh_seed() -> int:
    """64-bit seed from OS entropy, for runs where the caller gave none."""
    return secrets.randbits(64)
