"""Word-level replay of ``Generator.integers(0, k)``, for test oracles that check numpy draws by hand."""
import numpy as np


class WordReader:
    """Replays a Generator's ``integers(0, k)`` draws from its raw uint32 stream.

    ``integers(0, k)`` for k <= 2**32, alone or element by element over an
    array of bounds, is Lemire's multiply-shift step over one word, redrawn
    while the low half of the product falls below (2**32 - k) % k (``k == 1``
    draws nothing).  Words are read ahead in chunks; on exit the generator is
    rewound and advanced by exactly the words consumed, so its later draws
    match too.
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

    def below(self, k: int) -> int:
        """Same value as ``rng.integers(0, k)`` for 1 <= k <= 2**32."""
        if k < 2:
            if k == 1:
                return 0
            raise ValueError("k must be >= 1")
        threshold = (2**32 - k) % k
        while True:
            m = self.word() * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
