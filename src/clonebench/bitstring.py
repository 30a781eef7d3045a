"""BitString: the universal carrier for challenges, responses, and keys.

Bits are ordered most-significant first; hex serialization is lowercase with the
first bit in the top bit of the first hex digit.  Instances are immutable.
"""
from __future__ import annotations

import numpy as np

_HEX_SET = frozenset("0123456789abcdef")


class BitString:
    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("BitString needs at least one bit")
        if arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self._bits = arr

    # ------------------------------------------------------------- constructors
    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitString":
        return cls(rng.integers(0, 2, n, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, n_bits: int) -> "BitString":
        if value < 0 or value >> n_bits:
            raise ValueError(f"value does not fit in {n_bits} bits")
        return cls._unpack(int(value), n_bits)

    @classmethod
    def from_hex(cls, text: str, n_bits: int | None = None) -> "BitString":
        text = text.strip().lower()
        if not text or not _HEX_SET.issuperset(text):
            raise ValueError(f"not a hex string: {text!r}")
        if n_bits is None:
            n_bits = 4 * len(text)
        if n_bits > 4 * len(text) or n_bits <= 4 * (len(text) - 1):
            raise ValueError(f"{n_bits} bits does not match {len(text)} hex digits")
        pad = 4 * len(text) - n_bits
        value = int(text, 16)
        if value & ((1 << pad) - 1):
            raise ValueError("padding bits past the declared length must be zero")
        return cls._unpack(value >> pad, n_bits)

    @classmethod
    def _unpack(cls, value: int, n_bits: int) -> "BitString":
        """The n_bits low bits of a non-negative int, MSB first."""
        raw = (value << (-n_bits % 8)).to_bytes(-(-n_bits // 8), "big")
        return cls(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n_bits))

    # ------------------------------------------------------------- views
    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 array of 0/1, most-significant bit first."""
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    def __iter__(self):
        return iter(int(b) for b in self._bits)

    def __array__(self, dtype=None, copy=None):
        """NumPy view of the bits, so a list of BitStrings converts as one matrix."""
        bits = self._bits if dtype is None else self._bits.astype(dtype, copy=False)
        return bits.copy() if copy else bits

    # ------------------------------------------------------------- codecs
    def to_hex(self) -> str:
        """Lowercase hex, MSB first; a final partial nibble is zero-padded on the right."""
        n = self._bits.size
        return f"{self.to_int() << (-n % 4):0{-(-n // 4)}x}"

    def to_int(self) -> int:
        n = self._bits.size
        return int.from_bytes(np.packbits(self._bits).tobytes(), "big") >> ((-n) % 8)

    # ------------------------------------------------------------- algebra
    def __xor__(self, other: "BitString") -> "BitString":
        if len(other) != len(self):
            raise ValueError("length mismatch in xor")
        return BitString(self._bits ^ other._bits)

    def hamming(self, other: "BitString") -> int:
        if len(other) != len(self):
            raise ValueError("length mismatch in hamming distance")
        return int(np.count_nonzero(self._bits != other._bits))

    def fractional_hamming(self, other: "BitString") -> float:
        return self.hamming(other) / len(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitString) and self._bits.tobytes() == other._bits.tobytes()

    def __hash__(self) -> int:
        return hash((self._bits.size, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BitString({len(self)} bits, {self.to_hex()})"
