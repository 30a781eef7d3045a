"""BitString: the universal carrier for challenges, responses, and keys.

Bits are ordered most-significant first; hex serialization is lowercase with the
first bit in the top bit of the first hex digit.  Instances are immutable.

Bits are checked once, where they enter.  :func:`bit_matrix` is the library's
one 0/1 check: every entry other than 0 or 1 is refused before any cast to
uint8, so 256 cannot wrap to 0, -1 to 255 or 0.5 to 0.  ``BitString(bits)``,
:meth:`BitString.rows` and the devices' challenge rows all pass through it.
Bits the class makes itself (:meth:`from_int`, :meth:`random`, ``^``, the hex
decoder and the row views :meth:`rows` hands out) are already 0/1 uint8 and
read-only, so one private wrap stores them with no second check and no copy.

A CRP store holds thousands of records, so the hex codec works a batch at a
time and the scalar calls are batches of one.  Every batch has one declared
width.  :meth:`BitString.from_hex_batch` checks each string as
:meth:`BitString.from_hex` does (stripped and lowercased, hex digits only,
exactly ``ceil(n_bits / 4)`` digits, zero padding) and decodes them all with
one ``np.unpackbits``; :meth:`BitString.to_hex_batch` stacks rows of one width,
packs them with one ``np.packbits`` and slices out each row's digits.
:meth:`BitString.rows` checks and copies a 0/1 matrix once and hands out its
rows as read-only views, with no per-row ``__init__``.  :meth:`from_int` and
:meth:`to_int` work on Python ints: the single-block cipher path calls them
once per block.
"""
from __future__ import annotations

import operator

import numpy as np

_HEX_SET = frozenset("0123456789abcdef")


def bit_matrix(rows, width: int | None = None) -> np.ndarray:
    """Bit rows (or one row) as a 2-D uint8 matrix of 0/1.

    Any entry other than 0 or 1 is a ValueError, checked before the cast to
    uint8 so that 256 cannot wrap to 0, -1 to 255 or 0.5 to 0.  A uint8 input
    is checked with one ``max`` and returned without a copy.  With ``width``,
    rows of any other width are a ValueError too.
    """
    arr = np.asarray(rows)
    if arr.dtype == np.uint8:
        bad = arr.size and arr.max() > 1
    else:
        bad = not ((arr == 0) | (arr == 1)).all()
    if bad:
        raise ValueError("bits must be 0 or 1")
    mat = np.atleast_2d(arr.astype(np.uint8, copy=False))
    if width is not None and mat.shape[1] != width:
        raise ValueError(f"rows of {mat.shape[1]} bits where {width} are needed")
    return mat


class BitString:
    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("BitString needs at least one bit")
        arr = bit_matrix(arr)[0].copy()
        arr.setflags(write=False)
        self._bits = arr

    # ------------------------------------------------------------- constructors
    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitString":
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        bits.setflags(write=False)
        return cls._wrap(bits)

    @classmethod
    def from_int(cls, value: int, n_bits: int) -> "BitString":
        if value < 0 or value >> n_bits:
            raise ValueError(f"value does not fit in {n_bits} bits")
        raw = (int(value) << (-n_bits % 8)).to_bytes(-(-n_bits // 8), "big")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n_bits)
        bits.setflags(write=False)
        return cls._wrap(bits)

    @classmethod
    def from_hex(cls, text: str, n_bits: int) -> "BitString":
        return cls.from_hex_batch([text], n_bits)[0]

    @classmethod
    def from_hex_batch(cls, texts, n_bits: int) -> list:
        """Decode each hex string exactly as :meth:`from_hex` would, with one unpack.

        Each string is stripped and lowercased and must be nonempty hex of
        exactly ``ceil(n_bits / 4)`` digits, and its bits past ``n_bits`` must be zero.
        """
        n_bits = operator.index(n_bits)
        texts = [text.strip().lower() for text in texts]
        if not texts:
            return []
        if not all(texts) or not _HEX_SET.issuperset("".join(texts)):
            bad = next(text for text in texts if not text or not _HEX_SET.issuperset(text))
            raise ValueError(f"not a hex string: {bad!r}")
        digits = -(-n_bits // 4)
        wrong = set(map(len, texts)) - {digits}
        if wrong:
            raise ValueError(f"{n_bits} bits does not match {min(wrong)} hex digits")
        pad = "0" * (digits % 2)  # an even digit count per row
        raw = bytes.fromhex(pad.join(texts) + pad)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), -1), axis=1)
        bits.setflags(write=False)
        if bits[:, n_bits:].any():
            raise ValueError("padding bits past the declared length must be zero")
        return list(map(cls._wrap, bits[:, :n_bits]))

    @classmethod
    def rows(cls, matrix) -> list:
        """One BitString per row of a 2-D 0/1 matrix, checked and copied once.

        The rows are views of one read-only copy, so none can be made writeable.
        """
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError("BitString rows need a 2-D matrix with at least one column")
        arr = bit_matrix(arr).copy()
        arr.setflags(write=False)
        return list(map(cls._wrap, arr))

    @classmethod
    def _wrap(cls, bits: np.ndarray) -> "BitString":
        """A BitString over bits this class made: a read-only 0/1 uint8 vector, not checked or copied."""
        out = object.__new__(cls)
        out._bits = bits
        return out

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
        """:meth:`to_hex` of each BitString, all of one width, with one pack; mixed widths are a ValueError."""
        if not bitstrings:
            return []
        packed = np.packbits(np.stack([b._bits for b in bitstrings]), axis=1)
        text = packed.tobytes().hex()
        step, digits = 2 * packed.shape[1], -(-bitstrings[0]._bits.size // 4)
        return [text[i : i + digits] for i in range(0, len(text), step)]

    def to_int(self) -> int:
        n = self._bits.size
        return int.from_bytes(np.packbits(self._bits).tobytes(), "big") >> ((-n) % 8)

    # ------------------------------------------------------------- algebra
    def __xor__(self, other: "BitString") -> "BitString":
        if len(other) != len(self):
            raise ValueError("length mismatch in xor")
        bits = self._bits ^ other._bits
        bits.setflags(write=False)
        return BitString._wrap(bits)

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
