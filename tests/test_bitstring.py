import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, substream


def test_requires_at_least_one_bit():
    with pytest.raises(ValueError):
        BitString([])


def test_rejects_non_binary_values():
    with pytest.raises(ValueError):
        BitString([0, 2, 1])


def test_hex_roundtrip_nibble_aligned():
    bs = BitString([1, 0, 1, 0, 1, 1, 1, 1])
    assert bs.to_hex() == "af"
    assert BitString.from_hex("af", 8) == bs


def test_hex_roundtrip_partial_nibble():
    bs = BitString([1, 0, 1, 1, 0, 1])  # 6 bits -> "b4" with 2 pad bits
    assert bs.to_hex() == "b4"
    assert BitString.from_hex("b4", 6) == bs


def test_hex_msb_first():
    assert BitString.from_hex("8", 1) == BitString([1])
    assert BitString([1]).to_hex() == "8"


def test_from_hex_rejects_nonzero_padding():
    with pytest.raises(ValueError):
        BitString.from_hex("b5", 6)  # pad bit set


def test_int_roundtrip():
    for n_bits in (1, 7, 8, 63, 64):
        value = (1 << (n_bits - 1)) | 1 if n_bits > 1 else 1
        bs = BitString.from_int(value, n_bits)
        assert bs.to_int() == value
        assert len(bs) == n_bits


def test_from_int_overflow():
    with pytest.raises(ValueError):
        BitString.from_int(4, 2)


def test_from_hex_rejects_bad_digits_and_lengths():
    for text in ("", "  ", "0x1f", "1g", "+1", "1_0", "٣"):
        with pytest.raises(ValueError, match="not a hex string"):  # at the width its digit count fits
            BitString.from_hex(text, 4 * len(text))
    for n_bits in (0, 4, 9, 13):
        with pytest.raises(ValueError):
            BitString.from_hex("abc", n_bits)


def test_hex_codec_takes_one_declared_width():
    with pytest.raises(TypeError):
        BitString.from_hex("af")
    with pytest.raises(ValueError):
        BitString.to_hex_batch([BitString.from_int(0, 64), BitString.from_int(0, 60)])


def test_codecs_keep_msb_first_order():
    assert BitString.from_int(0b1101, 6) == BitString([0, 0, 1, 1, 0, 1])
    assert BitString.from_hex(" A5C ", 11) == BitString([1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0])
    assert BitString([1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0]).to_hex() == "a5c"
    assert BitString([0, 0, 0, 0, 0, 1]).to_hex() == "04"


@st.composite
def _sized_values(draw):
    n_bits = draw(st.integers(min_value=1, max_value=300))
    return draw(st.integers(min_value=0, max_value=(1 << n_bits) - 1)), n_bits


@settings(max_examples=300, deadline=None)
@given(_sized_values())
def test_int_and_hex_roundtrip_property(sized):
    value, n_bits = sized
    bs = BitString.from_int(value, n_bits)
    assert len(bs) == n_bits
    assert bs.to_int() == value
    assert "".join(map(str, bs)) == format(value, f"0{n_bits}b")
    text = bs.to_hex()
    assert len(text) == -(-n_bits // 4)
    assert BitString.from_hex(text, n_bits) == bs
    assert BitString.from_hex(text.upper(), n_bits) == bs


@settings(max_examples=300, deadline=None)
@given(n_bits=st.integers(min_value=1, max_value=300).filter(lambda n: n % 4), data=st.data())
def test_from_hex_rejects_nonzero_padding_property(n_bits, data):
    pad = -n_bits % 4
    value = data.draw(st.integers(min_value=0, max_value=(1 << n_bits) - 1))
    pad_bits = data.draw(st.integers(min_value=1, max_value=(1 << pad) - 1))
    with pytest.raises(ValueError, match="padding"):
        BitString.from_hex(f"{value << pad | pad_bits:0{-(-n_bits // 4)}x}", n_bits)


@settings(max_examples=300, deadline=None)
@given(n_bits=st.integers(min_value=1, max_value=300), data=st.data())
def test_from_int_rejects_out_of_range_property(n_bits, data):
    too_wide = data.draw(st.integers(min_value=1 << n_bits, max_value=1 << (n_bits + 8)))
    negative = data.draw(st.integers(min_value=-(1 << n_bits), max_value=-1))
    for value in (too_wide, negative):
        with pytest.raises(ValueError, match="does not fit"):
            BitString.from_int(value, n_bits)


@settings(max_examples=300, deadline=None)
@given(n_bits=st.integers(min_value=1, max_value=300), data=st.data())  # one width per batch
def test_hex_batch_agrees_with_scalar_codecs_property(n_bits, data):
    values = data.draw(st.lists(st.integers(0, (1 << n_bits) - 1), max_size=8))
    bitstrings = [BitString.from_int(value, n_bits) for value in values]
    texts = BitString.to_hex_batch(bitstrings)
    assert texts == [b.to_hex() for b in bitstrings]
    assert texts == [f"{value << (-n_bits % 4):0{-(-n_bits // 4)}x}" for value in values]
    decoded = BitString.from_hex_batch([f" {text.upper()}\n" for text in texts], n_bits)
    assert decoded == bitstrings
    assert decoded == [BitString.from_hex(text, n_bits) for text in texts]


def _corrupt(text, kind):
    if kind == "digit":
        return text[:-1] + "g"
    if kind == "count":
        return text + "0"
    if kind == "padding":
        return f"{int(text, 16) | 1:0{len(text)}x}"
    return ""


@settings(max_examples=300, deadline=None)
@given(
    n_bits=st.integers(min_value=1, max_value=300),
    kind=st.sampled_from(["digit", "count", "padding", "empty"]),
    data=st.data(),
)
def test_hex_batch_and_scalar_reject_each_malformed_item_property(n_bits, kind, data):
    if kind == "padding" and n_bits % 4 == 0:
        n_bits += 1
    values = data.draw(st.lists(st.integers(0, (1 << n_bits) - 1), min_size=1, max_size=6))
    texts = BitString.to_hex_batch([BitString.from_int(v, n_bits) for v in values])
    bad = data.draw(st.integers(0, len(texts) - 1))
    texts[bad] = _corrupt(texts[bad], kind)
    with pytest.raises(ValueError):
        BitString.from_hex_batch(texts, n_bits)
    with pytest.raises(ValueError):
        BitString.from_hex(texts[bad], n_bits)


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=6),
    n_cols=st.integers(min_value=1, max_value=130),
    data=st.data(),
)
def test_rows_match_per_row_construction_and_stay_read_only_property(n_rows, n_cols, data):
    matrix = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
                                min_size=n_rows, max_size=n_rows))
    arr = np.array(matrix, dtype=np.uint8).reshape(n_rows, n_cols)
    rows = BitString.rows(arr)
    assert rows == [BitString(row) for row in arr]
    if n_rows:
        arr[0, 0] ^= 1  # the rows hold a copy
        assert rows[0].bits[0] != arr[0, 0]
    for row in rows:
        with pytest.raises(ValueError):
            row.bits[0] = 1
        with pytest.raises(ValueError):
            row.bits.flags.writeable = True
    if n_rows:
        arr[-1, -1] = data.draw(st.integers(2, 255))
        with pytest.raises(ValueError, match="0 or 1"):
            BitString.rows(arr)


@pytest.mark.parametrize(
    "value, form",
    [(v, f) for v in (2, 256, -1, 0.5) for f in ("int64", "float", "list") if f != "int64" or v != 0.5],
)
def test_entries_outside_0_1_are_refused_before_any_cast(value, form):
    # 256 would wrap to 0 and 0.5 truncate to 0 in a uint8 cast
    row = np.array([0, 1, value, 1], dtype=np.int64 if form == "int64" else float)
    matrix = np.stack([np.zeros_like(row), row])
    if form == "list":
        row, matrix = [0, 1, value, 1], matrix.tolist()
    with pytest.raises(ValueError, match="0 or 1"):
        BitString(row)
    with pytest.raises(ValueError, match="0 or 1"):
        BitString.rows(matrix)


@st.composite
def _made_by_the_class(draw):
    """A BitString from each constructor that wraps the class's own bits unchecked."""
    n_bits = draw(st.integers(min_value=1, max_value=200))
    value, other = (draw(st.integers(min_value=0, max_value=(1 << n_bits) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["from_int", "random", "xor", "hex", "hex-scalar"]))
    if kind == "from_int":
        return BitString.from_int(value, n_bits)
    if kind == "random":
        return BitString.random(n_bits, substream(value, "made"))
    if kind == "xor":
        return BitString.from_int(value, n_bits) ^ BitString.from_int(other, n_bits)
    texts = BitString.to_hex_batch([BitString.from_int(value, n_bits), BitString.from_int(other, n_bits)])
    if kind == "hex":
        return BitString.from_hex_batch(texts, n_bits)[draw(st.integers(0, 1))]
    return BitString.from_hex(texts[1].upper(), n_bits)


@settings(max_examples=300, deadline=None)
@given(_made_by_the_class())
def test_bits_the_class_makes_pass_the_check_and_are_read_only_property(made):
    assert made == BitString(made.bits)
    assert made.bits.dtype == np.uint8 and made.bits.ndim == 1
    assert not made.bits.flags.writeable
    with pytest.raises(ValueError):
        made.bits[0] = 1


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (4,), (2, 2, 2)])
def test_rows_rejects_zero_width_and_non_matrices(shape):
    with pytest.raises(ValueError):
        BitString.rows(np.zeros(shape, dtype=np.uint8))


def test_xor_and_hamming():
    a = BitString([1, 0, 1, 0])
    b = BitString([1, 1, 0, 0])
    assert (a ^ b) == BitString([0, 1, 1, 0])
    assert a.hamming(b) == 2
    assert a.fractional_hamming(b) == 0.5
    with pytest.raises(ValueError):
        a ^ BitString([1])


def test_immutability():
    bs = BitString([1, 0, 1])
    with pytest.raises(ValueError):
        bs.bits[0] = 0


@settings(max_examples=300, deadline=None)
@given(
    a=st.lists(st.integers(0, 1), min_size=1, max_size=130),
    b=st.lists(st.integers(0, 1), min_size=1, max_size=130),
    same=st.booleans(),
)
def test_eq_agrees_with_array_equal_property(a, b, same):
    x, y = BitString(a), BitString(list(a) if same else b)
    assert (x == y) == np.array_equal(x.bits, y.bits)
    assert (y == x) == (x == y)


def test_hashable_and_eq():
    a = BitString([1, 0, 1])
    assert a in {BitString([1, 0, 1])}
    assert a != BitString([1, 0])


def test_random_is_stream_deterministic():
    a = BitString.random(128, substream(7, "x"))
    b = BitString.random(128, substream(7, "x"))
    c = BitString.random(128, substream(7, "y"))
    assert a == b
    assert a != c


def test_substreams_are_independent_of_draw_order():
    r1 = substream(3, "a")
    r1.standard_normal(1000)
    first = substream(3, "b").standard_normal(4)
    second = substream(3, "b").standard_normal(4)
    assert np.array_equal(first, second)
