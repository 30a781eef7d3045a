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
    assert BitString.from_hex("af") == bs


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
        with pytest.raises(ValueError):
            BitString.from_hex(text)
    for n_bits in (0, 4, 9, 13):
        with pytest.raises(ValueError):
            BitString.from_hex("abc", n_bits)


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
@given(st.lists(_sized_values(), max_size=8))  # widths mix within a batch
def test_hex_batch_agrees_with_scalar_codecs_property(items):
    bitstrings = [BitString.from_int(value, n_bits) for value, n_bits in items]
    texts = BitString.to_hex_batch(bitstrings)
    assert texts == [b.to_hex() for b in bitstrings]
    assert texts == [f"{value << (-n_bits % 4):0{-(-n_bits // 4)}x}" for value, n_bits in items]
    # undeclared widths: four bits per digit, mixed within the call
    assert BitString.from_hex_batch(texts) == [BitString.from_hex(t) for t in texts]
    for n_bits in {n for _, n in items}:
        same = [i for i, (_, n) in enumerate(items) if n == n_bits]
        decoded = BitString.from_hex_batch([f" {texts[i].upper()}\n" for i in same], n_bits)
        assert decoded == [bitstrings[i] for i in same]
        assert decoded == [BitString.from_hex(texts[i], n_bits) for i in same]


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
