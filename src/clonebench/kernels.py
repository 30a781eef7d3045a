"""Hot numeric kernels: SPN cipher rounds and batched 4-bit S-box spectra.

One table format serves both cipher directions.  A round XORs its key, then
ORs together one lookup per nibble: nibble j's table holds S(v) already
scattered to the bit positions the permutation gives nibble j.  The
permutation P(4j+b) = 16b+j is PRESENT's (Bogdanov et al., CHES 2007): nibble
j+1's bits land one position above nibble j's, so the two nibbles of byte p
land where those of byte 0 do, moved up by a fixed shift.  :func:`byte_tables`
turns the (rounds, 16, 16) nibble tables that :class:`clonebench.suc.SucDevice`
builds into one 256-entry uint64 table per round, byte 0's, and a (rounds, 8)
shift array: 2p in the encrypt rounds, 0, 32, 1, 33, 2, 34, 3, 35 in the
inverse rounds, and 8p in the last inverse round, which scatters through the
identity.  The form is exact.  One broadcast compare checks that each nibble's
table is the same nibble of byte 0 shifted by its byte's shift, and a second
check that no shift pushes a bit past bit 63; since a shift distributes over
OR, ``tables[r, x] << shifts[r, p]`` is then bit for bit the OR of byte p's
two nibble lookups.  A 40-round set takes 80 KiB of tables and 320 bytes of
shifts; eight tables per round would take 640 KiB.

Two evaluators read the format, each with 8 lookups per round.
:func:`spn_batch` runs an array of blocks in numpy, with 8 ``take`` calls per
round into reused buffers.  :func:`spn_block` runs one block on Python ints,
so one block does not pay numpy's per-call overhead 320 times: each round
splits its state into bytes with one ``int.to_bytes`` and indexes Python
sequences of the same tables (:func:`spn_block_rounds`).  Every round of a set
holds a permutation of one value set, so the rounds share one int object per
distinct value: a 40-round set retains about 94 KB, where ``tolist()`` copies
would hold 414 KB and memoryviews would allocate a new int on every lookup.

One float32 Walsh-Hadamard transform gives the DDT and Walsh tables of a
batch of S-boxes, exactly.  :func:`sbox_spectra` returns them as int64 for
the trail sampler, which draws output differences from the DDT rows.
:func:`sbox_audit_batch`, the personalization filter, transforms
``AUDIT_CHUNK`` tables at a time and reads its two maxima straight from the
float32 spectra, so its temporaries are three 0.5 MiB arrays however many
tables it audits; callers that draw tables in bulk, such as
:func:`clonebench.suc.sbox_entropy_bits`, draw one chunk at a time too.
"""
import operator

import numpy as np

# (-1)^popcount(m & v) for 4-bit m, v: the 16x16 Sylvester-Hadamard matrix.  Spectra
# are computed in float32 so the products run through BLAS; every intermediate is an
# integer of magnitude at most 2^16, which float32 holds exactly.
_PARITY_SIGN = np.array(
    [[1 - 2 * (bin(m & v).count("1") & 1) for v in range(16)] for m in range(16)],
    dtype=np.float32,
)
AUDIT_CHUNK = 512  # tables per spectra call: about 0.5 MiB per float32 spectrum


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# --------------------------------------------------------------------------- SPN rounds
def byte_tables(nibble_tables):
    """The byte-table form ``(tables, shifts)`` of a (rounds, 16, 16) nibble table set.

    ``nibble_tables[r, j, v]`` is round r's output for value v of nibble j
    alone.  ``tables[r, x]`` (uint64, C order) is the output of byte 0, which
    holds nibbles 0 and 1, for byte value x; ``shifts[r, p]`` (uint8) moves it
    onto byte p's output, so that byte p's table is ``tables[r] << shifts[r, p]``.
    Raises ValueError unless each nibble's table is that shift of the table of
    the same nibble of byte 0, with no bit pushed past bit 63.
    """
    # nib[r, p, h, v]: nibble 2p + h of round r, value v
    nib = np.ascontiguousarray(nibble_tables, dtype=np.uint64).reshape(-1, 8, 2, 16)
    union = np.bitwise_or.reduce(nib, axis=(2, 3))
    # index of each union's lowest set bit; frexp is exact on powers of two
    low = np.frexp((union & (~union + np.uint64(1))).astype(np.float64))[1] - 1
    shifts = low - low[:, :1]
    if not 0 <= shifts.min() <= shifts.max() <= 63:
        raise ValueError("byte tables are not shifts of one table")
    shifts = shifts.astype(np.uint64)
    if not np.array_equal(nib[:, :1] << shifts[:, :, None, None], nib):
        raise ValueError("byte tables are not shifts of one table")
    head = union[:, :1]
    if ((head << shifts) >> shifts != head).any():
        raise ValueError("a byte-table shift pushes a bit past bit 63")
    # tables[r, 16 * hi + lo] = nib[r, 0, 0, lo] | nib[r, 0, 1, hi]
    tables = (nib[:, 0, 0, None, :] | nib[:, 0, 1, :, None]).reshape(-1, 256)
    return tables, shifts.astype(np.uint8)


def spn_batch(states, tables, shifts, keys):
    """Run SPN rounds over a uint64 block array.

    Round r XORs ``keys[r]`` into the state, then ORs together
    ``tables[r, byte_p] << shifts[r, p]`` over the 8 bytes; ``keys[-1]``
    whitens the output.  tables, shifts are as from :func:`byte_tables`, keys
    is (rounds + 1,) uint64.  Four block-sized buffers are reused throughout.
    """
    s = states.copy()
    acc = np.empty_like(s)
    word = np.empty_like(s)
    moved = np.empty_like(s)
    index = word.view(np.int64)  # bytes are < 256, so the same bits as int64
    shifts = shifts.astype(np.uint64)
    for r, t in enumerate(tables):
        s ^= keys[r]
        np.bitwise_and(s, np.uint64(255), out=word)
        np.take(t, index, out=acc, mode="clip")
        for p in range(1, 8):
            np.right_shift(s, np.uint64(8 * p), out=word)
            if p < 7:
                word &= np.uint64(255)
            np.take(t, index, out=moved, mode="clip")
            moved <<= shifts[r, p]
            acc |= moved
        s, acc = acc, s
    s ^= keys[len(tables)]
    return s


def spn_block_rounds(tables, shifts, keys):
    """Wrap a table set for :func:`spn_block`: a (256-entry table, int key,
    seven int shifts) tuple per round and the int whitening key.

    Each table is a tuple of Python ints.  All rounds draw their entries from
    one pool holding one int per distinct value of ``tables``, so a 40-round
    set retains about 94 KB of tuples and ints rather than 256 ints per round.
    """
    values, index = np.unique(tables, return_inverse=True)
    pool = values.tolist()
    keys = keys.tolist()
    rounds = tuple(
        (operator.itemgetter(*row)(pool), key, *shift[1:])
        for row, key, shift in zip(index.reshape(tables.shape).tolist(), keys, shifts.tolist())
    )
    return rounds, keys[-1]


def spn_block(state, rounds, out_key):
    """The rounds of :func:`spn_batch` over one block held in a Python int.

    Each round XORs its key, splits the state into its 8 bytes, least
    significant first, and ORs ``table[byte_p] << s_p`` over them (byte 0's
    shift is 0); out_key whitens the output.  state must lie in
    0 .. 2**64 - 1: any other int raises OverflowError.
    """
    for t, k, s1, s2, s3, s4, s5, s6, s7 in rounds:
        b0, b1, b2, b3, b4, b5, b6, b7 = (state ^ k).to_bytes(8, "little")
        state = (
            t[b0] | t[b1] << s1 | t[b2] << s2 | t[b3] << s3
            | t[b4] << s4 | t[b5] << s5 | t[b6] << s6 | t[b7] << s7
        )
    return state ^ out_key


# --------------------------------------------------------------------------- S-box audit
def _spectra(tables):
    """float32 ``(256 * DDT, Walsh)`` of (n, 16) 4-bit S-boxes; every entry is an exact integer."""
    walsh = _PARITY_SIGN @ _PARITY_SIGN[np.asarray(tables, dtype=np.intp)]
    return _PARITY_SIGN @ (walsh * walsh) @ _PARITY_SIGN, walsh


def sbox_spectra(tables):
    """Exact DDT and Walsh tables, each (n, 16, 16) int64, of (n, 16) 4-bit S-boxes.

    ``walsh[i, a, b]`` = sum over x of (-1)^(a.x + b.S_i(x)) and ``ddt[i, a, b]``
    = #{x : S_i(x ^ a) ^ S_i(x) = b}.  With H the Sylvester-Hadamard matrix,
    W = H @ H[S] and DDT = H @ (W * W) @ H / 256 (Chabaud & Vaudenay, "Links
    between differential and linear cryptanalysis", EUROCRYPT '94).
    """
    ddt, walsh = _spectra(tables)
    ddt /= 256
    return ddt.astype(np.int64), walsh.astype(np.int64)


def sbox_audit_batch(tables):
    """Max DDT entry and max |Walsh| over nonzero a, b, per (n, 16) uint8 table."""
    ddt_max = np.empty(len(tables), np.int64)
    walsh_max = np.empty(len(tables), np.int64)
    for start in range(0, len(tables), AUDIT_CHUNK):
        chunk = slice(start, start + AUDIT_CHUNK)
        ddt, walsh = _spectra(tables[chunk])
        walsh = walsh[:, 1:, 1:]
        # maxima of exact integers: scaling by 1/256 and negation commute with them
        ddt_max[chunk] = ddt[:, 1:, 1:].max(axis=(1, 2)) / 256
        walsh_max[chunk] = np.maximum(walsh.max(axis=(1, 2)), -walsh.min(axis=(1, 2)))
    return ddt_max, walsh_max
