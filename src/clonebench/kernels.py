"""Hot numeric kernels: SPN cipher rounds and batched 4-bit S-box spectra.

One table format serves both cipher directions: :class:`clonebench.suc.SucDevice`
builds an encrypt table set and an equivalent-inverse decrypt table set, each
(rounds, 16, 16) uint64 with one key per round plus a whitening key.  Two
evaluators read it.  :func:`spn_batch` runs an array of blocks in numpy, 16
fancy-index calls per round.  :func:`spn_block` runs one block on Python ints
over flat 256-entry memoryviews of the same tables (:func:`spn_block_rounds`),
so one block does not pay numpy's per-call overhead 640 times.  In one traced
identify unit (``bench/run.py --workload identify --seed 2026 --trace 1``, on
a 2-vCPU Intel Xeon with Python 3.11) the 775 ``suc.encrypt`` calls took 97 ms
in all (``suc.encrypt.self_s``) against 2.9 s through :func:`spn_batch`, and
``kernels.spn_encrypt.calls`` fell from 787 to the 12 enrollment batches.

:func:`sbox_spectra` derives the full DDT and Walsh tables of a batch of
S-boxes from one Walsh-Hadamard transform.  Two callers read it: the
personalization filter :func:`sbox_audit_batch`, and the trail sampler, which
draws output differences from the DDT rows.  In one traced analysis unit (``--workload analysis``, same host) the
audit of 42752 tables took 0.12 s (``kernels.sbox_audit.self_s``) against
2.07 s with one pass per nonzero input difference and per mask pair.
"""
import numpy as np

# (-1)^popcount(m & v) for 4-bit m, v: the 16x16 Sylvester-Hadamard matrix.  Spectra
# are computed in float32 so the products run through BLAS; every intermediate is an
# integer of magnitude at most 2^16, which float32 holds exactly.
_PARITY_SIGN = np.array(
    [[1 - 2 * (bin(m & v).count("1") & 1) for v in range(16)] for m in range(16)],
    dtype=np.float32,
)
_AUDIT_CHUNK = 1024  # tables per spectra call, which bounds the audit's temporaries


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# --------------------------------------------------------------------------- SPN rounds
def spn_batch(states, tables, keys):
    """Run SPN rounds over a uint64 block array.

    Round r XORs ``keys[r]`` into the state, then ORs together
    ``tables[r, j, nibble_j]`` over the 16 nibbles; ``keys[-1]`` whitens the
    output.  tables is (rounds, 16, 16) uint64, keys is (rounds + 1,) uint64.
    """
    s = states.copy()
    n_rounds = tables.shape[0]
    for r in range(n_rounds):
        s ^= keys[r]
        acc = np.zeros_like(s)
        for j in range(16):
            nib = ((s >> np.uint64(4 * j)) & np.uint64(15)).astype(np.int64)
            acc |= tables[r, j, nib]
        s = acc
    return s ^ keys[n_rounds]


def spn_block_rounds(tables, keys):
    """Wrap a C-ordered table set for :func:`spn_block`: a (flat 256-entry table,
    int key) pair per round and the int whitening key.  The tables are not copied."""
    flat = memoryview(tables).cast("B").cast("Q")
    keys = keys.tolist()
    rounds = tuple((flat[256 * r:256 * (r + 1)], keys[r]) for r in range(len(keys) - 1))
    return rounds, keys[-1]


def spn_block(state, rounds, out_key):
    """The rounds of :func:`spn_batch` over one block held in a Python int.

    Each round XORs its key, then ORs ``table[16 * j | nibble_j]`` over the 16
    nibbles; out_key whitens the output.
    """
    for t, k in rounds:
        state ^= k
        state = (
            t[state & 15] | t[16 | state >> 4 & 15] | t[32 | state >> 8 & 15]
            | t[48 | state >> 12 & 15] | t[64 | state >> 16 & 15] | t[80 | state >> 20 & 15]
            | t[96 | state >> 24 & 15] | t[112 | state >> 28 & 15] | t[128 | state >> 32 & 15]
            | t[144 | state >> 36 & 15] | t[160 | state >> 40 & 15] | t[176 | state >> 44 & 15]
            | t[192 | state >> 48 & 15] | t[208 | state >> 52 & 15] | t[224 | state >> 56 & 15]
            | t[240 | state >> 60]
        )
    return state ^ out_key


# --------------------------------------------------------------------------- S-box audit
def sbox_spectra(tables):
    """Exact DDT and Walsh tables, each (n, 16, 16) int64, of (n, 16) 4-bit S-boxes.

    ``walsh[i, a, b]`` = sum over x of (-1)^(a.x + b.S_i(x)) and ``ddt[i, a, b]``
    = #{x : S_i(x ^ a) ^ S_i(x) = b}.  With H the Sylvester-Hadamard matrix,
    W = H @ H[S] and DDT = H @ (W * W) @ H / 256 (Chabaud & Vaudenay, "Links
    between differential and linear cryptanalysis", EUROCRYPT '94).
    """
    walsh = _PARITY_SIGN @ _PARITY_SIGN[np.asarray(tables, dtype=np.intp)]
    ddt = _PARITY_SIGN @ (walsh * walsh) @ _PARITY_SIGN
    ddt /= 256
    return ddt.astype(np.int64), walsh.astype(np.int64)


def sbox_audit_batch(tables):
    """Max DDT entry and max |Walsh| over nonzero a, b, per (n, 16) uint8 table."""
    ddt_max = np.empty(len(tables), np.int64)
    walsh_max = np.empty(len(tables), np.int64)
    for start in range(0, len(tables), _AUDIT_CHUNK):
        chunk = slice(start, start + _AUDIT_CHUNK)
        ddt, walsh = sbox_spectra(tables[chunk])
        ddt_max[chunk] = ddt[:, 1:, 1:].max(axis=(1, 2))
        walsh_max[chunk] = np.abs(walsh[:, 1:, 1:]).max(axis=(1, 2))
    return ddt_max, walsh_max
