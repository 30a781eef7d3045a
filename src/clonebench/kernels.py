"""Hot numeric kernels: SPN cipher rounds and batched 4-bit S-box table audits.

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
"""
import numpy as np

# (-1)^popcount(m & v) for 4-bit m, v
_PARITY_SIGN = np.array(
    [[1 - 2 * (bin(m & v).count("1") & 1) for v in range(16)] for m in range(16)],
    dtype=np.int64,
)


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
def sbox_audit_batch(tables):
    """Max nonzero DDT entry and max |Walsh| over nonzero masks, per (n, 16) uint8 table."""
    tables = np.ascontiguousarray(tables, dtype=np.uint8)
    n = tables.shape[0]
    ddt_max = np.zeros(n, np.int64)
    rows = np.repeat(np.arange(n), 16)
    cols = np.arange(16)
    for a in range(1, 16):
        out = tables[:, cols ^ a] ^ tables
        counts = np.zeros((n, 16), np.int64)
        np.add.at(counts, (rows, out.ravel().astype(np.int64)), 1)
        counts[:, 0] = 0
        ddt_max = np.maximum(ddt_max, counts.max(axis=1))
    walsh_max = np.zeros(n, np.int64)
    t64 = tables.astype(np.int64)
    for a in range(1, 16):
        pa = _PARITY_SIGN[a, cols]
        for b in range(1, 16):
            w = (pa[None, :] * _PARITY_SIGN[b, t64]).sum(axis=1)
            walsh_max = np.maximum(walsh_max, np.abs(w))
    return ddt_max, walsh_max
