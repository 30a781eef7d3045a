"""Hot numeric kernels: batched cipher rounds and 4-bit S-box table audits, in numpy.

One SPN kernel serves both directions: :class:`clonebench.suc.SucDevice`
builds an encrypt table set and an equivalent-inverse decrypt table set, and
runs either through :func:`spn_batch`.
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
