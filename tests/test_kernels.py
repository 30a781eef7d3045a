"""The numpy kernels: S-box audits against the scalar reference."""
import numpy as np

from clonebench import kernels, substream


def test_backend_flag():
    assert kernels.active_backend() == "numpy"


def test_audit_batch_matches_scalar_reference():
    from clonebench.suc import sbox_audit

    rng = substream(14, "audit-ref")
    tables = np.argsort(rng.random((32, 16)), axis=1).astype(np.uint8)
    d, w = kernels.sbox_audit_batch(tables)
    for i in range(tables.shape[0]):
        dd, ww = sbox_audit(tables[i])
        assert (dd, ww) == (int(d[i]), int(w[i]))


def test_identity_sbox_saturates_audit():
    tables = np.arange(16, dtype=np.uint8)[None, :]
    d, w = kernels.sbox_audit_batch(tables)
    assert int(d[0]) == 16
    assert int(w[0]) == 16
