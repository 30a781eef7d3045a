"""The numpy kernels: S-box audits against the scalar reference."""
import numpy as np

from clonebench import kernels, substream
from test_suc import _oracle_maxima


def test_backend_flag():
    assert kernels.active_backend() == "numpy"


def test_audit_batch_matches_scalar_reference():
    rng = substream(14, "audit-ref")
    tables = np.argsort(rng.random((32, 16)), axis=1).astype(np.uint8)
    d, w = kernels.sbox_audit_batch(tables)
    for i in range(tables.shape[0]):
        assert _oracle_maxima(tables[i].tolist()) == (int(d[i]), int(w[i]))


def test_identity_sbox_saturates_audit():
    tables = np.arange(16, dtype=np.uint8)[None, :]
    d, w = kernels.sbox_audit_batch(tables)
    assert int(d[0]) == 16
    assert int(w[0]) == 16


def test_audit_chunks_agree_with_one_spectra_call():
    tables = np.argsort(substream(15, "audit-chunks").random((2500, 16)), axis=1).astype(np.uint8)
    ddt, walsh = kernels.sbox_spectra(tables)
    d, w = kernels.sbox_audit_batch(tables)
    assert np.array_equal(d, ddt[:, 1:, 1:].max(axis=(1, 2)))
    assert np.array_equal(w, np.abs(walsh[:, 1:, 1:]).max(axis=(1, 2)))
