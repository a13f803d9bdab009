"""The two dense numeric kernels, both on numpy's LAPACK.

``eigh_kernel`` is the Hermitian eigendecomposition behind every eigenvalue
in the package; ``pair_scan_kernel`` is the vectorized sampled trace-norm
scan behind the brute-force diamond-distance lower bound.
"""

import numpy as np

# Kept so that environment reports written by the benchmark harness keep
# their fields: the package uses no numba, and nothing reads ENV_VAR.
HAVE_NUMBA = False
ENV_VAR = "GATEBOUNDS_BACKEND"


def active_backend():
    """Name of the numeric backend; always "numpy"."""
    return "numpy"


def eigh_kernel(a):
    """``np.linalg.eigh(a)``: ascending eigenvalues and eigenvector columns."""
    return np.linalg.eigh(a)


def pair_scan_kernel(kraus_e, kraus_f, psis):
    """Max over sampled pure states of half the trace norm of
    ((E - F) x id)(|psi><psi|), states given as rows of ``psis``."""
    d = kraus_e.shape[1]
    ns = psis.shape[0]
    mats = psis.reshape(ns, d, d)
    out_e = np.einsum("kab,sbc->ksac", kraus_e, mats).reshape(kraus_e.shape[0], ns, d * d)
    out_f = np.einsum("kab,sbc->ksac", kraus_f, mats).reshape(kraus_f.shape[0], ns, d * d)
    m = np.einsum("ksi,ksj->sij", out_e, out_e.conj())
    m -= np.einsum("ksi,ksj->sij", out_f, out_f.conj())
    w = np.linalg.eigvalsh(m)
    return float(0.5 * np.abs(w).sum(axis=1).max())
