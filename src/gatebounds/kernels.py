"""The two dense numeric kernels, both on numpy's LAPACK.

``eigh_kernel`` is the Hermitian eigendecomposition behind
:func:`gatebounds.linalg.hermitian_eigendecomposition`, its only caller
(and so behind ``trace_norm`` and ``min_hermitian_eigenvalue``).  Other
eigenvalues call LAPACK directly, so a count of ``eigh_kernel`` calls
covers only that path: the solver's step lengths (``sdp._max_steps``), the
rank that picks a diamond route (``diamond._route``), the witness
certificate (``diamond._witness_value``), the fidelity route's Gram bound,
and the batched ``eigvalsh`` of ``pair_scan_kernel``, the vectorized
sampled trace-norm scan behind the brute-force diamond-distance lower
bound.  The scan reads the channels only through the Choi matrix J of
E - F: for a sampled state with d x d coefficient matrix Psi_s, the output
is M_s = (I x Psi_s^T) J (I x Psi_s^T)^dagger (Watrous, "Semidefinite
programs for completely bounded norms", 2009), two dense products per batch.
"""

import numpy as np

# Read only by the benchmark harness's environment report
# (perfbench/run.py): the package uses no numba, and nothing reads ENV_VAR.
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
    ((E - F) x id)(|psi><psi|), states given as rows of ``psis``.

    With Psi_s = ``psis[s].reshape(d, d)`` (system index first) and J the
    Choi matrix of E - F (output factor first, row-major vec, as
    ``Channel.choi``), each sampled output is

        M_s = (I x Psi_s^T) J (I x Psi_s^T)^dagger,

    so the Kraus operators are read once, to build J, and the per-sample
    cost does not depend on how many there are.
    """
    d = kraus_e.shape[1]
    ns = psis.shape[0]
    ve = kraus_e.reshape(kraus_e.shape[0], d * d)
    vf = kraus_f.reshape(kraus_f.shape[0], d * d)
    choi = ve.T @ ve.conj() - vf.T @ vf.conj()
    mats = psis.reshape(ns, d, d)
    # t[(s, c), (a, x, y)] = sum_b Psi_s[b, c] J[(a, b), (x, y)]
    choi_b = choi.reshape(d, d, d * d).transpose(1, 0, 2).reshape(d, d**3)
    t = mats.transpose(0, 2, 1).reshape(ns * d, d) @ choi_b
    # m[s, (c, a, x), z] = sum_y t[(s, c), (a, x, y)] conj Psi_s[y, z]
    m = t.reshape(ns, d**3, d) @ mats.conj()
    del t  # free it before the reorder copy: at d = 4 each array is 8 MB
    # rows (a, c), columns (x, z)
    m = m.reshape(ns, d, d, d * d).transpose(0, 2, 1, 3).reshape(ns, d * d, d * d)
    w = np.linalg.eigvalsh(m)
    return float(0.5 * np.abs(w).sum(axis=1).max())
