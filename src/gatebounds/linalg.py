"""Dense complex matrix helpers shared by the channel and norm code.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
:func:`as_complex_matrix` is the one gate for a matrix from outside the
package: it refuses a non-square shape and a non-finite entry with a
``ValueError`` that names the matrix.  Every helper here passes its input
through that gate.  The Hermitian helpers then test Hermiticity once,
within ``TOLERANCE``; unitarity is tested in one place,
``channels._entered_unitary``, where every unitary enters, from
:func:`unitary_defect`, so :func:`unitary_eigenphases` does not test it
again.  The checked Hermitian helpers
(:func:`hermitian_eigendecomposition`, :func:`trace_norm`) serve Choi
matrices read by the CLI and the density matrices of
:func:`gatebounds.metrics.trace_distance`.  Their eigenvalues come from
numpy's LAPACK through :func:`gatebounds.kernels.eigh_kernel`, in numpy's
ascending order.  Matrices the package derives from checked input go
straight to ``np.linalg`` in the same order, without a second test (see
:mod:`gatebounds.kernels`).
"""

import numpy as np

from . import kernels

# The one tolerance of a matrix from outside the package: Hermiticity here,
# unitarity and trace preservation in channels, a density's trace and
# positivity in metrics.trace_distance, and a CLI Choi file's positivity.
# Sharing it keeps diamond_distance's unitary fast path sound.
# pauli.PAULI_TOL and sdp.HERMITIAN_TOL stay apart; their comments say why.
TOLERANCE = 1e-9
# Input accepted with a defect above this, the largest entry of
# sum_k A_k^dagger A_k - I or of U^dagger U - I, is moved to the nearest
# channel or unitary where it enters (channels.Channel,
# channels.unitary_channel, channels.discrepancy): an input accepted at
# TOLERANCE is no channel, and the fidelity bounds have an infinite slope at
# a fidelity of 1.  A defect at or below it is the rounding of an exact
# input, left as it is, so that such input keeps its numbers to the last bit.
NORMALIZE_ABOVE = 1e-13


def as_complex_matrix(m, name="matrix"):
    """``m`` as a square complex128 array, or ValueError naming ``name`` for
    a non-square shape or a non-finite entry."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def unitary_defect(m):
    """The largest entry of |m^dagger m - I|."""
    a = as_complex_matrix(m)
    return float(np.abs(a.conj().T @ a - np.eye(len(a))).max())


def hermitian_eigendecomposition(m, name="matrix"):
    """Eigenvalues in numpy's ascending order and matching eigenvector columns.

    Input must be Hermitian within ``TOLERANCE``; the strictly Hermitian
    part is what gets diagonalized, so roundoff-level asymmetry is harmless.
    ``name`` names the matrix in the ``ValueError`` for bad input.
    """
    a = as_complex_matrix(m, name)
    adj = a.conj().T
    defect = float(np.abs(a - adj).max())
    if defect > TOLERANCE:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e}, tol {TOLERANCE:.3e})")
    return kernels.eigh_kernel((a + adj) / 2)


def trace_norm(m):
    """Sum of absolute eigenvalues; defined here for input that is Hermitian
    within ``TOLERANCE`` only."""
    w, _ = hermitian_eigendecomposition(m)
    return float(np.abs(w).sum())


def unitary_eigenphases(u):
    """Eigenvalue phases of a unitary matrix, ascending, in [-pi, pi].

    Unitarity is not tested here: a unitary from outside was tested where
    it entered (``channels.unitary_channel``, ``channels.discrepancy``).
    The eigenvalues of a unitary are perfectly conditioned, so the general
    eigensolver is accurate here.
    """
    return np.sort(np.angle(np.linalg.eigvals(as_complex_matrix(u, "unitary"))))
