"""Dense complex matrix helpers shared by the channel and norm code.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Functions validate shape and (where required) hermiticity, and raise
``ValueError`` on bad input.  Eigenvalues come from numpy's LAPACK, through
:func:`gatebounds.kernels.eigh_kernel` for Hermitian matrices.
"""

import numpy as np

from . import kernels

HERMITIAN_TOL = 1e-9


def as_complex_matrix(m, name="matrix"):
    """Coerce to a square complex128 array, rejecting non-square input."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def is_hermitian(m, tol=HERMITIAN_TOL):
    a = as_complex_matrix(m)
    return float(np.abs(a - a.conj().T).max()) <= tol


def is_unitary(m, tol=HERMITIAN_TOL):
    a = as_complex_matrix(m)
    eye = np.eye(a.shape[0])
    return float(np.abs(a.conj().T @ a - eye).max()) <= tol


def kron(a, b):
    """Kronecker product with complex128 output."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(m, dims, keep):
    """Trace out one tensor factor of a matrix on a bipartite space.

    ``dims`` is the pair of factor dimensions and ``keep`` selects the factor
    kept (0 for the first, 1 for the second).
    """
    a = as_complex_matrix(m)
    d0, d1 = int(dims[0]), int(dims[1])
    if d0 * d1 != a.shape[0]:
        raise ValueError(f"dims {dims} do not factor dimension {a.shape[0]}")
    t = a.reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    if keep == 1:
        return np.einsum("ijil->jl", t)
    raise ValueError("keep must be 0 or 1")


def hermitian_eigendecomposition(m, tol=HERMITIAN_TOL):
    """Eigenvalues (descending) and matching eigenvector columns.

    Input must be Hermitian within ``tol``; the strictly Hermitian part is
    what gets diagonalized, so roundoff-level asymmetry is harmless.
    """
    a = as_complex_matrix(m)
    if not is_hermitian(a, tol):
        defect = float(np.abs(a - a.conj().T).max())
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e}, tol {tol:.3e})")
    h = (a + a.conj().T) / 2
    w, v = kernels.eigh_kernel(h)
    return w[::-1], v[:, ::-1]


def min_hermitian_eigenvalue(m, tol=HERMITIAN_TOL):
    w, _ = hermitian_eigendecomposition(m, tol)
    return float(w[-1])


def trace_norm(m, tol=HERMITIAN_TOL):
    """Sum of absolute eigenvalues; defined here for Hermitian input only."""
    w, _ = hermitian_eigendecomposition(m, tol)
    return float(np.abs(w).sum())


def unitary_eigenphases(u, tol=HERMITIAN_TOL):
    """Eigenvalue phases of a unitary matrix, ascending, in [-pi, pi].

    The eigenvalues of a unitary are perfectly conditioned, so the general
    eigensolver is accurate here.
    """
    a = as_complex_matrix(u, "unitary")
    if not is_unitary(a, tol):
        raise ValueError("matrix is not unitary within tolerance")
    return np.sort(np.angle(np.linalg.eigvals(a)))
