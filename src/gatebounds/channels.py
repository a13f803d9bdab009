"""Completely positive trace-preserving maps in Kraus form.

A :class:`Channel` wraps a validated tuple of Kraus operators.  Instances
are immutable (the stored arrays are marked read-only) and cache their Choi
matrix on first use, so they are safe to share between threads.
"""

from functools import cached_property

import numpy as np

from . import linalg

CPTP_TOL = 1e-9

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class ChannelValidationError(ValueError):
    """Kraus operators that do not define a CPTP map within tolerance."""


class Channel:
    """A CPTP map, stored as Kraus operators of a fixed dimension."""

    def __init__(self, kraus, tol=CPTP_TOL):
        ops = []
        for k, op in enumerate(kraus):
            a = linalg.as_complex_matrix(op, f"Kraus operator {k}")
            if not np.isfinite(a).all():
                raise ChannelValidationError(f"Kraus operator {k} has a non-finite entry")
            a = a.copy()
            a.flags.writeable = False
            ops.append(a)
        if not ops:
            raise ChannelValidationError("need at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(a.shape[0] != dim for a in ops):
            raise ChannelValidationError("Kraus operators differ in dimension")
        total = sum(a.conj().T @ a for a in ops)
        defect = float(np.abs(total - np.eye(dim)).max())
        if not defect <= tol:
            raise ChannelValidationError(
                f"Kraus operators are not trace preserving: defect {defect:.3e} exceeds {tol:.3e}"
            )
        self.dim = dim
        self.kraus = tuple(ops)

    @cached_property
    def choi(self):
        """Choi matrix, output factor first, normalized so the trace is dim."""
        d = self.dim
        j = np.zeros((d * d, d * d), dtype=np.complex128)
        for a in self.kraus:
            v = a.ravel()
            j += np.outer(v, v.conj())
        j.flags.writeable = False
        return j

    def apply(self, rho):
        """Apply the map to a density (or any square) matrix."""
        a = linalg.as_complex_matrix(rho, "state")
        if a.shape[0] != self.dim:
            raise ValueError(f"state dimension {a.shape[0]} does not match channel dimension {self.dim}")
        out = np.zeros_like(a)
        for k in self.kraus:
            out += k @ a @ k.conj().T
        return out

    def __repr__(self):
        return f"Channel(dim={self.dim}, kraus={len(self.kraus)})"


def identity_channel(dim):
    return Channel([np.eye(dim)])


def unitary_channel(u, tol=CPTP_TOL):
    a = linalg.as_complex_matrix(u, "unitary")
    if not linalg.is_unitary(a, tol):
        raise ChannelValidationError("matrix is not unitary within tolerance")
    return Channel([a])


def compose(outer, inner):
    """Channel applying ``inner`` first, then ``outer``."""
    if outer.dim != inner.dim:
        raise ValueError("cannot compose channels of different dimension")
    return Channel([a @ b for a in outer.kraus for b in inner.kraus])


def mix(terms):
    """Convex mixture of channels given as (weight, channel) pairs."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty mixture")
    weights = np.array([w for w, _ in terms], dtype=float)
    if weights.min() < 0:
        raise ValueError("mixture weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {weights.sum()!r}, not 1")
    dim = terms[0][1].dim
    if any(ch.dim != dim for _, ch in terms):
        raise ValueError("mixture channels differ in dimension")
    kraus = []
    for w, ch in terms:
        if w == 0.0:
            continue
        root = np.sqrt(w)
        kraus.extend(root * a for a in ch.kraus)
    return Channel(kraus)


def discrepancy(actual, ideal):
    """Compose the implemented channel with the inverse of the ideal gate.

    ``ideal`` is the target unitary as a matrix.  The result is the channel
    whose distance from the identity is the gate's error rate.
    """
    u = linalg.as_complex_matrix(ideal, "ideal gate")
    if u.shape[0] != actual.dim:
        raise ValueError("ideal gate dimension does not match the channel")
    return compose(actual, unitary_channel(u.conj().T))


def depolarizing(r):
    """Single-qubit depolarizing channel with depolarization weight r."""
    if not 0.0 <= r <= 4.0 / 3.0:
        raise ValueError(f"depolarizing weight must lie in [0, 4/3], got {r!r}")
    eye = np.eye(2, dtype=np.complex128)
    return Channel(
        [
            np.sqrt(1.0 - 3.0 * r / 4.0) * eye,
            np.sqrt(r / 4.0) * _SIGMA_X,
            np.sqrt(r / 4.0) * _SIGMA_Y,
            np.sqrt(r / 4.0) * _SIGMA_Z,
        ]
    )


def unitary_error(theta):
    """Single-qubit unitary with eigenvalues exp(+i theta), exp(-i theta)."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"rotation angle must lie in [0, pi], got {theta!r}")
    return Channel([np.diag([np.exp(1j * theta), np.exp(-1j * theta)])])


def amplitude_damping(r):
    """Single-qubit amplitude damping with decay probability r."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"decay probability must lie in [0, 1], got {r!r}")
    a0 = np.array([[1, 0], [0, np.sqrt(1.0 - r)]], dtype=np.complex128)
    a1 = np.array([[0, np.sqrt(r)], [0, 0]], dtype=np.complex128)
    return Channel([a0, a1])


def phase_matrix(dim, theta):
    """The controlled-phase style unitary diag(1, ..., 1, exp(i theta))."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    diag = np.ones(dim, dtype=np.complex128)
    diag[-1] = np.exp(1j * theta)
    return np.diag(diag)


def generalized_cphase(dim, theta):
    """Unitary channel of the dim-level phase gate diag(1, ..., e^{i theta})."""
    return Channel([phase_matrix(dim, theta)])


def lambda_mixture(dim, lam):
    """Gate that fires with probability 1 - lam and idles otherwise.

    Returns the pair (actual channel, ideal gate matrix) for the theta = pi
    phase gate.  The discrepancy of this pair has error rate exactly lam, at
    every dimension, while its fidelity defect shrinks like 1/dim^2.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"idle probability must lie in [0, 1], got {lam!r}")
    u = phase_matrix(dim, np.pi)
    actual = mix([(1.0 - lam, unitary_channel(u)), (lam, identity_channel(dim))])
    return actual, u
