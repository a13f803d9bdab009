"""Distinguishability measures and the average gate fidelity."""

import numpy as np

from . import linalg
from .channels import checked_distribution, checked_real

DENSITY_TOL = 1e-9

# Sentinel for quantities of the form 1/(1 - x) at x = 1.  Reports carry it
# through instead of an infinity.
EXACT = "exact"


def total_variation_distance(mu, nu):
    """Half the l1 distance between two probability vectors, each checked
    by :func:`gatebounds.channels.checked_distribution`."""
    p = np.array(checked_distribution(mu, "distribution mu"))
    q = np.array(checked_distribution(nu, "distribution nu"))
    if p.shape != q.shape:
        raise ValueError(f"distributions must be equal-length vectors, got {p.shape} and {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def _check_density(rho, name):
    a = linalg.as_complex_matrix(rho, name)
    w, _ = linalg.hermitian_eigendecomposition(a, name)
    if abs(a.trace().real - 1.0) > DENSITY_TOL or abs(a.trace().imag) > DENSITY_TOL:
        raise ValueError(f"{name} does not have unit trace")
    if w[0] < -DENSITY_TOL:
        raise ValueError(f"{name} is not positive semidefinite")
    return a


def trace_distance(rho, sigma):
    """Half the trace norm of the difference of two density matrices, each
    checked to be a state within ``DENSITY_TOL``."""
    a = _check_density(rho, "rho")
    b = _check_density(sigma, "sigma")
    if a.shape != b.shape:
        raise ValueError("density matrices differ in dimension")
    return 0.5 * linalg.trace_norm(a - b)


def average_gate_fidelity(channel):
    """Average fidelity of a channel to the identity.

    Evaluated in closed form from the Kraus traces,
    (d + sum_k |tr A_k|^2) / (d + d^2), which equals the Haar average of
    <psi| E(|psi><psi|) |psi>.
    """
    d = channel.dim
    total = sum(abs(np.trace(a)) ** 2 for a in channel.kraus)
    return float((d + total) / (d + d * d))


def inverse_infidelity(fidelity):
    """1/(1 - fidelity); the sentinel ``EXACT`` when fidelity is exactly 1."""
    fidelity = checked_real(fidelity, "fidelity", 0, 1)
    if fidelity == 1.0:
        return EXACT
    return 1.0 / (1.0 - fidelity)
