"""Distinguishability measures and the average gate fidelity."""

from collections.abc import Mapping

import numpy as np

from . import linalg
from .channels import checked_channel, checked_distribution, checked_fidelity

# Sentinel for quantities of the form 1/(1 - x) at x = 1.  Reports carry it
# through instead of an infinity.
EXACT = "exact"


def total_variation_distance(mu, nu):
    """Half the l1 distance between two probability distributions, each
    checked by :func:`gatebounds.channels.checked_distribution`.

    Two sequences are compared by position and must be of one length.  Two
    mappings are aligned over the sorted union of their labels, a missing
    label reading 0.  A mapping against a sequence, and labels that cannot
    be sorted, raise ValueError.
    """
    p = checked_distribution(mu, "distribution mu")
    q = checked_distribution(nu, "distribution nu")
    if isinstance(mu, Mapping) != isinstance(nu, Mapping):
        raise ValueError("distributions mu and nu must both be mappings (labelled) or both sequences")
    if isinstance(mu, Mapping):
        try:
            labels = sorted(mu.keys() | nu.keys())
        except TypeError:
            raise ValueError("the labels of distributions mu and nu cannot be sorted") from None
        p, q = ([dict(zip(m, v)).get(k, 0.0) for k in labels] for m, v in ((mu, p), (nu, q)))
    if len(p) != len(q):
        raise ValueError(f"distributions must be equal-length vectors, got lengths {len(p)} and {len(q)}")
    return float(0.5 * np.abs(np.subtract(p, q)).sum())


def _check_density(rho, name):
    a = linalg.as_complex_matrix(rho, name)
    w, _ = linalg.hermitian_eigendecomposition(a, name)
    if abs(a.trace().real - 1.0) > linalg.TOLERANCE or abs(a.trace().imag) > linalg.TOLERANCE:
        raise ValueError(f"{name} does not have unit trace")
    if w[0] < -linalg.TOLERANCE:
        raise ValueError(f"{name} is not positive semidefinite")
    return a


def trace_distance(rho, sigma):
    """Half the trace norm of the difference of two density matrices, each
    checked to be a state within ``linalg.TOLERANCE``."""
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
    d = checked_channel(channel, "channel").dim
    total = sum(abs(np.trace(a)) ** 2 for a in channel.kraus)
    return float((d + total) / (d + d * d))


def inverse_infidelity(fidelity):
    """1/(1 - fidelity); the sentinel ``EXACT`` when the fidelity, read by
    :func:`gatebounds.channels.checked_fidelity`, clamps to 1: in [0, 1],
    1 - fidelity is 0 exactly when the fidelity is 1."""
    return _inverse_or_exact(1.0 - checked_fidelity(fidelity))


def _inverse_or_exact(value):
    """1/value, or the sentinel ``EXACT`` when ``value`` is 0: every inverse
    rate of the package, here and in ``bounds.audit``'s report."""
    return EXACT if value == 0.0 else 1.0 / value
