"""Error-rate bounds derived from average gate fidelity, and gate audits.

For a gate on a d-dimensional space with discrepancy-channel fidelity phi,
the worst-case error rate eta is bracketed by

    (1 + 1/d)(1 - phi)  <=  eta  <=  sqrt(d(d+1)(1 - phi)),

with the lower bound tight exactly on Pauli channels.  When the Pauli
distance delta (diamond distance from the channel to its Pauli twirl) is
also known, the triangle inequality refines the bracket.  ``audit`` runs
the whole pipeline for one gate implementation and returns a
:class:`BoundsReport`; ``sweep_rows`` runs it across a range of fidelities
for one of the single-qubit error models in ``SWEEP_MODELS``.
"""

import decimal
import math
from dataclasses import dataclass

from . import channels, diamond, metrics
from .diamond import DiamondResult
from .metrics import EXACT

PHI_SLOP = 1e-12


def _checked_phi(phi):
    p = float(phi)
    if not (-PHI_SLOP <= p <= 1.0 + PHI_SLOP):
        raise ValueError(f"fidelity {p!r} outside [0, 1]")
    return min(1.0, max(0.0, p))


def _checked_dim(dim):
    d = int(dim)
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {dim!r}")
    return d


def pauli_lower_bound(phi, dim):
    """Lower bound (1 + 1/d)(1 - phi) on the error rate; tight for Pauli channels."""
    p = _checked_phi(phi)
    d = _checked_dim(dim)
    return (1.0 + 1.0 / d) * (1.0 - p)


def generic_upper_bound(phi, dim):
    """Upper bound sqrt(d(d+1)(1 - phi)); may exceed 1, see nontriviality_threshold."""
    p = _checked_phi(phi)
    d = _checked_dim(dim)
    return math.sqrt(d * (d + 1) * (1.0 - p))


def nontriviality_threshold(dim):
    """Fidelity above which the generic upper bound drops below 1."""
    d = _checked_dim(dim)
    return 1.0 - 1.0 / (d * (d + 1))


def required_fidelity(target_error, dim):
    """Fidelity needed before the upper bound certifies the target error rate."""
    t = float(target_error)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"target error rate {target_error!r} outside (0, 1]")
    d = _checked_dim(dim)
    return 1.0 - t * t / (d * (d + 1))


def pauli_refined_interval(phi, dim, pauli_dist):
    """Bracket [lo, hi] on the error rate given the Pauli distance delta.

    The triangle inequality gives |delta - eta_pauli| <= eta <= delta +
    eta_pauli; the lower end is floored at eta_pauli (always valid and often
    larger) and the upper end capped by the generic bound and by 1.
    """
    delta = float(pauli_dist)
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"Pauli distance {pauli_dist!r} is not a finite nonnegative number")
    eta_p = pauli_lower_bound(phi, dim)
    lo = max(eta_p, abs(delta - eta_p))
    hi = min(1.0, delta + eta_p, generic_upper_bound(phi, dim))
    return lo, hi


def decomposition_upper_bound(phi, dim, deltas):
    """Upper bound eta_pauli + sum of per-term Pauli distances.

    Applies when the discrepancy channel is a sum of CP terms with the given
    weighted Pauli distances; never beats the single-term refinement.
    """
    ds = [float(x) for x in deltas]
    if not all(0.0 <= x < math.inf for x in ds):
        raise ValueError("Pauli distances must be finite and nonnegative")
    return pauli_lower_bound(phi, dim) + sum(ds)


def round_significant(x, figures, mode=decimal.ROUND_HALF_EVEN):
    """Round to the given count of significant figures (half-even default)."""
    if figures < 1:
        raise ValueError("need at least one significant figure")
    v = float(x)
    if v == 0.0 or not math.isfinite(v):
        return v
    d = decimal.Decimal(v)
    q = decimal.Decimal(1).scaleb(d.adjusted() - figures + 1)
    return float(d.quantize(q, rounding=mode))


def ceil_significant(x, figures):
    """Round up at the given count of significant figures.

    The display rule for reported upper bounds: rounding a valid upper bound
    upward keeps it valid, and it reproduces the published table entries,
    which a nearest-value rule does not.
    """
    return round_significant(x, figures, mode=decimal.ROUND_CEILING)


@dataclass(frozen=True)
class BoundsReport:
    """Per-gate audit record.

    ``inverse_infidelity``, ``inverse_upper_rate`` and ``inverse_error_rate``
    hold the string sentinel "exact" instead of a number when the
    corresponding quantity is zero.  Optional fields are None when their
    computation was switched off.
    """

    dim: int
    fidelity: float
    inverse_infidelity: "float | str"
    pauli_lower: float
    generic_upper: float
    inverse_upper_rate: "float | str"
    nontrivial: bool
    error_rate: "DiamondResult | None" = None
    inverse_error_rate: "float | str | None" = None
    pauli_distance: "float | None" = None
    refined_interval: "tuple[float, float] | None" = None


def _inverse_or_exact(value):
    return EXACT if value == 0.0 else 1.0 / value


def audit(actual, ideal, compute_eta=None, compute_delta=None, large=False):
    """Full bounds audit of a gate implementation against its ideal unitary.

    ``compute_eta`` and ``compute_delta`` default to on for d <= 4 and off
    above (SDP cost); ``compute_delta`` additionally requires a qubit
    dimension.  Pass ``large=True`` to allow d > 4 diamond SDPs.
    """
    disc = channels.discrepancy(actual, ideal)
    d = disc.dim
    if compute_eta is None:
        compute_eta = d <= 4
    if compute_delta is None:
        compute_delta = d <= 4 and (d & (d - 1)) == 0

    phi = metrics.average_gate_fidelity(disc)
    upper = generic_upper_bound(phi, d)
    report = {
        "dim": d,
        "fidelity": phi,
        "inverse_infidelity": metrics.inverse_infidelity(phi),
        "pauli_lower": pauli_lower_bound(phi, d),
        "generic_upper": upper,
        "inverse_upper_rate": _inverse_or_exact(upper),
        "nontrivial": upper < 1.0,
    }
    if compute_eta:
        eta = diamond.diamond_distance(disc, large=large)
        report["error_rate"] = eta
        report["inverse_error_rate"] = _inverse_or_exact(eta.value)
    if compute_delta:
        delta = diamond.pauli_distance(disc, large=large)
        report["pauli_distance"] = delta.value
        report["refined_interval"] = pauli_refined_interval(phi, d, delta.value)
    return BoundsReport(**report)


@dataclass(frozen=True)
class SweepRecord:
    """One row of a fidelity sweep (field order matches the CLI's CSV header)."""

    model: str
    param: float
    fidelity: float
    eta: float
    eta_pauli_lb: float
    eta_generic_ub: float
    pauli_distance: float
    refined_lo: float
    refined_hi: float


def _unitary_from_phi(phi):
    # phi = 1/3 + (2/3) cos^2 theta
    theta = math.acos(math.sqrt((3.0 * phi - 1.0) / 2.0))
    return theta, channels.unitary_error(theta)


def _damping_from_phi(phi):
    # phi = (2 + (1 + sqrt(1-r))^2) / 6
    root = math.sqrt(6.0 * phi - 2.0) - 1.0
    r = 1.0 - root * root
    return r, channels.amplitude_damping(r)


def _depolarizing_from_phi(phi):
    # phi = 1 - r/2
    r = 2.0 * (1.0 - phi)
    return r, channels.depolarizing(r)


SWEEP_MODELS = {
    "unitary": (_unitary_from_phi, 1.0 / 3.0, 1.0),
    "amplitude-damping": (_damping_from_phi, 0.5, 1.0),
    "depolarizing": (_depolarizing_from_phi, 1.0 / 3.0, 1.0),
}


def sweep_rows(model, phis):
    """Audit one error model at each target fidelity; rows sorted by fidelity."""
    if model not in SWEEP_MODELS:
        raise ValueError(f"unknown sweep model {model!r}")
    build, lo, hi = SWEEP_MODELS[model]
    values = sorted(float(p) for p in phis)
    for phi in values:
        if not lo <= phi <= hi:
            raise ValueError(
                f"fidelity {phi!r} outside the attainable range [{lo:g}, {hi:g}] of model {model!r}"
            )
    rows = []
    for phi in values:
        param, channel = build(phi)
        fidelity = metrics.average_gate_fidelity(channel)
        eta = diamond.diamond_distance(channel).value
        delta = diamond.pauli_distance(channel).value
        ref_lo, ref_hi = pauli_refined_interval(fidelity, channel.dim, delta)
        rows.append(
            SweepRecord(
                model=model,
                param=param,
                fidelity=fidelity,
                eta=eta,
                eta_pauli_lb=pauli_lower_bound(fidelity, channel.dim),
                eta_generic_ub=generic_upper_bound(fidelity, channel.dim),
                pauli_distance=delta,
                refined_lo=ref_lo,
                refined_hi=ref_hi,
            )
        )
    return rows
