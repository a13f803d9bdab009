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
import numbers
from dataclasses import dataclass

from . import channels, diamond, metrics
from .diamond import DiamondResult
from .metrics import EXACT


def pauli_lower_bound(phi, dim):
    """Lower bound (1 + 1/d)(1 - phi) on the error rate; tight for Pauli channels."""
    p = channels.checked_fidelity(phi)
    d = channels.checked_integer(dim, "dimension", 2, 2**53)
    return (1.0 + 1.0 / d) * (1.0 - p)


def generic_upper_bound(phi, dim):
    """Upper bound sqrt(d(d+1)(1 - phi)); may exceed 1, see nontriviality_threshold."""
    p = channels.checked_fidelity(phi)
    d = channels.checked_integer(dim, "dimension", 2, 2**53)
    return math.sqrt(d * (d + 1) * (1.0 - p))


def nontriviality_threshold(dim):
    """Fidelity above which the generic upper bound drops below 1."""
    d = channels.checked_integer(dim, "dimension", 2, 2**53)
    return 1.0 - 1.0 / (d * (d + 1))


def required_fidelity(target_error, dim):
    """Fidelity needed before the upper bound certifies the target error rate."""
    t = channels.checked_real(target_error, "target error rate", 0, 1)
    if t == 0.0:
        raise ValueError(f"target error rate {t!r} outside (0, 1]")
    d = channels.checked_integer(dim, "dimension", 2, 2**53)
    return 1.0 - t * t / (d * (d + 1))


def pauli_refined_interval(phi, dim, pauli_dist):
    """Bracket [lo, hi] on the error rate given the Pauli distance delta.

    The triangle inequality gives |delta - eta_pauli| <= eta <= delta +
    eta_pauli; the lower end is floored at eta_pauli (always valid and often
    larger) and the upper end capped by the generic bound and by 1.  No
    channel has delta - eta_pauli above the generic bound, since delta <=
    eta + eta_pauli, so such a delta is rejected rather than bracketed.
    The comparison allows the fidelity's rounding, ``channels.SLOP``, and
    a crossing within it collapses the bracket to [lo, lo].  Nor has any
    channel a fidelity below 1/(d+1), where eta_pauli exceeds 1, so one is
    refused too (within the same slop) rather than bracketed above 1.
    """
    delta = channels.checked_real(pauli_dist, "Pauli distance", 0, 1)
    eta_p = pauli_lower_bound(phi, dim)
    generic = generic_upper_bound(phi, dim)
    if eta_p > 1.0 + channels.SLOP:
        raise ValueError(f"fidelity below 1/(d+1) at dimension {dim!r}: eta_pauli {eta_p!r} exceeds 1")
    if delta - eta_p > generic + channels.SLOP:
        raise ValueError(
            f"Pauli distance {delta!r} exceeds the generic upper bound plus eta_pauli "
            f"at fidelity {phi!r} and dimension {dim!r}"
        )
    lo = max(eta_p, abs(delta - eta_p))
    return lo, max(lo, min(1.0, delta + eta_p, generic))


def decomposition_upper_bound(phi, dim, deltas):
    """Upper bound eta_pauli + sum of per-term Pauli distances.

    Applies when the discrepancy channel is a sum of CP terms with the given
    weighted Pauli distances; never beats the single-term refinement.
    """
    if isinstance(deltas, (str, bytes)):
        raise ValueError(f"Pauli distances must be a collection of numbers, got {deltas!r}")
    ds = [channels.checked_real(x, "Pauli distance", 0) for x in deltas]
    return pauli_lower_bound(phi, dim) + sum(ds)


def round_significant(x, figures, mode=decimal.ROUND_HALF_EVEN):
    """Round to the given count of significant figures (half-even default).

    ``x`` is a real number; 0, ±inf and NaN return as they are.  A bool,
    text, None, a complex value and an integer beyond the float range raise
    ValueError.  ``figures`` is an integer of at least 1 (an integer-valued
    float is one).  ``Decimal(x)`` is exact, so at least as many figures as
    it has digits return ``x`` unchanged, and fewer round at that digit
    count's precision.
    """
    figures = channels.checked_integer(figures, "significant figures", 1)
    # a comparison, not math.isfinite, which overflows on a huge int
    if isinstance(x, numbers.Real) and (x != x or abs(x) == math.inf):
        return float(x)
    v = channels.checked_real(x, "value to round")
    if v == 0.0:
        return v
    d = decimal.Decimal(v)
    digits = len(d.as_tuple().digits)
    if figures >= digits:
        return v
    q = decimal.Decimal(1).scaleb(d.adjusted() - figures + 1)
    return float(d.quantize(q, rounding=mode, context=decimal.Context(prec=digits)))


def ceil_significant(x, figures):
    """Round up at the given count of significant figures.

    The display rule for reported upper bounds: rounding a valid upper bound
    upward keeps it valid, and it reproduces the published table entries,
    which a nearest-value rule does not.
    """
    return round_significant(x, figures, mode=decimal.ROUND_CEILING)


@dataclass(frozen=True, slots=True)
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


def audit(actual, ideal, compute_eta=None, compute_delta=None):
    """Full bounds audit of a gate implementation against its ideal unitary.

    ``compute_eta`` and ``compute_delta`` are bools, or None for the
    default: on for d <= 4 and off above (SDP cost); ``compute_delta``
    additionally requires a qubit dimension, so it defaults on at d = 2 and
    4.  A diamond SDP whose largest array would exceed
    ``diamond.MAX_ENTRIES`` entries raises ``ValueError``.
    """
    for name, flag in (("compute_eta", compute_eta), ("compute_delta", compute_delta)):
        if flag is not None and not isinstance(flag, bool):
            raise TypeError(f"{name} must be a bool or None, got {type(flag).__name__}")
    disc = channels.discrepancy(actual, ideal)
    d = disc.dim
    if compute_eta is None:
        compute_eta = d <= 4
    if compute_delta is None:
        compute_delta = d in (2, 4)
    return _report(disc, compute_eta, compute_delta)


def _report(disc, compute_eta, compute_delta):
    """The :class:`BoundsReport` of a discrepancy channel: the one place that
    computes its fidelity (clamped into [0, 1] by
    ``channels.checked_fidelity``), eta, delta and refined interval."""
    d = disc.dim
    phi = channels.checked_fidelity(metrics.average_gate_fidelity(disc))
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
        eta = diamond.diamond_distance(disc)
        report["error_rate"] = eta
        report["inverse_error_rate"] = _inverse_or_exact(eta.value)
    if compute_delta:
        delta = diamond.pauli_distance(disc)
        report["pauli_distance"] = delta.value
        report["refined_interval"] = pauli_refined_interval(phi, d, delta.value)
    return BoundsReport(**report)


@dataclass(frozen=True, slots=True)
class SweepRecord:
    """One row of a fidelity sweep."""

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
    # phi = 1 - r/2; at phi = 1/3 rounding lands r one ulp above 4/3
    r = min(4.0 / 3.0, 2.0 * (1.0 - phi))
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
    values = sorted(channels.checked_fidelity(p) for p in phis)
    for phi in values:
        if not lo <= phi <= hi:
            raise ValueError(
                f"fidelity {phi!r} outside the attainable range [{lo:g}, {hi:g}] of model {model!r}"
            )
    rows = []
    for phi in values:
        param, channel = build(phi)
        # the model channel is its own discrepancy channel: its ideal gate is
        # the identity
        report = _report(channel, compute_eta=True, compute_delta=True)
        rows.append(
            SweepRecord(
                model=model,
                param=param,
                fidelity=report.fidelity,
                eta=report.error_rate.value,
                eta_pauli_lb=report.pauli_lower,
                eta_generic_ub=report.generic_upper,
                pauli_distance=report.pauli_distance,
                refined_lo=report.refined_interval[0],
                refined_hi=report.refined_interval[1],
            )
        )
    return rows
