"""Fidelity-to-error-rate bound arithmetic and the audit pipeline."""

import math

import numpy as np
import pytest

from gatebounds import bounds, channels, metrics
from gatebounds.diamond import DiamondMethod


def test_pauli_lower_bound_values():
    assert bounds.pauli_lower_bound(0.99, 2) == pytest.approx(0.015, abs=1e-15)
    assert bounds.pauli_lower_bound(1.0, 7) == 0.0
    assert bounds.pauli_lower_bound(0.99, 4) == pytest.approx(0.0125, abs=1e-15)


def test_generic_upper_bound_values():
    assert bounds.generic_upper_bound(0.99, 2) == pytest.approx(math.sqrt(0.06), abs=1e-15)
    assert bounds.generic_upper_bound(1.0, 3) == 0.0
    assert bounds.generic_upper_bound(0.8, 2) > 1.0


def test_bound_input_validation():
    with pytest.raises(ValueError):
        bounds.pauli_lower_bound(1.1, 2)
    with pytest.raises(ValueError):
        bounds.pauli_lower_bound(-0.1, 2)
    with pytest.raises(ValueError):
        bounds.generic_upper_bound(0.9, 1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bounds.pauli_lower_bound(bad, 2)
        with pytest.raises(ValueError):
            bounds.generic_upper_bound(bad, 2)
    # values inside rounding slop of the endpoints are clamped, not rejected
    assert bounds.pauli_lower_bound(1.0 + 1e-13, 2) == 0.0


def test_nontriviality_threshold():
    assert bounds.nontriviality_threshold(2) == 5.0 / 6.0
    assert bounds.nontriviality_threshold(4) == 19.0 / 20.0
    assert bounds.nontriviality_threshold(8) == pytest.approx(71.0 / 72.0, abs=1e-15)
    for d in (2, 3, 4, 8):
        at_threshold = bounds.generic_upper_bound(bounds.nontriviality_threshold(d), d)
        assert at_threshold == pytest.approx(1.0, abs=1e-12)


def test_required_fidelity():
    assert bounds.required_fidelity(0.01, 4) == 1.0 - 5e-6
    assert bounds.required_fidelity(0.01, 2) == pytest.approx(1.0 - 1.0 / 60000.0, abs=1e-15)
    for d in (2, 4):
        assert bounds.required_fidelity(1.0, d) == bounds.nontriviality_threshold(d)
    with pytest.raises(ValueError):
        bounds.required_fidelity(0.0, 2)
    with pytest.raises(ValueError):
        bounds.required_fidelity(1.5, 2)


def test_refined_interval_pins_pauli_channels():
    lo, hi = bounds.pauli_refined_interval(0.99, 2, 0.0)
    assert lo == hi == pytest.approx(0.015, abs=1e-15)


def test_refined_interval_floors_and_caps():
    # small delta: reverse-triangle term is below eta_pauli, floor applies
    lo, hi = bounds.pauli_refined_interval(0.99, 2, 0.004)
    assert lo == pytest.approx(0.015, abs=1e-15)
    assert hi == pytest.approx(0.019, abs=1e-15)
    # huge delta: upper end capped at 1
    lo, hi = bounds.pauli_refined_interval(0.5, 2, 0.9)
    assert hi == 1.0
    assert lo == pytest.approx(max(0.75, abs(0.9 - 0.75)), abs=1e-15)
    for bad in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError):
            bounds.pauli_refined_interval(0.99, 2, bad)
    with pytest.raises(ValueError):
        bounds.pauli_refined_interval(math.nan, 2, 0.004)


def test_decomposition_bound():
    assert bounds.decomposition_upper_bound(0.99, 2, [0.0, 0.0]) == pytest.approx(0.015)
    got = bounds.decomposition_upper_bound(0.99, 2, [0.004])
    _, hi = bounds.pauli_refined_interval(0.99, 2, 0.004)
    assert got >= hi - 1e-15
    for bad in (-0.001, math.nan, math.inf):
        with pytest.raises(ValueError):
            bounds.decomposition_upper_bound(0.99, 2, [0.002, bad])


def test_upper_bound_monotonicity():
    phis = np.linspace(0.9, 0.9999, 8)
    values = [bounds.generic_upper_bound(p, 2) for p in phis]
    assert all(a > b for a, b in zip(values, values[1:]))
    dims = [2, 3, 4, 8, 16]
    values = [bounds.generic_upper_bound(0.995, d) for d in dims]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_round_significant():
    assert bounds.round_significant(0.24494, 3) == 0.245
    assert bounds.round_significant(24.49, 2) == 24.0
    assert bounds.round_significant(1.25, 2) == 1.2
    assert bounds.round_significant(1.75, 2) == 1.8
    assert bounds.round_significant(0.0, 3) == 0.0
    assert bounds.round_significant(math.inf, 3) == math.inf
    with pytest.raises(ValueError):
        bounds.round_significant(1.0, 0)


def test_ceil_significant():
    assert bounds.ceil_significant(24.49, 2) == 25.0
    assert bounds.ceil_significant(44.72, 2) == 45.0
    assert bounds.ceil_significant(7.746, 3) == 7.75
    assert bounds.ceil_significant(0.25, 2) == 0.25
    assert bounds.ceil_significant(14.15, 3) == 14.2


def test_audit_of_perfect_gate():
    # diag(1, i) times its adjoint is the identity without rounding, so the
    # discrepancy is exact and the sentinel paths are taken
    u = np.diag([1.0, 1.0j])
    report = bounds.audit(channels.unitary_channel(u), u)
    assert report.dim == 2
    assert report.fidelity == 1.0
    assert report.inverse_infidelity is metrics.EXACT
    assert report.error_rate.value == 0.0
    assert report.error_rate.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert report.inverse_error_rate is metrics.EXACT
    assert report.pauli_distance == 0.0
    assert report.refined_interval == (0.0, 0.0)


def test_audit_report_invariants():
    report = bounds.audit(channels.amplitude_damping(0.2), np.eye(2))
    eta = report.error_rate.value
    assert report.pauli_lower <= report.generic_upper
    assert report.pauli_lower - 1e-8 <= eta <= min(report.generic_upper, report.refined_interval[1]) + 1e-8
    lo, hi = report.refined_interval
    assert 0.0 <= lo <= hi <= 1.0
    assert lo - 2e-7 <= eta <= hi + 2e-7
    assert report.inverse_error_rate == pytest.approx(1.0 / eta)
    assert report.error_rate.lower_certificate <= eta <= report.error_rate.upper_certificate
    assert report.nontrivial == (report.generic_upper < 1.0)


def test_audit_default_switches():
    # qutrit gate: distance computed, twirl-based refinement not defined
    ch3 = channels.generalized_cphase(3, 0.3)
    report = bounds.audit(ch3, np.eye(3))
    assert report.error_rate is not None
    assert report.pauli_distance is None
    assert report.refined_interval is None

    # dimension 8 skips every SDP-priced field by default
    ch8 = channels.generalized_cphase(8, 0.2)
    report = bounds.audit(ch8, np.eye(8))
    assert report.error_rate is None
    assert report.pauli_distance is None
    assert report.fidelity < 1.0


def test_audit_explicit_switches():
    ch = channels.amplitude_damping(0.1)
    report = bounds.audit(ch, np.eye(2), compute_eta=False, compute_delta=False)
    assert report.error_rate is None
    assert report.inverse_error_rate is None
    assert report.pauli_distance is None

    # unitary closed form works at dimension 8 without the large flag
    ch8 = channels.generalized_cphase(8, 0.2)
    report = bounds.audit(ch8, np.eye(8), compute_eta=True)
    assert report.error_rate.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert report.error_rate.value == pytest.approx(math.sin(0.1), abs=1e-12)

    # the twirl distance at dimension 8 is an SDP and stays behind the flag
    with pytest.raises(ValueError, match="large"):
        bounds.audit(ch8, np.eye(8), compute_delta=True)
