"""Fidelity-to-error-rate bound arithmetic and the audit pipeline."""

import math
import re

import numpy as np
import pytest

from gatebounds import bounds, channels, diamond, metrics, pauli
from gatebounds.diamond import DiamondMethod
from helpers import random_hermitian, random_unitary


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
    # a dimension is an integer-valued real, not a string that parses as one
    for dim in ("3", "2"):
        message = f"dimension must be an integer of at least 2, got '{dim}'"
        for call in (
            lambda: bounds.pauli_lower_bound(0.99, dim),
            lambda: bounds.generic_upper_bound(0.99, dim),
            lambda: bounds.nontriviality_threshold(dim),
            lambda: bounds.required_fidelity(0.01, dim),
            lambda: bounds.pauli_refined_interval(0.99, dim, 0.01),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    # a bool is a flag, not a count; above 2**53 a float no longer holds
    # every integer, and 10**300 overflowed inside the bound
    for dim, message in (
        (True, "dimension must be an integer of at least 2, got True"),
        (2**53 + 1, r"dimension must be an integer of at most 2\*\*53, got 9007199254740993"),
        (10**300, r"dimension must be an integer of at most 2\*\*53, got 1000"),
    ):
        for call in (
            lambda: bounds.pauli_lower_bound(0.99, dim),
            lambda: bounds.generic_upper_bound(0.99, dim),
            lambda: bounds.nontriviality_threshold(dim),
            lambda: bounds.required_fidelity(0.01, dim),
            lambda: bounds.pauli_refined_interval(0.99, dim, 0.01),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    assert bounds.nontriviality_threshold(2**53) == 1.0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bounds.pauli_lower_bound(bad, 2)
        with pytest.raises(ValueError):
            bounds.generic_upper_bound(bad, 2)
    # values inside rounding slop of the endpoints are clamped, not rejected
    assert bounds.pauli_lower_bound(1.0 + 1e-13, 2) == 0.0
    # a real-valued input is a real number, not a string that parses as one,
    # just as a dimension is
    for call, what, value in (
        (lambda: bounds.pauli_lower_bound("0.99", 2), "fidelity", "'0.99'"),
        (lambda: bounds.required_fidelity("0.01", 4), "target error rate", "'0.01'"),
        (lambda: bounds.pauli_refined_interval(0.99, 2, "0.1"), "Pauli distance", "'0.1'"),
        (lambda: bounds.decomposition_upper_bound(0.99, 2, [0.1, b"0.2"]), "Pauli distance", "b'0.2'"),
        (lambda: bounds.sweep_rows("depolarizing", ["0.9"]), "fidelity", "'0.9'"),
    ):
        with pytest.raises(ValueError, match=f"{what} must be a real number, got {value}"):
            call()
    # a string of distances is refused whole, not read digit by digit
    for deltas in ("12", b"12"):
        with pytest.raises(ValueError, match="Pauli distances must be a collection"):
            bounds.decomposition_upper_bound(0.99, 2, deltas)
    # numpy scalars are real numbers
    assert bounds.pauli_lower_bound(np.float64(0.99), np.int64(2)) == bounds.pauli_lower_bound(0.99, 2)
    assert bounds.decomposition_upper_bound(0.99, 2, np.array([0.001, 0.002])) == pytest.approx(0.018)


@pytest.mark.parametrize("deltas", [0.1, None, {"a": 0.1}], ids=["number", "none", "mapping"])
def test_decomposition_bound_refuses_a_number_none_and_a_mapping(deltas):
    # not a TypeError from iterating, nor a mapping read by its keys
    with pytest.raises(ValueError, match="Pauli distances must be a collection"):
        bounds.decomposition_upper_bound(0.99, 2, deltas)


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
    # delta above 1 would cross the bracket: lo = delta - eta_pauli > hi
    with pytest.raises(ValueError, match="Pauli distance 5.0 outside"):
        bounds.pauli_refined_interval(0.99, 2, 5.0)
    assert bounds.pauli_refined_interval(0.5, 2, 1.0) == (0.75, 1.0)
    # a delta in [0, 1] that no channel of this fidelity has: delta - eta_pauli
    # = 0.985 lies above the generic bound 0.2449..., so the bracket would cross
    with pytest.raises(ValueError, match=r"Pauli distance 1\.0 .* fidelity 0\.99 and dimension 2"):
        bounds.pauli_refined_interval(0.99, 2, 1.0)
    # at the largest delta a channel can have, the bracket closes on the generic bound
    delta_max = bounds.generic_upper_bound(0.99, 2) + bounds.pauli_lower_bound(0.99, 2)
    lo, hi = bounds.pauli_refined_interval(0.99, 2, delta_max)
    assert lo <= hi == bounds.generic_upper_bound(0.99, 2)
    with pytest.raises(ValueError):
        bounds.pauli_refined_interval(math.nan, 2, 0.004)


def test_refined_interval_allows_the_fidelity_slop():
    # at fidelity 1 both bounds are 0: a Pauli distance within channels.SLOP
    # of them is rounding and closes the bracket on it, one beyond is refused
    for delta in (1e-17, channels.SLOP):
        assert bounds.pauli_refined_interval(1.0, 2, delta) == (delta, delta)
    with pytest.raises(ValueError, match=r"Pauli distance 1e-11 exceeds"):
        bounds.pauli_refined_interval(1.0, 2, 1e-11)
    # a crossing within the slop collapses to [lo, lo], never comes back crossed
    generic = bounds.generic_upper_bound(0.99, 2)
    eta_p = bounds.pauli_lower_bound(0.99, 2)
    lo, hi = bounds.pauli_refined_interval(0.99, 2, generic + eta_p + 0.5 * channels.SLOP)
    assert lo == hi > generic


def test_refined_interval_refuses_a_fidelity_no_channel_has():
    # below 1/(d+1) eta_pauli exceeds 1, and the bracket would lie above 1
    with pytest.raises(ValueError, match=r"^fidelity below 1/\(d\+1\) at dimension 2: eta_pauli 1\.5 exceeds 1$"):
        bounds.pauli_refined_interval(0.0, 2, 0.0)
    for dim in (2, 3, 4):
        floor = 1.0 / (dim + 1)
        with pytest.raises(ValueError, match="^fidelity below 1/"):
            bounds.pauli_refined_interval(floor - 1e-11, dim, 0.5)
        # at 1/(d+1) itself (a gate that maps every pure state to an
        # orthogonal one) the bracket closes on 1, within the slop
        for phi in (floor, math.nextafter(floor, 0.0)):
            lo, hi = bounds.pauli_refined_interval(phi, dim, 0.0)
            assert lo == hi == pytest.approx(1.0, abs=channels.SLOP)
            assert hi <= 1.0 + channels.SLOP


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "call",
    [
        lambda phi: bounds.pauli_lower_bound(phi, 2),
        lambda phi: bounds.generic_upper_bound(phi, 2),
        lambda phi: bounds.pauli_refined_interval(phi, 2, 0.004),
        lambda phi: bounds.decomposition_upper_bound(phi, 2, [0.002]),
    ],
    ids=["pauli_lower_bound", "generic_upper_bound", "pauli_refined_interval", "decomposition_upper_bound"],
)
def test_non_finite_fidelity_is_rejected_by_name(call, bad):
    # named before the range test, which would call NaN merely out of range
    with pytest.raises(ValueError, match=f"fidelity must be finite, got {bad!r}") as info:
        call(bad)
    assert "outside" not in str(info.value)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_target_error_is_rejected_by_name(bad):
    with pytest.raises(ValueError, match=f"target error rate must be finite, got {bad!r}"):
        bounds.required_fidelity(bad, 2)


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
    # an integer-valued float or numpy integer counts as that many figures
    assert bounds.round_significant(0.24494, 3.0) == 0.245
    assert bounds.round_significant(1.75, np.int64(2)) == 1.8
    # Decimal(x) is exact: past the 28 digits of the default decimal context
    # the rounding still works, and at or past x's own digit count x returns
    assert bounds.round_significant(0.1, 29) == 0.1
    assert bounds.round_significant(2.0 / 3.0, 29) == 2.0 / 3.0
    assert bounds.ceil_significant(0.1, 40) == 0.1
    assert bounds.round_significant(1.2345, 10**400) == 1.2345
    assert bounds.round_significant(5e-324, 751) == 5e-324
    for bad in (0, 0.0, -1, 1.5, math.nan, math.inf, "3", None, True, False):
        message = f"significant figures must be an integer of at least 1, got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            bounds.round_significant(1.0, bad)


@pytest.mark.parametrize(
    "bad",
    [True, False, "1.55", None, 1 + 2j, 10**400, -(10**400)],
    ids=["true", "false", "text", "none", "complex", "huge", "huge-negative"],
)
def test_round_and_ceil_significant_refuse_a_value_that_is_not_a_float(bad):
    for fn in (bounds.round_significant, bounds.ceil_significant):
        with pytest.raises(ValueError, match="^value to round must") as info:
            fn(bad, 2)
        if isinstance(bad, int) and not isinstance(bad, bool):
            assert str(info.value).endswith("an integer beyond the float range")
        else:
            assert str(info.value).endswith(f"must be a real number, got {bad!r}")


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float32(math.inf), np.float32(math.nan)])
def test_round_and_ceil_significant_pass_non_finite_reals_through(x):
    for fn in (bounds.round_significant, bounds.ceil_significant):
        got = fn(x, 2)
        assert type(got) is float
        assert math.isnan(got) if math.isnan(x) else got == x


def test_ceil_significant():
    assert bounds.ceil_significant(24.49, 2) == 25.0
    assert bounds.ceil_significant(44.72, 2) == 45.0
    assert bounds.ceil_significant(7.746, 3) == 7.75
    assert bounds.ceil_significant(0.25, 2) == 0.25
    assert bounds.ceil_significant(14.15, 3) == 14.2
    assert bounds.ceil_significant(24.49, 2.0) == 25.0
    for bad in (2.5, math.nan, -math.inf, "2"):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}"):
            bounds.ceil_significant(24.49, bad)


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


@pytest.mark.parametrize("dim", [2, 4])
def test_audit_of_perfect_haar_gates(dim):
    # U^dagger U rounds away from the identity: the fidelity lands a few ulps
    # above 1 and the Pauli distance just above 0, both within channels.SLOP
    rng = np.random.default_rng(dim)
    clamped = 0
    for _ in range(40):
        u = random_unitary(rng, dim)
        phi = metrics.average_gate_fidelity(channels.discrepancy(channels.unitary_channel(u), u))
        report = bounds.audit(channels.unitary_channel(u), u)
        assert report.fidelity == min(phi, 1.0)
        lo, hi = report.refined_interval
        assert 0.0 <= lo <= hi <= 1e-15
        if phi >= 1.0:
            clamped += 1
            assert report.inverse_infidelity is metrics.EXACT
            assert report.generic_upper == report.pauli_lower == 0.0
    assert clamped


def test_audit_of_gate_and_ideal_each_within_tolerance():
    # both pass alone with defect 9.0e-10, and each is normalized where it
    # enters; their discrepancy is derived and not tested again
    s = 1 + 0.45e-9
    u = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    report = bounds.audit(channels.Channel([s * u]), s * np.eye(2))
    assert report.error_rate.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert report.error_rate.value == 0.2955202066613394 == pytest.approx(math.sin(0.3), abs=1e-15)


def test_audit_of_a_perfect_gate_scaled_within_tolerance():
    # gate and ideal are each accepted alone and normalized where they
    # enter; unnormalized, their discrepancy's fidelity 1 + 1.2e-9 was
    # refused as "fidelity 1.0000000012 outside [...]"
    s = 1 + 0.45e-9
    report = bounds.audit(channels.Channel([s * np.eye(2)]), s * np.eye(2))
    assert report.fidelity == 1.0


SCALE = 4.5e-10


def near_identity_gates():
    # 40 (ideal U, gate U exp(i a H)) pairs, d = 2 and 4 alternating and
    # a = 1e-3, 1e-4, 1e-5 in turn, with exp(i a H) from one eigh
    rng = np.random.default_rng(13)
    for k in range(40):
        d, a = (2, 4)[k % 2], (1e-3, 1e-4, 1e-5)[k % 3]
        u = random_unitary(rng, d)
        w, v = np.linalg.eigh(random_hermitian(rng, d))
        yield u, u @ (v * np.exp(1j * a * w)) @ v.conj().T


def test_audits_of_inputs_accepted_within_tolerance_match_the_exact_input():
    # each gate scaled by 1 +- 4.5e-10, or its ideal by 1 + 4.5e-10, is
    # accepted where it enters and normalized there.  Unnormalized, 27 of
    # these 120 audits raised: a fidelity or a Pauli distance out of range
    # on 13 gate+ and 13 ideal+ audits, and a crossed interval on 1 gate-
    for u, g in near_identity_gates():
        exact = bounds.audit(channels.Channel([g]), u)
        for gate, ideal in (((1 + SCALE) * g, u), ((1 - SCALE) * g, u), (g, (1 + SCALE) * u)):
            report = bounds.audit(channels.Channel([gate]), ideal)
            assert abs(report.fidelity - exact.fidelity) <= 1e-14
            assert abs(report.error_rate.lower_certificate - exact.error_rate.lower_certificate) <= 1e-14
            assert abs(report.error_rate.upper_certificate - exact.error_rate.upper_certificate) <= 1e-14


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

    # unitary closed form at dimension 8
    ch8 = channels.generalized_cphase(8, 0.2)
    report = bounds.audit(ch8, np.eye(8), compute_eta=True)
    assert report.error_rate.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert report.error_rate.value == pytest.approx(math.sin(0.1), abs=1e-12)

    # the twirl distance at dimension 8 is an SDP, asked for explicitly; it
    # runs on the fidelity route (r = 8, 130 rows), within the row cap
    report = bounds.audit(ch8, np.eye(8), compute_delta=True)
    assert report.error_rate is None
    want = diamond.diamond_distance(ch8, pauli.pauli_twirl(ch8), method="sdp")
    assert want.route == "fidelity"
    assert want.lower_certificate - 1e-9 <= report.pauli_distance <= want.upper_certificate + 1e-9
    lo, hi = report.refined_interval
    assert lo <= math.sin(0.1) <= hi


@pytest.mark.parametrize("bad", [1, 0, "yes", np.int64(1), 1.0])
@pytest.mark.parametrize("name", ["compute_eta", "compute_delta"])
def test_audit_switches_must_be_bools(name, bad):
    ch = channels.amplitude_damping(0.1)
    with pytest.raises(TypeError, match=f"{name} must be a bool or None, got"):
        bounds.audit(ch, np.eye(2), **{name: bad})


def test_audit_reads_a_numpy_bool_as_a_bool():
    ch = channels.amplitude_damping(0.1)
    want = bounds.audit(ch, np.eye(2), compute_eta=True, compute_delta=False)
    assert bounds.audit(ch, np.eye(2), compute_eta=np.bool_(True), compute_delta=np.False_) == want


def test_audit_refuses_a_matrix_for_the_channel():
    with pytest.raises(TypeError, match="actual must be a Channel, got ndarray"):
        bounds.audit(np.eye(2), np.eye(2))


def test_audit_accepts_none_only_for_the_compute_switches():
    ch = channels.amplitude_damping(0.1)
    report = bounds.audit(ch, np.eye(2), compute_eta=None, compute_delta=None)
    assert report.error_rate is not None and report.pauli_distance is not None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_rows_rejects_non_finite_fidelity_by_name(bad):
    # named before the range test, which would call NaN merely out of range
    with pytest.raises(ValueError, match="fidelity must be finite") as info:
        bounds.sweep_rows("depolarizing", [0.9, bad])
    assert "attainable range" not in str(info.value)


@pytest.mark.parametrize("model", sorted(bounds.SWEEP_MODELS))
def test_sweep_rows_accepts_both_ends_of_each_range(model):
    _, lo, hi = bounds.SWEEP_MODELS[model]
    rows = bounds.sweep_rows(model, [lo, hi])
    assert [row.fidelity for row in rows] == pytest.approx([lo, hi], abs=1e-12)
    for row in rows:
        assert row.refined_lo <= row.eta + 1e-9 and row.eta <= row.refined_hi + 1e-9


def test_sweep_rows_solve_each_row_as_an_audit_does(monkeypatch):
    # one diamond_distances call per sweep, with every row's eta then delta
    # in submission order; each row equals the report of its own pair
    calls = []
    real = diamond.diamond_distances

    def recording(pairs, method="auto"):
        calls.append([(e, f) for e, f in pairs])
        return real(pairs, method)

    monkeypatch.setattr(diamond, "diamond_distances", recording)
    phis = [0.95, 0.9, 0.99]
    rows = bounds.sweep_rows("amplitude-damping", phis)
    assert len(calls) == 1 and len(calls[0]) == 2 * len(phis)
    for row, (eta_pair, delta_pair) in zip(rows, zip(calls[0][::2], calls[0][1::2])):
        channel = eta_pair[0]
        assert eta_pair[1] is None and delta_pair[0] is channel
        report = bounds._report(channel, diamond.diamond_distance(channel), diamond.pauli_distance(channel))
        assert (row.eta, row.pauli_distance) == (report.error_rate.value, report.pauli_distance)
        assert (row.refined_lo, row.refined_hi) == report.refined_interval
