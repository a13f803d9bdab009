"""Reproduction suite for the published reference values.

Every check recomputes one block of reference numbers from scratch and
compares at its stated tolerance.  While the suite runs, every diamond SDP
solve is collected by a :func:`gatebounds.diamond.recorded_solves` block, and
the final solver-health check audits each one.  It gates the figures that
:func:`gatebounds.sdp.verify_solution` recomputed from the raw matrices when
the certificates were built (the record's ``checked``): primal residual,
normalized duality gap and block eigenvalues.  It then computes an
input-state ascent lower bound for every record in one call
(:func:`gatebounds.diamond.ascent_lower_bounds`, record i from seed
9000 + i), which steps the records' ascents in stacks (the one stacking
rule of :mod:`gatebounds.diamond`, module docstring, *Stacks*) and stops
each on its own test, so each bound is the one its pair gives alone.  Each bound must
lie below both the solver value (within 1e-8) and the certified upper end
of the returned interval (within 1e-12, the ascent's own rounding).

A check that raises is reported as failed, not skipped; the suite always
returns one result per registered check, in registration order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds, channels, diamond, metrics, pauli
from .channels import Channel


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Tally:
    """Collects failure messages; empty means the check passed."""

    def __init__(self):
        self.fails = []

    def check(self, ok, message):
        if not ok:
            self.fails.append(message)
        return ok

    def result(self, ok_detail):
        if self.fails:
            return False, "; ".join(self.fails)
        return True, ok_detail


_CHECKS = []


def _register(name):
    def wrap(fn):
        _CHECKS.append((name, fn))
        return fn

    return wrap


def list_checks():
    return [name for name, _ in _CHECKS]


def _rounds_to(tally, label, got, want, figures):
    rounded = bounds.round_significant(got, figures)
    tally.check(
        rounded == want,
        f"{label}: computed {got:.6e} rounds to {rounded:.6e}, published value {want:.6e}",
    )


def _random_channel(rng, dim=2, kraus_count=2):
    # Haar isometry sliced into Kraus blocks: exactly trace preserving
    g = rng.standard_normal((kraus_count * dim, dim)) + 1j * rng.standard_normal(
        (kraus_count * dim, dim)
    )
    q, _ = np.linalg.qr(g)
    return Channel([np.ascontiguousarray(q[i * dim : (i + 1) * dim, :]) for i in range(kraus_count)])


@_register("combined-noise-example")
def _check_combined_noise(records):
    # depolarizing(1e-3) after a rotation with eigenphases +-1e-2
    r, theta = 1e-3, 1e-2
    dep = channels.depolarizing(r)
    rot = channels.unitary_error(theta)
    total = channels.compose(dep, rot)
    t = _Tally()

    _rounds_to(t, "depolarizing infidelity", 1.0 - metrics.average_gate_fidelity(dep), 5.0e-4, 2)
    _rounds_to(t, "rotation infidelity", 1.0 - metrics.average_gate_fidelity(rot), 6.7e-5, 2)
    phi_tot = metrics.average_gate_fidelity(total)
    _rounds_to(t, "combined infidelity", 1.0 - phi_tot, 5.3e-4, 2)

    eta_dep = pauli.as_pauli_channel(dep).error_rate
    t.check(abs(eta_dep - 7.5e-4) <= 1e-10, f"depolarizing error rate {eta_dep!r} != 7.5e-4")
    eta_u = diamond.diamond_distance(rot).value
    t.check(0.99e-2 <= eta_u <= 1.0e-2, f"rotation error rate {eta_u!r} outside [0.99e-2, 1.0e-2]")
    eta_tot = diamond.diamond_distance(total, method="sdp").value
    t.check(
        0.92e-2 <= eta_tot <= 1.08e-2,
        f"combined error rate {eta_tot!r} outside [0.92e-2, 1.08e-2]",
    )
    return t.result(f"combined infidelity {1.0 - phi_tot:.3e}, combined error rate {eta_tot:.3e}")


@_register("two-qubit-phase-example")
def _check_two_qubit_phase(records):
    ch = channels.generalized_cphase(4, 0.259)
    phi = metrics.average_gate_fidelity(ch)
    closed = diamond.diamond_distance(ch).value
    via_sdp = diamond.diamond_distance(ch, method="sdp").value
    t = _Tally()
    t.check(abs(phi - 0.990) <= 5e-4, f"fidelity {phi!r} not 0.990 +- 5e-4")
    t.check(abs(closed - 0.129) <= 5e-4, f"error rate {closed!r} not 0.129 +- 5e-4")
    t.check(abs(via_sdp - closed) <= 1e-6, f"SDP {via_sdp!r} vs closed form {closed!r} beyond 1e-6")
    return t.result(f"fidelity {phi:.6f}, error rate {closed:.6f}, SDP gap {abs(via_sdp - closed):.1e}")


@_register("upper-bound-table")
def _check_upper_bound_table(records):
    t = _Tally()
    rows = (
        (0.99, 2, {2: 25.0, 4: 45.0, 8: 85.0}),
        (0.999, 3, {2: 7.75, 4: 14.2, 8: 26.9}),
    )
    for phi, figures, expected in rows:
        for d, want in expected.items():
            got = bounds.ceil_significant(100.0 * bounds.generic_upper_bound(phi, d), figures)
            t.check(
                got == want,
                f"upper bound at fidelity {phi}, dim {d}: displays {got!r}%, published {want!r}%",
            )
    return t.result("both published table rows reproduced after round-up display")


@_register("threshold-fidelity")
def _check_threshold(records):
    got = bounds.required_fidelity(0.01, 4)
    t = _Tally()
    t.check(got == 1.0 - 5e-6, f"required fidelity {got!r} != 1 - 5e-6")
    return t.result(f"required fidelity {got!r} = 99.9995%")


@_register("nontriviality-thresholds")
def _check_nontriviality(records):
    t = _Tally()
    t2 = bounds.nontriviality_threshold(2)
    t4 = bounds.nontriviality_threshold(4)
    t.check(t2 == float(Fraction(5, 6)), f"dim-2 threshold {t2!r} != 5/6")
    t.check(t4 == float(Fraction(19, 20)), f"dim-4 threshold {t4!r} != 19/20")
    t.check(bounds.round_significant(100.0 * t2, 2) == 83.0, "dim-2 threshold does not display as 83%")
    t.check(bounds.round_significant(100.0 * t4, 2) == 95.0, "dim-4 threshold does not display as 95%")
    for d in (2, 3, 4, 8):
        at = bounds.generic_upper_bound(bounds.nontriviality_threshold(d), d)
        t.check(abs(at - 1.0) <= 1e-12, f"upper bound at its own threshold is {at!r}, not 1")
    return t.result("thresholds 5/6 (83%) and 19/20 (95%) exact")


@_register("pauli-channel-saturation")
def _check_pauli_saturation(records):
    rng = np.random.default_rng(601)
    t = _Tally()
    worst = 0.0
    chans = []
    for _ in range(20):
        probs = rng.random(4)
        probs /= probs.sum()
        chans.append(pauli.PauliChannel(1, dict(zip(pauli.pauli_labels(1), probs))).as_channel())
    results = diamond.diamond_distances([(ch, None) for ch in chans], method="sdp")
    for ch, result in zip(chans, results):
        got = result.value
        want = bounds.pauli_lower_bound(metrics.average_gate_fidelity(ch), 2)
        worst = max(worst, abs(got - want))
        t.check(
            abs(got - want) <= 1e-6,
            f"Pauli channel distance {got!r} vs fidelity bound {want!r} beyond 1e-6",
        )
    return t.result(f"20 random Pauli channels saturate the lower bound; worst gap {worst:.1e}")


@_register("twirl-distance-sandwich")
def _check_twirl_sandwich(records):
    rng = np.random.default_rng(701)
    t = _Tally()
    pairs = []
    for _ in range(20):
        ch = _random_channel(rng)
        twirled = pauli.pauli_twirl(ch)
        pairs += [(ch, None), (ch, twirled), (twirled, None)]
    results = [r.value for r in diamond.diamond_distances(pairs, method="sdp")]
    for i in range(20):
        eta, delta, eta_p = results[3 * i : 3 * i + 3]
        t.check(
            abs(delta - eta_p) - 2e-7 <= eta <= delta + eta_p + 2e-7,
            f"channel {i}: eta {eta!r} outside [|{delta!r} - {eta_p!r}|, sum] sandwich",
        )
    return t.result("20 random channels: |delta - eta_pauli| <= eta <= delta + eta_pauli")


@_register("tightness-witnesses")
def _check_tightness_witnesses(records):
    t = _Tally()
    for d in (2, 3, 4):
        for theta in (0.05, 0.2, 0.5):
            ch = channels.generalized_cphase(d, theta)
            phi = metrics.average_gate_fidelity(ch)
            upsilon = metrics.inverse_infidelity(phi)
            zeta = 1.0 / diamond.diamond_distance(ch).value
            target = math.sqrt(4.0 * (d - 1) / (d * (d + 1)) * upsilon)
            t.check(
                abs(zeta - target) <= 1e-6,
                f"phase gate d={d} theta={theta}: inverse rate {zeta!r} vs {target!r}",
            )
    for d in (2, 4):
        for lam in (0.05, 0.2):
            actual, ideal = channels.lambda_mixture(d, lam)
            disc = channels.discrepancy(actual, ideal)
            phi = metrics.average_gate_fidelity(disc)
            want_phi = 1.0 - 4.0 * (d - 1) * lam / (d * (d + 1))
            eta = diamond.diamond_distance(disc, method="sdp").value
            t.check(
                abs(phi - want_phi) <= 1e-6,
                f"mixture d={d} lambda={lam}: fidelity {phi!r} vs {want_phi!r}",
            )
            t.check(
                abs(eta - lam) <= 1e-6,
                f"mixture d={d} lambda={lam}: error rate {eta!r} != lambda",
            )
    return t.result("phase-gate inverse-rate identity and mixture witnesses hold")


@_register("single-qubit-unitary-rule")
def _check_single_qubit_unitary(records):
    t = _Tally()
    for theta in np.linspace(0.05, 1.5, 10):
        ch = channels.unitary_error(float(theta))
        phi = metrics.average_gate_fidelity(ch)
        eta = diamond.diamond_distance(ch).value
        half_ub = 0.5 * bounds.generic_upper_bound(phi, 2)
        t.check(
            abs(eta - half_ub) <= 1e-8,
            f"theta={theta:.3f}: error rate {eta!r} vs half upper bound {half_ub!r}",
        )
    return t.result("error rate equals half the generic upper bound at 10 rotation angles")


@_register("sweep-models")
def _check_sweep_models(records):
    t = _Tally()
    phis = np.linspace(0.90, 0.9999, 7)
    for model in ("unitary", "amplitude-damping"):
        rows = bounds.sweep_rows(model, phis)
        for row in rows:
            label = f"{model} at fidelity {row.fidelity:.4f}"
            t.check(
                row.refined_lo - 2e-7 <= row.eta <= row.refined_hi + 2e-7,
                f"{label}: eta {row.eta!r} outside refined [{row.refined_lo!r}, {row.refined_hi!r}]",
            )
            t.check(row.eta <= row.eta_generic_ub + 1e-8, f"{label}: eta above generic upper bound")
            t.check(row.eta >= row.eta_pauli_lb - 1e-8, f"{label}: eta below Pauli lower bound")
            if model == "unitary":
                want = math.sqrt(1.5 * (1.0 - row.fidelity))
                t.check(
                    abs(row.eta - want) <= 1e-6,
                    f"{label}: eta {row.eta!r} vs sqrt(1.5(1-phi)) {want!r}",
                )
    return t.result("14 sweep rows bracket the exact error rate in both models")


@_register("property-suite")
def _check_properties(records):
    rng = np.random.default_rng(1201)
    t = _Tally()
    for i in range(4):
        ch = _random_channel(rng, kraus_count=3)
        tw = pauli.pauli_twirl(ch)
        twtw = pauli.pauli_twirl(tw)
        t.check(
            float(np.abs(twtw.choi - tw.choi).max()) <= 1e-10,
            f"twirl of channel {i} is not idempotent",
        )
        t.check(
            abs(metrics.average_gate_fidelity(ch) - metrics.average_gate_fidelity(tw)) <= 1e-10,
            f"twirl of channel {i} changes the fidelity",
        )
    weights = rng.random(3)
    weights /= weights.sum()
    parts = [_random_channel(rng, kraus_count=2) for _ in range(3)]
    terms = list(zip(weights, parts))
    mixed = channels.mix(terms)
    phi_direct = metrics.average_gate_fidelity(mixed)
    phi_linear = sum(w * metrics.average_gate_fidelity(c) for w, c in terms)
    t.check(abs(phi_direct - phi_linear) <= 1e-12, "fidelity is not linear under mixing")
    choi_linear = sum(w * c.choi for w, c in terms)
    t.check(
        float(np.abs(mixed.choi - choi_linear).max()) <= 1e-12,
        "Choi matrix is not linear under mixing",
    )
    pairs = []
    for _ in range(3):
        a, b, c = (_random_channel(rng) for _ in range(3))
        pairs += [(a, c), (a, b), (b, c)]
    results = [r.value for r in diamond.diamond_distances(pairs)]
    for i in range(3):
        d_ac, d_ab, d_bc = results[3 * i : 3 * i + 3]
        t.check(
            d_ac <= d_ab + d_bc + 1e-7,
            f"triple {i}: triangle inequality violated ({d_ac!r} > {d_ab!r} + {d_bc!r})",
        )
    return t.result("twirl, mixing linearity, and triangle-inequality properties hold")


@_register("solver-health")
def _check_solver_health(records):
    # runs last: audits every SDP solve the suite performed
    t = _Tally()
    if not t.check(bool(records), "no SDP solves were recorded"):
        return t.result("")
    worst_gap = 0.0
    worst_residual = 0.0
    worst_excess = -math.inf
    pairs = [(rec.e, rec.f) for rec in records]
    lowers = diamond.ascent_lower_bounds(pairs, [9000 + i for i in range(len(pairs))])
    for i, (rec, lower) in enumerate(zip(records, lowers)):
        checked = rec.checked
        worst_gap = max(worst_gap, checked["gap"])
        worst_residual = max(worst_residual, checked["primal_residual"])
        t.check(checked["gap"] <= 1e-8, f"solve {i}: duality gap {checked['gap']:.3e} above 1e-8")
        t.check(
            checked["primal_residual"] <= 1e-8,
            f"solve {i}: primal residual {checked['primal_residual']:.3e} above 1e-8",
        )
        t.check(checked["x_min_eig"] >= -1e-7, f"solve {i}: primal block not PSD within 1e-7")
        t.check(checked["z_min_eig"] >= -1e-7, f"solve {i}: dual slack not PSD within 1e-7")
        worst_excess = max(worst_excess, lower - rec.result.value)
        t.check(
            lower <= rec.result.value + 1e-8,
            f"solve {i}: ascent lower bound {lower!r} exceeds SDP value {rec.result.value!r}",
        )
        t.check(
            lower <= rec.result.upper_certificate + 1e-12,
            f"solve {i}: ascent lower bound {lower!r} exceeds upper certificate "
            f"{rec.result.upper_certificate!r}",
        )
    return t.result(
        f"{len(records)} solves: max gap {worst_gap:.1e}, max residual {worst_residual:.1e}, "
        f"max ascent excess {worst_excess:.1e}"
    )


def run_checks():
    """Run the whole suite; returns one CheckResult per check, in order."""
    results = []
    with diamond.recorded_solves() as records:
        for name, fn in _CHECKS:
            try:
                passed, detail = fn(records)
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(name, passed, detail))
    return results
