"""Diamond distance: closed forms, the SDP path, and their agreement."""

import math

import numpy as np
import pytest

from gatebounds import channels, diamond, pauli, sdp
from gatebounds.channels import Channel
from gatebounds.diamond import DiamondMethod, DiamondResult


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pauli_channel(rng):
    raw = rng.random(4)
    raw /= raw.sum()
    return pauli.PauliChannel(1, dict(zip("IXYZ", raw)))


def test_unitary_closed_form_identity():
    res = diamond.unitary_diamond_distance(np.eye(3))
    assert res.value == 0.0
    assert res.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert res.lower_certificate == res.upper_certificate == 0.0


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 2.0])
def test_unitary_closed_form_single_phase(theta):
    res = diamond.unitary_diamond_distance(np.diag([1.0, np.exp(1j * theta)]))
    assert res.value == pytest.approx(math.sin(theta / 2.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.2, 0.7, 1.4])
def test_unitary_closed_form_rotation(theta):
    # arc from -theta to +theta has width 2 theta
    u = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    res = diamond.unitary_diamond_distance(u)
    want = 1.0 if 2 * theta >= np.pi else math.sin(theta)
    assert res.value == pytest.approx(want, abs=1e-12)


def test_unitary_closed_form_saturates_at_pi_arc():
    res = diamond.unitary_diamond_distance(np.diag([1.0, 1j, -1.0]))
    assert res.value == 1.0


def test_unitary_closed_form_ignores_global_phase():
    rng = np.random.default_rng(70)
    u = random_unitary(rng, 3)
    a = diamond.unitary_diamond_distance(u)
    b = diamond.unitary_diamond_distance(np.exp(0.9j) * u)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_pauli_closed_form_is_total_variation():
    p = pauli.PauliChannel(1, {"I": 0.85, "X": 0.05, "Y": 0.05, "Z": 0.05})
    q = pauli.PauliChannel(1, {"I": 0.9, "X": 0.1})
    res = diamond.diamond_distance(p.as_channel(), q.as_channel())
    assert res.method is DiamondMethod.PAULI_CLOSED_FORM
    assert res.value == pytest.approx(0.1, abs=1e-12)
    assert diamond.pauli_diamond_distance(p).value == pytest.approx(0.15, abs=1e-12)


def test_auto_dispatch_selects_methods():
    assert (
        diamond.diamond_distance(channels.unitary_error(0.3)).method
        is DiamondMethod.UNITARY_CLOSED_FORM
    )
    assert (
        diamond.diamond_distance(channels.depolarizing(0.2)).method
        is DiamondMethod.PAULI_CLOSED_FORM
    )
    assert diamond.diamond_distance(channels.amplitude_damping(0.2)).method is DiamondMethod.SDP


def test_sdp_matches_unitary_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(20):
        u = random_unitary(rng, 2)
        ch = channels.unitary_channel(u)
        closed = diamond.diamond_distance(ch).value
        via_sdp = diamond.diamond_distance(ch, method="sdp").value
        assert abs(via_sdp - closed) <= 1e-6


def test_sdp_matches_pauli_closed_form():
    rng = np.random.default_rng(72)
    for _ in range(20):
        pc = random_pauli_channel(rng)
        via_sdp = diamond.diamond_distance(pc.as_channel(), method="sdp").value
        assert abs(via_sdp - pc.error_rate) <= 1e-6


def short_arc_unitary(rng, n, arc):
    # Haar eigenbasis (that of a GUE matrix), eigenphases spread over arc
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(a + a.conj().T)
    phases = arc * (w - w[0]) / (w[-1] - w[0])
    return (v * np.exp(1j * phases)) @ v.conj().T


@pytest.mark.parametrize("d", [2, 3, 4])
def test_forced_sdp_certificates_bracket_closed_forms(d):
    # the certified interval, not just the point value, must contain the
    # exact distance: Haar unitaries (at d >= 3 their arc usually saturates
    # the distance at 1), unitaries whose distance stays below 1, and at
    # qubit dimensions the Pauli twirls of both
    rng = np.random.default_rng(75 + d)
    for u in (random_unitary(rng, d), short_arc_unitary(rng, d, 1.0 + rng.random())):
        ch = channels.unitary_channel(u)
        cases = [(ch, diamond.unitary_diamond_distance(u).value)]
        if d != 3:
            twirled = pauli.pauli_twirl(ch)
            cases.append((twirled, pauli.as_pauli_channel(twirled).error_rate))
        for channel, closed in cases:
            res = diamond.diamond_distance(channel, method="sdp")
            assert res.method is DiamondMethod.SDP
            assert res.lower_certificate <= closed <= res.upper_certificate


def test_sdp_cross_checks_arc_saturation():
    ch = channels.unitary_channel(np.diag([1.0, 1j, -1.0]))
    via_sdp = diamond.diamond_distance(ch, method="sdp")
    assert via_sdp.value == pytest.approx(1.0, abs=1e-6)
    assert via_sdp.upper_certificate <= 1.0


def test_sdp_zero_for_equal_channels():
    ch = channels.amplitude_damping(0.4)
    res = diamond.diamond_distance(ch, ch, method="sdp")
    assert res.value <= 1e-7
    assert res.lower_certificate >= 0.0


def test_amplitude_damping_distance_is_decay_probability():
    res = diamond.diamond_distance(channels.amplitude_damping(0.3))
    assert res.method is DiamondMethod.SDP
    assert res.value == pytest.approx(0.3, abs=1e-6)
    bf = diamond.brute_force_lower_bound(channels.amplitude_damping(0.3), samples=2000, seed=1)
    assert bf <= res.value + 1e-8
    assert bf >= 0.27


def test_certificates_bracket_value():
    for ch in (
        channels.amplitude_damping(0.15),
        channels.depolarizing(0.3),
        channels.unitary_error(0.6),
    ):
        res = diamond.diamond_distance(ch, method="sdp")
        assert 0.0 <= res.lower_certificate <= res.value <= res.upper_certificate <= 1.0
        assert res.upper_certificate - res.lower_certificate <= 1e-5


def test_brute_force_brackets_unitary_error():
    theta = 0.3
    ch = channels.unitary_error(theta)
    bf = diamond.brute_force_lower_bound(ch, samples=2000, seed=2)
    assert 0.9 * math.sin(theta) <= bf <= math.sin(theta) + 1e-9


def test_brute_force_never_exceeds_closed_form():
    ch = channels.depolarizing(0.1)
    bf = diamond.brute_force_lower_bound(ch, samples=2000, seed=3)
    assert bf <= 0.075 + 1e-12
    assert bf >= 0.06


def test_brute_force_validation():
    ch = channels.identity_channel(2)
    for bad in (0, -3, True, False, np.True_, 2.5, 3.0, math.nan, math.inf, -math.inf, "10", None):
        with pytest.raises(ValueError, match="samples"):
            diamond.brute_force_lower_bound(ch, samples=bad)
    assert diamond.brute_force_lower_bound(ch, samples=np.int64(3)) == 0.0
    with pytest.raises(ValueError):
        diamond.brute_force_lower_bound(
            channels.identity_channel(2), channels.identity_channel(3)
        )


def test_large_dimension_needs_opt_in():
    actual, ideal = channels.lambda_mixture(5, 0.1)
    with pytest.raises(ValueError, match="large"):
        diamond.diamond_distance(actual, channels.unitary_channel(ideal))


def test_large_unitary_still_dispatches_to_closed_form():
    ch = channels.generalized_cphase(8, 0.4)
    res = diamond.diamond_distance(ch)
    assert res.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert res.value == pytest.approx(math.sin(0.2), abs=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError, match="method"):
        diamond.diamond_distance(channels.identity_channel(2), method="bogus")
    with pytest.raises(ValueError, match="dimension"):
        diamond.diamond_distance(channels.identity_channel(2), channels.identity_channel(3))


def test_solve_recorder_sees_each_solve():
    # warm the one-time calibration solve so it is not what gets recorded
    diamond.diamond_distance(channels.amplitude_damping(0.33), method="sdp")
    records = []
    diamond.set_solve_recorder(records.append)
    try:
        ch = channels.amplitude_damping(0.25)
        res = diamond.diamond_distance(ch, method="sdp")
    finally:
        diamond.set_solve_recorder(None)
    assert len(records) == 1
    assert records[0].result is res
    assert records[0].e is ch
    assert records[0].solution.status.value == "converged"


def test_calibration_completes_after_first_sdp_use():
    diamond.diamond_distance(channels.amplitude_damping(0.1), method="sdp")
    assert diamond._ensure_calibrated.cache_info().currsize == 1


def test_failed_calibration_raises_and_is_retried(monkeypatch):
    diamond._ensure_calibrated.cache_clear()
    wrong = DiamondResult(0.5, 0.5, 0.5, DiamondMethod.SDP)
    with monkeypatch.context() as m:
        m.setattr(diamond, "_solve_pair", lambda e, f: wrong)
        with pytest.raises(diamond.CalibrationError, match="calibration failed"):
            diamond.diamond_distance(channels.amplitude_damping(0.1), method="sdp")
    assert diamond._ensure_calibrated.cache_info().currsize == 0
    res = diamond.diamond_distance(channels.amplitude_damping(0.1), method="sdp")
    assert res.method is DiamondMethod.SDP
    assert diamond._ensure_calibrated.cache_info().currsize == 1


def test_unconverged_solve_raises(monkeypatch):
    diamond._ensure_calibrated()
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    with pytest.raises(sdp.SolverError, match="max_iterations"):
        diamond.diamond_distance(channels.amplitude_damping(0.1), method="sdp")
