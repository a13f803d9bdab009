"""Distinguishability measures and the fidelity formula."""

import math

import numpy as np
import pytest

from gatebounds import channels, metrics
from helpers import random_channel, random_density


def haar_states(rng, count, dim):
    raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_total_variation_distance_values():
    assert metrics.total_variation_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert metrics.total_variation_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert metrics.total_variation_distance([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)


def test_total_variation_distance_validation():
    with pytest.raises(ValueError):
        metrics.total_variation_distance([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        metrics.total_variation_distance([[0.5, 0.5]], [[0.5, 0.5]])


def test_total_variation_distance_rejects_non_distributions_by_name():
    # a negative entry that the sum hides, and a vector that is not normalized
    with pytest.raises(ValueError, match=r"distribution mu\[1\] -0\.5 outside \[-1e-12, inf\]"):
        metrics.total_variation_distance([1.5, -0.5], [1.0, 0.0])
    with pytest.raises(ValueError, match="the sum of distribution nu is 0.9, not 1"):
        metrics.total_variation_distance([1.0, 0.0], [0.5, 0.4])
    # within PauliChannel's tolerances, 1e-12 on each entry and on the sum
    assert metrics.total_variation_distance([1.0 + 5e-13, -5e-13], [1.0, 0.0]) == pytest.approx(5e-13)


def test_total_variation_distance_aligns_labelled_distributions():
    # two mappings meet over the sorted union of their labels, not by position
    assert metrics.total_variation_distance({"a": 0.9, "b": 0.1}, {"b": 0.1, "a": 0.9}) == 0.0
    assert metrics.total_variation_distance({"a": 0.9, "b": 0.1}, {"c": 0.9, "d": 0.1}) == pytest.approx(1.0)
    # a label missing from one side reads 0
    assert metrics.total_variation_distance({"a": 1.0}, {"b": 0.5, "a": 0.5}) == 0.5


def test_total_variation_distance_refuses_mixed_and_unsortable_labels():
    mixed = "distributions mu and nu must both be mappings"
    with pytest.raises(ValueError, match=mixed):
        metrics.total_variation_distance({"a": 1.0}, [1.0])
    with pytest.raises(ValueError, match=mixed):
        metrics.total_variation_distance([0.5, 0.5], {0: 0.5, 1: 0.5})
    with pytest.raises(ValueError, match="labels of distributions mu and nu cannot be sorted"):
        metrics.total_variation_distance({"a": 0.5, 1: 0.5}, {"a": 1.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_total_variation_distance_rejects_non_finite_entries_by_name(bad):
    # checked before the shapes: a NaN or an infinity never reaches the sum
    with pytest.raises(ValueError, match=rf"distribution mu\[0\] must be finite, got {bad!r}"):
        metrics.total_variation_distance([bad, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=rf"distribution nu\[0\] must be finite, got {bad!r}"):
        metrics.total_variation_distance([0.5, 0.5], [bad])


def test_trace_distance_known_values():
    pure = np.diag([1.0, 0.0])
    mixed = np.eye(2) / 2
    assert metrics.trace_distance(pure, mixed) == pytest.approx(0.5, abs=1e-12)
    assert metrics.trace_distance(pure, pure) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_validation():
    good = np.eye(2) / 2
    with pytest.raises(ValueError, match="unit trace"):
        metrics.trace_distance(np.eye(2), good)
    with pytest.raises(ValueError, match="not Hermitian"):
        metrics.trace_distance(np.array([[0.5, 0.5], [0.0, 0.5]]), good)
    with pytest.raises(ValueError, match="positive semidefinite"):
        metrics.trace_distance(np.diag([1.5, -0.5]), good)
    with pytest.raises(ValueError, match="dimension"):
        metrics.trace_distance(good, np.eye(3) / 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trace_distance_rejects_a_non_finite_state_by_name(bad):
    # named before the Hermitian test, which a NaN fails for another reason
    good = np.eye(2) / 2
    broken = good.copy()
    broken[1, 1] = bad
    with pytest.raises(ValueError, match="rho has a non-finite entry"):
        metrics.trace_distance(broken, good)
    with pytest.raises(ValueError, match="sigma has a non-finite entry"):
        metrics.trace_distance(good, broken)


def test_trace_distance_dominates_projective_measurements():
    # any two-outcome projective measurement distinguishes no better than the
    # trace distance; for qubits the top eigenvector of rho - sigma attains it
    rng = np.random.default_rng(90)
    rho = random_density(rng)
    sigma = random_density(rng)
    td = metrics.trace_distance(rho, sigma)
    delta = rho - sigma
    w, v = np.linalg.eigh(delta)
    psis = np.vstack([haar_states(rng, 300, 2), v[:, np.argmax(w)].reshape(1, 2)])
    sampled = np.abs(np.einsum("ni,ij,nj->n", psis.conj(), delta, psis).real)
    assert sampled.max() <= td + 1e-12
    assert sampled.max() == pytest.approx(td, abs=1e-9)


def test_fidelity_of_identity():
    assert metrics.average_gate_fidelity(channels.identity_channel(2)) == pytest.approx(1.0)
    assert metrics.average_gate_fidelity(channels.identity_channel(5)) == pytest.approx(1.0)


@pytest.mark.parametrize("r", [0.0, 0.2, 1.0, 4.0 / 3.0])
def test_fidelity_of_depolarizing(r):
    got = metrics.average_gate_fidelity(channels.depolarizing(r))
    assert got == pytest.approx(1.0 - r / 2.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, np.pi / 2])
def test_fidelity_of_unitary_error(theta):
    got = metrics.average_gate_fidelity(channels.unitary_error(theta))
    want = 1.0 / 3.0 + (2.0 / 3.0) * math.cos(theta) ** 2
    assert got == pytest.approx(want, abs=1e-12)


def test_fidelity_of_amplitude_damping():
    got = metrics.average_gate_fidelity(channels.amplitude_damping(0.5))
    want = (2.0 + (1.0 + math.sqrt(0.5)) ** 2) / 6.0
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dim,lam", [(2, 0.1), (4, 0.25)])
def test_fidelity_of_lambda_mixture_discrepancy(dim, lam):
    actual, ideal = channels.lambda_mixture(dim, lam)
    disc = channels.discrepancy(actual, ideal)
    want = 1.0 - 4.0 * (dim - 1) * lam / (dim * (dim + 1))
    assert metrics.average_gate_fidelity(disc) == pytest.approx(want, abs=1e-12)


def test_fidelity_matches_haar_average():
    """Nielsen's closed form against a direct 1e5-sample Haar estimate."""
    rng = np.random.default_rng(91)
    for _ in range(5):
        ch = random_channel(rng, kraus_count=2)
        closed = metrics.average_gate_fidelity(ch)
        psis = haar_states(rng, 100_000, 2)
        overlaps = np.zeros(len(psis))
        for a in ch.kraus:
            amp = np.einsum("ni,ij,nj->n", psis.conj(), a, psis)
            overlaps += np.abs(amp) ** 2
        err = overlaps.std(ddof=1) / math.sqrt(len(psis))
        assert abs(overlaps.mean() - closed) <= 3.0 * err


def test_inverse_infidelity():
    assert metrics.inverse_infidelity(0.75) == pytest.approx(4.0)
    assert metrics.inverse_infidelity(0.0) == pytest.approx(1.0)
    assert metrics.inverse_infidelity(1.0) is metrics.EXACT
    # within channels.SLOP of 1 the fidelity clamps to 1; beyond it, refused
    assert metrics.inverse_infidelity(1.0 + 1e-12) is metrics.EXACT
    with pytest.raises(ValueError, match="fidelity"):
        metrics.inverse_infidelity(1.0 + 1e-11)
    with pytest.raises(ValueError, match="fidelity"):
        metrics.inverse_infidelity(-0.1)
