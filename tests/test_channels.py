"""Channel construction, Choi conventions, and the channel algebra."""

import numpy as np
import pytest

from gatebounds import channels
from gatebounds.channels import Channel, ChannelValidationError

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def random_channel(rng, dim=2, kraus_count=2):
    big = rng.standard_normal((kraus_count * dim, dim)) + 1j * rng.standard_normal(
        (kraus_count * dim, dim)
    )
    q, _ = np.linalg.qr(big)
    return Channel([q[k * dim : (k + 1) * dim] for k in range(kraus_count)])


def random_density(rng, dim=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_validation_rejects_non_trace_preserving():
    with pytest.raises(ChannelValidationError, match="not trace preserving"):
        Channel([np.eye(2) / 2])
    for bad in (np.nan, np.inf):
        with pytest.raises(ChannelValidationError, match="non-finite entry"):
            Channel([np.array([[bad, 0.0], [0.0, 1.0]])])


def test_validation_rejects_empty_and_mixed_dims():
    with pytest.raises(ChannelValidationError):
        Channel([])
    with pytest.raises(ChannelValidationError):
        Channel([np.eye(2), np.eye(3)])


def test_kraus_arrays_are_read_only():
    ch = channels.identity_channel(2)
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        ch.choi[0, 0] = 5.0


def test_identity_choi_convention():
    # output factor first: J(id) = |vec I><vec I| with row-major vec
    want = np.zeros((4, 4))
    want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 1.0
    np.testing.assert_allclose(channels.identity_channel(2).choi, want, atol=1e-15)


def test_bit_flip_choi():
    want = np.zeros((4, 4))
    want[1, 1] = want[1, 2] = want[2, 1] = want[2, 2] = 1.0
    np.testing.assert_allclose(channels.unitary_channel(SIGMA_X).choi, want, atol=1e-15)


def test_fully_depolarizing_choi_is_maximally_mixed():
    np.testing.assert_allclose(channels.depolarizing(1.0).choi, np.eye(4) / 2, atol=1e-12)


def test_choi_trace_and_positivity():
    rng = np.random.default_rng(31)
    ch = random_channel(rng, dim=3, kraus_count=2)
    j = ch.choi
    assert np.trace(j).real == pytest.approx(3.0, abs=1e-10)
    assert np.linalg.eigvalsh(j).min() >= -1e-9
    assert ch.choi is j


def test_apply_preserves_trace():
    rng = np.random.default_rng(32)
    ch = random_channel(rng, dim=2, kraus_count=3)
    for _ in range(5):
        rho = random_density(rng)
        out = ch.apply(rho)
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-10


def test_apply_dimension_check():
    with pytest.raises(ValueError):
        channels.identity_channel(2).apply(np.eye(3))


def test_compose_of_unitaries_is_product():
    rng = np.random.default_rng(33)
    a = np.diag(np.exp(1j * rng.standard_normal(2)))
    b = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    composed = channels.compose(channels.unitary_channel(a), channels.unitary_channel(b))
    assert len(composed.kraus) == 1
    np.testing.assert_allclose(composed.kraus[0], a @ b, atol=1e-12)
    with pytest.raises(ValueError):
        channels.compose(channels.identity_channel(2), channels.identity_channel(3))


def test_discrepancy_undoes_the_ideal_gate():
    rng = np.random.default_rng(34)
    actual = random_channel(rng, dim=2, kraus_count=2)
    ideal = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    disc = channels.discrepancy(actual, ideal)
    back = channels.compose(disc, channels.unitary_channel(ideal))
    assert float(np.abs(back.choi - actual.choi).max()) <= 1e-10


def test_discrepancy_of_perfect_gate_is_identity():
    u = np.diag([1.0, np.exp(0.4j)])
    disc = channels.discrepancy(channels.unitary_channel(u), u)
    assert float(np.abs(disc.choi - channels.identity_channel(2).choi).max()) <= 1e-12


def test_mix_choi_linearity():
    rng = np.random.default_rng(35)
    parts = [random_channel(rng) for _ in range(3)]
    weights = rng.random(3)
    weights /= weights.sum()
    mixed = channels.mix(zip(weights, parts))
    linear = sum(w * ch.choi for w, ch in zip(weights, parts))
    assert float(np.abs(mixed.choi - linear).max()) <= 1e-12


def test_mix_validation():
    ident = channels.identity_channel(2)
    with pytest.raises(ValueError):
        channels.mix([])
    with pytest.raises(ValueError):
        channels.mix([(-0.1, ident), (1.1, ident)])
    with pytest.raises(ValueError):
        channels.mix([(0.5, ident), (0.4, ident)])
    skipped = channels.mix([(1.0, ident), (0.0, channels.depolarizing(0.5))])
    assert len(skipped.kraus) == 1


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 4.0 / 3.0])
def test_depolarizing_domain(r):
    ch = channels.depolarizing(r)
    assert len(ch.kraus) == 4


def test_depolarizing_rejects_out_of_range():
    with pytest.raises(ValueError):
        channels.depolarizing(1.35)
    with pytest.raises(ValueError):
        channels.depolarizing(-0.01)


def test_unitary_error_structure():
    theta = 0.4
    ch = channels.unitary_error(theta)
    np.testing.assert_allclose(
        ch.kraus[0], np.diag([np.exp(1j * theta), np.exp(-1j * theta)]), atol=1e-15
    )
    with pytest.raises(ValueError):
        channels.unitary_error(3.5)


def test_amplitude_damping_structure():
    ch = channels.amplitude_damping(0.36)
    np.testing.assert_allclose(ch.kraus[0], np.diag([1.0, 0.8]), atol=1e-12)
    assert ch.kraus[1][0, 1] == pytest.approx(0.6)
    with pytest.raises(ValueError):
        channels.amplitude_damping(1.01)


def test_phase_matrix_and_cphase():
    u = channels.phase_matrix(4, 0.25)
    np.testing.assert_allclose(np.diag(u), [1, 1, 1, np.exp(0.25j)], atol=1e-15)
    assert len(channels.generalized_cphase(4, 0.25).kraus) == 1
    with pytest.raises(ValueError):
        channels.phase_matrix(1, 0.25)


def test_lambda_mixture_returns_pair():
    actual, ideal = channels.lambda_mixture(3, 0.2)
    np.testing.assert_allclose(ideal, channels.phase_matrix(3, np.pi), atol=1e-15)
    assert actual.dim == 3
    pure, _ = channels.lambda_mixture(3, 0.0)
    assert len(pure.kraus) == 1
    with pytest.raises(ValueError):
        channels.lambda_mixture(3, 1.2)


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ChannelValidationError):
        channels.unitary_channel(np.diag([1.0, 2.0]))
