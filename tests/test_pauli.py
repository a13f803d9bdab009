import numpy as np
import pytest

from gatebounds import channels, diamond, metrics, pauli
from gatebounds.channels import Channel


def random_pauli_channel(rng, qubits):
    labels = pauli.pauli_labels(qubits)
    raw = rng.random(len(labels))
    raw /= raw.sum()
    return pauli.PauliChannel(qubits, dict(zip(labels, raw)))


def random_channel(rng, dim=2, kraus_count=2):
    big = rng.standard_normal((kraus_count * dim, dim)) + 1j * rng.standard_normal(
        (kraus_count * dim, dim)
    )
    q, _ = np.linalg.qr(big)
    return Channel([q[k * dim : (k + 1) * dim] for k in range(kraus_count)])


def test_labels():
    assert pauli.pauli_labels(1) == ["I", "X", "Y", "Z"]
    two = pauli.pauli_labels(2)
    assert len(two) == 16
    assert two[0] == "II" and two[1] == "IX" and two[-1] == "ZZ"
    with pytest.raises(ValueError):
        pauli.pauli_labels(0)


def test_operators_square_to_identity():
    for label in pauli.pauli_labels(2):
        op = pauli.pauli_operator(label)
        np.testing.assert_allclose(op @ op, np.eye(4), atol=1e-15)


def test_operator_tensor_structure():
    np.testing.assert_allclose(
        pauli.pauli_operator("XZ"),
        np.kron(pauli.PAULI_MATRICES["X"], pauli.PAULI_MATRICES["Z"]),
        atol=1e-15,
    )
    with pytest.raises(ValueError):
        pauli.pauli_operator("XQ")
    with pytest.raises(ValueError):
        pauli.pauli_operator("")


def test_pauli_channel_validation():
    with pytest.raises(ValueError):
        pauli.PauliChannel(1, {"XX": 1.0})
    with pytest.raises(ValueError):
        pauli.PauliChannel(1, {"I": 0.5, "X": 0.4})
    with pytest.raises(ValueError):
        pauli.PauliChannel(1, {"I": 1.2, "X": -0.2})


def test_error_rate_is_nonidentity_weight():
    pc = pauli.PauliChannel(1, {"I": 0.85, "X": 0.1, "Z": 0.05})
    assert pc.error_rate == pytest.approx(0.15)
    assert pc.dim == 2


@pytest.mark.parametrize("qubits", [1, 2])
def test_channel_round_trip(qubits):
    rng = np.random.default_rng(50 + qubits)
    pc = random_pauli_channel(rng, qubits)
    back = pauli.as_pauli_channel(pc.as_channel())
    assert back.qubits == qubits
    for label in pauli.pauli_labels(qubits):
        assert back.probs[label] == pytest.approx(pc.probs[label], abs=1e-12)


def test_as_pauli_channel_rejects_non_pauli():
    with pytest.raises(ValueError, match="not Pauli"):
        pauli.as_pauli_channel(channels.amplitude_damping(0.3))


def test_twirl_output_is_pauli_and_idempotent():
    rng = np.random.default_rng(52)
    for _ in range(3):
        ch = random_channel(rng, kraus_count=3)
        tw = pauli.pauli_twirl(ch)
        pauli.as_pauli_channel(tw)
        twice = pauli.pauli_twirl(tw)
        assert float(np.abs(twice.choi - tw.choi).max()) <= 1e-10


def test_twirl_preserves_fidelity():
    rng = np.random.default_rng(53)
    for _ in range(3):
        ch = random_channel(rng, kraus_count=2)
        tw = pauli.pauli_twirl(ch)
        assert metrics.average_gate_fidelity(tw) == pytest.approx(
            metrics.average_gate_fidelity(ch), abs=1e-10
        )


def test_twirl_of_rotation_mixes_identity_and_z():
    theta = 0.6
    tw = pauli.as_pauli_channel(pauli.pauli_twirl(channels.unitary_error(theta)))
    assert tw.probs["I"] == pytest.approx(np.cos(theta) ** 2, abs=1e-12)
    assert tw.probs["Z"] == pytest.approx(np.sin(theta) ** 2, abs=1e-12)
    assert tw.probs["X"] == pytest.approx(0.0, abs=1e-12)
    assert tw.probs["Y"] == pytest.approx(0.0, abs=1e-12)


def test_twirl_rejects_non_qubit_dimension():
    with pytest.raises(ValueError, match="power of two"):
        pauli.pauli_twirl(channels.identity_channel(3))


@pytest.mark.parametrize("qubits", [1, 2])
def test_error_rate_saturates_fidelity_bound(qubits):
    # the fidelity-derived lower bound is exact on Pauli channels
    rng = np.random.default_rng(54 + qubits)
    for _ in range(5):
        pc = random_pauli_channel(rng, qubits)
        d = pc.dim
        phi = metrics.average_gate_fidelity(pc.as_channel())
        want = (1.0 + 1.0 / d) * (1.0 - phi)
        assert pc.error_rate == pytest.approx(want, abs=1e-10)


def test_error_rate_equals_diamond_distance():
    rng = np.random.default_rng(56)
    for qubits in (1, 2):
        pc = random_pauli_channel(rng, qubits)
        closed = diamond.diamond_distance(pc.as_channel()).value
        assert closed == pytest.approx(pc.error_rate, abs=1e-9)
    for _ in range(3):
        pc = random_pauli_channel(rng, 1)
        via_sdp = diamond.diamond_distance(pc.as_channel(), method="sdp").value
        assert via_sdp == pytest.approx(pc.error_rate, abs=1e-6)
