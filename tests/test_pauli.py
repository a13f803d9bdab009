import re

import numpy as np
import pytest

from gatebounds import channels, diamond, metrics, pauli
from helpers import random_channel, random_pauli_channel


def test_labels():
    assert pauli.pauli_labels(1) == ["I", "X", "Y", "Z"]
    two = pauli.pauli_labels(2)
    assert len(two) == 16
    assert two[0] == "II" and two[1] == "IX" and two[-1] == "ZZ"
    # the qubit count is checked as a dimension of at least 1
    assert pauli.pauli_labels(2.0) == two
    for bad in (0, 1.5, True, "2", 2**53 + 1):
        with pytest.raises(ValueError, match=f"qubit count must be an integer of at (least 1|most 2\\*\\*53), got {re.escape(repr(bad))}"):
            pauli.pauli_labels(bad)


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


def test_single_qubit_paulis_are_read_only():
    # a write into a stored Pauli would change every later depolarizing
    # channel and twirl; pauli_operator hands out a copy to write into
    before = channels.depolarizing(0.3).choi
    for label, m in pauli.PAULI_MATRICES.items():
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
        op = pauli.pauli_operator(label)
        op[0, 0] = 5.0
        assert not np.shares_memory(op, m)
    assert np.array_equal(pauli.PAULI_MATRICES["X"], [[0, 1], [1, 0]])
    assert np.array_equal(channels.depolarizing(0.3).choi, before)


@pytest.mark.parametrize("qubits", [2, 3])
def test_operator_equals_the_kronecker_product_to_the_bit(qubits):
    for label in pauli.pauli_labels(qubits):
        want = pauli.PAULI_MATRICES[label[0]]
        for ch in label[1:]:
            want = np.kron(want, pauli.PAULI_MATRICES[ch])
        # compared as bit patterns, so signed zeros must agree too
        assert np.array_equal(pauli.pauli_operator(label).view(np.int64), want.view(np.int64))


def test_pauli_channel_validation():
    with pytest.raises(ValueError):
        pauli.PauliChannel(1, {"XX": 1.0})
    with pytest.raises(ValueError):
        pauli.PauliChannel(1, {"I": 0.5, "X": 0.4})
    with pytest.raises(ValueError):
        pauli.PauliChannel(1, {"I": 1.2, "X": -0.2})


def test_pauli_channel_checks_each_label_without_enumerating_labels(monkeypatch):
    def refuse(qubits):
        raise AssertionError("pauli_labels called")

    # 4^40 labels could never be listed; each key is checked on its own
    monkeypatch.setattr(pauli, "pauli_labels", refuse)
    big = pauli.PauliChannel(40, {"I" * 40: 0.75, "XZ" * 20: 0.25})
    assert big.dim == 2**40 and big.error_rate == 0.25
    with pytest.raises(ValueError, match=re.escape("labels ['IQ', 'X'] are not 2-qubit Paulis")):
        pauli.PauliChannel(2, {"X": 0.5, "IQ": 0.25, "ZZ": 0.25})
    with pytest.raises(ValueError, match="^qubit count must be an integer of at least 1, got 0$"):
        pauli.PauliChannel(0, {"": 1.0})


def test_pauli_channel_stores_an_integer_valued_qubit_count_as_an_int():
    # a float count made dim the float 4.0 and error_rate a TypeError
    pc = pauli.PauliChannel(2.0, {"II": 1.0})
    assert pc.qubits == 2 and type(pc.qubits) is int
    assert pc.dim == 4 and type(pc.dim) is int
    assert pc.error_rate == 0.0
    assert pc == pauli.PauliChannel(2, {"II": 1.0})


def test_as_channel_builds_only_the_stored_labels(monkeypatch):
    def refuse(qubits):
        raise AssertionError("all 4^n Pauli operators built")

    # the 4^8 stack of 256 x 256 complex operators would take about 69 GB
    monkeypatch.setattr(pauli, "_operators", refuse)
    monkeypatch.setattr(pauli, "pauli_labels", refuse)
    ch = pauli.PauliChannel(8, {"I" * 8: 0.75, "XZ" * 4: 0.25}).as_channel()
    assert ch.dim == 256 and len(ch.kraus) == 2
    np.testing.assert_array_equal(ch.kraus[0], np.sqrt(0.75) * np.eye(256))
    np.testing.assert_array_equal(ch.kraus[1], np.sqrt(0.25) * pauli.pauli_operator("XZ" * 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pauli_channel_rejects_non_finite_probabilities(bad):
    # NaN slips through both the sign test and the sum test
    with pytest.raises(ValueError, match=rf"Pauli probabilities\['X'\] must be finite, got {bad!r}"):
        pauli.PauliChannel(1, {"I": 1.0, "X": bad})


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


def reference_twirl_choi(ch):
    # the definition: (1/4^n) sum_P sum_m (P A_m P)(.)(P A_m P)^dagger, whose
    # Kraus operators P A_m P / 2^n give the Choi matrix sum vec(K) vec(K)^dagger
    ops = [pauli.pauli_operator(label) for label in pauli.pauli_labels(ch.dim.bit_length() - 1)]
    vecs = np.array([(p @ a @ p).ravel() for p in ops for a in ch.kraus]) / ch.dim
    return vecs.T @ vecs.conj()


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_twirl_matches_the_conjugation_average(dim):
    rng = np.random.default_rng(57 + dim)
    for _ in range(3):
        ch = random_channel(rng, dim=dim, kraus_count=3)
        tw = pauli.pauli_twirl(ch)
        assert len(tw.kraus) <= dim * dim
        assert float(np.abs(tw.choi - reference_twirl_choi(ch)).max()) <= 1e-15 * dim


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_twirl_leaves_a_pauli_channel_unchanged(qubits):
    pc = random_pauli_channel(np.random.default_rng(60 + qubits), qubits)
    tw = pauli.pauli_twirl(pc.as_channel())
    assert float(np.abs(tw.choi - pc.as_channel().choi).max()) <= 1e-15 * pc.dim
    back = pauli.as_pauli_channel(tw)
    for label in pauli.pauli_labels(qubits):
        assert back.probs[label] == pytest.approx(pc.probs[label], abs=1e-15)


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
    # the message names the channel's dimension, not a derived qubit count
    for dim in (1, 3):
        with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two of at least 2"):
            pauli.pauli_twirl(channels.identity_channel(dim))


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


def kron_projection(ch):
    # the projection as it was written before the operator cache: every
    # Pauli operator rebuilt by Kronecker products, as basis columns
    d = ch.dim
    labels = pauli.pauli_labels(d.bit_length() - 1)
    basis = np.column_stack([pauli.pauli_operator(label).ravel() for label in labels]) / np.sqrt(d)
    raw = np.diag(basis.conj().T @ ch.choi @ basis).real / d
    probs = {label: float(max(0.0, p)) for label, p in zip(labels, raw)}
    total = sum(probs.values())
    return {label: p / total for label, p in probs.items()}


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_cached_operators_give_the_kronecker_results_to_the_bit(qubits):
    rng = np.random.default_rng(64 + qubits)
    d = 2**qubits
    ops = pauli._operators(qubits)
    assert ops is pauli._operators(qubits) and not ops.flags.writeable
    for label, op in zip(pauli.pauli_labels(qubits), ops):
        assert np.array_equal(op, pauli.pauli_operator(label))
    # pauli_operator still hands out a fresh, writable array
    fresh = pauli.pauli_operator("X" * qubits)
    assert fresh.flags.writeable and not np.shares_memory(fresh, ops)
    for k in range(4):
        ch = random_channel(rng, dim=d, kraus_count=1 + k)
        assert pauli._projection(ch)[0].probs == kron_projection(ch)
        pc = random_pauli_channel(rng, qubits)
        want = [np.sqrt(p) * pauli.pauli_operator(label) for label, p in sorted(pc.probs.items()) if p > 0.0]
        got = pc.as_channel().kraus
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
