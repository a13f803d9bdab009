"""Channel construction, Choi conventions, and the channel algebra."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import gatebounds
from gatebounds import channels, cli, linalg, pauli
from gatebounds.channels import Channel, ChannelValidationError
from helpers import random_channel, random_density, random_unitary

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def test_validation_rejects_non_trace_preserving():
    with pytest.raises(ChannelValidationError, match="not trace preserving"):
        Channel([np.eye(2) / 2])
    for bad in (np.nan, np.inf):
        with pytest.raises(ChannelValidationError, match="non-finite entry"):
            Channel([np.array([[bad, 0.0], [0.0, 1.0]])])


def test_every_unitary_entry_gives_one_refusal(tmp_path, capsys):
    # one unitarity test, at entry: the same message from the library's
    # three entry points and from an ideal-gate file
    bad = np.diag([1.0, 1.1])
    want = "matrix is not unitary within tolerance: defect 2.100e-01"
    entries = (
        channels.unitary_channel,
        lambda m: channels.discrepancy(channels.identity_channel(2), m),
        gatebounds.unitary_diamond_distance,
    )
    for enter in entries:
        with pytest.raises(ChannelValidationError) as info:
            enter(bad)
        assert str(info.value) == want
    spec, ideal = tmp_path / "x.json", tmp_path / "ideal.json"
    spec.write_text(json.dumps({"dim": 2, "kind": "kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
    ideal.write_text(json.dumps({"dim": 2, "unitary": [[[1, 0], [0, 0]], [[0, 0], [1.1, 0]]]}))
    assert cli.main(["analyze", str(spec), str(ideal)]) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


def test_validation_rejects_empty_and_mixed_dims():
    with pytest.raises(ChannelValidationError):
        Channel([])
    with pytest.raises(ChannelValidationError):
        Channel([np.eye(2), np.eye(3)])
    # a 0 x 0 operator is refused before any reduction over its entries
    with pytest.raises(ChannelValidationError, match="of dimension at least 1"):
        Channel([np.zeros((0, 0))])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_apply_rejects_a_non_finite_state_by_name(bad):
    # one such entry would spread through every Kraus product
    rho = np.eye(2, dtype=np.complex128) / 2
    rho[0, 1] = bad
    with pytest.raises(ValueError, match="state has a non-finite entry"):
        channels.depolarizing(0.1).apply(rho)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mix_rejects_non_finite_weights_by_name(bad):
    # NaN passes both comparisons of the weight checks, so it is named first
    ident = channels.identity_channel(2)
    with pytest.raises(ValueError, match=rf"mixture weights\[0\] must be finite, got {bad!r}"):
        channels.mix([(bad, ident), (1.0, channels.depolarizing(0.1))])
    with pytest.raises(ValueError, match=rf"mixture weights\[1\] must be finite, got {bad!r}"):
        channels.mix([(1.0, ident), (bad, channels.depolarizing(0.1))])


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
    # an integer-valued float or numpy integer is that dimension
    np.testing.assert_array_equal(channels.phase_matrix(4.0, 0.25), u)
    assert channels.generalized_cphase(np.int64(2), 0.25).dim == 2
    actual, ideal = channels.lambda_mixture(2.0, 0.2)
    assert actual.dim == 2 and ideal.shape == (2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phase_matrix_rejects_non_finite_theta(bad):
    with pytest.raises(ValueError, match="theta must be finite"):
        channels.phase_matrix(2, bad)
    with pytest.raises(ValueError, match="theta must be finite"):
        channels.generalized_cphase(4, bad)


@pytest.mark.parametrize("bad", [1, 2.5, np.inf, np.nan, "2", True])
def test_phase_matrix_rejects_a_non_integer_dimension(bad):
    message = f"dimension must be an integer of at least 2, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        channels.phase_matrix(bad, 0.25)
    with pytest.raises(ValueError, match=message):
        channels.generalized_cphase(bad, 0.25)
    with pytest.raises(ValueError, match=message):
        channels.lambda_mixture(bad, 0.2)


@pytest.mark.parametrize("dim", [1, 2.0, np.int64(3)])
def test_identity_channel_takes_an_integer_valued_dimension(dim):
    ch = channels.identity_channel(dim)
    assert ch.dim == dim
    np.testing.assert_array_equal(ch.kraus[0], np.eye(int(dim)))


@pytest.mark.parametrize("bad", [0, -2, 2.5, np.inf, np.nan, "2", None, True, False])
def test_identity_channel_rejects_a_non_integer_dimension(bad):
    message = f"dimension must be an integer of at least 1, got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        channels.identity_channel(bad)


def test_lambda_mixture_returns_pair():
    actual, ideal = channels.lambda_mixture(3, 0.2)
    np.testing.assert_allclose(ideal, channels.phase_matrix(3, np.pi), atol=1e-15)
    assert actual.dim == 3
    pure, _ = channels.lambda_mixture(3, 0.0)
    assert len(pure.kraus) == 1
    with pytest.raises(ValueError):
        channels.lambda_mixture(3, 1.2)


def test_input_accepted_within_tolerance_enters_normalized():
    # a defect above linalg.NORMALIZE_ABOVE is taken out where the input
    # enters; an exact input is stored as it is, bit for bit
    u = random_unitary(np.random.default_rng(7), 3)
    assert linalg.unitary_defect(u) <= linalg.NORMALIZE_ABOVE
    assert Channel([u]).kraus[0].tobytes() == channels.unitary_channel(u).kraus[0].tobytes() == u.tobytes()
    for s in (1 + 4.5e-10, 1 - 4.5e-10):
        assert linalg.unitary_defect(s * u) > linalg.NORMALIZE_ABOVE
        for entered in (Channel([s * u]), channels.unitary_channel(s * u)):
            assert linalg.unitary_defect(entered.kraus[0]) <= 1e-15
        disc = channels.discrepancy(channels.unitary_channel(u), s * u)
        assert np.abs(disc.kraus[0] - np.eye(3)).max() <= 1e-15
    # several Kraus operators: A_k T^(-1/2) sums to the identity
    ops = [0.6 * (1 + 4.5e-10) * np.eye(2), 0.8 * SIGMA_X]
    total = sum(a.conj().T @ a for a in Channel(ops).kraus)
    assert np.abs(total - np.eye(2)).max() <= 1e-15


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ChannelValidationError):
        channels.unitary_channel(np.diag([1.0, 2.0]))


def test_channel_is_called_only_where_kraus_operators_arrive_from_outside():
    # the CPTP test runs once, at entry: every other channel is derived
    callers = set()
    for path in sorted(Path(gatebounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # each node's innermost enclosing function: walk() meets outer
        # functions first, so inner ones overwrite them
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = node.func
                name = called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)
                if name == "Channel":
                    callers.add(f"{path.stem}.{owner.get(node, '<module>')}")
    assert callers == {"cli.load_channel_file", "cli._channel_from_choi", "refcheck._random_channel"}


def test_only_channels_tests_whether_a_number_is_an_integer():
    # one integer rule, checked_integer: no other module tests for
    # numbers.Integral or calls float.is_integer
    testers = set()
    for path in sorted(Path(gatebounds.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("Integral", "is_integer"):
                testers.add(path.stem)
    assert testers <= {"channels"}


def test_derived_channels_skip_the_cptp_test(monkeypatch):
    rng = np.random.default_rng(35)
    noise = random_channel(rng, dim=2, kraus_count=2)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]

    def refuse(self, kraus):
        raise AssertionError("Channel.__init__ called")

    monkeypatch.setattr(Channel, "__init__", refuse)
    derived = [
        channels.compose(noise, noise),
        channels.mix([(0.5, noise), (0.5, channels.identity_channel(2))]),
        channels.discrepancy(noise, u),
        channels.unitary_channel(u),
        pauli.pauli_twirl(noise),
        channels.depolarizing(0.1),
        channels.unitary_error(0.3),
        channels.amplitude_damping(0.2),
        channels.generalized_cphase(3, 0.4),
        channels.lambda_mixture(3, 0.2)[0],
    ]
    for ch in derived:
        assert all(not a.flags.writeable and a.flags.c_contiguous for a in ch.kraus)
        assert float(np.abs(sum(a.conj().T @ a for a in ch.kraus) - np.eye(ch.dim)).max()) <= 1e-12
