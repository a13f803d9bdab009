import json

import numpy as np
import pytest

from gatebounds import channels, cli, linalg, metrics
from helpers import random_hermitian, random_unitary


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linalg.as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.as_complex_matrix([1.0, 2.0])
    out = linalg.as_complex_matrix([[1, 0], [0, 1]])
    assert out.dtype == np.complex128
    with pytest.raises(ValueError, match="^Kraus operator 2 has a non-finite entry$"):
        linalg.as_complex_matrix([[1.0, np.inf], [0.0, 1.0]], "Kraus operator 2")


def test_eigendecomposition_ascending_and_reconstructs():
    # numpy's order, as every eigen-solve of the package's own matrices
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        h = random_hermitian(rng, n, scale=3.0)
        w, v = linalg.hermitian_eigendecomposition(h)
        assert np.all(np.diff(w) >= 0)
        scale = float(np.abs(h).max())
        assert float(np.abs(v @ np.diag(w) @ v.conj().T - h).max()) <= 1e-10 * scale
        assert float(np.abs(v.conj().T @ v - np.eye(n)).max()) <= 1e-10
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-10 * max(1.0, scale))


def test_eigendecomposition_rejects_non_hermitian():
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(defect 1\.000e\+00, tol 1\.000e-09\)"):
        linalg.hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"^choi matrix is not Hermitian \(defect 1\.000e\+00"):
        linalg.hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]), "choi matrix")
    # the tolerance: a 1e-12 asymmetry is roundoff, a 1e-6 one is not
    h = np.array([[1.0, 1j], [-1j, 2.0]])
    linalg.hermitian_eigendecomposition(h + np.array([[0, 1e-12], [0, 0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eigendecomposition(h + np.array([[0, 1e-6], [0, 0]]))
    # a NaN is refused as such, before any Hermiticity test
    with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
        linalg.hermitian_eigendecomposition(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_trace_norm_values_and_triangle():
    assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-10


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenphases_of_diagonal_unitary():
    u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))
    np.testing.assert_allclose(linalg.unitary_eigenphases(u), [-1.2, 0.3, 2.5], atol=1e-12)


def test_eigenphases_identity_and_pi():
    np.testing.assert_allclose(linalg.unitary_eigenphases(np.eye(3)), [0.0, 0.0, 0.0], atol=1e-12)
    phases = linalg.unitary_eigenphases(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(phases, [0.0, np.pi], atol=1e-12)


def test_eigenphases_degenerate_cosine():
    # +theta and -theta share the cosine, splitting happens in the sine block
    theta = 0.7
    u = np.diag([np.exp(1j * theta), np.exp(-1j * theta), np.exp(1j * theta)])
    rng = np.random.default_rng(6)
    w = random_unitary(rng, 3)
    phases = linalg.unitary_eigenphases(w @ u @ w.conj().T)
    np.testing.assert_allclose(phases, [-theta, theta, theta], atol=1e-7)


def test_eigenphases_recover_known_phases_in_random_bases():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        theta = rng.uniform(-np.pi, np.pi, n)
        v = random_unitary(rng, n)
        u = v @ np.diag(np.exp(1j * theta)) @ v.conj().T
        got = linalg.unitary_eigenphases(u)
        np.testing.assert_allclose(got, np.sort(theta), atol=1e-8)
        assert np.all(got > -np.pi - 1e-12) and np.all(got <= np.pi + 1e-12)


def _choi_file(tmp_path, j):
    path = tmp_path / "choi.json"
    rows = [[[float(e.real), float(e.imag)] for e in row] for row in j]
    path.write_text(json.dumps({"dim": 2, "kind": "choi", "choi": rows}))
    return cli.load_channel_file(str(path))


_EYE = np.eye(2)
_CHOI = channels.identity_channel(2).choi
# a unit vector orthogonal to the identity's Choi vector
_OFF = np.array([0.0, 1.0, 0.0, 0.0])

# every gate for a matrix from outside: how to pass it a matrix perturbed by
# eps, and what its refusal says
MATRIX_GATES = {
    "Channel": (lambda eps, _: channels.Channel([(1 + eps) * _EYE]), "not trace preserving"),
    "unitary_channel": (lambda eps, _: channels.unitary_channel((1 + eps) * _EYE), "not unitary"),
    "discrepancy-ideal": (
        lambda eps, _: channels.discrepancy(channels.identity_channel(2), (1 + eps) * _EYE),
        "matrix is not unitary",
    ),
    "cli-choi-hermiticity": (
        lambda eps, tmp: _choi_file(tmp, _CHOI + eps * np.outer(_OFF, [1, 0, 0, 0])),
        "choi matrix is not Hermitian",
    ),
    "cli-choi-positivity": (
        lambda eps, tmp: _choi_file(tmp, _CHOI - eps * np.outer(_OFF, _OFF)),
        "not completely positive",
    ),
    "trace_distance-trace": (
        lambda eps, _: metrics.trace_distance(np.diag([0.5 + eps, 0.5]), _EYE / 2),
        "rho does not have unit trace",
    ),
    "trace_distance-positivity": (
        lambda eps, _: metrics.trace_distance(_EYE / 2, np.diag([1 + eps, -eps])),
        "sigma is not positive semidefinite",
    ),
    "trace_distance-hermiticity": (
        lambda eps, _: metrics.trace_distance(_EYE / 2 + [[0, eps], [0, 0]], _EYE / 2),
        "rho is not Hermitian",
    ),
}


@pytest.mark.parametrize(("gate", "reason"), MATRIX_GATES.values(), ids=MATRIX_GATES)
def test_one_tolerance_governs_every_matrix_gate(gate, reason, tmp_path, monkeypatch):
    # linalg.TOLERANCE is read by every gate at call time: no module keeps a
    # copy of its own
    with pytest.raises(ValueError, match=reason):
        gate(1e-6, tmp_path)
    monkeypatch.setattr(linalg, "TOLERANCE", 1e-3)
    gate(1e-6, tmp_path)
