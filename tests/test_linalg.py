import numpy as np
import pytest

from gatebounds import linalg
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


def test_unitary_predicate():
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert linalg.is_unitary(u)
    assert not linalg.is_unitary(2 * u)


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


def test_eigenphases_reject_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        linalg.unitary_eigenphases(np.diag([1.0, 2.0]))
