"""Interior-point solver on problems with independently known optima."""

import numpy as np
import pytest

from gatebounds import sdp


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def min_eig_problem(c):
    # minimize <C, X> over X >= 0 with tr X = 1; optimum is the smallest
    # eigenvalue of C, attained on the matching eigenprojector
    n = c.shape[0]
    return sdp.SdpProblem([n], [c], [[np.eye(n)]], [1.0])


def test_embed_is_symmetric_and_doubles_eigenvalues():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (a + a.conj().T) / 2
    s = sdp.embed_hermitian(h)
    np.testing.assert_allclose(s, s.T, atol=1e-15)
    doubled = np.sort(np.concatenate([np.linalg.eigvalsh(h)] * 2))
    np.testing.assert_allclose(np.linalg.eigvalsh(s), doubled, atol=1e-10)


def test_problem_validation():
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    eye = np.eye(2)
    with pytest.raises(ValueError, match="not symmetric"):
        sdp.SdpProblem([2], [asym], [[eye]], [1.0])
    with pytest.raises(ValueError, match="shape"):
        sdp.SdpProblem([2], [np.eye(3)], [[eye]], [1.0])
    with pytest.raises(ValueError, match="constraint rows"):
        sdp.SdpProblem([2], [eye], [[eye]], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        sdp.SdpProblem([0], [np.zeros((0, 0))], [], [])


def test_scalar_problem():
    # minimize 3x subject to x = 2
    prob = sdp.SdpProblem([1], [[[3.0]]], [[[[1.0]]]], [2.0])
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    assert sol.primal_value == pytest.approx(6.0, abs=1e-7)
    assert sol.x[0][0, 0] == pytest.approx(2.0, abs=1e-7)


def test_correlation_toy_against_grid_oracle():
    # X = [[1, t], [t, 1]] is feasible iff |t| <= 1; objective 2t
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    prob = sdp.SdpProblem([2], [c], [[e00], [e11]], [1.0, 1.0])
    sol = sdp.solve(prob)
    oracle = min(2.0 * t for t in np.linspace(-1.0, 1.0, 2001))
    assert sol.status is sdp.SdpStatus.CONVERGED
    assert sol.primal_value == pytest.approx(oracle, abs=1e-6)
    checked = sdp.verify_solution(prob, sol)
    assert checked["primal_residual"] <= 1e-8
    assert checked["x_min_eig"] >= -1e-7
    assert checked["z_min_eig"] >= -1e-7
    assert checked["gap"] <= 1e-8


@pytest.mark.parametrize("n", [3, 5])
def test_min_eigenvalue_problem(n):
    rng = np.random.default_rng(61 + n)
    c = random_symmetric(rng, n)
    sol = sdp.solve(min_eig_problem(c))
    assert sol.status is sdp.SdpStatus.CONVERGED
    assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(c).min(), abs=1e-7)


def test_weak_duality_once_iterates_are_feasible():
    # early iterates are infeasible, where the objective gap means nothing;
    # once both residuals are small the dual value must sit below the primal
    rng = np.random.default_rng(62)
    c = random_symmetric(rng, 4)
    sol = sdp.solve(min_eig_problem(c))
    near_feasible = 0
    for pobj, dobj, pinf, dinf, _ in sol.history:
        if pinf <= 1e-7 and dinf <= 1e-7:
            near_feasible += 1
            assert dobj <= pobj + 1e-6
    assert near_feasible >= 1
    assert sol.dual_value <= sol.primal_value + 1e-7


def test_two_blocks_decouple():
    rng = np.random.default_rng(63)
    c1 = random_symmetric(rng, 3)
    c2 = random_symmetric(rng, 2)
    zero1 = np.zeros((3, 3))
    zero2 = np.zeros((2, 2))
    prob = sdp.SdpProblem(
        [3, 2],
        [c1, c2],
        [[np.eye(3), zero2], [zero1, np.eye(2)]],
        [1.0, 1.0],
    )
    sol = sdp.solve(prob)
    want = np.linalg.eigvalsh(c1).min() + np.linalg.eigvalsh(c2).min()
    assert sol.primal_value == pytest.approx(want, abs=1e-7)


def test_solve_is_deterministic():
    rng = np.random.default_rng(64)
    c = random_symmetric(rng, 4)
    sol1 = sdp.solve(min_eig_problem(c))
    sol2 = sdp.solve(min_eig_problem(c))
    assert sol1.history == sol2.history
    assert np.array_equal(sol1.x[0], sol2.x[0])
    assert np.array_equal(sol1.y, sol2.y)


def test_iteration_cap_reported(monkeypatch):
    rng = np.random.default_rng(65)
    c = random_symmetric(rng, 4)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    sol = sdp.solve(min_eig_problem(c))
    assert sol.status is sdp.SdpStatus.MAX_ITERATIONS
    assert sol.iterations == 2


def test_dual_slack_recomputed_exactly():
    rng = np.random.default_rng(66)
    c = random_symmetric(rng, 3)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    want = prob.c[0] - np.tensordot(sol.y, prob.a[0], axes=1)
    assert np.array_equal(sol.z[0], want)


def test_verify_solution_matches_solution_fields():
    rng = np.random.default_rng(67)
    c = random_symmetric(rng, 3)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    checked = sdp.verify_solution(prob, sol)
    assert checked["primal_value"] == pytest.approx(sol.primal_value, abs=1e-12)
    assert checked["dual_value"] == pytest.approx(sol.dual_value, abs=1e-12)
    assert checked["gap"] == pytest.approx(sol.gap, abs=1e-12)
