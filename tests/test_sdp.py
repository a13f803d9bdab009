"""Interior-point solver on problems with independently known optima."""

import numpy as np
import pytest

from gatebounds import channels, diamond, sdp


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def min_eig_problem(c):
    # minimize <C, X> over X >= 0 with tr X = 1; optimum is the smallest
    # eigenvalue of C, attained on the matching eigenprojector
    n = c.shape[0]
    return sdp.SdpProblem([n], [c], [[np.eye(n)]], [1.0])


def decoupled_problem(c1, c2):
    # two independent min-eigenvalue problems, one per block
    n1, n2 = c1.shape[0], c2.shape[0]
    return sdp.SdpProblem(
        [n1, n2],
        [c1, c2],
        [[np.eye(n1), np.zeros((n2, n2))], [np.zeros((n1, n1)), np.eye(n2)]],
        [1.0, 1.0],
    )


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
    with pytest.raises(ValueError, match="one matrix per block"):
        sdp.SdpProblem([2], [eye, eye], [[eye]], [1.0])
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = np.diag([bad, 1.0])
        with pytest.raises(ValueError, match="objective block has a non-finite"):
            sdp.SdpProblem([2], [corrupt], [[eye]], [1.0])
        with pytest.raises(ValueError, match="constraint 1 block has a non-finite"):
            sdp.SdpProblem([2], [eye], [[eye], [corrupt]], [1.0, 1.0])
        with pytest.raises(ValueError, match="rhs has a non-finite"):
            sdp.SdpProblem([2], [eye], [[eye]], [bad])


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
    sol = sdp.solve(decoupled_problem(c1, c2))
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
    want = prob.c - sol.y @ prob.a
    assert np.array_equal(np.concatenate([z.ravel() for z in sol.z]), want)


def test_flat_operator_matches_its_definitions():
    rng = np.random.default_rng(72)
    dims, m = (3, 4, 2), 5
    objective = [random_symmetric(rng, n) for n in dims]
    rows = [[random_symmetric(rng, n) for n in dims] for _ in range(m)]
    prob = sdp.SdpProblem(dims, objective, rows, rng.standard_normal(m))
    size = sum(n * n for n in dims)
    assert prob.a.shape == (m, size) and prob.a.flags.c_contiguous
    assert prob.c.shape == (size,)
    for got, want in zip(prob.blocks(prob.c), objective):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    xs = [random_spd(rng, n) for n in dims]
    zinvs = [np.linalg.inv(random_spd(rng, n)) for n in dims]
    y = rng.standard_normal(m)
    x = np.concatenate([xb.ravel() for xb in xs])
    for got, want in zip(prob.blocks(x), xs):
        assert np.array_equal(got, want)
    applied = [sum(np.trace(a @ xb) for a, xb in zip(row, xs)) for row in rows]
    np.testing.assert_allclose(prob.apply(x), applied, rtol=0, atol=1e-12)
    for b, got in enumerate(prob.blocks(prob.adjoint(y))):
        want = sum(yi * row[b] for yi, row in zip(y, rows))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    schur = [
        [
            sum(np.trace(ai @ zi @ aj @ xb) for ai, aj, zi, xb in zip(ri, rj, zinvs, xs))
            for rj in rows
        ]
        for ri in rows
    ]
    np.testing.assert_allclose(prob.schur(xs, zinvs), schur, rtol=0, atol=1e-12)


def test_two_schur_solves_per_iteration(monkeypatch):
    # the Schur Cholesky only tests definiteness; each of the two directions
    # is then a single solve against the Schur matrix
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    prob = diamond._encode(j, 2)
    m = prob.num_constraints
    assert m not in prob.block_dims
    shapes = []
    real = np.linalg.solve

    def counting(a, b):
        shapes.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    # the last iteration only tests convergence
    assert shapes.count((m, m)) <= 2 * (sol.iterations - 1)


def test_verify_solution_matches_solution_fields():
    rng = np.random.default_rng(67)
    c = random_symmetric(rng, 3)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    checked = sdp.verify_solution(prob, sol)
    assert checked["primal_value"] == pytest.approx(sol.primal_value, abs=1e-12)
    assert checked["dual_value"] == pytest.approx(sol.dual_value, abs=1e-12)
    assert checked["gap"] == pytest.approx(sol.gap, abs=1e-12)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n)


def reference_step(mats, dmats, cap):
    # boundary of M + a D >= 0 from the symmetric square root of M
    step = cap
    for m, dm in zip(mats, dmats):
        w, v = np.linalg.eigh(m)
        root_inv = v @ np.diag(w**-0.5) @ v.T
        lam = np.linalg.eigvalsh(root_inv @ dm @ root_inv).min()
        if lam < 0.0:
            step = min(step, -1.0 / lam)
    return step


@pytest.mark.parametrize("dims", [(4,), (5, 3, 2)])
def test_max_step_is_exact_distance_to_boundary(dims):
    rng = np.random.default_rng(68)
    for _ in range(20):
        mats = [random_spd(rng, n) for n in dims]
        dmats = [random_symmetric(rng, n) for n in dims]
        factors = [sdp._inverse_cholesky(m) for m in mats]
        cap = 1e6
        step = sdp._max_step(factors, dmats, cap)
        want = reference_step(mats, dmats, cap)
        assert step < cap
        assert step == pytest.approx(want, rel=1e-10)
        # the limiting block touches the boundary; the damped step is inside
        edge = min(
            np.linalg.eigvalsh(m + step * dm).min() / np.linalg.norm(m, 2)
            for m, dm in zip(mats, dmats)
        )
        assert abs(edge) <= 1e-9
        for m, dm in zip(mats, dmats):
            assert sdp._chol_or_none(m + 0.98 * step * dm) is not None
        # a cap short of the boundary is returned as is
        assert sdp._max_step(factors, dmats, 0.5 * want) == 0.5 * want


def test_max_step_is_cap_along_psd_directions():
    rng = np.random.default_rng(69)
    mats = [random_spd(rng, n) for n in (4, 2)]
    psd = [random_spd(rng, n) - 0.1 * np.eye(n) for n in (4, 2)]
    factors = [sdp._inverse_cholesky(m) for m in mats]
    assert sdp._max_step(factors, psd, 1.0) == 1.0
    assert sdp._max_step(factors, [np.zeros_like(m) for m in mats], 1.0) == 1.0


def test_inverse_cholesky_rejects_indefinite_blocks():
    assert sdp._inverse_cholesky(np.diag([1.0, -1.0])) is None
    m = random_spd(np.random.default_rng(70), 3)
    inv_l = sdp._inverse_cholesky(m)
    np.testing.assert_allclose(inv_l @ m @ inv_l.T, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("two_blocks", [False, True])
def test_one_cholesky_per_block_per_iteration(monkeypatch, two_blocks):
    # guards against a search-based step length: a bisection makes dozens
    # of factorizations per block per iteration
    rng = np.random.default_rng(71)
    if two_blocks:
        prob = decoupled_problem(random_symmetric(rng, 3), random_symmetric(rng, 2))
    else:
        prob = min_eig_problem(random_symmetric(rng, 4))
    calls = []
    real = sdp._chol_or_none

    def counting(mat):
        calls.append(mat.shape)
        return real(mat)

    monkeypatch.setattr(sdp, "_chol_or_none", counting)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    nblocks = len(prob.block_dims)
    # one factor per X and Z block, the Schur factor and its jitter retry
    assert len(calls) <= (2 * nblocks + 2) * sol.iterations
