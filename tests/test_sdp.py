"""Interior-point solver on problems with independently known optima."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from gatebounds import channels, diamond, sdp
from helpers import random_channel, random_hermitian


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def flat(mats):
    # per-block matrices as one flat vector of the block layout
    return np.concatenate([np.asarray(m, dtype=complex).ravel() for m in mats])


def flat_problem(dims, objective, rows, rhs):
    # an SdpProblem written block by block: the objective and each
    # constraint row as lists of per-block matrices
    a = np.array([flat(row) for row in rows]) if rows else np.zeros((0, sum(n * n for n in dims)))
    return sdp.SdpProblem(dims, flat(objective), a, rhs)


def min_eig_problem(c):
    # minimize <C, X> over X >= 0 with tr X = 1; optimum is the smallest
    # eigenvalue of C, attained on the matching eigenprojector
    n = c.shape[0]
    return flat_problem([n], [c], [[np.eye(n)]], [1.0])


def decoupled_problem(c1, c2):
    # two independent min-eigenvalue problems, one per block
    n1, n2 = c1.shape[0], c2.shape[0]
    return flat_problem(
        [n1, n2],
        [c1, c2],
        [[np.eye(n1), np.zeros((n2, n2))], [np.zeros((n1, n1)), np.eye(n2)]],
        [1.0, 1.0],
    )


def test_problem_validation():
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    eye = np.eye(2)
    with pytest.raises(ValueError, match="not Hermitian"):
        flat_problem([2], [asym], [[eye]], [1.0])
    # complex symmetric, not Hermitian: the imaginary part must be antisymmetric
    csym = np.array([[1.0, 1j], [1j, 1.0]])
    with pytest.raises(ValueError, match="objective block is not Hermitian"):
        flat_problem([2], [csym], [[eye]], [1.0])
    with pytest.raises(ValueError, match="constraint 0 block is not Hermitian"):
        flat_problem([2], [eye], [[eye + 1e-6j * np.eye(2)]], [1.0])
    with pytest.raises(ValueError, match=r"objective has shape \(9,\), expected \(4,\)"):
        flat_problem([2], [np.eye(3)], [[eye]], [1.0])
    # one constraint row for two rhs entries
    with pytest.raises(ValueError, match=r"constraint matrix has shape \(1, 4\), expected \(2, 4\)"):
        flat_problem([2], [eye], [[eye]], [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        sdp.SdpProblem([0], np.zeros(0), np.zeros((0, 0)), [])
    # an objective with one matrix too many
    with pytest.raises(ValueError, match=r"objective has shape \(8,\), expected \(4,\)"):
        flat_problem([2], [eye, eye], [[eye]], [1.0])
    # constraint rows with too few or too many matrices are shape errors,
    # not cut short or indexed past their end
    with pytest.raises(ValueError, match=r"constraint matrix has shape \(2, 4\), expected \(2, 8\)"):
        sdp.SdpProblem([2, 2], flat([eye, eye]), np.stack([flat([eye]), flat([eye])]), [1.0, 1.0])
    with pytest.raises(ValueError, match=r"constraint matrix has shape \(1, 12\), expected \(1, 8\)"):
        sdp.SdpProblem([2, 2], flat([eye, eye]), flat([eye, eye, eye])[None], [1.0])
    for bad in (np.nan, np.inf, -np.inf):
        corrupt = np.diag([bad, 1.0])
        with pytest.raises(ValueError, match="objective block has a non-finite"):
            flat_problem([2], [corrupt], [[eye]], [1.0])
        with pytest.raises(ValueError, match="constraint 1 block has a non-finite"):
            flat_problem([2], [eye], [[eye], [corrupt]], [1.0, 1.0])
        with pytest.raises(ValueError, match="rhs has a non-finite"):
            flat_problem([2], [eye], [[eye]], [bad])


def test_problem_copies_its_inputs():
    # the stored data is a read-only Hermitian copy; the caller's arrays stay
    # writeable and unchanged, also where a block was not exactly Hermitian
    rng = np.random.default_rng(83)
    dims = (3, 2)
    skew = 1e-14j * np.array([[0.0, 1.0], [0.0, 0.0]])
    c = flat([random_hermitian(rng, 3), random_hermitian(rng, 2) + skew])
    a = np.array([flat([random_hermitian(rng, n) for n in dims]) for _ in range(4)])
    b = rng.standard_normal(4)
    saved = [c.copy(), a.copy(), b.copy()]
    prob = sdp.SdpProblem(dims, c, a, b)
    derived = prob.with_objective(c)
    for given, kept in zip((c, a, b), saved):
        assert given.flags.writeable
        assert np.array_equal(given, kept)
    for stored, given in ((prob.c, c), (prob.a, a), (prob.b, b), (derived.c, c)):
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, given)
    # the objective's second block was stored as its Hermitian part
    np.testing.assert_array_equal(prob.blocks(prob.c)[1], prob.blocks(prob.c)[1].conj().T)
    assert not np.array_equal(prob.c, c)


def test_scalar_problem():
    # minimize 3x subject to x = 2
    prob = sdp.SdpProblem([1], [3.0], [[1.0]], [2.0])
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    assert sdp.verify_solution(prob, sol)["primal_value"] == pytest.approx(6.0, abs=1e-7)
    assert sol.x[0][0, 0] == pytest.approx(2.0, abs=1e-7)


def test_correlation_toy_against_grid_oracle():
    # X = [[1, t], [t, 1]] is feasible iff |t| <= 1; objective 2t
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    prob = flat_problem([2], [c], [[e00], [e11]], [1.0, 1.0])
    sol = sdp.solve(prob)
    oracle = min(2.0 * t for t in np.linspace(-1.0, 1.0, 2001))
    assert sol.status is sdp.SdpStatus.CONVERGED
    checked = sdp.verify_solution(prob, sol)
    assert checked["primal_value"] == pytest.approx(oracle, abs=1e-6)
    assert checked["primal_residual"] <= 1e-8
    assert checked["x_min_eig"] >= -1e-7
    assert checked["z_min_eig"] >= -1e-7
    assert checked["gap"] <= 1e-8


@pytest.mark.parametrize("n", [3, 5])
def test_min_eigenvalue_problem(n):
    rng = np.random.default_rng(61 + n)
    c = random_symmetric(rng, n)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    want = np.linalg.eigvalsh(c).min()
    assert sdp.verify_solution(prob, sol)["primal_value"] == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("n", [3, 5])
def test_complex_min_eigenvalue_problem(n):
    rng = np.random.default_rng(73 + n)
    c = random_hermitian(rng, n)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    checked = sdp.verify_solution(prob, sol)
    assert checked["primal_value"] == pytest.approx(np.linalg.eigvalsh(c)[0], abs=1e-7)
    assert checked["primal_residual"] <= 1e-8


def test_weak_duality_once_iterates_are_feasible():
    # early iterates are infeasible, where the objective gap means nothing;
    # the converged iterate is feasible, so its dual value sits below the primal
    rng = np.random.default_rng(62)
    c = random_symmetric(rng, 4)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    checked = sdp.verify_solution(prob, sol)
    assert checked["dual_value"] <= checked["primal_value"] + 1e-7


def test_two_blocks_decouple():
    rng = np.random.default_rng(63)
    c1 = random_symmetric(rng, 3)
    c2 = random_symmetric(rng, 2)
    prob = decoupled_problem(c1, c2)
    sol = sdp.solve(prob)
    want = np.linalg.eigvalsh(c1).min() + np.linalg.eigvalsh(c2).min()
    assert sdp.verify_solution(prob, sol)["primal_value"] == pytest.approx(want, abs=1e-7)


def assert_identical_solutions(sol1, sol2):
    assert (sol1.status, sol1.iterations, sol1.gap) == (sol2.status, sol2.iterations, sol2.gap)
    assert np.array_equal(sol1.y, sol2.y)
    assert len(sol1.x) == len(sol2.x)
    assert all(np.array_equal(b1, b2) for b1, b2 in zip(sol1.x, sol2.x))


def test_solve_is_deterministic():
    rng = np.random.default_rng(64)
    c = random_symmetric(rng, 4)
    assert_identical_solutions(sdp.solve(min_eig_problem(c)), sdp.solve(min_eig_problem(c)))


# one channel per diamond solve path, each against the identity
DIAMOND_PATHS = pytest.mark.parametrize(
    "channel, path",
    [
        (channels.amplitude_damping(0.3), "choi"),
        (channels.unitary_channel(np.diag([1.0, 1.0, np.exp(0.5j)])), "fidelity"),
        (random_channel(np.random.default_rng(97), 4, 12), "structured"),
    ],
    ids=["d2-template", "d3-fidelity", "d4-structured"],
)


def diamond_encoding(channel, path):
    d = channel.dim
    j = channel.choi - channels.identity_channel(d).choi
    assert diamond._plan(j, d)[0] == path
    return diamond._encoding(j, d, path)


@DIAMOND_PATHS
def test_diamond_solves_repeat_bit_for_bit(channel, path):
    # each kind of diamond problem, solved twice from its encoding, gives
    # the same iterate to the last bit
    enc = diamond_encoding(channel, path)
    assert (enc.start is not None) == (path == "choi")
    first, second = sdp.solve(enc.problem, enc.start), sdp.solve(enc.problem, enc.start)
    assert first.status is sdp.SdpStatus.CONVERGED
    assert_identical_solutions(first, second)


# d = 2 pairs on the "choi" path whose solves take different iteration
# counts
STACK_CHANNELS = [
    channels.amplitude_damping(0.3),
    random_channel(np.random.default_rng(98), 2, 3),
    channels.mix([(0.7, channels.identity_channel(2)), (0.3, channels.amplitude_damping(1.0))]),
]


def stacked_encodings(encodings):
    # one problem with the stacked objectives of "choi" encodings, and their
    # stacked starts
    stack = diamond._template(2).with_objective(np.stack([enc.problem.c for enc in encodings]))
    return stack, tuple(np.stack(part) for part in zip(*(enc.start for enc in encodings)))


def test_a_stack_member_solves_as_it_does_alone():
    # each member's iterate, gap and iteration count, to the last bit, in
    # either order of the stack
    encodings = [diamond_encoding(ch, "choi") for ch in STACK_CHANNELS]
    alone = [sdp.solve(enc.problem, enc.start) for enc in encodings]
    assert len({sol.iterations for sol in alone}) > 1
    for order in ([0, 1, 2], [2, 0, 1]):
        stack, start = stacked_encodings([encodings[i] for i in order])
        for i, sol in zip(order, sdp.solve_batch(stack, start)):
            assert_identical_solutions(sol, alone[i])
    # the default start too: each member from its own scaled identity
    stack, _ = stacked_encodings(encodings)
    for sol, enc in zip(sdp.solve_batch(stack), encodings):
        assert_identical_solutions(sol, sdp.solve(enc.problem))


def test_a_stuck_member_leaves_the_others_untouched(monkeypatch):
    # a cap between two members' iteration counts stops the slow one where
    # it stops alone, and the fast one converges as it does alone
    encodings = [diamond_encoding(ch, "choi") for ch in STACK_CHANNELS]
    counts = [sdp.solve(enc.problem, enc.start).iterations for enc in encodings]
    fast, slow = int(np.argmin(counts)), int(np.argmax(counts))
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", counts[fast])
    alone = [sdp.solve(encodings[i].problem, encodings[i].start) for i in (fast, slow)]
    assert [sol.status for sol in alone] == [sdp.SdpStatus.CONVERGED, sdp.SdpStatus.MAX_ITERATIONS]
    stack, start = stacked_encodings([encodings[slow], encodings[fast]])
    got = sdp.solve_batch(stack, start)
    assert_identical_solutions(got[0], alone[1])
    assert_identical_solutions(got[1], alone[0])


def test_solve_refuses_a_stack():
    encodings = [diamond_encoding(ch, "choi") for ch in STACK_CHANNELS]
    stack, start = stacked_encodings(encodings)
    with pytest.raises(ValueError, match="a stack of objectives is solved by solve_batch"):
        sdp.solve(stack)


def test_iteration_cap_reported(monkeypatch):
    rng = np.random.default_rng(65)
    c = random_symmetric(rng, 4)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.MAX_ITERATIONS
    assert sol.iterations == 2
    # the gap is that of the iterate returned, after the last step
    assert sol.gap == sdp.verify_solution(prob, sol)["gap"]


def random_problem(rng, dims, m, shared=()):
    # blocks listed in ``shared`` get the constraint matrices of block 0
    objective = [random_hermitian(rng, n) for n in dims]
    rows = [[random_hermitian(rng, n) for n in dims] for _ in range(m)]
    for row in rows:
        for bidx in shared:
            row[bidx] = row[0].copy()
    return flat_problem(dims, objective, rows, rng.standard_normal(m)), objective, rows


def random_iterate(rng, dims):
    return [random_hpd(rng, n) for n in dims], [np.linalg.inv(random_hpd(rng, n)) for n in dims]


def test_flat_operator_matches_its_definitions():
    rng = np.random.default_rng(72)
    # runs of one; a run of two blocks with different constraint stacks and
    # one block of another size; the same run with equal stacks, as the
    # diamond SDP's W and S have
    check_flat_operator(rng, (3, 4, 2), (), [(1, 3), (1, 4), (1, 2)])
    check_flat_operator(rng, (3, 3, 2), (), [(2, 3), (1, 2)])
    check_flat_operator(rng, (3, 3, 2), (1,), [(2, 3), (1, 2)])


def check_flat_operator(rng, dims, shared, want_runs):
    m = 5
    prob, objective, rows = random_problem(rng, dims, m, shared)
    assert prob.runs == want_runs
    for (stack, stack_real), (k, n) in zip(prob._run_stacks, want_runs):
        assert stack.shape == (m, k, n, n) and stack_real.shape == (m, 2 * k * n * n)
        assert np.shares_memory(stack, prob.a) and np.shares_memory(stack_real, prob.a)
    size = sum(n * n for n in dims)
    assert prob.a.shape == (m, size) and prob.a.flags.c_contiguous
    assert prob.c.shape == (size,)
    for got, want in zip(prob.blocks(prob.c), objective):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    xs, zinvs = random_iterate(rng, dims)
    y = rng.standard_normal(m)
    x = np.concatenate([xb.ravel() for xb in xs])
    for got, want in zip(prob.blocks(x), xs):
        assert np.array_equal(got, want)
    applied = [sum(np.trace(a @ xb).real for a, xb in zip(row, xs)) for row in rows]
    np.testing.assert_allclose(prob.apply(x), applied, rtol=0, atol=1e-12)
    for b, got in enumerate(prob.blocks(prob.adjoint(y))):
        want = sum(yi * row[b] for yi, row in zip(y, rows))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    schur = [
        [
            sum(np.trace(ai @ xb @ aj @ zi).real for ai, aj, zi, xb in zip(ri, rj, zinvs, xs))
            for rj in rows
        ]
        for ri in rows
    ]
    got = prob.schur(stacked(prob, xs), stacked(prob, zinvs))
    np.testing.assert_allclose(got, schur, rtol=0, atol=1e-12)
    assert np.array_equal(got, got.T)


def test_with_objective_shares_constraints_and_checks_the_objective():
    rng = np.random.default_rng(77)
    dims = (3, 2)
    prob = random_problem(rng, dims, 4)[0]
    objective = flat([random_hermitian(rng, n) for n in dims])
    derived = prob.with_objective(objective)
    assert derived.a is prob.a and derived.b is prob.b and derived._a_real is prob._a_real
    assert np.array_equal(derived.c, objective)
    assert not np.shares_memory(derived.c, prob.c)
    assert derived._run_stacks is prob._run_stacks

    eye3 = np.eye(3)
    # one block missing, and a second block of the wrong size
    with pytest.raises(ValueError, match=r"objective has shape \(9,\), expected \(13,\)"):
        prob.with_objective(flat([eye3]))
    with pytest.raises(ValueError, match="objective block is not Hermitian"):
        prob.with_objective(flat([eye3, np.array([[1.0, 1j], [1j, 1.0]])]))
    with pytest.raises(ValueError, match=r"objective has shape \(18,\), expected \(13,\)"):
        prob.with_objective(flat([eye3, eye3]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="objective block has a non-finite"):
            prob.with_objective(flat([eye3, np.diag([bad, 1.0])]))


def test_with_objective_checks_a_stack_in_one_pass(monkeypatch):
    # a (B, N) stack of objectives: one validation over its rows, whose
    # messages name the first bad row, and one member problem per row that
    # views its row and shares the constraints
    rng = np.random.default_rng(78)
    dims = (3, 2)
    prob = random_problem(rng, dims, 4)[0]
    objectives = [flat([random_hermitian(rng, n) for n in dims]) for _ in range(3)]
    calls = []
    real = sdp.SdpProblem._checked

    def counting(self, data, shape, label):
        calls.append(label)
        return real(self, data, shape, label)

    monkeypatch.setattr(sdp.SdpProblem, "_checked", counting)
    derived = prob.with_objective(np.stack(objectives))
    assert calls == ["objective {}"]
    assert derived.c.shape == (3, 13) and not derived.c.flags.writeable
    assert derived.a is prob.a and derived._run_stacks is prob._run_stacks
    members = derived.members()
    assert len(members) == 3
    for member, objective in zip(members, objectives):
        assert np.array_equal(member.c, objective) and np.shares_memory(member.c, derived.c)
        assert member.a is prob.a and member.b is prob.b
    assert np.array_equal(prob.with_objective(objectives[1]).c, members[1].c)

    eye3 = np.eye(3)
    good = flat([eye3, np.eye(2)])
    with pytest.raises(ValueError, match=r"objective matrix has shape \(2, 9\), expected \(2, 13\)"):
        prob.with_objective(np.stack([flat([eye3])] * 2))
    with pytest.raises(ValueError, match="objective 1 block is not Hermitian"):
        prob.with_objective(np.stack([good, flat([eye3, np.array([[1.0, 1j], [1j, 1.0]])]), good]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="objective 2 block has a non-finite"):
            prob.with_objective(np.stack([good, good, flat([eye3, np.diag([bad, 1.0])])]))


def test_problem_data_is_read_only():
    prob = min_eig_problem(np.eye(2))
    for arr in (prob.a, prob.b, prob.c, prob._a_real):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
    for stack, stack_real in prob._run_stacks:
        assert not stack.flags.writeable and not stack_real.flags.writeable


def test_solve_leaves_the_problem_untouched():
    # a problem that a caller keeps (the reproduction suite keeps every
    # solved one) gains no attributes and keeps its data
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    prob = diamond._encoding(j, 2, "choi").problem
    before = dict(vars(prob))
    data = [prob.a.copy(), prob.b.copy(), prob.c.copy()]
    assert sdp.solve(prob).status is sdp.SdpStatus.CONVERGED
    assert vars(prob).keys() == before.keys()
    assert all(vars(prob)[k] is v for k, v in before.items())
    for arr, saved in zip((prob.a, prob.b, prob.c), data):
        assert np.array_equal(arr, saved)


def count_linalg_calls(monkeypatch, names):
    # wraps each named np.linalg function; returns the argument shapes of
    # every call, per name
    shapes = {name: [] for name in names}
    for name in names:
        real = getattr(np.linalg, name)

        def counting(mat, *args, _name=name, _real=real, **kwargs):
            shapes[_name].append(np.shape(mat))
            return _real(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes


def test_two_schur_solves_per_iteration(monkeypatch):
    # the Schur Cholesky only tests definiteness; each of the two directions
    # is then a single solve against the Schur matrix, and the inverse
    # Cholesky factors are one ``inv`` per run, with no solve against an
    # identity
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    enc = diamond._encoding(j, 2, "choi")
    prob = enc.problem
    m = prob.num_constraints
    assert m not in prob.block_dims
    shapes = count_linalg_calls(monkeypatch, ("solve", "inv", "eigvalsh"))
    sol = sdp.solve(prob, enc.start)
    assert sol.status is sdp.SdpStatus.CONVERGED
    # the last iteration only tests convergence
    steps = sol.iterations - 1
    assert steps > 0
    assert shapes["solve"] == [(m, m)] * (2 * steps)
    runs = [(2 * k, n, n) for k, n in prob.runs]
    assert shapes["inv"] == runs * steps
    # one eigvalsh per run for each of the two directions
    assert shapes["eigvalsh"] == runs * (2 * steps)


def test_a_stack_makes_the_calls_of_one_solve(monkeypatch):
    # the members of a stack share every LAPACK call of an iteration: the
    # call counts are those of the stack's longest solve, and each call
    # covers the members still running
    encodings = [diamond_encoding(ch, "choi") for ch in STACK_CHANNELS]
    stack, start = stacked_encodings(encodings)
    m = stack.num_constraints
    shapes = count_linalg_calls(monkeypatch, ("solve", "inv", "eigvalsh"))
    solutions = sdp.solve_batch(stack, start)
    assert all(sol.status is sdp.SdpStatus.CONVERGED for sol in solutions)
    counts = sorted(sol.iterations for sol in solutions)
    assert counts[0] < counts[-1]
    steps = counts[-1] - 1
    running = [sum(sol.iterations - 1 > i for sol in solutions) for i in range(steps)]
    assert running[0] == len(solutions) and running[-1] == 1
    assert shapes["solve"] == [(b, m, m) for b in running for _ in range(2)]
    assert shapes["inv"] == [(b, 2 * k, n, n) for b in running for k, n in stack.runs]
    assert shapes["eigvalsh"] == [(b, 2 * k, n, n) for b in running for _ in range(2) for k, n in stack.runs]


def backward_error(w):
    # the bound n eps ||M||_2 of a Hermitian eigensolver on M with spectrum w
    return len(w) * np.finfo(float).eps * np.abs(w).max()


def check_verify_against_eigh(monkeypatch, prob, sol):
    # the reference: every block's spectrum from its own np.linalg.eigh call
    x_ref = [np.linalg.eigh(xb)[0] for xb in sol.x]
    z_ref = [np.linalg.eigh(zb)[0] for zb in prob.blocks(prob.c - prob.adjoint(sol.y))]
    calls = count_linalg_calls(monkeypatch, ("eigvalsh", "eigh"))
    checked = sdp.verify_solution(prob, sol)
    # one eigvalsh per run on its X blocks then its slack blocks, no eigh
    assert calls == {"eigvalsh": [(2 * k, n, n) for k, n in prob.runs], "eigh": []}
    assert len(checked["z_eig_ranges"]) == len(z_ref)
    for (lo, hi), w in zip(checked["z_eig_ranges"], z_ref):
        assert abs(lo - w[0]) <= backward_error(w) and abs(hi - w[-1]) <= backward_error(w)
    least = min(w[0] for w in x_ref)
    assert abs(checked["x_min_eig"] - least) <= max(backward_error(w) for w in x_ref)
    assert checked["z_min_eig"] == min(lo for lo, _ in checked["z_eig_ranges"])


@DIAMOND_PATHS
def test_verify_spectra_match_per_block_eigh_on_diamond_paths(monkeypatch, channel, path):
    enc = diamond_encoding(channel, path)
    sol = sdp.solve(enc.problem, enc.start)
    assert sol.status is sdp.SdpStatus.CONVERGED
    check_verify_against_eigh(monkeypatch, enc.problem, sol)


@pytest.mark.parametrize("kind", ["scalar", "correlation", "real", "complex", "two-blocks"])
def test_verify_spectra_match_per_block_eigh_on_generic_problems(monkeypatch, kind):
    rng = np.random.default_rng(79)
    e00, e11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    prob = {
        "scalar": lambda: sdp.SdpProblem([1], [3.0], [[1.0]], [2.0]),
        "correlation": lambda: flat_problem([2], [np.fliplr(np.eye(2))], [[e00], [e11]], [1.0, 1.0]),
        "real": lambda: min_eig_problem(random_symmetric(rng, 5)),
        "complex": lambda: min_eig_problem(random_hermitian(rng, 4)),
        "two-blocks": lambda: decoupled_problem(random_symmetric(rng, 3), random_hermitian(rng, 3)),
    }[kind]()
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    check_verify_against_eigh(monkeypatch, prob, sol)


def test_verify_solution_matches_solution_fields():
    rng = np.random.default_rng(67)
    c = random_symmetric(rng, 3)
    prob = min_eig_problem(c)
    sol = sdp.solve(prob)
    # the solve's gap is the one verify recomputes from (x, y), to the bit
    assert sdp.verify_solution(prob, sol)["gap"] == sol.gap


def schur_failures(monkeypatch, prob, count):
    # the first ``count`` Cholesky tests of the (m, m) Schur matrix fail; the
    # block factorizations go through.  Returns copies of the matrices tested.
    m = prob.num_constraints
    assert m not in prob.block_dims
    tested = []
    real = sdp._chol_or_none

    def failing(mat):
        if np.shape(mat) != (m, m):
            return real(mat)
        tested.append(mat.copy())
        return None if len(tested) <= count else real(mat)

    monkeypatch.setattr(sdp, "_chol_or_none", failing)
    return tested


def test_schur_jitter_retry_recovers(monkeypatch):
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    prob = diamond._encoding(j, 2, "choi").problem
    tested = schur_failures(monkeypatch, prob, 1)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    assert sdp.verify_solution(prob, sol)["gap"] <= sdp.GAP_TOL
    # the retry tests the same matrix with its diagonal raised
    first, retry = tested[:2]
    off = ~np.eye(len(first), dtype=bool)
    assert np.array_equal(first[off], retry[off])
    assert (np.diag(retry) > np.diag(first)).all()


def test_schur_failing_twice_is_a_numerical_failure(monkeypatch):
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    prob = diamond._encoding(j, 2, "choi").problem
    tested = schur_failures(monkeypatch, prob, 2)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.NUMERICAL_FAILURE
    assert sol.iterations == 1 and len(tested) == 2


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.1 * np.eye(n)


def random_hpd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + 0.1 * np.eye(n)


def reference_step(mats, dmats, cap):
    # boundary of M + a D >= 0 from the Hermitian square root of M
    step = cap
    for m, dm in zip(mats, dmats):
        w, v = np.linalg.eigh(m)
        root_inv = v @ np.diag(w**-0.5) @ v.conj().T
        lam = np.linalg.eigvalsh(root_inv @ dm @ root_inv).min()
        if lam < 0.0:
            step = min(step, -1.0 / lam)
    return step


def stacked(prob, mats):
    # per-block matrices as the problem's per-run stacks
    return prob.stacks(flat(mats))


def run_factors(prob, xs, zs):
    return [
        sdp._inverse_cholesky(np.concatenate((xr, zr)))
        for xr, zr in zip(stacked(prob, xs), stacked(prob, zs))
    ]


def bare_problem(dims):
    # no constraints: only the block layout and its runs matter here
    return flat_problem(dims, [np.eye(n) for n in dims], [], [])


@pytest.mark.parametrize("dims", [(4,), (5, 3, 2), (4, 4, 2), (3, 3, 3)])
def test_max_step_is_exact_distance_to_boundary(dims):
    check_max_step(np.random.default_rng(68), dims, random_spd, random_symmetric)


@pytest.mark.parametrize("dims", [(4,), (5, 3, 2), (4, 4, 2), (3, 3, 3)])
def test_max_step_is_exact_on_hermitian_blocks(dims):
    check_max_step(np.random.default_rng(74), dims, random_hpd, random_hermitian)


def check_max_step(rng, dims, pd, direction):
    prob = bare_problem(dims)
    for _ in range(20):
        xs, zs = ([pd(rng, n) for n in dims] for _ in range(2))
        dxs, dzs = ([direction(rng, n) for n in dims] for _ in range(2))
        factors = run_factors(prob, xs, zs)
        cap = 1e6
        steps = sdp._max_steps(factors, stacked(prob, dxs), stacked(prob, dzs), cap)
        wants = []
        # the primal step is X's distance to the boundary, the dual step Z's
        for step, mats, dmats in zip(steps, (xs, zs), (dxs, dzs)):
            want = reference_step(mats, dmats, cap)
            wants.append(want)
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
        short = 0.5 * min(wants)
        got = sdp._max_steps(factors, stacked(prob, dxs), stacked(prob, dzs), short)
        assert got == (short, short)


def test_max_step_is_cap_along_psd_directions():
    rng = np.random.default_rng(69)
    dims = (4, 2)
    prob = bare_problem(dims)
    mats = [random_spd(rng, n) for n in dims]
    psd = [random_spd(rng, n) - 0.1 * np.eye(n) for n in dims]
    factors = run_factors(prob, mats, mats)
    psd_stacks = stacked(prob, psd)
    assert sdp._max_steps(factors, psd_stacks, psd_stacks, 1.0) == (1.0, 1.0)
    zero = stacked(prob, [np.zeros_like(m) for m in mats])
    assert sdp._max_steps(factors, zero, zero, 1.0) == (1.0, 1.0)


@pytest.mark.parametrize("dims", [(4, 4, 2), (3, 3, 3)])
def test_primal_and_dual_steps_are_taken_separately(dims):
    # one side's direction stays in the cone and keeps the cap, while the
    # other side is limited by its own boundary, whichever side that is
    rng = np.random.default_rng(78)
    prob = bare_problem(dims)
    xs, zs = ([random_hpd(rng, n) for n in dims] for _ in range(2))
    factors = run_factors(prob, xs, zs)
    inside = [random_hpd(rng, n) for n in dims]
    limited = [random_hermitian(rng, n) for n in dims]
    cap = 1e6
    ap, ad = sdp._max_steps(factors, stacked(prob, inside), stacked(prob, limited), cap)
    assert ap == cap
    assert ad == pytest.approx(reference_step(zs, limited, cap), rel=1e-10) and ad < cap
    ap, ad = sdp._max_steps(factors, stacked(prob, limited), stacked(prob, inside), cap)
    assert ap == pytest.approx(reference_step(xs, limited, cap), rel=1e-10) and ap < cap
    assert ad == cap


def test_inverse_cholesky_rejects_indefinite_blocks():
    assert sdp._inverse_cholesky(np.diag([1.0, -1.0])) is None
    m = random_spd(np.random.default_rng(70), 3)
    inv_l = sdp._inverse_cholesky(m)
    np.testing.assert_allclose(inv_l @ m @ inv_l.T, np.eye(3), atol=1e-10)


def test_inverse_cholesky_of_a_stack_matches_each_member():
    rng = np.random.default_rng(79)
    stack = np.stack([random_hpd(rng, 3) for _ in range(4)])
    batched = sdp._inverse_cholesky(stack)
    for got, member in zip(batched, stack):
        assert np.array_equal(got, sdp._inverse_cholesky(member))
    # one indefinite member fails the whole stack
    stack[2] = np.diag([1.0, -1.0, 1.0])
    assert sdp._inverse_cholesky(stack) is None


def test_indefinite_iterate_reports_numerical_failure(monkeypatch):
    # overshooting the boundary leaves one block of an X and Z stack
    # indefinite; its run's factorization fails and the solve stops there
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    prob = diamond._encoding(j, 2, "choi").problem
    outcomes = []
    real = sdp._inverse_cholesky

    def recording(mats):
        factors = real(mats)
        outcomes.append((mats, factors))
        return factors

    monkeypatch.setattr(sdp, "_inverse_cholesky", recording)
    monkeypatch.setattr(sdp, "STEP_FRACTION", 3.0)
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.NUMERICAL_FAILURE
    mats, factors = outcomes[-1]
    assert factors is None
    definite = [sdp._chol_or_none(member) is not None for member in mats]
    assert definite.count(False) >= 1


@pytest.mark.parametrize("two_blocks", [False, True])
def test_one_cholesky_per_block_per_iteration(monkeypatch, two_blocks):
    # guards against a search-based step length: a bisection makes dozens
    # of factorizations per block per iteration
    rng = np.random.default_rng(71)
    if two_blocks:
        prob = decoupled_problem(random_symmetric(rng, 3), random_symmetric(rng, 2))
    else:
        prob = min_eig_problem(random_symmetric(rng, 4))
    check_lapack_calls(monkeypatch, prob)


def test_diamond_sdp_lapack_calls_per_iteration(monkeypatch):
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    prob = diamond._encoding(j, 2, "choi").problem
    assert prob.runs == [(2, 4), (1, 2)]
    check_lapack_calls(monkeypatch, prob)


def check_lapack_calls(monkeypatch, prob):
    calls = count_linalg_calls(monkeypatch, ("cholesky", "eigvalsh", "solve", "inv"))
    sol = sdp.solve(prob)
    assert sol.status is sdp.SdpStatus.CONVERGED
    runs = len(prob.runs)
    # per run one factorization of its X and Z blocks together and one
    # inverse of the factor, plus the Schur factor and its jitter retry; one
    # eigvalsh per run and direction, and one Schur solve per direction
    assert len(calls["cholesky"]) <= (runs + 2) * sol.iterations
    assert len(calls["inv"]) <= runs * sol.iterations
    assert len(calls["eigvalsh"]) <= 2 * runs * sol.iterations
    assert len(calls["solve"]) <= 2 * sol.iterations


def test_solver_imports_only_numpy_and_the_standard_library():
    # the solver stands alone: a relative import names a module "" here
    tree = ast.parse(Path(sdp.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("" if node.level else node.module.split(".")[0])
    assert "numpy" in modules
    assert modules <= set(sys.stdlib_module_names) | {"numpy"}


def test_constraint_count_is_defined_where_the_rhs_is():
    # a bare layout has no rhs, so it has no constraint count either: the
    # property lives on the two problem classes, which set b
    assert not hasattr(sdp.BlockLayout, "num_constraints")
    assert min_eig_problem(np.eye(3)).num_constraints == 1
    assert diamond._ChoiOperator(np.zeros((4, 4)), 2).num_constraints == 17


def test_solve_from_a_start_leaves_it_untouched():
    j = channels.amplitude_damping(0.3).choi - channels.identity_channel(2).choi
    enc = diamond._encoding(j, 2, "choi")
    saved = [v.copy() for v in enc.start]
    first = sdp.solve(enc.problem, enc.start)
    assert first.status is sdp.SdpStatus.CONVERGED
    assert all(np.array_equal(v, w) for v, w in zip(enc.start, saved))
    assert_identical_solutions(first, sdp.solve(enc.problem, enc.start))


def test_runs_group_consecutive_equal_sizes():
    prob = bare_problem((3, 3, 2, 3, 3))
    assert prob.runs == [(2, 3), (1, 2), (2, 3)]
    assert bare_problem((4, 2, 3)).runs == [(1, 4), (1, 2), (1, 3)]
    v = np.arange(2 * 9 + 4 + 2 * 9, dtype=complex)
    stacks = prob.stacks(v)
    assert [s.shape for s in stacks] == [(2, 3, 3), (1, 2, 2), (2, 3, 3)]
    for stack in stacks:
        assert np.shares_memory(stack, v)
    # a run's blocks, in order, are its stack's members
    members = [member for stack in stacks for member in stack]
    assert all(np.array_equal(a, b) for a, b in zip(members, prob.blocks(v)))
    stacks[2][1, 0, 0] = -1.0
    assert v[2 * 9 + 4 + 9] == -1.0


@pytest.mark.parametrize("d", [2, 4])
def test_diamond_template_has_two_runs(d):
    # the assembled template at d = 2 and the structured operator at d = 4
    # share the block layout (W, S, rho)
    j = np.zeros((d * d, d * d))
    problem = diamond._encoding(j, d, diamond._plan(j, d)[0]).problem
    assert problem.runs == [(2, d * d), (1, d)]
    assert isinstance(problem, sdp.SdpProblem if d < 4 else sdp.StructuredProblem)


@pytest.mark.parametrize("dims", [(4,), (3, 3, 2)])
def test_nt_scaling_diagonalizes_both_iterates(dims):
    # G^-1 X G^-H = G^H Z G = diag(lambda), so W = G G^H has W Z W = X
    rng = np.random.default_rng(81)
    prob = bare_problem(dims)
    xs, zs = ([random_hpd(rng, n) for n in dims] for _ in range(2))
    scaling = sdp._nt_scaling(stacked(prob, xs), run_factors(prob, xs, zs))
    blocks = [(g, ginv, lam) for run in scaling for g, ginv, lam in zip(*run)]
    for (g, ginv, lam), x, z in zip(blocks, xs, zs):
        np.testing.assert_allclose(ginv @ g, np.eye(len(x)), atol=1e-12)
        np.testing.assert_allclose(ginv @ x @ ginv.conj().T, np.diag(lam), atol=1e-10)
        np.testing.assert_allclose(g.conj().T @ z @ g, np.diag(lam), atol=1e-10)
        w = g @ g.conj().T
        np.testing.assert_allclose(w @ z @ w, x, atol=1e-10 * np.abs(x).max())


def test_refinement_stops_when_the_residual_stops_shrinking():
    rng = np.random.default_rng(82)
    a = random_spd(rng, 6) + 6.0 * np.eye(6)
    h = rng.standard_normal(6)
    exact = np.linalg.solve(a, h)

    def operator(y):
        return a @ y

    # an exact base needs no step; a base 1 % long contracts by 0.01 a step
    # down to the refinement tolerance
    assert np.array_equal(sdp._refined(lambda r: np.linalg.solve(a, r), operator, h), exact)
    got = sdp._refined(lambda r: 1.01 * np.linalg.solve(a, r), operator, h)
    assert np.abs(operator(got) - h).max() <= sdp.REFINE_TOL * np.abs(h).max()
    # a base three times too long doubles the residual: the first step is
    # refused, and a residual above NEWTON_TOL is no solve at all
    assert sdp._refined(lambda r: 3.0 * np.linalg.solve(a, r), operator, h) is None
