"""Dense primal-dual interior-point solver for small block SDPs.

Standard form: minimize <C, X> over block-diagonal complex Hermitian X >= 0
subject to <A_i, X> = b_i, with the real inner product <A, B> = Re tr(A B).
The solver runs the HKM search direction with a Mehrotra predictor-corrector
step, starting from scaled identity iterates.  It is written for the problem
sizes this package produces (a few hundred rows, a few thousand constraints
at most) and keeps everything dense.

The iterate path is deterministic: no randomness, fixed initialization, and
plain NumPy arithmetic, so repeated solves of the same problem produce
identical histories.

Every block is complex Hermitian, whatever the data's dtype: real symmetric
problems enter as Hermitian matrices with zero imaginary part and run on the
same code path.  Transposes are conjugate transposes throughout.

The tolerances are module constants, because the certificates downstream
are judged against them.  A solve is converged once the primal and dual
residuals are within ``FEAS_TOL`` and the normalized duality gap is within
``GAP_TOL``; it gives up after ``MAX_ITERATIONS`` iterations.

The problem data is one flat operator.  Every block-diagonal matrix is a
complex vector of length N = sum n_b^2, block b in its own range as a
row-major vec; the constraints are the rows of one complex (m, N) matrix.
For Hermitian A and B, Re tr(A B) is the dot product of the float64 views of
their vecs (real and imaginary parts interleaved), so every inner product is
one real BLAS call on a view, with no copy.  :class:`SdpProblem` exposes the
operator through four methods: ``apply`` (X -> <A_i, X>, one real
matrix-vector product on the float64 view), ``adjoint`` (y -> sum y_i A_i,
likewise), ``schur`` (the HKM Schur complement, assembled per block with
matrix products) and ``blocks`` (a flat vector as its (n, n) block views).
The iterates X and Z, the residuals and the directions are flat vectors, so
inner products, residual norms and right-hand sides are single BLAS calls;
only the Cholesky factors, Z^-1, the direction products and the step lengths
work block by block.

Each step length is the exact distance to the boundary of the cone, read off
the smallest eigenvalue of the direction in the frame of the iterate's
Cholesky factor (as in SDPA and SDPT3), and damped by ``STEP_FRACTION``.
Every iteration factors each X and Z block once; those factors give Z^-1 and
all four step lengths.  The Schur matrix is real symmetric; it is factored
by Cholesky only to test that it is positive definite (with one jittered
retry), and each of the two directions per iteration is then one
``np.linalg.solve`` against it.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg

HERMITIAN_TOL = 1e-12
MAX_ITERATIONS = 200
FEAS_TOL = 1e-8
GAP_TOL = 1e-8
STEP_FRACTION = 0.98


class SolverError(RuntimeError):
    """The interior-point iteration broke down or did not converge."""


class SdpStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


class SdpProblem:
    """Block-diagonal SDP data: objective C, constraints A_i, rhs b.

    ``objective`` is one Hermitian matrix per block; ``constraints`` is a
    sequence of per-block matrix lists, one list per constraint row.  Real
    symmetric matrices are Hermitian matrices like any other.

    The data is stored flat and complex.  Block b of a matrix tuple is the
    row-major vec of its (Hermitian part of the) matrix, placed in its own
    column range of a vector of length N = sum n_b^2: ``c`` is the flat
    objective and ``a`` the C-contiguous (m, N) matrix whose row i is the flat
    A_i.  With Hermitian blocks, sum_b Re tr(A_ib X_b) is the dot product of
    the float64 views of the flat vectors.
    """

    def __init__(self, block_dims, objective, constraints, rhs):
        self.block_dims = tuple(int(n) for n in block_dims)
        if any(n < 1 for n in self.block_dims):
            raise ValueError("block dimensions must be positive")
        self._slices, size = [], 0
        for n in self.block_dims:
            self._slices.append(slice(size, size + n * n))
            size += n * n
        objective = list(objective)
        if len(objective) != len(self.block_dims):
            raise ValueError("objective must provide one matrix per block")
        self.c = np.empty(size, dtype=np.complex128)
        for mat, view in zip(objective, self.blocks(self.c[None])):
            self._checked_stack([mat], view, "objective")
        self.b = np.asarray(rhs, dtype=float).copy()
        if self.b.ndim != 1:
            raise ValueError("rhs must be a vector")
        if not np.isfinite(self.b).all():
            raise ValueError("rhs has a non-finite entry")
        m = self.b.size
        rows = list(constraints)
        if len(rows) != m:
            raise ValueError(f"got {len(rows)} constraint rows for {m} rhs entries")
        self.a = np.empty((m, size), dtype=np.complex128)
        # per-block (m, n, n) views into a, for the Schur assembly
        self._a_stacks = self.blocks(self.a)
        for bidx, view in enumerate(self._a_stacks):
            self._checked_stack([row[bidx] for row in rows], view, "constraint {}")
        # (m, 2N) real view: Re tr(A_i X) is a row of it dotted with X's view
        self._a_real = self.a.view(np.float64)

    @staticmethod
    def _checked_stack(mats, out, label):
        """Write (n, n) matrices into the complex (k, n, n) view ``out``,
        reject bad shapes, non-finite entries and non-Hermitian matrices, and
        keep their Hermitian parts.

        ``label.format(i)`` names matrix i in error messages.
        """
        n = out.shape[1]
        for i, mat in enumerate(mats):
            a = np.asarray(mat, dtype=np.complex128)
            if a.shape != (n, n):
                raise ValueError(f"{label.format(i)} block has shape {a.shape}, expected {(n, n)}")
            out[i] = a
        finite = np.isfinite(out)
        if not finite.all():
            i = np.flatnonzero(~finite.all(axis=(1, 2)))[0]
            raise ValueError(f"{label.format(i)} block has a non-finite entry")
        for i, a in enumerate(out):
            adj = a.conj().T
            scale = max(1.0, float(np.abs(a).max()))
            if float(np.abs(a - adj).max()) > HERMITIAN_TOL * scale:
                raise ValueError(f"{label.format(i)} block is not Hermitian")
            out[i] = (a + adj) / 2

    @property
    def num_constraints(self):
        return self.b.size

    def apply(self, x):
        """The constraint operator on a flat X: entry i is sum_b Re tr(A_ib X_b)."""
        return self._a_real @ x.view(np.float64)

    def adjoint(self, y):
        """The adjoint operator as a flat vector: block b is sum_i y_i A_ib."""
        return (y @ self._a_real).view(np.complex128)

    def blocks(self, v):
        """The (n, n) block views of a flat vector, or the (k, n, n) block
        views of the rows of a (k, N) array.

        Splitting the contiguous last axis never copies, so writes to a view
        land in ``v``.
        """
        lead = v.shape[:-1]
        return [v[..., sl].reshape(*lead, n, n) for sl, n in zip(self._slices, self.block_dims)]

    def schur(self, xs, zinvs):
        """Schur complement M[i, j] = sum_b Re tr(A_ib X_b A_jb Z_b^-1).

        ``xs`` and ``zinvs`` are the blocks of X and of Z^-1.  With
        T_j = X A_j Z^-1, the dot product of the float64 views of A_i and T_j
        is Re tr(A_i T_j^H), which equals Re tr(A_i T_j) because the two
        traces are complex conjugates.
        """
        m = self.num_constraints
        out = np.zeros((m, m))
        for stack, x, zi in zip(self._a_stacks, xs, zinvs):
            t = x[None] @ stack @ zi[None]
            out += stack.view(np.float64).reshape(m, -1) @ t.view(np.float64).reshape(m, -1).T
        return out


@dataclass
class SdpSolution:
    status: SdpStatus
    x: list
    y: np.ndarray
    z: list
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    history: list = field(repr=False)


def _flat(mats):
    """Concatenate the row-major vecs of per-block matrices."""
    return np.concatenate([mat.ravel() for mat in mats])


def _inner(u, v):
    """<U, V> = Re tr(U V) of flat Hermitian block vectors, on float64 views."""
    return float(u.view(np.float64) @ v.view(np.float64))


def _chol_or_none(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _inverse_cholesky(mat):
    """L^-1 for the Cholesky factor of mat = L L^H, or None if mat is not PD."""
    lower = _chol_or_none(mat)
    if lower is None:
        return None
    return np.linalg.solve(lower, np.eye(mat.shape[0]))


def _max_step(inv_factors, dmats, cap):
    """Largest step in [0, cap] keeping every block positive semidefinite.

    For M = L L^H, M + alpha D >= 0 exactly when I + alpha L^-1 D L^-H >= 0,
    so a block's boundary lies at -1/lambda_min(L^-1 D L^-H) when that
    eigenvalue is negative and nowhere otherwise.
    """
    step = cap
    for inv_l, dm in zip(inv_factors, dmats):
        lam = np.linalg.eigvalsh(inv_l @ dm @ inv_l.conj().T)[0]
        if lam < 0.0:
            step = min(step, -1.0 / lam)
    return step


def solve(problem):
    """Run the interior-point iteration and return an :class:`SdpSolution`.

    The returned dual slack ``z`` is recomputed exactly as C - sum y_i A_i,
    so dual feasibility can be re-verified from scratch by the caller.
    """
    dims = problem.block_dims
    ntot = sum(dims)
    m = problem.num_constraints
    b, c = problem.b, problem.c

    scale = 1.0 + float(np.abs(b).max(initial=0.0)) + float(np.abs(c).max(initial=0.0))
    x = scale * _flat([np.eye(n, dtype=np.complex128) for n in dims])
    z = x.copy()
    y = np.zeros(m)

    history = []
    status = SdpStatus.MAX_ITERATIONS
    iterations = 0

    for iterations in range(MAX_ITERATIONS):
        rp = b - problem.apply(x)
        rd = c - problem.adjoint(y) - z
        mu = _inner(x, z) / ntot
        pobj = _inner(c, x)
        dobj = float(b @ y)
        pinf = float(np.abs(rp).max(initial=0.0))
        dinf = float(np.abs(rd).max(initial=0.0))
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        history.append((pobj, dobj, pinf, dinf, mu))

        if pinf <= FEAS_TOL and dinf <= FEAS_TOL and gap <= GAP_TOL:
            status = SdpStatus.CONVERGED
            break

        xs, rds = problem.blocks(x), problem.blocks(rd)
        # one Cholesky factor per block serves Z^-1 and all four step lengths
        inv_lx = [_inverse_cholesky(xb) for xb in xs]
        inv_lz = [_inverse_cholesky(zb) for zb in problem.blocks(z)]
        if any(f is None for f in inv_lx + inv_lz):
            status = SdpStatus.NUMERICAL_FAILURE
            break
        zinv = [f.conj().T @ f for f in inv_lz]

        # real symmetric positive definite while X, Z are interior; its Cholesky
        # factor only tests that, and the directions solve against the matrix
        schur = problem.schur(xs, zinv)
        schur = (schur + schur.T) / 2
        if _chol_or_none(schur) is None:
            schur = schur + 1e-13 * max(1.0, float(np.abs(np.diag(schur)).max())) * np.eye(m)
            if _chol_or_none(schur) is None:
                status = SdpStatus.NUMERICAL_FAILURE
                break

        def times_zinv(prods, nu, cross):
            # (P + cross - nu*I) Z^-1 per block: complementarity target nu*I,
            # optional second-order correction
            out = []
            for k, (p, zi) in enumerate(zip(prods, zinv)):
                if cross is not None:
                    p += cross[k]
                if nu != 0.0:
                    p.flat[:: p.shape[0] + 1] -= nu
                out.append(p @ zi)
            return out

        def direction(nu, cross):
            inner = times_zinv([xb @ r for xb, r in zip(xs, rds)], nu, cross)
            dy = np.linalg.solve(schur, b + problem.apply(_flat(inner)))
            dz = rd - problem.adjoint(dy)
            steps = times_zinv([xb @ dzb for xb, dzb in zip(xs, problem.blocks(dz))], nu, cross)
            raw = [-xb - s for xb, s in zip(xs, steps)]
            dx = _flat([(r + r.conj().T) / 2 for r in raw])
            return dx, dy, dz

        dx_aff, dy_aff, dz_aff = direction(0.0, None)
        ap_aff = _max_step(inv_lx, problem.blocks(dx_aff), 1.0)
        ad_aff = _max_step(inv_lz, problem.blocks(dz_aff), 1.0)
        mu_aff = _inner(x + ap_aff * dx_aff, z + ad_aff * dz_aff) / ntot
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        cross = [
            dxb @ dzb for dxb, dzb in zip(problem.blocks(dx_aff), problem.blocks(dz_aff))
        ]
        dx, dy, dz = direction(sigma * mu, cross)

        limit = 1.0 / STEP_FRACTION
        ap = STEP_FRACTION * _max_step(inv_lx, problem.blocks(dx), limit)
        ad = STEP_FRACTION * _max_step(inv_lz, problem.blocks(dz), limit)
        ap = min(1.0, ap)
        ad = min(1.0, ad)
        if ap < 1e-10 and ad < 1e-10:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        x = x + ap * dx
        y = y + ad * dy
        z = z + ad * dz

    # exact dual slack for independently checkable certificates
    z_exact = c - problem.adjoint(y)
    pobj = _inner(c, x)
    dobj = float(b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return SdpSolution(
        status=status,
        x=problem.blocks(x),
        y=y,
        z=problem.blocks(z_exact),
        primal_value=pobj,
        dual_value=dobj,
        gap=gap,
        iterations=iterations + 1,
        history=history,
    )


def verify_solution(problem, solution):
    """Recompute feasibility and gap measures from scratch.

    Uses only the problem data and the returned (x, y): primal residual,
    minimum eigenvalues of the primal blocks and of C - sum y_i A_i, and the
    normalized duality gap.
    """
    x = _flat(solution.x)
    primal_residual = float(np.abs(problem.apply(x) - problem.b).max(initial=0.0))
    x_min_eig = min(linalg.min_hermitian_eigenvalue(xb, tol=1e-6) for xb in solution.x)
    slack = problem.blocks(problem.c - problem.adjoint(solution.y))
    z_min_eig = min(linalg.min_hermitian_eigenvalue(zb, tol=1e-6) for zb in slack)
    pobj = _inner(problem.c, x)
    dobj = float(problem.b @ solution.y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return {
        "primal_residual": primal_residual,
        "x_min_eig": x_min_eig,
        "z_min_eig": z_min_eig,
        "primal_value": pobj,
        "dual_value": dobj,
        "gap": gap,
    }
