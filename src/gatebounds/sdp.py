"""Dense primal-dual interior-point solver for small block SDPs.

Standard form: minimize <C, X> over block-diagonal real symmetric X >= 0
subject to <A_i, X> = b_i.  The solver runs the HKM search direction with a
Mehrotra predictor-corrector step, starting from scaled identity iterates.
It is written for the problem sizes this package produces (a few hundred
rows, a few thousand constraints at most) and keeps everything dense.

The iterate path is deterministic: no randomness, fixed initialization, and
plain NumPy arithmetic, so repeated solves of the same problem produce
identical histories.

Complex Hermitian data enters through :func:`embed_hermitian`, which maps a
Hermitian matrix to the standard real symmetric 2x2 block form.  The
embedding doubles inner products; encoders compensate by halving objective
data (see :mod:`gatebounds.diamond`).

The tolerances are module constants, because the certificates downstream
are judged against them.  A solve is converged once the primal and dual
residuals are within ``FEAS_TOL`` and the normalized duality gap is within
``GAP_TOL``; it gives up after ``MAX_ITERATIONS`` iterations.  Each step
covers at most ``STEP_FRACTION`` of the distance to the boundary of the cone.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg

SYMMETRY_TOL = 1e-12
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

    ``objective`` is one real symmetric matrix per block; ``constraints`` is
    a sequence of per-block matrix lists, one list per constraint row.
    """

    def __init__(self, block_dims, objective, constraints, rhs):
        self.block_dims = tuple(int(n) for n in block_dims)
        if any(n < 1 for n in self.block_dims):
            raise ValueError("block dimensions must be positive")
        nblocks = len(self.block_dims)
        self.c = [self._check_sym(m, n, "objective") for m, n in zip(objective, self.block_dims)]
        if len(self.c) != nblocks:
            raise ValueError("objective must provide one matrix per block")
        self.b = np.asarray(rhs, dtype=float).copy()
        if self.b.ndim != 1:
            raise ValueError("rhs must be a vector")
        m = self.b.size
        rows = list(constraints)
        if len(rows) != m:
            raise ValueError(f"got {len(rows)} constraint rows for {m} rhs entries")
        self.a = []
        for bidx, n in enumerate(self.block_dims):
            stack = np.empty((m, n, n))
            for i, row in enumerate(rows):
                stack[i] = self._check_sym(row[bidx], n, f"constraint {i}")
            self.a.append(stack)

    @staticmethod
    def _check_sym(mat, n, name):
        a = np.asarray(mat, dtype=float)
        if a.shape != (n, n):
            raise ValueError(f"{name} block has shape {a.shape}, expected {(n, n)}")
        scale = max(1.0, float(np.abs(a).max()))
        if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError(f"{name} block is not symmetric")
        return (a + a.T) / 2

    @property
    def num_constraints(self):
        return self.b.size


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


def embed_hermitian(h):
    """Real symmetric 2x2 block embedding [[Re, -Im], [Im, Re]].

    Positive semidefiniteness is preserved both ways and every inner product
    is doubled, so eigenvalues of the embedding are those of ``h``, each
    twice.
    """
    a = np.asarray(h, dtype=np.complex128)
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


def _apply_a(problem, xs):
    out = np.zeros(problem.num_constraints)
    for stack, x in zip(problem.a, xs):
        out += np.einsum("ibc,cb->i", stack, x)
    return out


def _apply_at(problem, y):
    return [np.tensordot(y, stack, axes=1) for stack in problem.a]


def _chol_or_none(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _max_step(mats, dmats, cap):
    """Largest step in [0, cap] keeping every block positive definite.

    Bisection on a Cholesky feasibility test; monotone, deterministic, and
    accurate to cap * 2^-46, which is far finer than the fraction-to-boundary
    damping applied afterwards.
    """

    def feasible(alpha):
        for m, dm in zip(mats, dmats):
            if _chol_or_none(m + alpha * dm) is None:
                return False
        return True

    if feasible(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(46):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def solve(problem):
    """Run the interior-point iteration and return an :class:`SdpSolution`.

    The returned dual slack ``z`` is recomputed exactly as C - sum y_i A_i,
    so dual feasibility can be re-verified from scratch by the caller.
    """
    dims = problem.block_dims
    ntot = sum(dims)
    m = problem.num_constraints

    scale = 1.0 + float(np.abs(problem.b).max(initial=0.0))
    scale += max(float(np.abs(c).max(initial=0.0)) for c in problem.c)
    xs = [scale * np.eye(n) for n in dims]
    zs = [scale * np.eye(n) for n in dims]
    y = np.zeros(m)

    history = []
    status = SdpStatus.MAX_ITERATIONS
    iterations = 0

    for iterations in range(MAX_ITERATIONS):
        rp = problem.b - _apply_a(problem, xs)
        aty = _apply_at(problem, y)
        rd = [c - at - z for c, at, z in zip(problem.c, aty, zs)]
        mu = sum(float(np.tensordot(x, z)) for x, z in zip(xs, zs)) / ntot
        pobj = sum(float(np.tensordot(c, x)) for c, x in zip(problem.c, xs))
        dobj = float(problem.b @ y)
        pinf = float(np.abs(rp).max(initial=0.0))
        dinf = max(float(np.abs(r).max(initial=0.0)) for r in rd)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        history.append((pobj, dobj, pinf, dinf, mu))

        if pinf <= FEAS_TOL and dinf <= FEAS_TOL and gap <= GAP_TOL:
            status = SdpStatus.CONVERGED
            break

        zinv = []
        failed = False
        for z in zs:
            lz = _chol_or_none(z)
            if lz is None:
                failed = True
                break
            inv_l = np.linalg.solve(lz, np.eye(z.shape[0]))
            zinv.append(inv_l.T @ inv_l)
        if failed:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        # Schur complement M[i, j] = tr(A_i Z^-1 A_j X), symmetric positive
        # definite while X, Z are interior
        schur = np.zeros((m, m))
        for stack, x, zi in zip(problem.a, xs, zinv):
            t = zi[None] @ stack @ x[None]
            n = x.shape[0]
            schur += stack.reshape(m, n * n) @ t.transpose(0, 2, 1).reshape(m, n * n).T
        schur = (schur + schur.T) / 2
        ls = _chol_or_none(schur)
        if ls is None:
            jitter = 1e-13 * max(1.0, float(np.abs(np.diag(schur)).max()))
            ls = _chol_or_none(schur + jitter * np.eye(m))
        if ls is None:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        def solve_schur(rhs):
            return np.linalg.solve(ls.T, np.linalg.solve(ls, rhs))

        def direction(nu, cross):
            # complementarity target nu*I, optional second-order correction
            rhs = problem.b.copy()
            for stack, zi, x, r, cr in zip(problem.a, zinv, xs, rd, cross):
                inner = x @ r @ zi
                if cr is not None:
                    inner = inner + cr @ zi
                rhs += np.einsum("ibc,cb->i", stack, inner)
                if nu != 0.0:
                    rhs -= nu * np.einsum("ibc,cb->i", stack, zi)
            dy = solve_schur(rhs)
            daty = _apply_at(problem, dy)
            dz = [r - da for r, da in zip(rd, daty)]
            dx = []
            for x, z, zi, dzb, cr in zip(xs, zs, zinv, dz, cross):
                raw = -x - x @ dzb @ zi
                if nu != 0.0:
                    raw = raw + nu * zi
                if cr is not None:
                    raw = raw - cr @ zi
                dx.append((raw + raw.T) / 2)
            return dx, dy, dz

        none_cross = [None] * len(dims)
        dx_aff, dy_aff, dz_aff = direction(0.0, none_cross)
        ap_aff = _max_step(xs, dx_aff, 1.0)
        ad_aff = _max_step(zs, dz_aff, 1.0)
        mu_aff = sum(
            float(np.tensordot(x + ap_aff * dx, z + ad_aff * dz))
            for x, dx, z, dz in zip(xs, dx_aff, zs, dz_aff)
        ) / ntot
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        cross = [dx @ dz for dx, dz in zip(dx_aff, dz_aff)]
        dx, dy, dz = direction(sigma * mu, cross)

        limit = 1.0 / STEP_FRACTION
        ap = STEP_FRACTION * _max_step(xs, dx, limit)
        ad = STEP_FRACTION * _max_step(zs, dz, limit)
        ap = min(1.0, ap)
        ad = min(1.0, ad)
        if ap < 1e-10 and ad < 1e-10:
            status = SdpStatus.NUMERICAL_FAILURE
            break

        xs = [x + ap * dx_b for x, dx_b in zip(xs, dx)]
        y = y + ad * dy
        zs = [z + ad * dz_b for z, dz_b in zip(zs, dz)]

    # exact dual slack for independently checkable certificates
    zs_exact = [c - at for c, at in zip(problem.c, _apply_at(problem, y))]
    pobj = sum(float(np.tensordot(c, x)) for c, x in zip(problem.c, xs))
    dobj = float(problem.b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return SdpSolution(
        status=status,
        x=xs,
        y=y,
        z=zs_exact,
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
    primal_residual = float(np.abs(_apply_a(problem, solution.x) - problem.b).max(initial=0.0))
    x_min_eig = min(
        linalg.min_hermitian_eigenvalue(x.astype(np.complex128), tol=1e-6) for x in solution.x
    )
    slack = [c - at for c, at in zip(problem.c, _apply_at(problem, solution.y))]
    z_min_eig = min(
        linalg.min_hermitian_eigenvalue(z.astype(np.complex128), tol=1e-6) for z in slack
    )
    pobj = sum(float(np.tensordot(c, x)) for c, x in zip(problem.c, solution.x))
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
