"""Dense primal-dual interior-point solver for small block SDPs.

Standard form: minimize <C, X> over block-diagonal complex Hermitian X >= 0
subject to <A_i, X> = b_i, with the real inner product <A, B> = Re tr(A B).
The solver runs a Mehrotra predictor-corrector step, in one loop for every
kind of problem and for stacks of problems (*Stacks* below), and asks the
problem for its Newton system every iteration.  It starts from the
caller's (x, y, z), with X and Z interior, or by default from the scaled
identity X = Z = s I, y = 0 with s = 1 + max |b_i| + max |C|
(:func:`solve`).  Two kinds of problem supply two Newton systems:

* :class:`SdpProblem` holds its constraints as one matrix and uses the HKM
  direction: the Schur matrix M[i, j] = sum_b Re tr(A_ib X_b A_jb Z_b^-1)
  is assembled with matrix products and solved dense.  It is written for
  the problem sizes this package assembles (a few hundred rows, a few
  thousand constraints at most).
* :class:`StructuredProblem` applies its constraints without a matrix and
  uses the Nesterov-Todd (NT) direction, whose Newton matrix
  M = A(W A*(.) W), W the NT scaling point, keeps a congruence structure
  that a problem can invert cheaply (the diamond SDP's "structured" path does, in
  :mod:`gatebounds.diamond`).  HKM's operator herm(X A*(.) Z^-1) has no
  such inverse.  The problem's solve may be inexact: each one is refined
  against the exact operator until its residual is within ``REFINE_TOL``
  of the right-hand side or stops shrinking, and one that ends above
  ``NEWTON_TOL`` stops the iteration as ``NUMERICAL_FAILURE``.  NT on the
  assembled matrix took 1.5-1.75 times HKM's time at d = 2 with the same
  iteration counts (60 diamond solves of audit inputs, one BLAS thread), so
  :class:`SdpProblem` keeps HKM.

The iterate path is deterministic: no randomness, a start fixed by the
problem and the caller, and plain NumPy arithmetic, so repeated solves of
the same problem from the same start produce identical iterates.

Every block is complex Hermitian, whatever the data's dtype: real symmetric
problems enter as Hermitian matrices with zero imaginary part and run on the
same code path.  Transposes are conjugate transposes throughout.

The tolerances are module constants, because the certificates downstream
are judged against them.  A solve is converged once the primal and dual
residuals are within ``FEAS_TOL`` and the normalized duality gap is within
``GAP_TOL``; it gives up after ``MAX_ITERATIONS`` iterations.  A solve
returns only what its loop computed: the status, the last iterate's X
blocks and y, and that iterate's gap and iteration count
(:class:`SdpSolution`).  :func:`verify_solution` is the one check from
scratch: residual, eigenvalues of X and of the dual slack C - sum y_i A_i,
both objective values and the gap, from the problem and (x, y) alone.  The
package's top level re-exports only :class:`SolverError`; the solver
itself is reached as ``gatebounds.sdp``, and it imports nothing from the
package: only numpy and the standard library.

The problem data is one flat operator.  Every block-diagonal matrix is a
complex vector of length N = sum n_b^2, block b in its own range as a
row-major vec (:class:`BlockLayout`).  An :class:`SdpProblem` is given its
data in that form, ``SdpProblem(block_dims, c, a, b)`` with the (N,)
objective c, the (m, N) constraint matrix a whose rows are the A_i and the
(m,) rhs b, and it validates and copies them in one pass over the blocks.
For Hermitian A and B, Re tr(A B) is the dot product of the float64 views of
their vecs (real and imaginary parts interleaved), so every inner product is
one real BLAS call on a view, with no copy.  :class:`SdpProblem` exposes the
operator through five methods: ``apply`` (X -> <A_i, X>, one real
matrix-vector product on the float64 view), ``adjoint`` (y -> sum y_i A_i,
likewise), ``schur`` (the HKM Schur complement, assembled run by run),
``blocks`` (a flat vector as its (n, n) block views) and ``stacks`` (a flat
vector as one (k, n, n) view per run of k consecutive blocks of equal size
n).  The iterates X and Z, the residuals and the directions are flat
vectors, so inner products, residual norms and right-hand sides are single
BLAS calls; the Cholesky factors, Z^-1, the direction products, the Schur
products and the step lengths work run by run, each one batched call on a
stack.

The problem data is read-only.  Problems that differ only in the objective
share one constraint matrix: ``SdpProblem.with_objective(c)`` derives a
problem with the flat objective c, or with a (B, N) stack of objectives,
without copying or re-validating the constraints, which is how the diamond
SDP reuses one set of constraints per dimension.  ``schur`` works by the
same runs as the rest of the iteration: per run and block, X_b against the
run's rows laid side by side (a (k, n, m n) copy of the constraints that
the problem makes once), then those m products stacked on top of each
other against Z_b^-1, and one real GEMM against the run's constraint
columns: four matrix products per run.  One product per row and block took
about a sixth of a d = 2 diamond iteration, and these take about a tenth
(line samples of the 30 d = 2 audit solves named under *Stacks*).
``newton_system(xs, inv_l, rd)`` returns the HKM system of an iterate.  A
solve only reads the problem's data and its start, which a caller may share
or keep after the solve.

Each iteration forms its per-run views once and passes them on: the stacks
of X and Z, which the factorization and ``newton_system`` read, and the
stacks of R_d, which the Newton system reads when it is built.  The system
forms its products with R_d once (X R_d for HKM, W R_d W for NT), for the
predictor and the corrector alike.  Each direction (:class:`_Direction`)
returns its flat dx, dy and dz together with the per-run stacks of dx and
dz, which the step lengths and the corrector's cross term read without
slicing again.

Each step length is the exact distance to the boundary of the cone, read off
the smallest eigenvalue of the direction in the frame of the iterate's
Cholesky factor (as in SDPA and SDPT3), and damped by ``STEP_FRACTION``.
Every iteration factors the X and Z blocks of a run together: one batched
Cholesky call on their concatenated (2k, n, n) stack, then one batched
``inv`` for the inverse factors, which give Z^-1 and all four step lengths.
Each direction's primal and dual step lengths of a run come from one
batched ``eigvalsh``; the two minima are taken separately.  The verify
reads its spectra the same way: one ``eigvalsh`` per run on the stack of
its X blocks then its slack blocks.  Every eigenvalue the module reads
comes from ``eigvalsh``, in ascending order.
NumPy's batched linear algebra runs the same LAPACK routine on each member,
so a run gives the numbers that one call per block gives; a problem whose
blocks all differ in size has runs of one.  The diamond SDP's blocks
(d^2, d^2, d) form two runs, so an assembled iteration makes three
Cholesky calls, two ``inv`` calls, two solves and four ``eigvalsh`` calls,
and a verify two ``eigvalsh`` calls.
The Schur matrix is real symmetric; it is factored by Cholesky only to test
that it is positive definite (with one jittered retry), and each of the two
directions per iteration is then one ``np.linalg.solve`` against it.  The
NT scaling reuses the same inverse Cholesky factors: one batched SVD per run
gives it.

*Stacks.*  :func:`solve_batch` runs the loop on every objective of a
(B, N) stack at once: x, y and z are (B, N), (B, m) and (B, N) arrays, and
each call above covers the whole stack, so an iteration of B members makes
the LAPACK calls of one.  Every member's numbers come from the same
per-matrix call it gets by itself: batched LAPACK and GEMM run per member,
the operator is one matrix-vector product per row and the inner products
are ``np.vecdot`` rows, so a member's iterates do not depend on its
batch-mates, bit for bit.  Each member keeps its own step lengths, its own
centring target and its own convergence test, all in Python floats as a
single solve's are.  A member that converges, reaches ``MAX_ITERATIONS`` or
fails leaves the stack with its own :class:`SdpSolution`; a failure found
mid-iteration (an indefinite block, a Schur matrix that fails its own
jittered retry, a step that stalls) takes the member out and repeats the
iteration for the rest.  :func:`solve` is B = 1: the same loop on flat
vectors, with the shapes and the numbers of a loop that has no batch axis,
and a single member's bookkeeping is a handful of Python floats.  On the 30
d = 2 audit solves of the benchmark's first 15 audit-1q items it took
0.1-2.2 % more CPU time per solve than a loop without the axis (medians of
five runs of 40 alternating rounds, one BLAS thread), with the same
iterates.  A :class:`StructuredProblem` has one objective, so it is always
a single solve, and its NT system never sees a batch axis.
"""

import copy
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# relative Hermiticity of a problem's data; the solver's own, apart from
# gatebounds.linalg.TOLERANCE because this module imports nothing from the
# package
HERMITIAN_TOL = 1e-12
MAX_ITERATIONS = 200
FEAS_TOL = 1e-8
GAP_TOL = 1e-8
STEP_FRACTION = 0.98
# a structured Newton solve is refined until its residual is this small
# relative to the right-hand side, and fails above NEWTON_TOL
REFINE_TOL = 1e-12
NEWTON_TOL = 1e-6
MAX_REFINEMENTS = 10


class SolverError(RuntimeError):
    """The interior-point iteration broke down or did not converge."""


class SdpStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


class BlockLayout:
    """The layout of block-diagonal matrices as flat complex vectors.

    Block b of a vector of length N = sum n_b^2 is the row-major vec of an
    (n_b, n_b) matrix in its own range.  ``runs`` lists the maximal runs of
    consecutive blocks of equal size as (k, n) pairs: k blocks of size n.  A
    run's blocks fill one contiguous range, so :meth:`stacks` views it as one
    (k, n, n) array, and the solver factors and steps it with one batched
    call.  Both kinds of problem share this layout.
    """

    def __init__(self, block_dims):
        self.block_dims = tuple(int(n) for n in block_dims)
        if any(n < 1 for n in self.block_dims):
            raise ValueError("block dimensions must be positive")
        self._slices, size = [], 0
        for n in self.block_dims:
            self._slices.append(slice(size, size + n * n))
            size += n * n
        self.runs, self._run_slices, start = [], [], 0
        for n, members in itertools.groupby(self.block_dims):
            k = len(list(members))
            self.runs.append((k, n))
            self._run_slices.append(slice(start, start + k * n * n))
            start += k * n * n
        self.size = size

    def blocks(self, v):
        """The (n, n) block views of a flat vector, or the (k, n, n) block
        views of the rows of a (k, N) array.

        Splitting the contiguous last axis never copies, so writes to a view
        land in ``v``.
        """
        lead = v.shape[:-1]
        return [v[..., sl].reshape(lead + (n, n)) for sl, n in zip(self._slices, self.block_dims)]

    def stacks(self, v):
        """The (k, n, n) views of a flat vector, one per run of ``runs``, or
        the (B, k, n, n) views of the rows of a (B, N) array.

        A run's blocks are contiguous, so a stack is a reshape of its slice
        of ``v``: no copy, and writes to a stack land in ``v``.
        """
        lead = v.shape[:-1]
        return [v[..., sl].reshape(lead + (k, n, n)) for sl, (k, n) in zip(self._run_slices, self.runs)]


class SdpProblem(BlockLayout):
    """Block-diagonal SDP data: objective C, constraints A_i, rhs b.

    The data is given and stored flat, in the layout of :class:`BlockLayout`:
    ``c`` is the (N,) objective, N = sum n_b^2, and ``a`` the (m, N)
    constraint matrix whose row i is A_i, one row per entry of the (m,) rhs
    ``b``.  Block b of a flat vector is the row-major vec of an (n_b, n_b)
    Hermitian matrix; real symmetric matrices are Hermitian matrices like any
    other.  The constructor stores complex C-contiguous copies of the
    Hermitian parts, so the caller's arrays are left as they are.  With
    Hermitian blocks, sum_b Re tr(A_ib X_b) is the dot product of the float64
    views of the flat vectors.

    ``a``, ``b`` and ``c`` are read-only, so problems that differ only in
    their objective can share the constraint data: :meth:`with_objective`
    derives one without copying or re-validating the constraints, and
    derives a stack of them as one problem whose ``c`` is a (B, N) array
    (:func:`solve_batch`; :meth:`members` splits it into its rows).

    Its Newton system is the HKM one, assembled as the Schur matrix
    (:meth:`newton_system`).
    """

    def __init__(self, block_dims, c, a, b):
        super().__init__(block_dims)
        self.c = self._checked(c, (self.size,), "objective")
        self.b = np.asarray(b, dtype=float).copy()
        if self.b.ndim != 1:
            raise ValueError("rhs must be a vector")
        if not np.isfinite(self.b).all():
            raise ValueError("rhs has a non-finite entry")
        self.b.flags.writeable = False
        m = self.b.size
        self.a = self._checked(a, (m, self.size), "constraint {}")
        # (m, 2N) real view: Re tr(A_i X) is a row of it dotted with X's view
        self._a_real = self.a.view(np.float64)
        # per run, its (m, k, n, n) constraint stack and the matching
        # (m, 2 k n^2) columns of the float64 view, both views into a, and a
        # (k, n, m n) copy whose block b holds [A_1b | ... | A_mb] side by
        # side, so that X_b A_jb for every row j is one matrix product
        self._run_stacks = [
            (self.a[:, sl].reshape(m, k, n, n), self._a_real[:, 2 * sl.start : 2 * sl.stop])
            for sl, (k, n) in zip(self._run_slices, self.runs)
        ]
        self._run_rows = []
        for stack, _ in self._run_stacks:
            _, k, n, _ = stack.shape
            rows = np.ascontiguousarray(stack.transpose(1, 2, 0, 3)).reshape(k, n, m * n)
            rows.flags.writeable = False
            self._run_rows.append(rows)

    def with_objective(self, c):
        """The same constraints and rhs with the flat objective ``c``, or
        with a (B, N) stack of objectives, one per row, for
        :func:`solve_batch`.

        Shares ``a``, its float64 and per-run views and ``b`` with this
        problem; only the objective is validated, with the messages of the
        constructor.  A stack is validated in one pass over its rows, and a
        message names the first bad row ("objective 2 block is not
        Hermitian").
        """
        derived = copy.copy(self)
        if np.ndim(c) > 1:
            derived.c = self._checked(c, (len(c), self.size), "objective {}")
        else:
            derived.c = self._checked(c, (self.size,), "objective")
        return derived

    def members(self):
        """One problem per row of the objective, in order: each shares the
        constraints and views its row, with nothing copied or validated."""
        out = []
        for row in self.c.reshape(-1, self.size):
            member = copy.copy(self)
            member.c = row
            out.append(member)
        return out

    @property
    def num_constraints(self):
        return self.b.size

    def _checked(self, data, shape, label):
        """A read-only complex copy of ``data``, whose rows are flat vectors
        of this layout, with each block replaced by its Hermitian part.

        Rejects a shape other than ``shape``, a non-finite entry and a
        non-Hermitian block.  ``label.format(i)`` names the first bad row i,
        and ``label.format("matrix")`` the whole array.
        """
        out = np.array(data, dtype=np.complex128, order="C")
        if out.shape != shape:
            raise ValueError(f"{label.format('matrix')} has shape {out.shape}, expected {shape}")
        rows = out.reshape(-1, self.size)
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            raise ValueError(f"{label.format(np.flatnonzero(bad)[0])} block has a non-finite entry")
        for view in self.blocks(rows):
            adj = view.conj().mT
            scale = np.maximum(1.0, np.abs(view).max(axis=(1, 2)))
            bad |= np.abs(view - adj).max(axis=(1, 2)) > HERMITIAN_TOL * scale
            view[...] = (view + adj) / 2
        if bad.any():
            raise ValueError(f"{label.format(np.flatnonzero(bad)[0])} block is not Hermitian")
        out.flags.writeable = False
        return out

    def apply(self, x):
        """The constraint operator on a flat X, or on each row of a (B, N)
        array: entry i is sum_b Re tr(A_ib X_b).  Each row is one
        matrix-vector product, the one a flat X gets, so a row's result
        does not depend on the others."""
        return (self._a_real @ x.view(np.float64)[..., None])[..., 0]

    def adjoint(self, y):
        """The adjoint operator as a flat vector, block b sum_i y_i A_ib, or
        one such row per row of a (B, m) array, each its own product."""
        return (y[..., None, :] @ self._a_real)[..., 0, :].view(np.complex128)

    def newton_system(self, xs, inv_l, rd):
        """The HKM Newton system of an iterate, or of a stack of iterates,
        whose X blocks are the per-run (k, n, n) or (B, k, n, n) stacks
        ``xs`` and whose dual residual is the flat ``rd``, or its (B, N)
        rows.

        ``inv_l`` holds per run the inverse Cholesky factors of the X blocks
        then of the Z blocks, which give Z^-1.  Each Schur matrix is real
        symmetric positive definite while its X and Z are interior; one
        Cholesky call on the matrix or the stack only tests that.  A stack
        that fails it tests each member again, and a member that fails gets
        one jittered retry of its own; members that fail that too raise
        :class:`_Breakdown`.  Each direction is then one ``np.linalg.solve``
        against the matrix or the stack.
        """
        zinv = [f[..., k:, :, :].conj().mT @ f[..., k:, :, :] for f, (k, _) in zip(inv_l, self.runs)]
        schur = self.schur(xs, zinv)
        if _chol_or_none(schur) is None:
            m = self.num_constraints
            members = schur.reshape(-1, m, m)
            failed = np.zeros(len(members), dtype=bool)
            for i, member in enumerate(members):
                # the test of a single matrix was the member's own
                if len(members) == 1 or _chol_or_none(member) is None:
                    member.flat[:: m + 1] += 1e-13 * max(1.0, float(np.abs(np.diag(member)).max()))
                    failed[i] = _chol_or_none(member) is None
            if failed.any():
                raise _Breakdown(failed)
        return _HkmSystem(self, xs, zinv, schur, rd)

    def schur(self, xs, zinvs):
        """Schur complement M[i, j] = sum_b Re tr(A_ib X_b A_jb Z_b^-1),
        returned as the exactly symmetric (M + M^T) / 2 of the per-run sum;
        one (m, m) matrix per member when the stacks carry a leading batch
        axis.

        ``xs`` and ``zinvs`` are the (k, n, n) stacks of X and of Z^-1, one
        per run, or their (B, k, n, n) stacks.  Per member and block, T_j =
        (X_b A_jb) Z_b^-1 for every row j takes two matrix products: X_b
        against the run's rows side by side, then the m products stacked on
        top of each other against Z_b^-1.  Per member, one real GEMM of the
        run's constraint stack's float64 view against T's gives the run's
        part: the dot product of the views is Re tr(A_i T_j^H), which equals
        Re tr(A_i T_j) because the two traces are complex conjugates.
        """
        parts = []
        for (stack, stack_real), rows, xr, zi in zip(self._run_stacks, self._run_rows, xs, zinvs):
            m, k, n, _ = stack.shape
            lead = xr.shape[:-3]
            # each step copies into the next layout, and at most two of the
            # stacks are alive at a time
            prods = np.swapaxes((xr @ rows).reshape(lead + (k, n, m, n)), -3, -2).reshape(lead + (k, m * n, n))
            prods = prods @ zi
            prods = np.swapaxes(prods.reshape(lead + (k, m, n, n)), -4, -3).reshape(lead + (m, -1))
            parts.append(stack_real @ prods.view(np.float64).mT)
        total = sum(parts[1:], parts[0])
        return (total + total.mT) / 2


@dataclass(frozen=True, slots=True)
class SdpSolution:
    """The iterate a solve ended on: the primal blocks ``x``, the dual
    vector ``y``, and the normalized duality gap and iteration count of its
    last evaluation.  :func:`verify_solution` recomputes everything else
    from ``x``, ``y`` and the problem."""

    status: SdpStatus
    x: list
    y: np.ndarray
    gap: float
    iterations: int


def _flat(mats, lead=()):
    """Concatenate the row-major vecs of per-block matrices or per-run
    stacks, or per member of stacks with the leading axes ``lead``."""
    return np.concatenate([mat.reshape(lead + (-1,)) for mat in mats], axis=-1)


def _inner(u, v):
    """<U, V> = Re tr(U V) of flat Hermitian block vectors, on float64 views,
    or one per row of (B, N) arrays: ``np.vecdot`` makes each row the dot
    product a single pair's ``@`` makes, whatever the other rows hold."""
    return np.vecdot(u.view(np.float64), v.view(np.float64))


class _Breakdown(Exception):
    """Members that cannot take this iteration's step; ``members`` is a mask
    with one entry per member (one entry for a single solve).  The loop
    stops them as ``NUMERICAL_FAILURE`` and repeats the iteration for the
    rest."""

    def __init__(self, members):
        super().__init__(members)
        self.members = members


def _chol_or_none(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _inverse_cholesky(mats):
    """L^-1 for the Cholesky factors of mats = L L^H, or None unless every
    matrix is positive definite.

    ``mats`` is one matrix or a stack; a stack takes one batched Cholesky
    call and one batched ``inv`` (LAPACK's solve against the identity,
    built inside the call).
    """
    lower = _chol_or_none(mats)
    if lower is None:
        return None
    return np.linalg.inv(lower)


def _max_steps(inv_factors, dxs, dzs, cap, inv_adjoints=None, fraction=None):
    """Largest primal and dual steps in [0, cap] keeping every block positive
    semidefinite: two arrays of one entry, or for stacks with a leading
    batch axis two (B, 1) columns, that scale the directions.  With
    ``fraction``, each step s is damped to min(1, fraction s).

    For M = L L^H, M + alpha D >= 0 exactly when I + alpha L^-1 D L^-H >= 0,
    so a block's boundary lies at -1/lambda_min(L^-1 D L^-H) when that
    eigenvalue is negative and nowhere otherwise.  Per run, ``inv_factors``
    holds the (2k, n, n) inverse factors of the X blocks then the Z blocks
    (``inv_adjoints`` their conjugate transposes, when the caller has them),
    and ``dxs`` and ``dzs`` the (k, n, n) stacks of the two directions; one
    ``eigvalsh`` call covers the run, and the X and Z halves of its smallest
    eigenvalues give the primal and the dual step.  -1/lambda grows with
    lambda < 0, so each step is read off the least eigenvalue over the runs;
    that last map is plain float arithmetic, member by member.  With
    ``fraction``, members whose two damped steps are both below 1e-10 have
    stalled and raise :class:`_Breakdown`.
    """
    if inv_adjoints is None:
        inv_adjoints = [f.conj().mT for f in inv_factors]
    least = None
    for inv_l, inv_lh, dx, dz in zip(inv_factors, inv_adjoints, dxs, dzs):
        lam = np.linalg.eigvalsh(inv_l @ np.concatenate((dx, dz), axis=-3) @ inv_lh)[..., 0]
        run = lam.reshape(lam.shape[:-1] + (2, -1)).min(axis=-1)
        least = run if least is None else np.fmin(least, run)
    steps = [cap if not low < 0.0 else min(cap, -1.0 / low) for low in least.ravel().tolist()]
    if fraction is not None:
        steps = [min(1.0, fraction * step) for step in steps]
        if min(steps) < 1e-10:
            stuck = [max(pair) < 1e-10 for pair in zip(steps[::2], steps[1::2])]
            if any(stuck):
                raise _Breakdown(np.array(stuck))
    steps = np.array(steps).reshape(least.shape)
    return steps[..., :1], steps[..., 1:]


class _Direction(NamedTuple):
    """A search direction: the flat dx, dy and dz, and the per-run (k, n, n)
    stacks of dx and dz that the step lengths and the corrector read; with
    a leading batch axis on each for a stack of iterates."""

    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    dxs: list
    dzs: list


def _hermitian_direction(raw, dy, dz, dzs):
    """The direction whose dx is the Hermitian part of the per-run ``raw``."""
    dxs = [(r + r.conj().mT) / 2 for r in raw]
    return _Direction(_flat(dxs, dy.shape[:-1]), dy, dz, dxs, dzs)


class _HkmSystem:
    """The HKM direction of an :class:`SdpProblem` against its assembled
    Schur matrix, at an iterate with dual residual R_d, or against one
    Schur matrix per member at a stack of iterates.

    The linearized complementarity is X dZ + dX Z = nu I - X Z - cross, with
    ``cross`` = dX_aff dZ_aff of the predictor for the corrector, and dX is
    the Hermitian part of its solution.  The right-hand side of the Schur
    solve is written with b, not with the primal residual: with dX = -X -
    (X dZ + cross - nu I) Z^-1, A(dX) = b - A(X) is M dy = b + A((X R_d +
    cross - nu I) Z^-1).  The products X R_d are formed once, for both
    directions of the iteration.
    """

    def __init__(self, problem, xs, zinv, schur, rd):
        self.problem, self.xs, self.zinv, self.schur, self.rd = problem, xs, zinv, schur, rd
        self.x_rd = [xr @ r for xr, r in zip(xs, problem.stacks(rd))]

    def _times_zinv(self, prods, nu, cross):
        # (P + cross - nu*I) Z^-1 per run, nu one target per member: the
        # corrector's shift; the predictor (cross None) has nu = 0 and no
        # shift, and the shared X R_d stay as they are
        out = []
        for r, (p, zi) in enumerate(zip(prods, self.zinv)):
            if cross is not None:
                p = p + cross[r]
                p.reshape(p.shape[:-2] + (-1,))[..., :: p.shape[-1] + 1] -= nu
            out.append(p @ zi)
        return out

    def direction(self, rp, nu, affine):
        """The :class:`_Direction` towards the target ``nu``, an array with
        one entry per member (0-d for a single iterate); the predictor passes
        nu None and ``affine`` None, the corrector the predictor's
        direction.  Never fails."""
        problem, xs = self.problem, self.xs
        cross = None
        if affine is not None:
            cross = [dxr @ dzr for dxr, dzr in zip(affine.dxs, affine.dzs)]
            nu = nu[..., None, None]
        inner = self._times_zinv(self.x_rd, nu, cross)
        rhs = problem.b + problem.apply(_flat(inner, rp.shape[:-1]))
        dy = np.linalg.solve(self.schur, rhs[..., None])[..., 0]
        dz = self.rd - problem.adjoint(dy)
        dzs = problem.stacks(dz)
        steps = self._times_zinv([xr @ dzr for xr, dzr in zip(xs, dzs)], nu, cross)
        return _hermitian_direction([-xr - s for xr, s in zip(xs, steps)], dy, dz, dzs)


class StructuredProblem(BlockLayout):
    """A problem whose constraint operator is applied without a matrix.

    Subclasses set ``b`` and ``c`` (read-only, in the layout of
    :class:`BlockLayout`) and implement ``apply`` and ``adjoint`` as
    :class:`SdpProblem` does on flat vectors, and ``nt_solver(ws)``: for the
    blocks ``ws`` of a positive definite W, a function h -> y that solves
    A(W A*(y) W) = h, or None when it cannot be built.  It may be inexact;
    every solve is refined against ``apply`` and ``adjoint``
    (:class:`_NtSystem`).  The Newton system is the NT one, whose matrix
    A(W A*(.) W) keeps the operator's structure where the HKM matrix
    A(X A*(.) Z^-1) does not.  The objective is one flat vector, so such a
    problem is always a single solve.
    """

    @property
    def num_constraints(self):
        return self.b.size

    def newton_system(self, xs, inv_l, rd):
        """The NT Newton system at the iterate whose X blocks are the per-run
        stacks ``xs`` and whose dual residual is the flat ``rd``; raises
        :class:`_Breakdown` when its scaling or its base solve cannot be
        built."""
        scaling = _nt_scaling(xs, inv_l)
        if scaling is None:
            raise _Breakdown(np.ones(1, dtype=bool))
        ws = [g @ g.conj().mT for g, _, _ in scaling]
        base = self.nt_solver([wb for w in ws for wb in w])
        if base is None:
            raise _Breakdown(np.ones(1, dtype=bool))
        return _NtSystem(self, scaling, ws, base, rd)


def _nt_scaling(xs, inv_l):
    """The Nesterov-Todd scaling per run, from the inverse Cholesky factors
    F_X = L_X^-1 and F_Z = L_Z^-1 of the solver's factorization.

    With the SVD F_Z F_X^H = U diag(s) V^H, G = L_X V diag(s)^1/2 (and
    L_X = X F_X^H) gives G^-1 X G^-H = G^H Z G = diag(lambda), lambda = 1/s,
    and W = G G^H is the NT scaling point, W Z W = X (Todd, Toh and
    Tutuncu, SIAM J. Optim. 8, 1998).  Returns (G, G^-1, lambda) stacks per
    run, or None when the SVD fails.
    """
    out = []
    for xr, f in zip(xs, inv_l):
        k = len(xr)
        fx_h = f[:k].conj().mT
        try:
            _, s, vh = np.linalg.svd(f[k:] @ fx_h)
        except np.linalg.LinAlgError:
            return None
        root = np.sqrt(s)
        g = (xr @ fx_h @ vh.conj().mT) * root[:, None, :]
        ginv = (vh @ f[:k]) / root[:, :, None]
        out.append((g, ginv, 1.0 / s))
    return out


def _refined(base, operator, h):
    """y with operator(y) = h: ``base(h)``, refined by ``base`` of the
    residual until the residual is within ``REFINE_TOL`` of h or stops
    shrinking; None unless it ends within ``NEWTON_TOL``."""
    size = float(np.abs(h).max(initial=0.0))
    y = base(h)
    res = h - operator(y)
    err = float(np.abs(res).max(initial=0.0))
    for _ in range(MAX_REFINEMENTS):
        if not err > REFINE_TOL * size:
            break
        trial = y + base(res)
        trial_res = h - operator(trial)
        trial_err = float(np.abs(trial_res).max(initial=0.0))
        if not trial_err < err:
            break
        y, res, err = trial, trial_res, trial_err
    return y if err <= NEWTON_TOL * size else None


class _NtSystem:
    """The NT direction of a :class:`StructuredProblem`.

    In the scaled frame X~ = G^-1 X G^-H = diag(lambda) = G^H Z G = Z~, the
    linearized complementarity is the Lyapunov equation
    herm(Lambda D) = nu I - Lambda^2 - herm(dX~_aff dZ~_aff) for
    D = dX~ + dZ~, solved entrywise.  Back in the original frame
    dX + W dZ W = T with T = G D G^H, so M dy = R_p - A(T - W R_d W) with
    M = A(W A*(.) W), dZ = R_d - A*(dy) and dX = T - W dZ W.  W R_d W is
    formed once, for both directions of the iteration.
    """

    def __init__(self, problem, scaling, ws, base, rd):
        self.problem, self.scaling, self.ws, self.base, self.rd = problem, scaling, ws, base, rd
        self.w_rd = self._scaled(rd)

    def _scaled(self, v):
        """W V W of a flat vector, run by run."""
        return _flat([w @ vr @ w for w, vr in zip(self.ws, self.problem.stacks(v))])

    def _operator(self, y):
        return self.problem.apply(self._scaled(self.problem.adjoint(y)))

    def direction(self, rp, nu, affine):
        """The :class:`_Direction` towards the target ``nu``, a 0-d array
        (None for the predictor's 0); ``affine`` is the predictor's
        direction for the corrector, or None.  Raises :class:`_Breakdown`
        when the Newton solve stays inaccurate."""
        problem = self.problem
        nu = 0.0 if nu is None else float(nu)
        targets = []
        for r, (g, ginv, lam) in enumerate(self.scaling):
            k, n = lam.shape
            rhs = np.zeros((k, n, n), dtype=np.complex128)
            rhs.reshape(k, -1)[:, :: n + 1] = nu - lam * lam
            if affine is not None:
                scaled_dx = ginv @ affine.dxs[r] @ ginv.conj().mT
                scaled_dz = g.conj().mT @ affine.dzs[r] @ g
                prod = scaled_dx @ scaled_dz
                rhs -= (prod + prod.conj().mT) / 2
            rhs *= 2.0 / (lam[:, :, None] + lam[:, None, :])
            targets.append(g @ rhs @ g.conj().mT)
        t = _flat(targets)
        dy = _refined(self.base, self._operator, rp - problem.apply(t - self.w_rd))
        if dy is None:
            raise _Breakdown(np.ones(1, dtype=bool))
        dz = self.rd - problem.adjoint(dy)
        dzs = problem.stacks(dz)
        raw = [tr - w @ dzr @ w for tr, w, dzr in zip(targets, self.ws, dzs)]
        return _hermitian_direction(raw, dy, dz, dzs)


def solve(problem, start=None):
    """Run the interior-point iteration on a problem with one objective and
    return its :class:`SdpSolution`: :func:`solve_batch` on flat vectors.

    ``start`` is the flat (x, y, z) to start from, with x and z interior;
    None starts from the scaled identity (module docstring).
    """
    if problem.c.ndim != 1:
        raise ValueError("a stack of objectives is solved by solve_batch")
    return solve_batch(problem, start)[0]


def _floats(v):
    """The entries of a 0-d or 1-d array as a list of Python floats."""
    return np.atleast_1d(v).tolist()


def solve_batch(problem, start=None):
    """Run the interior-point iteration on every objective of a problem and
    return one :class:`SdpSolution` per objective, in order.

    The objective is one flat vector, which is solved on flat vectors as a
    single solve, or a (B, N) stack (:meth:`SdpProblem.with_objective`)
    whose iterates carry a leading batch axis.  ``start`` is None or the
    (x, y, z) to start from, with the objective's leading axis, x and z
    interior; None starts each member from its scaled identity (module
    docstring).  The problem supplies its Newton system each iteration
    (``problem.newton_system``): HKM against the assembled Schur matrices
    for an :class:`SdpProblem`, NT through the structured operator for a
    :class:`StructuredProblem`.

    Each member keeps its own step lengths, centring and convergence test,
    and leaves the stack when it converges, fails or reaches
    ``MAX_ITERATIONS``; a member that fails mid-iteration is taken out and
    the iteration repeated for the rest, so the others never see it.  A
    solution holds its last iterate and the gap and iteration count its
    loop evaluated; one stopped by ``MAX_ITERATIONS`` reports the gap of the
    iterate it returns, converged or not.  :func:`verify_solution` checks
    an iterate from scratch.
    """
    ntot = sum(problem.block_dims)
    b, c = problem.b, problem.c
    lead = c.shape[:-1]
    if start is None:
        scale = 1.0 + float(np.abs(b).max(initial=0.0)) + np.abs(c).max(axis=-1, initial=0.0)
        x = scale[..., None] * _flat([np.eye(n, dtype=np.complex128) for n in problem.block_dims])
        y, z = np.zeros(lead + (problem.num_constraints,)), x.copy()
    else:
        x, y, z = start
    solutions = [None] * (lead[0] if lead else 1)
    live = np.arange(len(solutions))
    steps = 0

    def leave(members, status, iterations):
        # record the members' iterates and take them out of the stack
        nonlocal x, y, z, c, live
        rows_x, rows_y = x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])
        for i in np.flatnonzero(members):
            x_i = problem.blocks(rows_x[i].copy())
            solutions[live[i]] = SdpSolution(status, x_i, rows_y[i].copy(), gap[i], iterations)
        if members.all():
            live = live[:0]
        else:
            kept = ~members
            x, y, z, c, live = x[kept], y[kept], z[kept], c[kept], live[kept]

    while len(live):
        # per-member scalars are Python floats: exact float arithmetic per
        # member, and a single solve's bookkeeping stays a few floats
        pobj = _floats(_inner(c, x))
        gap = [abs(p - d) / (1.0 + abs(p)) for p, d in zip(pobj, _floats(np.vecdot(y, b)))]
        if steps == MAX_ITERATIONS:
            leave(np.ones(len(live), dtype=bool), SdpStatus.MAX_ITERATIONS, steps)
            break
        rp = b - problem.apply(x)
        rd = c - problem.adjoint(y) - z
        # the residuals are read only once some member's gap is small
        if min(gap) <= GAP_TOL:
            converged = np.array(gap) <= GAP_TOL
            converged &= np.abs(rp).max(axis=-1, initial=0.0) <= FEAS_TOL
            converged &= np.abs(rd).max(axis=-1, initial=0.0) <= FEAS_TOL
            if converged.any():
                leave(converged, SdpStatus.CONVERGED, steps + 1)
                continue

        try:
            # one Cholesky call per run factors its X and Z blocks together;
            # the factors serve the Newton system and all four step lengths
            xs = problem.stacks(x)
            inv_l = []
            for run in zip(xs, problem.stacks(z)):
                mats = np.concatenate(run, axis=-3)
                factors = _inverse_cholesky(mats)
                if factors is None:
                    members = mats.reshape((-1,) + mats.shape[-3:])
                    raise _Breakdown(np.array([_chol_or_none(member) is None for member in members]))
                inv_l.append(factors)
            inv_lh = [f.conj().mT for f in inv_l]
            system = problem.newton_system(xs, inv_l, rd)
            affine = system.direction(rp, None, None)

            ap, ad = _max_steps(inv_l, affine.dxs, affine.dzs, 1.0, inv_lh)
            mu = _floats(_inner(x, z) / ntot)
            mu_aff = _floats(_inner(x + ap * affine.dx, z + ad * affine.dz) / ntot)
            # the centring target sigma mu, sigma = (mu_aff / mu)^3 in [0, 1]
            nu = [min(1.0, max(0.0, (a / m) ** 3)) * m if m > 0 else 0.0 for a, m in zip(mu_aff, mu)]
            step = system.direction(rp, np.array(nu).reshape(x.shape[:-1]), affine)

            ap, ad = _max_steps(inv_l, step.dxs, step.dzs, 1.0 / STEP_FRACTION, inv_lh, STEP_FRACTION)
        except _Breakdown as failed:
            leave(failed.members, SdpStatus.NUMERICAL_FAILURE, steps + 1)
            continue

        x = x + ap * step.dx
        y = y + ad * step.dy
        z = z + ad * step.dz
        steps += 1

    return solutions


def verify_solution(problem, solution):
    """Recompute feasibility and gap measures from scratch.

    Uses only the problem data and the returned (x, y): primal residual,
    minimum eigenvalues of the primal blocks and of C - sum y_i A_i, and the
    normalized duality gap.  ``z_eig_ranges`` holds the (smallest, largest)
    eigenvalue of each block of C - sum y_i A_i, in block order, for dual
    bounds that weigh each block's negativity separately; ``z_min_eig`` is
    the least of them.  Per run, one ``eigvalsh`` call on the (2k, n, n)
    stack of its X blocks then its slack blocks gives both spectra, in
    ascending order, as in the step lengths.
    """
    x = _flat(solution.x)
    primal_residual = float(np.abs(problem.apply(x) - problem.b).max(initial=0.0))
    slack = problem.c - problem.adjoint(solution.y)
    runs = zip(problem.runs, problem.stacks(x), problem.stacks(slack))
    spectra = [(k, np.linalg.eigvalsh(np.concatenate((xr, zr)))) for (k, _), xr, zr in runs]
    x_min_eig = min(float(lam[:k, 0].min()) for k, lam in spectra)
    z_eig_ranges = [(float(w[0]), float(w[-1])) for k, lam in spectra for w in lam[k:]]
    z_min_eig = min(lo for lo, _ in z_eig_ranges)
    pobj = float(_inner(problem.c, x))
    dobj = float(problem.b @ solution.y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    return {
        "primal_residual": primal_residual,
        "x_min_eig": x_min_eig,
        "z_min_eig": z_min_eig,
        "z_eig_ranges": z_eig_ranges,
        "primal_value": pobj,
        "dual_value": dobj,
        "gap": gap,
    }
