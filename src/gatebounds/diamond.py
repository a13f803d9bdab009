"""Diamond distance between channels, with certificates.

Unitary pairs and Pauli pairs short-circuit to closed forms.  Every other
pair is solved as a semidefinite program over complex Hermitian blocks by
:mod:`gatebounds.sdp`, through one of two encodings ("routes") of the same
value eta = 1/2 ||E - F||_diamond.  :func:`_plan` picks one of three solve
paths per pair, from d and the rank r of the Choi matrix J = J(E - F):
"choi" and "structured" run the Choi route, "fidelity" the fidelity route.

* The *Choi route* (Watrous, "Semidefinite programs for completely bounded
  norms", Theory of Computing 5, 2009):

      maximize   tr(J W)
      subject to 0 <= W <= I_out (x) rho,   rho >= 0,   tr rho = 1,

  with blocks (d^2, d^2, d) and m = d^4 + 1 constraint rows.  Only the
  objective -J depends on the channels.  On the "choi" path, below
  ``STRUCTURED_DIMENSION`` = 4, the constraints are built once per dimension
  as a read-only template (:func:`_template`), an :class:`sdp.SdpProblem`
  that the solver steps with the HKM direction against its assembled
  (d^4 + 1)^2 Schur matrix.  On the "structured" path, from d = 4 on, they
  are a :class:`_ChoiOperator`, an :class:`sdp.StructuredProblem` that
  applies them in O(d^4) and solves the NT Newton system (Nesterov-Todd
  scaling; Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998) through one
  congruence that diagonalizes the W and S scalings, in O(d^6) per solve
  plus an O(d^8) product per iteration, with no Schur matrix.  HKM has no
  such inverse (its operator herm(X Y Z^-1) has four Kronecker terms).  Per
  iteration the structured solve took 2.8 ms against 9.3 ms at d = 4 and
  lost at d = 3, 2.0 against 1.7 ms (medians of six interleaved runs over
  ten random isometry pairs, one BLAS thread), so d = 2 and 3 stay
  assembled.  The "choi" path starts the solver from an analytic point of
  the program that is feasible on both sides and scaled by ||J||_2
  (:func:`_choi_start`), where the solver's default scaled identity is
  infeasible on both.  Over the 343 d = 2 and 3 "choi" solves of one
  reproduction-suite pass, the 96 benchmark audits and 50 forced pairs, it
  took 2649 iterations against 3385, with every solve converged; a pair
  with J = 0 is certified at the start itself.  The "structured" and
  "fidelity" paths keep the default start.
* The *fidelity route* (Kitaev's characterization by the complementary maps,
  as an SDP in Watrous, "Simpler semidefinite programs for completely
  bounded norms", Chicago J. Theoretical Computer Science 2013,
  arXiv:1207.5726).  With J = sum_k lambda_k v_k v_k^dagger, the map is
  X -> sum_k s_k A_k X A_k^dagger for A_k = sqrt|lambda_k| v_k reshaped
  row-major to d x d (the ``Channel.choi`` convention) and s_k = sign
  lambda_k, and

      ||E - F||_diamond = max over states rho, sigma of F(G_A(rho), G_B(sigma)),

  where G_A(rho)_ij = tr(A_i rho A_j^dagger), G_B = S G_A S with
  S = diag(s_k), and F(P, Q) = max Re tr Y subject to [[P, Y], [Y^dagger, Q]]
  >= 0.  Its blocks are (2r, d, d) and it has m = 2 r^2 + 2 rows; the
  constraints depend on the pair, so there is no template.  The "fidelity"
  path solves it with the HKM direction against its assembled Schur matrix.

*Rule.*  Eigenvalues of J at or below the rank cut 2 d^3 eps (d^2 rounding
units of ||J_E||_1 + ||J_F||_1 = 2d, far below any physical eigenvalue) are
dropped from the fidelity route, and r counts the rest.  :func:`_plan` takes
the "fidelity" path at d >= 3 when 0 < r and 2 r^2 + 2 <= 7 d^2: up to r = 5
at d = 3, r = 7 at d = 4, r = 9 at d = 5 and r = 14 at d = 8.  Otherwise it
takes the "structured" path from d = 4 on and the "choi" path below.  The
fidelity route was measured faster in that range (one BLAS thread, random
isometry-channel pairs, the mean of two pairs per rank): against the "choi"
path at d = 3 it ties at r = 6 (74 rows against 82); against the
"structured" path it took 29 against 34 ms at r = 7 and 49 against 33 ms at
r = 8 at d = 4, 47 against 47 ms at r = 8 and 65 against 57 ms at r = 9 at
d = 5, and 373 against 418 ms at r = 14 and 730 against 387 ms at r = 16 at
d = 8.  At d = 2 the two programs (10 or 20 rows against 17) took the same
time, and every d = 2 pair takes the "choi" path.

*Cap.*  :func:`_plan` also counts the complex entries of the largest array
its path would allocate, and a count above ``MAX_ENTRIES`` = 2^25 (512 MiB)
raises ``ValueError`` before anything is built: the (m, 2 (m - 2) + 2 d^2)
constraint matrix on the "fidelity" path, the (d^4 + 1, 2 d^4 + d^2)
template on the "choi" path, and the (d^2, d^2, d^2) stack of the
structured solve, d^6 entries, on the "structured" path.  So every pair up
to d = 17 runs, and so does a low-rank pair of any dimension whose
"fidelity" path fits.

*Certificate.*  Both routes end in one certificate (:func:`_certify`),
derived without tuned margins:

* lower end: a witness state.  The route's input-state block rho, with its
  negative eigenvalues clipped and renormalized, gives Psi = sqrt(rho) (its
  transpose on the fidelity route), and 1/2 ||(I (x) Psi) J (I (x) Psi)^dagger||_1
  on the full, uncut J is the exact value of one input state, the
  purification of rho.
* upper end: weak duality with the trace term of Jansson, Chaykin and Keil
  ("Rigorous error bounds for the optimal value in semidefinite
  programming", SIAM J. Numer. Anal. 46, 2007).  For the returned y and
  Z = C - sum y_i A_i, every feasible X has <C, X> >= b^T y +
  sum_b min(0, lambda_min(Z_b)) t_b, where t_b bounds tr X_b: d for W and
  S together and 1 for rho on the Choi route; 2 lambda_max(sum A_k^dagger
  A_k) for the 2r block and 1 each for rho and sigma on the fidelity route.
  The fidelity route adds 1/2 sum |lambda_dropped| for the terms cut from J
  (each is a map of diamond norm at most |lambda|).
* rounding: every eigenvalue the certificate reads is taken n eps ||M||_2
  towards the safe side, the backward-error bound of a Hermitian
  eigensolver on an n x n matrix M; the few products that form M round at
  order eps ||M|| too.

*Stacks.*  One rule cuts every stack of the module: like members are
grouped and cut, in submission order, into stacks of at most
``STACK_ENTRIES`` = 2^14 complex entries and of at least one member
(:func:`_stacks`).  The SDP pairs of :func:`diamond_distances` are grouped
by path and d.  Only "choi" pairs share constraints, the template of their
dimension, differing only in the objective -J, and only they count their
entries: the (d^4 + 1)(2 d^4 + d^2) of one member's Schur product stack
(the template's size, as :func:`_plan` counts it).  Every other path gets
stacks of one.  A stack of one is one :func:`sdp.solve` on flat vectors; a
larger stack is one :func:`sdp.solve_batch`, which validates the stacked
objectives in one pass and keeps each member's own start, step lengths and
stopping test.  The ascents of :func:`ascent_lower_bounds` are grouped by
d, each pair counting the 4 d^4 entries of its ``ASCENT_STARTS`` output
matrices.  Members per stack:

    d           2     3     4     5     6     7     8
    SDP        26     1     1     1     1     1     1
    ascent    256    50    16     6     3     1     1

A stack is encoded once (:func:`_encodings`): each member's encoding views
its rows of the stack's objectives and start, and equals the pair's own
encoding bit for bit.  Verification and certificate stay per pair, and
every ascent takes its own steps and stopping test, so each result equals
the pair's own run bit for bit at any budget.  SDP stacks of up to 26, 53
and 107 d = 2 pairs ran a reproduction-suite pass in 0.262, 0.255 and
0.231 s, against 0.51-0.67 s pair by pair (medians of 8 passes, one BLAS
thread); a budget of 2^15 (53 pairs) raised the benchmark's paper-check
peak RSS by 6 % over pair-by-pair solves, this one by about 2 %.

*Check.*  The two ends are compared before they are clipped into [0, 1],
and a witness lower end above the dual upper end raises
:class:`sdp.SolverError`.  Each end already carries its own rounding
allowance, so a crossing means a wrong encoding or solve, such as an
encoder that under-reports eta by a wrong scale, sign or row; the clip
would hide it, since an upper end below 0 reads as 0.  The returned value
is the solver's primal value, clipped into the interval.
"""

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import kernels, linalg, metrics, pauli, sdp
from .channels import (
    Channel, checked_channel, checked_integer, checked_items, checked_pair, identity_channel, unitary_channel
)

STRUCTURED_DIMENSION = 4
MAX_ENTRIES = 2**25
STACK_ENTRIES = 2**14
ASCENT_STARTS = 4
ASCENT_STEPS = 30
EPS = float(np.finfo(float).eps)


class DiamondMethod(Enum):
    SDP = "sdp"
    UNITARY_CLOSED_FORM = "unitary_closed_form"
    PAULI_CLOSED_FORM = "pauli_closed_form"


@dataclass(frozen=True, slots=True)
class DiamondResult:
    """A diamond distance value with a certified enclosure.

    ``lower_certificate`` is the exact value of a witness input state and
    ``upper_certificate`` a dual bound; closed forms return a degenerate
    interval.  ``route`` names the SDP encoding ("choi" or "fidelity") and
    is None for closed forms.
    """

    value: float
    lower_certificate: float
    upper_certificate: float
    method: DiamondMethod
    route: "str | None" = None


@dataclass(frozen=True, slots=True)
class SolveRecord:
    """One SDP solve as collected by :func:`recorded_solves`: the pair and
    what its certificate rests on.

    ``checked`` holds the :func:`sdp.verify_solution` figures the
    certificates were computed from.  The problem and the iterate are not
    kept, so a block that holds every record holds no solver data.
    """

    e: Channel
    f: Channel
    checked: dict
    result: DiamondResult


# the record lists of the recorded_solves blocks open in this context
_open_records = contextvars.ContextVar("gatebounds_open_records", default=())


@contextlib.contextmanager
def recorded_solves():
    """Collect a SolveRecord per SDP solve of :func:`diamond_distance` or
    :func:`diamond_distances` made inside the ``with`` block, in the yielded
    list, in the order the pairs were submitted.

    Blocks nest, and a solve reaches every block open around it.  Blocks are
    confined to the current context, so a solve made in another thread is
    not recorded; neither are closed forms.
    """
    records = []
    token = _open_records.set((*_open_records.get(), records))
    try:
        yield records
    finally:
        _open_records.reset(token)


def _exact(value, method):
    v = float(value)
    return DiamondResult(v, v, v, method)


def unitary_diamond_distance(u):
    """Closed-form diamond distance of a unitary channel from the identity.

    With the eigenvalue phases of ``u`` covered by a minimal arc of width
    theta, the distance is sin(theta / 2) for theta < pi and 1 otherwise.
    The minimal covering arc is 2 pi minus the largest gap between adjacent
    sorted phases.  ``u`` enters through :func:`channels.unitary_channel`,
    tested and normalized where every unitary is:
    ``diamond_distance(unitary_channel(u))``.
    """
    return diamond_distance(unitary_channel(u))


def _arc_distance(phases):
    """The unitary closed form from ascending eigenphases in [-pi, pi]."""
    gaps = np.diff(phases)
    wrap = 2.0 * np.pi - (phases[-1] - phases[0])
    largest = max(float(gaps.max(initial=0.0)), float(wrap))
    arc = 2.0 * np.pi - largest
    if arc >= np.pi:
        return _exact(1.0, DiamondMethod.UNITARY_CLOSED_FORM)
    return _exact(math.sin(arc / 2.0), DiamondMethod.UNITARY_CLOSED_FORM)


@functools.cache
def _template(d):
    """The Choi route's constraints for dimension d, with a zero objective.

    Complex Hermitian blocks of sizes (d^2, d^2, d): W, the slack
    S = I (x) rho - W, and rho.  Row i of the constraint matrix is the
    :class:`_ChoiOperator` adjoint of the unit vector e_i, all rows in one
    batched call: (F_i, F_i, -Tr_1 F_i) with rhs 0 for each F_i of the
    orthonormal Hermitian basis of the d^2 x d^2 matrices (:func:`_matrices`),
    which expands the linking constraint W + S = I (x) rho, and (0, 0, I_d)
    with rhs 1, which fixes tr rho.  So the assembled and the structured
    Choi route share one definition of the constraints.

    The operator's flat objective, rows and rhs pass to
    :class:`sdp.SdpProblem` as they are; this is the one
    :class:`_ChoiOperator` the "choi" path builds per dimension.  Only the
    objective depends on the channels, so the "choi" path
    (:func:`_encodings`) puts every stack's objectives onto the template of
    its dimension, d = 2 or 3, kept for the life of the process; its
    read-only constraint matrix has m = d^4 + 1 rows and 2 d^4 + d^2 complex
    columns, about 10 KB at d = 2 and 0.2 MB at d = 3.
    """
    op = _ChoiOperator(np.zeros((d * d, d * d)), d)
    return sdp.SdpProblem(op.block_dims, op.c, op.adjoint(np.eye(op.num_constraints)), op.b)


@functools.cache
def _coordinates(n):
    """Float64-view positions and weights for the coordinates of an n x n
    matrix in the orthonormal Hermitian basis F_i of the n x n matrices.

    In order, for p = 0, ..., n - 1: the diagonal unit E_pp, then for each
    q > p the real pair (E_pq + E_qp) / sqrt 2 and the imaginary pair
    i (E_pq - E_qp) / sqrt 2.  ``upper`` and ``lower`` are the positions of
    F_i's entry at (p, q) and at (q, p) in the matrix's float64 view
    (p = q for a diagonal unit), ``sign`` is -1 for imaginary parts,
    ``half`` weighs the coordinate Re tr(F_i M) = half (M[upper] + sign
    M[lower]) and ``unit`` is the entry of F_i at (p, q).
    """
    root = 1.0 / np.sqrt(2.0)
    upper, lower, sign, unit = [], [], [], []
    for p in range(n):
        upper.append(2 * (p * n + p))
        lower.append(2 * (p * n + p))
        sign.append(1.0)
        unit.append(1.0)
        for q in range(p + 1, n):
            for part, part_sign in ((0, 1.0), (1, -1.0)):
                upper.append(2 * (p * n + q) + part)
                lower.append(2 * (q * n + p) + part)
                sign.append(part_sign)
                unit.append(root)
    unit = np.array(unit)
    arrays = (np.array(upper), np.array(lower), np.array(sign), np.where(unit == 1.0, 0.5, root), unit)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _matrices(coords, n):
    """The Hermitian n x n matrices sum_i coords[..., i] F_i of the basis of
    :func:`_coordinates`, one per leading index of ``coords``, so that
    ``_matrices(np.eye(n * n), n)`` is the basis itself."""
    upper, lower, sign, _, unit = _coordinates(n)
    lead = coords.shape[:-1]
    mats = np.zeros((*lead, n, n), dtype=np.complex128)
    view = mats.view(np.float64).reshape(*lead, 2 * n * n)
    view[..., lower] = sign * unit * coords
    view[..., upper] = unit * coords
    return mats


def _objectives(js, d):
    """The Choi route's flat objective for each Choi difference J of a
    (..., d^2, d^2) stack: -J (its Hermitian part) on the W block and zero
    on S and rho, so that the optimum is -eta."""
    n = d * d
    lead = js.shape[:-2]
    c = np.zeros((*lead, 2 * n * n + d * d), dtype=np.complex128)
    c[..., : n * n] = (-0.5 * (js + js.conj().mT)).reshape(*lead, n * n)
    return c


class _ChoiOperator(sdp.StructuredProblem):
    """The Choi route's SDP with its constraint operator in structured form.

    Blocks (W, S, rho), and the one definition of the Choi route's rows and
    rhs, applied without a constraint matrix: ``apply`` is
    (coords(X_W + X_S - I (x) X_rho), tr X_rho) and ``adjoint`` is (U, U,
    -Tr_1 U + y_last I) with U the Hermitian matrix of coordinates y
    (:func:`_matrices`), both O(d^4).  :func:`_template` assembles the same
    rows as a matrix from one batched ``adjoint``.  The objective is that of
    :func:`_objectives`, which also builds the "choi" path's stacks, so
    that path builds no operator per pair.

    Its NT Newton matrix A(W A*(.) W) is L(U) = W_W U W_W + W_S U W_S on
    the W/S part plus the rho coupling I (x) W_rho (Tr_1 U) W_rho.
    :meth:`nt_solver` inverts L in O(d^6) by one congruence T that
    diagonalizes both scalings, W_W = T diag(g_W) T^H and
    W_S = T diag(g_S) T^H: the Cholesky factor of W_W + W_S, then ``eigh``,
    with both g read from their blocks in T's frame.  (Built on the factor
    of W_W alone, every one of 18 two-qubit test solves stopped as a
    numerical failure within four iterations.)  In that
    frame L is the entrywise product with g_W,i g_W,j + g_S,i g_S,j.
    Eliminating U leaves a (d^2 + 1) system in the rho block's direction V
    and the trace multiplier.  V is written in the basis of W_rho's
    Cholesky factor, where the W_rho^-1 V W_rho^-1 term is the identity: in
    the plain basis, near an optimum whose rho is rank-deficient, the
    errors of that system grew to the size of the solution.  The largest
    array is the (d^2, d^2, d^2) stack of T^-1 (I (x) E_pq) T^-H in that
    basis; peak memory is a few times its d^6 entries.
    """

    def __init__(self, j_delta, d):
        n = d * d
        super().__init__((n, n, d))
        self.d = d
        self.b = np.zeros(n * n + 1)
        self.b[-1] = 1.0
        self.b.flags.writeable = False
        self.c = _objectives(j_delta, d)
        self.c.flags.writeable = False

    def _coordinates_of(self, mat):
        upper, lower, sign, half, _ = _coordinates(self.block_dims[0])
        view = mat.view(np.float64).ravel()
        return half * (view[upper] + sign * view[lower])

    def apply(self, x):
        d = self.d
        w, s, rho = self.blocks(x)
        link = w + s
        diag = np.arange(d)
        link.reshape(d, d, d, d)[diag, :, diag, :] -= rho
        return np.append(self._coordinates_of(link), np.trace(rho).real)

    def adjoint(self, y):
        """sum_i y_i A_i as a flat vector, or one row per leading index of y."""
        d = self.d
        lead = y.shape[:-1]
        u = _matrices(y[..., :-1], d * d)
        tr_1 = np.trace(u.reshape(*lead, d, d, d, d), axis1=-4, axis2=-2)
        rho = y[..., -1, None, None] * np.eye(d) - tr_1
        u = u.reshape(*lead, -1)
        return np.concatenate((u, u, rho.reshape(*lead, -1)), axis=-1)

    def nt_solver(self, ws):
        """A solve of A(W A*(y) W) = h for the scaling blocks ``ws``, or None
        when W_W + W_S or W_rho is not numerically positive definite."""
        d = self.d
        n = d * d
        w_w, w_s, w_r = ws
        try:
            lower = np.linalg.cholesky(w_w + w_s)
            g_r = np.linalg.cholesky(w_r)
        except np.linalg.LinAlgError:
            return None
        l_inv = np.linalg.inv(lower)
        _, q = np.linalg.eigh(l_inv @ w_w @ l_inv.conj().T)
        t_inv = q.conj().T @ l_inv
        g_w = np.einsum("ij,ij->i", t_inv @ w_w, t_inv.conj()).real
        g_s = np.einsum("ij,ij->i", t_inv @ w_s, t_inv.conj()).real
        weights = (np.outer(g_w, g_w) + np.outer(g_s, g_s)).ravel()
        # V = G_rho V' G_rho^H with W_rho = G_rho G_rho^H turns W_rho^-1 V
        # W_rho^-1 into V' itself.  units[p d + q] = T^-1 (I (x) G_rho E_pq
        # G_rho^H) T^-H, flat: a sum over the first factor a of the columns
        # (a, p) and (a, q) of T^-1 (I (x) G_rho)
        cols = (t_inv.reshape(n, d, d) @ g_r).transpose(2, 0, 1).reshape(d * n, d)
        units = (cols @ cols.conj().T).reshape(d, n, d, n).transpose(0, 2, 1, 3).reshape(n, n * n)
        # sum_ij conj(units[a]) units[b] / weights, conjugated in place so
        # that no second conjugate copy of the stack is made
        scaled = np.divide(units, weights)
        np.conj(scaled, out=scaled)
        bordered = np.empty((n + 1, n + 1), dtype=np.complex128)
        bordered[:n, :n] = np.conj(units @ scaled.T)
        bordered[:n, :n].flat[:: n + 1] += 1.0
        gram = (g_r.conj().T @ g_r).ravel()
        bordered[:n, n] = -gram
        bordered[n, :n] = gram.conj()
        bordered[n, n] = 0.0

        def solve(h):
            framed = (t_inv @ _matrices(h[:-1], n) @ t_inv.conj().T).ravel()
            rhs = np.append(-np.conj(units @ np.conj(framed / weights)), h[-1])
            v = np.linalg.solve(bordered, rhs)
            u = ((framed + v[:n] @ units) / weights).reshape(n, n)
            u = t_inv.conj().T @ u @ t_inv
            return np.append(self._coordinates_of(u), v[n].real)

        return solve


def _rank_cut(d):
    """Eigenvalues of J(E - F) at or below this are dropped by the fidelity
    route: d^2 rounding units of ||J_E||_1 + ||J_F||_1 = 2d."""
    return 2.0 * d**3 * EPS


def _encode_fidelity(ops, signs):
    """The fidelity route's SDP for the map X -> sum_k s_k A_k X A_k^dagger.

    Blocks (2r, d, d): X = [[P, Y], [Y^dagger, Q]], rho and sigma; the
    objective is -1/2 [[0, I], [I, 0]], so the optimum is -||map||_diamond.
    For each F_i of an orthonormal Hermitian basis of the r x r matrices,
    one row with rhs 0 ties P to G_A(rho) and one ties Q to G_B(sigma):
    <F_i, P> - <G_A*(F_i), rho> and <F_i, Q> - <G_A*(S F_i S), sigma>, with
    G_A*(F) = sum_ij F_ji A_j^dagger A_i.  Two more rows fix tr rho = 1 and
    tr sigma = 1, so m = 2 r^2 + 2.

    The rows are written into the (m, 2r, 2r), (m, d, d) and (m, d, d) block
    views of one zeroed (m, N) matrix, which :class:`sdp.SdpProblem` takes as
    it is.
    """
    r, d = len(ops), ops.shape[1]
    nb = r * r
    basis = _matrices(np.eye(nb), r)
    # prods[j, i] = A_j^dagger A_i, and G_A*(F) is one contraction with F^T
    prods = np.einsum("jba,ibc->jiac", ops.conj(), ops).reshape(nb, d * d)
    flipped = basis * np.outer(signs, signs)
    layout = sdp.BlockLayout((2 * r, d, d))
    m = 2 * nb + 2
    a = np.zeros((m, layout.size), dtype=np.complex128)
    joint, rho, sigma = layout.blocks(a)
    joint[:nb, :r, :r] = basis
    joint[nb : 2 * nb, r:, r:] = basis
    rho[:nb] = -(basis.reshape(nb, nb) @ prods).reshape(nb, d, d)
    rho[-2] = np.eye(d)
    sigma[nb : 2 * nb] = -(flipped.reshape(nb, nb) @ prods).reshape(nb, d, d)
    sigma[-1] = np.eye(d)
    c = np.zeros(layout.size, dtype=np.complex128)
    swap = layout.blocks(c)[0]
    swap[:r, r:] = swap[r:, :r] = -0.5 * np.eye(r)
    rhs = np.zeros(m)
    rhs[-2:] = 1.0
    return sdp.SdpProblem(layout.block_dims, c, a, rhs)


class _Encoding(NamedTuple):
    """One path's SDP for one pair, with its route and what its certificate
    reads.

    At the optimum, eta = -``scale`` <C, X> up to ``dropped`` (half the
    summed |eigenvalues| cut from J).  ``trace_bounds`` pairs block indices
    with a bound on their total trace over the feasible set.  ``witness``
    is the index of the input-state block rho, and ``transpose`` takes the
    witness from rho^T.  ``start`` is the pair's (x, y, z) start, its rows
    of the start of a stack, or None for the solver's default.
    """

    route: str
    problem: "sdp.SdpProblem"
    scale: float
    trace_bounds: tuple
    witness: int
    transpose: bool
    dropped: float = 0.0
    start: "tuple | None" = None


def _signed_operators(j_delta, d):
    """The minimal signed operators of J(E - F) under the rank cut.

    With J = sum_k lambda_k v_k v_k^dagger, returns the operators
    A_k = sqrt|lambda_k| v_k reshaped row-major to d x d for the eigenvalues
    above :func:`_rank_cut`, their signs s_k, and ``dropped``: half a bound
    on ||J - J_kept||_1, which bounds how far 1/2 ||(map x id)(X)||_1 can
    move on a state X when the map is read through the kept terms only.
    """
    lam, vecs = np.linalg.eigh(j_delta)
    keep = np.abs(lam) > _rank_cut(d)
    # the eigensolver's backward error, n eps ||J||_2 per eigenvalue, joins
    # the cut terms: ||J - J_kept||_1 <= sum |lambda_dropped| + n^2 eps ||J||_2
    n = d * d
    cut_norm = float(np.abs(lam[~keep]).sum()) + n * n * EPS * float(np.abs(lam).max(initial=0.0))
    lam = lam[keep]
    ops = np.sqrt(np.abs(lam))[:, None, None] * vecs[:, keep].T.reshape(-1, d, d)
    return ops, np.sign(lam), 0.5 * cut_norm


def _encodings(js, d, path):
    """The SDP of a stack of Choi differences ``js`` at dimension d on
    ``path`` (:func:`_plan`), in minimization form: the problem to solve,
    its (x, y, z) start (None for the solver's default) and one
    :class:`_Encoding` per pair.

    A stack of one is a problem on flat vectors, and only a "choi" stack
    holds more (module docstring, *Stacks*).  Both Choi paths share the one
    definition of the Choi route's objective, :func:`_objectives`, and
    report the route "choi".  The "structured" path solves a
    :class:`_ChoiOperator` itself.  The "choi" path puts the objectives, one
    flat vector or a (B, N) stack, onto the constraints of :func:`_template`
    (shared, not copied) and starts them in one pass (:func:`_choi_start`);
    each pair's encoding views its row of the objectives and of the start.
    """
    if path == "fidelity":
        ops, signs, dropped = _signed_operators(js[0], d)
        gram_max = float(np.linalg.eigvalsh(np.einsum("kba,kbc->ac", ops.conj(), ops))[-1])
        problem = _encode_fidelity(ops, signs)
        trace_bounds = (((0,), 2.0 * gram_max), ((1,), 1.0), ((2,), 1.0))
        return problem, None, [_Encoding("fidelity", problem, 0.5, trace_bounds, 1, True, dropped)]
    if path == "structured":
        problem, start = _ChoiOperator(js[0], d), None
        members = [(problem, None)]
    else:
        c = _objectives(np.stack(js), d)
        problem = _template(d).with_objective(c if len(js) > 1 else c[0])
        start = _choi_start(problem, d)
        members = zip(problem.members(), zip(*(part.reshape(len(js), -1) for part in start)))
    trace_bounds = (((0, 1), float(d)), ((2,), 1.0))
    encodings = [_Encoding("choi", member, 1.0, trace_bounds, 2, False, start=row) for member, row in members]
    return problem, start, encodings


def _encoding(j_delta, d, path):
    """The :class:`_Encoding` of one Choi difference: the one-pair call of
    :func:`_encodings`."""
    return _encodings([j_delta], d, path)[2][0]


def _choi_start(problem, d):
    """A strictly feasible primal-dual start (x, y, z) for the Choi program
    ``problem`` at dimension d, the constraints of :func:`_template` with one
    flat objective or a (B, N) stack of them: one row of each of x, y and z
    per objective.

    Primal: rho = I/d and W = S = (I (x) rho)/2.  Then W + S = I (x) rho and
    tr rho = 1 hold exactly, and all three blocks are positive definite.

    Dual: y sets U = -kappa I on the W/S coordinates and y_last = -d kappa
    - beta.  The adjoint is (U, U, -Tr_1 U + y_last I), so the slack
    Z = C - A*(y) has the blocks kappa I - J_h on W (J_h the Hermitian part
    of J, the objective being -J_h), kappa I on S, and d kappa I + y_last I
    = beta I on rho.  With s = ||J_h||_2, kappa = 1.5 s and beta = s/2, Z is
    positive definite: its W block has eigenvalues in [s/2, 5s/2].

    Centrality: with tr J_h = 0 (both channels trace preserving), <X, Z> =
    d kappa + beta, so mu = s (3d + 1) / (2d (2d + 1)), 0.35 s at d = 2 and
    0.24 s at d = 3.  The products X_b Z_b have eigenvalues in
    (s/2d) [1/2, 5/2] on W, 3s/4d on S and s/2d on rho, all between mu/3
    and 2 mu at every d.

    s is floored at the rank cut (:func:`_rank_cut`), so J = 0 keeps Z
    positive definite.  Such a start already meets the convergence test:
    its duality gap is d kappa + beta = (1.5 d + 0.5) 2 d^3 eps, 1.2e-14 at
    d = 2.

    One pass for a whole stack: one batched ``eigvalsh`` of the W blocks
    gives every s, and -kappa is written at the diagonal-unit coordinates
    of :func:`_coordinates`, the only nonzero coordinates of -kappa I.  z is
    computed as C - A*(y) through the problem's own adjoint, so the dual
    residual of the start is exactly zero.
    """
    n = d * d
    s = np.maximum(np.abs(np.linalg.eigvalsh(problem.blocks(problem.c)[0])).max(axis=-1), _rank_cut(d))
    kappa, beta = 1.5 * s, 0.5 * s
    x = np.zeros(problem.c.shape, dtype=np.complex128)
    w, slack, rho = problem.blocks(x)
    rho[...] = np.eye(d) / d
    # (I (x) rho)/2 = I/(2d)
    w[...] = slack[...] = np.eye(n) / (2 * d)
    y = np.zeros((*problem.c.shape[:-1], problem.num_constraints))
    y[..., np.flatnonzero(_coordinates(n)[4] == 1.0)] = -kappa[..., None]
    y[..., -1] = -d * kappa - beta
    return x, y, problem.c - problem.adjoint(y)


def _rank(j_delta, d):
    """The number of eigenvalues of J(E - F) above :func:`_rank_cut`, for
    each J of a (..., d^2, d^2) stack."""
    return np.count_nonzero(np.abs(np.linalg.eigvalsh(j_delta)) > _rank_cut(d), axis=-1)


def _plan(j_delta, d):
    """The solve path for J(E - F) and the complex entries of the largest
    array a solve on it allocates (module docstring, *Rule* and *Cap*).

    "fidelity" at d >= 3 where its 2 r^2 + 2 rows are at most 7 d^2, with
    its constraint matrix; otherwise the Choi program, "structured" from
    d = ``STRUCTURED_DIMENSION`` on with its (d^2, d^2, d^2) stack and
    "choi" below with its assembled constraint matrix.
    """
    r = int(_rank(j_delta, d))
    m = 2 * r * r + 2
    if d > 2 and 0 < r and m <= 7 * d * d:
        return "fidelity", m * (2 * (m - 2) + 2 * d * d)
    if d >= STRUCTURED_DIMENSION:
        return "structured", d**6
    return "choi", (d**4 + 1) * (2 * d**4 + d * d)


def _outputs(j_delta, d, psi):
    """(I (x) Psi) J (I (x) Psi)^dagger for each d x d Psi of a (..., d, d)
    stack: the output of E - F on the pure input state vec(Psi).  J is one
    d^2 x d^2 matrix, or a stack whose leading axes broadcast against Psi's.

    Without the Kronecker product: rows (a, c) and columns (x, z) of
    sum_by Psi[c, b] J[(a, b), (x, y)] conj Psi[z, y].
    """
    n = d * d
    lead = psi.shape[:-2]
    psi = psi[..., None, :, :]
    half = (psi @ j_delta.reshape(*j_delta.shape[:-2], d, d, n)).reshape(*lead, n, d, d)
    return (half @ psi.conj().mT).reshape(*lead, n, n)


def _output_value(lam, n):
    """Half the trace norm of each n x n output with eigenvalues ``lam``
    (last axis), less the eigensolver's rounding allowance n^2 eps ||M||_2:
    a lower bound on eta when the output is that of one input state."""
    mags = np.abs(lam)
    return 0.5 * (mags.sum(axis=-1) - n * n * EPS * mags.max(axis=-1))


def _witness_value(j_delta, d, rho, transpose):
    """Half the output trace norm of the purification of rho (clipped to a
    state), less its eigenvalue rounding allowance: a lower bound on eta."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    psi = (v * np.sqrt(w / w.sum())) @ v.conj().T
    if transpose:
        psi = psi.T
    return float(_output_value(np.linalg.eigvalsh(_outputs(j_delta, d, psi)), d * d))


def _certify(encoding, solution, checked, j_delta, d, path):
    """The certified interval of a converged solve on ``path``, as a
    DiamondResult; a crossed interval raises :class:`sdp.SolverError`."""
    lower = _witness_value(j_delta, d, solution.x[encoding.witness], encoding.transpose)
    # lambda_min of each dual slack block, less its rounding allowance
    least = [
        lo - n * EPS * max(abs(lo), abs(hi))
        for n, (lo, hi) in zip(encoding.problem.block_dims, checked["z_eig_ranges"])
    ]
    bound = checked["dual_value"]
    for blocks, trace in encoding.trace_bounds:
        bound += min(0.0, *(least[b] for b in blocks)) * trace
    upper = -encoding.scale * bound + encoding.dropped
    if lower > upper:
        raise sdp.SolverError(
            f"diamond SDP ({path} path) certified a crossed interval: witness lower end "
            f"{lower!r} above dual upper end {upper!r}"
        )
    lower = min(1.0, max(0.0, lower))
    upper = min(1.0, max(0.0, upper))
    value = min(upper, max(lower, -encoding.scale * checked["primal_value"]))
    return DiamondResult(value, lower, upper, DiamondMethod.SDP, encoding.route)


def _stacks(members, entries):
    """``members`` cut in order into stacks of at most ``STACK_ENTRIES``
    complex entries, at ``entries`` per member, and of at least one member
    each (module docstring, *Stacks*)."""
    size = max(1, STACK_ENTRIES // entries)
    return [members[k : k + size] for k in range(0, len(members), size)]


def _solve(js, d, path):
    """Encode, solve, verify and certify a stack of Choi differences ``js``
    at dimension d on ``path``.

    The stack is encoded once (:func:`_encodings`).  A stack of one is one
    :func:`sdp.solve` on flat vectors.  A larger stack, on the "choi" path
    only, is one :func:`sdp.solve_batch` over its stacked objectives, each
    member from its own start.  Returns per member its encoding, solution,
    verification figures and DiamondResult, or the :class:`sdp.SolverError`
    of an unconverged solve or a crossed interval.
    """
    problem, start, encodings = _encodings(js, d, path)
    solutions = [sdp.solve(problem, start)] if len(js) == 1 else sdp.solve_batch(problem, start)
    out = []
    for j_delta, encoding, solution in zip(js, encodings, solutions):
        try:
            if solution.status is not sdp.SdpStatus.CONVERGED:
                raise sdp.SolverError(
                    f"diamond SDP ({path} path) stopped unconverged ({solution.status.value}) after "
                    f"{solution.iterations} iterations (gap {solution.gap:.3e})"
                )
            checked = sdp.verify_solution(encoding.problem, solution)
            out.append((encoding, solution, checked, _certify(encoding, solution, checked, j_delta, d, path)))
        except sdp.SolverError as exc:
            out.append(exc)
    return out


def _pairs(pairs):
    """The channel pairs (e, f) of ``pairs`` as a list, f None read as the
    identity: ``pairs`` passes :func:`channels.checked_items` and each
    ``pairs[k]`` :func:`channels.checked_pair`, and e and f must be channels
    (:func:`channels.checked_channel`) of one dimension."""
    out = []
    for k, pair in enumerate(checked_items(pairs, "pairs")):
        e, f = checked_pair(pair, f"pairs[{k}]")
        f = identity_channel(checked_channel(e, "e").dim) if f is None else checked_channel(f, "f")
        if e.dim != f.dim:
            raise ValueError("channels differ in dimension")
        out.append((e, f))
    return out


def _closed_form(e, f):
    """The closed-form DiamondResult of a pair, or None when neither the
    unitary nor the Pauli form applies."""
    # a channel with one Kraus operator is unitary: Channel's test of one
    # operator is channels._entered_unitary's, both within linalg.TOLERANCE,
    # and the package derives such channels only from unitaries, so
    # U_f^dagger U_e is not re-tested (unitary_eigenphases tests no unitarity)
    if len(e.kraus) == len(f.kraus) == 1:
        return _arc_distance(linalg.unitary_eigenphases(f.kraus[0].conj().T @ e.kraus[0]))
    try:
        pe = pauli.as_pauli_channel(e).probs
        pf = pauli.as_pauli_channel(f).probs
    except ValueError:
        return None
    return _exact(metrics.total_variation_distance(pe, pf), DiamondMethod.PAULI_CLOSED_FORM)


def diamond_distance(e, f=None, method="auto"):
    """Diamond distance between two channels (second defaults to identity).

    ``method`` is "auto" (closed form when one applies, SDP otherwise) or
    "sdp" to force the solver, which cross-checks use.  The SDP's path is
    picked from d and the rank of J(E - F), and a path whose largest array
    has more than ``MAX_ENTRIES`` entries raises ``ValueError`` (module
    docstring).  A solve that does not converge, or whose certified
    interval crosses (module docstring, *Check*), raises
    :class:`sdp.SolverError`.  The one-pair call of
    :func:`diamond_distances`.
    """
    return diamond_distances([(e, f)], method)[0]


def diamond_distances(pairs, method="auto"):
    """Diamond distances of channel pairs (e, f), f None for the identity:
    one DiamondResult per pair, in order, each the one
    :func:`diamond_distance` returns for the pair alone.

    Three passes.  Every pair is checked and planned: a closed form, or its
    path, d and entries, with the errors of :func:`diamond_distance`.  The
    SDP pairs are cut into stacks (module docstring, *Stacks*), and every
    stack is solved, each pair verified and certified by itself.  Then the
    pairs are walked in submission order: each SDP pair reaches the open
    :func:`recorded_solves` blocks, and a pair whose solve did not converge
    or whose interval crossed raises its own :class:`sdp.SolverError` once
    the pairs before it are recorded.  The pairs after a failing one are
    solved before its error is raised: that costs their time, and no
    result.
    """
    if method not in ("auto", "sdp"):
        raise ValueError(f"unknown method {method!r}")
    pairs = _pairs(pairs)
    closed, groups = [], {}
    for i, (e, f) in enumerate(pairs):
        closed.append(_closed_form(e, f) if method == "auto" else None)
        if closed[i] is None:
            j_delta = e.choi - f.choi
            path, entries = _plan(j_delta, e.dim)
            if entries > MAX_ENTRIES:
                raise ValueError(
                    f"dimension {e.dim} diamond SDP on the {path} path needs an array of {entries} "
                    f"entries, above the cap of {MAX_ENTRIES}"
                )
            groups.setdefault((path, e.dim, entries), []).append((i, j_delta))
    solved = {}
    for (path, d, entries), members in groups.items():
        # only "choi" pairs share constraints, so only they stack
        for stack in _stacks(members, entries if path == "choi" else STACK_ENTRIES):
            index, js = zip(*stack)
            for i, got in zip(index, _solve(js, d, path)):
                # the figures and result only: an encoding holds its constraints
                solved[i] = got if isinstance(got, sdp.SolverError) else got[2:]
    out, blocks = [], _open_records.get()
    for i, ((e, f), result) in enumerate(zip(pairs, closed)):
        if result is None:
            if isinstance(solved[i], sdp.SolverError):
                raise solved[i]
            checked, result = solved[i]
            if blocks:
                record = SolveRecord(e, f, checked, result)
                for records in blocks:
                    records.append(record)
        out.append(result)
    return out


def pauli_distance(c):
    """Diamond distance between a channel and its Pauli twirl; ``c`` must be
    a :class:`Channel` (:func:`channels.checked_channel`)."""
    return diamond_distance(c, pauli.pauli_twirl(checked_channel(c, "c")))


def brute_force_lower_bound(e, f=None, samples=2000, seed=0):
    """Sampled lower bound on the diamond distance.

    Maximizes half the output trace norm over Haar-random pure states of the
    doubled space (system plus same-size ancilla), reading E - F through the
    minimal signed operators of J(E - F) (:func:`_signed_operators`, the
    fidelity route's rank cut), so the scan works at the rank of J.  The
    cut allowance ``dropped`` is subtracted and the result clipped at 0, so
    it is at most the true distance up to the eigensolver's rounding of the
    sampled outputs; a pair whose J keeps no term gives 0.0.  A useful
    independent check on the SDP.  ``samples`` is an integer of at least 1
    and ``seed`` one of at least 0; an integer-valued float is an integer
    (:func:`channels.checked_integer`).
    """
    ((e, f),) = _pairs([(e, f)])
    samples = checked_integer(samples, "samples", 1)
    d = e.dim
    psis = _haar_states(checked_integer(seed, "seed", 0), samples, d * d)
    ops, signs, dropped = _signed_operators(e.choi - f.choi, d)
    if not len(ops):
        return 0.0
    scan = kernels.pair_scan_kernel(ops[signs > 0], ops[signs < 0], psis)
    return max(0.0, scan - dropped)


def _haar_states(seed, count, n):
    """``count`` Haar-random unit vectors of C^n as rows, from
    ``default_rng(seed)``: the one seeded draw of the input-state scans
    (:func:`brute_force_lower_bound`, :func:`_ascent`)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def ascent_lower_bound(e, f=None, seed=0):
    """Lower bound on the diamond distance by a monotone ascent over input
    states (second channel defaults to identity), from the starts of
    ``default_rng(seed)``: ``ascent_lower_bounds([(e, f)], [seed])[0]``
    (:func:`ascent_lower_bounds`)."""
    return ascent_lower_bounds([(e, f)], [seed])[0]


def ascent_lower_bounds(pairs, seeds):
    """Lower bounds on the diamond distances of channel pairs (e, f), f None
    for the identity, by a monotone ascent over input states: one float per
    pair, in order, pair i drawing its starts from ``default_rng(seeds[i])``.

    The alternating maximization of Re tr(U (E - F (x) id)(psi psi^dagger))
    over a Hermitian contraction U and a unit vector psi of the doubled
    space, from ``ASCENT_STARTS`` seeded Haar-random starts per pair; it
    rests on ||X||_1 = max_U |tr(U X)| and follows the iterative method of
    Johnston, Kribs and Paulsen (arXiv:0711.3636).  With Psi = psi
    reshaped to d x d and M(psi) = (I (x) Psi) J (I (x) Psi)^dagger on the
    full Choi matrix J = J(E - F), one step takes U = V sign(Lambda)
    V^dagger from the eigendecomposition of M(psi) and replaces psi by the
    top eigenvector of Q(U), the Hermitian matrix with psi^dagger Q(U) psi
    = tr(U M(psi)).  Since 1/2 ||M(psi_k)||_1 = 1/2 psi_k^dagger Q(U_k)
    psi_k <= 1/2 lambda_max(Q(U_k)) = 1/2 tr(U_k M(psi_k+1)) <=
    1/2 ||M(psi_k+1)||_1, no step lowers a start's value.

    Each pair stops on its own test: after ``ASCENT_STEPS`` steps, or once
    its best value over its starts rises by at most 1e-14 relative.  Its
    bound is the largest 1/2 ||M(psi)||_1 it saw, less its eigenvalue
    rounding allowance n^2 eps ||M||_2 (as the witness certificate),
    clipped at 0: each value is the exact output of one explicit state, so
    no rank cut enters.  A pair whose J has no eigenvalue above the rank
    cut is rounding only and gives 0.0 without an ascent.  A sharper
    independent check on the SDP than :func:`brute_force_lower_bound`, at
    a few eigensolves per step.

    *Stacks.*  The pairs are grouped by d and cut into stacks by the
    module's one rule (module docstring, *Stacks*: 256 pairs at d = 2, 50
    at d = 3, 16 at d = 4).  Each stack steps all its pairs' starts through
    one set of batched ``eigh`` and matmul calls, and a pair leaves its
    stack once its own test holds.  numpy runs LAPACK and BLAS on each
    matrix of a stack by itself, so every bound equals the pair's own run
    bit for bit, at any stack size.  On the 116 solves of one
    reproduction-suite pass (113 at d = 2), stacks of 32 took 0.089 s
    against 0.186 s pair by pair (best of 7 and of 5 calls, one BLAS
    thread); one stack of all 113 d = 2 pairs ran as fast, and read the
    benchmark's paper-check peak RSS 0.6 % above stacks of 32 (43.51-43.54
    against 43.16-43.28 MB over four alternating runs).  ``seeds`` is a
    collection (:func:`channels.checked_items`) of one integer of at least
    0 per pair; an integer-valued float is an integer
    (:func:`channels.checked_integer`).
    """
    pairs, seeds = _pairs(pairs), checked_items(seeds, "seeds")
    if len(pairs) != len(seeds):
        raise ValueError(f"pairs and seeds differ in length: {len(pairs)} against {len(seeds)}")
    groups = {}
    for i, ((e, f), seed) in enumerate(zip(pairs, seeds)):
        groups.setdefault(e.dim, []).append((i, e.choi - f.choi, checked_integer(seed, "seed", 0)))
    lower = [0.0] * len(pairs)
    for d, members in groups.items():
        index, js, group_seeds = zip(*members)
        js = np.stack(js)
        working = np.flatnonzero(_rank(js, d))
        for stack in _stacks(working, ASCENT_STARTS * d**4):
            for t, value in zip(stack, _ascent(js[stack], d, [group_seeds[t] for t in stack])):
                lower[index[t]] = value
    return lower


def _ascent(js, d, seeds):
    """The ascent bounds of one stack of :func:`ascent_lower_bounds`: the
    (p, d^2, d^2) Choi differences ``js`` at dimension d and their seeds."""
    n = d * d
    starts = ASCENT_STARTS
    psi = np.stack([_haar_states(seed, starts, n) for seed in seeds]).reshape(-1, starts, d, d)
    # Q(U)[(z, y), (c, b)] = sum_ax U[(x, z), (a, c)] J[(a, b), (x, y)] is one
    # product of U with rows (z, c), columns (x, a) and J with rows (x, a),
    # columns (y, b); J and J_xa keep a unit axis to broadcast over the starts
    js = js[:, None]
    j_xa = js.reshape(-1, 1, d, d, d, d).transpose(0, 1, 4, 2, 5, 3).reshape(-1, 1, n, n)
    lam, vecs = np.linalg.eigh(_outputs(js, d, psi))
    best = _output_value(lam, n).max(axis=-1)
    live = np.arange(len(best))
    for _ in range(ASCENT_STEPS):
        u = (vecs * np.sign(lam)[..., None, :]) @ vecs.conj().mT
        u = u.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(-1, starts, n, n)
        q = (u @ j_xa).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(-1, n, n)
        psi = np.linalg.eigh(0.5 * (q + q.conj().mT))[1][..., -1].reshape(-1, starts, d, d)
        lam, vecs = np.linalg.eigh(_outputs(js, d, psi))
        value = _output_value(lam, n).max(axis=-1)
        rise = value - best[live]
        best[live] = np.maximum(best[live], value)
        going = ~(rise <= 1e-14 * np.abs(best[live]))
        if not going.all():
            live, js, j_xa, lam, vecs = live[going], js[going], j_xa[going], lam[going], vecs[going]
            if not len(live):
                break
    return [max(0.0, float(b)) for b in best]
