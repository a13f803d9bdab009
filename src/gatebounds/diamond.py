"""Diamond distance between channels, with certificates.

Unitary pairs and Pauli pairs short-circuit to closed forms.  Every other
pair is solved as a semidefinite program over complex Hermitian blocks by
:mod:`gatebounds.sdp`, through one of two encodings ("routes") of the same
value eta = 1/2 ||E - F||_diamond, picked per pair from the rank r of the
Choi matrix J = J(E - F):

* The *Choi route* (Watrous, "Semidefinite programs for completely bounded
  norms", Theory of Computing 5, 2009):

      maximize   tr(J W)
      subject to 0 <= W <= I_out (x) rho,   rho >= 0,   tr rho = 1,

  with blocks (d^2, d^2, d) and m = d^4 + 1 constraint rows.  Only the
  objective -J depends on the channels, so the constraints are built once
  per dimension as a read-only template (:func:`_template`).
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
  constraints depend on the pair, so there is no template.

*Rule.*  Eigenvalues of J at or below the rank cut 2 d^3 eps (d^2 rounding
units of ||J_E||_1 + ||J_F||_1 = 2d, far below any physical eigenvalue) are
dropped from the fidelity route, and r counts the rest.  The fidelity route
is taken at d >= 3 when 0 < r and 2 r^2 + 2 <= 3/4 (d^4 + 1): up to r = 5 at
d = 3 and r = 9 at d = 4.  That is where it was measured faster (one BLAS
thread, random isometry-channel pairs): at d = 3 it ties the Choi route at
r = 6 (74 rows against 82), and at d = 4 it wins by 24 % at r = 10 and
loses by 16 % at r = 11 (244 rows against 257).  At d = 2 the two programs
(10 or 20 rows against 17) took the same time, and every d = 2 pair stays
on the Choi route.  A route with more than ``MAX_ROWS`` = 8^4 + 1 rows (the
Choi route at d = 8, about 2 GB peak) raises ``ValueError`` before it is built.

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

The returned value is the solver's primal value, clipped into the interval.

Each route's encoder normalization is calibrated once per process, on its
first use, against the unitary closed form; a mismatch aborts with
:class:`CalibrationError` since it would mean the package is miswired, not
that an input is bad.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import kernels, linalg, pauli, sdp
from .channels import Channel, identity_channel

UNITARY_KRAUS_TOL = 1e-9
LARGE_DIMENSION = 4
MAX_ROWS = 8**4 + 1
EPS = float(np.finfo(float).eps)


class CalibrationError(RuntimeError):
    """Encoder self-test against the unitary closed form failed."""


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
    """One SDP solve as seen by an installed recorder: inputs and outputs.

    ``checked`` holds the :func:`sdp.verify_solution` figures the
    certificates were computed from.
    """

    e: Channel
    f: Channel
    problem: "sdp.SdpProblem"
    solution: "sdp.SdpSolution"
    checked: dict
    result: DiamondResult


_solve_recorder = None


def set_solve_recorder(callback):
    """Install a callback receiving a SolveRecord per SDP solve, or None.

    Used by the reproduction suite to audit every solve after the fact;
    closed-form paths are not recorded.
    """
    global _solve_recorder
    _solve_recorder = callback


def _exact(value, method):
    v = float(value)
    return DiamondResult(v, v, v, method)


def unitary_diamond_distance(u):
    """Closed-form diamond distance of a unitary channel from the identity.

    With the eigenvalue phases of ``u`` covered by a minimal arc of width
    theta, the distance is sin(theta / 2) for theta < pi and 1 otherwise.
    The minimal covering arc is 2 pi minus the largest gap between adjacent
    sorted phases.
    """
    phases = linalg.unitary_eigenphases(u)
    gaps = np.diff(phases)
    wrap = 2.0 * np.pi - (phases[-1] - phases[0])
    largest = max(float(gaps.max(initial=0.0)), float(wrap))
    arc = 2.0 * np.pi - largest
    if arc >= np.pi:
        return _exact(1.0, DiamondMethod.UNITARY_CLOSED_FORM)
    return _exact(math.sin(arc / 2.0), DiamondMethod.UNITARY_CLOSED_FORM)


def _pauli_pair_value(p, q):
    labels = set(p.probs) | set(q.probs)
    return 0.5 * sum(abs(p.probs.get(k, 0.0) - q.probs.get(k, 0.0)) for k in labels)


def pauli_diamond_distance(p):
    """Diamond distance of a Pauli channel from the identity: 1 - p_identity.

    Pauli channels achieve the diamond norm on a maximally entangled state,
    where the output differences are orthogonal, so the distance collapses
    to the total variation distance of the probability vectors.
    """
    return _exact(p.error_rate, DiamondMethod.PAULI_CLOSED_FORM)


def _single_unitary(channel):
    if len(channel.kraus) != 1:
        return None
    k = channel.kraus[0]
    if linalg.is_unitary(k, UNITARY_KRAUS_TOL):
        return k
    return None


def _hermitian_basis(n):
    """Orthonormal Hermitian basis of the n x n matrices, deterministic order."""
    root = 1.0 / np.sqrt(2.0)
    for p in range(n):
        m = np.zeros((n, n), dtype=np.complex128)
        m[p, p] = 1.0
        yield m
        for q in range(p + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[p, q] = root
            m[q, p] = root
            yield m
            m = np.zeros((n, n), dtype=np.complex128)
            m[p, q] = 1j * root
            m[q, p] = -1j * root
            yield m


@functools.cache
def _template(d):
    """The Choi route's constraints for dimension d, with a zero objective.

    Complex Hermitian blocks of sizes (d^2, d^2, d): W, the slack
    S = I (x) rho - W, and rho.  The linking constraint W + S = I (x) rho is
    expanded over an orthonormal Hermitian basis F_i of the d^2 x d^2
    matrices: row i is (F_i, F_i, -Tr_1 F_i) with rhs 0, since
    Re tr(F_i (I (x) rho)) = Re tr((Tr_1 F_i) rho).  The last row
    (0, 0, I_d) with rhs 1 fixes tr rho.  W and S have equal stacks, so the
    solver assembles them as one group.

    Only the objective depends on the channels, so :func:`_encode` keeps the
    template of each d <= ``LARGE_DIMENSION`` for the life of the process;
    its read-only constraint matrix has m = d^4 + 1 rows and 2 d^4 + d^2
    complex columns, about 10 KB at d = 2, 0.2 MB at d = 3 and 2.2 MB at
    d = 4.  A larger template (0.54 GB at d = 8) is built per solve through
    ``_template.__wrapped__`` and freed with it.
    """
    d2 = d * d
    zero_w = np.zeros((d2, d2))
    zero_r = np.zeros((d, d))
    constraints = []
    rhs = []
    for f in _hermitian_basis(d2):
        g = linalg.partial_trace(f, (d, d), keep=1)
        constraints.append([f, f, -g])
        rhs.append(0.0)
    constraints.append([zero_w, zero_w, np.eye(d)])
    rhs.append(1.0)
    return sdp.SdpProblem([d2, d2, d], [zero_w, zero_w, zero_r], constraints, rhs)


def _encode(j_delta, d):
    """The Choi route's SDP for the maximization above, in minimization form.

    The constraints are those of :func:`_template` (shared, not copied);
    the objective is -J on the W block and zero on S and rho.
    """
    d2 = d * d
    template = _template(d) if d <= LARGE_DIMENSION else _template.__wrapped__(d)
    return template.with_objective([-j_delta, np.zeros((d2, d2)), np.zeros((d, d))])


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
    """
    r, d = len(ops), ops.shape[1]
    basis = np.stack(list(_hermitian_basis(r)))
    nb = r * r
    # prods[j, i] = A_j^dagger A_i, and G_A*(F) is one contraction with F^T
    prods = np.einsum("jba,ibc->jiac", ops.conj(), ops).reshape(nb, d * d)
    flipped = basis * np.outer(signs, signs)
    g_a = (basis.reshape(nb, nb) @ prods).reshape(nb, d, d)
    g_b = (flipped.reshape(nb, nb) @ prods).reshape(nb, d, d)
    m = 2 * nb + 2
    joint = np.zeros((m, 2 * r, 2 * r), dtype=np.complex128)
    joint[:nb, :r, :r] = basis
    joint[nb : 2 * nb, r:, r:] = basis
    rho = np.zeros((m, d, d), dtype=np.complex128)
    rho[:nb] = -g_a
    rho[-2] = np.eye(d)
    sigma = np.zeros((m, d, d), dtype=np.complex128)
    sigma[nb : 2 * nb] = -g_b
    sigma[-1] = np.eye(d)
    swap = np.block([[np.zeros((r, r)), np.eye(r)], [np.eye(r), np.zeros((r, r))]])
    zero = np.zeros((d, d))
    rhs = np.zeros(m)
    rhs[-2:] = 1.0
    return sdp.SdpProblem(
        [2 * r, d, d], [-0.5 * swap, zero, zero], list(zip(joint, rho, sigma)), rhs
    )


class _Encoding(NamedTuple):
    """One route's SDP for one pair, with what its certificate reads.

    At the optimum, eta = -``scale`` <C, X> up to ``dropped`` (half the
    summed |eigenvalues| cut from J).  ``trace_bounds`` pairs block indices
    with a bound on their total trace over the feasible set.  ``witness``
    is the index of the input-state block rho, and ``transpose`` takes the
    witness from rho^T.
    """

    route: str
    problem: "sdp.SdpProblem"
    scale: float
    trace_bounds: tuple
    witness: int
    transpose: bool
    dropped: float = 0.0


def _choi_encoding(j_delta, d):
    return _Encoding(
        route="choi",
        problem=_encode(j_delta, d),
        scale=1.0,
        trace_bounds=(((0, 1), float(d)), ((2,), 1.0)),
        witness=2,
        transpose=False,
    )


def _fidelity_encoding(j_delta, d):
    lam, vecs = linalg.hermitian_eigendecomposition(j_delta)
    keep = np.abs(lam) > _rank_cut(d)
    # the eigensolver's backward error, n eps ||J||_2 per eigenvalue, joins
    # the cut terms: ||J - J_kept||_1 <= sum |lambda_dropped| + n^2 eps ||J||_2
    n = d * d
    cut_norm = float(np.abs(lam[~keep]).sum()) + n * n * EPS * float(np.abs(lam).max(initial=0.0))
    lam = lam[keep]
    ops = np.sqrt(np.abs(lam))[:, None, None] * vecs[:, keep].T.reshape(-1, d, d)
    gram_max = float(np.linalg.eigvalsh(np.einsum("kba,kbc->ac", ops.conj(), ops))[-1])
    return _Encoding(
        route="fidelity",
        problem=_encode_fidelity(ops, np.sign(lam)),
        scale=0.5,
        trace_bounds=(((0,), 2.0 * gram_max), ((1,), 1.0), ((2,), 1.0)),
        witness=1,
        transpose=True,
        dropped=0.5 * cut_norm,
    )


_ENCODINGS = {"choi": _choi_encoding, "fidelity": _fidelity_encoding}


def _route(j_delta, d):
    """The route for J(E - F) and its row count: "fidelity" at d >= 3 where
    it has at most three quarters of the Choi route's rows (module docstring)."""
    r = int(np.count_nonzero(np.abs(np.linalg.eigvalsh(j_delta)) > _rank_cut(d)))
    rows = {"fidelity": 2 * r * r + 2, "choi": d**4 + 1}
    route = "fidelity" if d > 2 and 0 < r and 4 * rows["fidelity"] <= 3 * rows["choi"] else "choi"
    return route, rows[route]


def _witness_value(j_delta, d, rho, transpose):
    """Half the output trace norm of the purification of rho (clipped to a
    state), less its eigenvalue rounding allowance: a lower bound on eta."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    psi = (v * np.sqrt(w / w.sum())) @ v.conj().T
    if transpose:
        psi = psi.T
    # (I (x) Psi) J (I (x) Psi)^dagger without the Kronecker product: rows
    # (a, c) and columns (x, z) of sum_by Psi[c, b] J[(a, b), (x, y)] conj Psi[z, y]
    n = d * d
    out = ((psi @ j_delta.reshape(d, d, n)).reshape(n, d, d) @ psi.conj().T).reshape(n, n)
    w = np.linalg.eigvalsh(out)
    return 0.5 * (float(np.abs(w).sum()) - n * n * EPS * float(np.abs(w).max()))


def _certify(encoding, solution, checked, j_delta, d):
    """The certified interval of a converged solve, as a DiamondResult."""
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
    lower = min(1.0, max(0.0, lower))
    upper = min(1.0, max(0.0, upper))
    value = min(upper, max(lower, -encoding.scale * checked["primal_value"]))
    return DiamondResult(value, lower, upper, DiamondMethod.SDP, encoding.route)


@functools.cache
def _ensure_calibrated(route):
    # a call that raises is not cached, so the next use of the route retries it
    theta = 0.5
    u = np.diag([1.0, np.exp(1j * theta)])
    got = _solve_pair(Channel([u]), identity_channel(2), route)
    want = math.sin(theta / 2.0)
    if abs(got.value - want) > 1e-6:
        raise CalibrationError(
            f"diamond encoder calibration failed on the {route} route: got {got.value!r}, "
            f"expected {want!r}"
        )


def _solve(j_delta, d, route):
    """Encode J(E - F) on ``route``, solve, verify and certify.

    Returns the encoding, the solution, the verification figures and the
    DiamondResult; an unconverged solve raises :class:`sdp.SolverError`.
    """
    encoding = _ENCODINGS[route](j_delta, d)
    solution = sdp.solve(encoding.problem)
    if solution.status is not sdp.SdpStatus.CONVERGED:
        raise sdp.SolverError(
            f"diamond SDP ({route} route) stopped unconverged ({solution.status.value}) after "
            f"{solution.iterations} iterations (gap {solution.gap:.3e})"
        )
    checked = sdp.verify_solution(encoding.problem, solution)
    return encoding, solution, checked, _certify(encoding, solution, checked, j_delta, d)


def _solve_pair(e, f, route):
    encoding, solution, checked, result = _solve(e.choi - f.choi, e.dim, route)
    if _solve_recorder is not None:
        _solve_recorder(SolveRecord(e, f, encoding.problem, solution, checked, result))
    return result


def diamond_distance(e, f=None, method="auto"):
    """Diamond distance between two channels (second defaults to identity).

    ``method`` is "auto" (closed form when one applies, SDP otherwise) or
    "sdp" to force the solver, which cross-checks use.  The SDP route is
    picked from the rank of J(E - F), and a route with more than
    ``MAX_ROWS`` constraint rows raises ``ValueError`` (module docstring).
    A solve that does not converge raises :class:`sdp.SolverError`.
    """
    if f is None:
        f = identity_channel(e.dim)
    if e.dim != f.dim:
        raise ValueError("channels differ in dimension")
    if method not in ("auto", "sdp"):
        raise ValueError(f"unknown method {method!r}")

    if method == "auto":
        ue = _single_unitary(e)
        uf = _single_unitary(f)
        if ue is not None and uf is not None:
            return unitary_diamond_distance(uf.conj().T @ ue)
        try:
            pe = pauli.as_pauli_channel(e)
            pf = pauli.as_pauli_channel(f)
        except ValueError:
            pass
        else:
            return _exact(_pauli_pair_value(pe, pf), DiamondMethod.PAULI_CLOSED_FORM)

    route, rows = _route(e.choi - f.choi, e.dim)
    if rows > MAX_ROWS:
        raise ValueError(
            f"dimension {e.dim} diamond SDP on the {route} route has {rows} constraint rows, "
            f"above the cap of {MAX_ROWS}"
        )
    _ensure_calibrated(route)
    return _solve_pair(e, f, route)


def pauli_distance(c, method="auto"):
    """Diamond distance between a channel and its Pauli twirl."""
    return diamond_distance(c, pauli.pauli_twirl(c), method=method)


def brute_force_lower_bound(e, f=None, samples=2000, seed=0):
    """Sampled lower bound on the diamond distance.

    Maximizes half the output trace norm over Haar-random pure states of the
    doubled space (system plus same-size ancilla).  Always at most the true
    distance, and a useful independent check on the SDP.
    """
    if f is None:
        f = identity_channel(e.dim)
    if e.dim != f.dim:
        raise ValueError("channels differ in dimension")
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    d = e.dim
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, d * d)) + 1j * rng.standard_normal((samples, d * d))
    psis = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    kraus_e = np.ascontiguousarray(np.stack(e.kraus))
    kraus_f = np.ascontiguousarray(np.stack(f.kraus))
    return kernels.pair_scan_kernel(kraus_e, kraus_f, np.ascontiguousarray(psis))
