"""Diamond distance between channels, with certificates.

The workhorse is a semidefinite program in the standard maximization form

    maximize   tr(J(E - F) W)
    subject to 0 <= W <= I_out (x) rho,   rho >= 0,   tr rho = 1,

whose optimum is exactly half the diamond norm of E - F (Watrous,
"Semidefinite programs for completely bounded norms", Theory of Computing 5,
2009).  Unitary pairs and Pauli pairs short-circuit to closed forms;
everything else is encoded as complex Hermitian blocks for the solver of
:mod:`gatebounds.sdp`.  Every SDP result carries primal and dual
certificates with measured-residual margins, so callers can trust (and
re-verify) the returned interval without rerunning the solver.  The margins
are in the units of that complex problem: the primal residual is measured on
the constraints of :func:`_encode` (rhs 0 and tr rho = 1), and the dual
slack is C - sum y_i A_i with objective -J.

The encoder normalization is calibrated once per process against the unitary
closed form; a mismatch aborts with :class:`CalibrationError` since it would
mean the package is miswired, not that an input is bad.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels, linalg, pauli, sdp
from .channels import Channel, identity_channel

UNITARY_KRAUS_TOL = 1e-9
LARGE_DIMENSION = 4


class CalibrationError(RuntimeError):
    """Encoder self-test against the unitary closed form failed."""


class DiamondMethod(Enum):
    SDP = "sdp"
    UNITARY_CLOSED_FORM = "unitary_closed_form"
    PAULI_CLOSED_FORM = "pauli_closed_form"


@dataclass(frozen=True, slots=True)
class DiamondResult:
    """A diamond distance value with a certified enclosure.

    ``lower_certificate`` comes from the primal iterate and
    ``upper_certificate`` from the dual; closed forms return a degenerate
    interval.
    """

    value: float
    lower_certificate: float
    upper_certificate: float
    method: DiamondMethod


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


def _encode(j_delta, d):
    """Build the block SDP for the maximization above, in minimization form.

    Complex Hermitian blocks of sizes (d^2, d^2, d): W, the slack
    S = I (x) rho - W, and rho.  The objective is -J.  The linking
    constraint W + S = I (x) rho is expanded over an orthonormal Hermitian
    basis F_i of the d^2 x d^2 matrices: row i is (F_i, F_i, -Tr_1 F_i) with
    rhs 0, since Re tr(F_i (I (x) rho)) = Re tr((Tr_1 F_i) rho).  The last
    row (0, 0, I_d) with rhs 1 fixes tr rho.
    """
    d2 = d * d
    zero_w = np.zeros((d2, d2))
    zero_r = np.zeros((d, d))
    objective = [-j_delta, zero_w, zero_r]
    constraints = []
    rhs = []
    for f in _hermitian_basis(d2):
        g = linalg.partial_trace(f, (d, d), keep=1)
        constraints.append([f, f, -g])
        rhs.append(0.0)
    constraints.append([zero_w, zero_w, np.eye(d)])
    rhs.append(1.0)
    return sdp.SdpProblem([d2, d2, d], objective, constraints, rhs)


@functools.cache
def _ensure_calibrated():
    # a call that raises is not cached, so the next SDP use retries it
    theta = 0.5
    u = np.diag([1.0, np.exp(1j * theta)])
    got = _solve_pair(Channel([u]), identity_channel(2))
    want = math.sin(theta / 2.0)
    if abs(got.value - want) > 1e-6:
        raise CalibrationError(
            f"diamond encoder calibration failed: got {got.value!r}, expected {want!r}"
        )


def _solve_pair(e, f):
    d = e.dim
    j_delta = e.choi - f.choi
    problem = _encode(j_delta, d)
    solution = sdp.solve(problem)
    if solution.status is not sdp.SdpStatus.CONVERGED:
        raise sdp.SolverError(
            f"diamond SDP stopped unconverged ({solution.status.value}) after "
            f"{solution.iterations} iterations (gap {solution.gap:.3e})"
        )
    checked = sdp.verify_solution(problem, solution)
    value_primal = -checked["primal_value"]
    value_dual = -checked["dual_value"]
    # measured-residual margins: dual slack negativity is charged against the
    # feasible-trace bound d + 1; primal infeasibility and block negativity
    # against a linear sensitivity bound in the objective size
    jnorm = linalg.trace_norm(j_delta, tol=1e-6)
    neg_x = max(0.0, -checked["x_min_eig"])
    neg_z = max(0.0, -checked["z_min_eig"])
    slack = (d + 1) * neg_z + (2.0 * d * d * checked["primal_residual"] + 2.0 * d * d * neg_x) * max(1.0, jnorm)
    lower = min(value_primal, value_dual) - slack
    upper = max(value_primal, value_dual) + slack
    lower = min(1.0, max(0.0, lower))
    upper = min(1.0, max(0.0, upper))
    value = min(upper, max(lower, min(1.0, max(0.0, value_primal))))
    result = DiamondResult(value, lower, upper, DiamondMethod.SDP)
    if _solve_recorder is not None:
        _solve_recorder(SolveRecord(e, f, problem, solution, checked, result))
    return result


def diamond_distance(e, f=None, method="auto", large=False):
    """Diamond distance between two channels (second defaults to identity).

    ``method`` is "auto" (closed form when one applies, SDP otherwise) or
    "sdp" to force the solver, which cross-checks use.  Dimensions above
    4 produce a large dense SDP and must be acknowledged with ``large``.
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

    if e.dim > LARGE_DIMENSION and not large:
        raise ValueError(
            f"dimension {e.dim} diamond SDP is large and slow; pass large=True to run it"
        )
    _ensure_calibrated()
    return _solve_pair(e, f)


def pauli_distance(c, method="auto", large=False):
    """Diamond distance between a channel and its Pauli twirl."""
    return diamond_distance(c, pauli.pauli_twirl(c), method=method, large=large)


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
