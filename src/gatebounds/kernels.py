"""The two dense numeric kernels, both on numpy's LAPACK.

``eigh_kernel`` is the Hermitian eigendecomposition behind
:func:`gatebounds.linalg.hermitian_eigendecomposition`, its only caller,
and so behind ``linalg``'s checked helpers, which serve only matrices that
arrive from outside the package (CLI Choi files, ``metrics`` density
matrices).  The rule for everything else: a matrix the package builds
itself (solver iterates and slacks, Choi differences, outputs, scalings)
goes straight to numpy's LAPACK, in numpy's ascending order and without a
Hermiticity check.  So a count of ``eigh_kernel`` calls covers outside
input only; a diamond distance or an audit makes none.

``pair_scan_kernel`` is the vectorized sampled trace-norm scan behind the
brute-force diamond-distance lower bound.  Its only remaining callers are
``diamond.brute_force_lower_bound``, the benchmark harness (its oracle and
tracer) and tests; the reproduction suite's solver-health check uses
``diamond.ascent_lower_bounds`` instead.  For a sampled state with d x d
coefficient matrix Psi_s, the output is M_s = (I x Psi_s^T) J (I x
Psi_s^T)^dagger for the Choi matrix J of E - F (Watrous, "Semidefinite
programs for completely bounded norms", 2009).  The scan makes its
eigenproblems smaller and fewer:

* smaller: with r Kraus operators, M_s = K_s S K_s^dagger has rank at most
  r.  Below r = d^2 one GEMM builds every K_s (d^2 x r), a batched QR
  gives K_s = Q_s R_s, and the r x r matrix R_s S R_s^dagger carries the
  nonzero spectrum of M_s.  From r = d^2 on, M_s itself is built from J by
  two dense products per batch.  ``diamond.brute_force_lower_bound`` passes
  the minimal signed operators of J, so r is the rank of J.
* fewer: ||H||_1 <= sum_j ||H e_j||_2 bounds each sample's trace norm, and
  after the sample with the largest bound, only samples whose bound can
  still exceed the largest norm found reach ``eigvalsh``.
"""

import numpy as np

EPS = float(np.finfo(float).eps)

# Read only by the benchmark harness's environment report
# (perfbench/run.py): the package uses no numba, and nothing reads ENV_VAR.
HAVE_NUMBA = False
ENV_VAR = "GATEBOUNDS_BACKEND"


def active_backend():
    """Name of the numeric backend; always "numpy"."""
    return "numpy"


def eigh_kernel(a):
    """``np.linalg.eigh(a)``: ascending eigenvalues and eigenvector columns."""
    return np.linalg.eigh(a)


def pair_scan_kernel(kraus_e, kraus_f, psis):
    """Max over sampled pure states of half the trace norm of
    ((E - F) x id)(|psi><psi|), states given as rows of ``psis``.

    With Psi_s = ``psis[s].reshape(d, d)`` (system index first), the Kraus
    operators K_1 ... K_r of E then F, S = diag(+1 for E, -1 for F) and J
    the Choi matrix of E - F (output factor first, row-major vec, as
    ``Channel.choi``), each sampled output is

        M_s = (I x Psi_s^T) J (I x Psi_s^T)^dagger = K_s S K_s^dagger,

    where column k of the d^2 x r matrix K_s is vec(K_k Psi_s).  Below
    r = d^2, K_s = Q_s R_s (QR) leaves the r x r matrix R_s S R_s^dagger
    with the nonzero spectrum of M_s; from r = d^2 on, M_s is built from J,
    so the per-sample cost does not depend on r.
    """
    d = kraus_e.shape[1]
    n = d * d
    ns = psis.shape[0]
    kraus = np.concatenate((kraus_e, kraus_f))
    r = len(kraus)
    signs = np.repeat([1.0, -1.0], [len(kraus_e), len(kraus_f)])
    mats = psis.reshape(ns, d, d)
    # rows (s, c), columns b: every Psi_s^T stacked
    stacked = mats.transpose(0, 2, 1).reshape(ns * d, d)
    if r < n:
        # cols[(s, c), (k, a)] = sum_b Psi_s[b, c] K_k[a, b] = (K_k Psi_s)[a, c]
        cols = stacked @ kraus.transpose(2, 0, 1).reshape(d, r * d)
        # K_s with its rows in (c, a) order: permuting rows leaves R_s as it is
        cols = cols.reshape(ns, d, r, d).transpose(0, 1, 3, 2).reshape(ns, n, r)
        rs = np.linalg.qr(cols, mode="r")
        return 0.5 * _largest_trace_norm((rs * signs) @ rs.conj().mT)
    vecs = kraus.reshape(r, n)
    choi = (vecs.T * signs) @ vecs.conj()
    # t[(s, c), (a, x, y)] = sum_b Psi_s[b, c] J[(a, b), (x, y)]
    choi_b = choi.reshape(d, d, n).transpose(1, 0, 2).reshape(d, d**3)
    t = stacked @ choi_b
    # m[s, (c, a, x), z] = sum_y t[(s, c), (a, x, y)] conj Psi_s[y, z]
    m = t.reshape(ns, d**3, d) @ mats.conj()
    del t  # free it before the reorder copy: at d = 4 each array is 8 MB
    # rows (a, c), columns (x, z)
    m = m.reshape(ns, d, d, n).transpose(0, 2, 1, 3).reshape(ns, n, n)
    return 0.5 * _largest_trace_norm(m)


def _largest_trace_norm(stack):
    """max_s ||H_s||_1 over a stack of Hermitian k x k matrices H_s.

    ||H||_1 <= b(H) = sum_j ||H e_j||_2, so after the sample of largest b is
    solved exactly, only samples whose b, widened by (1 + 4 k^2 eps) for the
    rounding of b and of the eigenvalues, exceeds that norm can set the
    maximum; the rest never reach ``eigvalsh``.
    """
    k = stack.shape[-1]
    # row sums as products with ones: numpy's reduction over a short last
    # axis took about three times as long at d = 2
    ones = np.ones(k)
    # squared column norms from the float64 view, real and imaginary parts
    # interleaved, so no complex temporary of the stack's size is made
    flat = stack.view(np.float64)
    squares = np.einsum("sij,sij->sj", flat, flat)
    bound = np.sqrt(squares[:, 0::2] + squares[:, 1::2]) @ ones
    first = int(bound.argmax())
    best = float(np.abs(np.linalg.eigvalsh(stack[first])) @ ones)
    bound[first] = 0.0
    rest = np.flatnonzero(bound * (1.0 + 4.0 * k * k * EPS) > best)
    if rest.size:
        best = max(best, float((np.abs(np.linalg.eigvalsh(stack[rest])) @ ones).max()))
    return best
