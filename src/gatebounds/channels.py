"""Completely positive trace-preserving maps in Kraus form.

A :class:`Channel` wraps a tuple of Kraus operators.  Instances are
immutable (the stored arrays are marked read-only) and cache their Choi
matrix on first use, so they are safe to share between threads.

Each input is checked once, where it enters: ``Channel(kraus)`` tests Kraus
operators from outside for shape, finiteness and trace preservation, and
:func:`unitary_channel` and :func:`discrepancy` test their matrix for
unitarity.  A channel derived from checked input (:func:`compose`,
:func:`mix`, :func:`discrepancy`, the named constructors, a Pauli
channel's Kraus form) is stored without a second test, so the rounding of
a derivation never turns accepted inputs into a refusal.
"""

import math
import numbers
from collections.abc import Mapping
from functools import cached_property

import numpy as np

from . import linalg

# The rounding allowance of a fidelity or a probability: how far outside
# [0, 1] (or a sum away from 1) an entry may lie and still be read as a
# rounding error.  Matrices from outside have their own, linalg.TOLERANCE.
SLOP = 1e-12

# the single-qubit Paulis I, X, Y, Z, public as pauli.PAULI_MATRICES; kept
# here because pauli builds on Channel and depolarizing builds on them.  Each
# is a view of one read-only stack, so no caller can change them for every
# later channel.
_PAULI_STACK = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128
)
_PAULI_STACK.flags.writeable = False
PAULI_MATRICES = dict(zip("IXYZ", _PAULI_STACK))


class ChannelValidationError(ValueError):
    """Kraus operators that do not define a CPTP map within tolerance."""


class Channel:
    """A CPTP map, stored as Kraus operators of a fixed dimension.

    ``Channel(kraus)`` is for Kraus operators from outside the package: each
    must be a square, finite matrix, all of one dimension, with
    sum_k A_k^dagger A_k within ``linalg.TOLERANCE`` of the identity, or
    :class:`ChannelValidationError` names what is wrong.  Channels the
    package derives from checked ones are built by ``Channel._derived``,
    without that test.
    """

    def __init__(self, kraus):
        ops = []
        for k, op in enumerate(kraus):
            try:
                ops.append(linalg.as_complex_matrix(op, f"Kraus operator {k}"))
            except ValueError as exc:
                raise ChannelValidationError(str(exc)) from None
        if not ops or not ops[0].size:
            raise ChannelValidationError("need at least one Kraus operator, of dimension at least 1")
        dim = ops[0].shape[0]
        if any(a.shape[0] != dim for a in ops):
            raise ChannelValidationError("Kraus operators differ in dimension")
        total = sum(a.conj().T @ a for a in ops)
        defect = float(np.abs(total - np.eye(dim)).max())
        if not defect <= linalg.TOLERANCE:
            raise ChannelValidationError(
                f"Kraus operators are not trace preserving: defect {defect:.3e}, tol {linalg.TOLERANCE:.3e}"
            )
        self._store(ops)

    @classmethod
    def _derived(cls, kraus):
        """The channel of Kraus operators derived from checked channels or
        matrices (at least one, square, of one dimension), stored without
        the CPTP test."""
        channel = cls.__new__(cls)
        channel._store(kraus)
        return channel

    def _store(self, kraus):
        """Keep read-only complex128 copies of the Kraus operators."""
        self.kraus = tuple(np.array(a, dtype=np.complex128, order="C") for a in kraus)
        for a in self.kraus:
            a.flags.writeable = False
        self.dim = self.kraus[0].shape[0]

    @cached_property
    def choi(self):
        """Choi matrix, output factor first, normalized so the trace is dim."""
        d = self.dim
        j = np.zeros((d * d, d * d), dtype=np.complex128)
        for a in self.kraus:
            v = a.ravel()
            j += np.outer(v, v.conj())
        j.flags.writeable = False
        return j

    def apply(self, rho):
        """Apply the map to a density (or any square) matrix."""
        a = linalg.as_complex_matrix(rho, "state")
        if a.shape[0] != self.dim:
            raise ValueError(f"state dimension {a.shape[0]} does not match channel dimension {self.dim}")
        out = np.zeros_like(a)
        for k in self.kraus:
            out += k @ a @ k.conj().T
        return out

    def __repr__(self):
        return f"Channel(dim={self.dim}, kraus={len(self.kraus)})"


def checked_integer(value, what, lo, hi=math.inf):
    """``value`` as an int in [lo, hi], or ValueError naming ``what``.

    An integer argument is an integer-valued real: an int, a numpy integer
    or an integer-valued float.  Refused: a bool (a flag, not a count),
    anything that is not a ``numbers.Real`` (text, None, a complex value),
    NaN, an infinity and a non-integer.  Dimensions cap ``hi`` at 2**53,
    above which a float no longer holds every integer; seeds and counts
    pass no cap, so an integer of any size is read exactly.
    """
    n = value
    if type(n) is not int:
        real = isinstance(n, numbers.Real) and not isinstance(n, bool)
        try:
            n = int(n) if real else None
        except (ValueError, OverflowError):  # NaN, an infinity
            n = None
        if n is None or n != value:
            raise ValueError(f"{what} must be an integer of at least {lo}, got {value!r}")
    if lo <= n <= hi:
        return n
    if n > hi:
        k = hi.bit_length() - 1
        cap = f"2**{k}" if hi == 1 << k else hi
        raise ValueError(f"{what} must be an integer of at most {cap}, got {value!r}")
    raise ValueError(f"{what} must be an integer of at least {lo}, got {value!r}")


def checked_real(value, what, lo=-math.inf, hi=math.inf):
    """``value`` as a finite float in [lo, hi], or ValueError naming ``what``.

    Refused: a bool (a flag, not a quantity), anything that is not a
    ``numbers.Real`` (text, None, a complex value), NaN, an infinity, and an
    integer beyond the float range, which ``float()`` cannot convert.  The
    range is closed and has no slop; a fidelity or a probability allows
    ``SLOP`` (:func:`checked_fidelity`, :func:`checked_distribution`).
    """
    x = value
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{what} must be a real number, got {value!r}")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(f"{what} must be finite, got an integer beyond the float range") from None
    if lo <= x <= hi and math.isfinite(x):
        return x
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    raise ValueError(f"{what} {x!r} outside [{lo!r}, {hi!r}]")


def checked_fidelity(value):
    """``value`` as a float in [0, 1], or ValueError naming "fidelity".

    The one reading of a fidelity: :func:`checked_real` on
    [-SLOP, 1 + SLOP], then clamped into [0, 1].  Near 1 the generic bound
    sqrt(d(d+1)(1 - phi)) has an infinite slope, so a fidelity computed one
    rounding above 1 (a perfect gate) reads as 1 rather than as an error.
    """
    return min(1.0, max(0.0, checked_real(value, "fidelity", -SLOP, 1.0 + SLOP)))


def checked_distribution(entries, what):
    """The entries of a probability vector as a list of floats, or
    ValueError naming ``what``.

    ``entries`` is a mapping (label to probability) or a sequence.  Each
    entry passes :func:`checked_real` with no entry below -SLOP, named
    ``what[label]`` or ``what[index]``, and the sum lies within ``SLOP`` of
    1.  Entries are returned as they are, not clamped.  Text is refused
    whole rather than read character by character.
    """
    if isinstance(entries, Mapping):
        items = entries.items()
    elif isinstance(entries, (str, bytes)) or not np.iterable(entries):
        raise ValueError(f"{what} must be a collection of numbers, got {entries!r}")
    else:
        items = enumerate(entries)
    values = []
    for key, p in items:
        try:
            values.append(checked_real(p, what, lo=-SLOP))
        except ValueError:
            # an entry is named only once it fails: naming each costs more
            # than checking it
            checked_real(p, f"{what}[{key!r}]", lo=-SLOP)
    total = math.fsum(values)
    if abs(total - 1.0) > SLOP:
        raise ValueError(f"the sum of {what} is {total!r}, not 1")
    return values


def identity_channel(dim):
    return Channel._derived([np.eye(checked_integer(dim, "dimension", 1, 2**53))])


def unitary_channel(u):
    a = linalg.as_complex_matrix(u, "unitary")
    if not linalg.is_unitary(a):
        raise ChannelValidationError("matrix is not unitary within tolerance")
    return Channel._derived([a])


def compose(outer, inner):
    """Channel applying ``inner`` first, then ``outer``."""
    if outer.dim != inner.dim:
        raise ValueError("cannot compose channels of different dimension")
    return Channel._derived([a @ b for a in outer.kraus for b in inner.kraus])


def mix(terms):
    """Convex mixture of channels given as (weight, channel) pairs."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty mixture")
    weights = checked_distribution([w for w, _ in terms], "mixture weights")
    dim = terms[0][1].dim
    if any(ch.dim != dim for _, ch in terms):
        raise ValueError("mixture channels differ in dimension")
    kraus = []
    for w, (_, ch) in zip(weights, terms):
        if w <= 0.0:
            continue
        root = np.sqrt(w)
        kraus.extend(root * a for a in ch.kraus)
    return Channel._derived(kraus)


def discrepancy(actual, ideal):
    """Compose the implemented channel with the inverse of the ideal gate.

    ``ideal`` is the target unitary as a matrix.  The result is the channel
    whose distance from the identity is the gate's error rate.
    """
    u = linalg.as_complex_matrix(ideal, "ideal gate")
    if u.shape[0] != actual.dim:
        raise ValueError("ideal gate dimension does not match the channel")
    if not linalg.is_unitary(u):
        raise ChannelValidationError("ideal gate is not unitary within tolerance")
    return compose(actual, Channel._derived([u.conj().T]))


def depolarizing(r):
    """Single-qubit depolarizing channel with depolarization weight r."""
    r = checked_real(r, "depolarizing weight", 0, 4.0 / 3.0)
    weights = {"I": 1.0 - 3.0 * r / 4.0, "X": r / 4.0, "Y": r / 4.0, "Z": r / 4.0}
    return Channel._derived([np.sqrt(w) * PAULI_MATRICES[k] for k, w in weights.items()])


def unitary_error(theta):
    """Single-qubit unitary with eigenvalues exp(+i theta), exp(-i theta)."""
    theta = checked_real(theta, "rotation angle", 0, math.pi)
    return Channel._derived([np.diag([np.exp(1j * theta), np.exp(-1j * theta)])])


def amplitude_damping(r):
    """Single-qubit amplitude damping with decay probability r."""
    r = checked_real(r, "decay probability", 0, 1)
    a0 = np.array([[1, 0], [0, np.sqrt(1.0 - r)]], dtype=np.complex128)
    a1 = np.array([[0, np.sqrt(r)], [0, 0]], dtype=np.complex128)
    return Channel._derived([a0, a1])


def phase_matrix(dim, theta):
    """The controlled-phase style unitary diag(1, ..., 1, exp(i theta))."""
    dim = checked_integer(dim, "dimension", 2, 2**53)
    theta = checked_real(theta, "phase angle theta")
    diag = np.ones(dim, dtype=np.complex128)
    diag[-1] = np.exp(1j * theta)
    return np.diag(diag)


def generalized_cphase(dim, theta):
    """Unitary channel of the dim-level phase gate diag(1, ..., e^{i theta})."""
    return Channel._derived([phase_matrix(dim, theta)])


def lambda_mixture(dim, lam):
    """Gate that fires with probability 1 - lam and idles otherwise.

    Returns the pair (actual channel, ideal gate matrix) for the theta = pi
    phase gate.  The discrepancy of this pair has error rate exactly lam, at
    every dimension, while its fidelity defect shrinks like 1/dim^2.
    """
    lam = checked_real(lam, "idle probability", 0, 1)
    u = phase_matrix(dim, np.pi)
    actual = mix([(1.0 - lam, unitary_channel(u)), (lam, identity_channel(len(u)))])
    return actual, u
