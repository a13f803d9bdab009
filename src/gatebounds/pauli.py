"""Pauli operators, Pauli channels, and twirling."""

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import PAULI_MATRICES, Channel, checked_channel, checked_distribution, checked_integer

# largest off-diagonal process-matrix entry of a channel read as Pauli.  It
# classifies channels the package derived and decides whether a closed form
# applies, so it stays apart from linalg.TOLERANCE, which accepts or refuses
# a matrix from outside.
PAULI_TOL = 1e-9


def pauli_labels(qubits):
    """All length-n Pauli labels in lexicographic I, X, Y, Z order."""
    n = checked_integer(qubits, "qubit count", 1, 2**53)
    return ["".join(p) for p in product("IXYZ", repeat=n)]


def pauli_operator(label):
    """Tensor product of single-qubit Paulis named by ``label``, as a fresh,
    writable array: the stored ``PAULI_MATRICES`` are read-only."""
    if not label or any(ch not in PAULI_MATRICES for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}")
    op = PAULI_MATRICES[label[0]].copy()
    for ch in label[1:]:
        # np.kron's products, without the generic reshaping that takes most
        # of a small kron's time
        m = len(op)
        op = (op[:, None, :, None] * PAULI_MATRICES[ch][None, :, None, :]).reshape(2 * m, 2 * m)
    return op


@functools.cache
def _operators(qubits):
    """The read-only (4^n, d, d) stack of the n-qubit Pauli operators in
    :func:`pauli_labels` order, each as :func:`pauli_operator` builds it.

    Kept for the life of the process, one stack per qubit count (4 KB at
    n = 2, 64 KB at n = 3), so a projection or a channel of Pauli operators
    builds no Kronecker product.
    """
    stack = np.stack([pauli_operator(label) for label in pauli_labels(qubits)])
    stack.flags.writeable = False
    return stack


def _qubit_count(dim):
    n = int(round(np.log2(dim)))
    if n < 1 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two of at least 2")
    return n


@dataclass(frozen=True, slots=True)
class PauliChannel:
    """Probabilistic Pauli map: apply operator P_k with probability p_k."""

    qubits: int
    probs: dict

    def __post_init__(self):
        n = checked_integer(self.qubits, "qubit count", 1, 2**53)
        if not isinstance(self.probs, Mapping):
            raise ValueError(
                f"Pauli probabilities must be a mapping of labels to probabilities, got {self.probs!r}"
            )
        # frozen: store the count as the int it was read as
        object.__setattr__(self, "qubits", n)
        # each key on its own: the 4^n labels cannot all be listed at large n
        bad = [k for k in self.probs if not isinstance(k, str) or len(k) != n or set(k) - set("IXYZ")]
        if bad:
            raise ValueError(f"labels {sorted(bad)} are not {self.qubits}-qubit Paulis")
        checked_distribution(self.probs, "Pauli probabilities")

    @property
    def dim(self):
        return 2**self.qubits

    @property
    def error_rate(self):
        """Probability that any nonidentity Pauli fires."""
        return 1.0 - self.probs.get("I" * self.qubits, 0.0)

    def as_channel(self):
        # one operator per stored label: the 4^n stack would cost 16^n entries
        kraus = [np.sqrt(p) * pauli_operator(label) for label, p in sorted(self.probs.items()) if p > 0.0]
        return Channel._derived(kraus)


def _projection(channel):
    """The Pauli channel of diag(T).real / d, clipped at 0 and renormalized,
    and the largest |off-diagonal| entry of T = B^dagger J B, the process
    matrix in the basis B = [vec(P_k) / sqrt(d)]: diagonal iff Pauli.
    ``channel`` must be a :class:`Channel` (``channels.checked_channel``)."""
    d = checked_channel(channel, "channel").dim
    n = _qubit_count(d)
    labels = pauli_labels(n)
    ops = _operators(n)
    basis = ops.reshape(len(ops), d * d).T / np.sqrt(d)
    transformed = basis.conj().T @ channel.choi @ basis
    off = transformed - np.diag(np.diag(transformed))
    worst = float(np.abs(off).max())
    raw = np.diag(transformed).real / d
    probs = {label: float(max(0.0, p)) for label, p in zip(labels, raw)}
    total = sum(probs.values())
    probs = {label: p / total for label, p in probs.items()}
    return PauliChannel(n, probs), worst


def pauli_twirl(channel):
    """Average the channel over conjugation by every Pauli operator: the
    Pauli channel on the diagonal of its process matrix (``_projection``),
    with at most 4^n Kraus operators sqrt(p_k) P_k."""
    return _projection(channel)[0].as_channel()


def as_pauli_channel(channel):
    """The Pauli twirl's probabilities, or ValueError unless the channel is
    Pauli: an off-diagonal process-matrix entry above ``PAULI_TOL``."""
    pc, worst = _projection(channel)
    if worst > PAULI_TOL:
        raise ValueError(
            f"channel is not Pauli: off-diagonal Choi weight {worst:.3e} exceeds {PAULI_TOL:.3e}"
        )
    return pc
