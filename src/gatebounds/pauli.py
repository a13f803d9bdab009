"""Pauli operators, Pauli channels, and twirling."""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .channels import Channel

PAULI_TOL = 1e-9

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_labels(qubits):
    """All length-n Pauli labels in lexicographic I, X, Y, Z order."""
    if qubits < 1:
        raise ValueError("need at least one qubit")
    return ["".join(p) for p in product("IXYZ", repeat=qubits)]


def pauli_operator(label):
    """Tensor product of single-qubit Paulis named by ``label``."""
    if not label or any(ch not in PAULI_MATRICES for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}")
    op = PAULI_MATRICES[label[0]]
    for ch in label[1:]:
        op = np.kron(op, PAULI_MATRICES[ch])
    return op


def _qubit_count(dim):
    n = int(round(np.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class PauliChannel:
    """Probabilistic Pauli map: apply operator P_k with probability p_k."""

    qubits: int
    probs: dict

    def __post_init__(self):
        labels = set(pauli_labels(self.qubits))
        if set(self.probs) - labels:
            bad = sorted(set(self.probs) - labels)
            raise ValueError(f"labels {bad} are not {self.qubits}-qubit Paulis")
        values = np.array(list(self.probs.values()), dtype=float)
        if values.size and values.min() < -1e-12:
            raise ValueError("Pauli probabilities must be nonnegative")
        if abs(values.sum() - 1.0) > 1e-12:
            raise ValueError(f"Pauli probabilities sum to {values.sum()!r}, not 1")

    @property
    def dim(self):
        return 2**self.qubits

    @property
    def error_rate(self):
        """Probability that any nonidentity Pauli fires."""
        return 1.0 - self.probs.get("I" * self.qubits, 0.0)

    def as_channel(self):
        kraus = [
            np.sqrt(p) * pauli_operator(label)
            for label, p in sorted(self.probs.items())
            if p > 0.0
        ]
        return Channel(kraus)


def pauli_twirl(channel):
    """Average the channel over conjugation by every Pauli operator.

    The exact 4^n term sum: the twirled channel has Kraus operators
    P_k A_m P_k / 2^n over all pairs.  The result is always a Pauli channel.
    """
    n = _qubit_count(channel.dim)
    scale = 1.0 / 2**n
    kraus = []
    for label in pauli_labels(n):
        p = pauli_operator(label)
        kraus.extend(scale * (p @ a @ p) for a in channel.kraus)
    return Channel(kraus)


def as_pauli_channel(channel, tol=PAULI_TOL):
    """Extract Pauli probabilities from a channel that is Pauli within tol.

    Conjugating the Choi matrix into the basis of flattened Pauli operators
    makes a Pauli channel exactly diagonal, with p_k * dim on the diagonal.
    Any off-diagonal entry above ``tol`` means the channel is not Pauli and a
    ``ValueError`` is raised.
    """
    n = _qubit_count(channel.dim)
    d = channel.dim
    labels = pauli_labels(n)
    basis = np.column_stack([pauli_operator(label).ravel() for label in labels]) / np.sqrt(d)
    transformed = basis.conj().T @ channel.choi @ basis
    off = transformed - np.diag(np.diag(transformed))
    worst = float(np.abs(off).max())
    if worst > tol:
        raise ValueError(
            f"channel is not Pauli: off-diagonal Choi weight {worst:.3e} exceeds {tol:.3e}"
        )
    raw = np.diag(transformed).real / d
    probs = {label: float(max(0.0, p)) for label, p in zip(labels, raw)}
    total = sum(probs.values())
    probs = {label: p / total for label, p in probs.items()}
    return PauliChannel(n, probs)
