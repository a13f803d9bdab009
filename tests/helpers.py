"""Seeded random builders shared by the test modules."""

import numpy as np

from gatebounds import pauli
from gatebounds.channels import Channel


def random_channel(rng, dim=2, kraus_count=2):
    # the Kraus operators are the blocks of one random isometry
    big = rng.standard_normal((kraus_count * dim, dim)) + 1j * rng.standard_normal(
        (kraus_count * dim, dim)
    )
    q, _ = np.linalg.qr(big)
    return Channel([q[k * dim : (k + 1) * dim] for k in range(kraus_count)])


def random_density(rng, dim=2):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def random_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pauli_channel(rng, qubits):
    labels = pauli.pauli_labels(qubits)
    raw = rng.random(len(labels))
    raw /= raw.sum()
    return pauli.PauliChannel(qubits, dict(zip(labels, raw)))
