"""Seeded random builders shared by the test modules."""

import numpy as np

from gatebounds import channels, pauli
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


def audit_input(seed, index, d):
    """Raw arrays for one benchmark audit item: ideal gate, noise Kraus
    operators and weight, the recipe of the benchmark's ``audit_input``.

    Item ``index`` of ``seed`` is drawn from ``default_rng([seed, index])``;
    the Kraus rank of the noise cycles 1, 2, 3 over the items.
    """
    rng = np.random.default_rng([seed, index])
    rank = 1 + index % 3
    u = random_unitary(rng, d)
    g = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
    isometry, _ = np.linalg.qr(g)
    eps = float(10.0 ** rng.uniform(-3.0, -1.0))
    kraus = [isometry[k * d : (k + 1) * d] for k in range(rank)]
    return {"d": d, "rank": rank, "eps": eps, "u": u, "kraus": kraus}


def audit_channels(inp):
    """The (actual, ideal) pair of one audit item: actual = (1 - eps) U +
    eps N o U with U the ideal gate and N the noise."""
    gate = channels.unitary_channel(inp["u"])
    noise = Channel(inp["kraus"])
    actual = channels.mix([(1.0 - inp["eps"], gate), (inp["eps"], channels.compose(noise, gate))])
    return actual, inp["u"]
