"""The LAPACK eigensolver hand-off and the sampled trace-norm scan."""

import numpy as np

from gatebounds import kernels, linalg


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def scan_inputs(seed, d=2, kraus_count=2, samples=40):
    # random CPTP Kraus stack via a Haar isometry, identity partner, random states
    rng = np.random.default_rng(seed)
    big = rng.standard_normal((kraus_count * d, d)) + 1j * rng.standard_normal((kraus_count * d, d))
    q, _ = np.linalg.qr(big)
    kraus_e = np.ascontiguousarray(q.reshape(kraus_count, d, d))
    kraus_f = np.ascontiguousarray(np.eye(d, dtype=np.complex128)[None])
    raw = rng.standard_normal((samples, d * d)) + 1j * rng.standard_normal((samples, d * d))
    psis = np.ascontiguousarray(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return kraus_e, kraus_f, psis


def test_eigh_kernel_dispatches_to_numpy():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4)
    w, v = kernels.eigh_kernel(h)
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)
    assert np.all(np.diff(w) >= 0.0)


def test_pair_scan_matches_kraus_reference():
    # ((E - F) x id)(|psi><psi|) built term by term from the Kraus operators,
    # system factor first, as the scan reads the rows of psis
    for seed, d in ((11, 2), (15, 3)):
        kraus_e, kraus_f, psis = scan_inputs(seed, d=d, samples=20)
        lift = np.eye(d)
        best = 0.0
        for psi in psis:
            rho = np.outer(psi, psi.conj())
            m = sum(np.kron(k, lift) @ rho @ np.kron(k, lift).conj().T for k in kraus_e)
            m = m - sum(np.kron(k, lift) @ rho @ np.kron(k, lift).conj().T for k in kraus_f)
            best = max(best, 0.5 * linalg.trace_norm(m))
        assert abs(kernels.pair_scan_kernel(kraus_e, kraus_f, psis) - best) <= 1e-12


def test_pair_scan_zero_for_equal_channels():
    kraus_e, _, psis = scan_inputs(13)
    assert kernels.pair_scan_kernel(kraus_e, kraus_e.copy(), psis) <= 1e-12


def test_pair_scan_bounded_by_one():
    kraus_e, kraus_f, psis = scan_inputs(14, kraus_count=3, samples=60)
    val = kernels.pair_scan_kernel(kraus_e, kraus_f, psis)
    assert 0.0 <= val <= 1.0 + 1e-12
