"""The LAPACK eigensolver hand-off and the sampled trace-norm scan."""

import numpy as np

from gatebounds import kernels, linalg
from helpers import random_hermitian


def random_kraus(rng, d, kraus_count):
    # random CPTP Kraus stack via a Haar isometry
    big = rng.standard_normal((kraus_count * d, d)) + 1j * rng.standard_normal((kraus_count * d, d))
    q, _ = np.linalg.qr(big)
    return np.ascontiguousarray(q.reshape(kraus_count, d, d))


def scan_inputs(seed, d=2, kraus_count=2, samples=40, partner_count=None):
    # random channel, identity partner unless partner_count asks for a random one, random states
    rng = np.random.default_rng(seed)
    kraus_e = random_kraus(rng, d, kraus_count)
    if partner_count is None:
        kraus_f = np.ascontiguousarray(np.eye(d, dtype=np.complex128)[None])
    else:
        kraus_f = random_kraus(rng, d, partner_count)
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
    cases = ((11, 2, 2, None), (15, 3, 2, None), (16, 4, 2, None), (17, 2, 8, 2), (18, 4, 3, 5))
    for seed, d, kraus_count, partner_count in cases:
        kraus_e, kraus_f, psis = scan_inputs(
            seed, d=d, kraus_count=kraus_count, samples=20, partner_count=partner_count
        )
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


def test_pair_scan_depends_only_on_choi():
    # K'_i = sum_j V_ij K_j with V unitary and the shorter list padded with
    # zero operators: another Kraus representation of the same channel
    rng = np.random.default_rng(19)
    for d, kraus_count, partner_count in ((2, 2, 1), (3, 3, 2), (4, 2, 4)):
        kraus_e, kraus_f, psis = scan_inputs(
            20 + d, d=d, kraus_count=kraus_count, samples=30, partner_count=partner_count
        )
        n = kraus_count + 3
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        padded = np.concatenate([kraus_e, np.zeros((n - kraus_count, d, d), dtype=np.complex128)])
        mixed = np.ascontiguousarray(np.einsum("ij,jab->iab", v, padded))
        assert not np.allclose(mixed[:kraus_count], kraus_e)
        base = kernels.pair_scan_kernel(kraus_e, kraus_f, psis)
        assert base > 1e-3
        assert abs(kernels.pair_scan_kernel(mixed, kraus_f, psis) - base) <= 1e-12
        assert abs(kernels.pair_scan_kernel(kraus_e, mixed, psis)) <= 1e-12


def plain_scan(kraus_e, kraus_f, psis):
    # no reduction and no pruning: the full d^2 x d^2 output of every sample,
    # (I x Psi^T) J (I x Psi^T)^dagger, through eigvalsh
    d = kraus_e.shape[1]
    ve = kraus_e.reshape(len(kraus_e), d * d)
    vf = kraus_f.reshape(len(kraus_f), d * d)
    choi = ve.T @ ve.conj() - vf.T @ vf.conj()
    lift = [np.kron(np.eye(d), psi.reshape(d, d).T) for psi in psis]
    outs = np.array([a @ choi @ a.conj().T for a in lift])
    return float(0.5 * np.abs(np.linalg.eigvalsh(outs)).sum(axis=1).max())


# (d, Kraus count of E, of F): r = r_E + r_F below, at and above d^2, and an
# empty F side
SCAN_SHAPES = (
    (2, 1, 1), (2, 2, 2), (2, 4, 2), (2, 3, 0),
    (3, 2, 1), (3, 5, 4), (3, 8, 3), (3, 9, 0),
    (4, 2, 1), (4, 8, 8), (4, 10, 8), (4, 2, 0),
)


def test_pair_scan_matches_plain_reference():
    for i, (d, kraus_count, partner_count) in enumerate(SCAN_SHAPES):
        rng = np.random.default_rng(40 + i)
        kraus_e = random_kraus(rng, d, kraus_count)
        kraus_f = random_kraus(rng, d, partner_count) if partner_count else np.zeros((0, d, d), complex)
        _, _, psis = scan_inputs(60 + i, d=d, samples=300)
        got = kernels.pair_scan_kernel(kraus_e, kraus_f, psis)
        assert abs(got - plain_scan(kraus_e, kraus_f, psis)) <= 1e-13, (d, kraus_count, partner_count)


def counted_eigvalsh(monkeypatch):
    # the shapes of the matrices each eigvalsh call receives
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_pair_scan_solves_low_rank_samples_at_the_kraus_count(monkeypatch):
    calls = counted_eigvalsh(monkeypatch)
    for d, kraus_count, partner_count in ((2, 2, 1), (3, 2, 1), (4, 2, 1), (4, 3, 0)):
        kraus_e, kraus_f, psis = scan_inputs(70 + d, d=d, kraus_count=kraus_count, samples=200)
        kraus_f = kraus_f[:partner_count]
        calls.clear()
        kernels.pair_scan_kernel(kraus_e, kraus_f, psis)
        r = kraus_count + partner_count
        assert calls and all(shape[-1] <= r for shape in calls), (d, r, calls)


def test_pair_scan_prunes_samples_that_cannot_set_the_maximum(monkeypatch):
    calls = counted_eigvalsh(monkeypatch)
    samples = 2000
    kraus_e, kraus_f, psis = scan_inputs(81, d=2, kraus_count=3, samples=samples, partner_count=2)
    kernels.pair_scan_kernel(kraus_e, kraus_f, psis)
    assert all(shape[-1] == 4 for shape in calls)
    solved = sum(int(np.prod(shape[:-2])) for shape in calls)
    assert 1 <= solved < samples

