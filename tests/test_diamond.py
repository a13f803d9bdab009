"""Diamond distance: closed forms, the SDP path, and their agreement."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gatebounds import bounds, channels, cli, diamond, kernels, pauli, sdp
from gatebounds.channels import Channel
from gatebounds.diamond import DiamondMethod
from helpers import random_channel, random_hermitian, random_pauli_channel, random_unitary
from test_sdp import flat_problem


def test_unitary_closed_form_identity():
    res = diamond.unitary_diamond_distance(np.eye(3))
    assert res.value == 0.0
    assert res.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert res.lower_certificate == res.upper_certificate == 0.0


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 2.0])
def test_unitary_closed_form_single_phase(theta):
    res = diamond.unitary_diamond_distance(np.diag([1.0, np.exp(1j * theta)]))
    assert res.value == pytest.approx(math.sin(theta / 2.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.2, 0.7, 1.4])
def test_unitary_closed_form_rotation(theta):
    # arc from -theta to +theta has width 2 theta
    u = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    res = diamond.unitary_diamond_distance(u)
    want = 1.0 if 2 * theta >= np.pi else math.sin(theta)
    assert res.value == pytest.approx(want, abs=1e-12)


def test_unitary_closed_form_saturates_at_pi_arc():
    res = diamond.unitary_diamond_distance(np.diag([1.0, 1j, -1.0]))
    assert res.value == 1.0


def test_unitary_closed_form_ignores_global_phase():
    rng = np.random.default_rng(70)
    u = random_unitary(rng, 3)
    a = diamond.unitary_diamond_distance(u)
    b = diamond.unitary_diamond_distance(np.exp(0.9j) * u)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_unitary_pair_within_tolerance_takes_the_closed_form():
    # each channel alone passes Channel's test with defect 9.0e-10, and
    # U_f^dagger U_e compounds it to 1.8e-9: the closed form still applies
    s = 1 + 0.45e-9
    u = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    res = diamond.diamond_distance(Channel([s * u]), Channel([s * np.eye(2)]))
    assert res.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert res.value == 0.2955202066613394 == pytest.approx(math.sin(0.3), abs=1e-15)


def test_pauli_closed_form_is_total_variation():
    p = pauli.PauliChannel(1, {"I": 0.85, "X": 0.05, "Y": 0.05, "Z": 0.05})
    q = pauli.PauliChannel(1, {"I": 0.9, "X": 0.1})
    res = diamond.diamond_distance(p.as_channel(), q.as_channel())
    assert res.method is DiamondMethod.PAULI_CLOSED_FORM
    assert res.value == pytest.approx(0.1, abs=1e-12)
    from_identity = diamond.diamond_distance(p.as_channel())
    assert from_identity.method is DiamondMethod.PAULI_CLOSED_FORM
    assert from_identity.value == pytest.approx(0.15, abs=1e-12)


def test_auto_dispatch_selects_methods():
    assert (
        diamond.diamond_distance(channels.unitary_error(0.3)).method
        is DiamondMethod.UNITARY_CLOSED_FORM
    )
    assert (
        diamond.diamond_distance(channels.depolarizing(0.2)).method
        is DiamondMethod.PAULI_CLOSED_FORM
    )
    assert diamond.diamond_distance(channels.amplitude_damping(0.2)).method is DiamondMethod.SDP


def test_sdp_matches_unitary_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(20):
        u = random_unitary(rng, 2)
        ch = channels.unitary_channel(u)
        closed = diamond.diamond_distance(ch).value
        via_sdp = diamond.diamond_distance(ch, method="sdp").value
        assert abs(via_sdp - closed) <= 1e-6


def test_sdp_matches_pauli_closed_form():
    rng = np.random.default_rng(72)
    for _ in range(20):
        pc = random_pauli_channel(rng, 1)
        via_sdp = diamond.diamond_distance(pc.as_channel(), method="sdp").value
        assert abs(via_sdp - pc.error_rate) <= 1e-6


def short_arc_unitary(rng, n, arc):
    # Haar eigenbasis (that of a GUE matrix), eigenphases spread over arc
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh(a + a.conj().T)
    phases = arc * (w - w[0]) / (w[-1] - w[0])
    return (v * np.exp(1j * phases)) @ v.conj().T


@pytest.mark.parametrize("d", [2, 3, 4])
def test_forced_sdp_certificates_bracket_closed_forms(d):
    # the certified interval, not just the point value, must contain the
    # exact distance: Haar unitaries (at d >= 3 their arc usually saturates
    # the distance at 1), unitaries whose distance stays below 1, and at
    # qubit dimensions the Pauli twirls of both
    rng = np.random.default_rng(75 + d)
    for u in (random_unitary(rng, d), short_arc_unitary(rng, d, 1.0 + rng.random())):
        ch = channels.unitary_channel(u)
        cases = [(ch, diamond.unitary_diamond_distance(u).value)]
        if d != 3:
            twirled = pauli.pauli_twirl(ch)
            cases.append((twirled, pauli.as_pauli_channel(twirled).error_rate))
        for channel, closed in cases:
            res = diamond.diamond_distance(channel, method="sdp")
            assert res.method is DiamondMethod.SDP
            assert res.lower_certificate <= closed <= res.upper_certificate


def test_sdp_cross_checks_arc_saturation():
    ch = channels.unitary_channel(np.diag([1.0, 1j, -1.0]))
    via_sdp = diamond.diamond_distance(ch, method="sdp")
    assert via_sdp.value == pytest.approx(1.0, abs=1e-6)
    assert via_sdp.upper_certificate <= 1.0


def test_sdp_zero_for_equal_channels():
    ch = channels.amplitude_damping(0.4)
    res = diamond.diamond_distance(ch, ch, method="sdp")
    assert res.value <= 1e-7
    assert res.lower_certificate >= 0.0


def test_amplitude_damping_distance_is_decay_probability():
    res = diamond.diamond_distance(channels.amplitude_damping(0.3))
    assert res.method is DiamondMethod.SDP
    assert res.value == pytest.approx(0.3, abs=1e-6)
    bf = diamond.brute_force_lower_bound(channels.amplitude_damping(0.3), samples=2000, seed=1)
    assert bf <= res.value + 1e-8
    assert bf >= 0.27


def test_certificates_bracket_value():
    for ch in (
        channels.amplitude_damping(0.15),
        channels.depolarizing(0.3),
        channels.unitary_error(0.6),
    ):
        res = diamond.diamond_distance(ch, method="sdp")
        assert 0.0 <= res.lower_certificate <= res.value <= res.upper_certificate <= 1.0
        assert res.upper_certificate - res.lower_certificate <= 1e-5


def test_brute_force_brackets_unitary_error():
    theta = 0.3
    ch = channels.unitary_error(theta)
    bf = diamond.brute_force_lower_bound(ch, samples=2000, seed=2)
    assert 0.9 * math.sin(theta) <= bf <= math.sin(theta) + 1e-9


def test_brute_force_never_exceeds_closed_form():
    ch = channels.depolarizing(0.1)
    bf = diamond.brute_force_lower_bound(ch, samples=2000, seed=3)
    assert bf <= 0.075 + 1e-12
    assert bf >= 0.06


def test_brute_force_validation():
    ch = channels.identity_channel(2)
    for bad in (0, -3, True, False, np.True_, 2.5, math.nan, math.inf, -math.inf, "10", None):
        with pytest.raises(ValueError, match="samples"):
            diamond.brute_force_lower_bound(ch, samples=bad)
    assert diamond.brute_force_lower_bound(ch, samples=np.int64(3)) == 0.0
    # an integer-valued float is an integer
    noisy = channels.amplitude_damping(0.3)
    assert diamond.brute_force_lower_bound(noisy, samples=3.0) == diamond.brute_force_lower_bound(noisy, samples=3)
    with pytest.raises(ValueError):
        diamond.brute_force_lower_bound(
            channels.identity_channel(2), channels.identity_channel(3)
        )


def test_brute_force_is_zero_for_one_channel_in_two_kraus_forms():
    # K'_i = sum_j V_ij K_j for a unitary V: the same channel, whose Choi
    # difference is rounding only, so the rank cut keeps no term
    rng = np.random.default_rng(31)
    for d, rank in ((2, 3), (4, 2)):
        ch = random_channel(rng, d, rank)
        v = random_unitary(rng, rank)
        mixed = Channel([sum(v[i, j] * k for j, k in enumerate(ch.kraus)) for i in range(rank)])
        assert not np.allclose(mixed.kraus[0], ch.kraus[0])
        assert 0.0 < float(np.abs(mixed.choi - ch.choi).max()) < 1e-14
        assert diamond.brute_force_lower_bound(ch, mixed, samples=200) == 0.0


def test_brute_force_scans_through_the_kernel_attribute_once(monkeypatch):
    # perfbench times the scan by wrapping kernels.pair_scan_kernel, so the
    # bound must look it up on the module at call time, once per call
    shapes = []
    scan = kernels.pair_scan_kernel

    def counted(kraus_e, kraus_f, psis):
        shapes.append((kraus_e.shape, kraus_f.shape, psis.shape))
        return scan(kraus_e, kraus_f, psis)

    monkeypatch.setattr(kernels, "pair_scan_kernel", counted)
    got = diamond.brute_force_lower_bound(channels.amplitude_damping(0.3), samples=50, seed=4)
    assert got > 0.0
    # J of amplitude damping less the identity has rank 3: the kernel gets
    # its two positive and one negative term, not the channels' Kraus lists
    assert shapes == [((2, 2, 2), (1, 2, 2), (50, 4))]


@pytest.mark.parametrize(
    "channel, want",
    [
        (channels.amplitude_damping(0.3), 0.3),
        (channels.depolarizing(0.1), 0.075),
        (channels.unitary_error(0.3), None),
    ],
    ids=["amplitude-damping", "depolarizing", "unitary-error"],
)
def test_ascent_reaches_the_distance(channel, want):
    # the 2000-sample scan falls 5.3e-3 short on amplitude damping
    if want is None:
        want = diamond.diamond_distance(channel, method="sdp").value
    assert diamond.ascent_lower_bound(channel) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ascent_lies_between_the_scan_and_the_upper_certificate(d):
    rng = np.random.default_rng(40 + d)
    pairs = [(random_channel(rng, d, 2), random_channel(rng, d, 1))]
    pairs.append((random_channel(rng, d, 3), channels.identity_channel(d)))
    for e, f in pairs:
        res = diamond.diamond_distance(e, f, method="sdp")
        ascent = diamond.ascent_lower_bound(e, f, seed=5)
        sampled = diamond.brute_force_lower_bound(e, f, samples=2000, seed=5)
        assert sampled - 1e-15 <= ascent <= res.upper_certificate


def test_ascent_never_falls_as_the_step_cap_grows(monkeypatch):
    rng = np.random.default_rng(48)
    e, f = random_channel(rng, 3, 2), random_channel(rng, 3, 2)
    got = []
    for steps in (0, 1, 2, 5):
        monkeypatch.setattr(diamond, "ASCENT_STEPS", steps)
        got.append(diamond.ascent_lower_bound(e, f, seed=1))
    assert got == sorted(got)
    assert got[0] < got[-1]


def test_ascent_is_zero_for_one_channel_in_two_kraus_forms():
    rng = np.random.default_rng(31)
    for d, rank in ((2, 3), (4, 2)):
        ch = random_channel(rng, d, rank)
        v = random_unitary(rng, rank)
        mixed = Channel([sum(v[i, j] * k for j, k in enumerate(ch.kraus)) for i in range(rank)])
        assert 0.0 < float(np.abs(mixed.choi - ch.choi).max()) < 1e-14
        assert diamond.ascent_lower_bound(ch, mixed) == 0.0


def test_ascent_rejects_a_dimension_mismatch_like_the_scan():
    pair = (channels.identity_channel(2), channels.identity_channel(3))
    with pytest.raises(ValueError) as scan:
        diamond.brute_force_lower_bound(*pair)
    with pytest.raises(ValueError) as ascent:
        diamond.ascent_lower_bound(*pair)
    with pytest.raises(ValueError) as batch:
        diamond.ascent_lower_bounds([(channels.depolarizing(0.1), None), pair], [0, 1])
    assert str(ascent.value) == str(scan.value) == str(batch.value) == "channels differ in dimension"


@pytest.mark.parametrize("seed", [True, False, 1.5, math.inf, "a", None, -1, np.int64(-2)])
def test_ascent_and_scan_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    ch = channels.amplitude_damping(0.3)
    calls = (
        lambda: diamond.ascent_lower_bound(ch, seed=seed),
        lambda: diamond.ascent_lower_bounds([(ch, None), (ch, None)], [0, seed]),
        lambda: diamond.brute_force_lower_bound(ch, samples=10, seed=seed),
    )
    message = f"^seed must be an integer of at least 0, got {re.escape(repr(seed))}$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_ascent_batch_refuses_a_seed_count_that_differs_from_the_pairs():
    ch = channels.amplitude_damping(0.3)
    with pytest.raises(ValueError, match="pairs and seeds differ in length: 1 against 2"):
        diamond.ascent_lower_bounds([(ch, None)], [0, 1])
    with pytest.raises(ValueError, match="pairs and seeds differ in length: 2 against 0"):
        diamond.ascent_lower_bounds([(ch, None), (ch, None)], [])


def test_ascent_batch_equals_each_pair_alone(monkeypatch):
    rng = np.random.default_rng(50)
    ch = random_channel(rng, 2, 3)
    v = random_unitary(rng, 3)
    mixed = Channel([sum(v[i, j] * k for j, k in enumerate(ch.kraus)) for i in range(3)])
    # rank 0 (no ascent), then a pair that stops on its rise test and one
    # still rising at the step cap
    early, capped = (channels.amplitude_damping(0.3), None), (random_channel(rng, 3, 1), None)
    pairs, seeds = [(ch, mixed), early, capped], [0, 7, 7]
    # under 2^11 entries, 38 pairs at d = 2 fill more than one stack of 32
    # and 5 at d = 4 three of 2; 2^14 and 2^20 leave one stack per dimension
    for d, count in ((2, 36), (3, 4), (4, 5)):
        for i in range(count):
            other = None if i % 2 else random_channel(rng, d, 1)
            pairs.append((random_channel(rng, d, 1 + i % 3), other))
            seeds.append(int(rng.integers(2**32)))
    alone = [diamond.ascent_lower_bound(e, f, seed=s) for (e, f), s in zip(pairs, seeds)]
    assert alone[0] == 0.0
    # the batch gets the dimensions interleaved and half the seeds as numpy integers
    order = rng.permutation(len(pairs))
    batch_pairs = [pairs[i] for i in order]
    batch_seeds = [np.int64(seeds[i]) if i % 2 else seeds[i] for i in order]
    for entries in (2**11, diamond.STACK_ENTRIES, 2**20):
        monkeypatch.setattr(diamond, "STACK_ENTRIES", entries)
        assert diamond.ascent_lower_bounds(batch_pairs, batch_seeds) == [alone[i] for i in order]
    assert diamond.ascent_lower_bounds([], []) == []

    def bounds_at(steps):
        monkeypatch.setattr(diamond, "ASCENT_STEPS", steps)
        return diamond.ascent_lower_bounds([early, capped], [7, 7])

    cap = diamond.ASCENT_STEPS
    last, at_cap, doubled = bounds_at(cap - 1), bounds_at(cap), bounds_at(2 * cap)
    assert at_cap[0] == doubled[0] and at_cap[1] > last[1]


PAULI_DISTANCE = """
from gatebounds import channels, diamond
print(repr(diamond.diamond_distance(channels.depolarizing(0.155)).value))
"""


def test_pauli_closed_form_does_not_depend_on_the_string_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(diamond.__file__).parent.parent))
    seen = set()
    for seed in ("1", "4", "5", "8"):
        proc = subprocess.run(
            [sys.executable, "-c", PAULI_DISTANCE],
            capture_output=True,
            text=True,
            env={**env, "PYTHONHASHSEED": seed},
            check=True,
        )
        seen.add(proc.stdout.strip())
    assert len(seen) == 1, seen


def refuse_to_build(*args, **kwargs):
    raise AssertionError("a refused pair reached the solver or the template")


def test_row_cap_refuses_before_anything_is_built(monkeypatch, tmp_path, capsys):
    # nothing may be built for a refused pair
    monkeypatch.setattr(sdp, "solve", refuse_to_build)
    monkeypatch.setattr(diamond, "_template", refuse_to_build)
    monkeypatch.setattr(diamond, "_ChoiOperator", refuse_to_build)
    monkeypatch.setattr(diamond, "_encode_fidelity", refuse_to_build)
    rng = np.random.default_rng(99)
    # the real cap: a high-rank d = 18 pair (r = 36) is the structured path,
    # whose (d^2, d^2, d^2) stack has 18^6 entries
    wide = random_channel(rng, 18, 18), random_channel(rng, 18, 18)
    with pytest.raises(ValueError, match=r"structured path needs an array of 34012224 entries, above the cap of 33554432"):
        diamond.diamond_distance(*wide)
    # a lowered cap refuses a high-rank d = 4 pair (r = 13, 4^6 entries)
    monkeypatch.setattr(diamond, "MAX_ENTRIES", 4095)
    ch = random_channel(rng, 4, 12)
    message = r"dimension 4 diamond SDP on the structured path needs an array of 4096 entries, above the cap of 4095"
    with pytest.raises(ValueError, match=message):
        diamond.diamond_distance(ch)
    with pytest.raises(ValueError, match=message):
        bounds.audit(ch, np.eye(4))
    path = tmp_path / "wide.json"
    kraus = [[[[float(z.real), float(z.imag)] for z in row] for row in k] for k in ch.kraus]
    path.write_text(json.dumps({"dim": 4, "kind": "kraus", "kraus": kraus}))
    assert cli.main(["analyze", str(path)]) == 1
    assert re.search(message, capsys.readouterr().err)
    # the fidelity path counts its (m, 2 (m - 2) + 2 d^2) constraint matrix:
    # r = 2 at d = 3 is 10 rows and 340 entries
    monkeypatch.setattr(diamond, "MAX_ENTRIES", 339)
    with pytest.raises(ValueError, match=r"fidelity path needs an array of 340 entries"):
        diamond.diamond_distance(channels.generalized_cphase(3, 0.4), method="sdp")
    # the closed forms are dispatched before the check
    assert diamond.diamond_distance(channels.generalized_cphase(4, 0.4)).route is None


def test_large_unitary_still_dispatches_to_closed_form():
    ch = channels.generalized_cphase(8, 0.4)
    res = diamond.diamond_distance(ch)
    assert res.method is DiamondMethod.UNITARY_CLOSED_FORM
    assert res.value == pytest.approx(math.sin(0.2), abs=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError, match="method"):
        diamond.diamond_distance(channels.identity_channel(2), method="bogus")
    with pytest.raises(ValueError, match="dimension"):
        diamond.diamond_distance(channels.identity_channel(2), channels.identity_channel(3))


def test_recorded_solves_see_each_solve():
    with diamond.recorded_solves() as records:
        ch = channels.amplitude_damping(0.25)
        res = diamond.diamond_distance(ch, method="sdp")
    assert len(records) == 1
    rec = records[0]
    assert rec.result is res and rec.result.route == "choi"
    assert rec.e is ch and rec.f.dim == 2
    # the record keeps the verification figures, not the problem or iterate
    assert [field.name for field in dataclasses.fields(rec)] == ["e", "f", "checked", "result"]
    assert rec.checked["gap"] <= 1e-8 and rec.checked["primal_residual"] <= 1e-8
    assert len(rec.checked["z_eig_ranges"]) == 3


def test_nested_recorded_solves_share_each_record():
    ch = channels.amplitude_damping(0.25)
    with diamond.recorded_solves() as outer:
        diamond.diamond_distance(ch, method="sdp")
        with diamond.recorded_solves() as inner:
            res = diamond.diamond_distance(ch, method="sdp")
        assert len(inner) == 1 and inner[0].result is res
        diamond.diamond_distance(ch, method="sdp")
    assert len(outer) == 3 and outer[1] is inner[0]
    assert len(inner) == 1


def test_recorded_solves_stop_when_the_block_is_left():
    ch = channels.amplitude_damping(0.25)
    with pytest.raises(RuntimeError, match="left"):
        with diamond.recorded_solves() as records:
            diamond.diamond_distance(ch, method="sdp")
            raise RuntimeError("left")
    diamond.diamond_distance(ch, method="sdp")
    with diamond.recorded_solves() as later:
        diamond.diamond_distance(ch, method="sdp")
    assert len(records) == 1 and len(later) == 1


def test_no_record_is_built_outside_a_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a SolveRecord was built")

    monkeypatch.setattr(diamond, "SolveRecord", refuse)
    res = diamond.diamond_distance(channels.amplitude_damping(0.25), method="sdp")
    assert res.method is DiamondMethod.SDP


def test_recorded_solves_see_only_their_own_thread():
    # a new thread starts in an empty context, outside the block
    ch = channels.amplitude_damping(0.25)
    results = []
    with diamond.recorded_solves() as records:
        worker = threading.Thread(target=lambda: results.append(diamond.diamond_distance(ch, method="sdp")))
        worker.start()
        worker.join()
    assert len(results) == 1 and results[0].method is DiamondMethod.SDP
    assert records == []


def solve_counts(monkeypatch):
    # the iteration counts of every solution the loop returns, in order
    counts = []
    real = sdp.solve_batch

    def counting(*args, **kwargs):
        solutions = real(*args, **kwargs)
        counts.extend(sol.iterations for sol in solutions)
        return solutions

    monkeypatch.setattr(sdp, "solve_batch", counting)
    return counts


def batch_pairs():
    # eight d = 2 pairs on the "choi" path, with different iteration counts
    rng = np.random.default_rng(41)
    pairs = [(random_channel(rng, 2, 2 + i % 2), None if i % 2 else random_channel(rng, 2, 1)) for i in range(6)]
    pairs.append((channels.amplitude_damping(0.3), None))
    pairs.append((channels.amplitude_damping(0.05), channels.depolarizing(0.1)))
    return pairs


def test_a_batch_mate_changes_nothing(monkeypatch):
    # a pair solved alone and inside a batch, in two orders and two stack
    # sizes: the same value, both certificate ends, verification figures
    # and iteration count, to the last bit
    pairs = batch_pairs()
    counts = solve_counts(monkeypatch)
    with diamond.recorded_solves() as records:
        alone = [diamond.diamond_distance(e, f, method="sdp") for e, f in pairs]
    alone_counts, alone_checked = list(counts), [rec.checked for rec in records]
    assert len(set(alone_counts)) > 1
    for order in (list(range(len(pairs))), [5, 2, 7, 0, 3, 6, 1, 4]):
        for entries in (diamond.STACK_ENTRIES, 3 * 612):
            monkeypatch.setattr(diamond, "STACK_ENTRIES", entries)
            counts.clear()
            with diamond.recorded_solves() as records:
                batch = diamond.diamond_distances([pairs[i] for i in order], method="sdp")
            assert batch == [alone[i] for i in order]
            assert [rec.checked for rec in records] == [alone_checked[i] for i in order]
            # stacks of 3 return their members in submission order too
            assert counts == [alone_counts[i] for i in order]


def test_one_stacking_rule_cuts_both_kinds_of_stack():
    # in order, under the budget, at least one member per stack; and the
    # members per stack of the module docstring's table at d = 2..8
    third = diamond.STACK_ENTRIES // 3
    assert diamond._stacks(list(range(7)), third) == [[0, 1, 2], [3, 4, 5], [6]]
    assert diamond._stacks(list(range(2)), diamond.STACK_ENTRIES + 1) == [[0], [1]]

    def members(entries):
        return len(diamond._stacks(list(range(300)), entries)[0])

    assert [members(diamond.ASCENT_STARTS * d**4) for d in range(2, 9)] == [256, 50, 16, 6, 3, 1, 1]
    # a full-rank J: "choi" below d = 4, where only "choi" pairs stack
    plans = [diamond._plan(np.eye(d * d), d) for d in range(2, 9)]
    sizes = [members(entries if path == "choi" else diamond.STACK_ENTRIES) for path, entries in plans]
    assert sizes == [26, 1, 1, 1, 1, 1, 1]


def test_a_batch_stacks_choi_pairs_under_the_entry_cap(monkeypatch):
    # (d^4 + 1)(2 d^4 + d^2) = 612 entries per d = 2 pair: a cap of 3 pairs
    # makes stacks of 3, 3 and 2; closed forms and other paths stay out
    sizes = []
    real = sdp.solve_batch

    def sizing(problem, start=None):
        sizes.append(len(problem.c) if problem.c.ndim == 2 else 1)
        return real(problem, start)

    monkeypatch.setattr(sdp, "solve_batch", sizing)
    monkeypatch.setattr(diamond, "STACK_ENTRIES", 3 * 612 + 611)
    pairs = batch_pairs()
    fidelity = (channels.mix([(0.9, channels.generalized_cphase(3, 0.4)), (0.1, channels.identity_channel(3))]), None)
    unitary = (channels.unitary_error(0.3), None)
    got = diamond.diamond_distances(pairs[:4] + [unitary, fidelity] + pairs[4:])
    assert sizes == [3, 3, 2, 1]
    assert got[4].method is DiamondMethod.UNITARY_CLOSED_FORM and got[5].route == "fidelity"


def test_a_failing_batch_member_raises_its_own_error(monkeypatch):
    # a cap between two members' iteration counts: the slow pair raises the
    # error it raises alone, once the fast pair before it is recorded with
    # the result it has alone
    pairs = batch_pairs()
    counts = solve_counts(monkeypatch)
    for e, f in pairs:
        diamond.diamond_distance(e, f, method="sdp")
    fast, slow = pairs[int(np.argmin(counts))], pairs[int(np.argmax(counts))]
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", min(counts))
    want = diamond.diamond_distance(*fast, method="sdp")
    with pytest.raises(sdp.SolverError) as alone:
        diamond.diamond_distance(*slow, method="sdp")
    assert "(choi path) stopped unconverged (max_iterations)" in str(alone.value)
    with diamond.recorded_solves() as records:
        with pytest.raises(sdp.SolverError) as batched:
            diamond.diamond_distances([fast, slow], method="sdp")
    assert str(batched.value) == str(alone.value)
    assert [rec.result for rec in records] == [want]
    with diamond.recorded_solves() as records:
        with pytest.raises(sdp.SolverError, match=re.escape(str(alone.value))):
            diamond.diamond_distances([slow, fast], method="sdp")
    assert records == []


def test_distances_check_their_arguments_like_one_distance(monkeypatch):
    assert diamond.diamond_distances([]) == []
    two, three = channels.identity_channel(2), channels.identity_channel(3)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        diamond.diamond_distances([(two, None)], method="bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        diamond.diamond_distances([], method="bogus")
    # a bad pair anywhere refuses the call before anything is solved
    monkeypatch.setattr(sdp, "solve_batch", None)
    with pytest.raises(ValueError, match="channels differ in dimension"):
        diamond.diamond_distances([(channels.amplitude_damping(0.3), None), (two, three)])
    monkeypatch.setattr(diamond, "MAX_ENTRIES", 611)
    with pytest.raises(ValueError, match="dimension 2 diamond SDP on the choi path needs an array of 612"):
        diamond.diamond_distances([(channels.unitary_error(0.3), None), (channels.amplitude_damping(0.3), None)])


def test_distances_record_their_solves_in_submission_order():
    # closed forms are not recorded; the SDP pairs reach the block in the
    # order they were submitted, whatever their path and stack
    rng = np.random.default_rng(43)
    d2 = [(random_channel(rng, 2, 2), random_channel(rng, 2, 1)) for _ in range(3)]
    fidelity = (channels.mix([(0.9, channels.generalized_cphase(3, 0.4)), (0.1, channels.identity_channel(3))]), None)
    structured = (random_channel(rng, 4, 12), None)
    closed = [(channels.unitary_error(0.3), None), (channels.depolarizing(0.1), channels.depolarizing(0.2))]
    pairs = [d2[0], closed[0], fidelity, d2[1], structured, closed[1], d2[2]]
    with diamond.recorded_solves() as records:
        results = diamond.diamond_distances(pairs)
    assert [r.route for r in results] == ["choi", None, "fidelity", "choi", "choi", None, "choi"]
    solved = [0, 2, 3, 4, 6]
    assert [rec.result for rec in records] == [results[i] for i in solved]
    for rec, i in zip(records, solved):
        e, f = pairs[i]
        assert rec.e is e and (rec.f is f if f is not None else rec.f.dim == e.dim)


def check_unconverged_solve_raises(monkeypatch, channel, path):
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    with pytest.raises(sdp.SolverError, match=rf"\({path} path\) stopped unconverged \(max_iterations\)"):
        diamond.diamond_distance(channel, method="sdp")


def test_unconverged_solve_raises(monkeypatch):
    check_unconverged_solve_raises(monkeypatch, channels.amplitude_damping(0.1), "choi")


def test_unconverged_fidelity_route_solve_raises(monkeypatch):
    check_unconverged_solve_raises(monkeypatch, channels.generalized_cphase(3, 0.4), "fidelity")


def scale_encoder(monkeypatch, factor):
    # a miswired encoder: every encoding reads eta off the solver's value
    # with the wrong scale
    real = diamond._encoding

    def wrong(j_delta, d, path):
        encoding = real(j_delta, d, path)
        return encoding._replace(scale=factor * encoding.scale)

    monkeypatch.setattr(diamond, "_encoding", wrong)


@pytest.mark.parametrize(
    "channel, path",
    [
        (channels.amplitude_damping(0.1), "choi"),
        (channels.generalized_cphase(3, 0.4), "fidelity"),
        (random_channel(np.random.default_rng(96), 4, 12), "structured"),
    ],
    ids=["choi", "fidelity", "structured"],
)
def test_halved_encoder_scale_crosses_the_interval(monkeypatch, channel, path):
    # an encoder that under-reports puts the dual upper end below the witness
    # lower end, which the encoder does not touch, on every solve
    scale_encoder(monkeypatch, 0.5)
    with pytest.raises(sdp.SolverError, match=rf"\({path} path\) certified a crossed interval: witness lower end"):
        diamond.diamond_distance(channel, method="sdp")


@pytest.mark.parametrize("dim", [2, 3], ids=["choi", "fidelity"])
def test_doubled_encoder_scale_leaves_a_valid_interval_and_a_wrong_value(monkeypatch, dim):
    # an encoder that over-reports leaves a valid but wide interval, so only
    # a comparison of the value with an exact one catches it
    channel = channels.generalized_cphase(dim, 0.4)
    exact = diamond.diamond_distance(channel).value
    scale_encoder(monkeypatch, 2.0)
    res = diamond.diamond_distance(channel, method="sdp")
    assert res.lower_certificate <= exact <= res.upper_certificate
    assert res.value == pytest.approx(2.0 * exact, rel=1e-6)


FIRST_CALLS = """
import numpy as np
from gatebounds import channels, diamond, sdp
from helpers import random_channel

real = sdp.solve
calls = []


def counted(*args, **kwargs):
    calls.append(args)
    return real(*args, **kwargs)


sdp.solve = counted
pairs = [
    channels.amplitude_damping(0.1),
    channels.generalized_cphase(3, 0.4),
    random_channel(np.random.default_rng(96), 4, 12),
]
for channel in pairs:
    before = len(calls)
    e = channel.choi - channels.identity_channel(channel.dim).choi
    path = diamond._plan(e, channel.dim)[0]
    diamond.diamond_distance(channel, method="sdp")
    print(path, len(calls) - before)
"""


def test_first_solve_on_each_path_is_the_only_solve():
    # no hidden solve: in a fresh process, the first SDP on each path solves
    # exactly once
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(diamond.__file__).parent.parent), str(here)]))
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["choi 1", "fidelity 1", "structured 1"]


def from_scratch_encoding(j_delta, d):
    # the diamond SDP built row by row, with its own partial traces, as a
    # reference for the template and the structured operator
    d2 = d * d
    zero_w, zero_r = np.zeros((d2, d2)), np.zeros((d, d))
    basis = diamond._matrices(np.eye(d2 * d2), d2)
    rows = [[f, f, -np.einsum("ijil->jl", f.reshape(d, d, d, d))] for f in basis]
    rows.append([zero_w, zero_w, np.eye(d)])
    rhs = [0.0] * (len(rows) - 1) + [1.0]
    return flat_problem([d2, d2, d], [-j_delta, zero_w, zero_r], rows, rhs)


def random_choi_difference(rng, d):
    gate = channels.unitary_channel(random_unitary(rng, d))
    e = channels.mix([(0.8, gate), (0.2, channels.identity_channel(d))])
    return e.choi - channels.identity_channel(d).choi


@pytest.mark.parametrize("d", [2, 3, 4])
def test_encode_matches_a_from_scratch_problem(d):
    # both Choi paths, equal entry for entry up to the sign of zero: the
    # adjoint writes +0.0 where -Tr_1 F writes -0.0
    path = "structured" if d == 4 else "choi"
    rng = np.random.default_rng(80 + d)
    j = random_choi_difference(rng, d)
    got, want = diamond._encoding(j, d, path).problem, from_scratch_encoding(j, d)
    assert got.block_dims == want.block_dims and got.runs == want.runs
    names = ("a", "b", "c") if path == "choi" else ("b",)
    for name in names:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w), name
    if path == "choi":
        return
    # the structured operator: its objective and both directions of its
    # constraint operator
    n = d * d
    np.testing.assert_allclose(got.c, want.c, rtol=0, atol=1e-15)
    for _ in range(3):
        x = np.concatenate([random_hermitian(rng, k).ravel() for k in (n, n, d)])
        y = rng.standard_normal(n * n + 1)
        want_x, want_y = want.apply(x), want.adjoint(y)
        np.testing.assert_allclose(got.apply(x), want_x, rtol=0, atol=1e-15 * np.abs(want_x).max())
        np.testing.assert_allclose(got.adjoint(y), want_y, rtol=0, atol=1e-15 * np.abs(want_y).max())


def from_scratch_fidelity_encoding(ops, signs):
    # the fidelity route's SDP built row by row with plain loops, from
    # G_A*(F) = sum_ij F_ji A_j^dagger A_i and G_B*(F) = G_A*(S F S)
    r, d = len(ops), ops.shape[1]
    zr, zd = np.zeros((r, r)), np.zeros((d, d))

    def g_adjoint(f, flip):
        out = np.zeros((d, d), dtype=complex)
        for j in range(r):
            for i in range(r):
                weight = signs[j] * signs[i] if flip else 1.0
                out += weight * f[j, i] * (ops[j].conj().T @ ops[i])
        return out

    basis = diamond._matrices(np.eye(r * r), r)
    rows = [[np.block([[f, zr], [zr, zr]]), -g_adjoint(f, False), zd] for f in basis]
    rows += [[np.block([[zr, zr], [zr, f]]), zd, -g_adjoint(f, True)] for f in basis]
    rows.append([np.zeros((2 * r, 2 * r)), np.eye(d), zd])
    rows.append([np.zeros((2 * r, 2 * r)), zd, np.eye(d)])
    rhs = [0.0] * (2 * r * r) + [1.0, 1.0]
    swap = np.block([[zr, np.eye(r)], [np.eye(r), zr]])
    return flat_problem([2 * r, d, d], [-0.5 * swap, zd, zd], rows, rhs)


@pytest.mark.parametrize("d, r", [(3, 2), (3, 3), (4, 3)])
def test_encode_fidelity_matches_a_from_scratch_problem(d, r):
    # random operators and mixed signs; the rows of G_A* sum in another
    # order than the reference's loops, so they agree to rounding
    rng = np.random.default_rng(90 + 10 * d + r)
    ops = rng.standard_normal((r, d, d)) + 1j * rng.standard_normal((r, d, d))
    signs = np.array([1.0, -1.0, 1.0][:r])
    got, want = diamond._encode_fidelity(ops, signs), from_scratch_fidelity_encoding(ops, signs)
    assert got.block_dims == want.block_dims == (2 * r, d, d)
    assert got.num_constraints == 2 * r * r + 2
    for name in ("a", "b", "c"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
    assert np.array_equal(got.b, want.b) and np.array_equal(got.c, want.c)
    scale = np.abs(want.a).max()
    np.testing.assert_allclose(got.a, want.a, rtol=0, atol=4 * r * r * diamond.EPS * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hermitian_basis_is_orthonormal(n):
    basis = diamond._matrices(np.eye(n * n), n)
    assert basis.shape == (n * n, n, n)
    assert np.array_equal(basis, basis.conj().mT)
    gram = np.einsum("iab,jba->ij", basis, basis).real
    np.testing.assert_allclose(gram, np.eye(n * n), rtol=0, atol=1e-15)


def test_encodings_share_one_read_only_template():
    rng = np.random.default_rng(82)
    first = diamond._encoding(random_choi_difference(rng, 2), 2, "choi").problem
    second = diamond._encoding(random_choi_difference(rng, 2), 2, "choi").problem
    assert np.shares_memory(first.a, second.a) and np.shares_memory(first.b, second.b)
    assert not np.shares_memory(first.c, second.c)
    with pytest.raises(ValueError, match="read-only"):
        first.a[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        first.b[0] = 1.0
    # W and S form one run, assembled from a view of the shared matrix
    stack, _ = first._run_stacks[0]
    assert stack.shape == (17, 2, 4, 4) and np.shares_memory(stack, second.a)


def test_repeated_solves_build_one_template():
    diamond._template.cache_clear()
    for p in (0.1, 0.2, 0.3):
        diamond.diamond_distance(channels.amplitude_damping(p), method="sdp")
    info = diamond._template.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_template_cache_keeps_only_small_dimensions():
    # from d = 4 on, the Choi program is the structured path: no template
    diamond._template.cache_clear()
    for d in (4, 5):
        j = np.zeros((d * d, d * d))
        problem = diamond._encoding(j, d, diamond._plan(j, d)[0]).problem
        assert isinstance(problem, diamond._ChoiOperator)
        assert problem.num_constraints == d**4 + 1
    info = diamond._template.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
    for d in (2, 3):
        j = np.zeros((d * d, d * d))
        assert isinstance(diamond._encoding(j, d, diamond._plan(j, d)[0]).problem, sdp.SdpProblem)
    assert diamond._template.cache_info().currsize == 2


def route_pairs(d, rng):
    pairs = [(random_channel(rng, d, 1), random_channel(rng, d, 2))]
    pairs.append((random_channel(rng, d, 2), channels.identity_channel(d)))
    # an audit-like pair: a gate with weight 1e-5 of noise, so every
    # eigenvalue of J is small and must survive the rank cut
    gate = random_channel(rng, d, 1)
    noisy = channels.mix([(1.0 - 1e-5, gate), (1e-5, channels.compose(random_channel(rng, d, 2), gate))])
    pairs.append((noisy, gate))
    if d != 3:
        # a diagonal unitary: its twirl has d Pauli terms, so J has rank <= d + 1
        u = np.diag(np.exp(1j * rng.uniform(-0.6, 0.6, d)))
        ch = channels.unitary_channel(u)
        pairs.append((ch, pauli.pauli_twirl(ch)))
    return pairs


@pytest.mark.parametrize("d", [2, 3, 4])
def test_routes_agree_when_forced(d):
    # both encodings of the same pair: the intervals overlap, and each value
    # lies inside the other route's interval up to the solver tolerance
    choi_path = "structured" if d == 4 else "choi"
    rng = np.random.default_rng(90 + d)
    for e, f in route_pairs(d, rng):
        *_, choi = diamond._solve([e.choi - f.choi], d, choi_path)[0]
        *_, fid = diamond._solve([e.choi - f.choi], d, "fidelity")[0]
        assert (choi.route, fid.route) == ("choi", "fidelity")
        assert choi.lower_certificate <= fid.upper_certificate
        assert fid.lower_certificate <= choi.upper_certificate
        for a, b in ((choi, fid), (fid, choi)):
            assert b.lower_certificate - 1e-8 <= a.value <= b.upper_certificate + 1e-8


@pytest.mark.parametrize("path", ["choi", "fidelity"])
def test_witness_never_exceeds_upper_certificate(path):
    rng = np.random.default_rng(95)
    for d in (2, 3):
        for e, f in route_pairs(d, rng):
            j = e.choi - f.choi
            encoding, solution, _, res = diamond._solve([j], d, path)[0]
            witness = diamond._witness_value(
                j, d, solution.x[encoding.witness], encoding.transpose
            )
            assert res.lower_certificate == min(1.0, max(0.0, witness))
            assert witness <= res.upper_certificate
            assert 0.0 <= res.lower_certificate <= res.value <= res.upper_certificate <= 1.0
            assert res.upper_certificate - res.lower_certificate <= 1e-7


def test_route_follows_the_rank_of_the_choi_difference():
    rng = np.random.default_rng(97)
    # r = 3 at d = 4 takes the fidelity path
    low = random_channel(rng, 4, 2)
    assert diamond._plan(low.choi - channels.identity_channel(4).choi, 4)[0] == "fidelity"
    # the Pauli twirl of a Haar unitary has all 16 Pauli terms; the
    # structured path counts its (d^2, d^2, d^2) stack
    twirled = pauli.pauli_twirl(channels.unitary_channel(random_unitary(rng, 4)))
    assert diamond._plan(twirled.choi - channels.identity_channel(4).choi, 4) == ("structured", 4**6)
    # every d = 2 pair takes the "choi" path, and so does J = 0 at d = 3
    e, f = random_channel(rng, 2, 1), channels.identity_channel(2)
    assert diamond._plan(e.choi - f.choi, 2)[0] == "choi"
    assert diamond._plan(np.zeros((9, 9)), 3)[0] == "choi"
    # the fidelity path while 2 r^2 + 2 <= 7 d^2: r = 5 at d = 3, 7 at d = 4,
    # 14 at d = 8
    for d, top in ((3, 5), (4, 7), (8, 14)):
        for r, path in ((top, "fidelity"), (top + 1, "choi" if d == 3 else "structured")):
            q = random_unitary(rng, d * d)[:, :r]
            j = (q * rng.choice([-0.1, 0.1], r)) @ q.conj().T
            assert diamond._plan(j, d)[0] == path


@pytest.mark.parametrize(
    "d, rank, path",
    [(2, 1, "choi"), (3, 9, "choi"), (3, 2, "fidelity"), (4, 3, "fidelity"), (4, 7, "fidelity"), (8, 14, "fidelity")],
)
def test_plan_counts_the_array_its_path_builds(d, rank, path):
    # the cap's count is the constraint matrix that _encoding allocates, on
    # the fidelity path and on the assembled "choi" path
    rng = np.random.default_rng(140 + 10 * d + rank)
    q = random_unitary(rng, d * d)[:, :rank]
    j = (q * rng.choice([-0.1, 0.1], rank)) @ q.conj().T
    planned, entries = diamond._plan(j, d)
    assert planned == path
    assert entries == diamond._encoding(j, d, path).problem.a.size


def test_three_qubit_low_rank_pairs_take_the_fidelity_route():
    # 2 and 3 kept eigenvalues: m = 10 and 20 rows instead of 8^4 + 1
    u = channels.generalized_cphase(8, 0.4)
    sparse = pauli.PauliChannel(3, {"III": 0.9, "XZI": 0.06, "YYZ": 0.04})
    for channel, closed in ((u, math.sin(0.2)), (sparse.as_channel(), 0.1)):
        res = diamond.diamond_distance(channel, method="sdp")
        assert res.method is DiamondMethod.SDP
        assert res.route == "fidelity"
        assert res.lower_certificate <= closed <= res.upper_certificate
        assert res.upper_certificate - res.lower_certificate <= 1e-7


def test_cut_eigenvalues_widen_the_upper_end(monkeypatch):
    # add lambda w w^dagger along a null vector of J, below a raised cut: the
    # kept terms and so the solve stay the same, and the upper end grows by
    # lambda / 2
    u = np.diag(np.exp(1j * np.array([0.0, 0.3, 0.7])))
    j = channels.unitary_channel(u).choi - channels.identity_channel(3).choi
    lam, vecs = np.linalg.eigh(j)
    null = vecs[:, np.argmin(np.abs(lam))]
    injected = 1e-7
    monkeypatch.setattr(diamond, "_rank_cut", lambda d: 1e-6)
    base_enc, _, _, base = diamond._solve([j], 3, "fidelity")[0]
    enc, _, _, wider = diamond._solve([j + injected * np.outer(null, null.conj())], 3, "fidelity")[0]
    assert enc.problem.num_constraints == base_enc.problem.num_constraints == 10
    assert enc.dropped - base_enc.dropped == pytest.approx(injected / 2, abs=1e-14)
    assert wider.upper_certificate - base.upper_certificate == pytest.approx(injected / 2, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_equal_channels_give_a_zero_interval(d):
    # neither unitary nor Pauli: J = 0 exactly, and the Choi route certifies
    # [0, tiny]
    ch = random_channel(np.random.default_rng(98), d, 2)
    res = diamond.diamond_distance(ch, ch, method="sdp")
    assert res.route == "choi"
    assert res.lower_certificate == 0.0
    assert 0.0 <= res.value <= res.upper_certificate <= 1e-8


def start_case(d, kind):
    # a seeded J(E - F) on the "choi" path, and its closed form where one
    # exists: a random channel against the identity, a unitary, and J = 0
    rng = np.random.default_rng(99 + d)
    identity = channels.identity_channel(d)
    if kind == "channel":
        return random_channel(rng, d, 2).choi - identity.choi, None
    if kind == "unitary":
        u = short_arc_unitary(rng, d, 1.0)
        return channels.unitary_channel(u).choi - identity.choi, diamond.unitary_diamond_distance(u).value
    return np.zeros((d * d, d * d)), 0.0


@pytest.mark.parametrize("kind", ["channel", "unitary", "zero"])
@pytest.mark.parametrize("d", [2, 3])
def test_choi_start_is_strictly_feasible_and_centred(d, kind):
    j, closed = start_case(d, kind)
    enc = diamond._encoding(j, d, "choi")
    problem = enc.problem
    x, y, z = enc.start
    xs, zs = problem.blocks(x), problem.blocks(z)
    # X > 0 and Z > 0, block by block
    for block in xs + zs:
        assert np.linalg.eigvalsh(block).min() > 0.0
    # the primal residual is rounding only, and the dual one is zero, since
    # z is C - A*(y) through the problem's own adjoint
    assert np.abs(problem.b - problem.apply(x)).max() <= 4 * diamond.EPS
    assert not np.any(problem.c - problem.adjoint(y) - z)
    # every eigenvalue of every X_b Z_b lies within a factor 3 of mu
    mu = sdp._inner(x, z) / sum(problem.block_dims)
    for xb, zb in zip(xs, zs):
        lam = np.linalg.eigvals(xb @ zb).real
        assert (mu / 3 <= lam).all() and (lam <= 3 * mu).all()
    _, sol, _, res = diamond._solve([j], d, "choi")[0]
    assert sol.status is sdp.SdpStatus.CONVERGED
    if closed is not None:
        assert res.lower_certificate <= closed <= res.upper_certificate
    if kind == "zero":
        # the start already meets the convergence test, a gap of a few
        # rounding units from the answer
        assert sol.iterations == 1
        assert res.lower_certificate == 0.0 and res.upper_certificate <= 1e-13


def iteration_pairs():
    # 24 seeded d = 2 pairs: random channel pairs, and random channels mixed
    # into the identity at weight 1e-3 to 1e-1 against the identity
    rng = np.random.default_rng(2024)
    identity = channels.identity_channel(2)
    for k in range(24):
        e = random_channel(rng, 2, 1 + k % 3)
        if k % 2:
            f = random_channel(rng, 2, 1 + k % 2)
        else:
            eps = 10.0 ** rng.uniform(-3.0, -1.0)
            e, f = channels.mix([(1.0 - eps, identity), (eps, e)]), identity
        yield e.choi - f.choi


def test_choi_start_keeps_its_iteration_total():
    # a regression guard on the "choi" path's start: 221 iterations in all,
    # against 267 from the solver's scaled-identity default
    total = 0
    for j in iteration_pairs():
        _, sol, _, _ = diamond._solve([j], 2, "choi")[0]
        total += sol.iterations
    assert total <= 228


def test_closed_forms_report_no_route():
    assert diamond.diamond_distance(channels.unitary_error(0.3)).route is None
    assert diamond.diamond_distance(channels.depolarizing(0.2)).route is None
    assert diamond.diamond_distance(channels.amplitude_damping(0.2)).route == "choi"


def test_five_dimensional_high_rank_pair_runs_without_a_flag():
    # r = 24: the Choi route with 5^4 + 1 rows, on the structured path
    rng = np.random.default_rng(100)
    e, f = random_channel(rng, 5, 12), random_channel(rng, 5, 12)
    assert diamond._plan(e.choi - f.choi, 5) == ("structured", 5**6)
    res = diamond.diamond_distance(e, f)
    assert (res.method, res.route) == (DiamondMethod.SDP, "choi")
    assert res.upper_certificate - res.lower_certificate <= 1e-7
    sampled = diamond.brute_force_lower_bound(e, f, samples=2000)
    assert 0.5 * res.value < sampled <= res.upper_certificate


def test_sixteen_dimensional_low_rank_pairs_bracket_their_closed_forms():
    # four qubits on the fidelity path: a diagonal unitary (r = 2, 10 rows)
    # and a three-term Pauli channel (r = 3, 20 rows)
    rng = np.random.default_rng(101)
    u = channels.unitary_channel(np.diag(np.exp(1j * rng.uniform(-0.6, 0.6, 16))))
    sparse = pauli.PauliChannel(4, {"IIII": 0.9, "XZIY": 0.06, "YYZI": 0.04}).as_channel()
    for channel, rows in ((u, 10), (sparse, 20)):
        closed = diamond.diamond_distance(channel)
        assert closed.method is not DiamondMethod.SDP
        j = channel.choi - channels.identity_channel(16).choi
        assert diamond._plan(j, 16)[0] == "fidelity"
        assert diamond._encoding(j, 16, "fidelity").problem.num_constraints == rows
        res = diamond.diamond_distance(channel, method="sdp")
        assert res.route == "fidelity"
        assert res.lower_certificate <= closed.value <= res.upper_certificate
        assert res.upper_certificate - res.lower_certificate <= 1e-7


def scaling(rng, n, lo, hi):
    # a Hermitian positive definite matrix with eigenvalues from lo to hi
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    w[0], w[-1] = lo, hi
    q = random_unitary(rng, n)
    return (q * w) @ q.conj().T


@pytest.mark.parametrize("d", [2, 3, 4])
def test_structured_newton_solve_matches_the_assembled_nt_matrix(d):
    # A(W A*(y) W) = h through the congruence against np.linalg.solve of the
    # assembled NT matrix, sum_b Re tr(A_ib W_b A_jb W_b)
    rng = np.random.default_rng(120 + d)
    n = d * d
    template = diamond._template(d)
    op = diamond._ChoiOperator(np.zeros((n, n)), d)
    for _ in range(3):
        ws = [scaling(rng, k, 0.1, 10.0) for k in (n, n, d)]
        h = rng.standard_normal(n * n + 1)
        stacks = template.stacks(np.concatenate([w.ravel() for w in ws]))
        want = np.linalg.solve(template.schur(stacks, stacks), h)
        got = op.nt_solver(ws)(h)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())
    # eigenvalues spread from 1e-8 to 1e4 make the matrix so ill-conditioned
    # (1e12 and beyond) that no two solvers agree entrywise; the structured
    # solve is backward stable like the dense one
    for _ in range(3):
        ws = [scaling(rng, k, 1e-8, 1e4) for k in (n, n, d)]
        stacks = template.stacks(np.concatenate([w.ravel() for w in ws]))
        matrix = template.schur(stacks, stacks)
        h = rng.standard_normal(n * n + 1)

        def backward(y):
            return np.abs(matrix @ y - h).max() / (np.abs(matrix).max() * np.abs(y).max())

        assert backward(np.linalg.solve(matrix, h)) <= 1e-14
        assert backward(op.nt_solver(ws)(h)) <= 1e-12


@pytest.mark.parametrize("d", [4, 8])
def test_structured_route_brackets_closed_forms(d):
    # a diagonal unitary (distance below 1) and a sparse Pauli channel,
    # forced through the structured path
    rng = np.random.default_rng(130 + d)
    u = channels.unitary_channel(np.diag(np.exp(1j * rng.uniform(-0.6, 0.6, d))))
    labels = {4: ("II", "XZ", "YY"), 8: ("III", "XZI", "YYZ")}[d]
    sparse = pauli.PauliChannel(d.bit_length() - 1, dict(zip(labels, (0.9, 0.06, 0.04))))
    identity = channels.identity_channel(d)
    for channel in (u, sparse.as_channel()):
        closed = diamond.diamond_distance(channel)
        assert closed.method is not DiamondMethod.SDP
        j = channel.choi - identity.choi
        encoding, *_, res = diamond._solve([j], d, "structured")[0]
        assert isinstance(encoding.problem, diamond._ChoiOperator)
        assert res.route == "choi"
        assert res.lower_certificate <= closed.value <= res.upper_certificate
        assert res.upper_certificate - res.lower_certificate <= 1e-8


def test_inaccurate_structured_newton_solve_raises(monkeypatch):
    # a base solve three times too long never shrinks its residual under
    # refinement: the solve stops as a numerical failure, never as a result
    real = diamond._ChoiOperator.nt_solver

    def degraded(self, ws):
        base = real(self, ws)
        return lambda h: 3.0 * base(h)

    monkeypatch.setattr(diamond._ChoiOperator, "nt_solver", degraded)
    channel = random_channel(np.random.default_rng(97), 4, 12)
    with pytest.raises(sdp.SolverError, match=r"\(structured path\) stopped unconverged \(numerical_failure\)"):
        diamond.diamond_distance(channel)


def test_structured_solve_takes_the_corrector_step():
    # with the NT second-order term these two-qubit solves take 13-18
    # iterations; without it they took 24-38
    rng = np.random.default_rng(97)
    identity = channels.identity_channel(4)
    for _ in range(3):
        j = random_channel(rng, 4, 12).choi - identity.choi
        _, solution, _, _ = diamond._solve([j], 4, "structured")[0]
        assert solution.status is sdp.SdpStatus.CONVERGED
        assert solution.iterations <= 20
