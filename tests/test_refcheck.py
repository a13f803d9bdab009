"""The solver-health gates of the reproduction suite, on one recorded solve."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import gatebounds
from gatebounds import channels, diamond, kernels, refcheck, sdp


def one_recorded_solve(channel, route="choi"):
    with diamond.recorded_solves() as records:
        diamond.diamond_distance(channel, method="sdp")
    assert len(records) == 1
    assert records[0].result.route == route
    return records


def test_solver_health_passes_on_a_real_solve():
    passed, detail = refcheck._check_solver_health(one_recorded_solve(channels.amplitude_damping(0.3)))
    assert passed, detail
    assert detail.startswith("1 solves:")


def test_solver_health_gates_the_recorded_verification_figures():
    records = one_recorded_solve(channels.amplitude_damping(0.3))
    rec = records[0]
    records[0] = dataclasses.replace(rec, checked={**rec.checked, "gap": 2e-8})
    passed, detail = refcheck._check_solver_health(records)
    assert not passed
    assert detail == "solve 0: duality gap 2.000e-08 above 1e-8"


def test_solver_health_tests_ascent_bound_against_upper_certificate():
    # the value stays put and the certificate drops just below the ascent
    # bound (same seed as the check), so only the certificate gate fails
    ch = channels.amplitude_damping(0.3)
    records = one_recorded_solve(ch)
    rec = records[0]
    ascent = diamond.ascent_lower_bound(ch, seed=9000)
    assert ascent <= rec.result.upper_certificate
    lowered = dataclasses.replace(rec.result, upper_certificate=ascent - 1e-11)
    records[0] = dataclasses.replace(rec, result=lowered)
    passed, detail = refcheck._check_solver_health(records)
    assert not passed
    assert detail.startswith("solve 0: ascent lower bound")
    assert "exceeds upper certificate" in detail
    assert "exceeds SDP value" not in detail


def test_solver_health_catches_a_value_one_millionth_low():
    # the 2000-sample scan fell 5.3e-3 short on this pair; the ascent reaches
    # the distance, so a recorded value 1e-6 too low fails the value gate
    records = one_recorded_solve(channels.amplitude_damping(0.3))
    rec = records[0]
    low = dataclasses.replace(rec.result, value=rec.result.value - 1e-6)
    records[0] = dataclasses.replace(rec, result=low)
    passed, detail = refcheck._check_solver_health(records)
    assert not passed
    assert detail.startswith("solve 0: ascent lower bound")
    assert "exceeds SDP value" in detail


def test_solver_health_no_longer_runs_the_sampled_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sampled scan ran")

    records = one_recorded_solve(channels.amplitude_damping(0.3))
    monkeypatch.setattr(kernels, "pair_scan_kernel", refuse)
    monkeypatch.setattr(diamond, "brute_force_lower_bound", refuse)
    passed, detail = refcheck._check_solver_health(records)
    assert passed, detail


def test_solver_health_gates_fidelity_route_records():
    # a low-rank d = 3 pair takes the fidelity route; the same gates apply
    records = one_recorded_solve(channels.generalized_cphase(3, 0.4), route="fidelity")
    rec = records[0]
    # the record carries the route and the verification figures of the
    # fidelity route's three blocks (P/Y/Q, rho, sigma), not the problem
    assert rec.result.route == "fidelity"
    assert len(rec.checked["z_eig_ranges"]) == 3
    assert rec.checked["gap"] <= 1e-8 and rec.checked["primal_residual"] <= 1e-8
    passed, detail = refcheck._check_solver_health(records)
    assert passed, detail
    assert detail.startswith("1 solves:")
    records[0] = dataclasses.replace(rec, checked={**rec.checked, "z_min_eig": -2e-7})
    passed, detail = refcheck._check_solver_health(records)
    assert not passed
    assert detail == "solve 0: dual slack not PSD within 1e-7"


def test_suite_inside_an_open_block_leaves_it_receiving():
    # the suite's own block nests inside the caller's, which sees every
    # audited solve and keeps receiving after the suite returns
    ch = channels.amplitude_damping(0.3)
    with diamond.recorded_solves() as records:
        diamond.diamond_distance(ch, method="sdp")
        results = refcheck.run_checks()
        diamond.diamond_distance(ch, method="sdp")
    health = results[-1]
    assert health.name == "solver-health" and health.passed, health.detail
    assert health.detail.startswith("116 solves:")
    assert len(records) == 1 + 116 + 1


def test_a_pass_reaches_the_calls_the_benchmark_taps(monkeypatch):
    # the benchmark reads paper-check's cert_digits.min from the results of
    # diamond.diamond_distance and traces sdp.solve, so pin how one pass
    # reaches them: 27 tapped results (6 of them SDP) and 6 flat solves;
    # the other 110 solves go through 7 stacks of sdp.solve_batch
    results, flat, stacks = [], [], []
    real_distance, real_solve, real_batch = diamond.diamond_distance, sdp.solve, sdp.solve_batch

    def distance(*args, **kwargs):
        results.append(real_distance(*args, **kwargs))
        return results[-1]

    def solve(*args, **kwargs):
        flat.append(args[0])
        return real_solve(*args, **kwargs)

    def solve_batch(problem, start=None):
        if problem.c.ndim == 2:
            stacks.append(len(problem.c))
        return real_batch(problem, start)

    monkeypatch.setattr(diamond, "diamond_distance", distance)
    monkeypatch.setattr(sdp, "solve", solve)
    monkeypatch.setattr(sdp, "solve_batch", solve_batch)
    with diamond.recorded_solves() as records:
        refcheck.run_checks()
    assert len(results) == 27
    assert sum(r.method is diamond.DiamondMethod.SDP for r in results) == 6
    assert len(flat) == 6
    assert len(stacks) == 7 and sum(stacks) == 110
    assert len(records) == 116


TWO_PASSES = """
from gatebounds import refcheck
passes = [[(r.name, r.passed, r.detail) for r in refcheck.run_checks()] for _ in range(2)]
print(passes[0] == passes[1])
print(passes[0][-1][2])
"""


def test_suite_passes_agree_in_a_fresh_process():
    # the first pass fills the per-process caches (templates, coordinates);
    # that must not change what the solver-health audit counts or finds
    env = dict(os.environ, PYTHONPATH=str(Path(gatebounds.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", TWO_PASSES], capture_output=True, text=True, env=env, check=True
    )
    same, health = proc.stdout.strip().splitlines()
    assert same == "True", health
    # every record's ascent bound, from the batched call, is the one its pair
    # gives alone, so the first pass reads the figures of pair-by-pair runs
    assert health == "116 solves: max gap 9.8e-09, max residual 9.9e-09, max ascent excess 7.5e-09"
