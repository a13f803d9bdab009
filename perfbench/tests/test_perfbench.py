"""Tests of the benchmark itself: seeded inputs, smoke runs, oracle, layout.

    python -m pytest perfbench/tests -q

The smoke runs execute every workload once at its smallest size (one
item; one full suite pass for paper-check), so the file takes about half a
minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from gatebounds import bounds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("d", [2, 4])
def test_same_seed_gives_bit_identical_inputs(d):
    for index in range(4):
        a = workloads.audit_input(11, index, d)
        b = workloads.audit_input(11, index, d)
        assert a["rank"] == b["rank"] and a["eps"] == b["eps"]
        assert a["u"].tobytes() == b["u"].tobytes()
        assert [k.tobytes() for k in a["kraus"]] == [k.tobytes() for k in b["kraus"]]
    other = workloads.audit_input(12, 0, d)
    assert other["u"].tobytes() != workloads.audit_input(11, 0, d)["u"].tobytes()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_and_no_failures(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setitem(workloads.TRACED_ITEMS, "audit-1q", 3)
    runs = [tracing.layer_metrics(workloads.run_traced("audit-1q", 5)[0].spans) for _ in range(2)]
    counts = [{k: v for k, v in r.items() if k.endswith(".calls")} for r in runs]
    assert counts[0] == counts[1] and counts[0]["sdp.solve.calls"] == 6
    assert runs[0]["sdp.iterations.mean"] == runs[1]["sdp.iterations.mean"]
    assert runs[0]["diamond.sdp_share"] == 1.0
    # the oracle's brute-force scans are tagged and left out
    assert runs[0]["diamond.brute_force.s"] == 0.0
    names = [name for name, _ in tracing.LAYER_METRICS]
    assert names == [m["name"] for m in SPEC["per_layer"]]


def test_oracle_flags_corrupted_results():
    actual, ideal = workloads.audit_channels(workloads.audit_input(0, 1, 2))
    report = bounds.audit(actual, ideal)
    assert workloads.audit_failures(actual, ideal, report) == []
    eta = report.error_rate

    def corrupted(**changes):
        bad = dataclasses.replace(report, error_rate=dataclasses.replace(eta, **changes))
        return " ".join(workloads.audit_failures(actual, ideal, bad))

    low = 0.25 * eta.value
    assert "sampled lower bound" in corrupted(value=low, lower_certificate=low, upper_certificate=low)
    assert "outside certificates" in corrupted(value=eta.upper_certificate + 1e-6)
    assert "above ceiling" in corrupted(upper_certificate=eta.upper_certificate + 1e-6)
    assert "generic upper bound" in corrupted(lower_certificate=report.generic_upper + 1e-3, value=1.0, upper_certificate=1.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "audit-1q", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
