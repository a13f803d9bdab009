"""Benchmark of the gatebounds package: certified audits and the reproduction suite.

    python3 perfbench/run.py --workload audit-1q --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  ``--workload all`` runs every workload in
turn, each in its own process.  With ``--trace 0`` the run times items with
tracing off and prints the end-to-end metrics; with ``--trace 1`` it traces a
fixed set of items and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
report (environment, input properties, oracle verdicts) is written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one client on one core: single-threaded BLAS, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("audit-1q", "audit-2q", "paper-check")

END_TO_END = (
    ("latency_s.p50", "s"),
    ("latency_s.p90", "s"),
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("passed_share", "ratio"),
    ("cert_digits.min", "digits"),
    ("peak_rss_mb", "MB"),
)

SETUP_RUNS = 5
SETUP_PROBES = 15

# a cold process: import the package, then one diamond distance that takes
# the SDP path and so pays the one-time encoder calibration first; speed
# probes before and after let the parent rescale it like the item times
SETUP_CODE = """
import json
from time import perf_counter
{probe}
def probe_times():
    times = []
    for _ in range({count}):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return times
before = probe_times()
start = perf_counter()
from gatebounds import channels, diamond
imported = perf_counter()
result = diamond.diamond_distance(channels.amplitude_damping(0.05))
done = perf_counter()
print(json.dumps({{"import_s": imported - start, "first_call_s": done - imported,
                  "value": result.value, "method": result.method.value,
                  "probes": before + probe_times()}}))
"""


def require_package():
    """Put the checkout's sources first on the path, or stop without a result."""
    if not (SRC / "gatebounds" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'gatebounds'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import gatebounds

    if not Path(gatebounds.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported gatebounds from {gatebounds.__file__}, not {SRC}")


def measure_setup():
    """Median time of a fresh interpreter that imports and makes its first SDP call.

    Each child's wall time, less its probes, is rescaled by PROBE_REF_S over
    the child's median probe time, as the item times are.
    """
    import workloads

    code = SETUP_CODE.format(probe=inspect.getsource(workloads.probe), count=SETUP_PROBES)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, scaled, splits = [], [], []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        walls.append(perf_counter() - start)
        split = json.loads(proc.stdout.splitlines()[-1])
        if split["method"] != "sdp" or abs(split["value"] - 0.05) > 1e-6:
            raise RuntimeError(f"set-up diamond call returned {split}")
        probes = split.pop("probes")
        scaled.append((walls[-1] - sum(probes)) * workloads.PROBE_REF_S / statistics.median(probes))
        splits.append(split)
    return statistics.median(scaled), {
        "runs": SETUP_RUNS,
        "wall_s": walls,
        "scaled_s": scaled,
        "import_s.median": statistics.median(s["import_s"] for s in splits),
        "first_call_s.median": statistics.median(s["first_call_s"] for s in splits),
    }


def environment(seed):
    import numpy as np

    from gatebounds import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_imports": kernels.HAVE_NUMBA,
        "GATEBOUNDS_BACKEND": os.environ.get(kernels.ENV_VAR),
        "active_backend": kernels.active_backend(),
        "git_sha": sha,
        "seed": seed,
    }


def warm_up():
    # pays the encoder calibration and first-call costs outside the timed loop
    import numpy as np

    from gatebounds import bounds, channels

    bounds.audit(channels.amplitude_damping(0.05), np.eye(2))


def end_to_end(outcomes, verdict, results, probes, setup_s, peak_rss_mb):
    raw = [o.latency for o in outcomes]
    latencies = [o.latency * o.scale for o in outcomes]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    verified = sum(not o.reasons for o in outcomes)
    widths = [r.upper_certificate - r.lower_certificate for r in results if r.method.value == "sdp"]
    # a width of zero would mean an exact answer; floor it at double precision
    worst = max(max(widths, default=0.0), 1e-16)
    share = verdict["failed_share"]
    values = {
        "latency_s.p50": statistics.median(latencies),
        "latency_s.p90": p90,
        "items_per_s": verified / sum(latencies),
        "setup_s": setup_s,
        "passed_share": 1.0 - share["failed"] / share["attempted"] if share["attempted"] else 0.0,
        "cert_digits.min": -math.log10(worst),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "probes": len(probes),
        "probe_s.median": statistics.median(probes),
        "raw_latency_s.p50": statistics.median(raw),
        "raw_items_per_s": verified / sum(raw),
        "items": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "sdp_results": len(widths),
        "cert_width.max": max(widths, default=0.0),
        "latency_s_and_scale": [[o.latency, o.scale] for o in outcomes],
    }
    return values, samples


def sdp_share(results):
    return sum(r.method.value == "sdp" for r in results) / len(results) if results else 0.0


def run_once(args):
    require_package()
    import tracing
    import workloads

    warm_up()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment(args.seed)}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer, pairs, outcomes, verdict = workloads.run_traced(args.workload, args.seed)
        values = tracing.layer_metrics(tracer.spans)
        bare = sum(b for b, _ in pairs)
        values["trace.overhead_share"] = sum(t for _, t in pairs) / bare - 1.0
        units = dict(tracing.LAYER_METRICS)
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
        report["paired_latency_s"] = pairs
    else:
        setup_s, report["setup"] = measure_setup()
        source, outcomes, results, probes = workloads.run_timed(args.workload, args.seed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = source.judge(outcomes)
        values, report["samples"] = end_to_end(outcomes, verdict, results, probes, setup_s, peak_rss_mb)
        report["inputs"] = dict(source.properties(outcomes), **{"diamond.sdp_share": sdp_share(results)})
        units = dict(END_TO_END)
    report["oracle"] = dict(verdict, rejected=[o.reasons for o in outcomes if o.reasons][:10])
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report["metrics"] = metrics
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:<12} {name:<40} {m['value']:<14.6g} {m['unit']}")
    share = verdict["failed_share"]
    print(f"{args.workload:<12} failed_share {share['failed']}/{share['attempted']}; report {stem.with_suffix('.json').relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": verdict["failed"] == 0,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": metrics,
            }
        )
    )


def run_all(args):
    combined = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        combined[workload] = json.loads(last)
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args)
    else:
        run_once(args)


if __name__ == "__main__":
    main()
