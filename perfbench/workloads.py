"""Seeded inputs, the timed loops, and the correctness oracle.

Workloads:

* ``audit-1q`` and ``audit-2q`` time ``bounds.audit(actual, U)`` at d = 2
  and d = 4.  ``U`` is Haar random and ``actual = (1 - eps) U + eps N o U``
  with ``N`` a random CPTP map; the discrepancy is never unitary or Pauli,
  so each audit takes the SDP path twice (error rate and Pauli distance).
* ``paper-check`` times full passes of ``refcheck.run_checks()``.

Item ``i`` of a run is drawn from ``default_rng([seed, i])``, so the inputs
depend only on the seed and the item's position.
"""

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from gatebounds import bounds, channels, diamond, refcheck

import tracing

AUDIT_DIMS = {"audit-1q": 2, "audit-2q": 4}

# items traced per run: fixed, so per-layer counts repeat exactly for a seed
TRACED_ITEMS = {"audit-1q": 40, "audit-2q": 2, "paper-check": 1}

# the speed sampler runs its probe from a timer signal this often
SAMPLE_INTERVAL_S = 0.05
# median probe time on the reference machine (2-core Xeon at 2.1 GHz,
# Python 3.11); item times are rescaled to it
PROBE_REF_S = 0.00035

# a certificate wider than this fails the item; the solver's relative gap
# tolerance is 1e-8, so this leaves a factor of ten
WIDTH_CEILING = 1e-7
BRUTE_FORCE_SAMPLES = 2000


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def audit_input(seed, index, d):
    """Raw arrays for one audit item: ideal gate, noise Kraus operators, weight.

    The Kraus rank of the noise cycles 1, 2, 3 over the items, so every run
    has the same rank mix; the noise itself, the gate and the weight are
    random.
    """
    rng = np.random.default_rng([seed, index])
    rank = 1 + index % 3
    u = _haar_unitary(rng, d)
    g = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
    isometry, _ = np.linalg.qr(g)
    eps = float(10.0 ** rng.uniform(-3.0, -1.0))
    kraus = [isometry[k * d : (k + 1) * d] for k in range(rank)]
    return {"d": d, "rank": rank, "eps": eps, "u": u, "kraus": kraus}


def audit_channels(inp):
    """Fresh channel objects for one item (nothing cached from an earlier run)."""
    gate = channels.unitary_channel(inp["u"])
    noise = channels.Channel(inp["kraus"])
    actual = channels.mix([(1.0 - inp["eps"], gate), (inp["eps"], channels.compose(noise, gate))])
    return actual, inp["u"]


def audit_failures(actual, ideal, report):
    """Reasons the oracle rejects one audit result; empty when it passes."""
    eta = report.error_rate
    if eta is None:
        return ["no error rate computed"]
    lo, value, hi = eta.lower_certificate, eta.value, eta.upper_certificate
    reasons = []
    if not lo <= value <= hi:
        reasons.append(f"value {value!r} outside certificates [{lo!r}, {hi!r}]")
    disc = channels.discrepancy(actual, ideal)
    sampled = diamond.brute_force_lower_bound(disc, samples=BRUTE_FORCE_SAMPLES)
    if sampled > hi:
        reasons.append(f"sampled lower bound {sampled!r} above upper certificate {hi!r}")
    if hi < report.pauli_lower:
        reasons.append(f"upper certificate {hi!r} below Pauli lower bound {report.pauli_lower!r}")
    if lo > report.generic_upper:
        reasons.append(f"lower certificate {lo!r} above generic upper bound {report.generic_upper!r}")
    if hi - lo > WIDTH_CEILING:
        reasons.append(f"certificate width {hi - lo:.3e} above ceiling {WIDTH_CEILING:.0e}")
    return reasons


def probe():
    """The fixed work whose time measures the machine's speed: a plain loop."""
    total = 0
    for i in range(5000):
        total += i * i
    return total


class SpeedSampler:
    """Measures how fast this process runs, continuously, on the same core.

    The host's speed drifts by tens of percent within seconds.  Every
    SAMPLE_INTERVAL_S a timer signal runs a fixed probe that does not touch
    the package (a plain interpreter loop) and records its wall time.
    Python runs the handler between bytecodes, so probes land inside items;
    ``spent`` lets the caller take the probes' own time out of an item's
    latency.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _probe(self, signum, frame):
        start = perf_counter()
        probe()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


@contextmanager
def result_tap(sink):
    """Collect every DiamondResult returned by ``diamond.diamond_distance``.

    This times nothing: it only sees which method answered and the
    certificates, for the width guard and the SDP share.
    """
    original = diamond.diamond_distance

    def tapped(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    diamond.diamond_distance = tapped
    try:
        yield
    finally:
        diamond.diamond_distance = original


class Outcome:
    """One timed item: latency, its output (or the exception) and oracle verdict."""

    def __init__(self, latency, output, error):
        self.latency = latency
        self.output = output
        self.error = error
        self.reasons = [] if error is None else [f"raised {error}"]
        self.scale = 1.0  # reference-machine seconds per measured second


def _timed(fn, *args):
    start = perf_counter()
    try:
        output = fn(*args)
    except Exception as exc:  # the loop keeps going; the oracle counts it
        return Outcome(perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    return Outcome(perf_counter() - start, output, None)


class AuditItems:
    """Item source for the audit workloads."""

    def __init__(self, workload, seed):
        self.d = AUDIT_DIMS[workload]
        self.seed = seed
        self.inputs = []

    def make(self, index):
        inp = audit_input(self.seed, index, self.d)
        self.inputs.append(inp)
        return inp

    build = staticmethod(audit_channels)

    @staticmethod
    def run(prepared):
        return bounds.audit(*prepared)

    def judge(self, outcomes):
        for inp, outcome in zip(self.inputs, outcomes):
            if outcome.error is None:
                actual, ideal = audit_channels(inp)
                outcome.reasons = audit_failures(actual, ideal, outcome.output)
        failed = sum(bool(o.reasons) for o in outcomes)
        return {
            "attempted": len(outcomes),
            "failed": failed,
            "failed_share": {"failed": failed, "attempted": len(outcomes)},
        }

    def properties(self, outcomes):
        n = len(self.inputs)
        fids = [o.output.fidelity for o in outcomes if o.error is None]
        return {
            "items": n,
            "dim_share": {str(self.d): 1.0},
            "kraus_rank_share": {
                str(r): sum(inp["rank"] == r for inp in self.inputs) / n for r in (1, 2, 3)
            },
            "eps_range": [min(i["eps"] for i in self.inputs), max(i["eps"] for i in self.inputs)],
            "fidelity_range": [min(fids), max(fids)] if fids else None,
        }


class SuitePasses:
    """Item source for ``paper-check``: one item is a whole pass of the suite.

    A pass fails if it raises, does not return one result per registered
    check in order, or disagrees with the first pass of the run on which
    checks passed.  Check verdicts themselves are counted, not judged: the
    combined-noise check is red by design and counts like any other.
    """

    @staticmethod
    def make(index):
        return None

    @staticmethod
    def build(inp):
        return None

    @staticmethod
    def run(_prepared):
        return refcheck.run_checks()

    def judge(self, outcomes):
        names = refcheck.list_checks()
        first = None
        checks_attempted = checks_failed = 0
        for outcome in outcomes:
            if outcome.error is not None:
                continue
            verdicts = [(r.name, r.passed) for r in outcome.output]
            checks_attempted += len(verdicts)
            checks_failed += sum(not passed for _, passed in verdicts)
            if [name for name, _ in verdicts] != names:
                outcome.reasons.append("results do not match the registered checks")
            elif first is None:
                first = verdicts
            elif verdicts != first:
                outcome.reasons.append("check verdicts differ from the first pass")
        failing = sorted({r.name for o in outcomes if o.error is None for r in o.output if not r.passed})
        return {
            "attempted": len(outcomes),
            "failed": sum(bool(o.reasons) for o in outcomes),
            "failed_share": {"failed": checks_failed, "attempted": checks_attempted},
            "failing_checks": failing,
        }

    @staticmethod
    def properties(outcomes):
        return {"items": len(outcomes), "checks_per_pass": len(refcheck.list_checks())}


def item_source(workload, seed):
    if workload in AUDIT_DIMS:
        return AuditItems(workload, seed)
    if workload == "paper-check":
        return SuitePasses()
    raise ValueError(f"unknown workload {workload!r}")


def run_timed(workload, seed, seconds):
    """Closed loop, one client: the next item starts when the last one ends.

    An item starts only while the run is expected to finish within
    ``seconds`` (by the median latency so far); the first always runs.  A
    SpeedSampler runs throughout: an item's latency excludes the probes that
    ran inside it, and its ``scale`` is PROBE_REF_S over their median (or
    over the last ones before it, for an item too short to hold one).
    Returns the item source, the outcomes, the diamond results seen and all
    probe times.
    """
    source = item_source(workload, seed)
    outcomes = []
    results = []
    start = perf_counter()
    with result_tap(results), SpeedSampler() as sampler:
        while True:
            inp = source.make(len(outcomes))
            prepared = source.build(inp)
            first, spent = len(sampler.samples), sampler.spent
            outcome = _timed(source.run, prepared)
            outcome.latency -= sampler.spent - spent
            inside = sampler.samples[first:] or sampler.samples[-5:]
            if inside:
                outcome.scale = PROBE_REF_S / statistics.median(inside)
            outcomes.append(outcome)
            typical = statistics.median(o.latency for o in outcomes)
            if perf_counter() - start + typical > seconds:
                break
    return source, outcomes, results, sampler.samples


def run_traced(workload, seed):
    """Fixed work: each of the first TRACED_ITEMS items untraced, then traced.

    Returns the tracer, the (untraced, traced) latency pairs, the traced
    outcomes and the oracle's verdict.  The oracle's own calls are traced
    under the tag "oracle" so they stay out of the per-layer figures.
    """
    source = item_source(workload, seed)
    tracer = tracing.Tracer()
    pairs = []
    outcomes = []
    for index in range(TRACED_ITEMS[workload]):
        inp = source.make(index)
        bare = _timed(source.run, source.build(inp))
        prepared = source.build(inp)
        with tracer.installed(with_checks=workload == "paper-check"), tracer.scope(item=index):
            traced = _timed(source.run, prepared)
        pairs.append((bare.latency, traced.latency))
        outcomes.append(traced)
    with tracer.installed(), tracer.scope(tag="oracle"):
        verdict = source.judge(outcomes)
    return tracer, pairs, outcomes, verdict
