"""Spans around the package's public functions, recorded from outside.

The package looks its own functions up as module attributes at call time
(``sdp.solve``, ``linalg.hermitian_eigendecomposition``,
``kernels.eigh_kernel``, ...), so replacing an attribute with a timing
wrapper also catches every nested call.  Nothing under ``src/`` knows about
the tracer.  Spans stay in memory until the run ends; per-layer metrics are
computed from them afterwards.
"""

import json
from contextlib import contextmanager
from time import perf_counter

from gatebounds import bounds, channels, diamond, kernels, linalg, pauli, refcheck, sdp


def _solve_info(solution):
    return {"iterations": solution.iterations, "gap": solution.gap}


def _verify_info(checked):
    return {"gap": checked["gap"], "primal_residual": checked["primal_residual"]}


def _distance_info(result):
    return {"method": result.method.value, "width": result.upper_certificate - result.lower_certificate}


# (module, attribute, span name, function extracting span info from the result)
TARGETS = (
    (bounds, "audit", "bounds.audit", None),
    (channels, "discrepancy", "channels.discrepancy", None),
    (pauli, "pauli_twirl", "pauli.twirl", None),
    (pauli, "as_pauli_channel", "pauli.as_pauli", None),
    (diamond, "diamond_distance", "diamond.distance", _distance_info),
    (diamond, "brute_force_lower_bound", "diamond.brute_force", None),
    (sdp, "solve", "sdp.solve", _solve_info),
    (sdp, "verify_solution", "sdp.verify", _verify_info),
    (linalg, "hermitian_eigendecomposition", "linalg.eig", None),
    (linalg, "trace_norm", "linalg.trace_norm", None),
    (linalg, "unitary_eigenphases", "linalg.eigphases", None),
    (kernels, "eigh_kernel", "kernels.eigh", None),
    (kernels, "pair_scan_kernel", "kernels.pair_scan", None),
)

CHECK_NAMES = tuple(refcheck.list_checks())

# every per-layer metric a traced run reports, in report order; names match
# the per_layer list of BENCHMARK.json
LAYER_METRICS = (
    ("bounds.audit.s", "s"),
    ("bounds.audit.calls", "count"),
    ("channels.discrepancy.s", "s"),
    ("pauli.twirl.s", "s"),
    ("pauli.as_pauli.s", "s"),
    ("pauli.as_pauli.hit_share", "ratio"),
    ("diamond.distance.calls", "count"),
    ("diamond.distance.self_s", "s"),
    ("diamond.sdp_share", "ratio"),
    ("diamond.cert_width.max", "1"),
    ("diamond.brute_force.s", "s"),
    ("sdp.solve.s", "s"),
    ("sdp.solve.self_s", "s"),
    ("sdp.solve.calls", "count"),
    ("sdp.iterations.mean", "count"),
    ("sdp.verify.s", "s"),
    ("sdp.verify.calls", "count"),
    ("sdp.gap.max", "1"),
    ("sdp.primal_residual.max", "1"),
    ("linalg.eig.s", "s"),
    ("linalg.eig.calls", "count"),
    ("linalg.trace_norm.s", "s"),
    ("linalg.eigphases.s", "s"),
    ("kernels.eigh.s", "s"),
    ("kernels.eigh.calls", "count"),
    ("kernels.pair_scan.s", "s"),
    ("kernels.pair_scan.calls", "count"),
    *((f"refcheck.{name}.s", "s") for name in CHECK_NAMES),
    ("trace.overhead_share", "ratio"),
)


class Span:
    __slots__ = ("name", "parent", "item", "tag", "start", "end", "error", "info")

    def __init__(self, name, parent, item, tag):
        self.name = name
        self.parent = parent
        self.item = item
        self.tag = tag
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, origin):
        out = {
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "item": self.item,
            "tag": self.tag,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.info is not None:
            out["info"] = self.info
        return out


class Tracer:
    """Records one span per call of each wrapped function.

    ``item`` labels the spans of one workload item; ``tag`` marks spans that
    belong to the benchmark's own work (the oracle), which the per-layer
    metrics leave out.
    """

    def __init__(self):
        self.spans = []
        self.item = None
        self.tag = None
        self._stack = []
        self.origin = perf_counter()

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.item, self.tag)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    @contextmanager
    def installed(self, with_checks=False):
        """Replace every target (and optionally each reproduction check) while active."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
        saved_checks = list(refcheck._CHECKS)
        try:
            for module, attr, name, info in TARGETS:
                setattr(module, attr, self.wrap(name, getattr(module, attr), info))
            if with_checks:
                # the registry is a list of (name, function) pairs, read at run time
                refcheck._CHECKS[:] = [
                    (name, self.wrap(f"refcheck.{name}", fn)) for name, fn in saved_checks
                ]
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            refcheck._CHECKS[:] = saved_checks

    @contextmanager
    def scope(self, item=None, tag=None):
        saved = self.item, self.tag
        self.item, self.tag = item, tag
        try:
            yield
        finally:
            self.item, self.tag = saved

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(self.origin)) + "\n")


def layer_metrics(spans):
    """Per-layer busy time, self time, counts and solver figures from workload spans."""
    # no wrapped function calls itself, so busy time is a plain sum
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    busy, own, calls = {}, {}, {}
    for index, span in enumerate(spans):
        if span.tag is not None:
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + span.duration - children[index]

    def infos(name):
        return [s.info for s in spans if s.tag is None and s.name == name and s.info is not None]

    pauli_calls = [s for s in spans if s.tag is None and s.name == "pauli.as_pauli"]
    distances = infos("diamond.distance")
    sdp_widths = [d["width"] for d in distances if d["method"] == "sdp"]
    solves = infos("sdp.solve")
    verifies = infos("sdp.verify")

    def share(hits, total):
        return hits / total if total else 0.0

    values = {
        "pauli.as_pauli.hit_share": share(sum(s.error is None for s in pauli_calls), len(pauli_calls)),
        "diamond.sdp_share": share(len(sdp_widths), len(distances)),
        "diamond.cert_width.max": max(sdp_widths, default=0.0),
        "sdp.iterations.mean": share(sum(s["iterations"] for s in solves), len(solves)),
        "sdp.gap.max": max((v["gap"] for v in verifies), default=0.0),
        "sdp.primal_residual.max": max((v["primal_residual"] for v in verifies), default=0.0),
    }
    for metric, _ in LAYER_METRICS:
        if metric in values or metric.startswith("trace."):
            continue
        name, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = busy.get(name, 0.0)
        elif kind == "self_s":
            values[metric] = own.get(name, 0.0)
        else:  # "calls"
            values[metric] = calls.get(name, 0)
    return values
