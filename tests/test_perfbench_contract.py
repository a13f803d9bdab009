"""The names the benchmark harness under perfbench/ reads from the package.

The harness is not collected here, so a change that deletes or renames one
of these names would only show when the benchmark crashes.  This imports
its tracer read-only (not run.py, which sets BLAS variables at import) and
makes the calls it makes.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from gatebounds import bounds, channels, diamond, kernels, refcheck

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_target_is_a_callable(tracing):
    assert tracing.TARGETS
    for module, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_environment_report_names_exist():
    # no compiler backend is installed, so the report reads numpy
    assert kernels.HAVE_NUMBA is False
    assert isinstance(kernels.ENV_VAR, str)
    assert kernels.active_backend() == "numpy"


def test_check_registry_the_tracer_wraps():
    # the tracer swaps refcheck._CHECKS in place, one timed span per check
    assert isinstance(refcheck._CHECKS, list)
    assert [name for name, _ in refcheck._CHECKS] == refcheck.list_checks()
    assert all(callable(fn) for _, fn in refcheck._CHECKS)


def test_traced_audit_runs_every_span_info_extractor(tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        report = bounds.audit(channels.amplitude_damping(0.05), np.eye(2))
    assert report.error_rate.method is diamond.DiamondMethod.SDP
    extractors = {name for _, _, name, info in tracing.TARGETS if info is not None}
    assert extractors <= {span.name for span in tracer.spans if span.info is not None}
    assert set(tracing.layer_metrics(tracer.spans)) >= {"sdp.iterations.mean", "diamond.sdp_share"}


def test_oracle_brute_force_call():
    assert "samples" in inspect.signature(diamond.brute_force_lower_bound).parameters
    actual = channels.mix([(0.95, channels.identity_channel(2)), (0.05, channels.amplitude_damping(1.0))])
    disc = channels.discrepancy(actual, np.eye(2))
    sampled = diamond.brute_force_lower_bound(disc, samples=2000)
    assert 0.0 < sampled <= diamond.diamond_distance(disc).upper_certificate
