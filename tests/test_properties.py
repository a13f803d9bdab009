"""Property tests: certified intervals and input rejection on generated inputs.

Examples are derandomized so that every run checks the same inputs.
"""

import dataclasses
import io
import math
import pickle
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatebounds import bounds, channels, cli, diamond, linalg, metrics, pauli
from gatebounds.channels import Channel, ChannelValidationError

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=12)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# every finite float64, with the edges of the format always in the mix:
# signed zeros, the smallest and largest subnormals, and +-max
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, sys.float_info.max, -sys.float_info.max]
FINITE_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
SWEEP_NUMBERS = len(dataclasses.fields(bounds.SweepRecord)) - 1

# what no real-valued input accepts: flags, text, None, complex values,
# integers beyond the float range, and the non-finite floats
NOT_REAL = st.one_of(
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(0.01, 2.0) | st.floats(-2.0, -0.01)),
    st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024)),
    NON_FINITE,
)

_IDENTITY = channels.identity_channel(2)

# every public entry point that reads a real or a probability vector: how to
# pass it the bad value x, and the name its ValueError must give
REAL_INPUTS = {
    "pauli_lower_bound": (lambda x: bounds.pauli_lower_bound(x, 2), "fidelity"),
    "generic_upper_bound": (lambda x: bounds.generic_upper_bound(x, 2), "fidelity"),
    "required_fidelity": (lambda x: bounds.required_fidelity(x, 2), "target error rate"),
    "pauli_refined_interval-phi": (lambda x: bounds.pauli_refined_interval(x, 2, 0.1), "fidelity"),
    "pauli_refined_interval-delta": (lambda x: bounds.pauli_refined_interval(0.99, 2, x), "Pauli distance"),
    "decomposition_upper_bound": (lambda x: bounds.decomposition_upper_bound(0.99, 2, [0.1, x]), "Pauli distance"),
    "sweep_rows": (lambda x: bounds.sweep_rows("depolarizing", [0.9, x]), "fidelity"),
    "depolarizing": (channels.depolarizing, "depolarizing weight"),
    "unitary_error": (channels.unitary_error, "rotation angle"),
    "amplitude_damping": (channels.amplitude_damping, "decay probability"),
    "generalized_cphase": (lambda x: channels.generalized_cphase(2, x), "phase angle theta"),
    "lambda_mixture": (lambda x: channels.lambda_mixture(2, x), "idle probability"),
    "mix": (lambda x: channels.mix([(1.0, _IDENTITY), (x, _IDENTITY)]), "mixture weights[1]"),
    "inverse_infidelity": (metrics.inverse_infidelity, "fidelity"),
    "total_variation_distance": (
        lambda x: metrics.total_variation_distance([1.0, 0.0], [x, 0.0]),
        "distribution nu[0]",
    ),
    "PauliChannel": (lambda x: pauli.PauliChannel(1, {"I": x}), "Pauli probabilities['I']"),
    "cli-named-params": (lambda x: cli._require_params({"params": {"r": x}}, ("r",)), "named.params.r"),
}

# every reader of a fidelity: how to pass it phi
FIDELITY_READERS = {
    "pauli_lower_bound": lambda phi: bounds.pauli_lower_bound(phi, 2),
    "generic_upper_bound": lambda phi: bounds.generic_upper_bound(phi, 2),
    "pauli_refined_interval": lambda phi: bounds.pauli_refined_interval(phi, 2, 0.0),
    "decomposition_upper_bound": lambda phi: bounds.decomposition_upper_bound(phi, 2, [0.0]),
    "inverse_infidelity": metrics.inverse_infidelity,
    "sweep_rows": lambda phi: bounds.sweep_rows("depolarizing", [phi]),
}
SLOP = channels.SLOP


_HALF = np.eye(2) / 2

# every public entry point that reads a matrix: how to pass it the bad 2 x 2
# matrix m, and the name its ValueError must give
MATRIX_INPUTS = {
    "Channel": (lambda m: Channel([m]), "Kraus operator 0"),
    "Channel.apply": (_IDENTITY.apply, "state"),
    "unitary_channel": (channels.unitary_channel, "unitary"),
    "discrepancy": (lambda m: channels.discrepancy(_IDENTITY, m), "ideal gate"),
    "audit": (lambda m: bounds.audit(_IDENTITY, m), "ideal gate"),
    "unitary_diamond_distance": (diamond.unitary_diamond_distance, "unitary"),
    "trace_distance-rho": (lambda m: metrics.trace_distance(m, _HALF), "rho"),
    "trace_distance-sigma": (lambda m: metrics.trace_distance(_HALF, m), "sigma"),
    "hermitian_eigendecomposition": (linalg.hermitian_eigendecomposition, "matrix"),
    "trace_norm": (linalg.trace_norm, "matrix"),
    "unitary_eigenphases": (linalg.unitary_eigenphases, "unitary"),
    "is_unitary": (linalg.is_unitary, "matrix"),
}


_DAMPING = channels.amplitude_damping(0.3)


def _spec_dim(x):
    # a description file whose JSON reads as {"dim": x, ...}; the reader
    # must name the field after the file
    spec = {"dim": x, "kind": "named", "named": {"name": "generalized_cphase", "params": {"theta": 0.3}}}
    with mock.patch.object(cli.json, "load", return_value=spec):
        return cli.load_channel_file(__file__)[0].kraus


# every public entry point that reads an integer: how to pass it x, the name
# its ValueError must give, the least value it takes, and one value k it
# takes
INTEGER_INPUTS = {
    "pauli_lower_bound": (lambda x: bounds.pauli_lower_bound(0.9, x), "dimension", 2, 3),
    "generic_upper_bound": (lambda x: bounds.generic_upper_bound(0.9, x), "dimension", 2, 3),
    "nontriviality_threshold": (bounds.nontriviality_threshold, "dimension", 2, 3),
    "required_fidelity": (lambda x: bounds.required_fidelity(0.1, x), "dimension", 2, 3),
    "pauli_refined_interval": (lambda x: bounds.pauli_refined_interval(0.99, x, 0.01), "dimension", 2, 3),
    "decomposition_upper_bound": (lambda x: bounds.decomposition_upper_bound(0.99, x, [0.01]), "dimension", 2, 3),
    "round_significant": (lambda x: bounds.round_significant(2.0 / 3.0, x), "significant figures", 1, 3),
    "ceil_significant": (lambda x: bounds.ceil_significant(2.0 / 3.0, x), "significant figures", 1, 3),
    "identity_channel": (lambda x: channels.identity_channel(x).kraus, "dimension", 1, 3),
    "phase_matrix": (lambda x: channels.phase_matrix(x, 0.3), "dimension", 2, 3),
    "generalized_cphase": (lambda x: channels.generalized_cphase(x, 0.3).kraus, "dimension", 2, 3),
    "lambda_mixture": (
        lambda x: (lambda actual, ideal: (actual.kraus, ideal))(*channels.lambda_mixture(x, 0.2)),
        "dimension",
        2,
        3,
    ),
    "pauli_labels": (pauli.pauli_labels, "qubit count", 1, 2),
    "PauliChannel": (lambda x: pauli.PauliChannel(x, {"II": 0.75, "XZ": 0.25}), "qubit count", 1, 2),
    "ascent_lower_bound": (lambda x: diamond.ascent_lower_bound(_DAMPING, seed=x), "seed", 0, 3),
    "ascent_lower_bounds": (lambda x: diamond.ascent_lower_bounds([(_DAMPING, None)], [x]), "seed", 0, 3),
    "brute_force_lower_bound-seed": (
        lambda x: diamond.brute_force_lower_bound(_DAMPING, samples=20, seed=x),
        "seed",
        0,
        3,
    ),
    "brute_force_lower_bound-samples": (
        lambda x: diamond.brute_force_lower_bound(_DAMPING, samples=x),
        "samples",
        1,
        20,
    ),
    "cli-spec-dim": (_spec_dim, f"{__file__}: dim", 1, 3),
}

# what no integer input accepts: flags, text, None, complex values, the
# non-finite floats and finite floats with a fractional part
NOT_INTEGER = st.one_of(
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.builds(complex, st.floats(-4.0, 4.0), st.floats(0.01, 2.0) | st.floats(-2.0, -0.01)),
    NON_FINITE,
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
)


@st.composite
def qubit_channels(draw):
    # (1 - w) id + w N, N a Haar isometry cut into 1-3 Kraus blocks
    seed = draw(st.integers(0, 2**32 - 1))
    kraus_count = draw(st.integers(1, 3))
    weight = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2 * kraus_count, 2)) + 1j * rng.standard_normal((2 * kraus_count, 2))
    q, _ = np.linalg.qr(g)
    noise = Channel([q[2 * k : 2 * k + 2] for k in range(kraus_count)])
    return channels.mix([(1.0 - weight, channels.identity_channel(2)), (weight, noise)])


@PROPERTY_SETTINGS
@given(qubit_channels())
def test_sampled_bound_below_upper_certificate(channel):
    result = diamond.diamond_distance(channel, method="sdp")
    lower = diamond.brute_force_lower_bound(channel, samples=500, seed=3)
    assert result.lower_certificate <= result.value <= result.upper_certificate
    assert lower <= result.upper_certificate + 1e-12


@PROPERTY_SETTINGS
@given(qubit_channels())
def test_error_rate_between_fidelity_bounds(channel):
    phi = metrics.average_gate_fidelity(channel)
    eta = diamond.diamond_distance(channel).value
    assert bounds.pauli_lower_bound(phi, 2) - 1e-8 <= eta <= bounds.generic_upper_bound(phi, 2) + 1e-8


@settings(derandomize=True, database=None)
@given(NON_FINITE, st.sampled_from([2, 3, 4]))
def test_bounds_reject_non_finite_fidelity(bad, dim):
    with pytest.raises(ValueError, match="fidelity"):
        bounds.generic_upper_bound(bad, dim)
    with pytest.raises(ValueError, match="fidelity"):
        bounds.pauli_refined_interval(bad, dim, 0.1)


@settings(derandomize=True, database=None)
@given(NON_FINITE, st.floats(0.0, 1.0), st.sampled_from([2, 3, 4]))
def test_bounds_reject_non_finite_pauli_distance_and_dimension(bad, phi, dim):
    with pytest.raises(ValueError, match="Pauli distance"):
        bounds.pauli_refined_interval(phi, dim, bad)
    with pytest.raises(ValueError, match="dimension"):
        bounds.generic_upper_bound(phi, bad)


@pytest.mark.parametrize("entry", sorted(REAL_INPUTS))
@settings(derandomize=True, database=None, max_examples=25)
@given(NOT_REAL)
@example(True)
@example("1")
@example(None)
@example(0.5 + 1j)
@example(2**1024)
@example(math.nan)
def test_real_inputs_refuse_what_is_not_a_finite_real_by_name(entry, bad):
    call, quantity = REAL_INPUTS[entry]
    # a ValueError, never an OverflowError or a TypeError, and it names the
    # quantity at the start of its message
    with pytest.raises(ValueError, match=f"^{re.escape(quantity)} must be (a real number|finite), got "):
        call(bad)


def _outcome(call, x):
    # what a reader returns, pickled to compare bit for bit, or the text of
    # the ValueError it raises
    try:
        return pickle.dumps(call(x))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("entry", sorted(FIDELITY_READERS))
@PROPERTY_SETTINGS
@given(st.floats(-SLOP, 0.0) | st.floats(1.0, 1.0 + SLOP))
@example(-SLOP)
@example(1.0 + SLOP)
def test_fidelity_readers_clamp_a_fidelity_within_the_slop(entry, phi):
    # a fidelity within channels.SLOP of [0, 1] reads as its clamped value
    call = FIDELITY_READERS[entry]
    assert _outcome(call, phi) == _outcome(call, min(1.0, max(0.0, phi)))


@pytest.mark.parametrize("entry", sorted(FIDELITY_READERS))
@PROPERTY_SETTINGS
@given(
    st.floats(max_value=-SLOP, exclude_max=True, allow_infinity=False)
    | st.floats(min_value=1.0 + SLOP, exclude_min=True, allow_infinity=False)
)
@example(1.0 + 1e-11)
@example(-1e-11)
@example(math.nextafter(1.0 + SLOP, 2.0))
@example(math.nextafter(-SLOP, -1.0))
def test_fidelity_readers_refuse_a_fidelity_beyond_the_slop_by_name(entry, phi):
    with pytest.raises(ValueError, match=r"^fidelity \S+ outside \[-1e-12, 1\.000000000001\]$"):
        FIDELITY_READERS[entry](phi)


@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
@settings(derandomize=True, database=None, max_examples=25)
@given(NOT_INTEGER)
@example(True)
@example(np.True_)
@example("2")
@example(None)
@example(2 + 0j)
@example(2.5)
@example(math.nan)
@example(math.inf)
def test_integer_inputs_refuse_what_is_not_an_integer_by_name(entry, bad):
    call, name, lo, _ = INTEGER_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer of at least {lo}, got "):
        call(bad)


@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
@settings(derandomize=True, database=None, max_examples=10)
@given(st.integers(min_value=1))
@example(1)
def test_integer_inputs_refuse_a_value_below_their_range_by_name(entry, gap):
    call, name, lo, _ = INTEGER_INPUTS[entry]
    for below in (lo - gap, np.int64(lo - 1), float(lo - gap)):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer of at least {lo}, got "):
            call(below)


@pytest.mark.parametrize("entry", sorted(INTEGER_INPUTS))
def test_integer_inputs_take_numpy_integers_and_integer_valued_floats_as_ints(entry):
    call, _, _, k = INTEGER_INPUTS[entry]
    # pickled, so the results must agree in type as well as bit for bit
    want = pickle.dumps(call(k))
    for same in (np.int64(k), float(k)):
        assert pickle.dumps(call(same)) == want


@settings(derandomize=True, database=None)
@given(NON_FINITE, st.integers(0, 2), st.integers(0, 3), st.booleans())
def test_channel_rejects_non_finite_kraus_entries(bad, k, flat, imaginary):
    ops = [np.sqrt(1 / 3) * np.eye(2, dtype=np.complex128) for _ in range(3)]
    ops[k][divmod(flat, 2)] = complex(0.0, bad) if imaginary else bad
    with pytest.raises(ChannelValidationError, match=f"Kraus operator {k} has a non-finite entry"):
        Channel(ops)


@pytest.mark.parametrize("entry", sorted(MATRIX_INPUTS))
@settings(derandomize=True, database=None, max_examples=25)
@given(NON_FINITE, st.integers(0, 3), st.booleans())
@example(math.inf, 1, False)
@example(-math.inf, 2, True)
@example(math.nan, 0, True)
def test_matrix_inputs_refuse_a_non_finite_entry_by_name(entry, bad, flat, imaginary):
    call, name = MATRIX_INPUTS[entry]
    m = _HALF.astype(np.complex128)
    i, j = divmod(flat, 2)
    m[i, j] = complex(m[i, j].real, bad) if imaginary else complex(bad, m[i, j].imag)
    # a ValueError naming the matrix, raised before any arithmetic on it
    # could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{re.escape(name)} has a non-finite entry$"):
            call(m)


@settings(derandomize=True, database=None, max_examples=20)
@given(st.lists(st.lists(FINITE_FLOATS, min_size=SWEEP_NUMBERS, max_size=SWEEP_NUMBERS), min_size=1, max_size=4))
def test_sweep_csv_round_trip_is_bit_exact(rows):
    records = [bounds.SweepRecord("depolarizing", *values) for values in rows]
    fh = io.StringIO()
    cli.write_sweep_csv(records, fh)
    lines = fh.getvalue().splitlines()
    assert lines[0] == cli.SWEEP_HEADER
    assert len(lines) == len(rows) + 1
    for line, values in zip(lines[1:], rows):
        model, *fields = line.split(",")
        assert model == "depolarizing"
        parsed = np.array([float(f) for f in fields])
        # compared as bit patterns, so -0.0 must come back as -0.0
        assert np.array_equal(parsed.view(np.int64), np.array(values).view(np.int64))
