"""Property tests: certified intervals and input rejection on generated inputs.

Examples are derandomized so that every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatebounds import bounds, channels, diamond, metrics
from gatebounds.channels import Channel, ChannelValidationError

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=12)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


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


@settings(derandomize=True, database=None)
@given(NON_FINITE, st.integers(0, 2), st.integers(0, 3), st.booleans())
def test_channel_rejects_non_finite_kraus_entries(bad, k, flat, imaginary):
    ops = [np.sqrt(1 / 3) * np.eye(2, dtype=np.complex128) for _ in range(3)]
    ops[k][divmod(flat, 2)] = complex(0.0, bad) if imaginary else bad
    with pytest.raises(ChannelValidationError, match=f"Kraus operator {k} has a non-finite entry"):
        Channel(ops)
