"""Worst-case gate error rates from diamond distances and fidelity bounds.

The package computes the diamond distance between quantum channels (closed
forms where available, a certified interior-point SDP otherwise), converts
average gate fidelities into rigorous error-rate brackets, and refines those
brackets with the Pauli distance.  The ``gatebounds`` command line exposes
the same machinery plus a reproduction suite for the published reference
values the numerics are checked against.
"""

from .bounds import (
    BoundsReport,
    audit,
    ceil_significant,
    decomposition_upper_bound,
    generic_upper_bound,
    nontriviality_threshold,
    pauli_lower_bound,
    pauli_refined_interval,
    required_fidelity,
    round_significant,
)
from .channels import (
    Channel,
    ChannelValidationError,
    amplitude_damping,
    compose,
    depolarizing,
    discrepancy,
    generalized_cphase,
    identity_channel,
    lambda_mixture,
    mix,
    phase_matrix,
    unitary_channel,
    unitary_error,
)
from .diamond import (
    DiamondMethod,
    DiamondResult,
    ascent_lower_bound,
    ascent_lower_bounds,
    brute_force_lower_bound,
    diamond_distance,
    diamond_distances,
    pauli_distance,
    unitary_diamond_distance,
)
from .metrics import (
    EXACT,
    average_gate_fidelity,
    inverse_infidelity,
    total_variation_distance,
    trace_distance,
)
from .pauli import (
    PauliChannel,
    as_pauli_channel,
    pauli_labels,
    pauli_operator,
    pauli_twirl,
)
from .sdp import SolverError

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Channel",
    "ChannelValidationError",
    "DiamondMethod",
    "DiamondResult",
    "EXACT",
    "PauliChannel",
    "SolverError",
    "amplitude_damping",
    "as_pauli_channel",
    "ascent_lower_bound",
    "ascent_lower_bounds",
    "audit",
    "average_gate_fidelity",
    "brute_force_lower_bound",
    "ceil_significant",
    "compose",
    "decomposition_upper_bound",
    "depolarizing",
    "diamond_distance",
    "diamond_distances",
    "discrepancy",
    "generalized_cphase",
    "generic_upper_bound",
    "identity_channel",
    "inverse_infidelity",
    "lambda_mixture",
    "mix",
    "nontriviality_threshold",
    "pauli_distance",
    "pauli_labels",
    "pauli_lower_bound",
    "pauli_operator",
    "pauli_refined_interval",
    "pauli_twirl",
    "phase_matrix",
    "required_fidelity",
    "round_significant",
    "total_variation_distance",
    "trace_distance",
    "unitary_channel",
    "unitary_diamond_distance",
    "unitary_error",
]
