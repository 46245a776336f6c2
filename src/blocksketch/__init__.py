"""Dense classical simulation of block-encoding arithmetic and the
estimation algorithms built on it: n-time correlation functions, density
of states and local density of states sketches, and dynamical linear
response, all verifiable against brute-force spectral oracles."""

from .algorithms import (
    CorrelationSpec,
    SketchRequest,
    SketchResult,
    complexity_report,
    correlate,
    spectral_sketch,
)
from .block_encoding import (
    BlockEncoding,
    adjoint,
    encode_pauli_sum,
    encode_unitary,
    identity_encoding,
    linear_combine,
    product,
    product_error_bound,
    spectral_norm,
)
from .chebyshev import (
    ChebyshevPoly,
    WindowPoly,
    amplifying_poly,
    chebyshev_t,
    compose,
    kpm_reconstruct,
    window_poly,
)
from .circuits import AmplitudeProblem, grover_operator, is_hermitian, is_unitary, unitary_dilation
from .estimation import (
    EstimationResult,
    estimate_amplitude,
    estimate_complex,
    estimate_observable,
)
from .oracle import oracle_correlation, oracle_sketch
from .pauli import (
    PauliSum,
    PauliTerm,
    parse_pauli_file,
    parse_pauli_text,
    pauli_sum_matrix,
    pauli_term_matrix,
)
from .spectral import apply_polynomial, chebyshev_encoding, evolution_cost, evolution_encoding
from .state_prep import (
    PreparationUnitary,
    exact_amplification_params,
    prepare_maximally_mixed,
    prepare_pure,
    prepare_thermal,
    reduced_density,
)

__all__ = [
    # algorithms
    "CorrelationSpec",
    "SketchRequest",
    "SketchResult",
    "complexity_report",
    "correlate",
    "spectral_sketch",
    # block_encoding
    "BlockEncoding",
    "adjoint",
    "encode_pauli_sum",
    "encode_unitary",
    "identity_encoding",
    "linear_combine",
    "product",
    "product_error_bound",
    "spectral_norm",
    # chebyshev
    "ChebyshevPoly",
    "WindowPoly",
    "amplifying_poly",
    "chebyshev_t",
    "compose",
    "kpm_reconstruct",
    "window_poly",
    # circuits
    "AmplitudeProblem",
    "grover_operator",
    "is_hermitian",
    "is_unitary",
    "unitary_dilation",
    # estimation
    "EstimationResult",
    "estimate_amplitude",
    "estimate_complex",
    "estimate_observable",
    # oracle
    "oracle_correlation",
    "oracle_sketch",
    # pauli
    "PauliSum",
    "PauliTerm",
    "parse_pauli_file",
    "parse_pauli_text",
    "pauli_sum_matrix",
    "pauli_term_matrix",
    # spectral
    "apply_polynomial",
    "chebyshev_encoding",
    "evolution_cost",
    "evolution_encoding",
    # state_prep
    "PreparationUnitary",
    "exact_amplification_params",
    "prepare_maximally_mixed",
    "prepare_pure",
    "prepare_thermal",
    "reduced_density",
]
__version__ = "0.1.0"
