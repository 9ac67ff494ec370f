"""Finite-dimensional quantum filtering for coherent-state input fields.

Simulates quadrature and photon-counting measurement records of an open
quantum system driven by a coherent field, propagates the corresponding
stochastic master equations (normalized and unnormalized), integrates the
averaged master equation, and cross-checks against classical particle
filtering on scalar benchmarks.
"""

from .classical import (
    ClassicalModel,
    bistable_double_well,
    classical_innovations,
    kalman_bucy_step,
    linear_model,
    normalized_weights,
    particle_step,
    riccati_steady_state,
    run_benchmark,
    simulate_pair,
    systematic_resample,
)
from .config import ConfigError, RunConfig, parse_config, parse_config_dict
from .ensemble import EnsembleConfig, EnsembleReport, martingale_test, mix_seed, run_ensemble
from .ito import (
    IncrementPolynomial,
    coherent_expectation,
    girsanov_coefficients,
    ito_product,
    ito_product_many,
    langevin_increment,
    nondemolition_residual,
    output_increments,
    verify_generator,
    zakai_expansion,
)
from .linalg import (
    DimensionMismatchError,
    NumericalError,
    SpectralDecomposition,
    commutator,
    dagger,
    is_hermitian,
    is_unitary,
    joint_spectral_projections,
    max_norm,
    trace_distance,
    validate_density,
)
from .master import (
    DegenerateSteadyStateError,
    StepSizeError,
    TimeGrid,
    integrate_master,
    steady_state,
)
from .model import (
    CoherentInput,
    HPModel,
    adjoint_generator,
    evans_hudson,
    heisenberg_generator,
    lindblad_adjoint,
    lindblad_heisenberg,
    modulated_coupling,
    modulated_hamiltonian,
    modulated_operators,
)
from .qprob import MeasurementAlgebra, bayes_conditional, conditional_expectation, in_commutant
from .trajectory import (
    COUNTING,
    JumpRateError,
    KINDS,
    MeasurementRecord,
    QUADRATURE,
    TraceUnderflowError,
    draw_noise,
    filter_record,
    propagate,
    simulate_record,
    zakai_filter,
)

__version__ = "0.1.0"
