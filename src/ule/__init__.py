"""Universal-Lindblad-equation toolkit for finite open quantum systems.

Builds the master-equation generator (jump operator, Lamb shift, full and
secular superoperators), evolves density matrices, extracts steady states,
and quantifies how far the steady state sits from the Gibbs state of the
system Hamiltonian.
"""

__version__ = "0.1.0"

from .analysis import (
    DeviationReport,
    ResidualReport,
    SweepResult,
    TrendSystem,
    dissipator_on_gibbs_direct,
    dissipator_on_gibbs_formula,
    gibbs_deviation,
    gibbs_residual_report,
    lambshift_on_gibbs_direct,
    lambshift_on_gibbs_formula,
    secular_residuals,
    sweep_monotonicity,
    three_level_baseline,
    trend_sweep,
)
from .bath import BathSpec, QuadratureError, QuadratureSpec, f_integral, f_table, jump_spectral, kms_check
from .dynamics import (
    PropagationError,
    SteadyStateError,
    SteadyStateReport,
    Trajectory,
    expectation,
    liouvillian_gap,
    propagate,
    steady_state,
    steady_state_consistency,
)
from .generator import (
    NoiseChannel,
    Superoperator,
    UleGenerator,
    build_generator,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    build_secular_generator,
    channels_compose,
    unvec,
    vec,
)
from .operators import (
    BohrDecomposition,
    EigenDecomposition,
    bohr_decompose,
    eigendecompose,
    gibbs_populations,
    gibbs_state,
    hermitize,
    require_hermitian,
    thermal_shift_residual,
    trace_distance,
)
from .spinchain import (
    ExperimentResult,
    SpinChainSpec,
    build_chain_hamiltonian,
    magnetization,
    run_relaxation,
    site_operator,
    total_sz,
)
