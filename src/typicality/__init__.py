"""Numerical laboratory for the concentration of reduced states of
Haar-random pure states on constrained bipartite subspaces.

The package builds constrained subspaces of a system/environment Hilbert
space, samples pure states uniformly on them, and confronts the sampled
reduced states with exact ensemble quantities and closed-form concentration
bounds, both generically and for fixed-excitation spin chains.
"""

from .bounds import (
    LEVY_CONSTANT,
    DistanceTailBound,
    LipschitzReport,
    average_distance_bound,
    distance_tail_bound,
    expectation_tail_bound,
    filtered_distance_tail_bound,
    levy_tail,
    lipschitz_distance_report,
    lipschitz_expectation_report,
    operator_basis_tail_bound,
    sphere_distance,
    state_sphere_dim,
    suggested_epsilon,
)
from .errors import (
    DimensionCapError,
    EmptyWindowError,
    HermiticityError,
    OperatorRangeError,
    RankDeficiencyError,
    ShapeMismatchError,
    SubspaceMismatchError,
    TypicalityError,
)
from .experiments import (
    ExperimentConfig,
    SummaryStats,
    bound_confrontation_report,
    exact_average_purity,
    mc_average_purity,
    purity_inequality_check,
    run_distance_experiment,
    run_expectation_experiment,
)
from .filtering import (
    MeasurementFilter,
    apply_filter,
    filtered_state,
    miss_weight_by_enumeration,
    omega_shift_check,
    perturbation_bound_check,
)
from .linalg import (
    DEFAULT_DIMENSION_CAP,
    BipartiteShape,
    hs_norm,
    kron,
    operator_norm,
    partial_trace,
    trace_norm,
)
from .sampling import PureState, SampleStream, reduced_state, sample_pure
from .spin_chain import (
    SpinChainModel,
    SpinChainReport,
    TypicalWindow,
    binary_entropy,
    binomial_entropy_bounds,
    build_subspace,
    canonical_purities,
    canonical_weights,
    exact_canonical_state,
    exact_typical_tail,
    product_approximation,
    spin_chain_report,
    temperature,
    typical_dim_bound,
    typical_miss_bound,
    typical_projector,
    typical_window,
)
from .subspace import (
    CanonicalEnsemble,
    ConstraintSubspace,
    build_ensemble,
    canonical_ensemble,
    from_basis_vectors,
    full_space,
    random_subspace,
)
from .weyl import (
    coefficients,
    hs_distance_from_coefficients,
    max_coefficient_deviation,
    reconstruct,
    weyl_basis,
)

__version__ = "0.1.0"
