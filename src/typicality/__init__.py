"""Numerical laboratory for the concentration of reduced states of
Haar-random pure states on constrained bipartite subspaces.

The package builds constrained subspaces of a system/environment Hilbert
space, samples pure states uniformly on them, and confronts the sampled
reduced states with exact ensemble quantities and closed-form concentration
bounds, both generically and for fixed-excitation spin chains.
"""

from .bounds import (
    LEVY_CONSTANT,
    average_distance_bound,
    distance_tail_bound,
    expectation_tail_bound,
    filtered_distance_tail_bound,
    formula_rows,
    levy_tail,
    operator_basis_tail_bound,
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
    TypicalityError,
)
from .experiments import (
    ExperimentConfig,
    SummaryStats,
    bound_confrontation_report,
    exact_average_purity,
    mc_average_purity,
    run_distance_experiment,
)
from .filtering import MeasurementFilter, apply_filter
from .linalg import DEFAULT_DIMENSION_CAP, BipartiteShape, trace_norm
from .sampling import SampleStream, sample_states
from .spin_chain import (
    SpinChainModel,
    SpinChainReport,
    TypicalWindow,
    binary_entropy,
    binomial_entropy_bounds,
    build_subspace,
    canonical_purities,
    exact_typical_tail,
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
from .weyl import coefficients, weyl_basis

__version__ = "0.1.0"
