"""Closed-form concentration bounds and Lipschitz-constant probes.

The bounds are pure functions of scalar inputs.  Probability bounds are
reported unclamped (they may exceed 1 at small dimension), with a ``vacuous``
flag alongside.  The Lipschitz probes take pairs of states on one subspace;
an observable is given on its coordinates (compress a composite one with
``ConstraintSubspace.compress_operator``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import SubspaceMismatchError
from .linalg import operator_norm, require_hermitian, trace_norm
from .sampling import PureState, reduced_state_from_coords
from .subspace import CanonicalEnsemble

#: Constant in the spherical concentration exponent, 1/(18 pi^3).
LEVY_CONSTANT = 1.0 / (18.0 * math.pi**3)


def state_sphere_dim(dim_subspace: int) -> int:
    """Real sphere dimension of normalized states on a complex space."""
    return 2 * dim_subspace - 1


def suggested_epsilon(dim_subspace: int) -> float:
    """Deviation scale that balances the two error terms, d_R^(-1/3)."""
    return float(dim_subspace) ** (-1.0 / 3.0)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is a finite positive number.

    A deviation of zero or less makes every tail row vacuous, and NaN or
    infinity make it meaningless.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon!r}")


def levy_tail(sphere_dim: int, lipschitz: float, epsilon: float) -> float:
    """Tail probability that a Lipschitz function on the sphere deviates
    from its mean by at least ``epsilon``:

        2 * exp(-2 C (d + 1) epsilon^2 / lipschitz^2)
    """
    check_epsilon(epsilon)
    if sphere_dim <= 0 or lipschitz <= 0:
        raise ValueError("sphere_dim and lipschitz must be positive")
    exponent = -2.0 * LEVY_CONSTANT * (sphere_dim + 1) * epsilon**2 / lipschitz**2
    return 2.0 * math.exp(exponent)


@dataclass(frozen=True)
class DistanceTailBound:
    """Prob[ ||rho_S - Omega_S|| >= threshold ] <= tail_bound."""

    dim_system: int
    dim_subspace: int
    effective_env_dim: float
    epsilon: float
    threshold: float
    tail_bound: float

    @property
    def vacuous(self) -> bool:
        return self.tail_bound >= 1.0 or self.threshold >= 2.0


def distance_tail_bound(
    dim_system: int,
    dim_subspace: int,
    effective_env_dim: float,
    epsilon: float,
) -> DistanceTailBound:
    """Concentration of the trace distance between a sampled reduced state
    and the ensemble mean: threshold = epsilon + sqrt(d_S / d_E_eff), tail
    2 exp(-C d_R epsilon^2).
    """
    if epsilon != 0.0:  # the epsilon -> 0 limit stays defined: the tail reads 2
        check_epsilon(epsilon)
    if min(dim_system, dim_subspace) < 1 or effective_env_dim <= 0:
        raise ValueError("dimensions must be positive")
    threshold = epsilon + math.sqrt(dim_system / effective_env_dim)
    tail = 2.0 * math.exp(-LEVY_CONSTANT * dim_subspace * epsilon**2)
    return DistanceTailBound(
        dim_system=dim_system,
        dim_subspace=dim_subspace,
        effective_env_dim=effective_env_dim,
        epsilon=epsilon,
        threshold=threshold,
        tail_bound=tail,
    )


def average_distance_bound(
    dim_system: int, dim_subspace: int, effective_env_dim: float
) -> tuple[float, float]:
    """Bounds on the mean trace distance: (sqrt(d_S/d_E_eff), sqrt(d_S^2/d_R)).

    The first is the sharper one; the second only needs the subspace
    dimension and dominates the first whenever d_E_eff >= d_R / d_S.
    """
    if min(dim_system, dim_subspace) < 1 or effective_env_dim <= 0:
        raise ValueError("dimensions must be positive")
    return (
        math.sqrt(dim_system / effective_env_dim),
        math.sqrt(dim_system**2 / dim_subspace),
    )


def filtered_distance_tail_bound(
    support_dim: int,
    filtered_effective_env_dim: float,
    dim_subspace: int,
    miss_weight: float,
    epsilon: float,
) -> DistanceTailBound:
    """Filtered variant: threshold gains the 4 sqrt(miss_weight) penalty for
    the filter's failure probability; the tail exponent is unchanged.  The
    result's ``dim_system`` and ``effective_env_dim`` are the filter's support
    dimension and filtered effective environment dimension.
    """
    if not 0.0 <= miss_weight <= 1.0:
        raise ValueError("miss_weight must lie in [0, 1]")
    plain = distance_tail_bound(support_dim, dim_subspace, filtered_effective_env_dim, epsilon)
    return replace(plain, threshold=plain.threshold + 4.0 * math.sqrt(miss_weight))


def expectation_tail_bound(op_norm: float, dim_subspace: int, epsilon: float) -> float:
    """Tail for the deviation of one bounded observable's expectation value:
    2 exp(-C d_R epsilon^2 / ||O||^2).
    """
    check_epsilon(epsilon)
    if op_norm <= 0:
        raise ValueError("operator norm must be positive")
    return 2.0 * math.exp(-LEVY_CONSTANT * dim_subspace * epsilon**2 / op_norm**2)


def operator_basis_tail_bound(dim_system: int, dim_subspace: int) -> tuple[float, float]:
    """Distance tail obtained through a complete unitary operator basis.

    Returns ``(threshold, tail_bound)`` with threshold (d_S^2/d_R)^(1/3) and
    tail 2 d_S^2 exp(-C (d_R/d_S^2)^(1/3)); informative once d_R >> d_S^2.
    """
    if min(dim_system, dim_subspace) < 1:
        raise ValueError("dimensions must be positive")
    beta = (dim_subspace / dim_system**2) ** (1.0 / 3.0)
    return 1.0 / beta, 2.0 * dim_system**2 * math.exp(-LEVY_CONSTANT * beta)


def sphere_distance(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """Euclidean distance between unit vectors, minimized over a global phase."""
    overlap = abs(np.vdot(coords_a, coords_b))
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


@dataclass(frozen=True)
class LipschitzReport:
    """Worst observed ratio |f(a) - f(b)| / dist(a, b) over sampled pairs."""

    max_ratio: float
    bound: float
    pairs_checked: int
    pairs_skipped: int
    max_state_ratio: float | None = None

    @property
    def satisfied(self) -> bool:
        ok = self.max_ratio <= self.bound + 1e-9
        if self.max_state_ratio is not None:
            ok = ok and self.max_state_ratio <= self.bound + 1e-9
        return ok


def lipschitz_distance_report(
    ensemble: CanonicalEnsemble, pairs: Iterable[tuple[PureState, PureState]]
) -> LipschitzReport:
    """Probe the Lipschitz constant of phi -> ||rho_S(phi) - Omega_S||.

    ``max_ratio`` tracks differences of that function; ``max_state_ratio``
    tracks the intermediate marginal distance ||rho_1 - rho_2|| against the
    same phase-aligned sphere distance.  Both are bounded by 2.
    """
    sub = ensemble.subspace
    mean_state = ensemble.system_state
    max_ratio = 0.0
    max_state_ratio = 0.0
    checked = 0
    skipped = 0
    for a, b in pairs:
        if not (a.subspace.equals(sub) and b.subspace.equals(sub)):
            raise SubspaceMismatchError("pair does not live on the ensemble's subspace")
        dist = sphere_distance(a.coords, b.coords)
        if dist == 0.0:
            skipped += 1
            continue
        rho_a = reduced_state_from_coords(sub, a.coords)
        rho_b = reduced_state_from_coords(sub, b.coords)
        f_a = trace_norm(rho_a - mean_state)
        f_b = trace_norm(rho_b - mean_state)
        max_ratio = max(max_ratio, abs(f_a - f_b) / dist)
        max_state_ratio = max(max_state_ratio, trace_norm(rho_a - rho_b) / dist)
        checked += 1
    return LipschitzReport(
        max_ratio=max_ratio,
        bound=2.0,
        pairs_checked=checked,
        pairs_skipped=skipped,
        max_state_ratio=max_state_ratio,
    )


def lipschitz_expectation_report(
    observable: np.ndarray, pairs: Iterable[tuple[PureState, PureState]]
) -> LipschitzReport:
    """Probe the Lipschitz constant of phi -> <phi|X|phi>.

    ``observable`` is Hermitian on the subspace coordinates (d_R x d_R) that
    both states of every pair share; the bound is twice its operator norm.
    """
    x = require_hermitian(observable)
    bound = 2.0 * operator_norm(x)
    max_ratio = 0.0
    checked = 0
    skipped = 0
    for a, b in pairs:
        if not a.subspace.equals(b.subspace) or x.shape[0] != a.subspace.dim_subspace:
            raise SubspaceMismatchError("pair and observable do not share one subspace")
        dist = sphere_distance(a.coords, b.coords)
        if dist == 0.0:
            skipped += 1
            continue
        f_a = float(np.vdot(a.coords, x @ a.coords).real)
        f_b = float(np.vdot(b.coords, x @ b.coords).real)
        max_ratio = max(max_ratio, abs(f_a - f_b) / dist)
        checked += 1
    return LipschitzReport(
        max_ratio=max_ratio, bound=bound, pairs_checked=checked, pairs_skipped=skipped
    )


BOUND_TABLE_COLUMNS = ("d_S", "d_R", "d_E_eff", "epsilon", "eta", "eta_prime", "source_formula")


def write_bound_table(rows: Sequence[dict], fh) -> None:
    """Emit bound rows as CSV with the fixed column set, 17 significant digits."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(BOUND_TABLE_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row.get(col, "")) for col in BOUND_TABLE_COLUMNS])


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)
