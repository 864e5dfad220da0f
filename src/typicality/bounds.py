"""Closed-form concentration bounds and their CSV table.

The bounds are pure functions of scalar inputs; ``formula_rows`` is the one
table of the closed forms that apply, which ``bounds`` prints and
``experiment`` confronts.  Probability bounds are reported unclamped (they
may exceed 1 at small dimension).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import TypicalityError
from .subspace import CanonicalEnsemble

#: Constant in the spherical concentration exponent, 1/(18 pi^3).
LEVY_CONSTANT = 1.0 / (18.0 * math.pi**3)


def state_sphere_dim(dim_subspace: int) -> int:
    """Real sphere dimension of normalized states on a complex space."""
    return 2 * dim_subspace - 1


def finite(name: str, compute: Callable[[], float]) -> float:
    """``compute()``, the closed form ``name``; a TypicalityError naming it when
    that raises OverflowError or is not a finite float."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise TypicalityError(f"{name} is too large for a float")
    return value


def sqrt_ratio(dim: int, divisor: float) -> float:
    """sqrt(dim / divisor) for an integer ``dim`` >= 1 and a float ``divisor`` > 0.

    Where the quotient would pass the float range, it is formed scaled by
    4^-s and the root rescaled by 2^s; powers of two scale exactly, so the
    value keeps the bits of the plain form wherever that is finite.
    """
    s = max(0, (int(dim).bit_length() - min(math.frexp(divisor)[1], 0)) // 2 - 500)
    return math.ldexp(math.sqrt(dim / (1 << 2 * s) / divisor), s)


def suggested_epsilon(dim_subspace: int) -> float:
    """Deviation scale that balances the two error terms, d_R^(-1/3)."""
    return float(dim_subspace) ** (-1.0 / 3.0)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is a finite positive number whose
    square is a float.

    A deviation of zero or less makes every tail row vacuous, NaN or
    infinity make it meaningless, and the tails take epsilon^2.
    """
    if not (math.isfinite(epsilon * epsilon) and epsilon > 0):
        raise ValueError(
            f"epsilon must be a finite positive number whose square is a float, got {epsilon!r}"
        )


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


def distance_tail_bound(
    dim_system: int,
    dim_subspace: int,
    effective_env_dim: float,
    epsilon: float,
) -> tuple[float, float]:
    """Concentration of the trace distance between a sampled reduced state
    and the ensemble mean: ``(threshold, tail_bound)`` with threshold
    epsilon + sqrt(d_S / d_E_eff) and tail 2 exp(-C d_R epsilon^2).
    """
    if epsilon != 0.0:  # the epsilon -> 0 limit stays defined: the tail reads 2
        check_epsilon(epsilon)
    if min(dim_system, dim_subspace) < 1 or effective_env_dim <= 0:
        raise ValueError("dimensions must be positive")
    threshold = epsilon + sqrt_ratio(dim_system, effective_env_dim)
    return threshold, 2.0 * math.exp(-LEVY_CONSTANT * dim_subspace * epsilon**2)


def average_distance_bound(
    dim_system: int, dim_subspace: int, effective_env_dim: float
) -> tuple[float, float]:
    """Bounds on the mean trace distance: (sqrt(d_S/d_E_eff), sqrt(d_S^2/d_R)).

    The first is the sharper one; the second only needs the subspace
    dimension and dominates the first whenever d_E_eff >= d_R / d_S.
    """
    if min(dim_system, dim_subspace) < 1 or effective_env_dim <= 0:
        raise ValueError("dimensions must be positive")
    return sqrt_ratio(dim_system, effective_env_dim), math.sqrt(dim_system**2 / dim_subspace)


def filtered_distance_tail_bound(
    support_dim: int,
    filtered_effective_env_dim: float,
    dim_subspace: int,
    miss_weight: float,
    epsilon: float,
) -> tuple[float, float]:
    """Filtered variant of ``distance_tail_bound`` on the filter's support
    dimension and filtered effective environment dimension: the threshold
    gains the 4 sqrt(miss_weight) penalty for the filter's failure
    probability; the tail is unchanged.
    """
    if not 0.0 <= miss_weight <= 1.0:
        raise ValueError("miss_weight must lie in [0, 1]")
    threshold, tail = distance_tail_bound(
        support_dim, dim_subspace, filtered_effective_env_dim, epsilon
    )
    return threshold + 4.0 * math.sqrt(miss_weight), tail


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


@dataclass(frozen=True)
class FormulaRow:
    """One closed form of ``formula_rows``.

    ``bound`` caps the mean trace distance (``statistic`` "mean", no
    ``threshold``) or the probability that ``statistic`` reaches
    ``threshold``: "distance" is ||rho_S - Omega_S||, "deviation" that
    distance minus its exact mean, and "coefficients"
    max_x |C_x(rho_S - Omega_S)| over the Weyl family.  ``epsilon`` is None
    for a row that does not depend on it.  A row beyond the float range is
    refused through ``finite``, naming it.
    """

    name: str
    statistic: str
    epsilon: float | None
    threshold: float | None
    bound: float

    def __post_init__(self) -> None:
        finite(self.name, lambda: self.bound)
        if self.threshold is not None:
            finite(self.name, lambda: self.threshold)


def formula_rows(
    d_s: int,
    d_r: int,
    d_eff: float,
    epsilon: float | None,
    filtered: CanonicalEnsemble | None = None,
) -> list[FormulaRow]:
    """Every closed form that applies at (d_S, d_R, d_E_eff, epsilon), in
    table order; epsilon defaults to d_R^(-1/3).  The filtered row needs a
    non-degenerate ``filtered`` ensemble.

    ``coefficient_family_tail`` is a union bound over the Weyl family.  With
    rho the reduced state of phi and Omega_S = E[rho], C_x(rho - Omega_S) is
    <phi|U_x^dagger (x) 1|phi> minus its mean.  Its real and imaginary parts
    are the deviations of <phi|H|phi> for the Hermitian
    H = (U_x^dagger + U_x) / 2 (x) 1 and H = (U_x^dagger - U_x) / 2i (x) 1,
    of norm <= 1, so each is 2-Lipschitz on the sphere and
    ``expectation_tail_bound(1, d_R, t)`` bounds its tail at t.
    |C_x| >= epsilon forces one part to reach epsilon / sqrt(2), and
    C_0(rho - Omega_S) = Tr(rho - Omega_S) = 0, so the union over the other
    d_S^2 - 1 unitaries and both parts gives

        Prob[max_x |C_x| >= epsilon]
            <= 2 (d_S^2 - 1) expectation_tail_bound(1, d_R, epsilon / sqrt(2)).
    """
    eps = suggested_epsilon(d_r) if epsilon is None else epsilon
    check_epsilon(eps)
    sharp, loose = average_distance_bound(d_s, d_r, d_eff)
    family = 2 * (d_s**2 - 1) * expectation_tail_bound(1.0, d_r, eps / math.sqrt(2.0))
    rows = [
        FormulaRow("average_distance_eff", "mean", None, None, sharp),
        FormulaRow("average_distance_dr", "mean", None, None, loose),
        FormulaRow("distance_tail", "distance", eps, *distance_tail_bound(d_s, d_r, d_eff, eps)),
        FormulaRow("levy_tail", "deviation", eps, eps, levy_tail(state_sphere_dim(d_r), 2.0, eps)),
        FormulaRow("operator_basis_tail", "distance", None, *operator_basis_tail_bound(d_s, d_r)),
        FormulaRow("coefficient_family_tail", "coefficients", eps, eps, family),
    ]
    if filtered is not None and not filtered.degenerate:
        tail = filtered_distance_tail_bound(
            filtered.support_dim, filtered.effective_env_dim, d_r, filtered.miss_weight, eps
        )
        rows.append(FormulaRow("filtered_distance_tail", "distance", eps, *tail))
    return rows


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
