"""Measurement filters: conditioning the ensemble on an almost-certain outcome.

A filter is a Hermitian effect operator X with 0 <= X <= 1 on subspace
coordinates: a 2-d d_R x d_R matrix, or a 1-d diagonal, checked and applied
entry by entry.  States live on the subspace, so they see an operator on the
composite space only through its compression P_R X P_R; such an operator
comes in as ``MeasurementFilter(sub.compress_operator(x))``.  Applying a
filter to the equiprobable state yields a sub-normalized ensemble whose
deficit ``miss_weight`` (one minus the retained trace) is the probability of
the complementary outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, OperatorRangeError, ShapeMismatchError, SubspaceMismatchError
from .linalg import HERMITICITY_ATOL, require_hermitian, sqrt_psd, trace_norm
from .sampling import StateReducer
from .subspace import CanonicalEnsemble, ConstraintSubspace, build_ensemble

#: Eigenvalue slack tolerated around the [0, 1] effect range.
RANGE_ATOL = 1e-10

#: Eigenvalues of the traced filter above this count toward its support rank.
SUPPORT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class MeasurementFilter:
    """Effect operator on subspace coordinates; a 1-d matrix is its diagonal."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.size == 0:
            raise ShapeMismatchError("a filter needs at least one entry")
        if m.ndim == 1:
            if np.abs(m.imag).max(initial=0.0) > HERMITICITY_ATOL:
                raise HermiticityError("diagonal has an imaginary part beyond tolerance")
            eigs = m.real
        else:
            m = require_hermitian(m, atol=HERMITICITY_ATOL)
            eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -RANGE_ATOL or eigs.max() > 1.0 + RANGE_ATOL:
            raise OperatorRangeError(
                f"effect spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
            )
        frozen = m.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "matrix", frozen)

    def subspace_matrix(self, sub: ConstraintSubspace) -> np.ndarray:
        """The filter on the coordinates of ``sub``, checked against d_R; 1-d if a diagonal."""
        if len(self.matrix) != sub.dim_subspace:  # a diagonal, or square by construction
            raise ShapeMismatchError("filter does not act on the subspace coordinates")
        return self.matrix

    def support_dim_system(self, sub: ConstraintSubspace) -> int:
        """Rank of the environment trace of the filter, at tolerance 1e-8.

        The filter is embedded through the subspace isometry before tracing.
        For the window projector P_S (x) 1_E on a chain shell, as a diagonal
        or compressed, this counts the window strings that occur in the shell.
        """
        x = self.subspace_matrix(sub)
        traced = sub.marginals(x.real if x.ndim == 1 else x)[0]
        eigs = np.linalg.eigvalsh(traced)
        return int(np.sum(eigs > SUPPORT_RANK_TOL))


def apply_filter(sub: ConstraintSubspace, f: MeasurementFilter) -> CanonicalEnsemble:
    """Condition the equiprobable state on ``f``.

    The filtered state on subspace coordinates is sqrt(X) (1/d_R) sqrt(X)
    = X / d_R.  Its system marginal and environment purity are the subspace
    marginals of X / d_R; a diagonal X (1-d) takes the index-count route of
    ``ConstraintSubspace.marginals`` and builds no d_R x d_R matrix.
    """
    e_tilde = f.subspace_matrix(sub) / sub.dim_subspace
    miss = 1.0 - float(_diagonal(e_tilde).sum().real)
    miss = min(max(miss, 0.0), 1.0)
    weights = e_tilde.real if e_tilde.ndim == 1 else e_tilde
    return build_ensemble(sub, weights, 1.0, miss, f.support_dim_system(sub))


def miss_weight_by_enumeration(sub: ConstraintSubspace, f: MeasurementFilter) -> float:
    """Second route to the miss weight: one minus the mean of the diagonal
    entries <b_i|X|b_i>, where ``apply_filter`` sums the trace of X / d_R.
    """
    return 1.0 - float(np.mean(_diagonal(f.subspace_matrix(sub)).real))


def filtered_state(
    sub: ConstraintSubspace, coords: np.ndarray, f: MeasurementFilter
) -> np.ndarray:
    """Sub-normalized composite vector sqrt(X) |phi>, for phi given by its
    coordinates on ``sub``.

    The squared norm equals <phi|X|phi> (at most 1).
    """
    return sub.embed(_root_times(sub, f, coords))


def perturbation_bound_check(
    sub: ConstraintSubspace, coords: np.ndarray, f: MeasurementFilter
) -> tuple[np.ndarray, np.ndarray]:
    """Distance moved by filtering each state of a stack, against its closed-form cap.

    ``coords`` holds one state's coordinates on ``sub`` per row.  Returns
    (lhs, rhs), one entry per state, with lhs the trace distance between the
    reduced states of phi and of sqrt(X) phi, and rhs = 2 sqrt(1 -
    <phi|X|phi>).  The inequality lhs <= rhs is checked here and a violation
    raises.
    """
    coords = np.asarray(coords, dtype=complex)
    if coords.ndim != 2 or coords.shape[1] != sub.dim_subspace:
        raise SubspaceMismatchError(
            f"expected a stack of rows of {sub.dim_subspace} coordinates, got shape {coords.shape}"
        )
    n, d_s = coords.shape[0], sub.shape.dim_system
    tilde = _root_times(sub, f, coords)
    rho = np.empty((2 * n, d_s, d_s), dtype=complex)
    StateReducer(sub, 2 * n)(np.concatenate([coords, tilde]), rho)
    lhs = np.abs(np.linalg.eigvalsh(rho[:n] - rho[n:])).sum(axis=1)
    retained = np.einsum("ij,ij->i", tilde.conj(), tilde).real
    rhs = 2.0 * np.sqrt(np.maximum(0.0, 1.0 - retained))
    over = np.flatnonzero(lhs > rhs + 1e-9)
    if over.size:
        i = over[0]
        raise OperatorRangeError(
            f"filter perturbation {lhs[i]:.12g} of row {i} exceeded its bound {rhs[i]:.12g}"
        )
    return lhs, rhs


def omega_shift_check(
    ensemble: CanonicalEnsemble, filtered: CanonicalEnsemble
) -> tuple[float, float]:
    """Trace distance between unfiltered and filtered mean system states,
    against its 2 sqrt(miss_weight) cap.  Violation raises.
    """
    lhs = trace_norm(ensemble.system_state - filtered.system_state)
    rhs = 2.0 * math.sqrt(max(filtered.miss_weight, 0.0))
    if lhs > rhs + 1e-9:
        raise OperatorRangeError(
            f"mean-state shift {lhs:.12g} exceeded its bound {rhs:.12g}"
        )
    return lhs, rhs


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Diagonal of a subspace matrix, which a 1-d one already is."""
    return x if x.ndim == 1 else np.diagonal(x)


def _root_times(sub: ConstraintSubspace, f: MeasurementFilter, coords: np.ndarray) -> np.ndarray:
    """sqrt(X) applied to a coordinate vector, or to each row of a stack, the
    spectrum of X clipped into [0, 1]."""
    x_sub = f.subspace_matrix(sub)
    if x_sub.ndim == 1:
        return np.sqrt(np.clip(x_sub.real, 0.0, 1.0)) * coords
    return coords @ sqrt_psd(x_sub).T

