"""Measurement filters: conditioning the ensemble on an almost-certain outcome.

A filter is a Hermitian effect operator X with 0 <= X <= 1 and finite entries
on subspace coordinates: a 2-d d_R x d_R matrix, or a 1-d diagonal, checked
and applied entry by entry.  States live on the subspace, so they see an
operator on the composite space only through its compression P_R X P_R; such
an operator comes in as ``MeasurementFilter(sub.compress_operator(x))``.
Applying a filter to the equiprobable state yields a sub-normalized ensemble
whose deficit ``miss_weight`` (one minus the retained trace) is the
probability of the complementary outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, OperatorRangeError, ShapeMismatchError
from .linalg import HERMITICITY_ATOL, require_hermitian
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
        if not np.isfinite(m).all():  # before the skew, which inf turns into a warning
            raise OperatorRangeError("filter entries must be finite")
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


def apply_filter(sub: ConstraintSubspace, f: MeasurementFilter) -> CanonicalEnsemble:
    """Condition the equiprobable state on ``f``.

    The filtered state on subspace coordinates is sqrt(X) (1/d_R) sqrt(X)
    = X / d_R.  Its system marginal and environment purity are the subspace
    marginals of X / d_R, one pass of ``ConstraintSubspace.marginals``; a
    diagonal X (1-d) takes its index-count route and builds no d_R x d_R
    matrix.  The filter's system support rank, that of Tr_E X, counts the
    marginal's eigenvalues above ``SUPPORT_RANK_TOL`` / d_R.  For the window
    projector P_S (x) 1_E on a chain shell, as a diagonal or compressed,
    that is the number of window strings that occur in the shell.
    """
    d_r = sub.dim_subspace
    if len(f.matrix) != d_r:  # a diagonal, or square by construction
        raise ShapeMismatchError("filter does not act on the subspace coordinates")
    e_tilde = f.matrix / d_r
    diagonal = e_tilde if e_tilde.ndim == 1 else np.diagonal(e_tilde)
    miss = min(max(1.0 - float(diagonal.sum().real), 0.0), 1.0)
    omega_s, env_purity = sub.marginals(e_tilde.real if e_tilde.ndim == 1 else e_tilde)
    support = int(np.sum(np.linalg.eigvalsh(omega_s) > SUPPORT_RANK_TOL / d_r))
    return build_ensemble(sub, (omega_s, env_purity), miss, support)
