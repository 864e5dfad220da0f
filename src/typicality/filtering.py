"""Measurement filters: conditioning the ensemble on an almost-certain outcome.

A filter is a Hermitian effect operator X with 0 <= X <= 1, given either on
the composite space or directly on subspace coordinates.  Applying it to the
equiprobable state yields a sub-normalized ensemble whose deficit
``miss_weight`` (one minus the retained trace) is the probability of the
complementary outcome.  Filters are always compressed to subspace coordinates
internally; the square root is taken there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import OperatorRangeError, ShapeMismatchError
from .linalg import (
    HERMITICITY_ATOL,
    BipartiteShape,
    complex_matrix_from_json,
    complex_matrix_to_json,
    json_dimension,
    json_fields,
    partial_trace,
    require_hermitian,
    sqrt_psd,
    trace_norm,
    write_json_object,
)
from .sampling import PureState, reduced_state_from_coords
from .subspace import CanonicalEnsemble, ConstraintSubspace, build_ensemble

#: Eigenvalue slack tolerated around the [0, 1] effect range.
RANGE_ATOL = 1e-10

#: Eigenvalues of the traced filter above this count toward its support rank.
SUPPORT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class MeasurementFilter:
    """Effect operator, flagged with the coordinate system it is written in."""

    matrix: np.ndarray
    coords: Literal["composite", "subspace"] = "composite"
    shape: BipartiteShape | None = None

    def __post_init__(self) -> None:
        m = require_hermitian(self.matrix, atol=HERMITICITY_ATOL)
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -RANGE_ATOL or eigs.max() > 1.0 + RANGE_ATOL:
            raise OperatorRangeError(
                f"effect spectrum [{eigs.min():.3e}, {eigs.max():.3e}] leaves [0, 1]"
            )
        if self.coords == "composite":
            if self.shape is None:
                raise ShapeMismatchError("composite filters need a BipartiteShape")
            if m.shape != (self.shape.dim, self.shape.dim):
                raise ShapeMismatchError("filter does not act on the composite space")
        elif self.coords != "subspace":
            raise ValueError(f"coords must be 'composite' or 'subspace', got {self.coords!r}")
        frozen = m.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "matrix", frozen)

    def subspace_matrix(self, sub: ConstraintSubspace) -> np.ndarray:
        """The filter compressed to subspace coordinates, <b_i|X|b_j>."""
        if self.coords == "subspace":
            if self.matrix.shape != (sub.dim_subspace, sub.dim_subspace):
                raise ShapeMismatchError("filter does not act on the subspace coordinates")
            return np.asarray(self.matrix)
        if self.shape != sub.shape:
            raise ShapeMismatchError("filter and subspace disagree on the composite shape")
        return sub.compress_operator(self.matrix)

    def support_dim_system(self, sub: ConstraintSubspace | None = None) -> int:
        """Rank of the environment trace of the filter, at tolerance 1e-8.

        For product filters P_S (x) 1_E this is exactly the rank of P_S.  A
        filter written on subspace coordinates is embedded through the
        subspace isometry before tracing.
        """
        if self.coords == "composite":
            traced = partial_trace(self.matrix, self.shape, keep="system")
        else:
            if sub is None:
                raise ShapeMismatchError("subspace-coordinate filters need the subspace")
            traced = sub.marginals(self.matrix)[0]
        eigs = np.linalg.eigvalsh(traced)
        return int(np.sum(eigs > SUPPORT_RANK_TOL))


def apply_filter(sub: ConstraintSubspace, f: MeasurementFilter) -> CanonicalEnsemble:
    """Condition the equiprobable state on ``f``.

    The filtered state on subspace coordinates is sqrt(X) (1/d_R) sqrt(X)
    = X / d_R.  Its reduced matrices are the subspace marginals of X / d_R,
    or of its diagonal alone when X is diagonal there, as the typical-window
    projector of a chain is.
    """
    e_tilde = f.subspace_matrix(sub) / sub.dim_subspace
    diag = np.diagonal(e_tilde).real
    weights = diag if np.array_equal(e_tilde, np.diag(diag)) else e_tilde
    miss = 1.0 - float(np.trace(e_tilde).real)
    miss = min(max(miss, 0.0), 1.0)
    return build_ensemble(sub, weights, 1.0, miss, f.support_dim_system(sub))


def miss_weight_by_enumeration(sub: ConstraintSubspace, f: MeasurementFilter) -> float:
    """Independent route to the miss weight: one minus the mean of the
    per-basis-vector quadratic forms <b_i|X|b_i>.
    """
    if f.coords == "composite":
        if sub.one_hot is not None and f.shape == sub.shape:
            flat = sub.one_hot[0] * sub.shape.dim_environment + sub.one_hot[1]
            forms = np.real(np.diag(f.matrix)[flat])
        else:
            b = sub.basis
            forms = np.einsum("id,de,ie->i", b.conj(), f.matrix, b).real
    else:
        x_sub = f.subspace_matrix(sub)
        forms = np.real(np.diag(x_sub))
    return 1.0 - float(np.mean(forms))


def filtered_state(phi: PureState, f: MeasurementFilter) -> np.ndarray:
    """Sub-normalized composite vector sqrt(X) |phi>.

    The squared norm equals <phi|X|phi> (at most 1).
    """
    sub = phi.subspace
    root = _subspace_root(sub, f)
    return sub.embed(root @ phi.coords)


def perturbation_bound_check(phi: PureState, f: MeasurementFilter) -> tuple[float, float]:
    """Distance moved by filtering one state, against its closed-form cap.

    Returns (lhs, rhs) with lhs the trace distance between the reduced states
    of phi and of sqrt(X) phi, and rhs = 2 sqrt(1 - <phi|X|phi>).  The
    inequality lhs <= rhs is checked here and a violation raises.
    """
    sub = phi.subspace
    x_sub = f.subspace_matrix(sub)
    coords_tilde = _subspace_root(sub, f) @ phi.coords
    lhs = trace_norm(
        reduced_state_from_coords(sub, phi.coords) - reduced_state_from_coords(sub, coords_tilde)
    )
    retained = float(np.vdot(phi.coords, x_sub @ phi.coords).real)
    rhs = 2.0 * math.sqrt(max(0.0, 1.0 - retained))
    if lhs > rhs + 1e-9:
        raise OperatorRangeError(
            f"filter perturbation {lhs:.12g} exceeded its bound {rhs:.12g}"
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


def _subspace_root(sub: ConstraintSubspace, f: MeasurementFilter) -> np.ndarray:
    x_sub = f.subspace_matrix(sub)
    return sqrt_psd(x_sub)


# -- serialization ----------------------------------------------------------


def filter_to_json_dict(f: MeasurementFilter) -> dict:
    obj: dict = {
        "coordinates": f.coords,
        "matrix": complex_matrix_to_json(f.matrix),
    }
    if f.shape is not None:
        obj["dimS"] = f.shape.dim_system
        obj["dimE"] = f.shape.dim_environment
    return obj


def filter_from_json_dict(obj: dict) -> MeasurementFilter:
    coords, matrix = json_fields(obj, "coordinates", "matrix")
    matrix = complex_matrix_from_json(matrix)
    shape = None
    if coords == "composite":
        dim_s, dim_e = json_fields(obj, "dimS", "dimE")
        shape = BipartiteShape(json_dimension(dim_s, "dimS"), json_dimension(dim_e, "dimE"))
    return MeasurementFilter(matrix=matrix, coords=coords, shape=shape)


def save_filter(f: MeasurementFilter, path) -> None:
    write_json_object(filter_to_json_dict(f), path)


def load_filter(path) -> MeasurementFilter:
    with open(path, "r", encoding="utf-8") as fh:
        return filter_from_json_dict(json.load(fh))
