"""Constrained subspaces of a bipartite Hilbert space and their canonical states.

A global restriction is represented by an explicit orthonormal basis of a
subspace of the composite system/environment space.  The equiprobable state on
that subspace, its two reduced states, and the purity-based effective
environment dimension are derived here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RankDeficiencyError, ShapeMismatchError, TypicalityError
from .linalg import (
    DEFAULT_DIMENSION_CAP,
    INVARIANT_ATOL,
    BipartiteShape,
    check_cap,
    complex_matrix_from_json,
    complex_matrix_to_json,
    json_dimension,
    json_fields,
    purity,
    write_json_object,
)

#: Residual norm below which a vector is declared linearly dependent.
DEPENDENCE_TOL = 1e-8


def gram_schmidt(vectors: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Orthonormalize ``vectors`` (rows of the result) in their given order.

    One Householder QR of the normalized vectors; each column is rephased so
    that R has a positive diagonal, which makes the rows exactly the
    Gram-Schmidt basis.  Raises :class:`RankDeficiencyError` for a zero-norm
    vector, for more vectors than the dimension, and for the first vector
    whose residual |R_ii| drops below ``DEPENDENCE_TOL``.
    """
    a = np.atleast_2d(np.asarray(vectors, dtype=complex))
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms < DEPENDENCE_TOL):
        raise RankDeficiencyError("zero-norm input vector")
    if a.shape[0] > a.shape[1]:
        raise RankDeficiencyError(f"{a.shape[0]} vectors in dimension {a.shape[1]} are dependent")
    q, r = np.linalg.qr((a / norms[:, None]).T)
    residuals = np.abs(np.diagonal(r))
    dependent = np.flatnonzero(residuals < DEPENDENCE_TOL)
    if dependent.size:
        i = int(dependent[0])
        raise RankDeficiencyError(
            f"vector {i} is linearly dependent (residual {residuals[i]:.3e})"
        )
    q *= np.diagonal(r) / residuals
    return q.T


class ConstraintSubspace:
    """Orthonormal embedding of a restricted subspace into system x environment.

    The basis is stored as rows of a ``(dim_subspace, dim)`` array, i.e. an
    isometry from coordinate space into the composite space.  Subspaces whose
    basis vectors are computational basis states (spin chains, full spaces)
    are kept in index form and the dense basis is materialized only on demand.
    Instances are immutable; share them freely across threads.
    """

    def __init__(
        self,
        shape: BipartiteShape,
        *,
        dense_basis: np.ndarray | None = None,
        flat_indices: np.ndarray | None = None,
    ) -> None:
        if (dense_basis is None) == (flat_indices is None):
            raise ValueError("provide exactly one of dense_basis, flat_indices")
        self.shape = shape
        if flat_indices is not None:
            flat_indices = np.asarray(flat_indices, dtype=np.int64)
            if flat_indices.ndim != 1 or flat_indices.size == 0:
                raise ShapeMismatchError("flat_indices must be a nonempty 1-d array")
            if flat_indices.min() < 0 or flat_indices.max() >= shape.dim:
                raise ShapeMismatchError("flat index out of composite range")
            if np.unique(flat_indices).size != flat_indices.size:
                raise RankDeficiencyError("repeated computational basis state")
            self._flat = flat_indices
            self._dense: np.ndarray | None = None
            self.dim_subspace = int(flat_indices.size)
        else:
            dense_basis = np.asarray(dense_basis, dtype=complex)
            if dense_basis.ndim != 2 or dense_basis.shape[1] != shape.dim:
                raise ShapeMismatchError(
                    f"basis shape {dense_basis.shape} does not match composite dimension {shape.dim}"
                )
            dense_basis = dense_basis.copy()
            dense_basis.setflags(write=False)
            self._flat = None
            self._dense = dense_basis
            self.dim_subspace = int(dense_basis.shape[0])
        if self.dim_subspace > shape.dim:
            raise ShapeMismatchError("subspace dimension exceeds composite dimension")

    @property
    def basis(self) -> np.ndarray:
        """Dense ``(dim_subspace, dim)`` orthonormal basis, rows are vectors."""
        if self._dense is None:
            dense = np.zeros((self.dim_subspace, self.shape.dim), dtype=complex)
            dense[np.arange(self.dim_subspace), self._flat] = 1.0
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def one_hot(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(system index, environment index) per basis vector, if computational."""
        if self._flat is None:
            return None
        d_e = self.shape.dim_environment
        return self._flat // d_e, self._flat % d_e

    @functools.cached_property
    def env_groups(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Basis vectors grouped by environment index; None unless in index form.

        Returns (group id per basis vector, system index per basis vector, group
        count).  Basis vectors sharing an environment string are the only ones
        whose interference survives the environment trace, so a state's reduced
        system matrix is a sum of rank-one blocks over these groups.
        """
        if self._flat is None:
            return None
        sys_idx, env_idx = self.one_hot
        _, group = np.unique(env_idx, return_inverse=True)
        return group, sys_idx, int(group.max()) + 1

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """Lift coordinates on the subspace to a composite vector."""
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (self.dim_subspace,):
            raise ShapeMismatchError(
                f"expected {self.dim_subspace} coordinates, got shape {coords.shape}"
            )
        if self._flat is not None:
            out = np.zeros(self.shape.dim, dtype=complex)
            out[self._flat] = coords
            return out
        return coords @ self.basis

    def project(self, ambient: np.ndarray) -> np.ndarray:
        """Coordinates of the orthogonal projection of a composite vector."""
        ambient = np.asarray(ambient, dtype=complex)
        if ambient.shape != (self.shape.dim,):
            raise ShapeMismatchError("ambient vector has wrong dimension")
        if self._flat is not None:
            return ambient[self._flat].copy()
        return self.basis.conj() @ ambient

    def compress_operator(self, x: np.ndarray) -> np.ndarray:
        """Restrict a composite-space operator to subspace coordinates, <b_i|X|b_j>."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.shape.dim, self.shape.dim):
            raise ShapeMismatchError("operator does not act on the composite space")
        if self._flat is not None:
            return x[np.ix_(self._flat, self._flat)].copy()
        return self.basis.conj() @ x @ self.basis.T

    def basis_tensor(self) -> np.ndarray:
        """Basis reshaped to ``(dim_subspace, dim_system, dim_environment)``."""
        return self.basis.reshape(
            self.dim_subspace, self.shape.dim_system, self.shape.dim_environment
        )

    def marginals(
        self, weights: np.ndarray, divisor: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """(Tr_E W, Tr_S W, Tr (Tr_S W)^2) for W = sum_ij w_ij |b_i><b_j| / divisor.

        A 1-d ``weights`` is the (real) diagonal of W.  In index form such a W
        has diagonal marginals, summed by index counts; every other case is
        contracted through the basis tensor.  ``divisor`` is applied after the
        sums, so integer weights (the projector P_R with divisor d_R) give the
        marginals of P_R / d_R exactly as counts / d_R.
        """
        weights = np.asarray(weights)
        if weights.shape not in ((self.dim_subspace,), (self.dim_subspace,) * 2):
            raise ShapeMismatchError(f"weights of shape {weights.shape} do not fit the subspace")
        if self._flat is not None and weights.ndim == 1:
            sys_idx, env_idx = self.one_hot
            sys_w = np.bincount(sys_idx, weights, minlength=self.shape.dim_system)
            env_w = np.bincount(env_idx, weights, minlength=self.shape.dim_environment)
            sys_m = np.diag(sys_w.astype(complex) / divisor)
            env_m = np.diag(env_w.astype(complex) / divisor)
            return sys_m, env_m, purity(env_w / divisor)
        t = self.basis_tensor()
        w, j = ("i", "i") if weights.ndim == 1 else ("ij", "j")
        sys_m = np.einsum(f"{w},ise,{j}te->st", weights, t, t.conj(), optimize=True) / divisor
        env_m = np.einsum(f"{w},ise,{j}sf->ef", weights, t, t.conj(), optimize=True) / divisor
        return sys_m, env_m, purity(env_m)

    def equals(self, other: "ConstraintSubspace") -> bool:
        if self is other:
            return True
        if self.shape != other.shape or self.dim_subspace != other.dim_subspace:
            return False
        if self._flat is not None and other._flat is not None:
            return bool(np.array_equal(self._flat, other._flat))
        return bool(np.array_equal(self.basis, other.basis))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON object {dimS, dimE, basis: [[re, im], ...] per vector}."""
        return {
            "dimS": self.shape.dim_system,
            "dimE": self.shape.dim_environment,
            "basis": complex_matrix_to_json(self.basis),
        }

    @staticmethod
    def _shape_and_rows(obj: dict) -> tuple[BipartiteShape, np.ndarray]:
        dim_s, dim_e, basis = json_fields(obj, "dimS", "dimE", "basis")
        shape = BipartiteShape(json_dimension(dim_s, "dimS"), json_dimension(dim_e, "dimE"))
        return shape, complex_matrix_from_json(basis)

    @classmethod
    def from_json_dict(cls, obj: dict, *, cap: int = DEFAULT_DIMENSION_CAP) -> "ConstraintSubspace":
        return from_basis_vectors(*cls._shape_and_rows(obj), cap=cap)

    def save(self, path) -> None:
        write_json_object(self.to_json_dict(), path)

    @classmethod
    def load(cls, path, *, cap: int = DEFAULT_DIMENSION_CAP) -> "ConstraintSubspace":
        # The parsed lists are freed before orthonormalization, so they and
        # the QR's work arrays are never resident together.
        with open(path, "r", encoding="utf-8") as fh:
            shape, rows = cls._shape_and_rows(json.load(fh))
        return from_basis_vectors(shape, rows, cap=cap)


def full_space(shape: BipartiteShape, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstraintSubspace:
    """The unconstrained subspace: the whole composite space, computational basis."""
    check_cap(shape.dim, cap)
    return ConstraintSubspace(shape, flat_indices=np.arange(shape.dim))


def from_basis_vectors(
    shape: BipartiteShape,
    vectors: Sequence[np.ndarray] | np.ndarray,
    *,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> ConstraintSubspace:
    """Build a subspace from spanning vectors, Gram-Schmidt orthonormalized."""
    check_cap(shape.dim, cap)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.size == 0:
        raise ShapeMismatchError("at least one vector is required")
    if vectors.shape[1] != shape.dim:
        raise ShapeMismatchError(
            f"vectors of length {vectors.shape[1]} do not live in dimension {shape.dim}"
        )
    basis = gram_schmidt(vectors)
    return ConstraintSubspace(shape, dense_basis=basis)


def random_subspace(
    shape: BipartiteShape,
    dim_subspace: int,
    rng: np.random.Generator,
    *,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> ConstraintSubspace:
    """Haar-distributed subspace: orthonormalized i.i.d. complex Gaussian vectors."""
    if not 1 <= dim_subspace <= shape.dim:
        raise ShapeMismatchError(
            f"subspace dimension {dim_subspace} outside [1, {shape.dim}]"
        )
    g = rng.standard_normal((dim_subspace, shape.dim)) + 1j * rng.standard_normal(
        (dim_subspace, shape.dim)
    )
    return from_basis_vectors(shape, g, cap=cap)


@dataclass(frozen=True)
class CanonicalEnsemble:
    """The state X / d_R on a constrained subspace, through its reduced states.

    X = P_R gives the canonical (equiprobable) ensemble; a measurement filter
    0 <= X <= 1 gives the filtered one, whose reduced states have trace
    1 - ``miss_weight``.  ``system_state`` is the environment trace (the
    state an observer of the system alone would assign), ``environment_state``
    the system trace, and ``support_dim`` the system rank the filter keeps
    (d_S when unfiltered).
    """

    subspace: ConstraintSubspace
    system_state: np.ndarray
    environment_state: np.ndarray
    environment_purity: float
    miss_weight: float
    support_dim: int

    @property
    def effective_env_dim(self) -> float:
        """Inverse environment purity: the environment dimensions effectively occupied."""
        if self.environment_purity <= 0.0:
            return math.inf
        return 1.0 / self.environment_purity

    @property
    def system_purity(self) -> float:
        return purity(self.system_state)

    @property
    def degenerate(self) -> bool:
        """True for the all-zero filter (everything missed); flagged, not rejected."""
        return self.miss_weight >= 1.0 - 1e-12

    def equiprobable(self, *, cap: int = DEFAULT_DIMENSION_CAP) -> np.ndarray:
        """Dense composite equiprobable state P_R / d_R of the subspace, unfiltered."""
        sub = self.subspace
        check_cap(sub.shape.dim, cap)
        b = sub.basis
        return (b.T @ b.conj()) / sub.dim_subspace


def build_ensemble(
    sub: ConstraintSubspace, weights: np.ndarray, divisor: float,
    miss_weight: float, support_dim: int,
) -> CanonicalEnsemble:
    """The ensemble of W = weights / divisor (see ``marginals``), with its invariants checked.

    The system marginal must keep trace 1 - ``miss_weight``, else
    :class:`ShapeMismatchError`.  Unless the ensemble is degenerate, the
    effective environment dimension must reach d_R / ``support_dim``, else
    :class:`TypicalityError`.
    """
    omega_s, omega_e, env_purity = sub.marginals(weights, divisor)
    ens = CanonicalEnsemble(sub, omega_s, omega_e, env_purity, miss_weight, support_dim)
    if abs(float(np.trace(omega_s).real) - (1.0 - miss_weight)) > 10 * INVARIANT_ATOL:
        raise ShapeMismatchError("system marginal lost trace")
    if not ens.degenerate and support_dim > 0:
        floor = sub.dim_subspace / support_dim - 1e-9
        if ens.effective_env_dim < floor:
            raise TypicalityError(
                f"effective environment dimension {ens.effective_env_dim:.6g} "
                f"fell below d_R / support = {floor:.6g}"
            )
    return ens


def canonical_ensemble(sub: ConstraintSubspace) -> CanonicalEnsemble:
    """Reduced states of the equiprobable state P_R / d_R, without materializing it."""
    d_r = sub.dim_subspace
    return build_ensemble(sub, np.ones(d_r), d_r, 0.0, sub.shape.dim_system)
