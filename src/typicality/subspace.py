"""Constrained subspaces of a bipartite Hilbert space and their canonical states.

A global restriction is represented by an explicit orthonormal basis of a
subspace of the composite system/environment space.  The equiprobable state on
that subspace, its two reduced states, and the purity-based effective
environment dimension are derived here.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import RankDeficiencyError, ShapeMismatchError, TypicalityError
from .linalg import (
    DEFAULT_DIMENSION_CAP,
    INVARIANT_ATOL,
    BipartiteShape,
    check_cap,
    complex_matrix_from_json,
    complex_matrix_to_json,
    purity,
)

#: Residual norm below which a vector is declared linearly dependent.
DEPENDENCE_TOL = 1e-8


def gram_schmidt(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """Orthonormalize ``vectors`` (rows of the result), with a re-orthogonalization pass.

    Raises :class:`RankDeficiencyError` when a residual drops below
    ``DEPENDENCE_TOL``, i.e. the input set is (numerically) rank deficient.
    """
    rows: list[np.ndarray] = []
    for v in vectors:
        w = np.array(v, dtype=complex)
        norm = np.linalg.norm(w)
        if norm < DEPENDENCE_TOL:
            raise RankDeficiencyError("zero-norm input vector")
        w /= norm
        # Two projection sweeps keep orthogonality near machine precision
        # even for nearly dependent inputs.
        for _ in range(2):
            for b in rows:
                w -= (b.conj() @ w) * b
        residual = np.linalg.norm(w)
        if residual < DEPENDENCE_TOL:
            raise RankDeficiencyError(
                f"vector {len(rows)} is linearly dependent (residual {residual:.3e})"
            )
        rows.append(w / residual)
    return np.array(rows)


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

    @classmethod
    def from_json_dict(cls, obj: dict, *, cap: int = DEFAULT_DIMENSION_CAP) -> "ConstraintSubspace":
        shape = BipartiteShape(int(obj["dimS"]), int(obj["dimE"]))
        rows = complex_matrix_from_json(obj["basis"])
        return from_basis_vectors(shape, rows, cap=cap)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path, *, cap: int = DEFAULT_DIMENSION_CAP) -> "ConstraintSubspace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh), cap=cap)


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
    """Equiprobable state on a constrained subspace and its reduced states.

    ``system_state`` is the environment trace of the equiprobable state (the
    state an observer of the system alone would assign), ``environment_state``
    the system trace, and ``effective_env_dim`` the inverse purity of the
    latter: the number of environment dimensions effectively occupied.
    """

    subspace: ConstraintSubspace
    system_state: np.ndarray
    environment_state: np.ndarray
    environment_purity: float
    effective_env_dim: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "effective_env_dim", 1.0 / self.environment_purity)

    @property
    def system_purity(self) -> float:
        return purity(self.system_state)

    def equiprobable(self, *, cap: int = DEFAULT_DIMENSION_CAP) -> np.ndarray:
        """Dense composite equiprobable state (projector / dim)."""
        sub = self.subspace
        check_cap(sub.shape.dim, cap)
        b = sub.basis
        return (b.T @ b.conj()) / sub.dim_subspace


def canonical_ensemble(sub: ConstraintSubspace) -> CanonicalEnsemble:
    """Reduced states of the equiprobable state P_R / d_R, without materializing it."""
    d_r = sub.dim_subspace
    omega_s, omega_e, env_purity = sub.marginals(np.ones(d_r), d_r)
    ens = CanonicalEnsemble(
        subspace=sub,
        system_state=omega_s,
        environment_state=omega_e,
        environment_purity=env_purity,
    )
    floor = d_r / sub.shape.dim_system - 1e-9
    if ens.effective_env_dim < floor:
        raise TypicalityError(
            f"effective environment dimension {ens.effective_env_dim} below floor {floor}"
        )
    if abs(float(np.trace(omega_s).real) - 1.0) > 10 * INVARIANT_ATOL:
        raise ShapeMismatchError("system marginal lost trace")
    return ens
