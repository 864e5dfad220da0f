"""Constrained subspaces of a bipartite Hilbert space and their canonical states.

A global restriction is represented by an explicit orthonormal basis of a
subspace of the composite system/environment space.  The equiprobable state on
that subspace, its reduced system state, and its environment purity with the
effective environment dimension it defines are derived here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionCapError, RankDeficiencyError, ShapeMismatchError, TypicalityError
from .linalg import (
    DEFAULT_DIMENSION_CAP,
    GEMM_PIECE,
    INVARIANT_ATOL,
    MAX_ENUMERATION_BITS,
    BipartiteShape,
    add_product,
    check_cap,
    complex_matrix_from_json,
    complex_matrix_to_json,
    json_dimension,
    json_fields,
    purity,
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
            ordered = np.sort(flat_indices)  # np.unique would import numpy.ma
            if ordered[0] < 0 or ordered[-1] >= shape.dim:
                raise ShapeMismatchError("flat index out of composite range")
            if (ordered[1:] == ordered[:-1]).any():
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
    def block_slabs(self) -> tuple[list[tuple], np.ndarray | None, np.ndarray | None, np.ndarray]:
        """A subspace's occupied system blocks, and a state's amplitudes laid out by them.

        Two system indices share a block when some environment index pairs
        with both, so the environment trace of an operator on the subspace (a
        state, the canonical or a filtered ensemble) is zero off the blocks,
        also on the system indices that no basis vector uses.  A spin chain's
        blocks are its occupied excitation shells; a dense basis is one block.
        Returns (blocks, the basis vector at each slab entry, the slab entries
        no basis vector fills, the product entry of each flat (d_S x d_S)
        index).  ``blocks`` lists each block once, by its first index, as (its
        system indices in increasing order, slab start, slab end, groups,
        product start); its (size, groups) slab has those indices as rows and
        the environment indices paired with them, in increasing order, as
        columns.  The slabs lie end to end, and so do the size x size
        products; entries off the blocks gather the zero past the last one.
        A chain's slabs are full (a string pairs with every string of the
        complementary shell), d_R entries in all.  A dense basis is one
        (d_S, d_E) slab, the lifted state: it has no source, and the gather
        is the identity.
        """
        d_s = self.shape.dim_system
        if self._flat is None:
            everything = (np.arange(d_s), 0, self.shape.dim, self.shape.dim_environment, 0)
            return [everything], None, None, np.arange(d_s * d_s)
        sys_idx, env_idx = self.one_hot
        _, group = np.unique(env_idx, return_inverse=True)
        n_groups = int(group.max()) + 1
        # every index takes the smallest label among the groups it is in,
        # each label then its own label's, until nothing moves
        label = np.arange(d_s)
        while True:
            low = np.full(n_groups, label.size)
            np.minimum.at(low, group, label[sys_idx])
            moved = label.copy()
            np.minimum.at(moved, sys_idx, low[group])
            moved = moved[moved]
            if np.array_equal(moved, label):
                break
            label = moved
        used = np.flatnonzero(np.bincount(sys_idx, minlength=d_s))
        order = used[np.argsort(label[used], kind="stable")]
        members = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
        sizes = np.array([idx.size for idx in members])
        firsts = np.cumsum(np.concatenate([[0], sizes**2]))
        gather = np.full(d_s * d_s, firsts[-1])
        block_of, local = np.empty((2, d_s), dtype=np.int64)
        for b, idx in enumerate(members):
            block_of[idx], local[idx] = b, np.arange(idx.size)
            gather[(idx[:, None] * d_s + idx).ravel()] = firsts[b] + np.arange(idx.size**2)
        # the slab columns: (block, group) pairs in order
        block = block_of[sys_idx]
        pairs, column = np.unique(block * n_groups + group, return_inverse=True)
        counts = np.bincount(pairs // n_groups, minlength=len(members))
        ends = np.cumsum(counts * sizes)
        starts = ends - counts * sizes
        column -= (np.cumsum(counts) - counts)[block]  # within its block
        offsets = starts[block] + local[sys_idx] * counts[block] + column
        source = np.zeros(ends[-1], dtype=np.int64)
        source[offsets] = np.arange(offsets.size)
        filled = np.zeros(ends[-1], dtype=bool)
        filled[offsets] = True
        blocks = [(idx, int(lo), int(hi), int(n), int(first))
                  for idx, lo, hi, n, first in zip(members, starts, ends, counts, firsts)]
        return blocks, source, np.flatnonzero(~filled), gather

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

    def compress_operator(self, x: np.ndarray) -> np.ndarray:
        """Restrict a composite-space operator to subspace coordinates, <b_i|X|b_j>."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.shape.dim, self.shape.dim):
            raise ShapeMismatchError("operator does not act on the composite space")
        return self.basis.conj() @ x @ self.basis.T

    def marginals(self, weights: np.ndarray, divisor: float = 1.0) -> tuple[np.ndarray, float]:
        """(Tr_E W, Tr (Tr_S W)^2) for W = sum_ij w_ij |b_i><b_j| / divisor.

        A 1-d ``weights`` is the (real) diagonal of W.  In index form such a W
        has diagonal marginals, summed by index counts.  Otherwise, with T_i the
        row b_i as a (d_S, d_E) matrix and U_i = sum_j w_ij conj(T_j), Tr_E W =
        sum_i T_i U_i^T and Tr_S W = Y^T V, Y and V being T and U as (d_R d_S, d_E)
        matrices, each product summed by ``add_product``, a piece of rows at a time:
        GEMM_PIECE (row, system) pairs, d_E / 4 from d_E = 1024 on.  ``divisor`` is applied
        after the sums, so P_R with divisor d_R gives its marginals as counts / d_R.
        """
        weights = np.asarray(weights)
        if weights.shape not in ((self.dim_subspace,), (self.dim_subspace,) * 2):
            raise ShapeMismatchError(f"weights of shape {weights.shape} do not fit the subspace")
        if self._flat is not None and weights.ndim == 1:
            sys_idx, env_idx = self.one_hot
            sys_w = np.bincount(sys_idx, weights, minlength=self.shape.dim_system)
            env_w = np.bincount(env_idx, weights, minlength=self.shape.dim_environment)
            return np.diag(sys_w.astype(complex) / divisor), purity(env_w / divisor)
        d_s, d_e, d_r = self.shape.dim_system, self.shape.dim_environment, self.dim_subspace
        rows = min(max(1, GEMM_PIECE * max(1, d_e // (4 * GEMM_PIECE)) // d_s), d_r)
        sys_m, sys_part = np.zeros((2, rows, d_s, d_s), dtype=complex)
        env_m, env_part = np.zeros((d_e, d_e), dtype=complex), np.empty((d_e, d_e), dtype=complex)
        work = np.empty((weights.ndim, rows, self.shape.dim), dtype=complex)
        for lo in range(0, d_r, rows):
            t, w = self.basis[lo : lo + rows], weights[lo : lo + rows]
            n, k, u = len(t), len(t) * d_s, work[0, : len(t)]
            if weights.ndim == 1:
                np.multiply(np.conjugate(t, out=u), w[:, None], out=u)
            else:  # the lift of conj(w), conjugated
                u.fill(0)
                np.conjugate(add_product(u, w.conj(), self.basis, work[1, :n]), out=u)
            y, v = t.reshape(n, d_s, d_e), u.reshape(n, d_s, d_e).transpose(0, 2, 1)
            add_product(sys_m[:n], y, v, sys_part[:n])
            add_product(env_m, t.reshape(k, d_e).T, u.reshape(k, d_e), env_part)
        del env_part, work  # before the purity's temporaries
        return sys_m.sum(0) / divisor, purity(np.divide(env_m, divisor, out=env_m))

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
        """JSON object {dimS, dimE} with ``flat_indices`` in index form, else
        ``basis`` (see ``complex_matrix_to_json``), one row per vector."""
        if self._flat is not None:
            form = {"flat_indices": self._flat.tolist()}
        else:
            form = {"basis": complex_matrix_to_json(self.basis)}
        return {"dimS": self.shape.dim_system, "dimE": self.shape.dim_environment, **form}

    @classmethod
    def _decode(cls, obj, cap: int) -> functools.partial:
        """The builder of the subspace a JSON object describes, its fields
        checked, its size (``check_size``) before its entries are read."""
        dim_s, dim_e = json_fields(obj, "dimS", "dimE")
        shape = BipartiteShape(json_dimension(dim_s, "dimS"), json_dimension(dim_e, "dimE"))
        if ("basis" in obj) == ("flat_indices" in obj):
            raise ShapeMismatchError("JSON object must hold exactly one of basis, flat_indices")
        dense = "basis" in obj
        check_size(shape, dense, cap)
        if dense:
            rows = complex_matrix_from_json(obj["basis"])
            return functools.partial(from_basis_vectors, shape, rows, cap=cap)
        indices = obj["flat_indices"]
        if not isinstance(indices, list) or not all(
            type(i) is int and 0 <= i < shape.dim for i in indices
        ):
            raise ShapeMismatchError(f"flat_indices must be integers in [0, {shape.dim})")
        return functools.partial(cls, shape, flat_indices=np.array(indices, dtype=np.int64))

    @classmethod
    def from_json_dict(cls, obj) -> "ConstraintSubspace":
        return cls._decode(obj, DEFAULT_DIMENSION_CAP)()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path, *, cap: int = DEFAULT_DIMENSION_CAP) -> "ConstraintSubspace":
        # The parsed object is freed before the subspace is built, so it and
        # the Gram matrix (or the QR's work arrays) are never resident together.
        with open(path, "r", encoding="utf-8") as fh:
            build = cls._decode(json.load(fh), cap)
        return build()


def check_size(shape: BipartiteShape, dense: bool, cap: int = DEFAULT_DIMENSION_CAP) -> None:
    """The one size rule for a subspace of ``shape``, checked before anything is built.

    A dense basis holds d_S * d_E entries per vector, so ``cap`` bounds
    d_S * d_E.  An index-form subspace builds no matrix bigger than
    d_S x d_S, so ``cap`` bounds d_S, and d_S * d_E may not pass
    2**``MAX_ENUMERATION_BITS``.  Raises :class:`DimensionCapError`.
    """
    check_cap(shape.dim if dense else shape.dim_system, cap)
    if not dense and shape.dim > 1 << MAX_ENUMERATION_BITS:
        raise DimensionCapError(
            f"dimension {shape.dim} exceeds index-form cap 2^{MAX_ENUMERATION_BITS}"
        )


def full_space(shape: BipartiteShape, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstraintSubspace:
    """The unconstrained subspace: the whole composite space, computational basis."""
    check_size(shape, dense=False, cap=cap)
    return ConstraintSubspace(shape, flat_indices=np.arange(shape.dim))


def from_basis_vectors(
    shape: BipartiteShape,
    vectors: Sequence[np.ndarray] | np.ndarray,
    *,
    cap: int = DEFAULT_DIMENSION_CAP,
) -> ConstraintSubspace:
    """Build a subspace from spanning vectors, Gram-Schmidt orthonormalized
    unless they are orthonormal to ``INVARIANT_ATOL``, as a saved basis is.
    A NaN or infinite entry raises :class:`ShapeMismatchError`."""
    check_size(shape, dense=True, cap=cap)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.size == 0:
        raise ShapeMismatchError("at least one vector is required")
    if vectors.shape[1] != shape.dim:
        raise ShapeMismatchError(
            f"vectors of length {vectors.shape[1]} do not live in dimension {shape.dim}"
        )
    if not np.isfinite(vectors).all():
        raise ShapeMismatchError("basis entries must be finite")
    if vectors.shape[0] <= shape.dim:  # more rows are refused before a Gram matrix
        gram = vectors @ vectors.conj().T
        gram[np.diag_indices_from(gram)] -= 1.0
        if np.abs(gram).max() <= INVARIANT_ATOL:
            return ConstraintSubspace(shape, dense_basis=vectors)
    return ConstraintSubspace(shape, dense_basis=gram_schmidt(vectors))


def random_subspace(
    shape: BipartiteShape,
    dim_subspace: int,
    rng: np.random.Generator,
) -> ConstraintSubspace:
    """Haar-distributed subspace: orthonormalized i.i.d. complex Gaussian vectors."""
    check_size(shape, dense=True)
    if not 1 <= dim_subspace <= shape.dim:
        raise ShapeMismatchError(
            f"subspace dimension {dim_subspace} outside [1, {shape.dim}]"
        )
    g = rng.standard_normal((dim_subspace, shape.dim)) + 1j * rng.standard_normal(
        (dim_subspace, shape.dim)
    )
    return ConstraintSubspace(shape, dense_basis=gram_schmidt(g))


@dataclass(frozen=True)
class CanonicalEnsemble:
    """The state X / d_R on a constrained subspace, through its reduced states.

    X = P_R gives the canonical (equiprobable) ensemble; a measurement filter
    0 <= X <= 1 gives the filtered one, whose reduced states have trace
    1 - ``miss_weight``.  ``system_state`` is the environment trace (the
    state an observer of the system alone would assign),
    ``environment_purity`` the purity of the system trace (the environment
    enters the bounds only through it), and ``support_dim`` the system rank
    the filter keeps (d_S when unfiltered).
    """

    subspace: ConstraintSubspace
    system_state: np.ndarray
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


def build_ensemble(
    sub: ConstraintSubspace, marginals: tuple[np.ndarray, float],
    miss_weight: float, support_dim: int,
) -> CanonicalEnsemble:
    """The ensemble of an operator's ``marginals`` on ``sub``, (Tr_E W, Tr (Tr_S W)^2)
    as ``ConstraintSubspace.marginals`` gives them, with its invariants checked.

    The system marginal must keep trace 1 - ``miss_weight``, else
    :class:`ShapeMismatchError`.  Unless the ensemble is degenerate, the
    effective environment dimension must reach d_R / ``support_dim``, else
    :class:`TypicalityError`.
    """
    omega_s, env_purity = marginals
    ens = CanonicalEnsemble(sub, omega_s, env_purity, miss_weight, support_dim)
    trace_gap = abs(float(np.trace(omega_s).real) - (1.0 - miss_weight))
    if not trace_gap <= 10 * INVARIANT_ATOL:  # a NaN gap fails too
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
    return build_ensemble(sub, sub.marginals(np.ones(d_r), d_r), 0.0, sub.shape.dim_system)
