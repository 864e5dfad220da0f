"""Test-only code: random matrices, reference oracles and the paper's probes.

The package keeps what its commands run.  The tests check it against the
dense references here (partial traces, norms, Weyl reconstruction, a
subspace's system blocks by union-find, the chain's dense reduced and
product states, a filter's two-pass support rank) and run the paper's probes
(Lipschitz ratios, filter perturbation, the Omega_S shift, the purity
inequality) on its states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from typicality.errors import (
    HermiticityError,
    OperatorRangeError,
    ShapeMismatchError,
    TypicalityError,
)
from typicality.experiments import exact_average_purity
from typicality.filtering import SUPPORT_RANK_TOL, MeasurementFilter
from typicality.linalg import (
    HERMITICITY_ATOL,
    INVARIANT_ATOL,
    BipartiteShape,
    check_cap,
    require_hermitian,
    trace_norm,
)
from typicality.sampling import StateReducer
from typicality.spin_chain import SpinChainModel, TypicalWindow, _shell_terms
from typicality.subspace import CanonicalEnsemble, ConstraintSubspace, canonical_ensemble
from typicality.weyl import coefficients

#: Eigenvalues of numerically computed density matrices above this floor are
#: treated as round-off and clipped to zero.
EIGENVALUE_FLOOR = -1e-10


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix, for property tests and Lipschitz probes."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# -- dense linear algebra ----------------------------------------------------


def partial_trace(rho: np.ndarray, shape: BipartiteShape, keep: str = "system") -> np.ndarray:
    """Trace out one tensor factor of a composite operator.

    ``keep="system"`` returns Tr_E(rho) of dimension ``dim_system``;
    ``keep="environment"`` returns Tr_S(rho) of dimension ``dim_environment``.
    Trace and Hermiticity are preserved exactly up to round-off.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (shape.dim, shape.dim):
        raise ShapeMismatchError(
            f"operator shape {rho.shape} does not match composite dimension {shape.dim}"
        )
    four = rho.reshape(shape.dim_system, shape.dim_environment,
                       shape.dim_system, shape.dim_environment)
    if keep == "system":
        return np.trace(four, axis1=1, axis2=3)
    if keep == "environment":
        return np.trace(four, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def operator_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    m = require_hermitian(m)
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def check_density_matrix(rho: np.ndarray, atol: float = INVARIANT_ATOL) -> np.ndarray:
    """Validate Hermiticity, positivity (to round-off) and unit trace."""
    rho = require_hermitian(rho, atol=max(atol, HERMITICITY_ATOL))
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < EIGENVALUE_FLOOR:
        raise HermiticityError(f"negative eigenvalue {eigs.min():.3e} below floor")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > atol:
        raise ShapeMismatchError(f"trace {tr} deviates from 1 beyond {atol:.1e}")
    return rho


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian square root with eigenvalues clipped into [0, 1] first.

    Clipping keeps boundary round-off from producing complex roots; operators
    passed here are measurement effects, whose spectrum belongs to [0, 1].
    """
    m = require_hermitian(m)
    eigs, vecs = np.linalg.eigh(m)
    eigs = np.clip(eigs, 0.0, 1.0)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


# -- subspace blocks ---------------------------------------------------------


@functools.cache
def occupied_blocks(sub: ConstraintSubspace) -> list[np.ndarray]:
    """The system blocks of ``sub``, found without its slab layout: the
    connected components of ``one_hot``'s (system, environment) pairs, by a
    plain union-find.  Each block lists the system indices it holds in
    increasing order, blocks are ordered by their first index, and a system
    index no basis vector uses is in none; a dense subspace is one block.
    """
    if sub.one_hot is None:
        return [np.arange(sub.shape.dim_system)]
    parent: dict = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    sys_idx, env_idx = (a.tolist() for a in sub.one_hot)
    for s, e in zip(sys_idx, env_idx):
        parent[find(("system", s))] = find(("environment", e))
    blocks: dict = {}
    for s in sorted(set(sys_idx)):
        blocks.setdefault(find(("system", s)), []).append(s)
    return [np.array(b) for b in blocks.values()]


# -- Weyl expansions ---------------------------------------------------------


def reconstruct(ops: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rebuild the operator from its coefficients, (1/d) sum_x C_x U^x."""
    dim = ops.shape[1]
    return np.einsum("x,xab->ab", np.asarray(coeffs, dtype=complex), ops) / dim


def hs_distance_from_coefficients(
    coeffs_a: np.ndarray, coeffs_b: np.ndarray, dim: int
) -> float:
    """Hilbert-Schmidt distance recovered from coefficient deviations.

    Equals ``hs_norm(a - b)`` exactly, by orthogonality of the basis.
    """
    delta = np.asarray(coeffs_a) - np.asarray(coeffs_b)
    return float(np.sqrt(np.sum(np.abs(delta) ** 2) / dim))


def max_coefficient_deviation(ops: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Largest |C_x(rho) - C_x(sigma)| over the basis.

    Controls the trace distance through the chain
    ||rho - sigma||_1 <= sqrt(d) ||rho - sigma||_2 <= d * max deviation.
    """
    delta = coefficients(ops, np.asarray(rho) - np.asarray(sigma))
    return float(np.max(np.abs(delta)))


def coefficient_identity_gap(ops: np.ndarray, rho: np.ndarray, sigma: np.ndarray) -> float:
    """|hs_norm(rho - sigma) - coefficient-space distance|, for verification."""
    dim = ops.shape[1]
    direct = hs_norm(np.asarray(rho) - np.asarray(sigma))
    via_coeffs = hs_distance_from_coefficients(
        coefficients(ops, rho), coefficients(ops, sigma), dim
    )
    return abs(direct - via_coeffs)


# -- measurement filters -----------------------------------------------------


def miss_weight_by_enumeration(sub: ConstraintSubspace, f: MeasurementFilter) -> float:
    """Second route to the miss weight: one minus the mean of the diagonal
    entries <b_i|X|b_i>, where ``apply_filter`` sums the trace of X / d_R.
    """
    x = f.matrix
    return 1.0 - float(np.mean((x if x.ndim == 1 else np.diagonal(x)).real))


def support_dim_two_pass(sub: ConstraintSubspace, f: MeasurementFilter) -> int:
    """Second route to the filter's system support rank: the eigenvalues of
    Tr_E X above ``SUPPORT_RANK_TOL``, from a marginal pass of its own, where
    ``apply_filter`` ranks the marginal of X / d_R that it keeps."""
    x = f.matrix
    traced = sub.marginals(x.real if x.ndim == 1 else x)[0]
    return int(np.sum(np.linalg.eigvalsh(traced) > SUPPORT_RANK_TOL))


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
        raise ShapeMismatchError(
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


def _root_times(sub: ConstraintSubspace, f: MeasurementFilter, coords: np.ndarray) -> np.ndarray:
    """sqrt(X) applied to a coordinate vector, or to each row of a stack, the
    spectrum of X clipped into [0, 1]."""
    x_sub = f.matrix
    if x_sub.ndim == 1:
        return np.sqrt(np.clip(x_sub.real, 0.0, 1.0)) * coords
    return coords @ sqrt_psd(x_sub).T


# -- Lipschitz probes --------------------------------------------------------


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


def _pairs(width: int, coords_a: np.ndarray, coords_b: np.ndarray) -> tuple:
    """The two coordinate stacks, pair i in row i of both, and each pair's
    ``sphere_distance``."""
    a, b = np.asarray(coords_a, dtype=complex), np.asarray(coords_b, dtype=complex)
    if a.shape[-1:] != (width,) or b.shape[-1:] != (width,):
        raise ShapeMismatchError(f"coordinate rows must have the subspace's {width} entries")
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeMismatchError("pairs must be two stacks of equally many coordinate rows")
    return a, b, np.array([sphere_distance(x, y) for x, y in zip(a, b)])


def _report(
    dist: np.ndarray, bound: float, change: np.ndarray, state: np.ndarray | None = None
) -> LipschitzReport:
    """The largest change / dist (and state / dist) over the pairs at a
    nonzero distance, 0 if none; pairs at distance 0 are skipped."""
    kept = dist != 0.0
    checked = int(np.count_nonzero(kept))

    def worst(values: np.ndarray) -> float:
        return float(np.max(values[kept] / dist[kept], initial=0.0))

    return LipschitzReport(worst(change), bound, checked, dist.size - checked,
                           None if state is None else worst(state))


def lipschitz_distance_report(
    ensemble: CanonicalEnsemble, coords_a: np.ndarray, coords_b: np.ndarray
) -> LipschitzReport:
    """Probe the Lipschitz constant of phi -> ||rho_S(phi) - Omega_S|| on the
    pairs of states whose coordinates are the rows of ``coords_a`` and
    ``coords_b``.

    ``max_ratio`` tracks differences of that function; ``max_state_ratio``
    tracks the intermediate marginal distance ||rho_1 - rho_2|| against the
    same phase-aligned sphere distance.  Both are bounded by 2.  Pairs at
    distance 0 are skipped.
    """
    sub = ensemble.subspace
    a, b, dist = _pairs(sub.dim_subspace, coords_a, coords_b)
    n, d_s = a.shape[0], sub.shape.dim_system
    rho = np.empty((2 * n, d_s, d_s), dtype=complex)
    StateReducer(sub, 2 * n)(np.concatenate([a, b]), rho)
    diffs = np.concatenate([rho - ensemble.system_state, rho[:n] - rho[n:]])
    f_a, f_b, state = np.abs(np.linalg.eigvalsh(diffs)).sum(axis=1).reshape(3, n)
    return _report(dist, 2.0, np.abs(f_a - f_b), state)


def lipschitz_expectation_report(
    observable: np.ndarray, coords_a: np.ndarray, coords_b: np.ndarray
) -> LipschitzReport:
    """Probe the Lipschitz constant of phi -> <phi|X|phi> on the pairs of
    states whose coordinates are the rows of ``coords_a`` and ``coords_b``.

    ``observable`` is Hermitian on the subspace coordinates (d_R x d_R) of
    the rows; the bound is twice its operator norm.  Pairs at distance 0 are
    skipped.
    """
    x = require_hermitian(observable)
    a, b, dist = _pairs(x.shape[0], coords_a, coords_b)
    f_a, f_b = (np.einsum("ij,ij->i", c.conj(), c @ x.T).real for c in (a, b))
    return _report(dist, 2.0 * operator_norm(x), np.abs(f_a - f_b))


# -- the purity inequality ---------------------------------------------------


def purity_inequality_check(sub: ConstraintSubspace) -> tuple[float, float]:
    """Exact mean purity against the sum of the marginal purities.

    Returns (lhs, rhs) = (<Tr rho_S^2>, Tr Omega_S^2 + Tr Omega_E^2) and
    raises if lhs exceeds rhs beyond 1e-10.
    """
    lhs = exact_average_purity(sub)
    ens = canonical_ensemble(sub)
    rhs = ens.system_purity + ens.environment_purity
    if lhs > rhs + 1e-10:
        raise TypicalityError(f"mean purity {lhs!r} exceeded marginal-purity sum {rhs!r}")
    return lhs, rhs


# -- dense spin-chain states -------------------------------------------------


def canonical_weights(m: SpinChainModel) -> np.ndarray:
    """Per-string weight of the system's reduced equiprobable state, by excitation count.

    A system string with j excitations carries weight
    C(n-k, num_excited - j) / C(n, num_excited): the hypergeometric law of
    drawing the k system spins from the shell without replacement.
    """
    weights = np.zeros(m.k + 1)
    for j, _, c_env in _shell_terms(m):
        weights[j] = c_env / m.dim_subspace
    return weights


def _count_diagonal(m: SpinChainModel, weights: np.ndarray) -> np.ndarray:
    """Dense diagonal system operator giving each string the weight of its count."""
    check_cap(m.dim_system)
    sys_strings = np.arange(m.dim_system, dtype=np.uint32)
    diag = weights[np.bitwise_count(sys_strings)]
    return np.diag(diag.astype(complex))


def exact_canonical_state(m: SpinChainModel) -> np.ndarray:
    """Dense diagonal reduced state of the shell's equiprobable state."""
    return _count_diagonal(m, canonical_weights(m))


def product_weights(m: SpinChainModel) -> np.ndarray:
    """Weights (1-p)^(k-j) p^j of the independent-spins approximation, by count."""
    p = m.excitation_fraction
    j = np.arange(m.k + 1)
    return (1.0 - p) ** (m.k - j) * p**j


def product_approximation(m: SpinChainModel) -> np.ndarray:
    """Dense diagonal product state of k spins, each excited with probability p.

    Approaches :func:`exact_canonical_state` as the chain grows at fixed k
    and p; exact already at k=1.
    """
    return _count_diagonal(m, product_weights(m))


def filtered_env_purity(m: SpinChainModel, w: TypicalWindow) -> float:
    """Purity of the environment marginal after the typical-window projector,
    again from binomials: environment strings inherit the weight of their
    window-compatible system partners only.
    """
    num = sum(c_env * c_sys**2 for j, c_sys, c_env in _shell_terms(m) if w.contains(j))
    return num / m.dim_subspace**2
