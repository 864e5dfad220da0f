"""Haar-uniform pure states on a constrained subspace, with reproducible streams.

Sampling draws a vector of i.i.d. standard complex Gaussians on the subspace
coordinates and normalizes it, which is exactly uniform on the unit sphere.
Every trial is tied to a ``(seed, index)`` pair; results depend only on that
pair, never on scheduling, so parallel runs reproduce serial ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, SubspaceMismatchError
from .subspace import ConstraintSubspace

#: Gaussian draws with norm below this are redrawn (probability ~ 0).
_RESAMPLE_NORM = 1e-100


@dataclass(frozen=True)
class SampleStream:
    """Counter-based randomness stream; (seed, index) fully determines all draws."""

    seed: int
    index: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.index < 0:
            raise ValueError("seed and index must be non-negative")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.index])


@dataclass(frozen=True)
class PureState:
    """Normalized state of the composite, constrained to a subspace."""

    subspace: ConstraintSubspace
    coords: np.ndarray
    ambient: np.ndarray


def sample_coords(dim_subspace: int, stream: SampleStream) -> np.ndarray:
    """Haar-uniform unit vector of subspace coordinates."""
    rng = stream.rng()
    while True:
        g = rng.standard_normal(dim_subspace) + 1j * rng.standard_normal(dim_subspace)
        norm = np.linalg.norm(g)
        if norm > _RESAMPLE_NORM:
            return g / norm


def sample_pure(sub: ConstraintSubspace, stream: SampleStream) -> PureState:
    """Draw a Haar-uniform pure state on ``sub``."""
    coords = sample_coords(sub.dim_subspace, stream)
    return PureState(subspace=sub, coords=coords, ambient=sub.embed(coords))


def reduced_state_from_coords(sub: ConstraintSubspace, coords: np.ndarray) -> np.ndarray:
    """Environment trace of |phi><phi| for phi given by subspace coordinates."""
    coords = np.asarray(coords, dtype=complex)
    if coords.shape != (sub.dim_subspace,):
        raise ShapeMismatchError("coordinate vector has wrong length")
    groups = sub.env_groups
    if groups is not None:
        group, sys_idx, n_groups = groups
        m = np.zeros((n_groups, sub.shape.dim_system), dtype=complex)
        m[group, sys_idx] = coords
        return m.T @ m.conj()
    m = sub.embed(coords).reshape(sub.shape.dim_system, sub.shape.dim_environment)
    return m @ m.conj().T


def reduced_state(phi: PureState, sub: ConstraintSubspace) -> np.ndarray:
    """Reduced system state of a sampled pure state.

    The state must have been drawn from ``sub`` (or an equal subspace).
    """
    if phi.subspace is not sub and not phi.subspace.equals(sub):
        raise SubspaceMismatchError("state belongs to a different subspace")
    return reduced_state_from_coords(sub, phi.coords)
