"""Shift-and-phase unitary operator basis and coefficient expansions.

The ``d^2`` unitaries U^x on a d-dimensional space form a complete orthogonal
operator basis under the trace inner product, Tr(U^x' U^y) = d delta_xy.  Any
operator expands as rho = (1/d) sum_x C_x U^x with C_x = Tr(U^x' rho), and by
orthogonality the squared Hilbert-Schmidt distance between two operators is
(1/d) sum_x |Delta C_x|^2 exactly.  Coefficients of Hermitian operators are
complex in this basis, so deviations are measured with moduli.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def weyl_basis(dim: int) -> np.ndarray:
    """The ``dim**2`` basis unitaries as a stacked array of shape (dim^2, dim, dim).

    Index x encodes a cyclic shift by ``x mod dim`` and a diagonal phase ramp
    of ``x // dim`` clock steps:

        U^x = sum_s exp(2 pi i s (x - x mod dim) / dim^2) |s + x mod dim><s|

    For dim=2 this yields {I, X, Z, -iY} in order.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    ops = np.zeros((dim * dim, dim, dim), dtype=complex)
    s = np.arange(dim)
    for x in range(dim * dim):
        phases = np.exp(2j * np.pi * s * (x - (x % dim)) / dim**2)
        ops[x, (s + x) % dim, s] = phases
    ops.setflags(write=False)
    return ops


def coefficients(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Expansion coefficients C_x = Tr(U^x' rho); C_0 = Tr(rho)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != ops.shape[1:]:
        raise ShapeMismatchError(
            f"operator of shape {rho.shape} does not match basis dimension {ops.shape[1]}"
        )
    # Tr(U' rho) = sum_ab conj(U[a, b]) rho[a, b]
    return np.einsum("xab,ab->x", ops.conj(), rho)

