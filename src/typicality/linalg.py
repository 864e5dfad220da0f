"""Dense complex linear algebra primitives: tensor products, partial traces, norms.

All operators are plain ``numpy`` arrays of complex128.  The single spectral
primitive is the Hermitian eigendecomposition (``numpy.linalg.eigh``); every
norm used here reduces to eigenvalues of Hermitian matrices.

Index convention, fixed package-wide: the composite basis state |s>|e> of a
bipartite space with system dimension ``dim_system`` and environment dimension
``dim_environment`` sits at flat index ``s * dim_environment + e``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, HermiticityError, ShapeMismatchError

#: Largest composite dimension materialized as a dense matrix by default.
DEFAULT_DIMENSION_CAP = 4096

#: Absolute skew tolerated before an operator is rejected as non-Hermitian.
HERMITICITY_ATOL = 1e-8

#: Tolerance for invariant assertions (trace one, orthonormality, ...).
INVARIANT_ATOL = 1e-10

#: Eigenvalues of numerically computed density matrices above this floor are
#: treated as round-off and clipped to zero.
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class BipartiteShape:
    """System/environment factorization of a composite Hilbert space."""

    dim_system: int
    dim_environment: int

    def __post_init__(self) -> None:
        if self.dim_system < 1 or self.dim_environment < 1:
            raise ShapeMismatchError(
                f"dimensions must be >= 1, got ({self.dim_system}, {self.dim_environment})"
            )

    @property
    def dim(self) -> int:
        """Composite dimension ``dim_system * dim_environment``."""
        return self.dim_system * self.dim_environment

    def flat_index(self, s: int, e: int) -> int:
        """Flat composite index of |s>|e>."""
        return s * self.dim_environment + e


def check_cap(dim: int, cap: int = DEFAULT_DIMENSION_CAP) -> None:
    """Raise :class:`DimensionCapError` if ``dim`` exceeds the dense cap."""
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds dense cap {cap}")


def kron(a: np.ndarray, b: np.ndarray, *, cap: int = DEFAULT_DIMENSION_CAP) -> np.ndarray:
    """Kronecker product with an explicit guard on the composite dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_cap(a.shape[0] * b.shape[0], cap)
    if a.ndim == 2 and b.ndim == 2:
        check_cap(a.shape[1] * b.shape[1], cap)
    return np.kron(a, b)


def hermiticity_skew(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its own conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m: np.ndarray, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {m.shape}")
    skew = hermiticity_skew(m)
    if skew > atol:
        raise HermiticityError(f"matrix skew {skew:.3e} exceeds tolerance {atol:.1e}")
    return m


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


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Schatten 1-norm)."""
    m = require_hermitian(m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def operator_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    m = require_hermitian(m)
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) for Hermitian rho, computed entrywise."""
    rho = np.asarray(rho)
    return float(np.sum(np.abs(rho) ** 2).real)


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


def complex_matrix_to_json(m: np.ndarray) -> list:
    """JSON form of a complex array: nested lists ending in [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def complex_matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`complex_matrix_to_json`, bitwise exact (signed zeros too)."""
    pairs = np.asarray(obj, dtype=float)
    if pairs.ndim < 2 or pairs.shape[-1] != 2:
        raise ShapeMismatchError(f"expected [re, im] pairs, got shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def write_json_object(obj: dict, path) -> None:
    """Write the JSON object ``obj`` to ``path`` with the bytes of ``json.dump``.

    ``json.dump`` runs the pure-Python encoder; ``json.dumps`` runs the C one
    but holds the whole text.  Here each element of a list value (a basis
    vector, a matrix row) goes through ``json.dumps`` on its own.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for n, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            if not isinstance(value, list):
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for i, item in enumerate(value):
                fh.write(f"{', ' if i else ''}{json.dumps(item)}")
            fh.write("]")
        fh.write("}")


def json_fields(obj, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``obj``, in order.

    Raises :class:`ShapeMismatchError` when ``obj`` is not an object or
    lacks one of the keys.
    """
    if not isinstance(obj, dict):
        raise ShapeMismatchError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ShapeMismatchError(f"JSON object lacks {', '.join(missing)}")
    return [obj[key] for key in keys]


def json_dimension(value, key: str) -> int:
    """The JSON field ``key`` as a dimension.

    Raises :class:`ShapeMismatchError` unless ``value`` is an integer >= 1;
    a float, a bool, null or a list is rejected rather than converted.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ShapeMismatchError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix, for property tests and Lipschitz probes."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
