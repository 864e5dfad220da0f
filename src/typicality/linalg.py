"""Dense complex linear algebra primitives: the pieced product, the trace norm, the JSON codec.

All operators are plain ``numpy`` arrays of complex128.  The single spectral
primitive is the Hermitian eigendecomposition (``numpy.linalg.eigh``); every
norm used here reduces to eigenvalues of Hermitian matrices.

Index convention, fixed package-wide: the composite basis state |s>|e> of a
bipartite space with system dimension ``dim_system`` and environment dimension
``dim_environment`` sits at flat index ``s * dim_environment + e``.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, HermiticityError, ShapeMismatchError

#: Largest composite dimension materialized as a dense matrix by default.
DEFAULT_DIMENSION_CAP = 4096

#: Largest log2 of a composite space enumerated or loaded in index form.
MAX_ENUMERATION_BITS = 26

#: Absolute skew tolerated before an operator is rejected as non-Hermitian.
HERMITICITY_ATOL = 1e-8

#: Tolerance for invariant assertions (trace one, orthonormality, ...).
INVARIANT_ATOL = 1e-10

#: Longer sums in a product follow OpenBLAS's thread count, unless whole multiples of it.
GEMM_PIECE = 128


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


def check_cap(dim: int, cap: int = DEFAULT_DIMENSION_CAP) -> None:
    """Raise :class:`DimensionCapError` if ``dim`` exceeds the dense cap."""
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds dense cap {cap}")


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


def add_product(acc: np.ndarray, a: np.ndarray, b: np.ndarray, part: np.ndarray) -> np.ndarray:
    """``acc += a @ b`` (stacks too), summed in order over pieces of whole multiples of
    ``GEMM_PIECE`` terms, at most 78 (9 984 terms: OpenBLAS threads dot products from
    10 000 on), then one rest of fewer, each product held in ``part``, shaped as ``acc``."""
    k = a.shape[-1]
    whole = k - k % GEMM_PIECE
    cuts = sorted({*range(0, whole, 78 * GEMM_PIECE), whole, k})
    for lo, hi in zip(cuts, cuts[1:]):
        acc += np.matmul(a[..., lo:hi], b[..., lo:hi, :], out=part)
    return acc


def trace_norm(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (Schatten 1-norm)."""
    m = require_hermitian(m)
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) for Hermitian rho, computed entrywise."""
    rho = np.asarray(rho)
    return float(np.sum(np.abs(rho) ** 2).real)


def complex_matrix_to_json(m: np.ndarray) -> dict:
    """JSON form of a complex array: {"shape": [...], "base64": its row-major
    little-endian complex128 bytes}."""
    m = np.asarray(m, dtype="<c16", order="C")  # base64 reads its buffer in place
    return {"shape": list(m.shape), "base64": base64.b64encode(m).decode("ascii")}


def complex_matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`complex_matrix_to_json`, bitwise exact (signed zeros,
    subnormals, NaN and inf too).

    The base64 form decodes to a read-only view of the payload's bytes.
    Nested lists ending in [re, im] pairs of JSON numbers, the form of
    earlier versions, are read as well.  Raises :class:`ShapeMismatchError`
    unless every shape entry is an integer >= 1, the payload is strict base64
    and it holds exactly the bytes of that shape, or, for nested lists, unless
    every entry is an int or a float (not a bool or a string).
    """
    if not isinstance(obj, dict):
        entries = np.asarray(obj, dtype=object)
        if not all(type(v) in (int, float) for v in entries.flat):
            raise ShapeMismatchError("[re, im] entries must be JSON numbers")
        pairs = entries.astype(float)
        if pairs.ndim < 2 or pairs.shape[-1] != 2:
            raise ShapeMismatchError(f"expected [re, im] pairs, got shape {pairs.shape}")
        return pairs.view(complex)[..., 0]
    shape, payload = json_fields(obj, "shape", "base64")
    if not isinstance(shape, list) or not shape:
        raise ShapeMismatchError(f"shape must be a nonempty list, got {shape!r}")
    shape = [json_dimension(n, "shape entry") for n in shape]
    if not isinstance(payload, str):
        raise ShapeMismatchError("base64 must be a string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ShapeMismatchError(f"base64 payload is malformed: {exc}") from None
    if len(raw) != 16 * math.prod(shape):
        raise ShapeMismatchError(f"{len(raw)} bytes do not hold a complex array of shape {shape}")
    return np.frombuffer(raw, dtype="<c16").astype(complex, copy=False).reshape(shape)


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
