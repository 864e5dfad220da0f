"""Spin chains with a fixed number of excitations.

A chain of n spin-1/2 sites in a uniform field, restricted to the degenerate
energy shell with exactly ``num_excited`` sites flipped, is the workhorse
constrained subspace: the first k sites form the system, the rest the
environment.  The reduced state of the shell's equiprobable state is diagonal
with hypergeometric weights (drawing k spins without replacement from a bag
of num_excited flipped ones), which for long chains approaches the product of
k independent spins flipped with probability p = num_excited / n.

Everything combinatorial (dimensions, weights, typical-window tails, the
entropy-exponential bounds, the distance to the product state) is computed
from binomials without materializing any 2^n-dimensional object, so the
chain report holds for any k.  Only ``build_subspace`` enumerates the shell's
strings; it holds them in index form, the dense cap bounds only d_S, and the
typical-window filter is a 0/1 diagonal on its coordinates, built from counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .bounds import check_epsilon, distance_tail_bound, finite, suggested_epsilon
from .errors import DimensionCapError, EmptyWindowError
from .filtering import MeasurementFilter
from .linalg import DEFAULT_DIMENSION_CAP, MAX_ENUMERATION_BITS, BipartiteShape
from .subspace import ConstraintSubspace, check_size


@dataclass(frozen=True)
class SpinChainModel:
    """Chain of ``n`` spins, ``k`` of them the system, with a fixed excitation count.

    ``field`` is the single-spin excitation energy; temperatures are reported
    in units of it (energy per Boltzmann constant).
    """

    n: int
    k: int
    num_excited: int
    field: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if not 0 <= self.num_excited <= self.n:
            raise ValueError(f"num_excited={self.num_excited} outside [0, {self.n}]")

    @property
    def excitation_fraction(self) -> float:
        return self.num_excited / self.n

    @property
    def dim_system(self) -> int:
        return 2**self.k

    @property
    def dim_environment(self) -> int:
        return 2 ** (self.n - self.k)

    @property
    def dim_subspace(self) -> int:
        return comb(self.n, self.num_excited)

    @property
    def shape(self) -> BipartiteShape:
        return BipartiteShape(self.dim_system, self.dim_environment)


def binary_entropy(p: float) -> float:
    """Shannon entropy of a coin in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    h = 0.0
    if p > 0.0:
        h -= p * math.log2(p)
    if p < 1.0:
        h -= (1.0 - p) * math.log2(1.0 - p)
    return h


def binary_entropy_slope(p: float) -> float:
    """|dH/dp| = |log2(p / (1-p))|; the entropy cost per unit of window width."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    return abs(math.log2(p / (1.0 - p)))


def excitation_states(n: int, num_excited: int) -> np.ndarray:
    """All n-bit strings with the given popcount, ascending as integers.

    Bit n-1 (most significant) is spin 0, so ascending integer order is
    lexicographic order of the spin strings, and the leading k bits are the
    system when combined with :class:`SpinChainModel`.
    """
    if n > MAX_ENUMERATION_BITS:
        raise DimensionCapError(f"enumeration over 2^{n} strings refused (n > {MAX_ENUMERATION_BITS})")
    values = np.arange(1 << n, dtype=np.uint32)
    states = values[np.bitwise_count(values) == num_excited]
    return states.astype(np.int64)


def build_subspace(m: SpinChainModel, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstraintSubspace:
    """The fixed-excitation shell in index form, its size checked by ``check_size``."""
    check_size(m.shape, dense=False, cap=cap)
    return ConstraintSubspace(m.shape, flat_indices=excitation_states(m.n, m.num_excited))


def _shell_terms(m: SpinChainModel) -> list[tuple[int, int, int]]:
    """(j, C(k, j), C(n-k, num_excited - j)) for each system excitation count j
    the shell allows; their product counts the shell strings of system count j."""
    rest = m.n - m.k
    return [
        (j, comb(m.k, j), comb(rest, m.num_excited - j))
        for j in range(m.k + 1)
        if 0 <= m.num_excited - j <= rest
    ]


def temperature(m: SpinChainModel) -> float:
    """Boltzmann temperature matching the product form, in units of the field energy.

    k_B T = field / ln((1-p)/p).  Returns ``inf`` for the symmetric shell
    p = 1/2 and ``0.0`` for the frozen shells p in {0, 1}; negative for an
    inverted population (p > 1/2).
    """
    p = m.excitation_fraction
    if p in (0.0, 1.0):
        return 0.0
    log_ratio = math.log((1.0 - p) / p)
    if log_ratio == 0.0:
        return math.inf
    return m.field / log_ratio


@dataclass(frozen=True)
class TypicalWindow:
    """Excitation counts within ``half_width`` of the mean k p, clamped to [0, k]."""

    half_width: float
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise EmptyWindowError(f"window [{self.lo}, {self.hi}] is empty")

    def contains(self, count: int) -> bool:
        return self.lo <= count <= self.hi


def _window_bounds(k: int, center: float, half_width: float) -> tuple[int, int]:
    """(lo, hi): the excitation counts within ``half_width`` of ``center``, clamped to [0, k]."""
    if not (math.isfinite(half_width) and half_width >= 0):
        raise EmptyWindowError(f"half_width must be finite and non-negative, got {half_width}")
    return max(0, math.ceil(center - half_width)), min(k, math.floor(center + half_width))


def typical_window(m: SpinChainModel, half_width: float) -> TypicalWindow:
    lo, hi = _window_bounds(m.k, m.k * m.excitation_fraction, half_width)
    return TypicalWindow(half_width=half_width, lo=lo, hi=hi)


def window_dim(k: int, w: TypicalWindow) -> int:
    """Number of k-spin strings with excitation count inside the window."""
    return sum(comb(k, j) for j in range(w.lo, w.hi + 1))


def typical_projector(m: SpinChainModel, w: TypicalWindow) -> MeasurementFilter:
    """Projector onto window-typical system strings, extended by identity on
    the environment: on the coordinates of :func:`build_subspace`, the 0/1
    diagonal keeping each shell string whose system count is in the window.
    Shell strings run system-major, C(n-k, num_excited - j) per system string of count j."""
    partners = np.zeros(m.k + 1, dtype=np.int64)
    for j, _, c_env in _shell_terms(m):
        partners[j] = c_env
    counts = np.bitwise_count(np.arange(m.dim_system))
    keep = (counts >= w.lo) & (counts <= w.hi)
    diagonal = np.repeat(keep, partners[counts]).astype(complex)
    return MeasurementFilter(diagonal)


def typical_miss_bound(k: int, p: float, half_width: float) -> float:
    """Binomial Chernoff cap on the weight outside the window,
    2 exp(-half_width^2 / (4 k p (1-p))).

    Valid for the shell's hypergeometric weights too (sampling without
    replacement is the more concentrated of the two), for every chain length.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if not half_width >= 0:  # NaN too
        raise ValueError("half_width must be non-negative")
    return 2.0 * math.exp(-(half_width**2) / (4.0 * k * p * (1.0 - p)))


def exact_typical_tail(m: SpinChainModel, w: TypicalWindow) -> float:
    """Exact weight of the reduced state outside the window (hypergeometric sum)."""
    inside = sum(c_sys * c_env for j, c_sys, c_env in _shell_terms(m) if w.contains(j))
    total = m.dim_subspace
    return (total - inside) / total


def product_distance(m: SpinChainModel) -> float:
    """Trace distance of the shell's reduced state from the product state of k
    spins, each excited with probability p = num_excited / n: both are diagonal
    with one weight per system excitation count j, so it is
    sum_j C(k, j) |C(n-k, num_excited - j) / d_R - p^j (1-p)^(k-j)|, summed
    exactly in integers over the common denominator d_R n^k and rounded once."""
    n, k, np_ = m.n, m.k, m.num_excited
    d_r, scale = m.dim_subspace, n**k
    c_env = {j: c for j, _, c in _shell_terms(m)}
    numerator = sum(
        comb(k, j) * abs(c_env.get(j, 0) * scale - np_**j * (n - np_) ** (k - j) * d_r)
        for j in range(k + 1)
    )
    return numerator / (d_r * scale)


def canonical_purities(m: SpinChainModel) -> tuple[float, float]:
    """(system purity, environment purity) of the shell's reduced states,
    from binomials alone.  An environment string of count num_excited - j pairs
    with the C(k, j) system strings of count j, so both sums run over the shell terms.
    """
    d_r = m.dim_subspace
    terms = _shell_terms(m)
    sys_num = sum(c_sys * c_env**2 for _, c_sys, c_env in terms)
    env_num = sum(c_env * c_sys**2 for _, c_sys, c_env in terms)
    return sys_num / d_r**2, env_num / d_r**2


def binomial_entropy_bounds(n: int, num_excited: int) -> tuple[float, float, int]:
    """Entropy-exponential sandwich around a binomial coefficient.

    Returns (2^(n H(p)) / (n+1), 2^(n H(p)), C(n, num_excited)) with
    p = num_excited / n; lower <= exact <= upper always.  Raises
    TypicalityError when 2^(n H(p)) is beyond the float range.
    """
    if not 0 <= num_excited <= n:
        raise ValueError("num_excited outside [0, n]")
    h = binary_entropy(num_excited / n)
    upper = finite(f"d_R = C({n}, {num_excited})", lambda: 2.0 ** (n * h))
    return upper / (n + 1), upper, comb(n, num_excited)


def typical_dim_bound(k: int, p: float, half_width: float) -> tuple[float, float]:
    """Cap on the typical-window dimension and the exact windowed sum.

    Returns ``(bound, exact)`` with bound (2 half_width + 1) *
    2^(k H(p) + half_width G(p)), G the entropy slope.  The bound absorbs the
    displaced maximal term of the window (clamped to the entropy peak when
    the window straddles p = 1/2) through concavity of the entropy.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    window = TypicalWindow(half_width, *_window_bounds(k, k * p, half_width))
    exact = float(window_dim(k, window))
    exponent = k * binary_entropy(p) + half_width * binary_entropy_slope(p)
    bound = (2.0 * half_width + 1.0) * 2.0**exponent
    return bound, exact


@dataclass(frozen=True)
class SpinChainReport:
    """End-to-end filtered concentration summary for one chain, from binomials."""

    n: int
    k: int
    num_excited: int
    excitation_fraction: float
    half_width: float
    epsilon: float
    dim_system: int
    dim_subspace: int
    window_lo: int
    window_hi: int
    miss_bound: float
    support_dim: int
    support_dim_bound: float
    env_dim_floor: float
    threshold: float
    threshold_asymptotic: float
    tail_bound: float
    temperature: float | None  # None where infinite, at p = 1/2
    exact_tail: float
    dim_subspace_bounds: dict
    system_purity: float
    effective_env_dim: float
    product_approximation_distance: float


def spin_chain_report(
    n: int,
    k: int,
    num_excited: int,
    half_width: float | None = None,
    epsilon: float | None = None,
) -> SpinChainReport:
    """Filtered distance-tail summary with the standard substitutions.

    Defaults: half_width = k^(2/3) and epsilon = d_R^(-1/3).  ``threshold``
    uses the exact window dimension with the effective-environment floor
    d_R / support_dim; ``threshold_asymptotic`` replaces every combinatorial
    quantity by its entropy-exponential bound.  When the window covers all of
    [0, k] the filter is the identity, the miss weight is exactly zero, and
    ``threshold`` collapses to the unfiltered form.
    """
    m = SpinChainModel(n=n, k=k, num_excited=num_excited)
    p = m.excitation_fraction
    if not 0.0 < p < 1.0:
        raise ValueError("report needs 0 < p < 1")
    lower, upper, exact = binomial_entropy_bounds(n, num_excited)  # refuses a d_R beyond floats
    if half_width is None:
        half_width = float(k) ** (2.0 / 3.0)
    if epsilon is None:
        epsilon = suggested_epsilon(m.dim_subspace)
    check_epsilon(epsilon)
    w = typical_window(m, half_width)
    full_window = w.lo == 0 and w.hi == m.k
    miss = 0.0 if full_window else typical_miss_bound(k, p, half_width)
    support = window_dim(k, w)
    support_bound = finite("support_dim_bound", lambda: typical_dim_bound(k, p, half_width)[0])
    env_floor = m.dim_subspace / support
    threshold, tail = distance_tail_bound(support, m.dim_subspace, env_floor, epsilon)
    h = binary_entropy(p)
    g = binary_entropy_slope(p)
    threshold_asymptotic = finite("threshold_asymptotic", lambda: (
        epsilon
        + math.sqrt(n + 1.0) * (2.0 * half_width + 1.0) * 2.0 ** ((k - n / 2.0) * h + half_width * g)
        + math.sqrt(32.0) * math.exp(-(half_width**2) / (8.0 * k * p * (1.0 - p)))
    ))
    sys_purity, env_purity = canonical_purities(m)
    temp = temperature(m)
    return SpinChainReport(
        n=n,
        k=k,
        num_excited=num_excited,
        excitation_fraction=p,
        half_width=half_width,
        epsilon=epsilon,
        dim_system=m.dim_system,
        dim_subspace=m.dim_subspace,
        window_lo=w.lo,
        window_hi=w.hi,
        miss_bound=miss,
        support_dim=support,
        support_dim_bound=support_bound,
        env_dim_floor=env_floor,
        threshold=finite("threshold", lambda: threshold + 4.0 * math.sqrt(miss)),
        threshold_asymptotic=threshold_asymptotic,
        tail_bound=tail,
        temperature=temp if math.isfinite(temp) else None,
        exact_tail=exact_typical_tail(m, w),
        dim_subspace_bounds={"lower": lower, "upper": upper, "exact": exact},
        system_purity=sys_purity,
        effective_env_dim=1.0 / env_purity,
        product_approximation_distance=product_distance(m),
    )

