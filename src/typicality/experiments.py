"""Monte Carlo harness and exact doubled-space purity oracle.

Every Monte Carlo run evaluates its trials through one kernel,
``_trial_block``.  Trial i draws its state from the stream keyed by
(seed, i), so its record depends only on (config, seed, i): any partition of
the trial range across workers reassembles to identical results, and output
files are byte-stable under ``workers``.  The generators come from
``sampling.stream_generators``, which seeds a batch of indices at once and
draws exactly what ``SampleStream(seed, i).rng()`` would.

The kernel works a chunk of up to ``_CHUNK`` trials at a time.  Only the
Gaussian draw runs once per trial, into a row of a reused normals buffer;
everything after it is one call per chunk: ``sampling.normalize_draws``
builds and normalizes the coordinate vectors, a ``sampling.StateReducer``
turns them into a stack of reduced states, and a stacked eigensolve, a purity
sum and a stacked vector-matrix product for the linear functionals evaluate
the stack.  Each of these works row by row or matrix by matrix, with the same
arithmetic for a trial wherever it sits in the stack, so a record does not
depend on where the chunk and worker boundaries fall.  Folding the trials of
a chunk into one matrix-matrix product would not keep that: the product's
rows can change in the last bits with the number of rows.  Every per-chunk
buffer is allocated once per block, within ``_CHUNK_BYTES``.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .bounds import (
    average_distance_bound,
    check_epsilon,
    distance_tail_bound,
    expectation_tail_bound,
    filtered_distance_tail_bound,
    operator_basis_tail_bound,
    suggested_epsilon,
)
from .errors import ShapeMismatchError, TypicalityError
from .filtering import MeasurementFilter, apply_filter, load_filter
from .linalg import (
    DEFAULT_DIMENSION_CAP,
    BipartiteShape,
    check_cap,
    purity,
    require_hermitian,
)
from .sampling import (
    SampleStream,
    StateReducer,
    draw_coords,
    normalize_draws,
    stream_generators,
)
from .spin_chain import SpinChainModel, build_subspace, typical_projector, typical_window
from .subspace import CanonicalEnsemble, ConstraintSubspace, canonical_ensemble, full_space
from .weyl import weyl_basis

SCHEMA_VERSION = 1

#: Weyl-family tracking is skipped above this system dimension (d_S^4 per trial).
_COEFF_TRACK_MAX_DIM = 32

#: Trials per chunk in ``_trial_block``, fewer when its per-chunk buffers
#: would pass ``_CHUNK_BYTES`` (see ``_chunk_buffers``).  Records do not
#: depend on the chunk size: every stacked call works trial by trial.
_CHUNK = 64
_CHUNK_BYTES = 1 << 20

TRIALS_CSV_COLUMNS = ("trial", "trace_distance", "purity", "max_coeff_dev")


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of one Monte Carlo run.

    ``subspace`` is an inline spec: {"kind": "spin-chain", n, k, num_excited},
    {"kind": "full", dim_system, dim_environment} or {"kind": "file", path}.
    ``filter`` is optional: {"kind": "typical-window", half_width} or
    {"kind": "file", path}.
    """

    subspace: dict
    trials: int
    seed: int
    epsilon: float | None = None
    filter: dict | None = None
    workers: int = 1
    track_coefficients: bool = True
    cap: int = DEFAULT_DIMENSION_CAP

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.epsilon is not None:
            check_epsilon(self.epsilon)

    def canonical_dict(self) -> dict:
        return {
            "subspace": self.subspace,
            "trials": self.trials,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "filter": self.filter,
            "track_coefficients": self.track_coefficients,
            "cap": self.cap,
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def resolve_subspace(spec: dict, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstraintSubspace:
    """Materialize a subspace from an inline config spec."""
    kind = spec.get("kind")
    if kind == "spin-chain":
        model = SpinChainModel(
            n=int(spec["n"]), k=int(spec["k"]), num_excited=int(spec["num_excited"])
        )
        return build_subspace(model, cap=cap)
    if kind == "full":
        shape = BipartiteShape(int(spec["dim_system"]), int(spec["dim_environment"]))
        return full_space(shape, cap=cap)
    if kind == "file":
        return ConstraintSubspace.load(spec["path"], cap=cap)
    raise ValueError(f"unknown subspace kind {kind!r}")


def resolve_filter(
    spec: dict | None, subspace_spec: dict, *, cap: int = DEFAULT_DIMENSION_CAP
) -> MeasurementFilter | None:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "typical-window":
        if subspace_spec.get("kind") != "spin-chain":
            raise ShapeMismatchError("typical-window filters need a spin-chain subspace")
        model = SpinChainModel(
            n=int(subspace_spec["n"]),
            k=int(subspace_spec["k"]),
            num_excited=int(subspace_spec["num_excited"]),
        )
        window = typical_window(model, float(spec["half_width"]))
        return typical_projector(model, window, cap=cap)
    if kind == "file":
        return load_filter(spec["path"])
    raise ValueError(f"unknown filter kind {kind!r}")


@dataclass(frozen=True)
class SummaryStats:
    """Moments, extremes, quantiles and tail frequencies of one sample set."""

    count: int
    mean: float
    stddev: float
    standard_error: float
    minimum: float
    maximum: float
    quantiles: dict
    tail_frequencies: dict

    @classmethod
    def from_samples(cls, values: np.ndarray, thresholds: Sequence[float] = ()) -> "SummaryStats":
        values = np.asarray(values, dtype=float)
        n = values.size
        if n == 0:
            raise ValueError("no samples")
        stddev = float(values.std(ddof=1)) if n > 1 else 0.0
        quantiles = {
            q: float(np.quantile(values, q / 100.0)) for q in (50, 90, 99)
        }
        tails = {float(t): float(np.mean(values >= t)) for t in thresholds}
        stats = cls(
            count=n,
            mean=float(values.mean()),
            stddev=stddev,
            standard_error=stddev / np.sqrt(n),
            minimum=float(values.min()),
            maximum=float(values.max()),
            quantiles=quantiles,
            tail_frequencies=tails,
        )
        for q in stats.quantiles.values():
            if not (stats.minimum - 1e-12 <= q <= stats.maximum + 1e-12):
                raise TypicalityError("inconsistent quantiles")
        return stats

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "standard_error": self.standard_error,
            "min": self.minimum,
            "max": self.maximum,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "tail_frequencies": {repr(k): v for k, v in self.tail_frequencies.items()},
        }


@dataclass(frozen=True)
class BoundRow:
    """One formula-versus-data comparison.

    ``satisfied`` allows three binomial (or mean) standard errors of slack;
    ``vacuous`` marks bounds that exceed the trivial maximum and therefore
    carry no information at this scale (still required to be satisfied).
    """

    name: str
    formula_value: float
    empirical_value: float
    satisfied: bool
    vacuous: bool
    threshold: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "formula_value": self.formula_value,
            "empirical_value": self.empirical_value,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "threshold": self.threshold,
        }


def _tail_row(name: str, distances: np.ndarray, threshold: float, bound: float) -> BoundRow:
    freq = float(np.mean(distances >= threshold))
    p_star = min(bound, 1.0)
    sigma = float(np.sqrt(max(p_star * (1.0 - p_star), 0.0) / distances.size))
    return BoundRow(
        name=name,
        formula_value=float(bound),
        empirical_value=freq,
        satisfied=bool(freq <= bound + 3.0 * sigma),
        vacuous=bool(bound >= 1.0),
        threshold=float(threshold),
    )


def bound_confrontation_report(
    distances: np.ndarray,
    ensemble: CanonicalEnsemble,
    epsilon: float | None = None,
    filtered: CanonicalEnsemble | None = None,
) -> list[BoundRow]:
    """Confront the sampled distances with every applicable closed form."""
    sub = ensemble.subspace
    d_s = sub.shape.dim_system
    d_r = sub.dim_subspace
    eps = suggested_epsilon(d_r) if epsilon is None else epsilon
    n = distances.size
    mean = float(distances.mean())
    # A single trial has no sample spread; a trace distance lies in [0, 2], so
    # its standard deviation is at most 1 (Popoviciu) and SE <= 1 / sqrt(n).
    se_mean = float(distances.std(ddof=1) / np.sqrt(n)) if n > 1 else 1.0 / np.sqrt(n)

    rows: list[BoundRow] = []
    sharp, loose = average_distance_bound(d_s, d_r, ensemble.effective_env_dim)
    for name, value in (("average_distance_eff", sharp), ("average_distance_dr", loose)):
        rows.append(
            BoundRow(
                name=name,
                formula_value=float(value),
                empirical_value=mean,
                satisfied=bool(mean <= value + 3.0 * se_mean),
                vacuous=bool(value >= 2.0),
            )
        )
    tail = distance_tail_bound(d_s, d_r, ensemble.effective_env_dim, eps)
    rows.append(_tail_row("distance_tail", distances, tail.threshold, tail.tail_bound))
    threshold, bound = operator_basis_tail_bound(d_s, d_r)
    rows.append(_tail_row("operator_basis_tail", distances, threshold, bound))
    if filtered is not None and not filtered.degenerate:
        ftail = filtered_distance_tail_bound(
            filtered.support_dim,
            filtered.effective_env_dim,
            d_r,
            filtered.miss_weight,
            eps,
        )
        rows.append(
            _tail_row("filtered_distance_tail", distances, ftail.threshold, ftail.tail_bound)
        )
    return rows


# -- trial evaluation --------------------------------------------------------


def _chunk_buffers(
    sub: ConstraintSubspace, n_coeffs: int
) -> tuple[int, np.ndarray, np.ndarray, StateReducer, np.ndarray, np.ndarray]:
    """Trials per chunk of ``_trial_block``, then the buffers every chunk reuses.

    Per trial these hold 2 d_R normals, d_R coordinates, the reducer's work
    rows, rho and rho - mean, and ``n_coeffs`` Weyl coefficients.  A chunk is
    ``_CHUNK`` trials, fewer when the buffers would pass ``_CHUNK_BYTES``.
    """
    d_s, d_r = sub.shape.dim_system, sub.dim_subspace
    per_trial = 16 * (2 * d_r + 2 * StateReducer.width(sub) + 2 * d_s * d_s + n_coeffs)
    chunk = max(1, min(_CHUNK, _CHUNK_BYTES // per_trial))
    return (
        chunk,
        np.empty((chunk, 2, d_r)),
        np.empty((chunk, d_r), dtype=complex),
        StateReducer(sub, chunk),
        np.empty((2, chunk, d_s, d_s), dtype=complex),
        np.empty((chunk, 1, n_coeffs), dtype=complex),
    )


def _trial_block(
    sub: ConstraintSubspace,
    mean_state: np.ndarray | None,
    ops_conj: np.ndarray | None,
    observables: np.ndarray | None,
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """Records of trials ``start .. start + count - 1``, one row per trial.

    Columns: trace distance to ``mean_state``, purity, max Weyl-coefficient
    deviation from ``mean_state``, then Tr(O rho) for each observable.  The
    distance is NaN when ``mean_state`` is None, the deviation when
    ``mean_state`` or ``ops_conj`` is None.
    """
    d_s, d_r = sub.shape.dim_system, sub.dim_subspace
    n_obs = 0 if observables is None else observables.shape[0]
    rows = np.full((count, 3 + n_obs), np.nan)
    # Each linear functional is a column acting on a flattened matrix,
    # C_x = vec(diff) . vec(conj U^x) and Tr(O rho) = vec(rho) . vec(O^T), so
    # a trial's coefficients are one (1, d_S^2) @ (d_S^2, m) product.
    weyl = None if ops_conj is None else ops_conj.reshape(d_s * d_s, -1).T
    obs_t = None if not n_obs else observables.transpose(0, 2, 1).reshape(n_obs, -1).T
    n_coeffs = 0 if weyl is None else weyl.shape[1]
    chunk, normals, coords, reduce, states, products = _chunk_buffers(sub, n_coeffs)
    rngs = stream_generators(seed, start, count)
    for lo in range(0, count, chunk):
        c = min(chunk, count - lo)
        for j, rng in enumerate(islice(rngs, c)):
            rng.standard_normal(out=normals[j])
        # a row of (near) zero norm continues its own stream, as in draw_coords
        for j in normalize_draws(normals[:c], coords[:c]):
            coords[j] = draw_coords(SampleStream(seed, start + lo + j).rng(), d_r)
        rho = reduce(coords[:c], states[0, :c])
        block = rows[lo : lo + c]
        block[:, 1] = (np.abs(rho) ** 2).sum(axis=(1, 2))
        if mean_state is not None:
            diff = np.subtract(rho, mean_state, out=states[1, :c])
            block[:, 0] = np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)
            if weyl is not None:
                coeffs = np.matmul(diff.reshape(c, 1, d_s * d_s), weyl, out=products[:c])
                block[:, 2] = np.abs(coeffs).max(axis=(1, 2))
        if obs_t is not None:
            block[:, 3:] = (rho.reshape(c, 1, d_s * d_s) @ obs_t)[:, 0].real
    return rows


def _split_blocks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) blocks, at most one per worker and per CPU."""
    workers = max(1, min(workers, trials, os.cpu_count() or 1))
    base, extra = divmod(trials, workers)
    blocks = []
    start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        blocks.append((start, count))
        start += count
    return blocks


def _run_trials(common_args: tuple, trials: int, workers: int) -> np.ndarray:
    """``_trial_block`` rows of trials ``0 .. trials - 1``, in trial order."""
    blocks = _split_blocks(trials, workers)
    if len(blocks) == 1:
        return _trial_block(*common_args, 0, trials)
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        futures = [pool.submit(_trial_block, *common_args, start, count) for start, count in blocks]
        return np.concatenate([f.result() for f in futures])


def _weyl_conj(config: ExperimentConfig, dim_system: int) -> np.ndarray | None:
    """Conjugated Weyl stack when the coefficient family is tracked, else None."""
    if config.track_coefficients and dim_system <= _COEFF_TRACK_MAX_DIM:
        return weyl_basis(dim_system).conj()
    return None


def subspace_info(ensemble: CanonicalEnsemble) -> dict:
    """Dimensions and marginal purities of the ensemble's subspace."""
    sub = ensemble.subspace
    return {
        "dim_system": sub.shape.dim_system,
        "dim_environment": sub.shape.dim_environment,
        "dim_subspace": sub.dim_subspace,
        "effective_env_dim": ensemble.effective_env_dim,
        "system_purity": ensemble.system_purity,
        "environment_purity": ensemble.environment_purity,
    }


@dataclass
class DistanceExperimentResult:
    config: ExperimentConfig
    subspace_info: dict
    distances: np.ndarray
    purities: np.ndarray
    max_coeff_devs: np.ndarray | None
    distance_stats: SummaryStats
    purity_stats: SummaryStats
    coeff_stats: SummaryStats | None
    bound_rows: list = field(default_factory=list)

    @property
    def all_bounds_satisfied(self) -> bool:
        return all(row.satisfied for row in self.bound_rows)


def run_distance_experiment(config: ExperimentConfig) -> DistanceExperimentResult:
    """Sample pure states, record distance/purity per trial, confront bounds."""
    sub = resolve_subspace(config.subspace, cap=config.cap)
    ensemble = canonical_ensemble(sub)
    filt = resolve_filter(config.filter, config.subspace, cap=config.cap)
    filtered = apply_filter(sub, filt) if filt is not None else None
    ops_conj = _weyl_conj(config, sub.shape.dim_system)
    rows = _run_trials(
        (sub, ensemble.system_state, ops_conj, None, config.seed), config.trials, config.workers
    )
    distances, purities, devs = rows.T.copy()
    if ops_conj is None:
        devs = None

    rows = bound_confrontation_report(distances, ensemble, config.epsilon, filtered)
    thresholds = [row.threshold for row in rows if row.name == "distance_tail"]
    info = subspace_info(ensemble)
    if filtered is not None:
        info["filter_miss_weight"] = filtered.miss_weight
        info["filter_support_dim"] = filtered.support_dim
        info["filtered_effective_env_dim"] = filtered.effective_env_dim
    return DistanceExperimentResult(
        config=config,
        subspace_info=info,
        distances=distances,
        purities=purities,
        max_coeff_devs=devs,
        distance_stats=SummaryStats.from_samples(distances, thresholds),
        purity_stats=SummaryStats.from_samples(purities),
        coeff_stats=SummaryStats.from_samples(devs) if devs is not None else None,
        bound_rows=rows,
    )


@dataclass
class ExpectationExperimentResult:
    config: ExperimentConfig
    observable_stats: list
    observable_means: list
    observable_targets: list
    observable_bounds: list
    family_stats: SummaryStats | None
    family_bound: BoundRow | None


def run_expectation_experiment(
    config: ExperimentConfig, observables: Sequence[np.ndarray]
) -> ExpectationExperimentResult:
    """Deviation statistics of observable expectation values from their
    ensemble values, plus the full operator-family deviation.
    """
    sub = resolve_subspace(config.subspace, cap=config.cap)
    d_s = sub.shape.dim_system
    ensemble = canonical_ensemble(sub)
    obs = np.stack([require_hermitian(o) for o in observables])
    if obs.shape[1] != d_s:
        raise ShapeMismatchError("observables must act on the system space")
    ops_conj = _weyl_conj(config, d_s)

    rows = _run_trials(
        (sub, ensemble.system_state, ops_conj, obs, config.seed), config.trials, config.workers
    )
    targets = np.einsum("oab,ba->o", obs, ensemble.system_state).real
    deviations = rows[:, 3:] - targets
    devs = rows[:, 2].copy() if ops_conj is not None else None

    d_r = sub.dim_subspace
    eps = suggested_epsilon(d_r) if config.epsilon is None else config.epsilon
    stats = []
    mean_values = []
    obs_rows = []
    for idx in range(obs.shape[0]):
        signed = deviations[:, idx]
        samples = np.abs(signed)
        stats.append(SummaryStats.from_samples(samples, [eps]))
        mean_values.append(float(targets[idx] + signed.mean()))
        norm = float(np.max(np.abs(np.linalg.eigvalsh(obs[idx]))))
        bound = expectation_tail_bound(max(norm, 1e-300), d_r, eps)
        obs_rows.append(_tail_row(f"expectation_tail_{idx}", samples, eps, bound))
    family_stats = None
    family_row = None
    if devs is not None:
        family_stats = SummaryStats.from_samples(devs, [eps])
        family_bound = d_s**2 * expectation_tail_bound(1.0, d_r, eps)
        family_row = _tail_row("coefficient_family_tail", devs, eps, family_bound)
    return ExpectationExperimentResult(
        config=config,
        observable_stats=stats,
        observable_means=mean_values,
        observable_targets=[float(v) for v in targets],
        observable_bounds=obs_rows,
        family_stats=family_stats,
        family_bound=family_row,
    )


# -- exact purity oracle ------------------------------------------------------


def exact_average_purity(sub: ConstraintSubspace, *, cap: int = DEFAULT_DIMENSION_CAP) -> float:
    """Mean system purity over Haar-uniform states on the subspace, exactly.

    Doubling the space turns the purity into the expectation of the system
    swap F_S.  The Haar average of the doubled state is the symmetric
    projector (P_R (x) P_R)(1 + F) / (d_R (d_R + 1)), and since F F_S = F_E
    its two terms contract to the purities of the canonical marginals:

        <Tr rho_S^2> = d_R (Tr Omega_S^2 + Tr Omega_E^2) / (d_R + 1),

    with Omega_S = Tr_E(P_R / d_R) and Omega_E = Tr_S(P_R / d_R).  No
    composite-squared operator is ever materialized.
    """
    check_cap(sub.shape.dim, cap)
    d_r = sub.dim_subspace
    omega_s, _, env_purity = sub.marginals(np.ones(d_r), d_r)
    return d_r * (purity(omega_s) + env_purity) / (d_r + 1)


def purity_inequality_check(
    sub: ConstraintSubspace, *, cap: int = DEFAULT_DIMENSION_CAP
) -> tuple[float, float]:
    """Exact mean purity against the sum of the marginal purities.

    Returns (lhs, rhs) = (<Tr rho_S^2>, Tr Omega_S^2 + Tr Omega_E^2) and
    raises if lhs exceeds rhs beyond 1e-10.
    """
    lhs = exact_average_purity(sub, cap=cap)
    ens = canonical_ensemble(sub)
    rhs = ens.system_purity + ens.environment_purity
    if lhs > rhs + 1e-10:
        raise TypicalityError(f"mean purity {lhs!r} exceeded marginal-purity sum {rhs!r}")
    return lhs, rhs


def mc_average_purity(
    sub: ConstraintSubspace, trials: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Monte Carlo mean system purity and its standard error (needs two trials)."""
    if trials < 2:
        raise ValueError("a standard error needs trials >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    purities = _run_trials((sub, None, None, None, seed), trials, workers)[:, 1].copy()
    return float(purities.mean()), float(purities.std(ddof=1) / np.sqrt(trials))


# -- output artifacts ---------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_trials_csv(fh, result: DistanceExperimentResult) -> None:
    """One row per trial: (trial, trace_distance, purity, max_coeff_dev)."""
    fh.write(",".join(TRIALS_CSV_COLUMNS) + "\n")
    devs = result.max_coeff_devs
    for i in range(result.distances.size):
        dev = _fmt(devs[i]) if devs is not None else ""
        fh.write(
            f"{i},{_fmt(result.distances[i])},{_fmt(result.purities[i])},{dev}\n"
        )


def summary_dict(result: DistanceExperimentResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": result.config.seed,
        "config": result.config.canonical_dict(),
        "config_hash": result.config.config_hash(),
        "subspace": result.subspace_info,
        "stats": {
            "trace_distance": result.distance_stats.to_dict(),
            "purity": result.purity_stats.to_dict(),
            "max_coeff_dev": result.coeff_stats.to_dict() if result.coeff_stats else None,
        },
        "bounds": [row.to_dict() for row in result.bound_rows],
    }


def write_summary_json(fh, result: DistanceExperimentResult) -> None:
    json.dump(summary_dict(result), fh, sort_keys=True, indent=2)
    fh.write("\n")
