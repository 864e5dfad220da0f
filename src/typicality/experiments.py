"""Monte Carlo harness and exact doubled-space purity oracle.

Every Monte Carlo run evaluates its trials through one kernel,
``_trial_block``.  Trial i draws its state from the stream keyed by
(seed, i), so its record depends only on (config, seed, i): any partition of
the trial range across workers reassembles to identical results, and output
files are byte-stable under ``workers``.

The kernel draws its states through ``sampling.sample_states``, the one
draw path, a stack of up to ``sampling._CHUNK`` at a time.  It evaluates a
stack with a few stacked calls: a purity sum, one eigensolve per occupied
system block and a product for the Weyl coefficients.  Each of these works
row by row or matrix by matrix, with the same arithmetic for a trial
wherever it sits in the stack, so a record does not depend on where the
stack and worker boundaries fall.  Folding the trials of a stack into one matrix-matrix
product would not keep that: the product's rows can change in the last bits
with the number of rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .bounds import check_epsilon, formula_rows
from .bounds import distance_tail_bound  # noqa: F401  benchmarks/child.py traces it by name
from .errors import ShapeMismatchError, TypicalityError
from .filtering import MeasurementFilter, apply_filter
from .linalg import DEFAULT_DIMENSION_CAP, BipartiteShape, json_dimension, purity
from .sampling import sample_states
from .spin_chain import SpinChainModel, build_subspace, typical_projector, typical_window
from .subspace import CanonicalEnsemble, ConstraintSubspace, canonical_ensemble, full_space
from .weyl import weyl_basis

SCHEMA_VERSION = 1

#: Weyl-family tracking is skipped above this system dimension (d_S^3 per trial).
_COEFF_TRACK_MAX_DIM = 32

TRIALS_CSV_COLUMNS = ("trial", "trace_distance", "purity", "max_coeff_dev")

#: Rows of ``run.csv`` formatted per write.
_CSV_ROWS = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of one Monte Carlo run.

    ``subspace`` is an inline spec: {"kind": "spin-chain", n, k, num_excited},
    {"kind": "full", dim_system, dim_environment} or {"kind": "file", path}.
    ``filter`` is optional: {"kind": "typical-window", half_width}.
    ``epsilon`` is the deviation of the tail rows (``distance_tail``,
    ``coefficient_family_tail`` and ``filtered_distance_tail``), d_R^(-1/3)
    when None.
    """

    subspace: dict
    trials: int
    seed: int
    epsilon: float | None = None
    filter: dict | None = None
    workers: int = 1
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
            # schema constant: the kernel decides which runs track the Weyl family
            "track_coefficients": True,
            "cap": self.cap,
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def _chain_model(spec: dict) -> SpinChainModel:
    """The chain of a spin-chain spec, whose fields are integers (not floats or
    bools), else :class:`ShapeMismatchError`."""
    n, k = (json_dimension(spec[key], key) for key in ("n", "k"))
    num_excited = spec["num_excited"]  # may be 0
    if isinstance(num_excited, bool) or not isinstance(num_excited, int):
        raise ShapeMismatchError(f"num_excited must be an integer, got {num_excited!r}")
    return SpinChainModel(n, k, num_excited)


def resolve_subspace(spec: dict, *, cap: int = DEFAULT_DIMENSION_CAP) -> ConstraintSubspace:
    """Materialize a subspace from an inline config spec; a dimension field
    must be an integer, not a float or a bool (:class:`ShapeMismatchError`)."""
    kind = spec.get("kind")
    if kind == "spin-chain":
        return build_subspace(_chain_model(spec), cap=cap)
    if kind == "full":
        d_s, d_e = (json_dimension(spec[key], key) for key in ("dim_system", "dim_environment"))
        return full_space(BipartiteShape(d_s, d_e), cap=cap)
    if kind == "file":
        return ConstraintSubspace.load(spec["path"], cap=cap)
    raise ValueError(f"unknown subspace kind {kind!r}")


def resolve_filter(spec: dict | None, subspace_spec: dict) -> MeasurementFilter | None:
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "typical-window":
        if subspace_spec.get("kind") != "spin-chain":
            raise ShapeMismatchError("typical-window filters need a spin-chain subspace")
        model = _chain_model(subspace_spec)
        window = typical_window(model, float(spec["half_width"]))
        return typical_projector(model, window)
    raise ValueError(f"unknown filter kind {kind!r}")


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile`` of the values sorted in ``ordered``, same arithmetic, no numpy.ma."""
    pos = (ordered.size - 1) * q
    a, b = ordered[int(pos)], ordered[min(int(pos) + 1, ordered.size - 1)]
    t = pos - int(pos)
    return float(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)


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
        ordered = np.sort(values)
        quantiles = {q: _quantile(ordered, q / 100.0) for q in (50, 90, 99)}
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
    max_coeff_devs: np.ndarray | None = None,
) -> list[BoundRow]:
    """Confront the samples with every row of ``formula_rows`` whose
    statistic they measure.

    Mean rows are compared with the mean distance, tail rows with the
    frequency of reaching their threshold: the distances, or the per-trial
    ``max_coeff_devs`` (max_x |C_x(rho - Omega_S)| over the Weyl family),
    when given.  A row whose statistic has no samples is skipped: the family
    row without ``max_coeff_devs``, and the deviation row, which needs the
    exact mean distance that no oracle gives yet.
    """
    sub = ensemble.subspace
    n = distances.size
    mean = float(distances.mean())
    # A single trial has no sample spread; a trace distance lies in [0, 2], so
    # its standard deviation is at most 1 (Popoviciu) and SE <= 1 / sqrt(n).
    se_mean = float(distances.std(ddof=1) / np.sqrt(n)) if n > 1 else 1.0 / np.sqrt(n)
    samples = {"distance": distances, "coefficients": max_coeff_devs}

    rows: list[BoundRow] = []
    for row in formula_rows(sub.shape.dim_system, sub.dim_subspace,
                            ensemble.effective_env_dim, epsilon, filtered):
        if row.statistic == "mean":
            rows.append(BoundRow(row.name, float(row.bound), mean,
                                 satisfied=bool(mean <= row.bound + 3.0 * se_mean),
                                 vacuous=bool(row.bound >= 2.0)))
        elif samples.get(row.statistic) is not None:
            rows.append(_tail_row(row.name, samples[row.statistic], row.threshold, row.bound))
    return rows


# -- trial evaluation --------------------------------------------------------


def _weyl_table(d_s: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift index and phase table of the Weyl family on d_s levels.

    U^x with x = b d + a holds only U^x[(s + a) mod d, s] = U^(b d)[s, s], so
    C_x = Tr(U^x' diff) = sum_s diff[(s + a) mod d, s] conj(U^(b d)[s, s]):
    with ``v = diff[shift, arange(d)]``, a trial's coefficients are the one
    (d, d) @ (d, d) product v @ phases.  Only these O(d^2) tables outlive the
    call; the d^4 ``weyl_basis`` stack they are read from does not.
    """
    ops = weyl_basis(d_s)
    return ops[:d_s].real.argmax(axis=1), np.diagonal(ops[::d_s], axis1=1, axis2=2).conj().T


def _trial_block(
    sub: ConstraintSubspace,
    mean_state: np.ndarray | None,
    seed: int,
    start: int,
    count: int,
) -> np.ndarray:
    """Records of trials ``start .. start + count - 1``, one column per trial.

    Rows: trace distance to ``mean_state``, purity, max Weyl-coefficient
    deviation from ``mean_state``.  The distance is NaN when ``mean_state`` is
    None; the deviation is NaN then and when d_S > ``_COEFF_TRACK_MAX_DIM``,
    else the block builds the Weyl family's tables (``_weyl_table``).

    The distance sums |eigenvalue| over one stacked eigensolve per occupied
    system block (``sub.block_slabs``, the blocks the reducer fills; a dense
    subspace is one block), in block order.  It takes ``mean_state`` to be
    zero off those blocks, as rho is, also on system indices no basis vector
    uses; ``run_distance_experiment`` passes Omega_S, which is.
    """
    d_s = sub.shape.dim_system
    records = np.full((3, count), np.nan)
    tracked = mean_state is not None and d_s <= _COEFF_TRACK_MAX_DIM
    if tracked:
        shift, phases = _weyl_table(d_s)
    keys = [(slice(None), *np.ix_(idx, idx)) for idx, *_ in sub.block_slabs[0]]
    for lo, _, rho in sample_states(sub, seed, start, count):
        distance, purities, devs = records[:, lo : lo + rho.shape[0]]
        purities[:] = (np.abs(rho) ** 2).sum(axis=(1, 2))
        if mean_state is not None:
            diff = np.subtract(rho, mean_state, out=rho)
            distance[:] = 0.0
            for key in keys:
                distance += np.abs(np.linalg.eigvalsh(diff[key])).sum(axis=1)
            if tracked:
                v = diff[:, shift, np.arange(d_s)]
                devs[:] = np.abs(np.matmul(v, phases)).max(axis=(1, 2))
    return records


def _split_blocks(trials: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) blocks, at most one per worker and per CPU
    this process may run on (its affinity mask, where the platform has one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(workers, trials, cpus or 1))
    base, extra = divmod(trials, workers)
    blocks = []
    start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        blocks.append((start, count))
        start += count
    return blocks


def _run_trials(common_args: tuple, trials: int, workers: int) -> np.ndarray:
    """``_trial_block`` records of trials ``0 .. trials - 1``, in trial order:
    one (3, trials) array, each worker's block copied into its columns as
    the block completes."""
    blocks = _split_blocks(trials, workers)
    if len(blocks) == 1:
        return _trial_block(*common_args, 0, trials)
    from concurrent.futures import ProcessPoolExecutor, as_completed

    records = np.empty((3, trials))
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        columns = {pool.submit(_trial_block, *common_args, start, count):
                   slice(start, start + count) for start, count in blocks}
        for done in as_completed(columns):
            records[:, columns.pop(done)] = done.result()
    return records


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
    filt = resolve_filter(config.filter, config.subspace)
    filtered = apply_filter(sub, filt) if filt is not None else None
    distances, purities, devs = _run_trials(
        (sub, ensemble.system_state, config.seed), config.trials, config.workers
    )
    devs = None if np.isnan(devs).all() else devs

    rows = bound_confrontation_report(distances, ensemble, config.epsilon, filtered, devs)
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


# -- exact purity oracle ------------------------------------------------------


def exact_average_purity(sub: ConstraintSubspace) -> float:
    """Mean system purity over Haar-uniform states on the subspace, exactly.

    Doubling the space turns the purity into the expectation of the system
    swap F_S.  The Haar average of the doubled state is the symmetric
    projector (P_R (x) P_R)(1 + F) / (d_R (d_R + 1)), and since F F_S = F_E
    its two terms contract to the purities of the canonical marginals:

        <Tr rho_S^2> = d_R (Tr Omega_S^2 + Tr Omega_E^2) / (d_R + 1),

    with Omega_S = Tr_E(P_R / d_R) and Omega_E = Tr_S(P_R / d_R).  In index form
    only a d_S^2 matrix and O(d_R + d_E) vectors are built; a dense basis adds
    Omega_E, one d_E^2 product and a few pieces of its rows (see ``marginals``).
    """
    d_r = sub.dim_subspace
    omega_s, env_purity = sub.marginals(np.ones(d_r), d_r)
    return d_r * (purity(omega_s) + env_purity) / (d_r + 1)


def mc_average_purity(
    sub: ConstraintSubspace, trials: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Monte Carlo mean system purity and its standard error (needs two trials)."""
    if trials < 2:
        raise ValueError("a standard error needs trials >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    purities = _run_trials((sub, None, seed), trials, workers)[1]
    return float(purities.mean()), float(purities.std(ddof=1) / np.sqrt(trials))


# -- output artifacts ---------------------------------------------------------


def write_trials_csv(fh, result: DistanceExperimentResult) -> None:
    """One row per trial: (trial, trace_distance, purity, max_coeff_dev), each
    value as ``f"{value:.17g}"``, the last empty when the Weyl family is not
    tracked.  Rows are formatted from Python floats and written
    ``_CSV_ROWS`` at a time, so the text in memory stays small."""
    fh.write(",".join(TRIALS_CSV_COLUMNS) + "\n")
    n = result.distances.size
    devs = result.max_coeff_devs
    for lo in range(0, n, _CSV_ROWS):
        part = slice(lo, min(lo + _CSV_ROWS, n))
        dev_text = (
            [""] * (part.stop - lo) if devs is None
            else [f"{v:.17g}" for v in devs[part].tolist()]
        )
        lines = zip(range(lo, part.stop), result.distances[part].tolist(),
                    result.purities[part].tolist(), dev_text)
        fh.write("".join(f"{i},{d:.17g},{p:.17g},{v}\n" for i, d, p, v in lines))


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
        "bounds": [asdict(row) for row in result.bound_rows],
    }


@contextlib.contextmanager
def output(path: str):
    """The text file at ``path`` opened for writing, or stdout for "-"."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def write_json(obj, path: str) -> None:
    """Write ``obj`` to ``output(path)`` as strict JSON: sorted keys, two-space
    indent, a final newline.  The text is rendered before the target is
    opened, so a NaN or an infinity (ValueError) leaves no file."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with output(path) as fh:
        fh.write(text)


def write_summary_json(path: str, result: DistanceExperimentResult) -> None:
    write_json(summary_dict(result), path)
