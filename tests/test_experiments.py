import ast
import functools
import importlib.util
import io
import json
import math
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import occupied_blocks, partial_trace, purity_inequality_check
from typicality import experiments, sampling
from typicality.bounds import distance_tail_bound, expectation_tail_bound, levy_tail
from typicality.cli import main
from typicality.errors import ShapeMismatchError
from typicality.experiments import (
    ExperimentConfig,
    SummaryStats,
    _split_blocks,
    _trial_block,
    exact_average_purity,
    mc_average_purity,
    resolve_filter,
    resolve_subspace,
    run_distance_experiment,
    summary_dict,
    write_trials_csv,
)
from typicality.linalg import BipartiteShape, purity
from typicality.sampling import (
    SampleStream,
    reduced_state_from_coords,
    sample_coords,
)
from typicality.spin_chain import SpinChainModel, build_subspace
from typicality.subspace import (
    ConstraintSubspace,
    canonical_ensemble,
    from_basis_vectors,
    full_space,
    random_subspace,
)
from typicality.weyl import coefficients, weyl_basis

CHAIN_SPEC = {"kind": "spin-chain", "n": 3, "k": 1, "num_excited": 1}


def _blockwise_distance(sub, rho, mean):
    """Trace norm of rho - mean summed as the kernel sums it, one trial at a
    time: the |eigenvalues| of each system block, in block order; a dense
    subspace is one block.
    """
    diff = rho - mean
    total = 0.0
    for idx in occupied_blocks(sub):
        total += np.sum(np.abs(np.linalg.eigvalsh(diff[np.ix_(idx, idx)])))
    return float(total)


def test_config_validation_and_hash():
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=10, seed=1)
    assert cfg.config_hash() == ExperimentConfig(subspace=CHAIN_SPEC, trials=10, seed=1).config_hash()
    other = ExperimentConfig(subspace=CHAIN_SPEC, trials=11, seed=1)
    assert cfg.config_hash() != other.config_hash()
    with pytest.raises(ValueError):
        ExperimentConfig(subspace=CHAIN_SPEC, trials=0, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(subspace=CHAIN_SPEC, trials=1, seed=-2)


def test_config_bytes_are_pinned():
    cfg = ExperimentConfig(
        subspace={"kind": "spin-chain", "n": 8, "k": 2, "num_excited": 4}, trials=1000, seed=1
    )
    assert cfg.config_hash() == "78bb98fe957648536754678f84d2af71a16b93f41125c64426f954a1d6633664"
    assert cfg.canonical_dict()["track_coefficients"] is True


def test_resolve_subspace_kinds(tmp_path):
    sub = resolve_subspace(CHAIN_SPEC)
    assert sub.dim_subspace == 3
    assert resolve_subspace({**CHAIN_SPEC, "num_excited": 0}).dim_subspace == 1
    full = resolve_subspace({"kind": "full", "dim_system": 2, "dim_environment": 2})
    assert full.dim_subspace == 4
    path = tmp_path / "sub.json"
    sub_small = random_subspace(BipartiteShape(2, 2), 2, np.random.default_rng(3))
    sub_small.save(path)
    loaded = resolve_subspace({"kind": "file", "path": str(path)})
    assert loaded.dim_subspace == 2
    with pytest.raises(ValueError):
        resolve_subspace({"kind": "nope"})


@pytest.mark.parametrize("spec", [
    {"kind": "spin-chain", "n": 8.9, "k": 2, "num_excited": 4},
    {"kind": "spin-chain", "n": 8, "k": 2.0, "num_excited": 4},
    {"kind": "spin-chain", "n": 8, "k": 2, "num_excited": 4.0},
    {"kind": "spin-chain", "n": 8, "k": True, "num_excited": 4},
    {"kind": "spin-chain", "n": 8, "k": 2, "num_excited": False},
    {"kind": "full", "dim_system": 2.5, "dim_environment": 2},
    {"kind": "full", "dim_system": 2, "dim_environment": True},
])
def test_resolve_subspace_refuses_non_integer_fields(spec):
    # a float is not truncated: the run would differ from the spec it echoes
    with pytest.raises(ShapeMismatchError, match="must be an integer"):
        resolve_subspace(spec)
    with pytest.raises(ShapeMismatchError, match="must be an integer"):
        run_distance_experiment(ExperimentConfig(subspace=spec, trials=2, seed=1))
    if spec["kind"] == "spin-chain":
        with pytest.raises(ShapeMismatchError, match="must be an integer"):
            resolve_filter({"kind": "typical-window", "half_width": 1.0}, spec)


def test_exact_average_purity_full_space():
    value = exact_average_purity(full_space(BipartiteShape(2, 2)))
    assert value == pytest.approx(0.8, abs=1e-12)
    # closed form (d_S + d_E) / (d_S d_E + 1) on other full spaces
    for d_s, d_e in ((2, 3), (3, 4), (2, 6)):
        value = exact_average_purity(full_space(BipartiteShape(d_s, d_e)))
        assert value == pytest.approx((d_s + d_e) / (d_s * d_e + 1), abs=1e-12)


def test_exact_average_purity_single_state():
    rng = np.random.default_rng(8)
    shape = BipartiteShape(2, 3)
    sub = random_subspace(shape, 1, rng)
    marginal = partial_trace(
        np.outer(sub.basis[0], sub.basis[0].conj()), shape, "system"
    )
    assert exact_average_purity(sub) == pytest.approx(
        float(np.trace(marginal @ marginal).real), abs=1e-12
    )


def test_exact_average_purity_one_hot_matches_dense_route():
    sub = build_subspace(SpinChainModel(n=5, k=2, num_excited=2))
    dense = from_basis_vectors(sub.shape, sub.basis)
    assert exact_average_purity(sub) == pytest.approx(exact_average_purity(dense), abs=1e-12)


def test_chain_ensemble_and_oracle_allocate_no_environment_matrix():
    # (12,1,6) has d_E = 2048: a dense environment marginal alone would be 64 MB
    sub = build_subspace(SpinChainModel(n=12, k=1, num_excited=6))
    tracemalloc.start()
    try:
        canonical_ensemble(sub)
        exact_average_purity(sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_ensemble_and_oracle_hold_no_basis_sized_temporary():
    # the basis is 16 MiB; Omega_E and its product are 1 MiB each
    sub = random_subspace(BipartiteShape(8, 256), 512, np.random.default_rng(0))
    peaks = []
    tracemalloc.start()
    try:
        for run in (canonical_ensemble, exact_average_purity):
            tracemalloc.reset_peak()
            run(sub)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4 << 20


def _doubled_space_purity_oracle(sub) -> float:
    """Literal doubled-space evaluation on tiny dimensions.

    Materializes the projector onto two copies of the subspace, symmetrizes
    it with the full swap of the copies, and contracts against the explicit
    system-swap operator.  Exponential in memory; oracle use only.
    """
    shape = sub.shape
    dim = shape.dim
    proj = sub.basis.T @ sub.basis.conj()
    doubled = np.kron(proj, proj)
    swap = np.zeros((dim * dim, dim * dim), dtype=complex)
    for x in range(dim):
        for y in range(dim):
            swap[y * dim + x, x * dim + y] = 1.0
    symmetric = (doubled + doubled @ swap @ doubled) / 2.0
    d_s, d_e = shape.dim_system, shape.dim_environment
    sys_swap = np.zeros((dim * dim, dim * dim), dtype=complex)
    for s in range(d_s):
        for e in range(d_e):
            for s2 in range(d_s):
                for e2 in range(d_e):
                    row = (s2 * d_e + e) * dim + (s * d_e + e2)
                    col = (s * d_e + e) * dim + (s2 * d_e + e2)
                    sys_swap[row, col] = 1.0
    d_r = sub.dim_subspace
    weight = 2.0 / (d_r * (d_r + 1))
    return float(np.trace(weight * symmetric @ sys_swap).real)


def test_exact_average_purity_against_doubled_space_oracle():
    oracle = _doubled_space_purity_oracle
    assert oracle(full_space(BipartiteShape(2, 2))) == pytest.approx(0.8, abs=1e-12)
    rng = np.random.default_rng(123)
    for d_s, d_e, d_r in ((2, 2, 3), (2, 3, 4), (3, 2, 2)):
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, rng)
        assert exact_average_purity(sub) == pytest.approx(oracle(sub), abs=1e-11)
    chain = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    assert exact_average_purity(chain) == pytest.approx(oracle(chain), abs=1e-11)


def test_exact_average_purity_against_monte_carlo():
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    exact = exact_average_purity(sub)
    mean, se = mc_average_purity(sub, trials=20_000, seed=99)
    assert abs(mean - exact) < 3 * se


def test_mc_average_purity_needs_two_trials():
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    with pytest.raises(ValueError, match="trials >= 2"):
        mc_average_purity(sub, trials=1, seed=99)


def test_exact_average_purity_range_and_jensen():
    # samples are at least as pure as their average: <Tr rho^2> >= Tr <rho>^2
    rng = np.random.default_rng(19)
    for _ in range(15):
        d_s = int(rng.integers(1, 5))
        d_e = int(rng.integers(1, 7))
        d_r = int(rng.integers(1, min(12, d_s * d_e) + 1))
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, rng)
        value = exact_average_purity(sub)
        assert 1 / d_s - 1e-12 <= value <= 1 + 1e-12
        assert value >= canonical_ensemble(sub).system_purity - 1e-12


def test_purity_inequality_full_space_and_random():
    lhs, rhs = purity_inequality_check(full_space(BipartiteShape(2, 2)))
    assert lhs == pytest.approx(0.8, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(10):
        d_s = int(rng.integers(1, 5))
        d_e = int(rng.integers(1, 7))
        d_r = int(rng.integers(1, min(12, d_s * d_e) + 1))
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, rng)
        lhs, rhs = purity_inequality_check(sub)
        assert lhs <= rhs + 1e-10


def test_single_state_subspace_distances_vanish():
    cfg = ExperimentConfig(
        subspace={"kind": "spin-chain", "n": 4, "k": 2, "num_excited": 0},
        trials=50,
        seed=5,
    )
    result = run_distance_experiment(cfg)
    assert result.distance_stats.maximum < 1e-10


def test_three_spin_experiment_bounds():
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=2000, seed=11)
    result = run_distance_experiment(cfg)
    assert result.distance_stats.mean <= np.sqrt(2 / 3)
    assert result.all_bounds_satisfied
    names = {row.name for row in result.bound_rows}
    assert {"average_distance_eff", "average_distance_dr", "distance_tail",
            "operator_basis_tail"} <= names
    # at this scale the tail bound is vacuous yet still honored
    tail_row = next(r for r in result.bound_rows if r.name == "distance_tail")
    assert tail_row.vacuous and tail_row.satisfied
    avg_row = next(r for r in result.bound_rows if r.name == "average_distance_eff")
    assert not avg_row.vacuous and avg_row.satisfied
    stats = result.distance_stats
    assert stats.minimum <= stats.quantiles[50] <= stats.maximum
    assert all(0.0 <= f <= 1.0 for f in stats.tail_frequencies.values())
    assert np.all(result.distances >= 0) and np.all(result.distances <= 2 + 1e-9)
    d_s = result.subspace_info["dim_system"]
    assert np.all(result.purities >= 1 / d_s - 1e-9) and np.all(result.purities <= 1 + 1e-9)


def test_filtered_experiment_adds_bound_row():
    cfg = ExperimentConfig(
        subspace={"kind": "spin-chain", "n": 4, "k": 2, "num_excited": 2},
        trials=500,
        seed=3,
        filter={"kind": "typical-window", "half_width": 1.0},
    )
    result = run_distance_experiment(cfg)
    names = [row.name for row in result.bound_rows]
    assert "filtered_distance_tail" in names
    assert result.all_bounds_satisfied
    assert "filter_miss_weight" in result.subspace_info


def test_tail_rows_hold_across_seeds_and_chains():
    # empirical tail at the threshold never exceeds the bound plus 3 binomial
    # standard errors, on every run
    for seed in (1, 2, 3):
        for spec in (CHAIN_SPEC, {"kind": "spin-chain", "n": 6, "k": 2, "num_excited": 3}):
            result = run_distance_experiment(
                ExperimentConfig(subspace=spec, trials=800, seed=seed)
            )
            for row in result.bound_rows:
                assert row.satisfied, row


def test_filter_row_reproduces_filtered_formula():
    from typicality.bounds import filtered_distance_tail_bound, suggested_epsilon

    spec = {"kind": "spin-chain", "n": 6, "k": 2, "num_excited": 3}
    result = run_distance_experiment(ExperimentConfig(
        subspace=spec, trials=200, seed=8,
        filter={"kind": "typical-window", "half_width": 1.0},
    ))
    row = next(r for r in result.bound_rows if r.name == "filtered_distance_tail")
    info = result.subspace_info
    threshold, tail = filtered_distance_tail_bound(
        info["filter_support_dim"],
        info["filtered_effective_env_dim"],
        info["dim_subspace"],
        info["filter_miss_weight"],
        suggested_epsilon(info["dim_subspace"]),
    )
    assert row.threshold == pytest.approx(threshold, rel=1e-12)
    assert row.formula_value == pytest.approx(tail, rel=1e-12)


def test_filter_file_spec_is_rejected_even_for_a_valid_filter_file(tmp_path):
    # No command reads a filter file, and neither does the library: a
    # {"kind": "file"} filter spec is an unknown kind, whatever the file holds.
    # The file holds the window filter of (4,2,2) at half-width 0.5 in the
    # form earlier versions wrote.
    path = tmp_path / "filter.json"
    path.write_text(
        '{"coordinates": "subspace", "matrix": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], '
        '[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}', encoding="utf-8"
    )
    spec = {"kind": "spin-chain", "n": 4, "k": 2, "num_excited": 2}
    file_spec = {"kind": "file", "path": str(path)}
    with pytest.raises(ValueError, match="unknown filter kind"):
        resolve_filter(file_spec, spec)
    with pytest.raises(ValueError, match="unknown filter kind"):
        run_distance_experiment(ExperimentConfig(
            subspace=spec, trials=10, seed=5, filter=file_spec,
        ))


def test_experiment_deterministic_across_workers(monkeypatch):
    # three blocks on any host, so the pool's blocks can complete out of order
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    base = dict(subspace={"kind": "spin-chain", "n": 4, "k": 2, "num_excited": 2},
                trials=300, seed=17)
    serial = run_distance_experiment(ExperimentConfig(**base, workers=1))
    parallel = run_distance_experiment(ExperimentConfig(**base, workers=3))
    assert np.array_equal(serial.distances, parallel.distances)
    assert np.array_equal(serial.purities, parallel.purities)
    assert np.array_equal(serial.max_coeff_devs, parallel.max_coeff_devs)

    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trials_csv(buf_a, serial)
    write_trials_csv(buf_b, parallel)
    assert buf_a.getvalue() == buf_b.getvalue()

    sub = resolve_subspace(base["subspace"])
    assert mc_average_purity(sub, 300, 17, workers=1) == mc_average_purity(sub, 300, 17, workers=3)


def test_split_blocks_caps_blocks_at_cpu_count(monkeypatch):
    # a platform without affinity masks: os.cpu_count caps the blocks
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    blocks = _split_blocks(10**6, 10_000)
    assert blocks == [(0, 250_000), (250_000, 250_000), (500_000, 250_000), (750_000, 250_000)]
    assert _split_blocks(3, 10_000) == [(0, 1), (1, 1), (2, 1)]
    assert _split_blocks(10, 3) == [(0, 4), (4, 3), (7, 3)]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert _split_blocks(10, 8) == [(0, 10)]


def test_split_blocks_caps_blocks_at_the_affinity_mask(monkeypatch):
    # pinned to one CPU of a larger host: one block, so one worker process
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _split_blocks(1000, 4) == [(0, 1000)]
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert _split_blocks(1000, 4) == [(0, 334), (334, 333), (667, 333)]


def test_monte_carlo_runs_share_trial_records():
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=300, seed=41, epsilon=0.3)
    distance_run = run_distance_experiment(cfg)
    purities = distance_run.purities
    assert mc_average_purity(resolve_subspace(CHAIN_SPEC), trials=300, seed=41) == (
        float(purities.mean()),
        float(purities.std(ddof=1) / np.sqrt(300)),
    )
    family = next(r for r in distance_run.bound_rows if r.name == "coefficient_family_tail")
    tails = SummaryStats.from_samples(distance_run.max_coeff_devs, [0.3]).tail_frequencies
    assert family.empirical_value == tails[0.3]


def test_trial_values_match_direct_sampling():
    # records are exactly the per-stream samples, independent of harness
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=20, seed=23)
    result = run_distance_experiment(cfg)
    sub = resolve_subspace(CHAIN_SPEC)
    omega = canonical_ensemble(sub).system_state
    for i in (0, 7, 19):
        coords = sample_coords(3, SampleStream(23, i))
        rho = reduced_state_from_coords(sub, coords)
        assert result.distances[i] == _blockwise_distance(sub, rho, omega)
        full = float(np.sum(np.abs(np.linalg.eigvalsh(rho - omega))))
        assert abs(result.distances[i] - full) <= 1e-14


def test_expectation_experiment(draw_states):
    # over Haar states on the chain, <Tr(O rho)> approaches Tr(O Omega) for O = 1, Z
    sub = resolve_subspace(CHAIN_SPEC)
    omega = canonical_ensemble(sub).system_state
    z = np.diag([1.0, -1.0]).astype(complex)
    trials = 10_000
    _, rhos = draw_states(sub, 29, 0, trials)
    # identity deviations vanish
    identity = np.trace(rhos, axis1=1, axis2=2).real - np.trace(omega).real
    assert np.abs(identity).max() < 1e-12
    # <Tr(Z rho)> approaches Tr(Z Omega) = 1/3
    target = float(np.trace(z @ omega).real)
    assert target == pytest.approx(1 / 3, abs=1e-12)
    values = np.einsum("ab,tba->t", z, rhos).real
    se = values.std(ddof=1) / np.sqrt(trials)
    assert abs(values.mean() - 1 / 3) < 5 * se


def test_summary_stats_consistency():
    values = np.random.default_rng(1).uniform(0, 1, 500)
    stats = SummaryStats.from_samples(values, [0.5])
    assert stats.minimum <= stats.quantiles[50] <= stats.quantiles[90] <= stats.maximum
    assert 0 <= stats.tail_frequencies[0.5] <= 1
    with pytest.raises(ValueError):
        SummaryStats.from_samples(np.array([]))


def test_csv_and_json_artifacts():
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=5, seed=2)
    result = run_distance_experiment(cfg)
    buf = io.StringIO()
    write_trials_csv(buf, result)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial,trace_distance,purity,max_coeff_dev"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == result.distances[0]
    # the text of formatting each numpy value on its own
    assert lines[1:] == [
        f"{i},{result.distances[i]:.17g},{result.purities[i]:.17g},{result.max_coeff_devs[i]:.17g}"
        for i in range(5)
    ]

    payload = summary_dict(result)
    assert payload["schema_version"] == 1
    assert payload["seed"] == 2
    assert payload["config"]["trials"] == 5
    assert payload["config_hash"] == cfg.config_hash()
    json.dumps(payload)  # serializable
    assert len(payload["bounds"]) >= 4


# -- the chunked trial kernel ------------------------------------------------

#: Chains with d_S = 2, 4, 8, 16, then a dense 5-dimensional subspace of 3 x 4
#: and a dense 200-dimensional one of 4 x 64 (two pieces of the lift), then 12
#: random computational basis states of 8 x 16, whose system blocks have
#: sizes 1, 1, 2, 1, 1, 2.
KERNEL_CASES = ((6, 1, 3), (6, 2, 3), (7, 3, 3), (8, 4, 4), "dense", "wide dense", "index")


@functools.cache
def _kernel_case(name):
    """(subspace, mean state, Weyl basis)."""
    rng = np.random.default_rng(12)
    if name == "dense":
        sub = random_subspace(BipartiteShape(3, 4), 5, rng)
    elif name == "wide dense":
        sub = random_subspace(BipartiteShape(4, 64), 200, rng)
    elif name == "index":
        flat = np.random.default_rng(1).choice(8 * 16, size=12, replace=False)
        sub = ConstraintSubspace(BipartiteShape(8, 16), flat_indices=flat)
    else:
        sub = build_subspace(SpinChainModel(*name))
    return sub, canonical_ensemble(sub).system_state, weyl_basis(sub.shape.dim_system)


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(KERNEL_CASES),
    seed=st.integers(0, 2**32),
    start=st.integers(0, 10**6),
    count=st.integers(1, 150),
    with_mean=st.booleans(),
)
@example(case="wide dense", seed=5, start=0, count=70, with_mean=True)
def test_trial_block_matches_per_trial_evaluation(case, seed, start, count, with_mean):
    sub, omega, ops = _kernel_case(case)
    mean_state = omega if with_mean else None
    records = _trial_block(sub, mean_state, seed, start, count)
    assert records.shape == (3, count)
    for i, row in enumerate(records.T):
        coords = sample_coords(sub.dim_subspace, SampleStream(seed, start + i))
        rho = reduced_state_from_coords(sub, coords)
        assert row[1] == purity(rho)
        if mean_state is None:
            assert np.isnan(row[0]) and np.isnan(row[2])
            continue
        diff = rho - mean_state
        assert row[0] == _blockwise_distance(sub, rho, mean_state)
        assert abs(row[0] - np.sum(np.abs(np.linalg.eigvalsh(diff)))) <= 1e-14
        assert abs(row[2] - np.max(np.abs(coefficients(ops, diff)))) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(KERNEL_CASES),
    seed=st.integers(0, 2**32),
    count=st.integers(1, 200),
    data=st.data(),
)
def test_trial_block_is_independent_of_the_split(case, seed, count, data):
    sub, omega, ops = _kernel_case(case)
    args = (sub, omega, seed)
    edges = sorted({0, count, *data.draw(st.lists(st.integers(0, count), max_size=4))})
    pieces = [_trial_block(*args, lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(pieces, axis=1), _trial_block(*args, 0, count))


@pytest.mark.parametrize("chunk, chunk_bytes", [(1, 1 << 20), (7, 1 << 20), (64, 4096 * 5)])
def test_trial_block_records_do_not_depend_on_chunk_size(monkeypatch, chunk, chunk_bytes):
    for case in ((8, 4, 4), "wide dense", "index"):
        sub, omega, ops = _kernel_case(case)
        args = (sub, omega, 9, 3, 150)
        default = _trial_block(*args)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "_CHUNK", chunk)
            patch.setattr(sampling, "_CHUNK_BYTES", chunk_bytes)
            assert np.array_equal(_trial_block(*args), default)


@pytest.mark.parametrize("case", [(8, 2, 4), (7, 3, 3), (12, 4, 6), "index"])
def test_canonical_state_is_zero_off_the_system_blocks(case):
    # the kernel's per-block eigensolve takes the mean state, Omega_S, to be
    # zero where rho is: off the blocks
    sub, omega = _kernel_case(case)[:2]
    d_s = sub.shape.dim_system
    on_blocks = np.zeros((d_s, d_s), dtype=bool)
    blocks = [idx for idx, *_ in sub.block_slabs[0]]
    for idx in blocks:
        on_blocks[np.ix_(idx, idx)] = True
    assert len(blocks) > 1
    assert np.trace(omega).real == pytest.approx(1.0)
    assert not omega[~on_blocks].any()


#: Subspaces with system indices no basis vector uses: the (9,3,1) chain
#: (shells 0 and 1 of 4), then random basis states, (d_S, d_E, d_R, seed):
#: one block with unfilled slab entries, and five small blocks.
UNUSED_INDEX_CASES = ((9, 3, 1), (8, 6, 12, 5), (8, 16, 12, 1))


@pytest.mark.parametrize("case", UNUSED_INDEX_CASES)
def test_kernel_eigensolves_only_the_occupied_blocks(monkeypatch, case):
    if len(case) == 3:
        sub = build_subspace(SpinChainModel(*case))
    else:
        d_s, d_e, d_r, seed = case
        flat = np.random.default_rng(seed).choice(d_s * d_e, size=d_r, replace=False)
        sub = ConstraintSubspace(BipartiteShape(d_s, d_e), flat_indices=flat)
    d_s = sub.shape.dim_system
    blocks, _, holes, _ = sub.block_slabs
    unused = np.setdiff1d(np.arange(d_s), sub.one_hot[0])
    assert unused.size
    assert holes.size or len(case) == 3  # a chain's slabs are full
    assert [b[0].tolist() for b in blocks] == [b.tolist() for b in occupied_blocks(sub)]
    omega = canonical_ensemble(sub).system_state
    assert not omega[unused].any() and not omega[:, unused].any()

    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(sampling, "_CHUNK", 16)
    records = _trial_block(sub, omega, 5, 0, 40)  # stacks of 16, 16 and 8
    monkeypatch.undo()
    assert calls == [(c, b[0].size, b[0].size) for c in (16, 16, 8) for b in blocks]
    ops = weyl_basis(d_s)
    for i, row in enumerate(records.T):
        rho = reduced_state_from_coords(sub, sample_coords(sub.dim_subspace, SampleStream(5, i)))
        assert row[0] == _blockwise_distance(sub, rho, omega)
        assert row[1] == purity(rho)
        assert abs(row[2] - np.max(np.abs(coefficients(ops, rho - omega)))) <= 1e-14


@pytest.mark.parametrize("case", [(6, 2, 3), "dense"])
def test_trial_block_redraws_short_rows_like_draw_coords(monkeypatch, case):
    # at a threshold of sqrt(2 d_R), about the median norm, half the rows redraw
    sub, omega, ops = _kernel_case(case)
    d_r = sub.dim_subspace
    monkeypatch.setattr(sampling, "_RESAMPLE_NORM", np.sqrt(2.0 * d_r))
    monkeypatch.setattr(sampling, "_CHUNK", 7)
    seed, start, count = 11, 5, 40
    records = _trial_block(sub, omega, seed, start, count)
    redrawn = 0
    for i, row in enumerate(records.T):
        first = SampleStream(seed, start + i).rng().standard_normal((2, d_r))
        redrawn += np.linalg.norm(first[0] + 1j * first[1]) <= sampling._RESAMPLE_NORM
        coords = sample_coords(d_r, SampleStream(seed, start + i))
        rho = reduced_state_from_coords(sub, coords)
        assert row[1] == purity(rho)
        assert row[0] == _blockwise_distance(sub, rho, omega)
    assert 0.2 * count < redrawn < 0.8 * count


@pytest.mark.parametrize("name", ["chain 8 2 4", "chain 12 4 6", "dense 8 64 160", "full 512 4"])
def test_chunk_buffers_fit_the_byte_budget(name):
    kind, *dims = name.split()
    dims = [int(d) for d in dims]
    if kind == "chain":
        sub = build_subspace(SpinChainModel(*dims))
    elif kind == "dense":
        sub = random_subspace(BipartiteShape(*dims[:2]), dims[2], np.random.default_rng(5))
    else:
        sub = full_space(BipartiteShape(*dims))
    stacks = sampling.sample_states(sub, 1, 0, 10**6)
    next(stacks)
    local = stacks.gi_frame.f_locals  # the buffers every stack reuses
    chunk, reduce = local["chunk"], local["reduce"]
    arrays = [local["normals"], local["coords"], local["states"], reduce.work, reduce.products]
    stacks.close()
    arrays = [a for a in arrays if a is not None]
    assert all(chunk in a.shape[:2] for a in arrays)
    assert sum(a.nbytes for a in arrays) <= sampling._CHUNK_BYTES or chunk == 1
    if name == "chain 8 2 4":
        assert chunk == sampling._CHUNK
    if kind == "full":
        assert chunk == 1


@pytest.mark.parametrize("seed, start, count", [
    (7, 2**32 - 3, 6),  # seeded a chunk at a time, then through SampleStream
    (2**32, 0, 70),  # a two-word seed: SampleStream for every trial
    (2**32 - 1, 2**32 - 70, 70),
])
def test_trial_block_matches_sample_streams_across_the_word_boundary(seed, start, count):
    sub, omega, ops = _kernel_case((6, 2, 3))
    records = _trial_block(sub, omega, seed, start, count)
    for i, row in enumerate(records.T):
        rho = reduced_state_from_coords(
            sub, sample_coords(sub.dim_subspace, SampleStream(seed, start + i))
        )
        assert row[1] == purity(rho)
        assert row[0] == _blockwise_distance(sub, rho, omega)


def test_trial_block_seeds_below_two_to_the_32_without_sample_streams(monkeypatch):
    def refuse(self):
        raise AssertionError(f"per-trial generator built for {self}")

    monkeypatch.setattr(SampleStream, "rng", refuse)
    sub, omega, ops = _kernel_case((6, 2, 3))
    args = (sub, omega)
    assert np.isfinite(_trial_block(*args, 2**32 - 1, 0, 150)).all()
    assert np.isfinite(_trial_block(*args, 0, 2**32 - 150, 150)).all()
    with pytest.raises(AssertionError, match="per-trial generator"):
        _trial_block(*args, 2**32, 0, 1)


@pytest.mark.parametrize("d_s, tracked", [(32, True), (33, False)])
def test_weyl_family_is_tracked_up_to_d_s_32(tmp_path, capsys, d_s, tracked):
    assert experiments._COEFF_TRACK_MAX_DIM == 32
    prefix = tmp_path / "run"
    assert main(["experiment", "--full", str(d_s), "1", "--trials", "1", "--seed", "1",
                 "--output", str(prefix)]) == 0
    capsys.readouterr()
    last = (tmp_path / "run.csv").read_text().splitlines()[1].split(",")[3]
    summary = json.loads((tmp_path / "run.json").read_text())
    assert (last != "") == tracked
    assert (summary["stats"]["max_coeff_dev"] is not None) == tracked
    names = [row["name"] for row in summary["bounds"]]
    assert ("coefficient_family_tail" in names) == tracked


@pytest.mark.parametrize("flags, d_s, d_r, epsilon", [
    (["--spin-chain", "8", "2", "4"], 4, 70, 70 ** (-1 / 3)),
    (["--full", "2", "8", "--epsilon", "0.3"], 2, 16, 0.3),
])
def test_family_row_is_the_union_bound_over_the_weyl_family(tmp_path, capsys, flags, d_s,
                                                              d_r, epsilon):
    prefix = tmp_path / "run"
    assert main(["experiment", *flags, "--trials", "400", "--seed", "3",
                 "--output", str(prefix)]) == 0
    out = capsys.readouterr().out
    rows = json.loads((tmp_path / "run.json").read_text())["bounds"]
    names = [row["name"] for row in rows]
    assert names.index("coefficient_family_tail") == names.index("operator_basis_tail") + 1
    row = rows[names.index("coefficient_family_tail")]
    # 2 (d_S^2 - 1) unions of a 2-Lipschitz tail at epsilon / sqrt(2)
    levy_c = 1.0 / (18.0 * math.pi**3)
    formula = 2 * (d_s**2 - 1) * 2 * math.exp(-levy_c * d_r * epsilon**2 / 2)
    assert row["formula_value"] == pytest.approx(formula, rel=1e-12)
    assert row["threshold"] == epsilon
    devs = np.array([float(line.split(",")[3]) for line in
                     (tmp_path / "run.csv").read_text().splitlines()[1:]])
    assert row["empirical_value"] == float(np.mean(devs >= epsilon))
    assert row["satisfied"] and row["vacuous"]
    assert f"coefficient_family_tail: formula {formula:.6g}" in out


def test_kernel_builds_the_weyl_family_only_against_a_mean_state(monkeypatch):
    # the benchmark's traced run times the kernel's calls of experiments.weyl_basis
    calls = []

    def counted(dim):
        calls.append(dim)
        return weyl_basis(dim)

    monkeypatch.setattr(experiments, "weyl_basis", counted)
    spec = {"kind": "spin-chain", "n": 8, "k": 2, "num_excited": 4}
    run_distance_experiment(ExperimentConfig(subspace=spec, trials=10, seed=1))
    assert calls == [4]
    mc_average_purity(resolve_subspace(spec), trials=10, seed=1)
    assert calls == [4]


def test_kernel_frees_the_weyl_stack_before_it_draws(monkeypatch):
    # the kernel keeps the shift index and phase table, not the d_S^4 stack
    stacks = []

    def kept(dim):
        ops = weyl_basis(dim)
        stacks.append(weakref.ref(ops))
        return ops

    def draw(*args):
        assert len(stacks) == 1 and stacks[0]() is None
        yield from sampling.sample_states(*args)

    monkeypatch.setattr(experiments, "weyl_basis", kept)
    monkeypatch.setattr(experiments, "sample_states", draw)
    spec = {"kind": "spin-chain", "n": 12, "k": 4, "num_excited": 6}
    result = run_distance_experiment(ExperimentConfig(subspace=spec, trials=20, seed=1))
    assert result.max_coeff_devs is not None and len(stacks) == 1


def test_a_run_holds_its_records_once():
    # distance, purity and Weyl deviation: 24 B per trial, in one (3, trials) array;
    # records held twice (about 56 B per trial in all) pass the bound below 65 000 trials
    trials = 100_000
    spec = {"kind": "spin-chain", "n": 8, "k": 2, "num_excited": 4}
    # modules the first run imports (numpy.random) are not part of this check
    run_distance_experiment(ExperimentConfig(subspace=spec, trials=2, seed=1))
    tracemalloc.start()
    try:
        run_distance_experiment(ExperimentConfig(subspace=spec, trials=trials, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * trials + (2 << 20)


def test_benchmark_trace_targets_exist(monkeypatch):
    # the benchmark's traced run patches these attributes by name
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("benchmark_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for owner, attr, _name, _peak in child._command_targets():
        assert attr in owner.__dict__, (owner, attr)


def test_benchmark_imports_resolve():
    # the benchmark's prepare, setup and traced replay import these names from
    # the package, and use attributes of the modules they import
    child = Path(__file__).resolve().parent.parent / "benchmarks" / "child.py"
    tree = ast.parse(child.read_text())
    modules = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "typicality":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "typicality":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(module, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    assert missing == []


def test_every_package_definition_is_reached():
    # a module-level function or class of the package must be named (as an AST
    # name or attribute) by a reached definition, starting from cli.main and
    # module-level code outside __init__, by a benchmark file (strings too: the
    # traced run patches attributes by name) or by the README's python block
    root = Path(__file__).resolve().parent.parent

    def named(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}

    defs, seeds = {}, {"main"}
    for path in sorted((root / "src" / "typicality").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif path.name != "__init__.py":
                seeds |= named(node)
    for path in (root / "benchmarks").glob("*.py"):
        tree = ast.parse(path.read_text())
        seeds |= named(tree) | {node.value for node in ast.walk(tree)
                                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    readme = (root / "README.md").read_text(encoding="utf-8")
    seeds |= named(ast.parse(readme.split("```python\n")[1].split("```")[0]))
    reached, todo = set(), list(seeds & defs.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs[name]:
                todo.extend(named(node) & defs.keys())
    assert sorted(defs.keys() - reached) == []


BAD_EPSILONS = (-1.0, 0.0, math.nan, math.inf, 1e200)


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
def test_tail_bounds_and_config_reject_epsilon(epsilon):
    calls = [
        lambda: levy_tail(5, 2.0, epsilon),
        lambda: expectation_tail_bound(1.0, 3, epsilon),
        lambda: ExperimentConfig(subspace=CHAIN_SPEC, trials=5, seed=1, epsilon=epsilon),
    ]
    if epsilon != 0.0:  # distance_tail_bound keeps the epsilon -> 0 limit
        calls.append(lambda: distance_tail_bound(2, 3, 1.5, epsilon))
    for call in calls:
        with pytest.raises(ValueError, match="epsilon must be a finite positive number"):
            call()


def test_json_writer_is_strict_and_refuses_before_opening(tmp_path, capsys):
    path = tmp_path / "out.json"
    experiments.write_json({"b": [1.5, None], "a": 1}, str(path))
    assert path.read_text() == '{\n  "a": 1,\n  "b": [\n    1.5,\n    null\n  ]\n}\n'
    experiments.write_json({"a": 1}, "-")
    assert capsys.readouterr().out == '{\n  "a": 1\n}\n'
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            experiments.write_json({"a": bad}, str(tmp_path / "bad.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


@pytest.mark.parametrize("epsilon", [repr(e) for e in BAD_EPSILONS])
@pytest.mark.parametrize("command", [
    ["experiment", "--spin-chain", "6", "2", "3", "--trials", "5", "--seed", "1"],
    ["spin-chain", "--n", "6", "--k", "2", "--np", "3"],
    ["bounds", "--d-s", "4", "--d-r", "70"],
])
def test_cli_rejects_epsilon_before_any_output(tmp_path, capsys, command, epsilon):
    out = tmp_path / "out"
    assert main([*command, "--epsilon", epsilon, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert "epsilon must be a finite positive number" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 2.0, allow_subnormal=False), min_size=1, max_size=300),
    st.booleans(),
)
def test_summary_quantiles_bit_equal_to_numpy(values, ties):
    values = np.array(values)
    if ties:  # rounding makes neighbours equal, where the interpolation is degenerate
        values = np.round(values, 2)
    stats = SummaryStats.from_samples(values)
    for q, got in stats.quantiles.items():
        assert got == float(np.quantile(values, q / 100.0))
