import functools
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typicality import experiments, sampling
from typicality.bounds import distance_tail_bound, expectation_tail_bound, levy_tail
from typicality.cli import main
from typicality.experiments import (
    ExperimentConfig,
    SummaryStats,
    _split_blocks,
    _trial_block,
    exact_average_purity,
    mc_average_purity,
    purity_inequality_check,
    resolve_subspace,
    run_distance_experiment,
    run_expectation_experiment,
    summary_dict,
    write_trials_csv,
)
from typicality.linalg import BipartiteShape, partial_trace, purity
from typicality.sampling import (
    SampleStream,
    StateReducer,
    draw_coords,
    reduced_state_from_coords,
    sample_coords,
)
from typicality.spin_chain import SpinChainModel, build_subspace
from typicality.subspace import (
    canonical_ensemble,
    from_basis_vectors,
    full_space,
    random_subspace,
)
from typicality.weyl import coefficients, weyl_basis

CHAIN_SPEC = {"kind": "spin-chain", "n": 3, "k": 1, "num_excited": 1}


def test_config_validation_and_hash():
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=10, seed=1)
    assert cfg.config_hash() == ExperimentConfig(subspace=CHAIN_SPEC, trials=10, seed=1).config_hash()
    other = ExperimentConfig(subspace=CHAIN_SPEC, trials=11, seed=1)
    assert cfg.config_hash() != other.config_hash()
    with pytest.raises(ValueError):
        ExperimentConfig(subspace=CHAIN_SPEC, trials=0, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(subspace=CHAIN_SPEC, trials=1, seed=-2)


def test_resolve_subspace_kinds(tmp_path):
    sub = resolve_subspace(CHAIN_SPEC)
    assert sub.dim_subspace == 3
    full = resolve_subspace({"kind": "full", "dim_system": 2, "dim_environment": 2})
    assert full.dim_subspace == 4
    path = tmp_path / "sub.json"
    sub_small = random_subspace(BipartiteShape(2, 2), 2, np.random.default_rng(3))
    sub_small.save(path)
    loaded = resolve_subspace({"kind": "file", "path": str(path)})
    assert loaded.dim_subspace == 2
    with pytest.raises(ValueError):
        resolve_subspace({"kind": "nope"})


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
    recomputed = filtered_distance_tail_bound(
        info["filter_support_dim"],
        info["filtered_effective_env_dim"],
        info["dim_subspace"],
        info["filter_miss_weight"],
        suggested_epsilon(info["dim_subspace"]),
    )
    assert row.threshold == pytest.approx(recomputed.threshold, rel=1e-12)
    assert row.formula_value == pytest.approx(recomputed.tail_bound, rel=1e-12)


def test_filter_from_file_matches_inline_spec(tmp_path):
    from typicality.filtering import save_filter
    from typicality.spin_chain import typical_projector, typical_window

    model = SpinChainModel(n=4, k=2, num_excited=2)
    filt = typical_projector(model, typical_window(model, 1.0))
    path = tmp_path / "filter.json"
    save_filter(filt, path)
    spec = {"kind": "spin-chain", "n": 4, "k": 2, "num_excited": 2}
    inline = run_distance_experiment(ExperimentConfig(
        subspace=spec, trials=100, seed=5,
        filter={"kind": "typical-window", "half_width": 1.0},
    ))
    from_file = run_distance_experiment(ExperimentConfig(
        subspace=spec, trials=100, seed=5,
        filter={"kind": "file", "path": str(path)},
    ))
    assert inline.subspace_info["filter_miss_weight"] == pytest.approx(
        from_file.subspace_info["filter_miss_weight"], abs=1e-14
    )
    assert np.array_equal(inline.distances, from_file.distances)


def test_experiment_deterministic_across_workers():
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


def test_split_blocks_caps_blocks_at_cpu_count(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    blocks = _split_blocks(10**6, 10_000)
    assert blocks == [(0, 250_000), (250_000, 250_000), (500_000, 250_000), (750_000, 250_000)]
    assert _split_blocks(3, 10_000) == [(0, 1), (1, 1), (2, 1)]
    assert _split_blocks(10, 3) == [(0, 4), (4, 3), (7, 3)]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert _split_blocks(10, 8) == [(0, 10)]


def test_monte_carlo_runs_share_trial_records():
    z = np.diag([1.0, -1.0]).astype(complex)
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=300, seed=41, epsilon=0.3)
    distance_run = run_distance_experiment(cfg)
    purities = distance_run.purities
    assert mc_average_purity(resolve_subspace(CHAIN_SPEC), trials=300, seed=41) == (
        float(purities.mean()),
        float(purities.std(ddof=1) / np.sqrt(300)),
    )
    expectation_run = run_expectation_experiment(cfg, [z])
    assert expectation_run.family_stats == SummaryStats.from_samples(
        distance_run.max_coeff_devs, [0.3]
    )


def test_trial_values_match_direct_sampling():
    # records are exactly the per-stream samples, independent of harness
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=20, seed=23)
    result = run_distance_experiment(cfg)
    sub = resolve_subspace(CHAIN_SPEC)
    omega = canonical_ensemble(sub).system_state
    for i in (0, 7, 19):
        coords = sample_coords(3, SampleStream(23, i))
        rho = reduced_state_from_coords(sub, coords)
        expected = float(np.sum(np.abs(np.linalg.eigvalsh(rho - omega))))
        assert result.distances[i] == expected


def test_expectation_experiment():
    z = np.diag([1.0, -1.0]).astype(complex)
    cfg = ExperimentConfig(subspace=CHAIN_SPEC, trials=10_000, seed=29)
    result = run_expectation_experiment(cfg, [np.eye(2, dtype=complex), z])
    # identity deviations vanish
    assert result.observable_stats[0].maximum < 1e-12
    # <Tr(Z rho)> approaches Tr(Z Omega) = 1/3
    assert result.observable_targets[1] == pytest.approx(1 / 3, abs=1e-12)
    se = result.observable_stats[1].stddev / np.sqrt(10_000)
    assert abs(result.observable_means[1] - 1 / 3) < 5 * se
    assert result.family_stats is not None
    assert result.family_bound.satisfied


def test_expectation_deviation_shrinks_with_subspace_dimension():
    z = np.diag([1.0, -1.0]).astype(complex)
    spreads = []
    for n in (6, 8, 10):
        cfg = ExperimentConfig(
            subspace={"kind": "spin-chain", "n": n, "k": 1, "num_excited": n // 2},
            trials=2000,
            seed=31,
        )
        result = run_expectation_experiment(cfg, [z])
        spreads.append(result.observable_stats[0].stddev)
    assert spreads[0] > spreads[1] > spreads[2]


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

    payload = summary_dict(result)
    assert payload["schema_version"] == 1
    assert payload["seed"] == 2
    assert payload["config"]["trials"] == 5
    assert payload["config_hash"] == cfg.config_hash()
    json.dumps(payload)  # serializable
    assert len(payload["bounds"]) >= 4


# -- the chunked trial kernel ------------------------------------------------

#: Chains with d_S = 2, 4, 8, 16, then a dense 5-dimensional subspace of 3 x 4.
KERNEL_CASES = ((6, 1, 3), (6, 2, 3), (7, 3, 3), (8, 4, 4), "dense")


@functools.cache
def _kernel_case(name):
    """(subspace, mean state, Weyl basis, two random Hermitian observables)."""
    rng = np.random.default_rng(12)
    if name == "dense":
        sub = random_subspace(BipartiteShape(3, 4), 5, rng)
    else:
        sub = build_subspace(SpinChainModel(*name))
    d_s = sub.shape.dim_system
    g = rng.standard_normal((2, d_s, d_s)) + 1j * rng.standard_normal((2, d_s, d_s))
    observables = g + g.conj().transpose(0, 2, 1)
    return sub, canonical_ensemble(sub).system_state, weyl_basis(d_s), observables


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(KERNEL_CASES),
    seed=st.integers(0, 2**32),
    start=st.integers(0, 10**6),
    count=st.integers(1, 150),
    with_mean=st.booleans(),
)
def test_trial_block_matches_per_trial_evaluation(case, seed, start, count, with_mean):
    sub, omega, ops, observables = _kernel_case(case)
    mean_state = omega if with_mean else None
    rows = _trial_block(sub, mean_state, ops.conj(), observables, seed, start, count)
    assert rows.shape == (count, 5)
    for i, row in enumerate(rows):
        coords = sample_coords(sub.dim_subspace, SampleStream(seed, start + i))
        rho = reduced_state_from_coords(sub, coords)
        assert row[1] == purity(rho)
        expected_obs = np.einsum("oab,ba->o", observables, rho).real
        np.testing.assert_allclose(row[3:], expected_obs, rtol=0, atol=1e-14)
        if mean_state is None:
            assert np.isnan(row[0]) and np.isnan(row[2])
            continue
        diff = rho - mean_state
        assert row[0] == float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        assert abs(row[2] - np.max(np.abs(coefficients(ops, diff)))) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(KERNEL_CASES),
    seed=st.integers(0, 2**32),
    count=st.integers(1, 200),
    data=st.data(),
)
def test_trial_block_is_independent_of_the_split(case, seed, count, data):
    sub, omega, ops, observables = _kernel_case(case)
    args = (sub, omega, ops.conj(), observables, seed)
    edges = sorted({0, count, *data.draw(st.lists(st.integers(0, count), max_size=4))})
    pieces = [_trial_block(*args, lo, hi - lo) for lo, hi in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(pieces), _trial_block(*args, 0, count))


@pytest.mark.parametrize("chunk, chunk_bytes", [(1, 1 << 20), (7, 1 << 20), (64, 4096 * 5)])
def test_trial_block_records_do_not_depend_on_chunk_size(monkeypatch, chunk, chunk_bytes):
    sub, omega, ops, observables = _kernel_case((8, 4, 4))
    args = (sub, omega, ops.conj(), observables, 9, 3, 150)
    default = _trial_block(*args)
    monkeypatch.setattr(experiments, "_CHUNK", chunk)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", chunk_bytes)
    assert np.array_equal(_trial_block(*args), default)


@pytest.mark.parametrize("case", [(6, 2, 3), "dense"])
def test_trial_block_redraws_short_rows_like_draw_coords(monkeypatch, case):
    # at a threshold of sqrt(2 d_R), about the median norm, half the rows redraw
    sub, omega, ops, observables = _kernel_case(case)
    d_r = sub.dim_subspace
    monkeypatch.setattr(sampling, "_RESAMPLE_NORM", np.sqrt(2.0 * d_r))
    monkeypatch.setattr(experiments, "_CHUNK", 7)
    seed, start, count = 11, 5, 40
    rows = _trial_block(sub, omega, ops.conj(), observables, seed, start, count)
    redrawn = 0
    for i, row in enumerate(rows):
        first = SampleStream(seed, start + i).rng().standard_normal((2, d_r))
        redrawn += np.linalg.norm(first[0] + 1j * first[1]) <= sampling._RESAMPLE_NORM
        coords = draw_coords(SampleStream(seed, start + i).rng(), d_r)
        rho = reduced_state_from_coords(sub, coords)
        assert row[1] == purity(rho)
        assert row[0] == float(np.sum(np.abs(np.linalg.eigvalsh(rho - omega))))
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
    d_s = sub.shape.dim_system
    n_coeffs = d_s * d_s if d_s <= experiments._COEFF_TRACK_MAX_DIM else 0
    chunk, *buffers = experiments._chunk_buffers(sub, n_coeffs)
    arrays = [b.work if isinstance(b, StateReducer) else b for b in buffers]
    assert all(chunk in a.shape[:2] for a in arrays)
    assert sum(a.nbytes for a in arrays) <= experiments._CHUNK_BYTES or chunk == 1
    if name == "chain 8 2 4":
        assert chunk == experiments._CHUNK
    if kind == "full":
        assert chunk == 1


@pytest.mark.parametrize("seed, start, count", [
    (7, 2**32 - 3, 6),  # seeded a chunk at a time, then through SampleStream
    (2**32, 0, 70),  # a two-word seed: SampleStream for every trial
    (2**32 - 1, 2**32 - 70, 70),
])
def test_trial_block_matches_sample_streams_across_the_word_boundary(seed, start, count):
    sub, omega, ops, observables = _kernel_case((6, 2, 3))
    rows = _trial_block(sub, omega, ops.conj(), observables, seed, start, count)
    for i, row in enumerate(rows):
        rho = reduced_state_from_coords(
            sub, sample_coords(sub.dim_subspace, SampleStream(seed, start + i))
        )
        assert row[1] == purity(rho)
        assert row[0] == float(np.sum(np.abs(np.linalg.eigvalsh(rho - omega))))


def test_trial_block_seeds_below_two_to_the_32_without_sample_streams(monkeypatch):
    def refuse(self):
        raise AssertionError(f"per-trial generator built for {self}")

    monkeypatch.setattr(SampleStream, "rng", refuse)
    sub, omega, ops, observables = _kernel_case((6, 2, 3))
    args = (sub, omega, ops.conj(), observables)
    assert np.isfinite(_trial_block(*args, 2**32 - 1, 0, 150)[:, :3]).all()
    assert np.isfinite(_trial_block(*args, 0, 2**32 - 150, 150)[:, :3]).all()
    with pytest.raises(AssertionError, match="per-trial generator"):
        _trial_block(*args, 2**32, 0, 1)


def test_benchmark_trace_targets_exist(monkeypatch):
    # the benchmark's traced run patches these attributes by name
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("benchmark_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for owner, attr, _name, _peak in child._command_targets():
        assert attr in owner.__dict__, (owner, attr)


BAD_EPSILONS = (-1.0, 0.0, math.nan, math.inf)


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
