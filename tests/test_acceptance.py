"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (each test name is the
criterion) or ``-s`` to see the printed summary values.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    coefficient_identity_gap,
    exact_canonical_state,
    filtered_env_purity,
    hs_norm,
    lipschitz_distance_report,
    lipschitz_expectation_report,
    max_coefficient_deviation,
    miss_weight_by_enumeration,
    operator_norm,
    purity_inequality_check,
    random_hermitian,
)
from typicality.cli import main as cli_main
from typicality.experiments import (
    ExperimentConfig,
    exact_average_purity,
    mc_average_purity,
    run_distance_experiment,
)
from typicality.filtering import apply_filter
from typicality.linalg import BipartiteShape, trace_norm
from typicality.spin_chain import (
    SpinChainModel,
    build_subspace,
    exact_typical_tail,
    excitation_states,
    spin_chain_report,
    typical_dim_bound,
    typical_miss_bound,
    typical_projector,
    typical_window,
    window_dim,
    binomial_entropy_bounds,
)
from typicality.subspace import canonical_ensemble, full_space, random_subspace
from typicality.weyl import weyl_basis


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_exact_average_purity_full_space():
    start = time.monotonic()
    sub = full_space(BipartiteShape(2, 2))
    exact = exact_average_purity(sub)
    assert abs(exact - 0.8) < 1e-10
    mean, se = mc_average_purity(sub, trials=20_000, seed=101)
    assert abs(mean - exact) <= 3 * se
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("C1", f"exact 0.8, MC {mean:.5f} +- {se:.5f}, {elapsed:.1f}s")


def test_criterion_02_purity_inequality_random_subspaces():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst_gap = -np.inf
    for _ in range(50):
        d_s = int(rng.integers(1, 5))
        d_e = int(rng.integers(1, 7))
        d_r = int(rng.integers(1, min(12, d_s * d_e) + 1))
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, rng)
        lhs, rhs = purity_inequality_check(sub)
        assert lhs <= rhs + 1e-10
        worst_gap = max(worst_gap, lhs - rhs)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report("C2", f"50 subspaces, worst lhs-rhs {worst_gap:.3e}, {elapsed:.1f}s")


def test_criterion_03_average_distance_bound_spin_chain():
    start = time.monotonic()
    cfg = ExperimentConfig(
        subspace={"kind": "spin-chain", "n": 8, "k": 2, "num_excited": 4},
        trials=10_000,
        seed=303,
    )
    result = run_distance_experiment(cfg)
    mean = result.distance_stats.mean
    loose = math.sqrt(16 / 70)
    sharp = math.sqrt(4 / result.subspace_info["effective_env_dim"])
    assert mean <= loose
    assert mean <= sharp
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report("C3", f"mean {mean:.4f} <= {sharp:.4f} <= {loose:.4f}, {elapsed:.1f}s")


def test_criterion_04_mean_state_convergence(draw_states):
    sizes = (100, 1000, 10_000)
    details = []
    for n, k, np_ in ((3, 1, 1), (8, 2, 4)):
        sub = build_subspace(SpinChainModel(n=n, k=k, num_excited=np_))
        omega = canonical_ensemble(sub).system_state
        distances = np.zeros(len(sizes))
        for seed in range(5):
            _, rhos = draw_states(sub, 400 + seed, 0, sizes[-1])
            for level, size in enumerate(sizes):
                distances[level] += trace_norm(rhos[:size].sum(axis=0) / size - omega)
        distances /= 5
        assert distances[0] > distances[1] > distances[2]
        details.append("->".join(f"{d:.4f}" for d in distances))
    report("C4", f"3-spin {details[0]}, 8-spin {details[1]} (5 seeds)")


def test_criterion_05_concentration_trend(draw_states):
    spreads = []
    for n in (6, 8, 10, 12):
        model = SpinChainModel(n=n, k=1, num_excited=n // 2)
        sub = build_subspace(model, cap=4096)
        omega = canonical_ensemble(sub).system_state
        level = 0.0
        for seed in range(5):
            _, rhos = draw_states(sub, 500 + seed, 0, 4000)
            samples = np.abs(np.linalg.eigvalsh(rhos - omega)).sum(axis=1)
            level += samples.std(ddof=1)
        spreads.append(level / 5)
    assert all(a > b for a, b in zip(spreads, spreads[1:]))
    report("C5", "stddev " + " > ".join(f"{s:.4f}" for s in spreads))


def test_criterion_06_hypergeometric_canonical_state():
    m3 = SpinChainModel(n=3, k=1, num_excited=1)
    assert np.allclose(np.diag(exact_canonical_state(m3)).real, [2 / 3, 1 / 3], atol=1e-15)
    checked = 0
    worst = 0.0
    for n in range(2, 13):
        for k in range(1, min(4, n - 1) + 1):
            for np_ in range(n + 1):
                m = SpinChainModel(n=n, k=k, num_excited=np_)
                sub = build_subspace(m)
                t = sub.basis.reshape(sub.dim_subspace, m.dim_system, -1)
                oracle = np.einsum("ise,ite->st", t, t.conj()) / sub.dim_subspace
                gap = float(np.max(np.abs(oracle - exact_canonical_state(m))))
                assert gap < 1e-12
                worst = max(worst, gap)
                checked += 1
    report("C6", f"{checked} (n,k,np) cases, worst entrywise gap {worst:.2e}")


def _tail_grid():
    for k in range(1, 17):
        for num, den in ((1, 4), (1, 3), (1, 2)):
            base = den * math.ceil(2 * k / den)
            for n in (base, 2 * base):
                yield k, num / den, SpinChainModel(n=n, k=k, num_excited=n * num // den)


def test_criterion_07_typical_tail_suite():
    start = time.monotonic()
    checked = 0
    for k, p, model in _tail_grid():
        for width in range(1, k + 1):
            window = typical_window(model, float(width))
            exact = exact_typical_tail(model, window)
            assert exact <= typical_miss_bound(k, p, float(width)) + 1e-12
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("C7", f"{checked} (k,p,n,width) tails under the Chernoff cap, {elapsed:.1f}s")


def test_criterion_08_binomial_sandwich_and_dim_bound():
    for n in range(1, 21):
        for np_ in range(n + 1):
            lower, upper, exact = binomial_entropy_bounds(n, np_)
            assert lower <= exact <= upper + 1e-9
    checked = 0
    for k, p, _model in _tail_grid():
        for width in range(1, k + 1):
            bound, exact = typical_dim_bound(k, p, float(width))
            assert exact <= bound + 1e-9
            checked += 1
    report("C8", f"binomial sandwich n<=20 and {checked} window-dimension bounds")


def test_criterion_09_weyl_basis_identities():
    rng = np.random.default_rng(909)
    for dim in range(2, 9):
        ops = weyl_basis(dim)
        eye = np.eye(dim)
        gram = np.einsum("xba,yba->xy", ops.conj(), ops)
        assert np.max(np.abs(gram - dim * np.eye(dim * dim))) < 1e-10
        for u in ops:
            assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-10
        for _ in range(100):
            g1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            g2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = g1 @ g1.conj().T
            rho /= np.trace(rho).real
            sigma = g2 @ g2.conj().T
            sigma /= np.trace(sigma).real
            assert coefficient_identity_gap(ops, rho, sigma) < 1e-10
            t = trace_norm(rho - sigma)
            h = hs_norm(rho - sigma)
            dev = max_coefficient_deviation(ops, rho, sigma)
            assert t <= math.sqrt(dim) * h + 1e-10
            assert math.sqrt(dim) * h <= dim * dev + 1e-10
    report("C9", "d_S in 2..8: orthogonality, unitarity, HS identity, norm chain")


def test_criterion_10_lipschitz_suites(draw_states):
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    ens = canonical_ensemble(sub)
    # pair i: the states of indices 2i and 2i + 1
    coords, _ = draw_states(sub, 1000, 0, 20_000)
    firsts, seconds = coords[0::2], coords[1::2]
    dist_report = lipschitz_distance_report(ens, firsts, seconds)
    assert dist_report.pairs_checked == 10_000
    assert dist_report.max_ratio <= 2.0 + 1e-9
    assert dist_report.max_state_ratio <= 2.0 + 1e-9

    rng = np.random.default_rng(1010)
    worst_margin = 0.0
    for _ in range(10):
        x = random_hermitian(sub.dim_subspace, rng, scale=rng.uniform(0.5, 3.0))
        rep = lipschitz_expectation_report(x, firsts[:2000], seconds[:2000])
        assert rep.max_ratio <= 2.0 * operator_norm(x) + 1e-9
        worst_margin = max(worst_margin, rep.max_ratio / rep.bound)

    for dim in range(2, 17):
        for _ in range(70):
            m = random_hermitian(dim, rng)
            assert trace_norm(m) <= math.sqrt(dim) * hs_norm(m) + 1e-10
    report(
        "C10",
        f"distance ratio {dist_report.max_ratio:.3f}<=2, state ratio "
        f"{dist_report.max_state_ratio:.3f}<=2, expectation margin {worst_margin:.3f}<=1",
    )


def test_criterion_11_filtered_pipeline():
    # combinatorial route at k=12: the window is genuinely smaller than the
    # reachable excitation range only once n >= 2k + num_excited covers it
    model = SpinChainModel(n=24, k=12, num_excited=12)
    width = 12.0 ** (2.0 / 3.0)
    window = typical_window(model, width)
    miss_formula = exact_typical_tail(model, window)

    states = excitation_states(24, 12)
    assert states.size == model.dim_subspace
    sys_counts = np.bitwise_count((states >> 12).astype(np.uint32))
    member = (sys_counts >= window.lo) & (sys_counts <= window.hi)
    miss_enumerated = 1.0 - float(np.mean(member))
    assert abs(miss_formula - miss_enumerated) < 1e-10

    env_idx = (states & 0xFFF)[member]
    counts = np.bincount(env_idx, minlength=4096).astype(float)
    purity_enumerated = float(np.sum((counts / model.dim_subspace) ** 2))
    purity_formula = filtered_env_purity(model, window)
    assert abs(purity_formula - purity_enumerated) < 1e-14

    support = window_dim(12, window)
    filtered_eff = 1.0 / purity_formula
    assert filtered_eff >= model.dim_subspace / support - 1e-9
    # the diagonal weight removed by the window is the mean-state shift
    chernoff = typical_miss_bound(12, 0.5, width)
    assert miss_formula <= 2.0 * math.sqrt(chernoff)
    assert miss_formula <= chernoff + 1e-12

    # dense route on a small chain exercises the same invariants end to end
    small = SpinChainModel(n=6, k=2, num_excited=3)
    sub = build_subspace(small)
    w_small = typical_window(small, 1.0)
    filt = typical_projector(small, w_small)
    filtered = apply_filter(sub, filt)
    assert abs(filtered.miss_weight - miss_weight_by_enumeration(sub, filt)) < 1e-10
    shift = trace_norm(canonical_ensemble(sub).system_state - filtered.system_state)
    assert shift <= 2.0 * math.sqrt(filtered.miss_weight) + 1e-9
    assert filtered.effective_env_dim >= sub.dim_subspace / filtered.support_dim - 1e-9

    thresholds = [spin_chain_report(n, 3, n // 2).threshold for n in (8, 10, 12, 14)]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    report(
        "C11",
        f"k=12 miss {miss_formula:.3e} (two-way agree), filtered d_eff "
        f"{filtered_eff:.2f} >= {model.dim_subspace / support:.2f}, thresholds "
        + ">".join(f"{t:.3f}" for t in thresholds),
    )


def test_criterion_12_determinism_across_workers(tmp_path, capsys):
    args = ["experiment", "--spin-chain", "6", "2", "3", "--trials", "400", "--seed", "1234"]
    csvs = []
    jsons = []
    for workers, tag in ((1, "w1"), (2, "w2"), (3, "w3")):
        code = cli_main(args + ["--workers", str(workers), "--output", str(tmp_path / tag)])
        assert code == 0
        csvs.append((tmp_path / f"{tag}.csv").read_bytes())
        jsons.append((tmp_path / f"{tag}.json").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1] == csvs[2]
    assert jsons[0] == jsons[1] == jsons[2]
    rerun = cli_main(args + ["--workers", "2", "--output", str(tmp_path / "again")])
    assert rerun == 0
    capsys.readouterr()
    assert (tmp_path / "again.csv").read_bytes() == csvs[0]
    report("C12", f"{len(csvs[0])} CSV bytes identical across workers 1/2/3 and rerun")
