import math
from itertools import combinations

import numpy as np
import pytest

from typicality.errors import DimensionCapError, EmptyWindowError
from typicality.linalg import trace_norm
from typicality.spin_chain import (
    SpinChainModel,
    TypicalWindow,
    binary_entropy,
    binary_entropy_slope,
    binomial_entropy_bounds,
    build_subspace,
    canonical_purities,
    canonical_weights,
    exact_canonical_state,
    exact_typical_tail,
    excitation_states,
    filtered_env_purity,
    product_approximation,
    spin_chain_report,
    temperature,
    typical_dim_bound,
    typical_miss_bound,
    typical_projector,
    typical_window,
    window_dim,
)
from typicality.subspace import canonical_ensemble
from typicality.filtering import apply_filter


def test_model_validation():
    with pytest.raises(ValueError):
        SpinChainModel(n=3, k=3, num_excited=1)
    with pytest.raises(ValueError):
        SpinChainModel(n=3, k=1, num_excited=4)


def test_excitation_states_against_combinations():
    for n, np_ in ((3, 1), (5, 2), (6, 3)):
        states = excitation_states(n, np_)
        expected = sorted(
            sum(1 << (n - 1 - pos) for pos in chosen)
            for chosen in combinations(range(n), np_)
        )
        assert states.tolist() == expected
    with pytest.raises(DimensionCapError):
        excitation_states(30, 15)


def test_build_subspace_examples():
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    assert sub.dim_subspace == 3
    sys_idx, env_idx = sub.one_hot
    assert sys_idx.tolist() == [0, 0, 1]  # strings 001, 010, 100
    assert env_idx.tolist() == [1, 2, 0]

    single = build_subspace(SpinChainModel(n=4, k=2, num_excited=0))
    assert single.dim_subspace == 1

    assert SpinChainModel(n=8, k=2, num_excited=4).dim_subspace == 70


def test_canonical_weights_three_spins():
    m = SpinChainModel(n=3, k=1, num_excited=1)
    assert np.allclose(canonical_weights(m), [2 / 3, 1 / 3])
    state = exact_canonical_state(m)
    assert np.allclose(np.diag(state).real, [2 / 3, 1 / 3])


def test_canonical_state_n4_k2():
    m = SpinChainModel(n=4, k=2, num_excited=2)
    state = np.diag(exact_canonical_state(m)).real
    # strings 00, 01, 10, 11 get C(2, 2-|s|)/6
    assert np.allclose(state, [1 / 6, 2 / 6, 2 / 6, 1 / 6])


def test_all_excited_is_pure():
    m = SpinChainModel(n=4, k=2, num_excited=4)
    state = exact_canonical_state(m)
    assert np.allclose(state, np.diag([0, 0, 0, 1.0]))


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (8, 2)])
def test_hypergeometric_matches_partial_trace_oracle(n, k):
    for np_ in range(n + 1):
        m = SpinChainModel(n=n, k=k, num_excited=np_)
        sub = build_subspace(m)
        # dense contraction through the basis tensor, independent of the
        # closed-form weights
        t = sub.basis_tensor()
        omega = np.einsum("ise,ite->st", t, t.conj()) / sub.dim_subspace
        assert np.max(np.abs(omega - exact_canonical_state(m))) < 1e-12


def test_product_approximation_cases():
    m = SpinChainModel(n=2, k=1, num_excited=1)
    assert np.allclose(product_approximation(m), np.eye(2) / 2)
    # k=1 marginal is exactly Bernoulli(num_excited / n)
    for n in (3, 5, 9):
        m = SpinChainModel(n=n, k=1, num_excited=n // 2)
        assert trace_norm(exact_canonical_state(m) - product_approximation(m)) < 1e-12


def test_product_approximation_improves_with_chain_length():
    distances = []
    for n in (8, 16, 32):
        m = SpinChainModel(n=n, k=2, num_excited=n // 2)
        distances.append(trace_norm(exact_canonical_state(m) - product_approximation(m)))
    assert distances[0] > distances[1] > distances[2]


def test_temperature():
    assert temperature(SpinChainModel(n=4, k=1, num_excited=2)) == math.inf
    assert temperature(SpinChainModel(n=4, k=1, num_excited=0)) == 0.0
    assert temperature(SpinChainModel(n=4, k=1, num_excited=4)) == 0.0
    # p = 1/(1+e) makes ln((1-p)/p) = 1
    n = 1000
    np_ = round(n / (1 + math.e))
    m = SpinChainModel(n=n, k=1, num_excited=np_, field=2.5)
    p = np_ / n
    assert temperature(m) == pytest.approx(2.5 / math.log((1 - p) / p), rel=1e-12)
    # inverted population: negative temperature
    assert temperature(SpinChainModel(n=4, k=1, num_excited=3)) < 0


def test_boltzmann_form_of_product_weights():
    m = SpinChainModel(n=12, k=3, num_excited=3, field=1.7)
    p = m.excitation_fraction
    t = temperature(m)
    weights = np.diag(product_approximation(m)).real
    strings = np.arange(m.dim_system, dtype=np.uint32)
    counts = np.bitwise_count(strings).astype(float)
    boltzmann = (1 - p) ** m.k * np.exp(-counts * m.field / t)
    assert np.allclose(weights, boltzmann, atol=1e-12)
    ratio = (1 - p) ** m.k * (p / (1 - p)) ** counts
    assert np.allclose(weights, ratio, atol=1e-12)


def test_typical_window_edges():
    m = SpinChainModel(n=4, k=2, num_excited=2)
    w = typical_window(m, 0.0)  # center k p = 1 is an integer
    assert (w.lo, w.hi) == (1, 1)
    assert window_dim(2, w) == 2
    with pytest.raises(EmptyWindowError):
        typical_window(SpinChainModel(n=3, k=1, num_excited=1), 0.0)  # center 1/3
    full = typical_window(m, m.k)
    assert (full.lo, full.hi) == (0, 2)


@pytest.mark.parametrize("half_width", [float("nan"), float("inf"), -1.0])
def test_window_half_width_must_be_finite_and_non_negative(half_width):
    with pytest.raises(EmptyWindowError, match="finite and non-negative"):
        typical_window(SpinChainModel(n=8, k=2, num_excited=4), half_width)
    with pytest.raises(EmptyWindowError, match="finite and non-negative"):
        typical_dim_bound(2, 0.5, half_width)


def test_shell_sums_match_direct_binomial_loops():
    # the environment sums run over environment excitation counts w_E; the
    # code sums the same integers over system counts j = num_excited - w_E
    for n in range(2, 11):
        for k in range(1, n):
            for num in range(n + 1):
                m = SpinChainModel(n=n, k=k, num_excited=num)
                env_num = sum(
                    math.comb(n - k, we) * math.comb(k, num - we) ** 2
                    for we in range(n - k + 1) if 0 <= num - we <= k
                )
                assert canonical_purities(m)[1] == env_num / m.dim_subspace**2
                w = TypicalWindow(1.0, 0, k // 2)
                filtered = sum(
                    math.comb(n - k, we) * math.comb(k, num - we) ** 2
                    for we in range(n - k + 1) if 0 <= num - we <= k and w.contains(num - we)
                )
                assert filtered_env_purity(m, w) == filtered / m.dim_subspace**2


def test_typical_projector_full_window_has_zero_miss():
    m = SpinChainModel(n=4, k=2, num_excited=2)
    sub = build_subspace(m)
    filtered = apply_filter(sub, typical_projector(m, typical_window(m, m.k)))
    assert filtered.miss_weight == pytest.approx(0.0, abs=1e-12)
    assert filtered.support_dim == 4


def test_window_dim_k12():
    m = SpinChainModel(n=24, k=12, num_excited=12)
    w = typical_window(m, 4.0)
    assert (w.lo, w.hi) == (2, 10)
    assert window_dim(12, w) == 4070


def test_miss_bound_values():
    assert typical_miss_bound(16, 0.5, 8.0) == pytest.approx(2 * math.exp(-4), rel=1e-12)
    assert typical_miss_bound(16, 0.5, 1000.0) < 1e-200
    m = SpinChainModel(n=24, k=12, num_excited=12)
    w = typical_window(m, 6.0)
    exact = exact_typical_tail(m, w)
    assert exact <= 2 * math.exp(-3) + 1e-12


@pytest.mark.parametrize("p_num,p_den", [(1, 4), (1, 3), (1, 2)])
def test_chernoff_dominates_exact_tail(p_num, p_den):
    # subset of the acceptance grid
    for k in (2, 5, 8):
        n = p_den * math.ceil(2 * k / p_den)
        m = SpinChainModel(n=n, k=k, num_excited=n * p_num // p_den)
        for width in range(1, k + 1):
            w = typical_window(m, float(width))
            assert exact_typical_tail(m, w) <= typical_miss_bound(
                k, p_num / p_den, float(width)
            ) + 1e-12


def test_binomial_entropy_bounds_examples():
    lower, upper, exact = binomial_entropy_bounds(4, 2)
    assert (lower, upper, exact) == (pytest.approx(3.2), pytest.approx(16.0), 6)
    for n in (3, 7, 12):
        lower, upper, exact = binomial_entropy_bounds(n, 0)
        assert (lower, upper, exact) == (pytest.approx(1 / (n + 1)), pytest.approx(1.0), 1)
    for n in range(1, 21):
        for np_ in range(n + 1):
            lower, upper, exact = binomial_entropy_bounds(n, np_)
            assert lower <= exact <= upper + 1e-9


def test_typical_dim_bound():
    bound, exact = typical_dim_bound(12, 0.5, 4.0)
    assert bound == pytest.approx(9 * 4096.0, rel=1e-12)
    assert exact == 4070
    bound, exact = typical_dim_bound(9, 1 / 3, 3.0)
    assert exact <= bound
    for k in (3, 6, 10):
        for p in (0.25, 1 / 3, 0.5):
            for width in (0.7, 1.5, 3.0):
                bound, exact = typical_dim_bound(k, p, width)
                assert exact <= bound + 1e-9


def test_entropy_helpers():
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy_slope(0.5) == pytest.approx(0.0)
    assert binary_entropy_slope(0.25) == pytest.approx(math.log2(3), rel=1e-12)


def test_loose_bound_entropy_form():
    # sqrt(d_S^2 / d_R) <= sqrt(n+1) 2^(-(n H(p) - 2k)/2)
    for n, k in ((8, 2), (12, 3), (16, 4)):
        m = SpinChainModel(n=n, k=k, num_excited=n // 2)
        loose = math.sqrt(m.dim_system**2 / m.dim_subspace)
        cap = math.sqrt(n + 1) * 2 ** (-(n * binary_entropy(0.5) - 2 * k) / 2)
        assert loose <= cap + 1e-12


def test_combinatorial_purities_match_dense():
    for n, k, np_ in ((5, 2, 2), (6, 3, 3), (8, 2, 4)):
        m = SpinChainModel(n=n, k=k, num_excited=np_)
        ens = canonical_ensemble(build_subspace(m))
        sys_p, env_p = canonical_purities(m)
        assert sys_p == pytest.approx(ens.system_purity, abs=1e-12)
        assert env_p == pytest.approx(ens.environment_purity, abs=1e-12)


def test_filtered_env_purity_matches_dense():
    for n, k, np_, width in ((5, 2, 2, 0.6), (6, 3, 3, 1.0), (6, 2, 3, 0.5)):
        m = SpinChainModel(n=n, k=k, num_excited=np_)
        sub = build_subspace(m)
        w = typical_window(m, width)
        filtered = apply_filter(sub, typical_projector(m, w))
        assert filtered_env_purity(m, w) == pytest.approx(
            filtered.environment_purity, abs=1e-12
        )


def test_report_reduces_when_window_is_full():
    rep = spin_chain_report(8, 2, 4, half_width=2.0)
    assert rep.miss_bound == 0.0
    assert rep.support_dim == 4
    m = SpinChainModel(n=8, k=2, num_excited=4)
    expected = rep.epsilon + math.sqrt(m.dim_system**2 / m.dim_subspace)
    assert rep.threshold == pytest.approx(expected, rel=1e-12)


def test_report_monotone_in_chain_length():
    thresholds = [spin_chain_report(n, 3, n // 2).threshold for n in (8, 10, 12, 14)]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    asym = [spin_chain_report(n, 3, n // 2).threshold_asymptotic for n in (8, 10, 12, 14)]
    assert all(a > b for a, b in zip(asym, asym[1:]))


def test_report_defaults():
    rep = spin_chain_report(12, 3, 6)
    assert rep.half_width == pytest.approx(3 ** (2 / 3))
    assert rep.epsilon == pytest.approx(SpinChainModel(12, 3, 6).dim_subspace ** (-1 / 3))
    assert math.isfinite(rep.threshold)
    assert math.isfinite(rep.tail_bound)
    assert rep.env_dim_floor == pytest.approx(rep.dim_subspace / rep.support_dim)
