import io
import math

import numpy as np
import pytest

from helpers import (
    lipschitz_distance_report,
    lipschitz_expectation_report,
    random_hermitian,
    sphere_distance,
)
from typicality.bounds import (
    LEVY_CONSTANT,
    average_distance_bound,
    distance_tail_bound,
    expectation_tail_bound,
    filtered_distance_tail_bound,
    levy_tail,
    operator_basis_tail_bound,
    sqrt_ratio,
    state_sphere_dim,
    suggested_epsilon,
    write_bound_table,
)
from typicality.errors import ShapeMismatchError
from typicality.linalg import BipartiteShape
from typicality.spin_chain import SpinChainModel, build_subspace
from typicality.subspace import canonical_ensemble, full_space


def test_sqrt_ratio_keeps_the_plain_bits_and_passes_no_intermediate_overflow():
    rng = np.random.default_rng(24)
    for _ in range(20000):
        dim = int(rng.integers(1, 2**62)) << int(rng.integers(0, 960))
        divisor = math.ldexp(rng.random() + 0.5, int(rng.integers(-1074, 1024)))
        if divisor == 0.0 or math.isinf(divisor):
            continue
        try:
            plain = math.sqrt(dim / divisor)
        except OverflowError:
            plain = math.inf
        if math.isfinite(plain):
            assert sqrt_ratio(dim, divisor) == plain, (dim, divisor)
    # the quotients pass the float range, the roots do not
    assert sqrt_ratio(2, 2.0**-1070) == math.ldexp(math.sqrt(2.0), 535)
    assert sqrt_ratio(4**700, 2.0**-300) == 2.0**850
    assert sqrt_ratio(3 * 4**600, 0.75) == 2.0**601
    with pytest.raises(OverflowError):
        sqrt_ratio(4**800, 2.0**-600)


def test_levy_constant_value():
    assert LEVY_CONSTANT == pytest.approx(1.0 / (18.0 * math.pi**3), rel=1e-15)
    assert 1.79e-3 < LEVY_CONSTANT < 1.80e-3


def test_levy_reduces_to_distance_tail_at_lipschitz_two():
    # with lipschitz 2 and sphere dim 2 d_R - 1 the exponent is -C d_R eps^2
    for d_r, eps in ((70, 0.1), (924, 0.05)):
        lemma = levy_tail(state_sphere_dim(d_r), 2.0, eps)
        _, tail_form = distance_tail_bound(2, d_r, 1.0, eps)
        assert lemma == pytest.approx(tail_form, rel=1e-12)


def test_levy_worked_values():
    # desk scale is vacuous; large subspaces are not
    assert levy_tail(state_sphere_dim(70), 2.0, 0.1) == pytest.approx(
        2 * math.exp(-LEVY_CONSTANT * 70 * 0.01), rel=1e-12
    )
    big = levy_tail(state_sphere_dim(10**7), 2.0, 0.01)
    assert big == pytest.approx(2 * math.exp(-LEVY_CONSTANT * 1000.0), rel=1e-12)
    assert 0.30 < big < 0.35


def test_distance_tail_bound_worked_example():
    eps = suggested_epsilon(70)
    threshold, tail = distance_tail_bound(4, 70, 70 / 4, eps)
    assert threshold == pytest.approx(eps + math.sqrt(16 / 70), rel=1e-12)
    assert threshold == pytest.approx(0.7207, abs=5e-4)
    assert tail >= 1.0  # vacuous at desk scale


def test_distance_tail_limits():
    assert distance_tail_bound(4, 70, 1e30, 0.25)[0] == pytest.approx(0.25, abs=1e-9)
    assert distance_tail_bound(4, 70, 17.5, 0.0)[1] == pytest.approx(2.0)


def test_average_distance_bound_values():
    sharp, loose = average_distance_bound(4, 70, 70 / 4)
    assert loose == pytest.approx(math.sqrt(16 / 70), rel=1e-12)
    assert sharp <= loose + 1e-12
    sharp1, _ = average_distance_bound(1, 10, 5.0)
    assert sharp1 == pytest.approx(math.sqrt(1 / 5.0), rel=1e-12)
    sharp3, _ = average_distance_bound(2, 3, 3.0)
    assert sharp3 == pytest.approx(math.sqrt(2 / 3), rel=1e-12)


def test_filtered_bound_reduces_and_degenerates():
    eps = 0.1
    plain = distance_tail_bound(4, 70, 17.5, eps)
    filtered = filtered_distance_tail_bound(4, 17.5, 70, 0.0, eps)
    assert filtered == plain
    assert filtered[0] == pytest.approx(plain[0], rel=1e-12)
    assert filtered[1] == pytest.approx(plain[1], rel=1e-12)
    threshold, _ = filtered_distance_tail_bound(4, 17.5, 70, 1.0, eps)
    assert threshold >= 4.0
    assert threshold >= 2.0  # vacuous


def test_filtered_bound_with_spin_chain_miss_weight():
    # window half-width 6 at k=12, p=1/2 caps the miss weight at 2 e^-3
    from typicality.spin_chain import typical_miss_bound

    miss = typical_miss_bound(12, 0.5, 6.0)
    assert miss == pytest.approx(2 * math.exp(-3), rel=1e-12)
    model_d_r = math.comb(24, 12)
    eps = suggested_epsilon(model_d_r)
    threshold, _ = filtered_distance_tail_bound(4070, model_d_r / 4070, model_d_r, miss, eps)
    assert threshold == pytest.approx(
        eps + 4070 / math.sqrt(model_d_r) + 4 * math.sqrt(miss), rel=1e-12
    )


def test_expectation_tail_values():
    eps = suggested_epsilon(70)
    value = expectation_tail_bound(1.0, 70, eps)
    assert value == pytest.approx(2 * math.exp(-LEVY_CONSTANT * 70 ** (1 / 3)), rel=1e-12)
    assert expectation_tail_bound(1.0, 70, 1e-12) == pytest.approx(2.0)
    # doubling the norm quarters the exponent magnitude
    e1 = -math.log(expectation_tail_bound(1.0, 50, 0.2) / 2)
    e2 = -math.log(expectation_tail_bound(2.0, 50, 0.2) / 2)
    assert e1 == pytest.approx(4 * e2, rel=1e-12)


def test_operator_basis_tail_values():
    threshold, tail = operator_basis_tail_bound(2, 70)
    beta = (70 / 4) ** (1 / 3)
    assert threshold == pytest.approx(1 / beta, rel=1e-12)
    assert tail == pytest.approx(8 * math.exp(-LEVY_CONSTANT * beta), rel=1e-12)
    threshold_unit, _ = operator_basis_tail_bound(3, 9)
    assert threshold_unit == pytest.approx(1.0, rel=1e-12)
    tails = [operator_basis_tail_bound(2, d_r)[1] for d_r in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_bound_monotonicity_grid():
    for eps in (0.05, 0.1, 0.2):
        tails = [distance_tail_bound(2, d_r, d_r / 2, eps)[1] for d_r in (10, 100, 1000)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
    for d_r in (10, 100):
        tails = [distance_tail_bound(2, d_r, d_r / 2, e)[1] for e in (0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(tails, tails[1:]))
        thresholds = [distance_tail_bound(2, d_r, d_r / 2, e)[0] for e in (0.05, 0.1, 0.2)]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    widths = [
        filtered_distance_tail_bound(2, 5.0, 70, miss, 0.1)[0]
        for miss in (0.0, 0.01, 0.1, 0.5)
    ]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_sphere_distance_phase_alignment():
    v = np.array([1.0, 0.0], dtype=complex)
    assert sphere_distance(v, np.exp(0.7j) * v) == pytest.approx(0.0, abs=1e-12)
    w = np.array([0.0, 1.0], dtype=complex)
    assert sphere_distance(v, w) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_lipschitz_distance_report_three_spin(draw_states):
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    ens = canonical_ensemble(sub)
    coords, _ = draw_states(sub, 20, 0, 2000)  # pair i: indices 2i and 2i + 1
    report = lipschitz_distance_report(ens, coords[0::2], coords[1::2])
    assert report.pairs_checked == 1000
    assert report.max_ratio <= 2.0 + 1e-9
    assert report.max_state_ratio <= 2.0 + 1e-9
    assert report.satisfied


def test_lipschitz_identical_pair_skipped(draw_states):
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    ens = canonical_ensemble(sub)
    phi, _ = draw_states(sub, 4, 0, 1)
    report = lipschitz_distance_report(ens, phi, phi)
    assert report.pairs_checked == 0
    assert report.pairs_skipped == 1


def test_lipschitz_orthogonal_pair_state_ratio():
    # |00> and |11> have orthogonal pure marginals: marginal distance 2 over
    # sphere distance sqrt(2) gives ratio sqrt(2)
    sub = full_space(BipartiteShape(2, 2))
    ens = canonical_ensemble(sub)
    c1 = np.array([[1, 0, 0, 0]], dtype=complex)
    c2 = np.array([[0, 0, 0, 1]], dtype=complex)
    report = lipschitz_distance_report(ens, c1, c2)
    assert report.max_state_ratio == pytest.approx(math.sqrt(2), rel=1e-9)
    assert report.max_ratio == pytest.approx(0.0, abs=1e-12)


def test_lipschitz_expectation_report(draw_states):
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    coords, _ = draw_states(sub, 30, 0, 2000)
    pairs = (coords[0::2], coords[1::2])
    identity = np.eye(3, dtype=complex)
    report = lipschitz_expectation_report(identity, *pairs)
    assert report.max_ratio == pytest.approx(0.0, abs=1e-9)
    signs = np.diag([1.0, -1.0, 1.0]).astype(complex)
    report = lipschitz_expectation_report(signs, *pairs)
    assert report.max_ratio <= 2.0 + 1e-9
    scaled = lipschitz_expectation_report(3.0 * signs, *pairs)
    assert scaled.bound == pytest.approx(6.0)
    assert scaled.max_ratio == pytest.approx(3 * report.max_ratio, rel=1e-9)


def test_lipschitz_expectation_accepts_random_hermitian(draw_states):
    rng = np.random.default_rng(55)
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    coords, _ = draw_states(sub, 31, 0, 400)
    pairs = (coords[0::2], coords[1::2])
    for _ in range(5):
        x = random_hermitian(3, rng)
        report = lipschitz_expectation_report(x, *pairs)
        assert report.satisfied


def test_lipschitz_expectation_rejects_a_composite_observable(draw_states):
    sub = build_subspace(SpinChainModel(n=3, k=1, num_excited=1))
    coords, _ = draw_states(sub, 33, 0, 2)
    pair = (coords[:1], coords[1:])
    with pytest.raises(ShapeMismatchError):
        lipschitz_expectation_report(np.eye(sub.shape.dim, dtype=complex), *pair)
    compressed = sub.compress_operator(np.eye(sub.shape.dim, dtype=complex))
    assert lipschitz_expectation_report(compressed, *pair).pairs_checked == 1


def test_write_bound_table():
    threshold, tail = distance_tail_bound(2, 70, 35.0, 0.1)
    rows = [{"d_S": 2, "d_R": 70, "d_E_eff": 35.0, "epsilon": 0.1, "eta": threshold,
             "eta_prime": tail, "source_formula": "distance_tail"}]
    out = io.StringIO()
    write_bound_table(rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "d_S,d_R,d_E_eff,epsilon,eta,eta_prime,source_formula"
    assert lines[1].endswith("distance_tail")
    assert len(lines) == 2
