import tracemalloc

import numpy as np
import pytest

from helpers import (
    filtered_state,
    miss_weight_by_enumeration,
    omega_shift_check,
    partial_trace,
    perturbation_bound_check,
    support_dim_two_pass,
)
from typicality.errors import (
    EmptyWindowError,
    HermiticityError,
    OperatorRangeError,
    ShapeMismatchError,
)
from typicality.experiments import resolve_filter, resolve_subspace
from typicality.filtering import MeasurementFilter, apply_filter
from typicality.linalg import BipartiteShape, purity
from typicality.spin_chain import (
    SpinChainModel,
    build_subspace,
    exact_typical_tail,
    typical_projector,
    typical_window,
)
from typicality.subspace import (
    ConstraintSubspace,
    canonical_ensemble,
    from_basis_vectors,
    random_subspace,
)

CHAIN = SpinChainModel(n=3, k=1, num_excited=1)


def identity_filter(sub) -> MeasurementFilter:
    """The composite identity, compressed to the coordinates of ``sub``."""
    return MeasurementFilter(sub.compress_operator(np.eye(sub.shape.dim, dtype=complex)))


def test_filter_construction_validation():
    with pytest.raises(OperatorRangeError):
        MeasurementFilter(1.5 * np.eye(4, dtype=complex))
    with pytest.raises(OperatorRangeError):
        MeasurementFilter(-0.1 * np.eye(4, dtype=complex))
    with pytest.raises(ShapeMismatchError):
        MeasurementFilter(np.eye(4, dtype=complex)[:3])
    with pytest.raises(ShapeMismatchError):
        MeasurementFilter(np.zeros((0, 0), dtype=complex))


def test_diagonal_filter_construction_validation():
    with pytest.raises(HermiticityError):
        MeasurementFilter(np.array([1.0, 1e-3j]))
    with pytest.raises(OperatorRangeError):
        MeasurementFilter(np.array([1.0, 1.5]))
    with pytest.raises(OperatorRangeError):
        MeasurementFilter(np.array([-0.1, 1.0]))
    with pytest.raises(ShapeMismatchError):
        MeasurementFilter(np.ones((2, 2, 2), dtype=complex))
    with pytest.raises(ShapeMismatchError):
        MeasurementFilter([])


@pytest.mark.parametrize("entries", [
    np.array([0.5, np.nan]),
    np.array([np.inf, 0.5]),
    np.diag([0.5, np.nan]),
    np.diag([0.5, np.inf]),
    np.full((2, 2), np.inf),
])
def test_filter_refuses_non_finite_entries(entries):
    # refused before the skew of an inf matrix raises a RuntimeWarning
    with pytest.raises(OperatorRangeError, match="must be finite"):
        MeasurementFilter(entries)


def test_apply_filter_rejects_diagonal_of_wrong_length():
    sub = build_subspace(CHAIN)
    wrong = MeasurementFilter(np.ones(sub.dim_subspace + 1, dtype=complex))
    with pytest.raises(ShapeMismatchError):
        apply_filter(sub, wrong)


def composite_window_projector(m: SpinChainModel, w) -> MeasurementFilter:
    """P_S (x) 1_E, P_S the window projector on system strings, compressed to the shell."""
    counts = np.bitwise_count(np.arange(m.dim_system))
    p_s = np.diag(((counts >= w.lo) & (counts <= w.hi)).astype(complex))
    return MeasurementFilter(
        build_subspace(m).compress_operator(np.kron(p_s, np.eye(m.dim_environment)))
    )


@pytest.mark.parametrize("n,k,num_excited,xi", [
    (4, 2, 2, 0.5), (6, 2, 3, 0.5), (6, 3, 3, 1.0), (7, 3, 3, 1.0), (8, 3, 4, 1.0),
    (8, 2, 4, 2.0), (4, 3, 1, 1.5), (5, 3, 1, 0.6), (6, 4, 2, 2.0),
])
def test_window_diagonal_matches_composite_reference(n, k, num_excited, xi):
    m = SpinChainModel(n=n, k=k, num_excited=num_excited)
    sub = build_subspace(m)
    w = typical_window(m, xi)
    diag, ref = typical_projector(m, w), composite_window_projector(m, w)
    assert diag.matrix.shape == (sub.dim_subspace,)
    assert ref.matrix.shape == (sub.dim_subspace,) * 2
    a, b = apply_filter(sub, diag), apply_filter(sub, ref)
    assert a.miss_weight == pytest.approx(b.miss_weight, rel=0, abs=1e-12)
    assert miss_weight_by_enumeration(sub, diag) == pytest.approx(b.miss_weight, rel=0, abs=1e-12)
    assert np.allclose(a.system_state, b.system_state, rtol=0, atol=1e-12)
    assert a.environment_purity == pytest.approx(b.environment_purity, rel=0, abs=1e-12)
    assert a.support_dim == b.support_dim


def test_window_support_counts_only_shell_strings():
    # The window [0, 2] holds 7 system strings of (4,3,1), but with a single
    # excitation no shell string has system count 2: the compressed P_S (x) 1_E
    # and the diagonal both keep 4.
    m = SpinChainModel(n=4, k=3, num_excited=1)
    w = typical_window(m, 1.5)
    assert (w.lo, w.hi) == (0, 2)
    sub = build_subspace(m)
    assert apply_filter(sub, composite_window_projector(m, w)).support_dim == 4
    assert apply_filter(sub, typical_projector(m, w)).support_dim == 4


def test_window_filter_builds_no_square_matrix():
    spec = {"kind": "spin-chain", "n": 9, "k": 3, "num_excited": 4}
    sub = resolve_subspace(spec)
    tracemalloc.start()
    try:
        apply_filter(sub, resolve_filter({"kind": "typical-window", "half_width": 1.0}, spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20  # a 512 x 512 complex projector alone is 4 MiB


def test_identity_filter_reduces_to_unfiltered():
    sub = build_subspace(CHAIN)
    ens = canonical_ensemble(sub)
    filtered = apply_filter(sub, identity_filter(sub))
    assert filtered.miss_weight == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(filtered.system_state, ens.system_state, atol=1e-12)
    assert filtered.environment_purity == pytest.approx(ens.environment_purity, abs=1e-12)
    assert filtered.effective_env_dim == pytest.approx(ens.effective_env_dim, rel=1e-12)
    lhs, rhs = omega_shift_check(ens, filtered)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-9)


def test_zero_filter_is_degenerate_not_rejected():
    sub = build_subspace(CHAIN)
    zero = MeasurementFilter(sub.compress_operator(np.zeros((8, 8), dtype=complex)))
    filtered = apply_filter(sub, zero)
    assert filtered.degenerate
    assert filtered.miss_weight == pytest.approx(1.0)


def test_typical_projector_on_three_spin_chain():
    sub = build_subspace(CHAIN)
    window = typical_window(CHAIN, 0.5)  # keeps only zero-excitation system strings
    filt = typical_projector(CHAIN, window)
    filtered = apply_filter(sub, filt)
    assert filtered.support_dim == 1
    exact_tail = exact_typical_tail(CHAIN, window)
    assert filtered.miss_weight == pytest.approx(exact_tail, abs=1e-12)
    assert filtered.miss_weight == pytest.approx(1 / 3, abs=1e-12)
    # two routes to the miss weight agree
    assert miss_weight_by_enumeration(sub, filt) == pytest.approx(
        filtered.miss_weight, abs=1e-10
    )
    assert filtered.effective_env_dim >= sub.dim_subspace / filtered.support_dim - 1e-9


def test_subspace_coordinate_filter_equals_composite_route():
    rng = np.random.default_rng(14)
    sub = random_subspace(BipartiteShape(2, 3), 4, rng)
    # random effect on the composite space
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = g @ g.conj().T
    x = h / (np.linalg.eigvalsh(h).max() + 1e-9)
    filtered = apply_filter(sub, MeasurementFilter(sub.compress_operator(x)))
    # reference on the composite space: the filtered state P_R X P_R / d_R
    p_r = sub.basis.T @ sub.basis.conj()
    state = p_r @ x @ p_r / sub.dim_subspace
    reduced = partial_trace(state, sub.shape, "system")
    assert filtered.miss_weight == pytest.approx(1.0 - np.trace(state).real, abs=1e-12)
    assert np.allclose(filtered.system_state, reduced, atol=1e-12)
    assert filtered.environment_purity == pytest.approx(
        purity(partial_trace(state, sub.shape, "environment")), abs=1e-12
    )
    traced_x = reduced * sub.dim_subspace
    assert filtered.support_dim == int(np.sum(np.linalg.eigvalsh(traced_x) > 1e-8))
    assert filtered.effective_env_dim >= sub.dim_subspace / filtered.support_dim - 1e-9


@pytest.mark.parametrize("n,k,num_excited,xi", [(6, 2, 3, 0.5), (7, 3, 3, 1.0), (8, 3, 4, 1.0)])
def test_window_filter_index_form_matches_dense_form(n, k, num_excited, xi):
    # the diagonal window projector takes the index-count route on the chain
    # and the einsum route on the same basis held densely
    m = SpinChainModel(n=n, k=k, num_excited=num_excited)
    sub = build_subspace(m)
    dense = from_basis_vectors(sub.shape, sub.basis)
    f = typical_projector(m, typical_window(m, xi))
    a = apply_filter(sub, f)
    b = apply_filter(dense, f)
    assert np.allclose(a.system_state, b.system_state, rtol=0, atol=1e-12)
    assert a.environment_purity == pytest.approx(b.environment_purity, rel=0, abs=1e-12)
    assert a.miss_weight == pytest.approx(b.miss_weight, rel=0, abs=1e-12)
    assert a.support_dim == b.support_dim


def test_filtered_state_routes(draw_states):
    sub = build_subspace(CHAIN)
    (phi,), _ = draw_states(sub, 3, 1, 1)
    ident = filtered_state(sub, phi, identity_filter(sub))
    assert np.allclose(ident, sub.embed(phi), atol=1e-12)

    window = typical_window(CHAIN, 0.5)
    filt = typical_projector(CHAIN, window)
    # a state supported entirely on the excited system string is annihilated
    coords = np.array([0.0, 0.0, 1.0], dtype=complex)  # string 100, last in order
    assert np.linalg.norm(filtered_state(sub, coords, filt)) == pytest.approx(0.0, abs=1e-12)

    x_sub = filt.matrix
    for phi in draw_states(sub, 9, 0, 20)[0]:
        tilde = filtered_state(sub, phi, filt)
        quad = float(np.vdot(phi, x_sub * phi).real)
        assert np.linalg.norm(tilde) ** 2 == pytest.approx(quad, abs=1e-10)
        assert quad <= 1.0 + 1e-10


def test_perturbation_bound_identity_and_random_projectors(draw_states):
    sub = build_subspace(CHAIN)
    phi, _ = draw_states(sub, 5, 0, 1)
    (lhs,), (rhs,) = perturbation_bound_check(sub, phi, identity_filter(sub))
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-6)

    rng = np.random.default_rng(23)
    ens = canonical_ensemble(sub)
    for trial in range(10):
        # random rank-2 projector on subspace coordinates
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        q, _ = np.linalg.qr(g)
        proj = q @ q.conj().T
        filt = MeasurementFilter(proj)
        filtered = apply_filter(sub, filt)
        n = 100
        coords, _ = draw_states(sub, 600 + trial, 0, n)
        lhs, rhs = perturbation_bound_check(sub, coords, filt)  # raises if violated
        assert (lhs <= rhs + 1e-9).all()
        lhs_sum = lhs.sum()
        # averaged perturbation stays below 2 sqrt(miss_weight), with MC slack
        assert lhs_sum / n <= 2 * np.sqrt(filtered.miss_weight) + 0.05


def test_omega_shift_bound_for_typical_projectors():
    for n, k, np_ in ((4, 2, 2), (6, 2, 3), (6, 3, 3)):
        model = SpinChainModel(n=n, k=k, num_excited=np_)
        sub = build_subspace(model)
        ens = canonical_ensemble(sub)
        for width in (0.5, 1.0, 1.5, k):
            window = typical_window(model, width)
            filtered = apply_filter(sub, typical_projector(model, window))
            lhs, rhs = omega_shift_check(ens, filtered)
            assert lhs <= rhs + 1e-9
            assert filtered.effective_env_dim >= sub.dim_subspace / filtered.support_dim - 1e-9
            two_way = miss_weight_by_enumeration(sub, typical_projector(model, window))
            assert two_way == pytest.approx(filtered.miss_weight, abs=1e-10)


def test_support_dim_of_product_filter():
    model = SpinChainModel(n=4, k=2, num_excited=2)
    window = typical_window(model, 0.5)  # only |s| = 1
    filt = typical_projector(model, window)
    assert apply_filter(build_subspace(model), filt).support_dim == 2


def test_apply_filter_makes_one_marginal_pass(monkeypatch):
    # the chain and window of ``experiment --spin-chain 9 3 4 --xi 1``
    model = SpinChainModel(n=9, k=3, num_excited=4)
    sub = build_subspace(model)
    filt = typical_projector(model, typical_window(model, 1.0))
    marginals, calls = ConstraintSubspace.marginals, []
    with monkeypatch.context() as patch:
        patch.setattr(ConstraintSubspace, "marginals",
                      lambda self, *args: calls.append(args) or marginals(self, *args))
        filtered = apply_filter(sub, filt)
    assert len(calls) == 1
    assert filtered.support_dim == support_dim_two_pass(sub, filt) == 6  # shells 1 and 2


def test_support_rank_of_the_kept_marginal_equals_the_two_pass_rank():
    # the windows of six chains, then random projectors on three dense
    # subspaces, as diagonals and as matrices, of every rank up to d_R
    cases = []
    for n, k, num_excited in ((4, 2, 2), (6, 2, 3), (7, 3, 3), (8, 3, 4), (9, 3, 4), (8, 2, 4)):
        model = SpinChainModel(n=n, k=k, num_excited=num_excited)
        sub = build_subspace(model)
        for xi in (0.0, 0.5, 1.0, 1.5, float(k)):
            try:
                cases.append((sub, typical_projector(model, typical_window(model, xi))))
            except EmptyWindowError:
                continue
    rng = np.random.default_rng(31)
    for d_s, d_e, d_r in ((4, 1, 3), (4, 2, 5), (3, 4, 6)):
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, rng)
        for rank in range(d_r + 1):
            diagonal = np.zeros(d_r, dtype=complex)
            diagonal[rng.permutation(d_r)[:rank]] = 1.0
            g = rng.standard_normal((d_r, rank)) + 1j * rng.standard_normal((d_r, rank))
            q = np.linalg.qr(g)[0]
            cases += [(sub, MeasurementFilter(diagonal)), (sub, MeasurementFilter(q @ q.conj().T))]
    ranks = [(apply_filter(sub, f).support_dim, support_dim_two_pass(sub, f)) for sub, f in cases]
    assert all(one == two for one, two in ranks)
    assert len({rank for rank, _ in ranks}) > 4
