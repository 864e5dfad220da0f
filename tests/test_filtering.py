import json

import numpy as np
import pytest

from typicality.errors import OperatorRangeError, ShapeMismatchError
from typicality.filtering import (
    MeasurementFilter,
    apply_filter,
    filter_from_json_dict,
    filter_to_json_dict,
    filtered_state,
    load_filter,
    miss_weight_by_enumeration,
    omega_shift_check,
    perturbation_bound_check,
    save_filter,
)
from typicality.linalg import BipartiteShape
from typicality.sampling import SampleStream, sample_pure
from typicality.spin_chain import (
    SpinChainModel,
    build_subspace,
    exact_typical_tail,
    typical_projector,
    typical_window,
)
from typicality.subspace import canonical_ensemble, from_basis_vectors, random_subspace

CHAIN = SpinChainModel(n=3, k=1, num_excited=1)


def identity_filter(shape: BipartiteShape) -> MeasurementFilter:
    return MeasurementFilter(np.eye(shape.dim, dtype=complex), coords="composite", shape=shape)


def test_filter_construction_validation():
    shape = BipartiteShape(2, 2)
    with pytest.raises(OperatorRangeError):
        MeasurementFilter(1.5 * np.eye(4, dtype=complex), coords="composite", shape=shape)
    with pytest.raises(OperatorRangeError):
        MeasurementFilter(-0.1 * np.eye(4, dtype=complex), coords="composite", shape=shape)
    with pytest.raises(ShapeMismatchError):
        MeasurementFilter(np.eye(4, dtype=complex), coords="composite", shape=None)


def test_identity_filter_reduces_to_unfiltered():
    sub = build_subspace(CHAIN)
    ens = canonical_ensemble(sub)
    filtered = apply_filter(sub, identity_filter(sub.shape))
    assert filtered.miss_weight == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(filtered.system_state, ens.system_state, atol=1e-12)
    assert np.allclose(filtered.environment_state, ens.environment_state, atol=1e-12)
    assert filtered.effective_env_dim == pytest.approx(ens.effective_env_dim, rel=1e-12)
    lhs, rhs = omega_shift_check(ens, filtered)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-9)


def test_zero_filter_is_degenerate_not_rejected():
    sub = build_subspace(CHAIN)
    zero = MeasurementFilter(np.zeros((8, 8), dtype=complex), coords="composite", shape=sub.shape)
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
    f_comp = MeasurementFilter(x, coords="composite", shape=sub.shape)
    f_sub = MeasurementFilter(
        f_comp.subspace_matrix(sub), coords="subspace"
    )
    a = apply_filter(sub, f_comp)
    b = apply_filter(sub, f_sub)
    assert a.miss_weight == pytest.approx(b.miss_weight, abs=1e-12)
    assert np.allclose(a.system_state, b.system_state, atol=1e-12)
    assert np.allclose(a.environment_state, b.environment_state, atol=1e-12)
    # support ranks may differ between the two coordinate systems by design;
    # both must respect the effective-dimension floor
    for ens in (a, b):
        if ens.support_dim:
            assert ens.effective_env_dim >= sub.dim_subspace / ens.support_dim - 1e-9


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
    assert np.allclose(a.environment_state, b.environment_state, rtol=0, atol=1e-12)
    assert a.environment_purity == pytest.approx(b.environment_purity, rel=0, abs=1e-12)
    assert a.miss_weight == pytest.approx(b.miss_weight, rel=0, abs=1e-12)
    assert a.support_dim == b.support_dim


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"coordinates": "subspace"},
    {"matrix": [[[1.0, 0.0]]]},
    {"coordinates": "composite", "matrix": [[[1.0, 0.0]]]},
])
def test_malformed_filter_json_raises_shape_mismatch(obj):
    with pytest.raises(ShapeMismatchError):
        filter_from_json_dict(obj)


def test_filtered_state_routes():
    sub = build_subspace(CHAIN)
    phi = sample_pure(sub, SampleStream(3, 1))
    ident = filtered_state(phi, identity_filter(sub.shape))
    assert np.allclose(ident, phi.ambient, atol=1e-12)

    window = typical_window(CHAIN, 0.5)
    filt = typical_projector(CHAIN, window)
    # a state supported entirely on the excited system string is annihilated
    coords = np.array([0.0, 0.0, 1.0], dtype=complex)  # string 100, last in order
    from typicality.sampling import PureState

    state = PureState(sub, coords, sub.embed(coords))
    assert np.linalg.norm(filtered_state(state, filt)) == pytest.approx(0.0, abs=1e-12)

    x_sub = filt.subspace_matrix(sub)
    for i in range(20):
        phi = sample_pure(sub, SampleStream(9, i))
        tilde = filtered_state(phi, filt)
        quad = float(np.vdot(phi.coords, x_sub @ phi.coords).real)
        assert np.linalg.norm(tilde) ** 2 == pytest.approx(quad, abs=1e-10)
        assert quad <= 1.0 + 1e-10


def test_perturbation_bound_identity_and_random_projectors():
    sub = build_subspace(CHAIN)
    phi = sample_pure(sub, SampleStream(5, 0))
    lhs, rhs = perturbation_bound_check(phi, identity_filter(sub.shape))
    assert lhs == pytest.approx(0.0, abs=1e-10)
    assert rhs == pytest.approx(0.0, abs=1e-6)

    rng = np.random.default_rng(23)
    ens = canonical_ensemble(sub)
    for trial in range(10):
        # random rank-2 projector on subspace coordinates
        g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        q, _ = np.linalg.qr(g)
        proj = q @ q.conj().T
        filt = MeasurementFilter(proj, coords="subspace")
        filtered = apply_filter(sub, filt)
        lhs_sum = 0.0
        n = 100
        for i in range(n):
            phi = sample_pure(sub, SampleStream(600 + trial, i))
            lhs, rhs = perturbation_bound_check(phi, filt)  # raises if violated
            assert lhs <= rhs + 1e-9
            lhs_sum += lhs
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
    assert filt.support_dim_system() == 2


def test_filter_json_roundtrip():
    model = SpinChainModel(n=4, k=2, num_excited=2)
    filt = typical_projector(model, typical_window(model, 1.0))
    obj = filter_to_json_dict(filt)
    back = filter_from_json_dict(obj)
    assert back.coords == filt.coords
    assert back.shape == filt.shape
    assert np.allclose(back.matrix, filt.matrix, atol=1e-15)


def test_save_filter_writes_the_bytes_of_json_dump(tmp_path):
    model = SpinChainModel(n=4, k=2, num_excited=2)
    filt = typical_projector(model, typical_window(model, 1.0))
    save_filter(filt, tmp_path / "filter.json")
    text = (tmp_path / "filter.json").read_text(encoding="utf-8")
    assert text == json.dumps(filter_to_json_dict(filt))
    back = load_filter(tmp_path / "filter.json")
    assert back.matrix.tobytes() == filt.matrix.tobytes()
