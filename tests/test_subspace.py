import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typicality.errors import RankDeficiencyError, ShapeMismatchError, TypicalityError
from typicality.linalg import BipartiteShape, partial_trace
from typicality.spin_chain import SpinChainModel, build_subspace
from typicality.subspace import (
    ConstraintSubspace,
    build_ensemble,
    canonical_ensemble,
    from_basis_vectors,
    full_space,
    gram_schmidt,
    random_subspace,
)

SHAPE22 = BipartiteShape(2, 2)


def three_spin_vectors():
    # one-excitation states of 3 spins: 100, 010, 001 (leading bit = system)
    vectors = np.zeros((3, 8), dtype=complex)
    for row, flat in enumerate((4, 2, 1)):
        vectors[row, flat] = 1.0
    return vectors


def test_full_space_dimensions_and_ensemble():
    sub = full_space(SHAPE22)
    assert sub.dim_subspace == 4
    ens = canonical_ensemble(sub)
    assert np.allclose(ens.system_state, np.eye(2) / 2)
    # no constraint: the effective environment dimension is the environment
    assert ens.effective_env_dim == pytest.approx(2.0, abs=1e-12)


def test_from_basis_vectors_single_vector():
    v = np.zeros(4, dtype=complex)
    v[2] = 1.0
    sub = from_basis_vectors(SHAPE22, [v])
    assert sub.dim_subspace == 1
    eq = canonical_ensemble(sub).equiprobable()
    assert np.allclose(eq, np.outer(v, v.conj()))
    assert np.allclose(eq @ eq, eq)  # pure


def test_from_basis_vectors_recovers_full_space():
    sub = from_basis_vectors(SHAPE22, np.eye(4, dtype=complex))
    assert sub.equals(full_space(SHAPE22))


def test_from_basis_vectors_errors():
    with pytest.raises(ShapeMismatchError):
        from_basis_vectors(SHAPE22, [np.ones(3, dtype=complex)])
    v = np.array([1.0, 1.0, 0, 0], dtype=complex)
    with pytest.raises(RankDeficiencyError):
        from_basis_vectors(SHAPE22, [v, 2.0 * v])


def test_three_spin_subspace_from_vectors():
    shape = BipartiteShape(2, 4)
    sub = from_basis_vectors(shape, three_spin_vectors())
    assert sub.dim_subspace == 3
    ens = canonical_ensemble(sub)
    assert np.allclose(np.diag(ens.system_state).real, [2 / 3, 1 / 3])
    # environment marginal is uniform over {00, 10, 01}
    assert np.allclose(np.diag(ens.environment_state).real, [1 / 3, 1 / 3, 1 / 3, 0])
    assert ens.environment_purity == pytest.approx(1 / 3, abs=1e-12)
    assert ens.effective_env_dim == pytest.approx(3.0, abs=1e-9)
    assert ens.effective_env_dim >= sub.dim_subspace / shape.dim_system - 1e-9


def test_system_purity_floor():
    rng = np.random.default_rng(21)
    for _ in range(20):
        sub = random_subspace(BipartiteShape(3, 4), 5, rng)
        ens = canonical_ensemble(sub)
        assert ens.system_purity >= 1 / 3 - 1e-12


def test_embed_unit_coordinate_and_roundtrip():
    rng = np.random.default_rng(17)
    sub = random_subspace(BipartiteShape(2, 3), 4, rng)
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    assert np.allclose(sub.embed(e0), sub.basis[0])
    for _ in range(20):
        coords = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coords /= np.linalg.norm(coords)
        ambient = sub.embed(coords)
        assert np.linalg.norm(ambient) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(sub.project(ambient), coords, atol=1e-10)


def test_embed_length_mismatch():
    sub = full_space(SHAPE22)
    with pytest.raises(ShapeMismatchError):
        sub.embed(np.ones(3, dtype=complex))


def test_effective_env_dim_floor_random_subspaces():
    # d_E_eff >= d_R / d_S, and Tr Omega_E^2 <= d_S / d_R, over random draws
    rng = np.random.default_rng(2024)
    for trial in range(100):
        d_s = int(rng.integers(1, 5))
        d_e = int(rng.integers(1, 7))
        d_r = int(rng.integers(1, min(12, d_s * d_e) + 1))
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, rng)
        ens = canonical_ensemble(sub)
        assert ens.effective_env_dim >= d_r / d_s - 1e-9
        assert ens.environment_purity <= d_s / d_r + 1e-9


def test_marginals_match_equiprobable_partial_trace():
    rng = np.random.default_rng(31)
    sub = random_subspace(BipartiteShape(3, 4), 6, rng)
    ens = canonical_ensemble(sub)
    eq = ens.equiprobable()
    assert np.trace(eq).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(partial_trace(eq, sub.shape, "system"), ens.system_state, atol=1e-11)
    assert np.allclose(partial_trace(eq, sub.shape, "environment"), ens.environment_state, atol=1e-11)


def test_marginal_is_average_of_basis_marginals():
    rng = np.random.default_rng(33)
    sub = random_subspace(BipartiteShape(2, 3), 4, rng)
    shape = sub.shape
    acc = np.zeros((2, 2), dtype=complex)
    for row in sub.basis:
        acc += partial_trace(np.outer(row, row.conj()), shape, "system")
    assert np.allclose(acc / 4, canonical_ensemble(sub).system_state, atol=1e-11)


def test_gram_schmidt_orthonormal():
    rng = np.random.default_rng(12)
    vecs = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    basis = gram_schmidt(vecs)
    gram = basis @ basis.conj().T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


def _loop_gram_schmidt(vectors):
    """Classical Gram-Schmidt with a second projection sweep: the reference."""
    rows = []
    for v in vectors:
        w = v / np.linalg.norm(v)
        for _ in range(2):
            for b in rows:
                w = w - (b.conj() @ w) * b
        rows.append(w / np.linalg.norm(w))
    return np.array(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1), st.data())
def test_gram_schmidt_is_the_rephased_qr_of_the_normalized_vectors(rows, extra, seed, data):
    dim = rows + extra
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    basis = gram_schmidt(vecs)
    assert np.allclose(basis @ basis.conj().T, np.eye(rows), rtol=0, atol=1e-12)
    assert np.allclose(basis, _loop_gram_schmidt(vecs), rtol=0, atol=1e-12)
    normalized = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    r = basis.conj() @ normalized.T
    assert np.allclose(np.tril(r, -1), 0, rtol=0, atol=1e-12)
    assert np.allclose(np.diagonal(r).imag, 0, rtol=0, atol=1e-12)
    assert np.all(np.diagonal(r).real > 0)
    # a combination of the vectors before index i, inserted at i, is named by i
    i = data.draw(st.integers(1, rows))
    combo = (rng.standard_normal(i) + 1j * rng.standard_normal(i)) @ vecs[:i]
    dependent = np.insert(vecs, i, combo, axis=0)
    message = f"vector {i} is linearly dependent" if rows < dim else "vectors in dimension"
    with pytest.raises(RankDeficiencyError, match=message):
        gram_schmidt(dependent)


def test_gram_schmidt_rejects_zero_vector():
    with pytest.raises(RankDeficiencyError, match="zero-norm"):
        gram_schmidt([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("obj", [[1, 2], {"dimS": 2}, {"dimS": 2, "dimE": 2}, {"basis": []}])
def test_malformed_subspace_json_raises_shape_mismatch(obj):
    with pytest.raises(ShapeMismatchError):
        ConstraintSubspace.from_json_dict(obj)


def test_ensemble_builder_checks_trace_and_floor():
    sub = full_space(SHAPE22)
    ens = build_ensemble(sub, np.ones(4), 4, 0.0, 2)
    assert (ens.miss_weight, ens.support_dim, ens.degenerate) == (0.0, 2, False)
    with pytest.raises(ShapeMismatchError, match="lost trace"):
        build_ensemble(sub, np.ones(4), 4, 0.5, 2)
    # d_eff = 2 misses the floor d_R / support = 4 of a one-dimensional support
    with pytest.raises(TypicalityError, match="fell below"):
        build_ensemble(sub, np.ones(4), 4, 0.0, 1)
    # a degenerate ensemble is flagged, not held to the floor
    empty = build_ensemble(sub, np.zeros(4), 4, 1.0, 1)
    assert empty.degenerate and empty.effective_env_dim == float("inf")


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(77)
    sub = random_subspace(BipartiteShape(2, 3), 3, rng)
    path = tmp_path / "subspace.json"
    sub.save(path)
    loaded = ConstraintSubspace.load(path)
    assert loaded.shape == sub.shape
    assert np.allclose(loaded.basis, sub.basis, atol=1e-12)


def test_save_writes_the_bytes_of_json_dump(tmp_path):
    sub = random_subspace(BipartiteShape(4, 8), 6, np.random.default_rng(78))
    sub.save(tmp_path / "subspace.json")
    assert (tmp_path / "subspace.json").read_text(encoding="utf-8") == json.dumps(
        sub.to_json_dict()
    )
    loaded = ConstraintSubspace.load(tmp_path / "subspace.json")
    assert np.allclose(loaded.basis, sub.basis, rtol=0, atol=1e-12)


def test_one_hot_lazy_basis():
    sub = full_space(SHAPE22)
    assert sub.one_hot is not None
    assert np.allclose(sub.basis, np.eye(4))


@st.composite
def small_chains(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    return SpinChainModel(n=n, k=k, num_excited=draw(st.integers(0, n)))


@settings(max_examples=40, deadline=None)
@given(small_chains(), st.sampled_from(["uniform", "diagonal", "psd"]), st.integers(0, 2**32 - 1))
def test_marginals_index_form_match_dense_form_and_partial_trace(model, kind, seed):
    sub = build_subspace(model)
    dense = from_basis_vectors(sub.shape, sub.basis)
    assert sub.one_hot is not None and dense.one_hot is None
    d_r = sub.dim_subspace
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        weights, divisor = np.ones(d_r), d_r
    elif kind == "diagonal":
        weights, divisor = rng.random(d_r), 1.0
    else:
        g = rng.standard_normal((d_r, d_r)) + 1j * rng.standard_normal((d_r, d_r))
        weights, divisor = g @ g.conj().T / d_r, 1.0
    w = np.diag(weights) if weights.ndim == 1 else weights
    composite = sub.basis.T @ w @ sub.basis.conj() / divisor
    want_s = partial_trace(composite, sub.shape, keep="system")
    want_e = partial_trace(composite, sub.shape, keep="environment")
    want_purity = float(np.trace(want_e @ want_e).real)
    for s in (sub, dense):
        omega_s, omega_e, env_purity = s.marginals(weights, divisor)
        assert np.allclose(omega_s, want_s, rtol=0, atol=1e-12)
        assert np.allclose(omega_e, want_e, rtol=0, atol=1e-12)
        assert env_purity == pytest.approx(want_purity, rel=0, abs=1e-12)
