import base64
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import partial_trace
from typicality.errors import (
    DimensionCapError,
    RankDeficiencyError,
    ShapeMismatchError,
    TypicalityError,
)
from typicality.linalg import BipartiteShape, purity
from typicality.spin_chain import SpinChainModel, build_subspace
from typicality.subspace import (
    ConstraintSubspace,
    build_ensemble,
    canonical_ensemble,
    check_size,
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
    eq = sub.basis.T @ sub.basis.conj() / sub.dim_subspace
    assert np.allclose(eq, np.outer(v, v.conj()))
    assert np.allclose(eq @ eq, eq)  # pure


def test_from_basis_vectors_recovers_full_space():
    sub = from_basis_vectors(SHAPE22, np.eye(4, dtype=complex))
    assert sub.equals(full_space(SHAPE22))
    assert sub.equals(sub)
    # another shape or another d_R is unequal before any basis is compared
    assert not full_space(SHAPE22).equals(full_space(BipartiteShape(2, 3)))
    rng = np.random.default_rng(0)
    assert not random_subspace(SHAPE22, 2, rng).equals(random_subspace(SHAPE22, 3, rng))


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
    # environment marginal is uniform over {00, 10, 01}: purity 1/3
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
        assert np.allclose(sub.basis.conj() @ ambient, coords, atol=1e-10)


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
    eq = sub.basis.T @ sub.basis.conj() / sub.dim_subspace
    assert np.trace(eq).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(partial_trace(eq, sub.shape, "system"), ens.system_state, atol=1e-11)
    assert purity(partial_trace(eq, sub.shape, "environment")) == pytest.approx(
        ens.environment_purity, abs=1e-11
    )


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


def _file_object(basis, dims=(2, 2)):
    return {"dimS": dims[0], "dimE": dims[1], "basis": basis}


#: The base64 of one basis vector of a 2 x 2 space (64 bytes), and of 16 bytes.
E0 = base64.b64encode(np.eye(1, 4, dtype=complex).tobytes()).decode()
SHORT = base64.b64encode(bytes(16)).decode()


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"dimS": 2},
    {"dimS": 2, "dimE": 2},
    {"basis": []},
    _file_object({"shape": [1, 4], "base64": E0[:-2] + "!!"}),
    _file_object({"shape": [1, 4], "base64": E0 + "\n"}),
    _file_object({"shape": [1, 4], "base64": SHORT}),
    _file_object({"shape": [1, 4], "base64": E0 + SHORT}),
    _file_object({"shape": [0], "base64": ""}),
    _file_object({"shape": [1.5], "base64": SHORT}),
    _file_object({"shape": [True], "base64": SHORT}),
    _file_object({"shape": "1", "base64": SHORT}),
    _file_object({"shape": [], "base64": SHORT}),
    _file_object({"shape": [1, 4], "base64": None}),
    _file_object({"shape": [1, 4]}),
    _file_object([[[float("nan"), 0.0]] + [[1.0, 0.0]] * 3]),
    _file_object({"shape": [1, 4], "base64": base64.b64encode(
        np.array([np.inf, 1, 0, 0], dtype=complex).tobytes()).decode()}),
    {**_file_object([[[1.0, 0.0]] * 4]), "flat_indices": [0]},
    {"dimS": 2, "dimE": 2, "flat_indices": [0, 4]},
    {"dimS": 2, "dimE": 2, "flat_indices": [-1]},
    {"dimS": 2, "dimE": 2, "flat_indices": [1.0]},
    {"dimS": 2, "dimE": 2, "flat_indices": [True]},
    {"dimS": 2, "dimE": 2, "flat_indices": []},
    {"dimS": 2, "dimE": 2, "flat_indices": 1},
    _file_object([[["1", "0"], ["0", "0"]]], dims=(1, 2)),
    _file_object([[[True, False], [0, 0]]], dims=(1, 2)),
    _file_object([[[1, True], [0.5, 0]]], dims=(1, 2)),
])
def test_malformed_subspace_json_raises_shape_mismatch(obj):
    with pytest.raises(ShapeMismatchError):
        ConstraintSubspace.from_json_dict(obj)


def test_subspace_json_cap_is_checked_before_the_basis_is_decoded():
    obj = _file_object({"shape": [1, 10**6], "base64": "not base64"}, dims=(1000, 1000))
    with pytest.raises(DimensionCapError, match="exceeds dense cap 4096"):
        ConstraintSubspace.from_json_dict(obj)
    # index form: the cap bounds d_S, as for a chain, and d_S * d_E stays within 2^26
    with pytest.raises(DimensionCapError, match="dimension 5000 exceeds dense cap 4096"):
        ConstraintSubspace.from_json_dict({"dimS": 5000, "dimE": 1, "flat_indices": "bad"})
    with pytest.raises(DimensionCapError, match="exceeds index-form cap 2\\^26"):
        ConstraintSubspace.from_json_dict({"dimS": 2, "dimE": 2**25 + 1, "flat_indices": "bad"})
    sub = ConstraintSubspace.from_json_dict({"dimS": 2, "dimE": 2**25, "flat_indices": [0]})
    assert sub.shape.dim == 2**26


CAP = 4096
DENSE_CAP = f"exceeds dense cap {CAP}"
INDEX_CAP = "exceeds index-form cap 2\\^26"


@pytest.mark.parametrize("dense, dims, cap, refusal", [
    # a dense basis: d_S * d_E against the cap, at any size
    (True, (1, CAP), CAP, None),
    (True, (1, CAP + 1), CAP, DENSE_CAP),
    (True, (2, 2**25), 2**26, None),
    (True, (1, 2**26 + 1), 2**26 + 1, None),
    (True, (1, 2**26 + 1), 2**26, "exceeds dense cap 67108864"),
    # index form: d_S against the cap, d_S * d_E against 2^26 whatever the cap
    (False, (CAP, 1), CAP, None),
    (False, (CAP + 1, 1), CAP, DENSE_CAP),
    (False, (CAP, 2**14), CAP, None),
    (False, (2, 2**25), CAP, None),
    (False, (1, 2**26 + 1), CAP, INDEX_CAP),
    (False, (1, 2**26 + 1), 2**30, INDEX_CAP),
])
def test_one_size_rule_per_form(dense, dims, cap, refusal):
    shape = BipartiteShape(*dims)
    if refusal is None:
        check_size(shape, dense, cap)
    else:
        with pytest.raises(DimensionCapError, match=refusal):
            check_size(shape, dense, cap)


def test_full_space_follows_the_index_rule_of_its_file():
    # a full space is built in index form, so it passes or fails as its saved file does
    for dims in ((2, 3000), (64, 128)):
        sub = full_space(BipartiteShape(*dims))
        assert sub.one_hot is not None
        assert ConstraintSubspace.from_json_dict(sub.to_json_dict()).equals(sub)
    with pytest.raises(DimensionCapError, match="dimension 8192 exceeds dense cap 4096"):
        full_space(BipartiteShape(8192, 1))
    with pytest.raises(DimensionCapError, match=INDEX_CAP):
        full_space(BipartiteShape(2, 2**25 + 1), cap=2**30)


def test_ensemble_builder_checks_trace_and_floor():
    sub = full_space(SHAPE22)
    canonical = sub.marginals(np.ones(4), 4)
    ens = build_ensemble(sub, canonical, 0.0, 2)
    assert (ens.miss_weight, ens.support_dim, ens.degenerate) == (0.0, 2, False)
    with pytest.raises(ShapeMismatchError, match="lost trace"):
        build_ensemble(sub, canonical, 0.5, 2)
    with pytest.raises(ShapeMismatchError, match="lost trace"):  # a NaN trace too
        build_ensemble(sub, sub.marginals(np.full(4, np.nan), 4), 0.0, 2)
    # d_eff = 2 misses the floor d_R / support = 4 of a one-dimensional support
    with pytest.raises(TypicalityError, match="fell below"):
        build_ensemble(sub, canonical, 0.0, 1)
    # a degenerate ensemble is flagged, not held to the floor
    empty = build_ensemble(sub, sub.marginals(np.zeros(4), 4), 1.0, 1)
    assert empty.degenerate and empty.effective_env_dim == float("inf")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_from_basis_vectors_refuses_non_finite_entries(bad):
    vectors = np.eye(2, 4, dtype=complex)
    vectors[1, 3] = bad
    with pytest.raises(ShapeMismatchError, match="basis entries must be finite"):
        from_basis_vectors(SHAPE22, vectors)


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(77)
    sub = random_subspace(BipartiteShape(2, 3), 3, rng)
    path = tmp_path / "subspace.json"
    sub.save(path)
    loaded = ConstraintSubspace.load(path)
    assert loaded.shape == sub.shape
    assert np.allclose(loaded.basis, sub.basis, atol=1e-12)


def test_saved_basis_loads_with_its_bits(tmp_path):
    for d_s, d_e, d_r in ((4, 8, 6), (8, 64, 160)):
        sub = random_subspace(BipartiteShape(d_s, d_e), d_r, np.random.default_rng(79))
        sub.save(tmp_path / "subspace.json")
        saved = json.loads((tmp_path / "subspace.json").read_text(encoding="utf-8"))
        assert saved["basis"]["shape"] == [d_r, d_s * d_e]
        rows = base64.b64decode(saved["basis"]["base64"])
        assert rows == sub.basis.astype("<c16").tobytes()
        # orthonormal rows load as they are: save -> load -> save keeps the file
        loaded = ConstraintSubspace.load(tmp_path / "subspace.json")
        assert loaded.equals(sub)
        loaded.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "subspace.json").read_bytes()


def test_saved_rows_off_orthonormal_load_through_gram_schmidt(tmp_path):
    sub = random_subspace(BipartiteShape(4, 8), 6, np.random.default_rng(79))
    scaled = sub.basis * (1 + 1e-9)
    ConstraintSubspace(sub.shape, dense_basis=scaled).save(tmp_path / "subspace.json")
    loaded = ConstraintSubspace.load(tmp_path / "subspace.json")
    assert loaded.basis.tobytes() == gram_schmidt(scaled).tobytes()
    assert not np.array_equal(loaded.basis, scaled)
    gram = loaded.basis @ loaded.basis.conj().T
    assert np.abs(gram - np.eye(6)).max() <= 1e-12


def test_more_rows_than_the_dimension_are_refused_before_a_gram_matrix(tmp_path):
    # 100 000 rows in dimension 4: a Gram matrix would take 160 GB
    rows = base64.b64encode(np.ones((100_000, 4), dtype="<c16").tobytes()).decode("ascii")
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(
        {"dimS": 2, "dimE": 2, "basis": {"shape": [100_000, 4], "base64": rows}}
    ), encoding="utf-8")
    with pytest.raises(RankDeficiencyError, match="100000 vectors in dimension 4"):
        ConstraintSubspace.load(path)


@pytest.mark.parametrize("sub", [
    build_subspace(SpinChainModel(8, 2, 4)),
    build_subspace(SpinChainModel(7, 3, 3)),
    full_space(BipartiteShape(2, 3)),
], ids=["chain-8-2-4", "chain-7-3-3", "full-2-3"])
def test_index_form_saves_its_flat_indices(tmp_path, sub):
    sub.save(tmp_path / "subspace.json")
    saved = json.loads((tmp_path / "subspace.json").read_text(encoding="utf-8"))
    assert list(saved) == ["dimS", "dimE", "flat_indices"]
    loaded = ConstraintSubspace.load(tmp_path / "subspace.json")
    assert loaded.one_hot is not None and loaded.equals(sub)
    assert [b[0].tolist() for b in loaded.block_slabs[0]] == [
        b[0].tolist() for b in sub.block_slabs[0]
    ]


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


def check_marginals_against_partial_trace(subs, kind, seed):
    """Each of ``subs`` (one subspace in either form) against ``partial_trace``
    of B^T W conj(B) for uniform, random diagonal or random PSD weights."""
    sub = subs[0]
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
    for s in subs:
        omega_s, env_purity = s.marginals(weights, divisor)
        assert np.allclose(omega_s, want_s, rtol=0, atol=1e-12)
        assert env_purity == pytest.approx(want_purity, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_chains(), st.sampled_from(["uniform", "diagonal", "psd"]), st.integers(0, 2**32 - 1))
# an environment purity near 2438 that misses an absolute 1e-12 by 1.4e-12 (6e-16 relative)
@example(SpinChainModel(n=7, k=6, num_excited=3), "psd", 171)
def test_marginals_index_form_match_dense_form_and_partial_trace(model, kind, seed):
    sub = build_subspace(model)
    dense = from_basis_vectors(sub.shape, sub.basis)
    assert sub.one_hot is not None and dense.one_hot is None
    check_marginals_against_partial_trace((sub, dense), kind, seed)


# d_E > 128 splits the system marginal's sums, d_R > 128 the lift of 2-d
# weights, d_R d_S > 128 the environment marginal's; d_E = 1024 takes pieces
# of 256 (row, system) pairs and then a rest of 196, summed as 128 + 68
@pytest.mark.parametrize("d_s,d_e,d_r", [(2, 160, 200), (16, 12, 150), (1, 1024, 452)])
@pytest.mark.parametrize("kind", ["uniform", "diagonal", "psd"])
def test_dense_marginals_match_partial_trace_across_pieces(d_s, d_e, d_r, kind):
    sub = random_subspace(BipartiteShape(d_s, d_e), d_r, np.random.default_rng(d_r))
    check_marginals_against_partial_trace((sub,), kind, d_r)


@pytest.mark.parametrize(
    ("indices", "error"),
    [
        ([0, 2, 2], RankDeficiencyError),
        ([3, 1, 3, 0], RankDeficiencyError),
        ([0, 4], ShapeMismatchError),
        ([-1, 2], ShapeMismatchError),
        ([], ShapeMismatchError),
        ([[0, 1]], ShapeMismatchError),
    ],
)
def test_flat_indices_rejected(indices, error):
    with pytest.raises(error):
        ConstraintSubspace(SHAPE22, flat_indices=np.array(indices, dtype=np.int64))


def test_flat_indices_accepted_unsorted():
    sub = ConstraintSubspace(SHAPE22, flat_indices=np.array([3, 0, 2]))
    assert sub.dim_subspace == 3
    assert np.array_equal(sub.one_hot[0], [1, 0, 1])
