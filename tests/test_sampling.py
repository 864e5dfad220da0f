import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import occupied_blocks, partial_trace
from typicality import sampling
from typicality.linalg import BipartiteShape, trace_norm
from typicality.sampling import (
    SampleStream,
    StateReducer,
    normalize_draws,
    reduced_state_from_coords,
    sample_coords,
    sample_states,
    seed_words,
    stream_generators,
)
from typicality.spin_chain import SpinChainModel, build_subspace
from typicality.subspace import (
    ConstraintSubspace,
    canonical_ensemble,
    from_basis_vectors,
    full_space,
    random_subspace,
)


def three_spin_subspace():
    return build_subspace(SpinChainModel(n=3, k=1, num_excited=1))


def test_stream_validation():
    with pytest.raises(ValueError):
        SampleStream(seed=-1)


WORD = 2**32


@given(seed=st.integers(0, WORD - 1), start=st.integers(0, WORD - 1), count=st.integers(1, 20))
@example(seed=0, start=0, count=3)
@example(seed=WORD - 1, start=WORD - 1, count=3)
@example(seed=0, start=WORD - 1, count=1)
@example(seed=WORD - 1, start=0, count=1)
def test_chunk_seeding_equals_default_rng(seed, start, count):
    start = min(start, WORD - count)  # the last index is at most 2**32 - 1
    words = seed_words(seed, start, count)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for i, row in zip(range(start, start + count), words):
        reference = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
        assert np.array_equal(row, reference)


@pytest.mark.parametrize("seed, start, count", [
    (-1, 0, 1), (WORD, 0, 1), (0, -1, 1), (0, WORD - 1, 2),
])
def test_chunk_seeding_rejects_multi_word_entropy(seed, start, count):
    with pytest.raises(ValueError):
        seed_words(seed, start, count)


@pytest.mark.parametrize("seed, start, count", [
    (5, 0, 300),  # more than one seeding batch
    (5, WORD - 3, 6),  # crosses into the SampleStream fallback
    (WORD, 0, 3),  # two-word seed: fallback only
    (WORD - 1, WORD + 5, 2),  # two-word index: fallback only
])
def test_stream_generators_draw_like_sample_streams(seed, start, count):
    drawn = [rng.standard_normal(9) for rng in stream_generators(seed, start, count)]
    assert len(drawn) == count
    for i, draw in zip(range(start, start + count), drawn):
        assert np.array_equal(draw, SampleStream(seed, i).rng().standard_normal(9))


def test_numpy_integer_seeds_take_the_batched_path(monkeypatch):
    sub = three_spin_subspace()

    def stacks(seed):  # copies, since the next stack overwrites the buffers
        return [(lo, c.copy(), r.copy()) for lo, c, r in sample_states(sub, seed, 0, 100)]

    want = stacks(7)

    def per_index_stream(self):
        raise AssertionError("a per-index stream was built")

    monkeypatch.setattr(SampleStream, "rng", per_index_stream)
    got = stacks(np.int64(7))
    assert len(got) == len(want) == 2
    for (lo, coords, rho), (want_lo, want_coords, want_rho) in zip(got, want):
        assert lo == want_lo
        assert np.array_equal(coords, want_coords) and np.array_equal(rho, want_rho)


def test_stream_generators_are_independent_objects():
    # drawing from the generators in any order gives each stream's own draws
    rngs = list(stream_generators(5, 0, 300))
    drawn = [rng.standard_normal(9) for rng in reversed(rngs)][::-1]
    for i, draw in enumerate(drawn):
        assert np.array_equal(draw, SampleStream(5, i).rng().standard_normal(9))


def test_sample_coords_matches_two_draw_reference():
    # one (2, d) draw gives the bits of the former real-then-imaginary calls
    for i in range(20):
        rng = SampleStream(3, i).rng()
        g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        assert np.array_equal(sample_coords(7, SampleStream(3, i)), g / np.linalg.norm(g))


def _per_trial_draw(rng, dim_subspace):
    """The draw before stacking: (2, d) normals, complex build, norm, divide."""
    while True:
        a = rng.standard_normal((2, dim_subspace))
        g = a[0] + 1j * a[1]
        norm = np.linalg.norm(g)
        if norm > 1e-100:
            return g / norm


def _per_trial_reduction(sub, coords):
    """The reduction one state at a time: in index form, per system block
    (``occupied_blocks``) a 2-d scatter into its (environment index, block
    index) matrix and one product; in dense form the embedding as a product
    of two rows (the state, then zeros) with the basis, summed in order over
    pieces of 128 coordinates, then one product."""
    d_s = sub.shape.dim_system
    if sub.one_hot is not None:
        sys_idx, env_idx = sub.one_hot
        rho = np.zeros((d_s, d_s), dtype=complex)
        for idx in occupied_blocks(sub):
            members = np.isin(sys_idx, idx)
            rows = np.unique(env_idx[members])
            m = np.zeros((rows.size, idx.size), dtype=complex)
            m[np.searchsorted(rows, env_idx[members]), np.searchsorted(idx, sys_idx[members])] = (
                coords[members]
            )
            rho[np.ix_(idx, idx)] = m.T @ m.conj()
        return rho
    rows = np.stack([coords, np.zeros_like(coords)])
    lift = rows[:, :128] @ sub.basis[:128]
    for lo in range(128, coords.size, 128):
        lift += rows[:, lo : lo + 128] @ sub.basis[lo : lo + 128]
    m = lift[0].reshape(d_s, sub.shape.dim_environment)
    return m @ m.conj().T


def index_subspace(d_s, d_e, count, seed):
    """Index form on ``count`` random computational basis states of d_S x d_E."""
    flat = np.random.default_rng(seed).choice(d_s * d_e, size=count, replace=False)
    return ConstraintSubspace(BipartiteShape(d_s, d_e), flat_indices=flat)


#: Chains (n, k, excitations) with d_S = 2, 4, 8, 16, then dense subspaces
#: (d_S, d_E, d_R), the last in two pieces of the lift, then index subspaces
#: (d_S, d_E, d_R) on random basis states: system blocks of sizes 3, 2, 1, 1,
#: 1, one block with holes, and the whole 4 x 8 space in random order.
STACK_CASES = (
    ("chain", 6, 1, 3), ("chain", 8, 2, 4), ("chain", 7, 3, 3), ("chain", 10, 4, 5),
    ("dense", 3, 4, 5), ("dense", 8, 16, 40), ("dense", 4, 64, 200),
    ("index", 8, 16, 12), ("index", 8, 16, 40), ("index", 4, 8, 32),
)


@functools.cache
def _stack_case(case):
    kind, a, b, c = case
    if kind == "chain":
        return build_subspace(SpinChainModel(a, b, c))
    if kind == "index":
        return index_subspace(a, b, c, 0)
    return random_subspace(BipartiteShape(a, b), c, np.random.default_rng(4))


#: Index-form subspaces: chains, full spaces, then random basis states from
#: sparse (many small blocks, unused system indices) to dense (one block);
#: last a dense subspace (d_S, d_E, d_R), one block.
BLOCK_CASES = (
    ("chain", 6, 1, 3), ("chain", 8, 2, 4), ("chain", 12, 4, 6), ("chain", 9, 3, 1),
    ("full", 3, 4), ("full", 4, 1), ("full", 1, 5),
    ("index", 8, 16, 12, 1), ("index", 8, 6, 12, 1), ("index", 8, 16, 40, 0),
    ("index", 8, 16, 100, 2), ("dense", 4, 8, 12),
)


def _block_case(case):
    kind, *dims = case
    if kind == "chain":
        return build_subspace(SpinChainModel(*dims))
    if kind == "full":
        return full_space(BipartiteShape(*dims))
    if kind == "dense":
        return _stack_case(case)
    return index_subspace(*dims)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_system_blocks_partition_the_system_and_hold_every_reduced_state(case):
    sub = _block_case(case)
    d_s = sub.shape.dim_system
    blocks = [idx for idx, *_ in sub.block_slabs[0]]
    # the blocks partition the system indices some basis vector uses
    used = np.arange(d_s) if sub.one_hot is None else np.unique(sub.one_hot[0])
    assert np.array_equal(np.sort(np.concatenate(blocks)), used)
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    assert all(np.array_equal(b, np.sort(b)) for b in blocks)
    assert [b.tolist() for b in blocks] == [b.tolist() for b in occupied_blocks(sub)]
    if case[0] == "chain":
        # the occupied excitation shells
        shells = np.bitwise_count(np.arange(d_s))
        want = [np.flatnonzero(shells == m) for m in set(shells[sub.one_hot[0]].tolist())]
        assert sorted(map(tuple, blocks)) == sorted(map(tuple, want))
    if case[0] in ("full", "dense"):
        assert len(blocks) == 1
    on_blocks = np.zeros((d_s, d_s), dtype=bool)
    for b in blocks:
        on_blocks[np.ix_(b, b)] = True
    count = 5
    coords = np.stack([sample_coords(sub.dim_subspace, SampleStream(3, i)) for i in range(count)])
    rho = StateReducer(sub, count)(coords, np.full((count, d_s, d_s), np.nan, dtype=complex))
    for j in range(count):
        v = sub.embed(coords[j])
        want = partial_trace(np.outer(v, v.conj()), sub.shape)
        assert np.abs(rho[j] - want).max() <= 1e-14
        assert not rho[j][~on_blocks].any()
        unused = np.setdiff1d(np.arange(d_s), used)
        assert not rho[j][unused].any() and not rho[j][:, unused].any()


def test_block_work_rows_of_a_half_filled_chain_hold_d_r_entries():
    # one row per environment group and system string would be 2**20 entries
    sub = build_subspace(SpinChainModel(20, 10, 10))
    assert StateReducer.sizes(sub)[0] == math.comb(20, 10) == sub.dim_subspace


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(STACK_CASES),
    seed=st.integers(0, 2**33),
    start=st.integers(0, 2**33),
    count=st.integers(1, 9),
)
@example(case=("dense", 4, 64, 200), seed=3, start=0, count=9)
@example(case=("index", 4, 8, 32), seed=3, start=0, count=9)
def test_stacks_and_stacks_of_one_match_the_per_trial_code(case, seed, start, count):
    sub = _stack_case(case)
    d_r, d_s = sub.dim_subspace, sub.shape.dim_system
    normals = np.empty((count, 2, d_r))
    for j in range(count):
        SampleStream(seed, start + j).rng().standard_normal(out=normals[j])
    coords = np.empty((count, d_r), dtype=complex)
    assert normalize_draws(normals, coords).size == 0
    rho = StateReducer(sub, count)(coords, np.full((count, d_s, d_s), np.nan, dtype=complex))
    generated = {}
    for chunk in (1, 7, 64):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK", chunk)
            drawn = sample_states(sub, seed, start, count)
            stacks = [(lo, c.copy(), r.copy()) for lo, c, r in drawn]
        assert [lo for lo, _, _ in stacks] == list(range(0, count, len(stacks[0][1])))
        generated[chunk] = [np.concatenate(part) for part in list(zip(*stacks))[1:]]
    for j in range(count):
        stream = SampleStream(seed, start + j)
        want = _per_trial_draw(stream.rng(), d_r)
        assert sample_coords(d_r, stream).tobytes() == want.tobytes()
        assert coords[j].tobytes() == want.tobytes()
        want_rho = _per_trial_reduction(sub, want)
        assert reduced_state_from_coords(sub, want).tobytes() == want_rho.tobytes()
        assert rho[j].tobytes() == want_rho.tobytes()
        for stacked_coords, stacked_rho in generated.values():
            assert stacked_coords[j].tobytes() == want.tobytes()
            assert stacked_rho[j].tobytes() == want_rho.tobytes()


def test_normalize_draws_leaves_short_rows_to_the_caller():
    normals = np.zeros((3, 2, 4))
    normals[1, 0, 2] = 2.0
    coords = np.empty((3, 4), dtype=complex)
    assert normalize_draws(normals, coords).tolist() == [0, 2]
    assert np.array_equal(coords[1], [0, 0, 1, 0])


def test_single_dimension_subspace_is_deterministic(draw_states):
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    sub = from_basis_vectors(BipartiteShape(2, 2), [v])
    (phi,), _ = draw_states(sub, 3, 5, 1)
    assert abs(abs(phi[0]) - 1.0) < 1e-12
    # up to a global phase this is the basis state itself
    assert np.allclose(np.abs(sub.embed(phi)), np.abs(v))


def test_same_stream_is_bit_identical(draw_states):
    sub = three_spin_subspace()
    a, _ = draw_states(sub, 123, 9, 1)
    b, _ = draw_states(sub, 123, 9, 1)
    assert np.array_equal(a, b)
    c, _ = draw_states(sub, 123, 10, 1)
    assert not np.array_equal(a, c)


def test_first_moment_of_overlap(draw_states):
    # Haar moment: E |<b_1|phi>|^2 = 1 / d_R
    sub = three_spin_subspace()
    n = 10_000
    overlaps = np.abs(draw_states(sub, 7, 0, n)[0][:, 0]) ** 2
    se = overlaps.std(ddof=1) / np.sqrt(n)
    assert abs(overlaps.mean() - 1 / 3) < 5 * se


def test_product_state_in_full_space_has_pure_marginal():
    shape = BipartiteShape(2, 3)
    sub = full_space(shape)
    coords = np.kron(
        np.array([0.6, 0.8j]), np.array([1.0, 0.0, 0.0])
    ).astype(complex)
    rho = reduced_state_from_coords(sub, coords)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_one_hot_fast_path_matches_dense_route(draw_states):
    sub = three_spin_subspace()
    dense = from_basis_vectors(sub.shape, sub.basis)  # same space, no index form
    assert dense.one_hot is None
    coords, rhos = draw_states(sub, 5, 0, 25)
    dense_coords, dense_rhos = draw_states(dense, 5, 0, 25)
    assert np.array_equal(coords, dense_coords)
    for rho, dense_rho in zip(rhos, dense_rhos):
        assert np.allclose(rho, dense_rho, atol=1e-12)


def test_mean_reduced_state_converges_to_ensemble(draw_states):
    # <rho_S> = Omega_S: the running average approaches it, 5 seeds averaged
    sub = three_spin_subspace()
    omega = canonical_ensemble(sub).system_state
    sizes = (100, 1000, 10_000)
    distances = np.zeros(len(sizes))
    for seed in range(5):
        _, rhos = draw_states(sub, seed, 0, sizes[-1])
        for level, n in enumerate(sizes):
            distances[level] += trace_norm(rhos[:n].sum(axis=0) / n - omega)
    distances /= 5
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] <= 5 / np.sqrt(10_000) * np.sqrt(2)


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    values = np.concatenate([a, b])
    values.sort()
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_unitary_invariance_of_distance_distribution(draw_states):
    # rotating the basis inside the subspace leaves ||rho_S - Omega_S||
    # distributed identically (two-sample KS at alpha = 0.01)
    rng = np.random.default_rng(2718)
    shape = BipartiteShape(2, 4)
    sub = random_subspace(shape, 5, rng)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(g)
    rotated = ConstraintSubspace(shape, dense_basis=u @ sub.basis)
    omega = canonical_ensemble(sub).system_state
    omega_rot = canonical_ensemble(rotated).system_state
    assert np.allclose(omega, omega_rot, atol=1e-10)

    n = 2000
    arm_a = np.abs(np.linalg.eigvalsh(draw_states(sub, 10, 0, n)[1] - omega)).sum(axis=1)
    arm_b = np.abs(np.linalg.eigvalsh(draw_states(rotated, 11, 0, n)[1] - omega)).sum(axis=1)
    stat = _ks_two_sample(arm_a, arm_b)
    critical = np.sqrt(-np.log(0.01 / 2) / 2) * np.sqrt(2 * n / (n * n))
    assert stat < critical


def test_pure_state_fields_consistent(draw_states):
    sub = three_spin_subspace()
    (phi,), _ = draw_states(sub, 2, 4, 1)
    assert phi.shape == (sub.dim_subspace,) and phi.dtype == complex
    assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-10)
