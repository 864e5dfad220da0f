import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from typicality.errors import SubspaceMismatchError
from typicality.linalg import BipartiteShape, trace_norm
from typicality.sampling import (
    PureState,
    SampleStream,
    StateReducer,
    draw_coords,
    normalize_draws,
    pcg64_states,
    reduced_state,
    reduced_state_from_coords,
    sample_coords,
    sample_pure,
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
    for i, (state, inc) in zip(range(start, start + count), pcg64_states(seed, start, count)):
        reference = np.random.default_rng([seed, i]).bit_generator.state
        assert reference["state"] == {"state": state, "inc": inc}
        assert (reference["has_uint32"], reference["uinteger"]) == (0, 0)


@pytest.mark.parametrize("seed, start, count", [
    (-1, 0, 1), (WORD, 0, 1), (0, -1, 1), (0, WORD - 1, 2),
])
def test_chunk_seeding_rejects_multi_word_entropy(seed, start, count):
    with pytest.raises(ValueError):
        pcg64_states(seed, start, count)


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
    """The reduction before stacking: 2-d scatter or embedding, then one product."""
    groups = sub.env_groups
    if groups is not None:
        group, sys_idx, n_groups = groups
        m = np.zeros((n_groups, sub.shape.dim_system), dtype=complex)
        m[group, sys_idx] = coords
        return m.T @ m.conj()
    m = sub.embed(coords).reshape(sub.shape.dim_system, sub.shape.dim_environment)
    return m @ m.conj().T


#: Chains (n, k, excitations) with d_S = 2, 4, 8, 16, then dense subspaces
#: (d_S, d_E, d_R).
STACK_CASES = (
    ("chain", 6, 1, 3), ("chain", 8, 2, 4), ("chain", 7, 3, 3), ("chain", 10, 4, 5),
    ("dense", 3, 4, 5), ("dense", 8, 16, 40),
)


@functools.cache
def _stack_case(case):
    kind, a, b, c = case
    if kind == "chain":
        return build_subspace(SpinChainModel(a, b, c))
    return random_subspace(BipartiteShape(a, b), c, np.random.default_rng(4))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(STACK_CASES),
    seed=st.integers(0, 2**33),
    start=st.integers(0, 2**33),
    count=st.integers(1, 9),
)
def test_stacks_and_stacks_of_one_match_the_per_trial_code(case, seed, start, count):
    sub = _stack_case(case)
    d_r, d_s = sub.dim_subspace, sub.shape.dim_system
    normals = np.empty((count, 2, d_r))
    for j in range(count):
        SampleStream(seed, start + j).rng().standard_normal(out=normals[j])
    coords = np.empty((count, d_r), dtype=complex)
    assert normalize_draws(normals, coords).size == 0
    rho = StateReducer(sub, count)(coords, np.empty((count, d_s, d_s), dtype=complex))
    for j in range(count):
        stream = SampleStream(seed, start + j)
        want = _per_trial_draw(stream.rng(), d_r)
        assert draw_coords(stream.rng(), d_r).tobytes() == want.tobytes()
        assert coords[j].tobytes() == want.tobytes()
        want_rho = _per_trial_reduction(sub, want)
        assert reduced_state_from_coords(sub, want).tobytes() == want_rho.tobytes()
        assert rho[j].tobytes() == want_rho.tobytes()


def test_normalize_draws_leaves_short_rows_to_the_caller():
    normals = np.zeros((3, 2, 4))
    normals[1, 0, 2] = 2.0
    coords = np.empty((3, 4), dtype=complex)
    assert normalize_draws(normals, coords).tolist() == [0, 2]
    assert np.array_equal(coords[1], [0, 0, 1, 0])


def test_single_dimension_subspace_is_deterministic():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    sub = from_basis_vectors(BipartiteShape(2, 2), [v])
    phi = sample_pure(sub, SampleStream(seed=3, index=5))
    assert abs(abs(phi.coords[0]) - 1.0) < 1e-12
    # up to a global phase this is the basis state itself
    assert np.allclose(np.abs(phi.ambient), np.abs(v))


def test_same_stream_is_bit_identical():
    sub = three_spin_subspace()
    a = sample_pure(sub, SampleStream(seed=123, index=9))
    b = sample_pure(sub, SampleStream(seed=123, index=9))
    assert np.array_equal(a.coords, b.coords)
    c = sample_pure(sub, SampleStream(seed=123, index=10))
    assert not np.array_equal(a.coords, c.coords)


def test_first_moment_of_overlap():
    # Haar moment: E |<b_1|phi>|^2 = 1 / d_R
    sub = three_spin_subspace()
    n = 10_000
    overlaps = np.array(
        [abs(sample_coords(3, SampleStream(7, i))[0]) ** 2 for i in range(n)]
    )
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


def test_reduced_state_requires_matching_subspace():
    sub = three_spin_subspace()
    other = full_space(BipartiteShape(2, 4))
    phi = sample_pure(sub, SampleStream(1, 0))
    with pytest.raises(SubspaceMismatchError):
        reduced_state(phi, other)


def test_one_hot_fast_path_matches_dense_route():
    sub = three_spin_subspace()
    dense = from_basis_vectors(sub.shape, sub.basis)  # same space, no index form
    assert dense.one_hot is None
    for i in range(25):
        coords = sample_coords(3, SampleStream(5, i))
        assert np.allclose(
            reduced_state_from_coords(sub, coords),
            reduced_state_from_coords(dense, coords),
            atol=1e-12,
        )


def test_mean_reduced_state_converges_to_ensemble():
    # <rho_S> = Omega_S: the running average approaches it, 5 seeds averaged
    sub = three_spin_subspace()
    omega = canonical_ensemble(sub).system_state
    sizes = (100, 1000, 10_000)
    distances = np.zeros(len(sizes))
    for seed in range(5):
        acc = np.zeros((2, 2), dtype=complex)
        drawn = 0
        for level, n in enumerate(sizes):
            while drawn < n:
                coords = sample_coords(3, SampleStream(seed, drawn))
                acc += reduced_state_from_coords(sub, coords)
                drawn += 1
            distances[level] += trace_norm(acc / n - omega)
    distances /= 5
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] <= 5 / np.sqrt(10_000) * np.sqrt(2)


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    values = np.concatenate([a, b])
    values.sort()
    cdf_a = np.searchsorted(np.sort(a), values, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), values, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def test_unitary_invariance_of_distance_distribution():
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
    arm_a = np.array(
        [
            trace_norm(reduced_state_from_coords(sub, sample_coords(5, SampleStream(10, i))) - omega)
            for i in range(n)
        ]
    )
    arm_b = np.array(
        [
            trace_norm(
                reduced_state_from_coords(rotated, sample_coords(5, SampleStream(11, i))) - omega
            )
            for i in range(n)
        ]
    )
    stat = _ks_two_sample(arm_a, arm_b)
    critical = np.sqrt(-np.log(0.01 / 2) / 2) * np.sqrt(2 * n / (n * n))
    assert stat < critical


def test_pure_state_fields_consistent():
    sub = three_spin_subspace()
    phi = sample_pure(sub, SampleStream(2, 4))
    assert isinstance(phi, PureState)
    assert np.allclose(phi.ambient, sub.embed(phi.coords))
    assert np.linalg.norm(phi.coords) == pytest.approx(1.0, abs=1e-10)
