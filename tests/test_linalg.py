import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import (
    check_density_matrix,
    hs_norm,
    operator_norm,
    partial_trace,
    random_density,
    random_hermitian,
    sqrt_psd,
)
from typicality.errors import HermiticityError, ShapeMismatchError
from typicality.linalg import (
    BipartiteShape,
    add_product,
    complex_matrix_from_json,
    complex_matrix_to_json,
    trace_norm,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_shape_validation():
    shape = BipartiteShape(2, 3)
    assert shape.dim == 6
    with pytest.raises(ShapeMismatchError):
        BipartiteShape(0, 3)


def test_partial_trace_maximally_entangled():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(partial_trace(rho, BipartiteShape(2, 2), "system"), I2 / 2)
    assert np.allclose(partial_trace(rho, BipartiteShape(2, 2), "environment"), I2 / 2)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    sigma = random_density(2, rng)
    tau = random_density(3, rng)
    rho = np.kron(sigma, tau)
    shape = BipartiteShape(2, 3)
    assert np.allclose(partial_trace(rho, shape, "system"), sigma)
    assert np.allclose(partial_trace(rho, shape, "environment"), tau)


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(7)
    shape = BipartiteShape(2, 3)
    for _ in range(25):
        rho = random_density(6, rng)
        reduced = partial_trace(rho, shape, "system")
        # element-sum oracle for the trace
        assert abs(np.sum(np.diag(reduced)).real - 1.0) < 1e-12
        assert np.max(np.abs(reduced - reduced.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(reduced).min() > -1e-10


def test_partial_trace_shape_error():
    with pytest.raises(ShapeMismatchError):
        partial_trace(np.eye(6), BipartiteShape(2, 2), "system")


def test_trace_norm_cases():
    assert trace_norm(Z) == pytest.approx(2.0)
    rho = random_density(3, np.random.default_rng(1))
    assert trace_norm(rho - rho) == pytest.approx(0.0, abs=1e-14)
    # orthogonal pure states are perfectly distinguishable
    p0 = np.diag([1.0, 0]).astype(complex)
    p1 = np.diag([0, 1.0]).astype(complex)
    assert trace_norm(p0 - p1) == pytest.approx(2.0)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hs_norm():
    assert hs_norm(I2) == pytest.approx(np.sqrt(2))
    assert hs_norm(Z) == pytest.approx(np.sqrt(2))
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert hs_norm(m) ** 2 == pytest.approx(np.sum(np.abs(m) ** 2))


def test_operator_norm():
    assert operator_norm(np.eye(5, dtype=complex)) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, -5.0]).astype(complex)) == pytest.approx(5.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        h = random_hermitian(4, rng)
        assert operator_norm(h) <= hs_norm(h) + 1e-12
    with pytest.raises(HermiticityError):
        operator_norm(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("dim", range(2, 17))
def test_trace_norm_hs_norm_relation(dim):
    # ||M||_1 <= sqrt(n) ||M||_2 for n x n Hermitian M
    rng = np.random.default_rng(100 + dim)
    for _ in range(70):
        m = random_hermitian(dim, rng)
        assert trace_norm(m) <= np.sqrt(dim) * hs_norm(m) + 1e-10


def test_partial_trace_contracts_trace_norm():
    # purifications sharing the environment cannot become more distinguishable
    # after the environment is discarded
    rng = np.random.default_rng(42)
    shape = BipartiteShape(3, 4)
    for _ in range(40):
        v1 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v2 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v1 /= np.linalg.norm(v1)
        v2 /= np.linalg.norm(v2)
        p1 = np.outer(v1, v1.conj())
        p2 = np.outer(v2, v2.conj())
        global_dist = trace_norm(p1 - p2)
        local_dist = trace_norm(
            partial_trace(p1, shape, "system") - partial_trace(p2, shape, "system")
        )
        assert local_dist <= global_dist + 1e-10


def test_check_density_matrix():
    rho = random_density(3, np.random.default_rng(2))
    check_density_matrix(rho)
    with pytest.raises(ShapeMismatchError):
        check_density_matrix(2 * rho)
    with pytest.raises(HermiticityError):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.parametrize("n, pieces", [
    (1, [(0, 1)]),
    (127, [(0, 127)]),
    (128, [(0, 128)]),
    (129, [(0, 128), (128, 129)]),
    (210, [(0, 128), (128, 210)]),
    (300, [(0, 256), (256, 300)]),
    (9984, [(0, 9984)]),
    (9985, [(0, 9984), (9984, 9985)]),
    (12870, [(0, 9984), (9984, 12800), (12800, 12870)]),
])
def test_add_product_sums_in_order_over_its_pieces(n, pieces):
    # whole multiples of 128, at most 9 984 terms each, then a rest below 128
    rng = np.random.default_rng(n)
    a, b, acc = (rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
                 for shape in ((2, 3, n), (2, n, 4), (2, 3, 4)))
    want = acc.copy()
    for lo, hi in pieces:
        want = want + a[..., lo:hi] @ b[..., lo:hi, :]
    got = add_product(acc.copy(), a, b, np.empty_like(acc))
    assert got.tobytes() == want.tobytes()
    assert np.abs(got - (acc + a @ b)).max() <= 1e-12


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(8)
    eigs = rng.uniform(0, 1, size=4)
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    x = (basis * eigs) @ basis.conj().T
    root = sqrt_psd(x)
    assert np.max(np.abs(root @ root - x)) < 1e-10


def _reference_encode(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _reference_decode(obj):
    return np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)


#: Entries (NaN with a payload, signaling NaN), (-inf, least subnormal) and
#: (-0.0, inf), set bit by bit: arithmetic could quiet the NaNs.
ODD_ENTRIES = np.array(
    [0x7FF8000000000123, 0x7FF0000000000001, 0xFFF0000000000000, 1, 1 << 63, 0x7FF0000000000000],
    dtype=np.uint64,
).view(complex)


@given(
    arrays(
        complex,
        array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.complex_numbers(),
    )
)
@example(np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [-0.0j, 1e-310 - 2.5j]]))
@example(np.stack([ODD_ENTRIES, ODD_ENTRIES[::-1]]))
def test_complex_matrix_json_codec_is_bitwise(m):
    text = json.dumps(complex_matrix_to_json(m))
    back = complex_matrix_from_json(json.loads(text))
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()
    # the nested [re, im] pairs of earlier versions decode as they always did
    old = json.loads(json.dumps(_reference_encode(m)))
    old_back = complex_matrix_from_json(old)
    assert old_back.tobytes() == _reference_decode(old).tobytes()
    if not np.isnan(m).any():  # the decimal text keeps no NaN payload
        assert old_back.tobytes() == m.tobytes()


def test_complex_matrix_from_json_rejects_non_pairs():
    with pytest.raises(ShapeMismatchError):
        complex_matrix_from_json([[[1.0, 2.0, 3.0]]])
    with pytest.raises(ShapeMismatchError):
        complex_matrix_from_json([1.0, 2.0])
