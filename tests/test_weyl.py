import numpy as np
import pytest

from helpers import (
    coefficient_identity_gap,
    hs_distance_from_coefficients,
    hs_norm,
    max_coefficient_deviation,
    random_density,
    reconstruct,
)
from typicality.errors import ShapeMismatchError
from typicality.linalg import trace_norm
from typicality.weyl import coefficients, weyl_basis


def test_qubit_basis_is_i_x_z_miy():
    ops = weyl_basis(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(ops[0], np.eye(2))
    assert np.allclose(ops[1], x)
    assert np.allclose(ops[2], z)
    assert np.allclose(ops[3], -1j * y)


def test_single_dimension_basis():
    ops = weyl_basis(1)
    assert ops.shape == (1, 1, 1)
    assert ops[0, 0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("dim", range(1, 9))
def test_orthogonality_and_unitarity(dim):
    ops = weyl_basis(dim)
    for x in range(dim * dim):
        u = ops[x]
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10
        for y in range(dim * dim):
            inner = np.trace(ops[x].conj().T @ ops[y])
            expected = dim if x == y else 0.0
            assert abs(inner - expected) < 1e-10


def test_coefficients_of_maximally_mixed():
    for dim in (2, 3, 5):
        ops = weyl_basis(dim)
        c = coefficients(ops, np.eye(dim) / dim)
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c[1:])) < 1e-12


def test_coefficients_of_projector():
    ops = weyl_basis(2)
    c = coefficients(ops, np.diag([1.0, 0.0]).astype(complex))
    assert np.allclose(c, [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_coefficients_dimension_mismatch():
    with pytest.raises(ShapeMismatchError):
        coefficients(weyl_basis(2), np.eye(3))


def test_reconstruction_roundtrip():
    rng = np.random.default_rng(6)
    for dim in (2, 3, 4):
        ops = weyl_basis(dim)
        for _ in range(100):
            rho = random_density(dim, rng)
            rebuilt = reconstruct(ops, coefficients(ops, rho))
            assert np.max(np.abs(rebuilt - rho)) < 1e-10


def test_hs_identity_worked_example():
    ops = weyl_basis(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    omega = np.eye(2) / 2
    d = hs_distance_from_coefficients(coefficients(ops, rho), coefficients(ops, omega), 2)
    assert d == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert d == pytest.approx(hs_norm(rho - omega), rel=1e-12)
    assert hs_distance_from_coefficients(coefficients(ops, rho), coefficients(ops, rho), 2) == 0.0


@pytest.mark.parametrize("dim", (2, 3, 4, 8))
def test_hs_identity_random_pairs(dim):
    rng = np.random.default_rng(40 + dim)
    ops = weyl_basis(dim)
    for _ in range(100):
        rho = random_density(dim, rng)
        omega = random_density(dim, rng)
        assert coefficient_identity_gap(ops, rho, omega) < 1e-10


def test_max_deviation_examples():
    ops = weyl_basis(2)
    omega = np.eye(2) / 2
    assert max_coefficient_deviation(ops, omega, omega) == pytest.approx(0.0, abs=1e-14)
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert max_coefficient_deviation(ops, rho, omega) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dim", (2, 3, 5, 8))
def test_norm_chain_through_coefficients(dim):
    # ||.||_1 <= sqrt(d) ||.||_2 <= d * max coefficient deviation
    rng = np.random.default_rng(60 + dim)
    ops = weyl_basis(dim)
    for _ in range(100):
        rho = random_density(dim, rng)
        omega = random_density(dim, rng)
        t = trace_norm(rho - omega)
        h = hs_norm(rho - omega)
        dev = max_coefficient_deviation(ops, rho, omega)
        assert t <= np.sqrt(dim) * h + 1e-10
        assert np.sqrt(dim) * h <= dim * dev + 1e-10
