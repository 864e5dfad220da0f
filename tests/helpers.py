"""Random matrices for property tests and Lipschitz probes."""

import numpy as np


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix, for property tests and Lipschitz probes."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
