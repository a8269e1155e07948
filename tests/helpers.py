"""Random Hermitian matrices and states for the tests."""

import numpy as np


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex vector with Gaussian amplitudes."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
