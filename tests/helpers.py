"""Random Hermitian matrices and states, and the reference streams, for the tests."""

import numpy as np


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Stream ``index`` of ``seed`` straight from NumPy's own ``SeedSequence``:
    the reference the engines' keys must match bit for bit."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex vector with Gaussian amplitudes."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
