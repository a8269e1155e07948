"""Random Hermitian matrices and states, the reference streams and the
benchmark's configs, for the tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


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


def bench_workloads():
    """The benchmark's config module, ``cpbench/workloads.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("cpbench_workloads",
                                                  ROOT / "cpbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
