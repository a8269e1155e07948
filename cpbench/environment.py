"""Environment record kept beside every benchmark result, and the host probe.

The host probe times a fixed NumPy kernel and a fixed pure-Python loop.
It runs before and after each workload so that drift in the host's
speed shows in the record; no metric is ever rescaled by it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy


def host_probe() -> float:
    """Seconds for a fixed NumPy plus pure-Python workload."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((120, 120))
    t0 = time.perf_counter()
    for _ in range(40):
        a = np.tanh(a @ a.T * 1e-2)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


#: (thread count, build config) entry points of the OpenBLAS builds NumPy ships with
_OPENBLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
                     ("openblas_get_num_threads", "openblas_get_config"))


def _blas() -> dict:
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None,
           "config": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_SYMBOLS:
            get_threads = getattr(lib, threads_name, None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config = getattr(lib, config_name)
            get_config.restype = ctypes.c_char_p
            out["threads"] = int(get_threads())
            out["config"] = get_config().decode()
            return out
    return out


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(root),
        "machine": platform.machine(),
    }
