"""Collapse-point model simulator and verification suite.

Importing cpsim sets NumPy's bundled OpenBLAS to one thread, for the whole
process (``BLAS_ONE_THREAD`` says whether it could).
"""

import ctypes
import glob
import os

import numpy as np

__version__ = "0.1.0"

from .dynamics import ModelParams, ensemble_vs_master, flash_rate_density, integrate_master
from .errors import (ConfigError, ContractViolationError, ConvergenceError,
                     CpsimError, DomainError, StepSizeError)
from .exact import CollapsePoint, FlashRecord, enumerate_chain, interact_once, markov_check
from .gravity import (DephasingCurve, GravityParams, compute_dephasing_curve,
                      energy_after_flash, gamma_asymptotic, gamma_of_d,
                      grav_master_dephasing_check, grav_profile_F, grav_unitary,
                      macro_potential, probe_line_family)
from .hilbert import SpatialGrid
from .measurement import BornReport, born_experiment, premeasure, wilson_interval
from .operators import (FockBasis, OperatorFamily, SmearingFunction,
                        build_grw_family, build_smeared_mass, build_smeared_number,
                        first_quantized_equiv_check, grw_gaussian)


def _one_blas_thread() -> bool:
    """Set NumPy's bundled OpenBLAS to one thread, for every caller in the
    process: at the bench's 64 nodes its second thread wakes for a complex
    product or factorisation and then spins for longer than the call takes.
    False, having done nothing, where no bundled library has the setter."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)
            return True
    return False


#: whether importing cpsim set NumPy's OpenBLAS to one thread
BLAS_ONE_THREAD = _one_blas_thread()
