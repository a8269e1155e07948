"""Collapse-point model simulator and verification suite."""

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
from .measurement import (BornReport, born_experiment,
                          decoherence_vs_reduction, premeasure, wilson_interval)
from .operators import (FockBasis, OperatorFamily, SmearingFunction,
                        build_grw_family, build_smeared_mass, build_smeared_number,
                        first_quantized_equiv_check, grw_gaussian)
