"""Exception taxonomy shared by all cpsim modules.

The CLI maps these onto process exit codes: configuration problems exit
with 2, violated physics contracts with 3, quadrature convergence
failures with 4.
"""


class CpsimError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(CpsimError):
    """A documented precondition or postcondition was violated."""


class DomainError(CpsimError):
    """Input lies outside the mathematical domain of an operation."""


class StepSizeError(CpsimError):
    """Integrator step too large for the requested accuracy regime."""


class ConvergenceError(CpsimError):
    """An iteration or adaptive quadrature did not converge; the message
    says how far it got."""


class ConfigError(CpsimError):
    """Experiment configuration file is malformed or inconsistent."""
