"""Exception hierarchy for the package.

Exception class names double as the machine-readable error tokens printed
by the command-line front end, so they are part of the public interface.
"""

__all__ = ["DickeError", "ParameterError", "ZeroAtoms", "NonPositiveX", "EtaOutOfRange",
           "SingleAtomWithCoupling", "ZeroIntensity", "DimensionMismatch", "IntegrationError",
           "StepTooLarge", "NonFiniteState"]


class DickeError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(DickeError, ValueError):
    """Invalid ensemble parameters."""


class ZeroAtoms(ParameterError):
    """Atom count below one."""


class NonPositiveX(ParameterError):
    """Inverse temperature x must be positive and finite."""


class EtaOutOfRange(ParameterError):
    """Coupling ratio eta outside the admissible window."""


class SingleAtomWithCoupling(ParameterError):
    """eta != 0 makes no sense for N = 1 (no partner to couple to)."""


class ZeroIntensity(DickeError, ArithmeticError):
    """The intensity underflows to zero at double precision.

    The regime is numerically empty; use the closed-form asymptotics
    instead of the exact sums.
    """


class DimensionMismatch(DickeError, ValueError):
    """Array sizes disagree: a density matrix that does not match the
    ensemble size, or correlator inputs built from different ensembles."""


class IntegrationError(DickeError, RuntimeError):
    """Time integration failed."""


class StepTooLarge(IntegrationError):
    """The RK4 step is unstable for the generator, or the trace changes by
    more than the bound over one sample interval."""


class NonFiniteState(IntegrationError):
    """The integrated state left the space of finite matrices."""
