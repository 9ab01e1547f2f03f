"""Thermal-equilibrium quantum statistics of a dense, dipole-dipole coupled
two-level ensemble in the Dicke limit.

The package computes the Gibbs steady state over the symmetric subspace,
the scattered-light intensity and zero-delay second-order correlation
g2(0), closed-form limiting expressions with a validator, and the
master-equation relaxation of the Dicke-level populations, plus a CSV/JSON
command-line front end.

Code units: omega0 = hbar = k_B = 1 and Gamma(omega0) = 1.

The package exports the __all__ of core, correlators, asymptotics,
dynamics and exceptions, in that order, and nothing else; sweep and cli
are reached as modules (dicke_therm.sweep, dicke_therm.cli).
"""

__version__ = "0.1.0"

from . import asymptotics, core, correlators, dynamics, exceptions
from .asymptotics import *
from .core import *
from .correlators import *
from .dynamics import *
from .exceptions import *

__all__ = ["__version__", *core.__all__, *correlators.__all__, *asymptotics.__all__,
           *dynamics.__all__, *exceptions.__all__]
