"""Entropy minimization over countable index sets.

Solvers for the problem of minimizing sum p_n W(u_n / p_n) over nonnegative
sequences matching two moment constraints sum u_n = u, sum sigma_n u_n = v,
for the maxwell-boltzmann, bose-einstein and fermi-dirac entropies.

The package re-exports the public names (__all__) of entropies, errors,
finite, sequences, series and solver.
"""

from . import entropies, errors, finite, sequences, series, solver
from .entropies import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .finite import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (entropies, errors, finite, sequences, series, solver)
    for name in module.__all__
]
