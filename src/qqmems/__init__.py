"""Entanglement negativity maximization for qubit-qutrit (2x3) systems.

Closed-form negativity of X states, maximal X states for a fixed spectrum or
a fixed purity (rank-2, rank-3, triply degenerate), numerical verification of
the SDP optimality certificates, TGX candidate maximization, and an alternate
convex search for the unconstrained fixed-purity maximum.

The package exports the names in each library module's __all__.
"""

from .linalg import *
from .xstate import *
from .spectrum import *
from .purity_mems import *
from .tgx import *
from .acs import *
from . import acs, linalg, purity_mems, spectrum, tgx, xstate

__all__ = [name for m in (linalg, xstate, spectrum, purity_mems, tgx, acs) for name in m.__all__]
__version__ = "0.1.0"
