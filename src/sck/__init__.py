"""sck: numerical controllability analysis for linear stochastic systems.

Library layers: :mod:`sck.systems` holds the matrix system type and operator
calculus; :mod:`sck.controllability` the algebraic tests and the combined
verdict; :mod:`sck.galerkin` the spectral assembly of 1-D heat-type systems;
:mod:`sck.sde` / :mod:`sck.bsde` the seeded Monte Carlo engine for the
forward equation, its dual backward equation, and the identity checks built
on them.  :mod:`sck.cli` wraps everything behind a subcommand interface.
The package re-exports every library module's public names.
"""

__version__ = "0.1.0"

from . import bsde, controllability, galerkin, sde, systems
from .bsde import *
from .controllability import *
from .galerkin import *
from .sde import *
from .systems import *

__all__ = ["__version__", *bsde.__all__, *controllability.__all__, *galerkin.__all__,
           *sde.__all__, *systems.__all__]
