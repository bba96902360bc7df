"""Bound states and thermodynamics of the hyperbolic Poschl-Teller well.

Layers, bottom to top:

- specfun / jets / rootfind: special functions, products of truncated
  Taylor series on coefficient arrays, and bracketing root finding.
- aim: the generic iterative eigenvalue engine over Taylor-coefficient
  arrays.
- oracle: independent numerics (shooting solver, adaptive quadrature,
  Richardson finite differences) used to cross-check everything else.
- schrodinger / dirac: closed-form spectra, wavefunctions, and the
  transcendental relativistic level conditions.
- thermo: partition function and thermodynamic functions.
- molecules / refdata / tableio / cli: datasets, unit handling, and the
  deterministic CSV artifact layer.

The package exports the ``__all__`` of the aim, dirac, errors, molecules,
oracle, schrodinger, specfun and thermo layers, each of which declares
its public names once.
"""

from . import aim, dirac, errors, molecules, oracle, schrodinger, specfun, thermo
from .aim import *
from .dirac import *
from .errors import *
from .molecules import *
from .oracle import *
from .schrodinger import *
from .specfun import *
from .thermo import *

__version__ = "0.1.0"

# One += per layer: the form static checkers read as re-exports.
__all__: list[str] = []
__all__ += aim.__all__
__all__ += dirac.__all__
__all__ += errors.__all__
__all__ += molecules.__all__
__all__ += oracle.__all__
__all__ += schrodinger.__all__
__all__ += specfun.__all__
__all__ += thermo.__all__
