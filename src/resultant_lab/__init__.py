"""Hidden-variable resultant solvers for polynomial systems expressed in
degree-graded bases (monomial, Chebyshev, Legendre, or custom recurrences).

The package builds Cayley and Sylvester resultant matrix polynomials
directly in the working basis, solves the resulting polynomial
eigenvalue problems through basis-aware linearizations, recovers full
roots from eigenvector structure, and reports conditioning for both the
eigenvalue and the root.

Each module lists its public names in its own __all__; the package
re-exports them all."""

from . import basis, cayley, matpoly, multipoly, rootfinder, sylvester
from .basis import *  # noqa: F401,F403
from .cayley import *  # noqa: F401,F403
from .matpoly import *  # noqa: F401,F403
from .multipoly import *  # noqa: F401,F403
from .rootfinder import *  # noqa: F401,F403
from .sylvester import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for mod in (basis, multipoly, matpoly, cayley, sylvester, rootfinder)
    for name in mod.__all__]
