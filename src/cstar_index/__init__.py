"""Exact and desk-scale numerical checks for the index of circle-equivariant
line bundles over orbifold curves.

The package plays three independent computations of the same integer against
each other: a lattice-point count of invariant sections, a smooth
Riemann-Roch term corrected by exact cyclotomic fixed-point sums, and the
kernel/cokernel (or heat supertrace) of a truncated dbar complex.  A fourth
strand checks the fiber measure and weight projector that justify reading
the count as an equivariant index in the first place.

The root re-exports each module's `__all__`, and nothing else but
`__version__`: a public name is listed once, in its own module.
"""

from . import analytic, exact, galerkin, measure, model, topological
from .analytic import *
from .exact import *
from .galerkin import *
from .measure import *
from .model import *
from .topological import *

__version__ = "0.1.0"

__all__ = [
    *exact.__all__,
    *model.__all__,
    *analytic.__all__,
    *topological.__all__,
    *galerkin.__all__,
    *measure.__all__,
    "__version__",
]
