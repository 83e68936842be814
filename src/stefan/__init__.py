"""Self-similar solutions of multi-phase Stefan problems with Riemann data.

The temperature profile of such a problem is piecewise an affine image
of a Gaussian antiderivative, and its interface positions are the
stationary points of an explicit convex-analytic energy.  This package
evaluates that kernel (``stefan.kernel``), builds the energy with its
gradient, Hessian and exact existence/uniqueness criteria
(``stefan.energy``), minimizes it (``stefan.optimize``), assembles and
verifies profiles (``stefan.solution``), and wraps everything in the
``stefan`` command line tool (``stefan.cli``).

Each public name is declared once, in its layer's ``__all__``; the
package exports the three lists in layer order.
"""

from . import energy, optimize, solution

# `energy` names the module here; the star import below rebinds it to the
# energy function, which is the public `stefan.energy`
__all__ = energy.__all__ + optimize.__all__ + solution.__all__

from .energy import *  # noqa: E402,F401,F403
from .optimize import *  # noqa: E402,F401,F403
from .solution import *  # noqa: E402,F401,F403

__version__ = "0.1.0"
