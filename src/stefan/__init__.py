"""Self-similar solutions of multi-phase Stefan problems with Riemann data.

The temperature profile of such a problem is piecewise an affine image
of a Gaussian antiderivative, and its interface positions are the
stationary points of an explicit convex-analytic energy.  This package
evaluates that kernel (``stefan.kernel``), builds the energy with its
gradient, Hessian and exact existence/uniqueness criteria
(``stefan.energy``), minimizes it (``stefan.optimize``, with its
settings and outcome types in ``stefan.options``), assembles and
verifies profiles (``stefan.solution``), and wraps everything in the
``stefan`` command line tool (``stefan.cli``).

Each public name is declared once, in its layer's ``__all__``; the
package exports the three lists in layer order.  ``optimize`` and
``solution`` are loaded on first use: both sit in ``sys.modules`` from
``import stefan`` on, and the body of each runs at the first attribute
read, so ``stefan check`` and ``stefan dump`` never run them.  The first
read of a package name that is not bound yet (a name of either layer,
or ``__all__``) loads both and binds all their names here, through
``__getattr__``.
"""

import importlib.util
import sys

from . import energy as _energy
from .energy import *  # noqa: F401,F403
from .options import *  # noqa: F401,F403


def _lazy(name):
    """stefan.<name>, registered in sys.modules; its body runs on the
    first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


optimize = _lazy("optimize")
solution = _lazy("solution")


def __getattr__(name):
    # binds every name of both layers, then drops itself and __dir__, so the
    # package is a plain module again: CPython 3.11 specializes attribute
    # reads only on modules without a __getattr__, and a caller may read
    # stefan.<name> once per profile sample
    names = globals()
    for layer in (optimize, solution):
        names.update((key, getattr(layer, key)) for key in layer.__all__)
    names["__all__"] = _energy.__all__ + optimize.__all__ + solution.__all__
    names.pop("__getattr__", None)
    names.pop("__dir__", None)
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())


__version__ = "0.1.0"
