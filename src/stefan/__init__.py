"""Self-similar solutions of multi-phase Stefan problems with Riemann data.

The temperature profile of such a problem is piecewise an affine image
of a Gaussian antiderivative, and its interface positions are the
stationary points of an explicit convex-analytic energy.  This package
holds the problem data and the exact existence/uniqueness criteria
(``stefan.problem``), evaluates the kernel (``stefan.kernel``), builds
the energy with its gradient and Hessian (``stefan.energy``, which
exports the problem's names too), minimizes it (``stefan.optimize``,
with its settings and outcome types in ``stefan.options``), assembles
and verifies profiles (``stefan.solution``), and wraps everything in
the ``stefan`` command line tool (``stefan.cli``).

Each public name is declared once, in its layer's ``__all__``; the
package exports the energy's, the optimizer's and the solution's lists
in that order.  ``problem`` and ``options`` load with the package and
their names are bound from the start.  ``kernel``, ``energy``,
``optimize`` and ``solution`` are loaded on first use: each sits in
``sys.modules`` from ``import stefan`` on, and its body runs at the
first attribute read, so ``stefan check`` and ``stefan dump`` run none
of them.  The first read of a package name that is not bound yet (a
name of a lazy layer, or ``__all__``) loads the energy, the optimizer
and the solution and binds all their names here, through
``__getattr__``; a submodule not imported yet is no such name, so
``from stefan import cli`` loads no layer.
"""

import importlib.machinery
import importlib.util
import sys

from .options import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403


def _lazy(name):
    """stefan.<name>, registered in sys.modules; its body runs on the
    first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


kernel = _lazy("kernel")
# the package's `energy` is the function, once bound
_energy = _lazy("energy")
optimize = _lazy("optimize")
solution = _lazy("solution")


def __getattr__(name):
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules and importlib.machinery.PathFinder.find_spec(
            fullname, __path__):
        # `from stefan import cli` probes for the attribute before it
        # imports the submodule; finding none, it imports just that
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # binds every name of the three layers, then drops itself and __dir__, so
    # the package is a plain module again: CPython 3.11 specializes attribute
    # reads only on modules without a __getattr__, and a caller may read
    # stefan.<name> once per profile sample
    names = globals()
    layers = (_energy, optimize, solution)
    for layer in layers:
        names.update((key, getattr(layer, key)) for key in layer.__all__)
    names["__all__"] = [key for layer in layers for key in layer.__all__]
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
