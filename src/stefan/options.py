"""The settings and outcome types of ``minimize``, apart from the solver.

``SolveOptions`` and ``SolveStatus`` are all that reading a config
(``cli.load_config``), echoing it (``stefan dump``) and the CLI's
exit-code table need, and ``NewtonBreakdown`` is one of the errors the
CLI reports; they live here so that those paths run without loading
``stefan.optimize``, which imports them back and exports them.
"""

import math
from dataclasses import dataclass
from enum import Enum

__all__ = ["SolveOptions", "SolveStatus", "NewtonBreakdown"]


class NewtonBreakdown(RuntimeError):
    """Raised when the Hessian is not finite, so no damping can help, or
    when the damping overflows before any trial is usable."""


@dataclass(frozen=True)
class SolveOptions:
    """Settings of ``minimize``.

    grad_tol: the gradient max-norm at or below which a point with all
        Hessian pivots positive is a certified minimum; finite, since an
        infinite one certifies any start with positive pivots.
    max_iter: the most Newton steps a solve may take.
    xi_max: kept as a field, a config key and in ``stefan dump``, and
        still checked to be positive and finite, but it no longer
        affects a solve: ``minimize`` decides divergence by the
        coercivity verdict, not by an iterate leaving [-xi_max, xi_max].
    boundary_fraction: the longest first trial of a line search, as a
        fraction of the way to the first collision of two fronts.
    damping_min: the least positive damping lambda of a Newton step;
        every positive lambda tried is damping_min * 2**k.
    """

    grad_tol: float = 1e-12
    max_iter: int = 200
    xi_max: float = 1e2
    boundary_fraction: float = 0.9
    damping_min: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError("grad_tol must be positive and finite")
        if not (self.max_iter % 1 == 0 and self.max_iter >= 1):
            raise ValueError("max_iter must be a whole number, at least 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if not 0.0 < self.xi_max < math.inf:
            raise ValueError("xi_max must be positive and finite")
        if not 0.0 < self.boundary_fraction < 1.0:
            raise ValueError("boundary_fraction must lie in (0, 1)")
        if not 0.0 < self.damping_min < math.inf:
            raise ValueError("damping_min must be positive and finite")


# minimize's default settings; frozen, so one instance serves every call
_DEFAULT_OPTIONS = SolveOptions()


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    MAX_ITERATIONS = "MaxIterations"
