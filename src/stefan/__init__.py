"""Self-similar solutions of multi-phase Stefan problems with Riemann data.

The temperature profile of such a problem is piecewise an affine image
of a Gaussian antiderivative, and its interface positions are the
stationary points of an explicit convex-analytic energy.  This package
evaluates that kernel (``stefan.kernel``), builds the energy with its
gradient, Hessian and exact existence/uniqueness criteria
(``stefan.energy``), minimizes it (``stefan.optimize``), assembles and
verifies profiles (``stefan.solution``), and wraps everything in the
``stefan`` command line tool (``stefan.cli``).
"""

from .energy import (
    EnergyOverflow,
    FreeBoundaries,
    HessianParts,
    InfeasiblePoint,
    InvalidProblem,
    ProblemSpec,
    WellPosednessReport,
    check_wellposedness,
    energy,
    gradient,
    hessian,
    hessian_parts,
)
from .optimize import (
    GridSearchResult,
    IterationRecord,
    NewtonBreakdown,
    SolveOptions,
    SolveResult,
    SolveStatus,
    grid_search,
    minimize,
    newton_step,
    ray_point,
    single_front_bisection,
)
from .solution import (
    ResidualReport,
    SelfSimilarSolution,
    assemble,
    evaluate_profile,
    evaluate_spacetime,
    profile_curvature,
    profile_slope,
    stefan_residuals,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "EnergyOverflow",
    "FreeBoundaries",
    "GridSearchResult",
    "HessianParts",
    "InfeasiblePoint",
    "InvalidProblem",
    "IterationRecord",
    "NewtonBreakdown",
    "ProblemSpec",
    "ResidualReport",
    "SelfSimilarSolution",
    "SolveOptions",
    "SolveResult",
    "SolveStatus",
    "WellPosednessReport",
    "assemble",
    "check_wellposedness",
    "energy",
    "evaluate_profile",
    "evaluate_spacetime",
    "grid_search",
    "gradient",
    "hessian",
    "hessian_parts",
    "minimize",
    "newton_step",
    "profile_curvature",
    "profile_slope",
    "ray_point",
    "single_front_bisection",
    "stefan_residuals",
    "validate",
]
