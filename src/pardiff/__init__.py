"""pardiff: partial difference equations on uniform grids.

Stencil construction and application, elliptic/hyperbolic/parabolic
classification via the coefficient matrix, compactly supported smoothing
kernels with convolution validators, and Dirichlet solvers for the discrete
Laplace, Poisson, and biharmonic equations.
"""

__version__ = "0.1.0"

from .classify import (
    ClassificationReport,
    CoefficientMatrix,
    classify_at,
    classify_region,
    coefficient_matrix,
    eigen_symmetric,
)
from .elliptic import (
    ConvergenceRow,
    FundamentalSolution,
    HarnackVerdict,
    SolveReport,
    convergence_study,
    harmonicity_residual,
    harnack_limit,
    max_principle_check,
    mean_value_check,
    newtonian_potential,
    solve_biharmonic,
    solve_laplace_dirichlet,
    solve_poisson_dirichlet,
    sphere_area,
)
from .expr import CoeffExpr, ExprEvalError, ExprSyntaxError, evaluate, parse, to_string
from .grid import (
    GridFunction,
    GridSpec,
    load_grid,
    norm,
    restrict,
    sample,
    save_grid,
    shrink,
)
from .mollify import (
    MollifierKernel,
    bump,
    convolve,
    derivative_commute,
    l1_convergence,
    make_mollifier,
    mollifier_for,
)
from .stencil import (
    Stencil,
    StencilTerm,
    axis_difference,
    biharmonic_stencil,
    laplace_stencil,
    load_stencil,
    mixed_difference,
    residual,
    save_stencil,
)

__all__ = [
    "__version__",
    "CoeffExpr",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "to_string",
    "GridSpec",
    "GridFunction",
    "sample",
    "norm",
    "shrink",
    "restrict",
    "load_grid",
    "save_grid",
    "Stencil",
    "StencilTerm",
    "axis_difference",
    "mixed_difference",
    "laplace_stencil",
    "biharmonic_stencil",
    "residual",
    "load_stencil",
    "save_stencil",
    "CoefficientMatrix",
    "ClassificationReport",
    "coefficient_matrix",
    "eigen_symmetric",
    "classify_at",
    "classify_region",
    "MollifierKernel",
    "bump",
    "make_mollifier",
    "mollifier_for",
    "convolve",
    "l1_convergence",
    "derivative_commute",
    "FundamentalSolution",
    "SolveReport",
    "HarnackVerdict",
    "sphere_area",
    "newtonian_potential",
    "solve_laplace_dirichlet",
    "solve_poisson_dirichlet",
    "solve_biharmonic",
    "mean_value_check",
    "max_principle_check",
    "harnack_limit",
    "harmonicity_residual",
    "ConvergenceRow",
    "convergence_study",
]
