"""Argument checks: each kind of argument is refused by one rule with one message.

Lengths, spacings and radii must be positive and finite, point coordinates
finite and the maximum-principle tolerance nonnegative.  Every refusal is a
``ValueError`` raised before any work, with no ``RuntimeWarning`` on the way.
Shapes, counts and dimensions that do not fit together are refused the same
way.
"""

import math
import re
import warnings

import numpy as np
import pytest

from pardiff.classify import CoefficientMatrix, eigen_symmetric
from pardiff.cli import main
from pardiff.elliptic import (
    FundamentalSolution,
    convergence_study,
    harmonicity_residual,
    harnack_limit,
    max_principle_check,
    mean_value_check,
    newtonian_potential,
    solve_laplace_dirichlet,
)
from pardiff.expr import evaluate_arrays, parse
from pardiff.grid import GridFunction, GridSpec, restrict, sample, save_grid, shrink
from pardiff.mollify import convolve, l1_convergence, make_mollifier
from pardiff.stencil import Stencil, laplace_stencil, mixed_difference

GRID = GridSpec((0.0, 0.0), 0.125, (9, 9))
X1 = sample("x1", GRID)
SPIKED = np.zeros((9, 9))
SPIKED[4, 4] = 5.0

# site -> (name in the message, call with the length under test); mollifier_for's
# eps is checked by test_mollify.py::TestMollifierFor::test_bad_radius_is_an_argument_error
LENGTH_SITES = {
    "GridSpec.h": ("grid spacing", lambda v: GridSpec((0.0,), v, (3,))),
    "Stencil.h": ("stencil spacing", lambda v: Stencil(1, v, (((0,), 1.0),))),
    "make_mollifier.eps": ("support radius", lambda v: make_mollifier(2, v, 0.125)),
    "make_mollifier.spacing": ("spacing", lambda v: make_mollifier(2, 0.5, v)),
    "l1_convergence.radius": ("support radius", lambda v: l1_convergence(X1, [0.5, v])),
    "box.length": ("box length", lambda v: harmonicity_residual("x1", (0, 0), (1.0, v), [0.5])),
    "box.spacing": ("spacing", lambda v: harmonicity_residual("x1", (0, 0), (1, 1), [0.5, v])),
    "mean_value_check.radius": ("radius", lambda v: mean_value_check(X1, (0.5, 0.5), v)),
    "cell_average.h": ("cell size", lambda v: FundamentalSolution(2).cell_average(v)),
}

CASES = [
    pytest.param(f"{what} must be positive and finite, got {v}", call, v, id=f"{site}-{v}")
    for site, (what, call) in LENGTH_SITES.items()
    for v in (math.nan, math.inf, 0.0, -1.0)
] + [
    pytest.param(
        "sphere of radius 0.25 exits the grid: point (nan, 0.5) is outside the grid",
        lambda v: mean_value_check(X1, (v, 0.5), 0.25), math.nan, id="mean_value_check.center",
    ),
    pytest.param(
        "point must have 2 finite coordinates, got (nan, 1.0)",
        lambda v: FundamentalSolution(2).evaluate((v, 1.0)), math.nan, id="evaluate-nan",
    ),
    pytest.param(
        "point must have 2 finite coordinates, got (inf, 0.0)",
        lambda v: FundamentalSolution(2).evaluate((v, 0.0)), math.inf, id="evaluate-inf",
    ),
] + [
    pytest.param(
        f"tolerance must be nonnegative, got {v}",
        lambda v: max_principle_check(GridFunction(GRID, SPIKED), v), v, id=f"max_principle-{v}",
    )
    for v in (math.nan, -1.0)
]

# Refusals of arguments whose shapes, counts or dimensions do not fit: (id, message, call).
LINE = GridSpec((0.0,), 0.125, (9,))
MISFITS = [
    ("CoefficientMatrix-shape", "entries must be 2x2, got (3,)",
     lambda: CoefficientMatrix(2, np.zeros(3), (0.0, 0.0))),
    ("eigen_symmetric-not-square", "expected a square matrix, got shape (2, 3)",
     lambda: eigen_symmetric(np.zeros((2, 3)))),
    ("FundamentalSolution-dim", "fundamental solutions need dimension >= 2, got 1",
     lambda: FundamentalSolution(1)),
    ("cell_average-subdivisions", "cell averaging needs at least 2 subdivisions per axis",
     lambda: FundamentalSolution(2).cell_average(0.125, subdivisions=1)),
    ("newtonian_potential-dimension",
     "source and target dimensions must match the kernel dimension",
     lambda: newtonian_potential(FundamentalSolution(3), X1, GRID)),
    ("max_iter", "max_iter must be at least 1, got 0",
     lambda: solve_laplace_dirichlet(X1, 1e-10, 0)),
    ("interpolate-one-node-axis",
     "interpolation needs at least 2 nodes per axis",
     lambda: mean_value_check(sample("x1", GridSpec((0.0, 0.0), 0.125, (1, 9))), (0, 0.5), 0.25)),
    ("mean_value_check-num_points", "need at least one sphere point",
     lambda: mean_value_check(X1, (0.5, 0.5), 0.25, num_points=0)),
    ("mean_value_check-center", "center dimension does not match the grid",
     lambda: mean_value_check(X1, (0.5,), 0.25)),
    ("harmonicity_residual-lengths", "origin and lengths must have one entry per axis",
     lambda: harmonicity_residual("x1", (0, 0), (1,), [0.5])),
    ("harmonicity_residual-h_list", "h_list must not be empty",
     lambda: harmonicity_residual("x1", (0, 0), (1, 1), [])),
    ("convergence_study-spacings", "spacings must be strictly decreasing",
     lambda: convergence_study("laplace", "x1", None, (0, 0), 1.0, [0.25, 0.5])),
    ("evaluate_arrays-no-arrays", "evaluate_arrays needs at least one coordinate array",
     lambda: evaluate_arrays(parse("1"), [])),
    ("shrink-margins", "need one (low, high) margin pair per axis, got 1",
     lambda: shrink(X1, [(1, 1)])),
    ("shrink-negative-margin", "margins must be nonnegative, got ((1, 1), (-1, 0))",
     lambda: shrink(X1, [(1, 1), (-1, 0)])),
    ("harnack_limit-empty-window", "shrinking by (0, 0)/(9, 0) leaves an empty axis",
     lambda: harnack_limit([X1, X1, X1], [(0, 9), (0, 0)], 1e-6)),
    ("restrict-dimension", "incompatible specs: dimensions differ", lambda: restrict(X1, LINE)),
    ("make_mollifier-dim", "dimension must be at least 1, got 0",
     lambda: make_mollifier(0, 0.5, 0.125)),
    ("convolve-dimension", "kernel dimension 1 does not match grid 2",
     lambda: convolve(X1, make_mollifier(1, 0.5, 0.125))),
    ("l1_convergence-empty", "eps_list must not be empty", lambda: l1_convergence(X1, [])),
    ("Stencil-scale", "scale exponent must be nonnegative, got -1",
     lambda: Stencil(1, 0.5, (((1,), 1.0),), scale_exp=-1)),
    ("Stencil-no-terms", "a stencil needs at least one term", lambda: Stencil(1, 0.5, ())),
    ("Stencil-shift-dimension", "shift (1, 0) does not have dimension 1",
     lambda: Stencil(1, 0.5, (((1, 0), 1.0),))),
    ("Stencil.apply-dimension", "stencil dimension 1 does not match grid 2",
     lambda: laplace_stencil(1, 0.125).apply(X1)),
    ("mixed_difference-orders", "need one order per axis, got 1 for dimension 2",
     lambda: mixed_difference(2, [1], 0.5)),
    ("mixed_difference-negative", "orders must be nonnegative, got (2, -1)",
     lambda: mixed_difference(2, [2, -1], 0.5)),
]


@pytest.mark.parametrize("message, call", [pytest.param(m, c, id=i) for i, m, c in MISFITS])
def test_misfit_refused_with_one_message(message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call()
    assert (type(err.value), str(err.value)) == (ValueError, message)


@pytest.mark.parametrize("message, call, value", CASES)
def test_refused_with_one_message_and_no_warning(message, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def test_zero_tolerance_still_finds_the_spike():
    assert max_principle_check(GridFunction(GRID, SPIKED), 0.0) == (False, (4, 4))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mollify", "--grid", "{grid}", "--eps", "nan"],
         "support radius must be positive and finite, got nan"),
        (["mollify", "--grid", "{grid}", "--eps", "inf"],
         "support radius must be positive and finite, got inf"),
        (["convergence", "--problem", "laplace", "--reference", "x1", "--h", "0.5", "0.25",
          "--origin", "0", "0", "--length", "nan"],
         "box length must be positive and finite, got nan"),
        (["convergence", "--problem", "laplace", "--reference", "x1", "--h", "nan", "0.25",
          "--origin", "0", "0", "--length", "1"], "spacing must be positive and finite, got nan"),
    ],
    ids=["mollify-eps-nan", "mollify-eps-inf", "convergence-length-nan", "convergence-h-nan"],
)
def test_command_line_exits_1_with_one_error_line(tmp_path, capsys, argv, message):
    grid = tmp_path / "f.grd"
    save_grid(X1, str(grid))
    out = tmp_path / "o.grd"
    assert main([*(a.format(grid=grid) for a in argv), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
