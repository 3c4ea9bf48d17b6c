"""Argument checks: each kind of argument is refused by one rule with one message.

Lengths, spacings and radii must be positive and finite, point coordinates
finite and the maximum-principle tolerance nonnegative.  Every refusal is a
``ValueError`` raised before any work, with no ``RuntimeWarning`` on the way.
"""

import math
import re
import warnings

import numpy as np
import pytest

from pardiff.cli import main
from pardiff.elliptic import (
    FundamentalSolution,
    harmonicity_residual,
    max_principle_check,
    mean_value_check,
)
from pardiff.grid import GridFunction, GridSpec, sample, save_grid
from pardiff.mollify import l1_convergence, make_mollifier
from pardiff.stencil import Stencil

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
