"""The command line as a separate process, run outside the checkout.

Each test runs ``python -m pardiff.cli`` in a temporary directory with
``PYTHONPATH`` set to the checkout's ``src/``, so it sees what a user's shell
sees: the exit code, standard error, and the files the command leaves.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pardiff.grid import GridFunction, GridSpec, sample, save_grid
from pardiff.stencil import laplace_stencil, save_stencil

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(cwd, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "pardiff.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def assert_one_error(result, code):
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.fixture
def workdir(tmp_path):
    assert SRC.parent not in tmp_path.resolve().parents
    return tmp_path


@pytest.fixture
def lap2(workdir):
    save_stencil(laplace_stencil(2, 0.25), str(workdir / "lap2.stn"))
    return "lap2.stn"


@pytest.mark.parametrize(
    "at, row",
    [(["0", "0"], "0,0,2,2,elliptic"),
     (["-1e-05", "0"], "-1.0000000000000001e-05,0,2,2,elliptic")],
    ids=["origin", "negative-exponent-form"],
)
def test_classify_a_point(workdir, lap2, at, row):
    result = run_cli(workdir, "classify", "--stencil", lap2, "--at", *at)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["x1,x2,lambda1,lambda2,label", row]


def test_verify_a_crlf_grid_with_a_body_comment(workdir):
    save_grid(sample("x1*x2", GridSpec((0, 0), 0.25, (5, 5))), str(workdir / "box.grd"))
    lines = (workdir / "box.grd").read_text().splitlines()
    lines.insert(6, "# a comment in the body")
    (workdir / "crlf.grd").write_bytes(("\r\n".join(lines) + "\r\n").encode())
    result = run_cli(workdir, "verify", "--grid", "crlf.grd")
    assert result.returncode == 0, result.stderr


def test_superscript_in_an_expression_is_one_error_line(workdir):
    result = run_cli(workdir, "convergence", "--problem", "laplace", "--reference", "x1+2²",
                     "--h", "0.5", "0.25", "--origin", "0", "0", "--length", "1")
    assert_one_error(result, 1)
    assert result.stderr == "error: unexpected character '²' (offset 4)\n"


def test_invalid_utf8_grid_names_the_byte_offset(workdir):
    body = b"".join(b"%d\n" % k for k in range(3000))
    header = b"dim 1\norigin 0\nh 1\nextents 3000\n"
    (workdir / "bad.grd").write_bytes(header + body[:9000] + b"\xff" + body[9000:])
    result = run_cli(workdir, "verify", "--grid", "bad.grd")
    assert_one_error(result, 1)
    assert result.stderr == "error: bad.grd: not valid UTF-8 at byte offset 9032: invalid start byte\n"


@pytest.mark.parametrize(
    "expression, extents", [("x1", (5,)), ("x1*x2+x3", (5, 5, 6))], ids=["line", "slab"]
)
def test_solve_laplace_writes_a_solution(workdir, expression, extents):
    g = sample(expression, GridSpec((0,) * len(extents), 0.25, extents))
    values = g.values.copy()
    values[(slice(1, -1),) * values.ndim] = 0
    save_grid(GridFunction(g.spec, values), str(workdir / "ring.grd"))
    result = run_cli(workdir, "solve", "laplace", "--grid", "ring.grd", "--output", "sol.grd")
    assert result.returncode == 0, result.stderr
    assert (workdir / "sol.grd").stat().st_size > 0


def test_off_lattice_potential_is_byte_identical_across_runs(workdir):
    spec = GridSpec((-1.0, -1.0), 0.125, (17, 17))
    s = sum(m * m for m in spec.meshes()) / 0.5**2
    save_grid(GridFunction(spec, np.where(s < 1, (1 - s) ** 4, 0.0)), str(workdir / "src.grd"))
    targets = GridSpec((-0.6180339887, 0.3141592653), 0.0703125, (23, 19))
    save_grid(GridFunction(targets, np.zeros(targets.extents)), str(workdir / "tgt.grd"))
    outputs = []
    for name in ("pot1.grd", "pot2.grd"):
        result = run_cli(workdir, "potential", "--source", "src.grd", "--targets", "tgt.grd",
                         "--output", name)
        assert result.returncode == 0 and result.stderr == "", result.stderr
        outputs.append((workdir / name).read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0]) > 0
