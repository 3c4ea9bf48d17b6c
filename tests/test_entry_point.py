"""The command line as a separate process, run outside the checkout.

Each test works in a temporary directory outside the checkout and sees what a
user's shell sees: the exit code, standard error, and the files the command
leaves.  Which command runs follows the ``pardiff`` package these tests import:

- from this checkout's ``src/`` (``PYTHONPATH=src``, or an editable install):
  ``python -m pardiff.cli`` with ``PYTHONPATH`` set to ``src/``;
- from anywhere else (an installed package): the ``pardiff`` script in
  ``sysconfig.get_path("scripts")``, with ``PYTHONPATH`` removed from the
  environment.  If there is no such script, the tests fail.

So after ``pip install .``, running this file from another directory with
``PYTHONPATH`` unset checks the installed entry point.
"""

import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import pardiff
from pardiff import GridFunction, GridSpec, laplace_stencil, load_grid, sample, save_grid, save_stencil
from pardiff.grid import grid_file_chunks

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(cwd, *args):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    command = [str(Path(sysconfig.get_path("scripts")) / "pardiff")]
    if Path(pardiff.__file__).resolve().parent == SRC / "pardiff":
        env["PYTHONPATH"] = str(SRC)
        command = [sys.executable, "-m", "pardiff.cli"]
    return subprocess.run(
        [*command, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _ring(expression, spec):
    """The expression's values on the boundary nodes of ``spec``, zero inside."""
    values = sample(expression, spec).values.copy()
    values[(slice(1, -1),) * values.ndim] = 0
    return GridFunction(spec, values)


def _bump(spec, radius):
    s = sum(m * m for m in spec.meshes()) / radius**2
    return GridFunction(spec, np.where(s < 1, (1 - s) ** 4, 0.0))


def _zeros(origin, h, extents):
    return GridFunction(GridSpec(origin, h, extents), np.zeros(extents))


def _crlf_with_a_body_comment():
    lines = "".join(grid_file_chunks(sample("x1*x2", GridSpec((0, 0), 0.25, (5, 5))))).splitlines()
    lines.insert(6, "# a comment in the body")
    return ("\r\n".join(lines) + "\r\n").encode()


def _utf8_error_at_9032():
    body = b"".join(b"%d\n" % k for k in range(3000))
    return b"dim 1\norigin 0\nh 1\nextents 3000\n" + body[:9000] + b"\xff" + body[9000:]


AFFINE = GridSpec((0, 0), 1 / 256, (257, 257))
# every input file a command line below names: a grid, a stencil, or raw bytes
INPUTS = {
    "box.grd": lambda: _ring("x1*x2", GridSpec((0, 0), 0.25, (5, 5))),
    "box9.grd": lambda: sample("x1*x2", GridSpec((0, 0), 0.25, (9, 9))),
    "poi.grd": lambda: _ring("sin(x1)*sin(x2)", GridSpec((0, 0), 1 / 64, (65, 65))),
    "aff.grd": lambda: sample("1 + 2*x1 - 3*x2", AFFINE),
    "pos.grd": lambda: sample("2 + x1 - x2", AFFINE),
    "src.grd": lambda: _bump(GridSpec((-1, -1), 0.125, (17, 17)), 0.5),
    "src3.grd": lambda: _bump(GridSpec((-1, -1, -1), 0.25, (9, 9, 9)), 0.6),
    "tgt.grd": lambda: _zeros((-0.6180339887, 0.3141592653), 0.0703125, (23, 19)),
    "tgt3.grd": lambda: _zeros((-0.6180339887, 0.3141592653, 0.2718281828), 0.0703125,
                               (23, 19, 17)),
    "far.grd": lambda: _zeros((2.1, -1.6180339887), 0.0703125, (33, 29)),
    "huge.grd": lambda: _zeros((1e160, 0), 0.1, (5, 5)),
    "lat19.grd": lambda: _zeros((1e19, 0), 0.125, (5, 5)),
    "lat160.grd": lambda: _zeros((1e160, 0), 0.125, (5, 5)),
    "lap2.stn": lambda: laplace_stencil(2, 0.25),
    "crlf.grd": _crlf_with_a_body_comment,
    "bad.grd": _utf8_error_at_9032,
}


def make_inputs(workdir, args):
    """Write each file of ``INPUTS`` that ``args`` names into ``workdir``."""
    for name in INPUTS.keys() & set(args):
        value, path = INPUTS[name](), workdir / name
        if isinstance(value, bytes):
            path.write_bytes(value)
        else:
            (save_grid if isinstance(value, GridFunction) else save_stencil)(value, str(path))


@pytest.fixture
def workdir(tmp_path):
    assert SRC.parent not in tmp_path.resolve().parents
    yield tmp_path
    assert not list(tmp_path.glob(".pardiff-*")), "a staged output was left behind"


@pytest.mark.parametrize(
    "at, row",
    [(["0", "0"], "0,0,2,2,elliptic"),
     (["-1e-05", "0"], "-1.0000000000000001e-05,0,2,2,elliptic"),
     (["-1e-05", "-2.5E+3"], "-1.0000000000000001e-05,-2500,2,2,elliptic")],
    ids=["origin", "negative-exponent-form", "two-negative-coordinates"],
)
def test_classify_a_point(workdir, at, row):
    make_inputs(workdir, ["lap2.stn"])
    result = run_cli(workdir, "classify", "--stencil", "lap2.stn", "--at", *at)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["x1,x2,lambda1,lambda2,label", row]


@pytest.mark.parametrize(
    "expression, extents",
    [("x1", (5,)), ("x1*x2", (5, 5)), ("x1*x2+x3", (5, 5, 6))], ids=["line", "box", "slab"]
)
def test_solve_laplace_writes_a_solution(workdir, expression, extents):
    spec = GridSpec((0,) * len(extents), 0.25, extents)
    save_grid(_ring(expression, spec), str(workdir / "ring.grd"))
    result = run_cli(workdir, "solve", "laplace", "--grid", "ring.grd", "--output", "sol.grd")
    assert result.returncode == 0, result.stderr
    assert (workdir / "sol.grd").stat().st_size > 0


@pytest.mark.parametrize(
    "command",
    ["--version",
     "verify --grid crlf.grd",
     "potential --source src.grd --targets tgt.grd --output pot{k}.grd",
     "potential --source src3.grd --targets tgt3.grd --output pot{k}.grd",
     "potential --source src.grd --targets far.grd --output pot{k}.grd",
     "potential --source src.grd --targets huge.grd --output pot{k}.grd",
     "potential --source src.grd --targets lat19.grd --output pot{k}.grd",
     "potential --source src.grd --targets lat160.grd --output pot{k}.grd",
     "mollify --grid aff.grd --eps 0.125 --output m{k}.grd --report m{k}.csv",
     "mollify --grid aff.grd --eps 0.0078125 --output m{k}.grd --report m{k}.csv",
     "mollify --grid pos.grd --eps 0.0078125 --output m{k}.grd --report m{k}.csv",
     "solve poisson --grid poi.grd --rhs -2*sin(x1)*sin(x2) --output u{k}.grd --report u{k}.csv"],
    ids=["version", "verify-crlf-body-comment", "potential-off-lattice-2d",
         "potential-off-lattice-3d", "potential-far-field", "potential-1e160-off-lattice",
         "potential-1e19-on-lattice", "potential-1e160-on-lattice", "mollify-affine",
         "mollify-affine-narrow", "mollify-positive-narrow", "solve-poisson-65"],
)
def test_runs_twice_to_the_same_bytes(workdir, command):
    """Exit 0 and no standard error but a solve's timing line, on both runs; both give
    the same nonempty output files, or the same standard output if they write none."""
    make_inputs(workdir, command.split())
    runs = []
    for k in (1, 2):
        args = command.format(k=k).split()
        result = run_cli(workdir, *args)
        assert result.returncode == 0, result.stderr
        assert re.fullmatch(r"(solve \w+: \d+\.\d{3}s wall time\n)?", result.stderr), result.stderr
        outputs = [args[i + 1] for i, a in enumerate(args) if a in ("--output", "--report")]
        runs.append([(workdir / name).read_bytes() for name in outputs] or [result.stdout])
    assert runs[0] == runs[1] and all(runs[0])


@pytest.mark.parametrize(
    "command, code, err, left",
    [("solve laplace --grid box.grd --output nan.grd --tol nan", 1,
      "error: tolerance must be positive, got nan\n", ["box.grd"]),
     ("solve laplace --grid box.grd --output neg.grd --tol -1e-05", 1,
      "error: tolerance must be positive, got -1e-05\n", ["box.grd"]),
     ("solve laplace --grid box.grd --out o.grd", 1,
      "error: the following arguments are required: --output\n", ["box.grd"]),
     ("convergence --problem laplace --reference x1+2² --h 0.5 0.25 --origin 0 0 --length 1",
      1, "error: unexpected character '²' (offset 4)\n", []),
     ("verify --grid bad.grd", 1,
      "error: bad.grd: not valid UTF-8 at byte offset 9032: invalid start byte\n", ["bad.grd"]),
     ("classify --stencil lap2.stn --probe-origin 0 0 --probe-h 1 --probe-extents 1 -1.5", 1,
      "error: argument --probe-extents: invalid int value: '-1.5'\n", ["lap2.stn"]),
     ("mollify --grid box9.grd --eps 0.75 --report missing/r.csv --output m.grd", 1,
      "error: [Errno 2] No such file or directory: 'missing/r.csv'\n", ["box9.grd"])],
    ids=["nan-tolerance", "negative-tolerance", "abbreviated-option", "superscript",
         "invalid-utf8", "negative-list-value", "report-in-missing-directory"],
)
def test_one_error_line_and_no_output(workdir, command, code, err, left):
    """Each of two runs exits ``code`` with the one line ``err`` and leaves only its inputs."""
    make_inputs(workdir, command.split())
    for _ in range(2):
        result = run_cli(workdir, *command.split())
        assert (result.returncode, result.stderr) == (code, err)
        assert sorted(os.listdir(workdir)) == left


def test_a_513_squared_grid_file_round_trips_bit_for_bit(workdir):
    spec = GridSpec((-1, 0.5), 1 / 512, (513, 513))
    u = GridFunction(spec, np.random.default_rng(1).standard_normal(spec.extents))
    save_grid(u, str(workdir / "big.grd"))
    assert load_grid(str(workdir / "big.grd")).values.tobytes() == u.values.tobytes()
