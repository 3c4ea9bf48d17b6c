"""Seeded inputs, job lists and per-job correctness checks of the workloads.

A workload is a list of ``pardiff`` command lines (jobs) over input files
written here.  Every input is drawn by seed from a fixed pool of problems
whose answers are known in closed form, and every job's output is checked
against an oracle computed here with numpy alone, never through pardiff.

Tolerances are those of the acceptance criteria in ``tests/test_acceptance.py``
and the unit tests, so that a later fast path is held to the bounds the tests
already hold:

- solver error: the a-priori bound of the discrete maximum principle,
  ``(h^2 M4 / 12 + scaled residual) / 8`` on the unit box, plus roundoff;
- convergence study: error ratio 3.4 .. 4.6 per halving (criterion 08);
- potential: relative residual below 0.05 at h = 1/32 and far field within
  2% of the point-source asymptote (criterion 07);
- mollify: unit mass within 1e-12, exact symmetry (criterion 04), constants
  (here affine functions, which an exactly symmetric kernel also keeps)
  preserved within 1e-10 relative (test_mollify);
- stencils: exactness within 1e-12 of ``max(1, |u|)`` (criterion 03);
- classify: exact label counts of the Tricomi probe (criterion 02).

Every expression argument is passed as ``--opt=value``: argparse rejects a
separate value that starts with ``-``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The job families and the workloads that run them.  Each family draws its
# inputs from its own random stream, so a family's inputs for a seed do not
# depend on the workload it runs in.  The pipeline family runs after solve
# rather than alone: on its own, its short passes are too noisy (README.md).
FAMILIES = ("solve", "lattice", "pipeline")
MEMBERS = {"solve_pipeline": ("solve", "pipeline"), "lattice": ("lattice",)}
WORKLOADS = tuple(MEMBERS)
SIZES = ("full", "tiny")

LAPLACE_TOL = 1e-10  # unscaled residual, the solver default (criterion 08)
# Scaled residual for warm-started Poisson stages at 129^2; the default 1e-10
# sits at the roundoff floor there (see README.md).
POISSON_TOL = 1e-8
EXACT_TOL = 1e-12  # criterion 03
ORDER_RATIO = (3.4, 4.6)  # criterion 08


class CheckError(Exception):
    """A job's output misses its correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Fn:
    """A pool function: its expression text and the same function for numpy."""

    text: str
    f: Callable[..., np.ndarray]


# Images of exp(x1)*sin(x2) under the symmetries of the unit square: equal
# SOR work from a zero interior, different inputs.
HARMONIC_2D = (
    Fn("exp(x1)*sin(x2)", lambda x1, x2: np.exp(x1) * np.sin(x2)),
    Fn("exp(1-x1)*sin(x2)", lambda x1, x2: np.exp(1 - x1) * np.sin(x2)),
    Fn("exp(x2)*sin(x1)", lambda x1, x2: np.exp(x2) * np.sin(x1)),
    Fn("exp(1-x2)*sin(x1)", lambda x1, x2: np.exp(1 - x2) * np.sin(x1)),
)

# (u, f) with f the Laplacian of u
POISSON_2D = (
    (Fn("sin(x1)*sin(x2)", lambda x1, x2: np.sin(x1) * np.sin(x2)),
     Fn("-2*sin(x1)*sin(x2)", lambda x1, x2: -2 * np.sin(x1) * np.sin(x2))),
    (Fn("sin(x1)*cos(x2)", lambda x1, x2: np.sin(x1) * np.cos(x2)),
     Fn("-2*sin(x1)*cos(x2)", lambda x1, x2: -2 * np.sin(x1) * np.cos(x2))),
    (Fn("cos(x1)*sin(x2)", lambda x1, x2: np.cos(x1) * np.sin(x2)),
     Fn("-2*cos(x1)*sin(x2)", lambda x1, x2: -2 * np.cos(x1) * np.sin(x2))),
    (Fn("sin(x1+x2)", lambda x1, x2: np.sin(x1 + x2)),
     Fn("-2*sin(x1+x2)", lambda x1, x2: -2 * np.sin(x1 + x2))),
)

# (u, Laplacian of u) with u biharmonic
BIHARMONIC_2D = (
    (Fn("x1*exp(x1)*sin(x2)", lambda x1, x2: x1 * np.exp(x1) * np.sin(x2)),
     Fn("2*exp(x1)*sin(x2)", lambda x1, x2: 2 * np.exp(x1) * np.sin(x2))),
    (Fn("x2*exp(x2)*sin(x1)", lambda x1, x2: x2 * np.exp(x2) * np.sin(x1)),
     Fn("2*exp(x2)*sin(x1)", lambda x1, x2: 2 * np.exp(x2) * np.sin(x1))),
    (Fn("x1*sin(x1)*(exp(x2)-exp(-x2))/2", lambda x1, x2: x1 * np.sin(x1) * np.sinh(x2)),
     Fn("2*cos(x1)*(exp(x2)-exp(-x2))/2", lambda x1, x2: 2 * np.cos(x1) * np.sinh(x2))),
    (Fn("x1*exp(-x1)*sin(x2)", lambda x1, x2: x1 * np.exp(-x1) * np.sin(x2)),
     Fn("-2*exp(-x1)*sin(x2)", lambda x1, x2: -2 * np.exp(-x1) * np.sin(x2))),
)


def _harmonic_3d(perm: tuple[int, int, int]) -> Fn:
    a, b, c = perm
    text = f"exp(x{a + 1})*sin(0.6*x{b + 1})*sin(0.8*x{c + 1})"

    def f(*x):
        return np.exp(x[a]) * np.sin(0.6 * x[b]) * np.sin(0.8 * x[c])

    return Fn(text, f)


# exp(x_a) sin(0.6 x_b) sin(0.8 x_c) is harmonic; axis permutations cost the same.
HARMONIC_3D = tuple(_harmonic_3d(p) for p in itertools.permutations(range(3)))

# Tricomi-type coefficients: the sign of x2 decides the type at every point.
TRICOMI_COEFFS = ("x2", "2*x2", "x2*(1+x1^2)", "x2*exp(x1)")

# Positive variable coefficients for the apply job.
VARIABLE_COEFFS = (
    Fn("1+x1^2", lambda x1, x2: 1 + x1**2),
    Fn("2+sin(x1*x2)", lambda x1, x2: 2 + np.sin(x1 * x2)),
    Fn("exp(x2)", lambda x1, x2: np.exp(x2)),
    Fn("1+x1*x2", lambda x1, x2: 1 + x1 * x2),
)


# ---------------------------------------------------------------- file text


def grid_text(origin, h: float, values: np.ndarray) -> str:
    """The grid file format: header, then one value per line in row-major order."""
    header = [
        f"dim {values.ndim}",
        "origin " + " ".join(repr(float(o)) for o in origin),
        f"h {float(h)!r}",
        "extents " + " ".join(str(e) for e in values.shape),
    ]
    body = map(repr, values.ravel().tolist())
    return "\n".join(itertools.chain(header, body)) + "\n"


def stencil_text(h: float, terms, scale: int = 0) -> str:
    """A 2D stencil file; a coefficient is a float or an expression string."""
    lines = ["dim 2", f"h {float(h)!r}", f"scale {scale}"]
    for (s1, s2), c in terms:
        coeff = f'"{c}"' if isinstance(c, str) else repr(float(c))
        lines.append(f"term {s1} {s2} {coeff}")
    return "\n".join(lines) + "\n"


def read_grid(data: bytes):
    """Parse a grid file into (origin, h, values)."""
    lines = [ln for ln in data.decode().splitlines() if ln.strip() and not ln.startswith("#")]
    _require(len(lines) >= 4, "grid output is truncated")
    origin = tuple(float(v) for v in lines[1].split()[1:])
    h = float(lines[2].split()[1])
    extents = tuple(int(v) for v in lines[3].split()[1:])
    values = np.array(lines[4:], dtype=float)
    _require(values.size == math.prod(extents), "grid output has the wrong number of values")
    return origin, h, values.reshape(extents)


def read_csv(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def meshes(origin, h: float, extents) -> list[np.ndarray]:
    axes = [o + h * np.arange(e) for o, e in zip(origin, extents)]
    return np.meshgrid(*axes, indexing="ij")


def fourth_derivative_bound(fn: Callable[..., np.ndarray], dim: int) -> float:
    """Bound on sum_i max |d^4 u / dx_i^4| over the unit box, by finite differences."""
    delta = 0.01
    n = 33 if dim == 2 else 17
    points = meshes((0.0,) * dim, 1.0 / (n - 1), (n,) * dim)
    total = 0.0
    for a in range(dim):
        shifted = []
        for k in (-2, -1, 0, 1, 2):
            x = list(points)
            x[a] = x[a] + k * delta
            shifted.append(fn(*x))
        d4 = (shifted[0] - 4 * shifted[1] + 6 * shifted[2] - 4 * shifted[3] + shifted[4]) / delta**4
        total += float(np.abs(d4).max())
    return 1.25 * total


def solve_error_bound(m4: float, h: float, scaled_residual: float) -> float:
    """Max-principle bound on the unit box: the comparison function peaks at 1/8."""
    return (h * h * m4 / 12.0 + scaled_residual) / 8.0 + 1e-12


def zero_interior(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[tuple(slice(1, -1) for _ in range(values.ndim))] = 0.0
    return out


def compact_bump(m: list[np.ndarray], center, radius: float, amplitude: float) -> np.ndarray:
    """The acceptance suite's compact polynomial bump, power 4."""
    s = sum((x - c) ** 2 for x, c in zip(m, center)) / radius**2
    return np.where(s < 1.0, amplitude * np.maximum(0.0, 1.0 - s) ** 4, 0.0)


# --------------------------------------------------------------------- jobs


@dataclass
class Job:
    """One ``pardiff`` command line, what it writes, and how to judge it."""

    name: str
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[dict[str, bytes]], None] | None = None
    expect_exit: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict[str, Callable[[], str]]  # path -> text, written before the run

    def write_inputs(self, job_list: str) -> None:
        """Write the input files, and the job list the workload process reads."""
        for path, text in self.inputs.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text())
        with open(job_list, "w", encoding="utf-8") as fh:
            json.dump([{"name": j.name, "argv": j.argv, "outputs": j.outputs, "expect_exit": j.expect_exit}
                       for j in self.jobs], fh)

    def check_saved(self, saved: str) -> list[str]:
        """Run each job's correctness check on the outputs saved from its first run.

        The workload process copies a job's outputs to ``saved/<job name>/``
        the first time the job passes its exit-code and stderr checks; a job
        with no copy there has already been counted as failed.
        """
        failures = []
        for job in self.jobs:
            directory = os.path.join(saved, job.name)
            if job.check is None or not os.path.isdir(directory):
                continue
            outputs = {}
            for path in job.outputs:
                with open(os.path.join(directory, os.path.basename(path)), "rb") as fh:
                    outputs[path] = fh.read()
            try:
                job.check(outputs)
            except (CheckError, ValueError, KeyError, IndexError) as exc:
                failures.append(f"{job.name}: check failed: {exc}")
        return failures


def build(workload: str, seed: int, size: str, workdir: str) -> Workload:
    """The job list of a workload; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    builders = {"solve": _solve, "lattice": _lattice, "pipeline": _pipeline}
    jobs: list[Job] = []
    inputs: dict[str, Callable[[], str]] = {}
    for family in MEMBERS[workload]:
        rng = np.random.default_rng([seed, FAMILIES.index(family)])
        part = builders[family](rng, size == "tiny", os.path.join(workdir, family))
        jobs += part.jobs
        inputs.update(part.inputs)
    if len({job.name for job in jobs}) != len(jobs):  # outputs are saved under first/<job name>/
        raise ValueError(f"workload {workload!r} repeats a job name")
    return Workload(jobs, inputs)


def _paths(workdir: str):
    def inp(name: str) -> str:
        return os.path.join(workdir, "in", name)

    def out(name: str) -> str:
        return os.path.join(workdir, "out", name)

    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    return inp, out


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


# ------------------------------------------------------------------- solve


def _solve_job(name: str, argv: list[str], exact: Fn, bound: float, tol: float) -> Job:
    """A ``solve`` job checked against its report and the exact solution."""
    sol, rep = argv[-2].split("=", 1)[1], argv[-1].split("=", 1)[1]

    def check(o):
        rows = read_csv(o[rep])
        _require(len(rows) == 1, "solve report needs one row")
        _require(rows[0]["operator"] == argv[1], f"report names operator {rows[0]['operator']!r}")
        _require(rows[0]["converged"] == "true", "solve did not converge")
        # For the biharmonic splitting, converged means both stages met the tolerance.
        if argv[1] != "biharmonic":
            _require(float(rows[0]["final_residual"]) <= tol, "final residual above the tolerance")
        origin, h, values = read_grid(o[sol])
        error = float(np.abs(values - exact.f(*meshes(origin, h, values.shape))).max())
        _require(error <= bound, f"solution error {error:.3e} above the bound {bound:.3e}")

    return Job(name, argv, (sol, rep), check)


def _solve(rng, tiny: bool, workdir: str) -> Workload:
    inp, out = _paths(workdir)
    n2, nw, n3 = (17, 17, 9) if tiny else (257, 129, 33)
    study_h = (1 / 8, 1 / 16, 1 / 32) if tiny else (1 / 16, 1 / 32, 1 / 64)
    jobs: list[Job] = []
    inputs: dict[str, Callable[[], str]] = {}

    def box(name: str, n: int, dim: int, fill: Fn | None) -> str:
        path = inp(name)
        h = 1.0 / (n - 1)
        values = zero_interior(fill.f(*meshes((0.0,) * dim, h, (n,) * dim))) if fill else np.zeros((n,) * dim)
        inputs[path] = lambda: grid_text((0.0,) * dim, h, values)
        return path

    def files(name: str) -> list[str]:
        return [f"--output={out(name + '.grd')}", f"--report={out(name + '.csv')}"]

    # Cold start: the boundary ring comes from the grid file, the interior is zero.
    u = _pick(rng, HARMONIC_2D)
    h = 1.0 / (n2 - 1)
    bound = solve_error_bound(fourth_derivative_bound(u.f, 2), h, LAPLACE_TOL / h**2)
    jobs.append(_solve_job("laplace-2d-cold", ["solve", "laplace", f"--grid={box('laplace2d.grd', n2, 2, u)}",
                                               f"--tol={LAPLACE_TOL!r}", *files("laplace2d")],
                           u, bound, LAPLACE_TOL))

    # Warm start: sampling --boundary fills the interior with the exact solution.
    u, f = _pick(rng, POISSON_2D)
    h = 1.0 / (nw - 1)
    bound = solve_error_bound(fourth_derivative_bound(u.f, 2), h, POISSON_TOL)
    jobs.append(_solve_job("poisson-2d-warm", ["solve", "poisson", f"--grid={box('poisson.grd', nw, 2, None)}",
                                               f"--boundary={u.text}", f"--rhs={f.text}",
                                               f"--tol={POISSON_TOL!r}", *files("poisson")],
                           u, bound, POISSON_TOL))

    # Biharmonic splitting, rhs 0: the first stage's error feeds the second's rhs.
    u, lap = _pick(rng, BIHARMONIC_2D)
    stage1 = solve_error_bound(fourth_derivative_bound(lap.f, 2), h, POISSON_TOL)
    bound = solve_error_bound(fourth_derivative_bound(u.f, 2), h, POISSON_TOL) + stage1 / 8.0
    jobs.append(_solve_job("biharmonic-2d", ["solve", "biharmonic",
                                             f"--grid={box('biharmonic.grd', nw, 2, None)}",
                                             f"--boundary={u.text}", f"--lap-boundary={lap.text}",
                                             f"--tol={POISSON_TOL!r}", *files("biharmonic")],
                           u, bound, POISSON_TOL))

    # Cold start in 3D, at the default tolerance.
    u = _pick(rng, HARMONIC_3D)
    h = 1.0 / (n3 - 1)
    bound = solve_error_bound(fourth_derivative_bound(u.f, 3), h, LAPLACE_TOL / h**2)
    jobs.append(_solve_job("laplace-3d-cold", ["solve", "laplace", f"--grid={box('laplace3d.grd', n3, 3, u)}",
                                               *files("laplace3d")], u, bound, LAPLACE_TOL))

    # Convergence study h, h/2, h/4 against the analytic reference.
    # The study solves at the default tolerance, scaled by h^-2 for Poisson only.
    poisson = bool(rng.integers(2))
    if poisson:
        u, f = _pick(rng, POISSON_2D)
        extra = ["--problem=poisson", f"--rhs={f.text}"]
    else:
        u = _pick(rng, HARMONIC_2D)
        extra = ["--problem=laplace"]
    m4 = fourth_derivative_bound(u.f, 2)
    csv_path = out("convergence.csv")

    def check(o):
        rows = read_csv(o[csv_path])
        _require(len(rows) == len(study_h), "convergence study needs one row per spacing")
        low, high = (math.log2(r) for r in ORDER_RATIO)
        for k, (row, h) in enumerate(zip(rows, study_h)):
            _require(math.isclose(float(row["h"]), h, rel_tol=1e-12), "study row has the wrong spacing")
            error = float(row["error"])
            residual = LAPLACE_TOL if poisson else LAPLACE_TOL / h**2
            _require(error <= solve_error_bound(m4, h, residual), f"study error {error:.3e} too large")
            if k:
                order = float(row["observed_order"])
                _require(low <= order <= high, f"observed order {order} outside [{low:.3f}, {high:.3f}]")

    jobs.append(Job("convergence", ["convergence", *extra, f"--reference={u.text}",
                                    "--h", *(repr(h) for h in study_h), "--origin", "0", "0",
                                    "--length", "1", f"--output={csv_path}"], (csv_path,), check))
    return Workload(jobs, inputs)


# ----------------------------------------------------------------- lattice


def _lattice(rng, tiny: bool, workdir: str) -> Workload:
    inp, out = _paths(workdir)
    jobs: list[Job] = []
    inputs: dict[str, Callable[[], str]] = {}

    # Criterion 07 geometry at h = 1/32: bump of radius 1.75 in [-2.25, 2.25]^2,
    # on-lattice targets [-1.25, 1.25]^2.  The seed moves the bump by whole
    # cells, which keeps the pair count, and scales it.
    h = 1 / 32
    n_src = round(4.5 / h) + 1
    center = tuple(h * int(c) for c in rng.integers(-8, 9, size=2))
    f = compact_bump(meshes((-2.25, -2.25), h, (n_src, n_src)), center, 1.75, rng.uniform(0.5, 2.0))
    n_tgt, tgt_origin = (21, (-0.3125, -0.3125)) if tiny else (round(2.5 / h) + 1, (-1.25, -1.25))
    src, tgt, pot = inp("source.grd"), inp("targets.grd"), out("potential.grd")
    inputs[src] = lambda: grid_text((-2.25, -2.25), h, f)
    inputs[tgt] = lambda: grid_text(tgt_origin, h, np.zeros((n_tgt, n_tgt)))

    def check_potential(o):
        origin, hh, u = read_grid(o[pot])
        _require(u.shape == (n_tgt, n_tgt) and math.isclose(hh, h), "potential has the wrong grid")
        # forward second differences, as the scaled laplace stencil applies them
        lap = (u[2:, :-2] - 2 * u[1:-1, :-2] + u[:-2, :-2]
               + u[:-2, 2:] - 2 * u[:-2, 1:-1] + u[:-2, :-2]) / h**2
        i0, j0 = (round((o_t + 2.25) / h) for o_t in origin)
        expected = f[i0:i0 + n_tgt - 2, j0:j0 + n_tgt - 2]
        residual = float(np.abs(lap - expected).max() / np.abs(f).max())
        _require(residual < 0.05, f"potential residual {residual:.4f} not below 0.05")

    jobs.append(Job("potential-on-lattice", ["potential", f"--source={src}", f"--targets={tgt}",
                                             f"--output={pot}"], (pot,), check_potential))

    # Far field onto off-lattice targets beyond five support radii, on one
    # side of a small bump; the direct sum is the only path for these.
    hs = 1 / 16 if tiny else 1 / 32
    n_small = round(2.0 / hs) + 1
    g = compact_bump(meshes((-1.0, -1.0), hs, (n_small, n_small)), (0.0, 0.0), 0.5, rng.uniform(0.5, 2.0))
    mass = hs * hs * float(g.sum())
    n_far = 17 if tiny else 129
    h_far = 3.2 / (n_far - 1)
    near, along = 2.6 + rng.uniform(0.0, 0.3), -1.6 + rng.uniform(-0.3, 0.3)
    side = int(rng.integers(4))
    corner = [(near, along), (-near - 3.2, along), (along, near), (along, -near - 3.2)][side]
    small, far_t, far = inp("small.grd"), inp("far_targets.grd"), out("far.grd")
    inputs[small] = lambda: grid_text((-1.0, -1.0), hs, g)
    inputs[far_t] = lambda: grid_text(corner, h_far, np.zeros((n_far, n_far)))

    def check_far(o):
        origin, hh, u = read_grid(o[far])
        _require(u.shape == (n_far, n_far), "far-field potential has the wrong grid")
        r = np.sqrt(sum(m * m for m in meshes(origin, hh, u.shape)))
        reference = mass * np.log(r) / (2 * math.pi)
        worst = float((np.abs(u - reference) / np.abs(reference)).max())
        _require(worst <= 0.02, f"far field off the point-source asymptote by {worst:.4f}")

    jobs.append(Job("potential-far-field", ["potential", f"--source={small}", f"--targets={far_t}",
                                            f"--output={far}"], (far,), check_far))

    # Mollify an affine grid with a wide and a narrow kernel.
    n = 65 if tiny else 257
    hm = 1.0 / (n - 1)
    coeffs = rng.uniform(-1.0, 1.0, size=3) + np.array([2.0, 0.0, 0.0])
    x1, x2 = meshes((0.0, 0.0), hm, (n, n))
    affine = coeffs[0] + coeffs[1] * x1 + coeffs[2] * x2
    fgrid = inp("affine.grd")
    inputs[fgrid] = lambda: grid_text((0.0, 0.0), hm, affine)
    for label, eps in (("wide", 1 / 8), ("narrow", 2 * hm)):
        smooth, report = out(f"mollify_{label}.grd"), out(f"mollify_{label}.csv")
        r = math.ceil(eps / hm - 1e-12)

        def check(o, smooth=smooth, report=report, eps=eps, r=r):
            rows = read_csv(o[report])
            _require(len(rows) == 1, "mollify report needs one row")
            _require(abs(float(rows[0]["mass"]) - 1.0) <= 1e-12, "kernel mass is not 1")
            _require(float(rows[0]["symmetry_deviation"]) == 0.0, "kernel is not symmetric")
            _require(float(rows[0]["support_radius"]) <= eps + 1e-12, "kernel leaves its support")
            origin, hh, v = read_grid(o[smooth])
            _require(v.shape == (n - 2 * r, n - 2 * r), "smoothed grid has the wrong extents")
            _require(all(abs(c - r * hm) <= 1e-12 for c in origin), "smoothed grid has the wrong origin")
            y1, y2 = meshes(origin, hh, v.shape)
            expected = coeffs[0] + coeffs[1] * y1 + coeffs[2] * y2
            deviation = float(np.abs(v - expected).max())
            _require(deviation <= 1e-10 * float(np.abs(affine).max()), f"affine data moved by {deviation:.3e}")

        jobs.append(Job(f"mollify-{label}", ["mollify", f"--grid={fgrid}", f"--eps={eps!r}",
                                              f"--output={smooth}", f"--report={report}"],
                        (smooth, report), check))
    return Workload(jobs, inputs)


# ---------------------------------------------------------------- pipeline

# Forward second differences along each axis (shifts 0, 1, 2), unscaled.
_D11 = (((2, 0), 1.0), ((1, 0), -2.0), ((0, 0), 1.0))
_D22 = (((0, 2), 1.0), ((0, 1), -2.0), ((0, 0), 1.0))


def _biharmonic_terms():
    """The forward Laplacian composed with itself, as merged (shift, coefficient) terms."""
    lap: dict[tuple[int, int], float] = {}
    for shift, c in _D11 + _D22:
        lap[shift] = lap.get(shift, 0.0) + c
    out: dict[tuple[int, int], float] = {}
    for (a, ca), (b, cb) in itertools.product(lap.items(), repeat=2):
        s = (a[0] + b[0], a[1] + b[1])
        out[s] = out.get(s, 0.0) + ca * cb
    return sorted(out.items())


# Monomials x1^i x2^j of degree <= 3, as (i, j).
_CUBIC = tuple((i, d - i) for d in range(4) for i in range(d, -1, -1))


def _cubic(c, x1, x2):
    return sum(ck * x1**i * x2**j for ck, (i, j) in zip(c, _CUBIC))


def _cubic_d2(c, axis: int, x1, x2):
    """Second derivative of the cubic along ``axis`` (0 or 1)."""
    total = 0.0
    for ck, (i, j) in zip(c, _CUBIC):
        p = (i, j)[axis]
        if p < 2:
            continue
        if axis == 0:
            total = total + ck * p * (p - 1) * x1 ** (p - 2) * x2**j
        else:
            total = total + ck * p * (p - 1) * x1**i * x2 ** (p - 2)
    return total


def _exact_bound(u: np.ndarray, scale: float = 1.0) -> float:
    return EXACT_TOL * max(1.0, float(np.abs(u).max())) * scale


def _max_principle(u: np.ndarray) -> str:
    inner = u[1:-1, 1:-1]
    ring = np.concatenate([u[0], u[-1], u[1:-1, 0], u[1:-1, -1]])
    return "pass" if inner.max() <= ring.max() and inner.min() >= ring.min() else "fail"


def _pipeline(rng, tiny: bool, workdir: str) -> Workload:
    inp, out = _paths(workdir)
    jobs: list[Job] = []
    inputs: dict[str, Callable[[], str]] = {}

    # Classify a Tricomi-type stencil over the probe; x2 = 0 is a probe row.
    coeff = TRICOMI_COEFFS[int(rng.integers(len(TRICOMI_COEFFS)))]
    tricomi = inp("tricomi.stn")
    inputs[tricomi] = lambda: stencil_text(0.02, [((0, 2), coeff), ((0, 1), f"-2*({coeff})"),
                                                  ((0, 0), coeff), ((2, 0), 1.0), ((1, 0), -2.0),
                                                  ((0, 0), 1.0)])
    probe_h, probe_n = (0.1, 21) if tiny else (0.02, 101)
    labels_csv = out("classify.csv")

    def check_classify(o):
        rows = read_csv(o[labels_csv])
        _require(len(rows) == probe_n * probe_n, "classify needs one row per probe point")
        x2 = np.array([float(r["x2"]) for r in rows])
        tol = 1e-9
        # The coefficient matrix is diag(2, 2 c) with sign(c) = sign(x2).
        expected = np.where(np.abs(x2) <= tol, "parabolic", np.where(x2 > 0, "elliptic", "hyperbolic"))
        got = np.array([r["label"] for r in rows])
        _require(bool((got == expected).all()), "classify labels differ from the Tricomi oracle")
        counts = {k: int((got == k).sum()) for k in ("elliptic", "hyperbolic", "parabolic")}
        half = probe_n * (probe_n // 2)
        _require(counts == {"elliptic": half, "hyperbolic": half, "parabolic": probe_n},
                 f"label counts {counts}")

    jobs.append(Job("classify-tricomi", ["classify", f"--stencil={tricomi}", "--probe-origin", "-1", "-1",
                                         f"--probe-h={probe_h!r}", "--probe-extents", str(probe_n),
                                         str(probe_n), "--tol=1e-09", f"--output={labels_csv}"],
                    (labels_csv,), check_classify))

    # A cubic grid for apply and the rhs verify; a harmonic quadratic for verify.
    n = 17 if tiny else 257
    h = 1.0 / (n - 1)
    x1, x2 = meshes((0.0, 0.0), h, (n, n))
    c = rng.uniform(-1.0, 1.0, size=len(_CUBIC))
    cubic = _cubic(c, x1, x2)
    q = rng.uniform(-1.0, 1.0, size=5)
    harmonic = q[0] * (x1**2 - x2**2) + q[1] * x1 * x2 + q[2] * x1 + q[3] * x2 + q[4]
    cubic_grid, harmonic_grid, truncated = inp("cubic.grd"), inp("harmonic.grd"), inp("truncated.grd")
    inputs[cubic_grid] = lambda: grid_text((0.0, 0.0), h, cubic)
    inputs[harmonic_grid] = lambda: grid_text((0.0, 0.0), h, harmonic)

    def truncated_text():
        text = grid_text((0.0, 0.0), h, cubic)
        return text[: len(text) // 2].rsplit("\n", 1)[0] + "\n"

    inputs[truncated] = truncated_text

    # apply: a(x) D11 + b(x) D22.  On a cubic, a forward second difference is
    # exactly h^2 times the second derivative one node further on.
    a_fn, b_fn = (VARIABLE_COEFFS[i] for i in rng.choice(len(VARIABLE_COEFFS), size=2, replace=False))
    variable = inp("variable.stn")
    inputs[variable] = lambda: stencil_text(
        h, [(s, a_fn.text if w == 1 else f"{w:g}*({a_fn.text})") for s, w in _D11]
        + [(s, b_fn.text if w == 1 else f"{w:g}*({b_fn.text})") for s, w in _D22])
    applied = out("applied_variable.grd")

    def check_variable(o):
        origin, hh, v = read_grid(o[applied])
        _require(v.shape == (n - 2, n - 2) and origin == (0.0, 0.0), "applied grid has the wrong spec")
        y1, y2 = meshes(origin, hh, v.shape)
        a, b = a_fn.f(y1, y2), b_fn.f(y1, y2)
        expected = h * h * (a * _cubic_d2(c, 0, y1 + h, y2) + b * _cubic_d2(c, 1, y1, y2 + h))
        scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
        deviation = float(np.abs(v - expected).max())
        _require(deviation <= _exact_bound(cubic, scale), f"variable stencil off by {deviation:.3e}")

    jobs.append(Job("apply-variable", ["apply", f"--stencil={variable}", f"--grid={cubic_grid}",
                                       f"--output={applied}"], (applied,), check_variable))

    biharmonic = inp("biharmonic.stn")
    inputs[biharmonic] = lambda: stencil_text(h, _biharmonic_terms())
    applied_bih = out("applied_biharmonic.grd")

    def check_biharmonic(o):
        _, _, v = read_grid(o[applied_bih])
        _require(v.shape == (n - 4, n - 4), "biharmonic output has the wrong extents")
        deviation = float(np.abs(v).max())
        _require(deviation <= _exact_bound(cubic), f"biharmonic of a cubic is {deviation:.3e}, not 0")

    jobs.append(Job("apply-biharmonic", ["apply", f"--stencil={biharmonic}", f"--grid={cubic_grid}",
                                         f"--output={applied_bih}"], (applied_bih,), check_biharmonic))

    def check_verify(path, u):
        def check(o):
            rows = read_csv(o[path])
            _require(len(rows) == 1, "verify needs one row")
            row = rows[0]
            _require(row["operator"] == "laplace" and row["scaled"] == "true", "verify ran the wrong operator")
            bound = _exact_bound(u, 1.0 / h**2)
            _require(float(row["residual_linf"]) <= bound, f"residual {row['residual_linf']} above {bound:.3e}")
            _require(float(row["residual_l1"]) <= bound, f"l1 residual {row['residual_l1']} above {bound:.3e}")
            _require(row["max_principle"] == _max_principle(u), "max principle verdict differs")

        return check

    verify_harmonic = out("verify_harmonic.csv")
    jobs.append(Job("verify-scaled", ["verify", f"--grid={harmonic_grid}", "--scaled",
                                      f"--output={verify_harmonic}"], (verify_harmonic,),
                    check_verify(verify_harmonic, harmonic)))

    # The scaled forward Laplacian of the cubic is linear; pass it as --rhs.
    def lap(y1, y2):
        return float(_cubic_d2(c, 0, y1 + h, y2) + _cubic_d2(c, 1, y1, y2 + h))

    k0 = lap(0.0, 0.0)
    rhs = f"{k0!r} + {lap(1.0, 0.0) - k0!r}*x1 + {lap(0.0, 1.0) - k0!r}*x2".replace("+ -", "- ")
    verify_rhs = out("verify_rhs.csv")
    jobs.append(Job("verify-rhs", ["verify", f"--grid={cubic_grid}", "--scaled", f"--rhs={rhs}",
                                   f"--output={verify_rhs}"], (verify_rhs,), check_verify(verify_rhs, cubic)))

    # Expected failures: ln(x1) at x1 <= 0 exits 2, a truncated grid exits 1.
    ln_stencil = inp("ln.stn")
    inputs[ln_stencil] = lambda: stencil_text(h, [((2, 0), "ln(x1)"), ((1, 0), "-2*ln(x1)"),
                                                  ((0, 0), "ln(x1)")])
    point = (-float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
    jobs.append(Job("fail-ln-apply", ["apply", f"--stencil={ln_stencil}", f"--grid={cubic_grid}",
                                      f"--output={out('ln_applied.grd')}"], (out("ln_applied.grd"),),
                    expect_exit=2))
    jobs.append(Job("fail-ln-classify", ["classify", f"--stencil={ln_stencil}", "--at",
                                         repr(point[0]), repr(point[1]),
                                         f"--output={out('ln_classify.csv')}"],
                    (out("ln_classify.csv"),), expect_exit=2))
    jobs.append(Job("fail-truncated", ["verify", f"--grid={truncated}", f"--output={out('truncated.csv')}"],
                    (out("truncated.csv"),), expect_exit=1))
    return Workload(jobs, inputs)
