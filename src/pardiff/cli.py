"""Batch front-end: classify, apply, solve, mollify, potential, verify, convergence.

Results go to files or standard output, diagnostics to standard error.  CSV
output uses a fixed header per subcommand and 17-significant-digit floats, so
identical inputs produce byte-identical output.  Files are written to a
temporary name and renamed on success, never left half-written.

Exit codes: 0 success, 1 input or parse error, 2 numerical failure
(non-convergence, coefficient evaluation failure or floating-point overflow).
Commands run with numpy's overflow, invalid and divide errors raised, so a
numerical failure ends in one ``error:`` line rather than a warning.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .classify import DEFAULT_TOL, classify_region
from .elliptic import (
    FundamentalSolution,
    SolveReport,
    convergence_study,
    max_principle_check,
    newtonian_potential,
    solve_biharmonic,
    solve_laplace_dirichlet,
    solve_poisson_dirichlet,
)
from .expr import ExprEvalError, ExprSyntaxError, parse as parse_expr
from .grid import GridFileError, GridFunction, GridSpec, grid_file_text, load_grid, sample
from .mollify import MollifierError, convolve, make_mollifier
from .stencil import StencilFileError, biharmonic_stencil, laplace_stencil, load_stencil, residual

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _NumericalFailure(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pardiff-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(output, text)


def _save_grid_atomic(u: GridFunction, path: str) -> None:
    _atomic_write(path, grid_file_text(u))


def _cmd_classify(args) -> int:
    if args.tol <= 0.0:
        raise _UsageError(f"--tol must be positive, got {args.tol}")
    s = load_stencil(args.stencil)
    if args.at is not None:
        if len(args.at) != s.dim:
            raise _UsageError(f"--at needs {s.dim} coordinates")
        probe = GridSpec(tuple(args.at), 1.0, (1,) * s.dim)
    else:
        if args.probe_origin is None or args.probe_h is None or args.probe_extents is None:
            raise _UsageError("classify needs --at or all of --probe-origin/--probe-h/--probe-extents")
        probe = GridSpec(tuple(args.probe_origin), args.probe_h, tuple(args.probe_extents))
    report = classify_region(s, probe, args.tol)
    axes = range(1, s.dim + 1)
    lines = [",".join([f"x{k}" for k in axes] + [f"lambda{k}" for k in axes] + ["label"])]
    for point, eig, label in zip(report.points, report.eigenvalues, report.labels):
        lines.append(",".join([_fmt(v) for v in (*point, *eig)] + [label]))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_apply(args) -> int:
    s = load_stencil(args.stencil)
    u = load_grid(args.grid)
    result = s.apply(u)
    _save_grid_atomic(result, args.output)
    return 0


def _report_lines(operator: str, report: SolveReport) -> str:
    lines = [
        "operator,iterations,final_residual,converged",
        f"{operator},{report.iterations},{_fmt(report.final_residual)},"
        f"{'true' if report.converged else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    domain = load_grid(args.grid)
    spec = domain.spec
    g = sample(parse_expr(args.boundary), spec) if args.boundary else domain

    def rhs_grid() -> GridFunction:
        if args.rhs_grid:
            f = load_grid(args.rhs_grid)
            if f.spec != spec:
                raise _UsageError("--rhs-grid must live on the same grid as --grid")
            return f
        if args.rhs:
            return sample(parse_expr(args.rhs), spec)
        return GridFunction(spec, np.zeros(spec.extents))

    if args.operator == "laplace" and (args.rhs or args.rhs_grid):
        raise _UsageError("solve laplace takes no right-hand side")
    if args.operator != "biharmonic" and args.lap_boundary:
        raise _UsageError("--lap-boundary applies only to solve biharmonic")
    start = time.perf_counter()
    if args.operator == "laplace":
        report = solve_laplace_dirichlet(g, args.tol, args.max_iter)
    elif args.operator == "poisson":
        report = solve_poisson_dirichlet(rhs_grid(), g, args.tol, args.max_iter)
    else:
        if not args.lap_boundary:
            raise _UsageError("solve biharmonic needs --lap-boundary")
        g_lap = sample(parse_expr(args.lap_boundary), spec)
        report = solve_biharmonic(rhs_grid(), g, g_lap, args.tol, args.max_iter)
    elapsed = time.perf_counter() - start
    print(f"solve {args.operator}: {elapsed:.3f}s wall time", file=sys.stderr)
    if not report.converged:
        raise _NumericalFailure(
            f"solve {args.operator} did not converge within {args.max_iter} iterations "
            f"(best residual {report.final_residual:.3e})"
        )
    _save_grid_atomic(report.solution, args.output)
    _emit(_report_lines(args.operator, report), args.report)
    return 0


def _cmd_mollify(args) -> int:
    u = load_grid(args.grid)
    kernel = make_mollifier(u.spec.dim, args.eps, u.spec.h, args.refine)
    smoothed = convolve(u, kernel)
    _save_grid_atomic(smoothed, args.output)
    kv = kernel.samples.values
    meshes = kernel.samples.spec.meshes()
    radius = np.sqrt(sum(m * m for m in meshes))
    nonzero = kv != 0.0
    support_radius = float(radius[nonzero].max()) if nonzero.any() else 0.0
    symmetry = float(np.abs(kv - kv[tuple(slice(None, None, -1) for _ in range(kv.ndim))]).max())
    lines = [
        "mass,support_radius,symmetry_deviation",
        f"{_fmt(kernel.mass)},{_fmt(support_radius)},{_fmt(symmetry)}",
    ]
    _emit("\n".join(lines) + "\n", args.report)
    return 0


def _cmd_potential(args) -> int:
    source = load_grid(args.source)
    targets = load_grid(args.targets).spec if args.targets else source.spec
    fs = FundamentalSolution(source.spec.dim)
    u = newtonian_potential(fs, source, targets)
    _save_grid_atomic(u, args.output)
    return 0


def _cmd_verify(args) -> int:
    u = load_grid(args.grid)
    dim, h = u.spec.dim, u.spec.h
    if args.operator == "laplace":
        s = laplace_stencil(dim, h, scaled=args.scaled)
    else:
        s = biharmonic_stencil(dim, h, scaled=args.scaled)
    if args.rhs:
        rhs = sample(parse_expr(args.rhs), u.spec)
    else:
        rhs = GridFunction(u.spec, np.zeros(u.spec.extents))
    l1, linf = residual(s, u, rhs)
    passed, witness = max_principle_check(u)
    lines = [
        "operator,scaled,residual_l1,residual_linf,max_principle",
        f"{args.operator},{'true' if args.scaled else 'false'},{_fmt(l1)},{_fmt(linf)},"
        f"{'pass' if passed else 'fail'}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_convergence(args) -> int:
    rows = convergence_study(
        args.problem,
        args.reference,
        args.rhs,
        tuple(args.origin),
        args.length,
        list(args.h),
        args.tol,
        args.max_iter,
    )
    if not rows[-1].converged:
        raise _NumericalFailure(f"solve at h={rows[-1].h} did not converge")
    lines = ["h,error,observed_order"]
    for row in rows:
        order = "exact" if row.exact else "" if row.order is None else _fmt(row.order)
        lines.append(f"{_fmt(row.h)},{_fmt(row.error)},{order}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="pardiff",
        description="Partial difference equations on uniform grids.",
    )
    parser.add_argument("--version", action="version", version=f"pardiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="label a stencil at a point or over a probe grid")
    p.add_argument("--stencil", required=True, help="stencil file")
    p.add_argument("--at", nargs="+", type=float, help="classify at one point")
    p.add_argument("--probe-origin", nargs="+", type=float)
    p.add_argument("--probe-h", type=float)
    p.add_argument("--probe-extents", nargs="+", type=int)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--output", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("apply", help="apply a stencil to a grid function")
    p.add_argument("--stencil", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--output", required=True, help="result grid file")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("solve", help="Dirichlet solve on the grid of --grid")
    p.add_argument("operator", choices=("laplace", "poisson", "biharmonic"))
    p.add_argument("--grid", required=True, help="domain grid (values = default boundary data)")
    p.add_argument("--boundary", help="boundary expression (default: grid file values)")
    p.add_argument("--rhs", help="right-hand side expression")
    p.add_argument("--rhs-grid", help="right-hand side grid file")
    p.add_argument("--lap-boundary", help="boundary expression for the Laplacian stage")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--output", required=True, help="solution grid file")
    p.add_argument("--report", help="CSV report destination (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mollify", help="smooth a grid function by a compact kernel")
    p.add_argument("--grid", required=True)
    p.add_argument("--eps", type=float, required=True, help="kernel support radius")
    p.add_argument("--refine", type=int, default=8, help="quadrature subsamples per cell")
    p.add_argument("--output", required=True, help="smoothed grid file")
    p.add_argument("--report", help="validator CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_mollify)

    p = sub.add_parser("potential", help="volume potential of a compactly supported source")
    p.add_argument("--source", required=True, help="source grid file")
    p.add_argument("--targets", help="grid file supplying target nodes (default: source grid)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("verify", help="residual and max-principle checks for a grid function")
    p.add_argument("--grid", required=True)
    p.add_argument("--operator", choices=("laplace", "biharmonic"), default="laplace")
    p.add_argument("--scaled", action="store_true", help="include the h^(-p) factor")
    p.add_argument("--rhs", help="right-hand side expression (default: 0)")
    p.add_argument("--output", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convergence", help="error vs spacing study against a reference")
    p.add_argument("--problem", choices=("laplace", "poisson"), required=True)
    p.add_argument("--reference", required=True, help="analytic reference expression")
    p.add_argument("--rhs", help="right-hand side expression (poisson)")
    p.add_argument("--h", nargs="+", type=float, required=True, help="decreasing spacings")
    p.add_argument("--origin", nargs="+", type=float, required=True)
    p.add_argument("--length", type=float, required=True, help="box side length")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--output", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (_NumericalFailure, ExprEvalError, MollifierError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExprSyntaxError, GridFileError, StencilFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
