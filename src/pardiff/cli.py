"""Batch front-end: classify, apply, solve, mollify, potential, verify, convergence.

This module parses arguments, lays out CSV and maps exceptions to exit codes;
everything else lives in the library.  Results go to files or standard
output, diagnostics to standard error.  CSV output uses a fixed header per
subcommand and 17-significant-digit floats, so identical inputs produce
byte-identical output.  Files are written through ``grid._atomic_write``,
never left half-written.

Exit codes: 0 success, 1 input or parse error, 2 numerical failure
(non-convergence, coefficient evaluation failure or floating-point overflow)
or running out of memory.
Commands run with numpy's overflow, invalid and divide errors raised, so a
numerical failure ends in one ``error:`` line rather than a warning.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .classify import DEFAULT_TOL, classify_region
from .elliptic import (
    SOLVE_MAX_ITER,
    SOLVE_TOL,
    FundamentalSolution,
    convergence_study,
    max_principle_check,
    newtonian_potential,
    solve_biharmonic,
    solve_laplace_dirichlet,
    solve_poisson_dirichlet,
)
from .expr import ExprEvalError, parse as parse_expr
from .grid import GridFunction, GridSpec, _atomic_write, load_grid, sample, save_grid
from .mollify import MollifierError, convolve, mollifier_for
from .stencil import biharmonic_stencil, laplace_stencil, load_stencil, residual

__all__ = ["main"]

# Options whose value is an expression, which may start with "-".
_EXPRESSION_OPTIONS = ("--boundary", "--rhs", "--lap-boundary", "--reference")
# Options whose values are coordinates, which may be negative in any spelling float() takes.
_COORDINATE_OPTIONS = ("--at", "--probe-origin", "--origin")


class _UsageError(ValueError):
    pass


class _NumericalFailure(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _emit_csv(header: str, rows: Iterable[Sequence], output: str | None) -> None:
    """The header line then one line per row: text as is, numbers in ``.17g``.

    All rows are formatted by one ``%`` over a template of ``%s`` and
    ``%.17g`` fields, which gives the bytes of ``format(float(v), ".17g")``.
    """
    lines: list[str] = []
    values: list = []
    for row in rows:
        lines.append(",".join(["%s" if isinstance(v, str) else "%.17g" for v in row]) + "\n")
        values.extend(row)
    text = header + "\n" + "".join(lines) % tuple(values)
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(output, text)


def _cmd_classify(args) -> int:
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
    rows = zip(report.points.tolist(), report.eigenvalues.tolist(), report.labels)
    header = ",".join([f"x{k}" for k in axes] + [f"lambda{k}" for k in axes] + ["label"])
    _emit_csv(header, [[*point, *eig, label] for point, eig, label in rows], args.output)
    return 0


def _cmd_apply(args) -> int:
    s = load_stencil(args.stencil)
    u = load_grid(args.grid)
    save_grid(s.apply(u), args.output)
    return 0


def _cmd_solve(args) -> int:
    domain = load_grid(args.grid)
    spec = domain.spec
    g = sample(parse_expr(args.boundary), spec) if args.boundary else domain

    def rhs_grid() -> GridFunction:
        if args.rhs_grid:
            return load_grid(args.rhs_grid)
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
    save_grid(report.solution, args.output)
    _emit_csv(
        "operator,iterations,final_residual,converged",
        [[args.operator, report.iterations, report.final_residual, "true"]],
        args.report,
    )
    return 0


def _cmd_mollify(args) -> int:
    u = load_grid(args.grid)
    kernel = mollifier_for(u.spec, args.eps, args.refine)
    save_grid(convolve(u, kernel), args.output)
    _emit_csv(
        "mass,support_radius,symmetry_deviation",
        [[kernel.mass, kernel.support_radius, kernel.symmetry_deviation]],
        args.report,
    )
    return 0


def _cmd_potential(args) -> int:
    source = load_grid(args.source)
    targets = load_grid(args.targets).spec if args.targets else source.spec
    fs = FundamentalSolution(source.spec.dim)
    save_grid(newtonian_potential(fs, source, targets), args.output)
    return 0


def _cmd_verify(args) -> int:
    u = load_grid(args.grid)
    stencil = laplace_stencil if args.operator == "laplace" else biharmonic_stencil
    s = stencil(u.spec.dim, u.spec.h, scaled=args.scaled)
    if args.rhs:
        rhs = sample(parse_expr(args.rhs), u.spec)
    else:
        rhs = GridFunction(u.spec, np.zeros(u.spec.extents))
    l1, linf = residual(s, u, rhs)
    passed, _ = max_principle_check(u)
    scaled = "true" if args.scaled else "false"
    _emit_csv(
        "operator,scaled,residual_l1,residual_linf,max_principle",
        [[args.operator, scaled, l1, linf, "pass" if passed else "fail"]],
        args.output,
    )
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
    _emit_csv(
        "h,error,observed_order",
        [[row.h, row.error, "exact" if row.exact else "" if row.order is None else row.order]
         for row in rows],
        args.output,
    )
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
    p.add_argument("--tol", type=float, default=SOLVE_TOL)
    p.add_argument("--max-iter", type=int, default=SOLVE_MAX_ITER)
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
    p.add_argument("--tol", type=float, default=SOLVE_TOL)
    p.add_argument("--max-iter", type=int, default=SOLVE_MAX_ITER)
    p.add_argument("--output", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_convergence)
    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _mark_option_values(argv: Iterable[str]) -> Iterator[str]:
    """Rewrite option values that start with "-" so that argparse takes them as values.

    ``--rhs VALUE`` becomes ``--rhs=VALUE``.  After a coordinate option, a
    number that starts with "-" gains a leading space, which ``float()``
    ignores: argparse takes only some spellings of a negative number as a
    value (``-1.5`` but not ``-1e-05`` or ``-inf`` on Python 3.11), and which
    ones depends on the Python version, while it takes any token that does not
    start with "-" as a value.
    """
    tokens = iter(argv)
    coordinates = False
    for token in tokens:
        if coordinates and _is_float(token):
            yield " " + token if token.startswith("-") else token
            continue
        coordinates = token in _COORDINATE_OPTIONS
        value = next(tokens, None) if token in _EXPRESSION_OPTIONS else None
        yield token if value is None else f"{token}={value}"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_mark_option_values(sys.argv[1:] if argv is None else argv))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (_NumericalFailure, ExprEvalError, MollifierError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    # Usage, syntax, file-format and size errors are all ValueErrors, as are the
    # two exit-2 errors above; those are caught first.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
