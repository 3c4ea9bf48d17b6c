"""Batch front-end: classify, apply, solve, mollify, potential, verify, convergence.

This module parses arguments, picks CSV columns and maps exceptions to exit
codes; everything else lives in the library.  Results go to files or standard
output, diagnostics to standard error.  CSV has a fixed header per subcommand
and 17-significant-digit floats, formatted in 4096-row blocks by the grid
file's writer, so identical inputs give byte-identical output.  ``main``
checks every output file before the command reads any input
(``grid._check_targets``: a directory, a missing directory or a target that is
not a regular file is refused).  Commands return chunks; ``main`` streams all
of its files or none through ``grid._atomic_write``, then writes standard
output's joined; an error names the target path as given.

An argument is an option only when it is spelled as one of its command's
options, alone or as ``--name=value``; every other argument is a value,
whatever it starts with (``--tol -1e-05``, ``--at -1 -2.5E+3``), and an
abbreviation such as ``--out`` is not an option.

Exit codes: 0 success, 1 input or parse error, 2 numerical failure
(non-convergence, coefficient evaluation failure or floating-point overflow)
or running out of memory.
Commands run with numpy's overflow, invalid and divide errors raised, so a
numerical failure ends in one ``error:`` line rather than a warning.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterable

import numpy as np

from . import __version__
from .classify import DEFAULT_TOL, _point_probe, classify_region
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
from .expr import ExprEvalError
from .grid import (
    GridSpec, _atomic_write, _check_targets, _table_chunks, grid_file_chunks, load_grid, sample,
)
from .mollify import MollifierError, convolve, mollifier_for
from .stencil import biharmonic_stencil, laplace_stencil, load_stencil, residual

__all__ = ["main"]

# What a command returns: (file, or None for standard output; its text's chunks) pairs,
# written by main.  Chunks come from grid.grid_file_chunks or, for a CSV, grid._table_chunks.
Outputs = list[tuple[str | None, Iterable[str]]]


class _UsageError(ValueError):
    pass


class _NumericalFailure(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # None makes the argument a value (see the module docstring); a declared option
        # goes on to argparse's own code, whose return shape differs between Python versions
        if arg_string.split("=", 1)[0] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _cmd_classify(args) -> Outputs:
    probe_options = (args.probe_origin, args.probe_h, args.probe_extents)
    # exactly one source of points: --at alone, or all three probe options
    if [v is not None for v in probe_options] != [args.at is None] * 3:
        raise _UsageError("classify needs --at or all of --probe-origin/--probe-h/--probe-extents")
    s = load_stencil(args.stencil)
    if args.at is not None:
        probe = _point_probe(args.at)
    else:
        probe = GridSpec(tuple(args.probe_origin), args.probe_h, tuple(args.probe_extents))
    report = classify_region(s, probe, args.tol)
    axes = range(1, s.dim + 1)
    header = ",".join([f"x{k}" for k in axes] + [f"lambda{k}" for k in axes] + ["label"])
    columns = [*report.points.T, *report.eigenvalues.T, report.labels]
    return [(args.output, _table_chunks(header + "\n", columns))]


def _cmd_apply(args) -> Outputs:
    s = load_stencil(args.stencil)
    u = load_grid(args.grid)
    return [(args.output, grid_file_chunks(s.apply(u)))]


def _cmd_solve(args) -> Outputs:
    # built per call, so the solver names are looked up when the command runs
    solvers = {
        "laplace": (solve_laplace_dirichlet, False, False),
        "poisson": (solve_poisson_dirichlet, True, False),
        "biharmonic": (solve_biharmonic, True, True),
    }
    solve, takes_rhs, takes_lap_boundary = solvers[args.operator]
    if not takes_rhs and (args.rhs is not None or args.rhs_grid is not None):
        raise _UsageError(f"solve {args.operator} takes no right-hand side")
    if not takes_lap_boundary and args.lap_boundary is not None:
        raise _UsageError("--lap-boundary applies only to solve biharmonic")
    if takes_lap_boundary and args.lap_boundary is None:
        raise _UsageError(f"solve {args.operator} needs --lap-boundary")
    domain = load_grid(args.grid)
    spec = domain.spec
    inputs = [domain if args.boundary is None else sample(args.boundary, spec)]
    if takes_rhs:
        rhs_text = "0" if args.rhs is None else args.rhs
        rhs = sample(rhs_text, spec) if args.rhs_grid is None else load_grid(args.rhs_grid)
        inputs.insert(0, rhs)
    if takes_lap_boundary:
        inputs.append(sample(args.lap_boundary, spec))
    # every input is built before the clock starts, so the line times the solve alone
    start = time.perf_counter()
    report = solve(*inputs, args.tol, args.max_iter)
    elapsed = time.perf_counter() - start
    print(f"solve {args.operator}: {elapsed:.3f}s wall time", file=sys.stderr)
    if not report.converged:
        raise _NumericalFailure(
            f"solve {args.operator} did not converge within {args.max_iter} iterations "
            f"(final residual {report.final_residual:.3e})"
        )
    columns = [[args.operator], np.array([report.iterations]), np.array([report.final_residual]),
               ["true"]]
    csv = _table_chunks("operator,iterations,final_residual,converged\n", columns)
    return [(args.output, grid_file_chunks(report.solution)), (args.report, csv)]


def _cmd_mollify(args) -> Outputs:
    u = load_grid(args.grid)
    kernel = mollifier_for(u.spec, args.eps, args.refine)
    columns = np.array([[kernel.mass], [kernel.support_radius], [kernel.symmetry_deviation]])
    csv = _table_chunks("mass,support_radius,symmetry_deviation\n", columns)
    return [(args.output, grid_file_chunks(convolve(u, kernel))), (args.report, csv)]


def _cmd_potential(args) -> Outputs:
    source = load_grid(args.source)
    targets = source.spec if args.targets is None else load_grid(args.targets).spec
    fs = FundamentalSolution(source.spec.dim)
    return [(args.output, grid_file_chunks(newtonian_potential(fs, source, targets)))]


def _cmd_verify(args) -> Outputs:
    u = load_grid(args.grid)
    stencil = laplace_stencil if args.operator == "laplace" else biharmonic_stencil
    s = stencil(u.spec.dim, u.spec.h, scaled=args.scaled)
    l1, linf = residual(s, u, sample("0" if args.rhs is None else args.rhs, u.spec))
    passed, _ = max_principle_check(u)
    columns = [[args.operator], ["true" if args.scaled else "false"], np.array([l1]),
               np.array([linf]), ["pass" if passed else "fail"]]
    csv = _table_chunks("operator,scaled,residual_l1,residual_linf,max_principle\n", columns)
    return [(args.output, csv)]


def _cmd_convergence(args) -> Outputs:
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
    orders = ["exact" if r.exact else "" if r.order is None else "%.17g" % r.order for r in rows]
    table = [np.array([r.h for r in rows]), np.array([r.error for r in rows]), orders]
    return [(args.output, _table_chunks("h,error,observed_order\n", table))]


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
    rhs = p.add_mutually_exclusive_group()
    rhs.add_argument("--rhs", help="right-hand side expression")
    rhs.add_argument("--rhs-grid", help="right-hand side grid file")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = vars(args).get("report")
        if report is not None and os.path.realpath(report) == os.path.realpath(args.output):
            raise _UsageError(f"--output {args.output} and --report {report} name the same file")
        _check_targets(p for p in (vars(args).get("output"), report) if p is not None)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outputs = args.func(args)
        _atomic_write([(path, text) for path, text in outputs if path is not None])
        sys.stdout.write("".join(c for path, text in outputs if path is None for c in text))
        return 0
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
