import argparse
import contextlib
import io
import math
import os
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pardiff.grid as grid_module
from pardiff import cli, elliptic
from pardiff.cli import main
from pardiff.grid import GridFunction, GridSpec, load_grid, sample, save_grid
from pardiff.stencil import laplace_stencil, save_stencil


@pytest.fixture
def lap2(tmp_path):
    path = tmp_path / "lap2.stn"
    save_stencil(laplace_stencil(2, 0.25), str(path))
    return str(path)


@pytest.fixture
def saddle_grid(tmp_path):
    spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
    path = tmp_path / "saddle.grd"
    save_grid(sample("x1^2 - x2^2", spec), str(path))
    return str(path)


@pytest.fixture
def box_grid(tmp_path):
    spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
    path = tmp_path / "box.grd"
    save_grid(GridFunction(spec, np.zeros((17, 17))), str(path))
    return str(path)


class TestClassifyCommand:
    def test_point_classification_line(self, lap2, capsys):
        assert main(["classify", "--stencil", lap2, "--at", "0", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x1,x2,lambda1,lambda2,label"
        assert out[1] == "0,0,2,2,elliptic"

    def test_region_classification(self, tmp_path, capsys):
        path = tmp_path / "tricomi.stn"
        path.write_text(
            "dim 2\nh 0.02\nscale 0\n"
            'term 0 2  "x2"\nterm 0 1  "-2*x2"\nterm 0 0  "x2 + 1"\n'
            "term 2 0  1\nterm 1 0  -2\n"
        )
        code = main(
            [
                "classify",
                "--stencil",
                str(path),
                "--probe-origin",
                "0",
                "-1",
                "--probe-h",
                "0.02",
                "--probe-extents",
                "1",
                "101",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        labels = [line.split(",")[-1] for line in lines[1:]]
        assert labels.count("elliptic") == 50
        assert labels.count("hyperbolic") == 50
        assert labels.count("parabolic") == 1

    def test_malformed_stencil_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.stn"
        path.write_text("dim 2\nh 0.25\nscale 0\nterm 1 0\n")
        assert main(["classify", "--stencil", str(path), "--at", "0", "0"]) == 1
        err = capsys.readouterr().err
        assert "broken.stn:4" in err

    def test_wrong_point_dimension_exits_1(self, lap2):
        assert main(["classify", "--stencil", lap2, "--at", "0"]) == 1

    def test_incomplete_probe_exits_1(self, lap2, capsys):
        argv = ["classify", "--stencil", lap2, "--probe-origin", "0", "0", "--probe-h", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: classify needs --at or all of --probe-origin/--probe-h/--probe-extents\n"
        )

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["classify", "--stencil", str(tmp_path / "nope.stn"), "--at", "0", "0"]) == 1

    def test_non_finite_point_exits_1(self, lap2, capsys):
        assert main(["classify", "--stencil", lap2, "--at", "nan", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_eigenvalue_overflow_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.stn"
        path.write_text("dim 2\nh 1\nscale 0\nterm 1 1  1e308\n")
        assert main(["classify", "--stencil", str(path), "--at", "0", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflow" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("dim", [2, 3])
    def test_point_is_a_one_node_probe(self, tmp_path, capsys, dim):
        path = tmp_path / "s.stn"
        path.write_text(f"dim {dim}\nh 1\nscale 0\n" + ONE_NODE_PROBE_TERMS[dim])
        rng = np.random.default_rng(80 + dim)
        for _ in range(100):
            x = [repr(float(v)) for v in rng.uniform(-0.9, 0.9, size=dim)]
            assert main(["classify", "--stencil", str(path), "--at", *x]) == 0
            at = capsys.readouterr().out
            probe = ["--probe-origin", *x, "--probe-h", "1", "--probe-extents", *["1"] * dim]
            assert main(["classify", "--stencil", str(path), *probe]) == 0
            assert capsys.readouterr().out == at


ONE_NODE_PROBE_TERMS = {
    2: 'term 2 0  "exp(x1)"\nterm 1 0  "-2*exp(x1)"\nterm 0 2  "ln(x2 + 3)"\n'
    'term 1 1  "(x1 + 2)^1.5"\nterm 1 -1  "exp(x2)*ln(x1 + 3)"\nterm 0 0  "x1^3 - exp(x2)"\n',
    3: 'term 2 0 0  "exp(x1)"\nterm 0 2 0  "ln(x2 + 3)"\nterm 0 0 2  "(x3 + 2)^0.7"\n'
    'term 1 1 0  "exp(x3)*ln(x1 + 3)"\nterm 0 1 -1  "(x1 + 2)^x2"\nterm 1 0 1  "-exp(x2 - x3)"\n',
}


class TestApplyCommand:
    def test_applies_and_writes_grid(self, lap2, saddle_grid, tmp_path):
        out = tmp_path / "out.grd"
        assert main(["apply", "--stencil", lap2, "--grid", saddle_grid, "--output", str(out)]) == 0
        result = load_grid(str(out))
        assert result.spec.extents == (7, 7)
        assert np.abs(result.values).max() == 0.0

    def test_spacing_mismatch_exits_1(self, lap2, tmp_path):
        spec = GridSpec((0.0, 0.0), 0.5, (9, 9))
        path = tmp_path / "wrong.grd"
        save_grid(sample("x1", spec), str(path))
        assert main(["apply", "--stencil", lap2, "--grid", str(path), "--output", str(tmp_path / "o.grd")]) == 1

    def test_many_duplicate_expression_terms(self, tmp_path, capsys):
        stencil = tmp_path / "dup.stn"
        stencil.write_text("dim 1\nh 0.25\nscale 0\n" + 'term 0  "x1"\n' * 1200)
        spec = GridSpec((-1.0,), 0.25, (9,))
        grid = tmp_path / "u.grd"
        save_grid(sample("1 + x1^2", spec), str(grid))
        out = tmp_path / "o.grd"
        assert main(["apply", "--stencil", str(stencil), "--grid", str(grid), "--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        result = load_grid(str(out)).values
        x1 = spec.meshes()[0]
        expected = 1200.0 * x1 * (1.0 + x1**2)
        assert np.abs(result - expected).max() <= 1e-12 * max(1.0, np.abs(result).max())

    def test_coefficient_beyond_grid_dimension_exits_1(self, saddle_grid, tmp_path, capsys):
        stencil = tmp_path / "x3.stn"
        stencil.write_text('dim 2\nh 0.25\nscale 0\nterm 0 0  "x3"\nterm 1 0  1\n')
        out = tmp_path / "o.grd"
        assert main(["apply", "--stencil", str(stencil), "--grid", saddle_grid, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x3" in err and err.count("\n") == 1
        assert not out.exists()


class TestSolveCommand:
    def test_laplace_solve_writes_solution_and_report(self, box_grid, tmp_path, capsys):
        out = tmp_path / "sol.grd"
        code = main(
            [
                "solve",
                "laplace",
                "--grid",
                box_grid,
                "--boundary",
                "x1*x2",
                "--tol",
                "1e-10",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "operator,iterations,final_residual,converged"
        assert lines[1].startswith("laplace,") and lines[1].endswith(",true")
        assert "wall time" in captured.err  # diagnostics only on stderr
        solution = load_grid(str(out))
        exact = sample("x1*x2", solution.spec)
        assert np.abs(solution.values - exact.values).max() <= 1e-9

    def test_poisson_solve(self, box_grid, tmp_path, capsys):
        out = tmp_path / "sol.grd"
        code = main(
            [
                "solve",
                "poisson",
                "--grid",
                box_grid,
                "--boundary",
                "(x1^2 + x2^2)/4",
                "--rhs",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        solution = load_grid(str(out))
        exact = sample("(x1^2 + x2^2)/4", solution.spec)
        assert np.abs(solution.values - exact.values).max() <= 1e-9

    def test_biharmonic_solve(self, box_grid, tmp_path, capsys):
        out = tmp_path / "sol.grd"
        code = main(
            [
                "solve",
                "biharmonic",
                "--grid",
                box_grid,
                "--boundary",
                "x1^2 + x2^2",
                "--lap-boundary",
                "4",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        solution = load_grid(str(out))
        exact = sample("x1^2 + x2^2", solution.spec)
        assert np.abs(solution.values - exact.values).max() <= 1e-9

    def test_non_convergence_exits_2_and_writes_nothing(self, tmp_path, capsys):
        spec = GridSpec((0.0, 0.0), 1 / 32, (33, 33))
        grid = tmp_path / "g.grd"
        save_grid(GridFunction(spec, np.zeros((33, 33))), str(grid))
        out = tmp_path / "sol.grd"
        code = main(
            [
                "solve",
                "laplace",
                "--grid",
                str(grid),
                "--boundary",
                "exp(x1)*sin(x2)",
                "--max-iter",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_non_convergence_names_the_final_residual(self, tmp_path, capsys):
        # a ring of exp(x1)*sin(x2) round a zero interior: the SOR residual is not
        # monotone, and sweep 37 reads higher than sweep 36
        spec = GridSpec((0.0, 0.0), 1 / 32, (33, 33))
        values = sample("exp(x1)*sin(x2)", spec).values.copy()
        values[1:-1, 1:-1] = 0.0
        grid = tmp_path / "ring.grd"
        save_grid(GridFunction(spec, values), str(grid))
        out = tmp_path / "sol.grd"
        argv = ["solve", "laplace", "--grid", str(grid), "--max-iter", "37", "--output", str(out)]
        assert main(argv) == 2
        report = elliptic.solve_laplace_dirichlet(load_grid(str(grid)), elliptic.SOLVE_TOL, 37)
        earlier = elliptic.solve_laplace_dirichlet(load_grid(str(grid)), elliptic.SOLVE_TOL, 36)
        assert earlier.final_residual < report.final_residual
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: solve laplace did not converge within 37 iterations "
            f"(final residual {report.final_residual:.3e})"
        )
        assert f"{report.final_residual:.3e}" == "5.273e-03"
        assert not out.exists()

    def test_boundary_evaluation_failure_exits_2(self, tmp_path):
        spec = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        grid = tmp_path / "g.grd"
        save_grid(GridFunction(spec, np.zeros((9, 9))), str(grid))
        code = main(
            [
                "solve",
                "laplace",
                "--grid",
                str(grid),
                "--boundary",
                "1/x1",
                "--output",
                str(tmp_path / "s.grd"),
            ]
        )
        assert code == 2

    def test_boundary_syntax_error_exits_1(self, box_grid, tmp_path):
        code = main(
            [
                "solve",
                "laplace",
                "--grid",
                box_grid,
                "--boundary",
                "x1+*2",
                "--output",
                str(tmp_path / "s.grd"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "boundary", ["(" * 1200 + "x1" + ")" * 1200, "x1 + 1e999"], ids=["nested", "non-finite"]
    )
    def test_boundary_rejected_with_one_error_line(self, box_grid, tmp_path, capsys, boundary):
        out = tmp_path / "s.grd"
        code = main(
            ["solve", "laplace", "--grid", box_grid, f"--boundary={boundary}", "--output", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_boundary_beyond_grid_dimension_exits_1(self, box_grid, tmp_path, capsys):
        out = tmp_path / "s.grd"
        code = main(["solve", "laplace", "--grid", box_grid, "--boundary", "x3", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: expression uses x3 but the grid has dimension 2\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "operator, data, spacing",
        [("laplace", "--boundary=1e308", "0.25"), ("poisson", "--rhs=1", "1e-300")],
        ids=["sweep", "scale"],
    )
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, capsys, operator, data, spacing):
        grid = tmp_path / "g.grd"
        grid.write_text(f"dim 2\norigin 0 0\nh {spacing}\nextents 5 5\n" + "0\n" * 25)
        out = tmp_path / "u.grd"
        args = ["solve", operator, "--grid", str(grid), data, "--max-iter", "50", "--output", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err and err.count("\n") == 1
        assert not out.exists()

    def test_laplace_rejects_rhs(self, box_grid, tmp_path):
        code = main(
            [
                "solve",
                "laplace",
                "--grid",
                box_grid,
                "--boundary",
                "x1",
                "--rhs",
                "1",
                "--output",
                str(tmp_path / "s.grd"),
            ]
        )
        assert code == 1

    def test_lap_boundary_only_for_biharmonic(self, box_grid, tmp_path):
        code = main(
            [
                "solve",
                "poisson",
                "--grid",
                box_grid,
                "--boundary",
                "x1",
                "--rhs",
                "0",
                "--lap-boundary",
                "0",
                "--output",
                str(tmp_path / "s.grd"),
            ]
        )
        assert code == 1

    def test_biharmonic_needs_lap_boundary(self, box_grid, tmp_path):
        code = main(
            [
                "solve",
                "biharmonic",
                "--grid",
                box_grid,
                "--boundary",
                "x1",
                "--output",
                str(tmp_path / "s.grd"),
            ]
        )
        assert code == 1


def _no_sweep(*args, **kwargs):
    raise AssertionError("an SOR sweep started")


class TestNanTolerance:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--stencil", "{lap2}", "--at", "0", "0"],
            ["classify", "--stencil", "{lap2}", "--probe-origin", "0", "0", "--probe-h", "0.5",
             "--probe-extents", "3", "3"],
            ["solve", "laplace", "--grid", "{box}", "--boundary", "x1"],
            ["solve", "poisson", "--grid", "{box}", "--rhs", "1"],
            ["solve", "biharmonic", "--grid", "{box}", "--lap-boundary", "4"],
            ["convergence", "--problem", "laplace", "--reference", "x1", "--h", "0.5", "0.25",
             "--origin", "0", "0", "--length", "1"],
            ["convergence", "--problem", "poisson", "--reference", "x1^2", "--rhs", "2",
             "--h", "0.5", "0.25", "--origin", "0", "0", "--length", "1"],
        ],
        ids=["classify-at", "classify-probe", "laplace", "poisson", "biharmonic",
             "convergence-laplace", "convergence-poisson"],
    )
    def test_one_error_line_no_output_no_sweep(
        self, lap2, box_grid, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.setattr(elliptic, "_Color", _no_sweep)
        out = tmp_path / "out"
        argv = [a.format(lap2=lap2, box=box_grid) for a in argv]
        assert main([*argv, "--tol", "nan", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be positive, got nan\n"
        assert not out.exists()


SOLVE_INPUTS = [
    ("laplace", ["--boundary", "x1"]),
    ("poisson", ["--boundary", "x1", "--rhs", "x2"]),
    ("poisson", ["--rhs-grid", "{rhs}"]),
    ("biharmonic", ["--boundary", "x1", "--rhs", "x2", "--lap-boundary", "0"]),
    ("biharmonic", ["--rhs-grid", "{rhs}", "--lap-boundary", "0"]),
]


class TestSolveTiming:
    """The wall-time line of ``solve`` times the solve and nothing else."""

    @staticmethod
    def record(monkeypatch, solver):
        events = []

        def recording(event, func):
            def call(*args, **kwargs):
                events.append(event)
                return func(*args, **kwargs)

            return call

        clock = SimpleNamespace(perf_counter=recording("clock", time.perf_counter))
        monkeypatch.setattr(cli, "time", clock)
        for name in ("load_grid", "sample"):
            monkeypatch.setattr(cli, name, recording("input", getattr(cli, name)))
        monkeypatch.setattr(cli, solver, recording("solve", getattr(cli, solver)))
        return events

    @pytest.mark.parametrize("operator, extra", SOLVE_INPUTS)
    def test_inputs_are_built_before_the_clock_starts(
        self, box_grid, tmp_path, capsys, monkeypatch, operator, extra
    ):
        rhs = tmp_path / "f.grd"
        save_grid(sample("x2", load_grid(box_grid).spec), str(rhs))
        solver = {"laplace": "solve_laplace_dirichlet", "poisson": "solve_poisson_dirichlet",
                  "biharmonic": "solve_biharmonic"}[operator]
        events = self.record(monkeypatch, solver)
        extra = [a.format(rhs=rhs) for a in extra]
        argv = ["solve", operator, "--grid", box_grid, *extra, "--output", str(tmp_path / "u.grd")]
        assert main(argv) == 0
        options = ("--boundary", "--rhs", "--rhs-grid", "--lap-boundary")
        builds = 1 + sum(a in options for a in extra)  # the domain grid, then one per option
        assert events == ["input"] * builds + ["clock", "solve", "clock"]
        err = capsys.readouterr().err
        assert re.fullmatch(f"solve {operator}: \\d+\\.\\d{{3}}s wall time\n", err)

    def test_a_solve_that_does_not_converge_prints_only_its_error_line(
        self, box_grid, tmp_path, capsys
    ):
        out = tmp_path / "u.grd"
        argv = ["solve", "laplace", "--grid", box_grid, "--boundary=x1^2", "--max-iter", "2"]
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: solve laplace did not converge within 2 iterations "
            r"\(final residual \d\.\d{3}e[+-]\d+\)\n", err
        ), err
        assert not out.exists()

    def test_missing_lap_boundary_is_refused_before_the_clock_starts(
        self, box_grid, tmp_path, capsys, monkeypatch
    ):
        events = self.record(monkeypatch, "solve_biharmonic")
        argv = ["solve", "biharmonic", "--grid", box_grid, "--rhs", "x2"]
        assert main([*argv, "--output", str(tmp_path / "u.grd")]) == 1
        assert "clock" not in events and "solve" not in events
        assert capsys.readouterr().err == "error: solve biharmonic needs --lap-boundary\n"


def _nothing_is_built(*args, **kwargs):
    raise AssertionError("an input was read or sampled")


NO_PROBE = "error: classify needs --at or all of --probe-origin/--probe-h/--probe-extents\n"
PROBE = ["--probe-origin", "5", "5", "--probe-h", "1", "--probe-extents", "2", "2"]


class TestRefusedBeforeAnythingIsBuilt:
    """A bad combination of inputs is refused before any file is read or anything is sampled."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["solve", "laplace", "--rhs", "1"], "error: solve laplace takes no right-hand side\n"),
            (["solve", "laplace", "--rhs-grid", "f.grd"],
             "error: solve laplace takes no right-hand side\n"),
            (["solve", "poisson", "--lap-boundary", "1"],
             "error: --lap-boundary applies only to solve biharmonic\n"),
            (["solve", "biharmonic", "--rhs", "1"], "error: solve biharmonic needs --lap-boundary\n"),
            (["solve", "poisson", "--rhs", "1/0", "--rhs-grid", "f.grd"],
             "error: argument --rhs-grid: not allowed with argument --rhs\n"),
            (["classify", "--at", "0", "0", *PROBE[:3]], NO_PROBE),
            (["classify", "--at", "0", "0", *PROBE[3:5]], NO_PROBE),
            (["classify", "--at", "0", "0", *PROBE[5:]], NO_PROBE),
            (["classify", "--at", "0", "0", *PROBE], NO_PROBE),
            (["classify"], NO_PROBE),
            (["solve", "laplace", "--bound", "-x1"],
             "error: unrecognized arguments: --bound -x1\n"),
        ],
        ids=["laplace-rhs", "laplace-rhs-grid", "poisson-lap-boundary", "biharmonic-no-lap-boundary",
             "rhs-and-rhs-grid", "at-probe-origin", "at-probe-h", "at-probe-extents", "at-probe",
             "no-points", "abbreviated-option"],
    )
    def test_one_error_line_no_output(self, tmp_path, capsys, monkeypatch, argv, err):
        for name in ("load_grid", "sample", "load_stencil"):
            monkeypatch.setattr(cli, name, _nothing_is_built)
        out = tmp_path / "out"
        inputs = ["--stencil", "s.stn"] if argv[0] == "classify" else ["--grid", "g.grd"]
        assert main([*argv, *inputs, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, err",
        [
            (["laplace", "--rhs", "1"], "solve laplace takes no right-hand side"),
            (["biharmonic"], "solve biharmonic needs --lap-boundary"),
            (["poisson", "--lap-boundary", "1"], "--lap-boundary applies only to solve biharmonic"),
        ],
        ids=["laplace-rhs", "biharmonic-no-lap-boundary", "poisson-lap-boundary"],
    )
    def test_unsampleable_boundary_is_not_sampled(self, box_grid, tmp_path, capsys, extra, err):
        # ln(x1) fails at x1 = 0, so sampling it first would end in exit 2
        out = tmp_path / "u.grd"
        argv = ["solve", *extra, "--grid", box_grid, "--boundary", "ln(x1)", "--output", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
        assert not out.exists()


END = "unexpected end of input (offset 0)"
NO_FILE = "[Errno 2] No such file or directory: ''"
STUDY = ["--reference", "x1", "--h", "0.5", "0.25", "--origin", "0", "0", "--length", "1"]


@pytest.mark.parametrize(
    "argv, err",
    [
        (["solve", "laplace", "--grid", "{grid}", "--rhs="], "solve laplace takes no right-hand side"),
        (["solve", "poisson", "--grid", "{grid}", "--rhs="], END),
        (["solve", "poisson", "--grid", "{grid}", "--boundary="], END),
        (["solve", "poisson", "--grid", "{grid}", "--rhs-grid="], NO_FILE),
        (["solve", "poisson", "--grid", "{grid}", "--lap-boundary="],
         "--lap-boundary applies only to solve biharmonic"),
        (["solve", "biharmonic", "--grid", "{grid}", "--lap-boundary="], END),
        (["verify", "--grid", "{grid}", "--rhs="], END),
        (["potential", "--source", "{grid}", "--targets="], NO_FILE),
        (["convergence", "--problem", "laplace", "--rhs=", *STUDY], "a laplace study takes no --rhs"),
        (["convergence", "--problem", "poisson", "--rhs=", *STUDY], END),
    ],
    ids=["solve-laplace-rhs", "solve-poisson-rhs", "solve-poisson-boundary",
         "solve-poisson-rhs-grid", "solve-poisson-lap-boundary", "solve-biharmonic-lap-boundary",
         "verify-rhs", "potential-targets", "convergence-laplace-rhs", "convergence-poisson-rhs"],
)
def test_an_empty_value_is_a_value(box_grid, tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    assert main([a.format(grid=box_grid) for a in argv] + ["--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert not out.exists()


RHS = "sin(3*x1) * exp(-x2)"
RHS_OPERATORS = [("poisson", []), ("biharmonic", ["--lap-boundary", "x1 - x2"])]


class TestRhsGrid:
    @pytest.mark.parametrize("operator, extra", RHS_OPERATORS)
    def test_saved_rhs_equals_rhs_expression(self, box_grid, tmp_path, capsys, operator, extra):
        rhs = tmp_path / "f.grd"
        save_grid(sample(RHS, load_grid(box_grid).spec), str(rhs))

        def solve(tag, *rhs_args):
            out = tmp_path / f"{tag}.grd"
            argv = ["solve", operator, "--grid", box_grid, "--boundary", "x1*x2", *rhs_args]
            code = main([*argv, *extra, "--output", str(out)])
            return code, capsys.readouterr().out, out.read_bytes()

        from_grid = solve("grid", "--rhs-grid", str(rhs))
        assert from_grid[0] == 0
        assert from_grid == solve("expression", "--rhs", RHS)

    @pytest.mark.parametrize("operator, extra", RHS_OPERATORS)
    def test_rhs_on_another_grid_exits_1(self, box_grid, tmp_path, capsys, operator, extra):
        rhs = tmp_path / "f.grd"
        save_grid(sample(RHS, GridSpec((0.0, 0.0), 1 / 8, (17, 17))), str(rhs))
        out = tmp_path / "s.grd"
        argv = ["solve", operator, "--grid", box_grid, "--rhs-grid", str(rhs), *extra]
        assert main([*argv, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "share one grid" in captured.err
        assert not out.exists()


class TestMollifyCommand:
    def test_smooths_and_reports_validators(self, tmp_path, capsys):
        spec = GridSpec((-1.0, -1.0), 1 / 16, (33, 33))
        grid = tmp_path / "f.grd"
        save_grid(sample("exp(-(x1^2+x2^2))", spec), str(grid))
        out = tmp_path / "smooth.grd"
        code = main(["mollify", "--grid", str(grid), "--eps", "0.25", "--output", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mass,support_radius,symmetry_deviation"
        mass, support, symmetry = (float(v) for v in lines[1].split(","))
        assert abs(mass - 1.0) <= 1e-12
        assert support <= 0.25 + 1e-12
        assert symmetry == 0.0
        assert load_grid(str(out)).spec.extents == (25, 25)

    def test_eps_below_spacing_exits_2(self, tmp_path):
        spec = GridSpec((-1.0,), 1 / 4, (9,))
        grid = tmp_path / "f.grd"
        save_grid(sample("x1", spec), str(grid))
        code = main(["mollify", "--grid", str(grid), "--eps", "0.1", "--output", str(tmp_path / "o.grd")])
        assert code == 2

    def test_kernel_wider_than_grid_refused_before_it_is_built(self, tmp_path, capsys):
        grid = tmp_path / "f.grd"
        grid.write_text("dim 2\norigin 0 0\nh 1\nextents 5 5\n" + "0\n" * 25)
        out = tmp_path / "o.grd"
        assert main(["mollify", "--grid", str(grid), "--eps", "1e6", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: empty valid region: the grid does not contain the kernel support\n"
        assert not out.exists()


class TestPotentialCommand:
    def test_compact_source(self, tmp_path):
        spec = GridSpec((-1.0, -1.0), 1 / 8, (17, 17))
        meshes = spec.meshes()
        s = sum(m * m for m in meshes) / 0.5**2
        f = GridFunction(spec, np.where(s < 1, np.maximum(0.0, 1 - s) ** 4, 0.0))
        src = tmp_path / "src.grd"
        save_grid(f, str(src))
        out = tmp_path / "pot.grd"
        assert main(["potential", "--source", str(src), "--output", str(out)]) == 0
        u = load_grid(str(out))
        assert u.spec == spec
        assert np.isfinite(u.values).all()

    @pytest.mark.parametrize(
        "origin, pitch",
        [
            ((1e160, 0.0), 0.1), ((1e160, 0.0, 0.0), 0.1), ((3.5, -1.0), 0.1),
            ((1e19, 0.0), 1 / 8), ((1e160, 0.0), 1 / 8), ((1e160, 0.0, 0.0), 1 / 8),
            ((1e308, 0.0), 1 / 8),
        ],
        ids=[
            "2d-1e160", "3d-1e160", "2d-far-field", "2d-1e19-on-lattice", "2d-1e160-on-lattice",
            "3d-1e160-on-lattice", "2d-1e308-cell-count-overflows",
        ],
    )
    def test_off_lattice_targets_far_away(self, tmp_path, capsys, origin, pitch):
        """Targets whose squared distances or cell counts overflow, and plane far-field
        targets, run twice; at pitch 1/8 the targets are on the source lattice."""
        dim = len(origin)
        spec = GridSpec((-1.0,) * dim, 1 / 8, (17,) * dim)
        s = sum(m * m for m in spec.meshes()) / 0.5**2
        f = np.where(s < 1, np.maximum(0.0, 1 - s) ** 4, 0.0)
        src, tgt = tmp_path / "src.grd", tmp_path / "tgt.grd"
        save_grid(GridFunction(spec, f), str(src))
        targets = GridSpec(origin, pitch, (5,) * dim)
        save_grid(GridFunction(targets, np.zeros(targets.extents)), str(tgt))
        texts = []
        for k in (1, 2):
            out = tmp_path / f"pot{k}.grd"
            assert main(["potential", "--source", str(src), "--targets", str(tgt), "--output", str(out)]) == 0
            assert capsys.readouterr().err == ""
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        u = load_grid(str(tmp_path / "pot1.grd")).values
        mass = spec.h**dim * f.sum()
        r = np.hypot.reduce(targets.meshes())  # no square, which would overflow
        point = mass * (np.log(r) / (2 * math.pi) if dim == 2 else -1 / (4 * math.pi * r))
        assert np.allclose(u, point, rtol=0.01, atol=0.0)

    def test_plane_far_field_overflow_exits_2(self, tmp_path, capsys):
        """h^2 overflows on the multipole path, as ``h^n`` does on the other two."""
        values = np.zeros((3, 3))
        values[1, 1] = 1.0
        src, tgt = tmp_path / "src.grd", tmp_path / "tgt.grd"
        save_grid(GridFunction(GridSpec((0.0, 0.0), 1e300, (3, 3)), values), str(src))
        save_grid(GridFunction(GridSpec((-1.0, -1.0), 1 / 8, (17, 17)), np.zeros((17, 17))), str(tgt))
        out = tmp_path / "pot.grd"
        assert main(["potential", "--source", str(src), "--targets", str(tgt), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_noncompact_source_exits_1(self, tmp_path):
        spec = GridSpec((-1.0, -1.0), 1 / 8, (17, 17))
        src = tmp_path / "src.grd"
        save_grid(sample("1", spec), str(src))
        assert main(["potential", "--source", str(src), "--output", str(tmp_path / "o.grd")]) == 1


class TestScaleFactorOverflow:
    """A power of the spacing or of a radius past the float range exits 2 with one line
    that names it, and no output file.  Sources are 7^dim with ones on the interior 3^dim."""

    @staticmethod
    def grid(tmp_path, name, h, dim=2, origin=0.0):
        values = np.zeros((7,) * dim)
        values[(slice(2, 5),) * dim] = 1.0
        path = tmp_path / name
        save_grid(GridFunction(GridSpec((origin,) * dim, h, (7,) * dim), values), str(path))
        return str(path)

    @pytest.mark.parametrize(
        "argv, factor",
        [
            (["potential", "--source={big}"], "h^2 overflows at h = 1e+200"),
            (["potential", "--source={big3}"], "h^3 overflows at h = 1e+150"),
            (["potential", "--source={big}", "--targets={far}"], "h^2 overflows at h = 1e+200"),
            (["mollify", "--grid={big}", "--eps", "3e200"], "eps^2 overflows at eps = 3e+200"),
            (["mollify", "--grid={small}", "--eps", "2e-200"],
             "eps^(-2) overflows at eps = 2e-200"),
            (["verify", "--grid={big}"], "h^2 overflows at h = 1e+200"),
            (["solve", "poisson", "--grid={big}", "--rhs=0"], "h^2 overflows at h = 1e+200"),
            (["solve", "poisson", "--grid={big}", "--rhs=1"], "h^2 overflows at h = 1e+200"),
            (["solve", "biharmonic", "--grid={big}", "--rhs=1", "--lap-boundary=0"],
             "h^2 overflows at h = 1e+200"),
        ],
        ids=["potential-fft-2d", "potential-fft-3d", "potential-expansion", "mollify-eps^n",
             "mollify-eps^(-n)", "verify", "poisson-rhs-0", "poisson-rhs-1", "biharmonic"],
    )
    def test_exits_2_with_one_line_and_no_output(self, tmp_path, capsys, argv, factor):
        grids = {
            "big": self.grid(tmp_path, "big.grd", 1e200),
            "small": self.grid(tmp_path, "small.grd", 1e-200),
            "big3": self.grid(tmp_path, "big3.grd", 1e150, dim=3),
            "far": self.grid(tmp_path, "far.grd", 1.0, origin=1e203),  # the plane expansion
        }
        out = tmp_path / "out"
        assert main([a.format(**grids) for a in argv] + ["--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: scale factor {factor}\n"
        assert not out.exists()


class TestNonFiniteGridNodes:
    @pytest.mark.parametrize(
        "origin, h", [("inf 0", "0.25"), ("0 nan", "0.25"), ("0 0", "1e308")],
        ids=["inf-origin", "nan-origin", "overflowing-corner"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["potential", "--source", "{grid}", "--output", "{out}"],
            ["verify", "--grid", "{grid}", "--output", "{out}"],
            ["solve", "laplace", "--grid", "{grid}", "--boundary", "x1", "--output", "{out}"],
        ],
        ids=["potential", "verify", "solve"],
    )
    def test_exits_1_naming_the_file(self, tmp_path, capsys, origin, h, command):
        grid = tmp_path / "far.grd"
        values = np.zeros((5, 5))
        values[2, 2] = 1.0
        grid.write_text(
            f"dim 2\norigin {origin}\nh {h}\nextents 5 5\n"
            + "".join(f"{v}\n" for v in values.reshape(-1))
        )
        out = tmp_path / "o.out"
        assert main([a.format(grid=grid, out=out) for a in command]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: grid nodes must be finite") and err.count("\n") == 1
        assert not out.exists()


class TestVerifyCommand:
    def test_harmonic_grid_passes(self, saddle_grid, capsys):
        assert main(["verify", "--grid", saddle_grid, "--operator", "laplace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "operator,scaled,residual_l1,residual_linf,max_principle"
        fields = lines[1].split(",")
        assert fields[0] == "laplace"
        assert float(fields[2]) == 0.0 and float(fields[3]) == 0.0
        assert fields[4] == "pass"

    def test_biharmonic_with_rhs(self, tmp_path, capsys):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        grid = tmp_path / "u.grd"
        save_grid(sample("x1^3 - 3*x1*x2^2", spec), str(grid))
        assert main(["verify", "--grid", str(grid), "--operator", "biharmonic", "--rhs", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[1].split(",")[3]) <= 1e-12

    def test_scale_overflow_exits_2(self, tmp_path, capsys):
        spec = GridSpec((0.0, 0.0), 1e-200, (5, 5))
        grid = tmp_path / "tiny.grd"
        save_grid(GridFunction(spec, np.ones((5, 5))), str(grid))
        out = tmp_path / "v.csv"
        assert main(["verify", "--grid", str(grid), "--scaled", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_duplicate_literals_exit_1(self, saddle_grid, tmp_path, capsys):
        stencil = tmp_path / "big.stn"
        stencil.write_text("dim 2\nh 0.25\nscale 0\nterm 0 0  1e308\nterm 0 0  1e308\n")
        out = tmp_path / "o.grd"
        assert main(["apply", "--stencil", str(stencil), "--grid", saddle_grid, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shift (0, 0)" in err and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_stencil_coefficient_exits_1(self, saddle_grid, tmp_path, capsys):
        stencil = tmp_path / "inf.stn"
        stencil.write_text("dim 2\nh 0.25\nscale 0\nterm 0 0  inf\n")
        out = tmp_path / "o.grd"
        assert main(["apply", "--stencil", str(stencil), "--grid", saddle_grid, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "inf.stn:4" in err and err.count("\n") == 1
        assert not out.exists()


class TestConvergenceCommand:
    def test_laplace_study_orders_near_two(self, capsys):
        code = main(
            [
                "convergence",
                "--problem",
                "laplace",
                "--reference",
                "exp(x1)*sin(x2)",
                "--h",
                "0.0625",
                "0.03125",
                "--origin",
                "0",
                "0",
                "--length",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "h,error,observed_order"
        assert lines[1].split(",")[2] == ""
        order = float(lines[2].split(",")[2])
        assert 1.7 <= order <= 2.3

    def test_discretely_exact_reference_reports_exact(self, capsys):
        code = main(
            [
                "convergence",
                "--problem",
                "laplace",
                "--reference",
                "x1*x2",
                "--h",
                "0.125",
                "0.0625",
                "--origin",
                "0",
                "0",
                "--length",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split(",")[2] == "exact"

    def test_poisson_rhs_with_leading_minus(self, capsys):
        code = main(
            [
                "convergence",
                "--problem",
                "poisson",
                "--reference",
                "sin(x1)*sin(x2)",
                "--rhs=-2*sin(x1)*sin(x2)",
                "--h",
                "0.125",
                "0.0625",
                "--origin",
                "0",
                "0",
                "--length",
                "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        order = float(lines[2].split(",")[2])
        assert 1.7 <= order <= 2.3

    def test_non_convergence_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "study.csv"
        code = main(
            [
                "convergence",
                "--problem",
                "laplace",
                "--reference",
                "exp(x1)*sin(x2)",
                "--h",
                "0.125",
                "0.0625",
                "--origin",
                "0",
                "0",
                "--length",
                "1",
                "--max-iter",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: solve at h=0.125 did not converge\n"
        assert not out.exists()

    def test_single_spacing_rejected(self):
        code = main(
            [
                "convergence",
                "--problem",
                "laplace",
                "--reference",
                "x1",
                "--h",
                "0.5",
                "--origin",
                "0",
                "0",
                "--length",
                "1",
            ]
        )
        assert code == 1

    def test_laplace_study_rejects_rhs(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["convergence", "--problem", "laplace", "--reference", "x1", "--rhs", "x1",
                     "--h", "0.5", "0.25", "--origin", "0", "0", "--length", "1",
                     "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: a laplace study takes no --rhs\n"
        assert not out.exists()


class TestExpressionOptionLeadingMinus:
    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["solve", "laplace", "--grid", "{grid}"], "--boundary", "-x1*x2"),
            (["solve", "poisson", "--grid", "{grid}"], "--rhs", "-2*sin(x1)"),
            (["solve", "biharmonic", "--grid", "{grid}", "--boundary", "x1^2+x2^2"],
             "--lap-boundary", "-2*2"),
            (["convergence", "--problem", "laplace", "--h", "0.5", "0.25", "--origin", "0", "0",
              "--length", "1"], "--reference", "-x1*x2"),
        ],
        ids=["boundary", "rhs", "lap-boundary", "reference"],
    )
    def test_space_form_equals_equals_form(self, box_grid, tmp_path, capsys, argv, option, value):
        results = []
        for form in ([option, value], [f"{option}={value}"]):
            out = tmp_path / "out"
            code = main([a.format(grid=box_grid) for a in argv] + form + ["--output", str(out)])
            results.append((code, capsys.readouterr().out, out.read_bytes()))
            out.unlink()
        assert results[0][0] == 0
        assert results[0] == results[1]

    def test_option_without_value_is_a_usage_error(self, box_grid, tmp_path, capsys):
        out = tmp_path / "o.grd"
        assert main(["solve", "poisson", "--grid", box_grid, "--output", str(out), "--rhs"]) == 1
        assert capsys.readouterr().err == "error: argument --rhs: expected one argument\n"
        assert not out.exists()


class TestNegativeCoordinateSpellings:
    """Every spelling float() takes is a coordinate value, whatever argparse makes of it."""

    # -0 is printed as given: a probe's node 0 is its origin, not origin + h * 0.
    SPELLINGS = [
        "-1e-05", "-1E-05", "-1e-5", "-1.0e-05", "-1.5", "-.5", "-2e+1", "-1_0", "-7", "-0", "-0.0"
    ]

    @pytest.mark.parametrize("value", SPELLINGS)
    def test_at(self, lap2, capsys, value):
        assert main(["classify", "--stencil", lap2, "--at", value, "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"{float(value):.17g},0,2,2,elliptic"

    @pytest.mark.parametrize("value", SPELLINGS)
    def test_probe_origin(self, lap2, capsys, value):
        argv = ["classify", "--stencil", lap2, "--probe-origin", "0.25", value, "--probe-h", "0.5",
                "--probe-extents", "1", "2"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [
            f"{float(value):.17g}", f"{float(value) + 0.5:.17g}"
        ]

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-1.0e-03"])
    def test_origin(self, capsys, value):
        def study(origin):
            argv = ["convergence", "--problem", "laplace", "--reference", "x1*x2", "--h", "0.5",
                    "0.25", "--origin", origin, "0", "--length", "1"]
            assert main(argv) == 0
            return capsys.readouterr().out

        assert study(value) == study("-0.001")

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-nan"])
    def test_non_finite_reaches_the_library(self, lap2, capsys, value):
        assert main(["classify", "--stencil", lap2, "--at", value, "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid nodes must be finite") and err.count("\n") == 1

    def test_options_after_a_coordinate_list_are_recognised(self, lap2, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["classify", "--stencil", lap2, "--at", "-1e-05", "-2e-3", "--tol", "1e-3",
                "--output", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[1] == "-1.0000000000000001e-05,-0.002,2,2,elliptic"

    def test_non_number_in_a_coordinate_list_is_refused_by_its_type(self, lap2, capsys):
        assert main(["classify", "--stencil", lap2, "--at", "-1e-05", "0", "-x"]) == 1
        assert capsys.readouterr().err == "error: argument --at: invalid float value: '-x'\n"


# Each numeric option in a command that takes it, the type it reads, and pardiff's own
# error line for a negative value, or None where a finite negative value is valid.
SOLVE_BOX = ["solve", "laplace", "--grid", "{grid}", "--output", "{out}"]
MOLLIFY_BOX = ["mollify", "--grid", "{grid}", "--output", "{out}"]
STUDY = ["convergence", "--problem", "laplace", "--reference", "x1*x2", "--max-iter", "200"]
PROBE_AT = ["classify", "--stencil", "{stencil}", "--probe-origin", "0", "0"]
NUMERIC_OPTIONS = {
    "--tol": (SOLVE_BOX + ["--tol", "{v}"], float, "tolerance must be positive, got {}"),
    "--max-iter": (SOLVE_BOX + ["--max-iter", "{v}"], int, "max_iter must be at least 1, got {}"),
    "--eps": (MOLLIFY_BOX + ["--eps", "{v}"], float,
              "support radius must be positive and finite, got {}"),
    "--refine": (MOLLIFY_BOX + ["--eps", "0.125", "--refine", "{v}"], int,
                 "refine must be at least 1, got {}"),
    "--length": (STUDY + ["--h", "0.5", "0.25", "--origin", "0", "0", "--length", "{v}"], float,
                 "box length must be positive and finite, got {}"),
    "--h": (STUDY + ["--h", "0.5", "{v}", "--origin", "0", "0", "--length", "1"], float,
            "spacing must be positive and finite, got {}"),
    "--origin": (STUDY + ["--h", "0.5", "0.25", "--origin", "{v}", "0", "--length", "1"], float,
                 None),
    "--probe-h": (PROBE_AT + ["--probe-h", "{v}", "--probe-extents", "1", "1"], float,
                  "grid spacing must be positive and finite, got {}"),
    "--probe-extents": (PROBE_AT + ["--probe-h", "1", "--probe-extents", "1", "{v}"], int,
                        "every extent must be at least 1, got (1, {})"),
    "--probe-origin": (["classify", "--stencil", "{stencil}", "--probe-origin", "0", "{v}",
                        "--probe-h", "1", "--probe-extents", "1", "1"], float, None),
    "--at": (["classify", "--stencil", "{stencil}", "--at", "{v}", "0"], float, None),
}
LIST_OPTIONS = {"--at", "--probe-origin", "--probe-extents", "--origin", "--h"}


def _readme_commands():
    """Each ``pardiff`` command of the README's command-line example, split as a shell would."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pardiff ")]


class TestOptionValues:
    """A one-value option takes the next argument, a list option numbers in any spelling."""

    @pytest.mark.parametrize("value", ["-1.5", "-1e-05", "-1E-05", "-inf", "-1_0"])
    @pytest.mark.parametrize("option", list(NUMERIC_OPTIONS))
    def test_every_negative_spelling_reaches_pardiff(self, lap2, box_grid, tmp_path, capsys,
                                                     option, value):
        argv, kind, message = NUMERIC_OPTIONS[option]
        out = tmp_path / "out"
        code = main([a.format(v=value, grid=box_grid, out=out, stencil=lap2) for a in argv])
        err = capsys.readouterr().err
        assert "expected one argument" not in err and "expected at least one argument" not in err
        try:
            number = kind(value)
        except ValueError:  # int() refuses it, and so does argparse
            assert (code, err) == (1, f"error: argument {option}: invalid int value: '{value}'\n")
            return
        if message is not None:
            assert (code, err) == (1, f"error: {message.format(number)}\n")
        elif math.isfinite(number):
            assert (code, err) == (0, "")
        else:
            assert code == 1 and err.startswith("error: grid nodes must be finite: ")
            assert err.count("\n") == 1

    def test_each_option_has_one_kind_in_every_command(self):
        parser = cli._build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        kinds = {}
        for command in commands.choices.values():
            for action in command._actions:
                for option in action.option_strings:
                    kinds.setdefault(option, set()).add((action.nargs, action.type))
        assert all(len(k) == 1 for k in kinds.values())  # an option reads the same in every command
        kinds = {option: k.pop() for option, k in kinds.items()}
        assert {o for o, (nargs, _) in kinds.items() if nargs == "+"} == LIST_OPTIONS
        assert {o for o, (_, kind) in kinds.items() if kind in (float, int)} == set(NUMERIC_OPTIONS)

    def test_output_may_start_with_a_minus(self, box_grid, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "laplace", "--grid", box_grid, "--output", "-o.grd"]) == 0
        assert capsys.readouterr().err.startswith("solve laplace: ")
        assert (tmp_path / "-o.grd").stat().st_size > 0

    def test_options_are_spelled_in_full(self, box_grid, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "laplace", "--grid", box_grid, "--out", "o.grd"]) == 1
        assert capsys.readouterr().err == "error: the following arguments are required: --output\n"
        assert os.listdir(tmp_path) == ["box.grd"]

    def test_double_dash_ends_the_options(self, box_grid, tmp_path, capsys):
        out = tmp_path / "o.grd"
        argv = ["solve", "poisson", "--grid", box_grid, "--output", str(out), "--rhs", "--"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: argument --rhs: expected one argument\n"
        assert not out.exists()

    def test_after_double_dash_no_argument_is_an_option(self, box_grid, tmp_path, capsys):
        out = tmp_path / "o.grd"
        argv = ["solve", "laplace", "--grid", box_grid, "--output", str(out), "--", "--tol", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: ") and err.endswith(" --tol -1\n")
        assert err.count("\n") == 1 and not out.exists()

    def test_an_option_is_never_a_value(self, box_grid, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "laplace", "--grid", box_grid, "--output", "--report"]) == 1
        assert capsys.readouterr().err == "error: argument --output: expected one argument\n"
        assert os.listdir(tmp_path) == ["box.grd"]

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_readme_command_parses(self, argv):
        args = cli._build_parser().parse_args(argv)
        assert args.command == argv[0]

    def test_readme_shows_every_command(self):
        assert {argv[0] for argv in _readme_commands()} == {
            "classify", "apply", "solve", "mollify", "potential", "verify", "convergence"
        }


class TestNodeLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--stencil", "{stencil}", "--probe-origin", "0", "0", "--probe-h", "1",
             "--probe-extents", "1000000000", "1000000000", "--output", "{out}"],
            ["convergence", "--problem", "laplace", "--reference", "x1", "--h", "0.5",
             "0.000000001", "--origin", "0", "0", "--length", "1", "--output", "{out}"],
            ["convergence", "--problem", "laplace", "--reference", "x1", "--h", "0.5", "0",
             "--origin", "0", "0", "--length", "1", "--output", "{out}"],
            ["convergence", "--problem", "laplace", "--reference", "x1", "--h", "0.5", "0.25",
             "--origin", "0", "0", "--length", "inf", "--output", "{out}"],
            ["apply", "--stencil", "{stencil}", "--grid", "{huge}", "--output", "{out}"],
        ],
        ids=["classify-probe", "convergence-grid", "zero-spacing", "infinite-length", "grid-file"],
    )
    def test_refused_with_one_error_line(self, lap2, tmp_path, capsys, argv):
        huge = tmp_path / "huge.grd"
        huge.write_text("dim 2\norigin 0 0\nh 0.25\nextents 4294967296 4294967296\n")
        out = tmp_path / "o.out"
        assert main([a.format(stencil=lap2, huge=huge, out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestOutOfMemory:
    """An allocation that fails ends in one error line and exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "message, expected",
        [
            ("Unable to allocate 8.00 GiB for an array",
             "error: out of memory: Unable to allocate 8.00 GiB for an array\n"),
            ("", "error: out of memory\n"),
        ],
        ids=["numpy-message", "no-message"],
    )
    @pytest.mark.parametrize("command", ["solve", "classify"])
    def test_one_error_line_and_no_output(
        self, lap2, box_grid, tmp_path, capsys, monkeypatch, message, expected, command
    ):
        out = tmp_path / "o.out"
        argv = {
            "solve": ["solve", "laplace", "--grid", box_grid, "--boundary", "x1*x2",
                      "--output", str(out)],
            "classify": ["classify", "--stencil", lap2, "--probe-origin", "0", "0", "--probe-h",
                         "0.5", "--probe-extents", "3", "3", "--output", str(out)],
        }[command]

        def zeros(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(np, "zeros", zeros)
        assert main(argv) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()


class TestOutputFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_mode_of_open(self, lap2, box_grid, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "ref", "w"):
                pass
            save_grid(load_grid(box_grid), str(tmp_path / "saved.grd"))
            code = main(["solve", "laplace", "--grid", box_grid, "--boundary", "x1*x2",
                         "--output", str(tmp_path / "o.grd"), "--report", str(tmp_path / "r.csv")])
        finally:
            os.umask(old)
        assert code == 0
        modes = {name: os.stat(tmp_path / name).st_mode & 0o777
                 for name in ("ref", "saved.grd", "o.grd", "r.csv")}
        assert set(modes.values()) == {0o666 & ~umask}, modes


class TestAllOutputsOrNone:
    """A command writes all of its files or none, and standard output after them."""

    @pytest.fixture
    def box9(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_grid(sample("x1*x2", GridSpec((0.0, 0.0), 0.25, (9, 9))), "box9.grd")
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("x\n")
        return tmp_path

    COMMANDS = [["solve", "poisson", "--rhs", "1"], ["mollify", "--eps", "0.75"]]

    @pytest.mark.parametrize(
        "outputs, err",
        [
            (["--report", "missing/r.csv", "--output", "o.grd"],
             "error: [Errno 2] No such file or directory: 'missing/r.csv'\n"),
            (["--report", "adir", "--output", "o.grd"],
             "error: [Errno 21] Is a directory: 'adir'\n"),
            (["--output", ""], "error: [Errno 2] No such file or directory: ''\n"),
            (["--output", "afile/o.grd"], "error: [Errno 20] Not a directory: 'afile/o.grd'\n"),
            (["--output", "o.grd", "--report", "afile/r.csv"],
             "error: [Errno 20] Not a directory: 'afile/r.csv'\n"),
        ],
        ids=["report-in-missing-directory", "report-is-a-directory", "empty-output",
             "output-under-a-file", "report-under-a-file"],
    )
    @pytest.mark.parametrize("command", COMMANDS, ids=["solve", "mollify"])
    def test_a_target_that_cannot_be_written_leaves_nothing(self, box9, capsys, command, outputs,
                                                            err):
        before = sorted(os.listdir(box9))
        for _ in range(2):
            assert main([*command, "--grid", "box9.grd", *outputs]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines(keepends=True)
            assert lines[-1] == err  # the same on every run: no temporary name
            assert len(lines) == 1  # refused before the command runs, so solve prints no time
        assert sorted(os.listdir(box9)) == before
        assert os.listdir(box9 / "adir") == []

    @pytest.mark.parametrize("report", ["same.out", "./adir/../same.out", "link.out"],
                             ids=["as-given", "dot-dot", "symlink"])
    @pytest.mark.parametrize("command", COMMANDS, ids=["solve", "mollify"])
    def test_output_and_report_naming_one_file_is_refused_first(
        self, box9, capsys, monkeypatch, command, report
    ):
        os.symlink("same.out", "link.out")
        monkeypatch.setattr(cli, "load_grid", _nothing_is_built)
        argv = [*command, "--grid", "box9.grd", "--output", "same.out", "--report", report]
        assert main(argv) == 1
        err = f"error: --output same.out and --report {report} name the same file\n"
        assert capsys.readouterr().err == err
        assert not os.path.lexists("same.out")

    def test_standard_output_comes_after_every_file(self, box9):
        seen = []

        class Recorder(io.StringIO):
            def write(self, text):
                seen.append((text, os.path.exists("o.grd")))
                return super().write(text)

        with contextlib.redirect_stdout(Recorder()):
            assert main(["solve", "poisson", "--rhs", "1", "--grid", "box9.grd",
                         "--output", "o.grd"]) == 0
        assert "".join(text for text, _ in seen).startswith("operator,iterations,")
        assert all(written for _, written in seen)


class TestOutputTargets:
    """Every output target is checked before any input is read, by os.stat alone."""

    @pytest.fixture
    def box9(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_grid(sample("x1*x2", GridSpec((0.0, 0.0), 0.25, (9, 9))), "box9.grd")
        return tmp_path

    SOLVE = ["solve", "poisson", "--rhs", "1", "--grid", "box9.grd", "--output", "o.grd"]

    def test_a_symlinked_report_keeps_its_link(self, box9, capsys):
        Path("real.csv").write_text("old\n")
        os.symlink("real.csv", "link.csv")
        assert main([*self.SOLVE, "--report", "link.csv"]) == 0
        assert os.readlink("link.csv") == "real.csv"
        assert Path("real.csv").read_text().startswith("operator,iterations,")
        assert capsys.readouterr().out == ""

    def test_a_fifo_with_no_reader_is_refused_before_the_solve(self, box9, capsys, monkeypatch):
        os.mkfifo("fifo")
        monkeypatch.setattr(cli, "load_grid", _nothing_is_built)
        assert main([*self.SOLVE, "--report", "fifo"]) == 1
        assert capsys.readouterr().err == "error: [Errno 22] Not a regular file: 'fifo'\n"
        assert os.path.exists("fifo") and not os.path.isfile("fifo")
        assert sorted(os.listdir(box9)) == ["box9.grd", "fifo"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_report_through_a_descriptor_keeps_the_file_it_is_open_on(self, box9, capsys):
        # `--report /dev/stdout >> log`, without touching /dev
        Path("log").write_text("earlier\n")
        fd = os.open("log", os.O_WRONLY | os.O_APPEND)
        try:
            os.symlink(f"/proc/{os.getpid()}/fd/{fd}", "stdout")
            assert main([*self.SOLVE, "--report", "stdout"]) == 1
        finally:
            os.close(fd)
        assert capsys.readouterr().err == "error: [Errno 22] Not a regular file: 'stdout'\n"
        assert Path("log").read_text() == "earlier\n"
        assert sorted(os.listdir(box9)) == ["box9.grd", "log", "stdout"]

    def test_a_0600_report_stays_0600(self, box9):
        Path("r.csv").write_text("old\n")
        os.chmod("r.csv", 0o600)
        assert main([*self.SOLVE, "--report", "r.csv"]) == 0
        assert os.stat("r.csv").st_mode & 0o777 == 0o600
        assert Path("r.csv").read_text().startswith("operator,iterations,")

    @pytest.mark.parametrize(
        "outputs, err",
        [(["--output="], "error: [Errno 2] No such file or directory: ''\n"),
         (["--output", "missing/o.grd"],
          "error: [Errno 2] No such file or directory: 'missing/o.grd'\n"),
         (["--output", "o.grd", "--report", "missing/r.csv"],
          "error: [Errno 2] No such file or directory: 'missing/r.csv'\n")],
        ids=["empty-output", "output-in-missing-directory", "report-in-missing-directory"],
    )
    def test_the_target_error_comes_before_a_missing_grid(self, box9, capsys, outputs, err):
        argv = ["solve", "poisson", "--rhs", "1", "--grid", "nope.grd", *outputs]
        assert main(argv) == 1
        assert capsys.readouterr().err == err
        assert os.listdir(box9) == ["box9.grd"]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, lap2, saddle_grid, box_grid, tmp_path, capsys):
        def run_all(tag):
            outputs = {}
            apply_out = tmp_path / f"a{tag}.grd"
            main(["apply", "--stencil", lap2, "--grid", saddle_grid, "--output", str(apply_out)])
            outputs["apply"] = apply_out.read_bytes()
            main(["classify", "--stencil", lap2, "--at", "0.25", "0.5"])
            outputs["classify"] = capsys.readouterr().out
            sol = tmp_path / f"s{tag}.grd"
            rep = tmp_path / f"r{tag}.csv"
            main(
                [
                    "solve",
                    "laplace",
                    "--grid",
                    box_grid,
                    "--boundary",
                    "exp(x1)*sin(x2)",
                    "--output",
                    str(sol),
                    "--report",
                    str(rep),
                ]
            )
            outputs["solution"] = sol.read_bytes()
            outputs["report"] = rep.read_bytes()
            return outputs

        first = run_all(0)
        second = run_all(1)
        assert first == second

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "classify" in capsys.readouterr().out


def _per_value_csv(header, rows):
    """The CSV text as written before the one-template emitter: one ``format`` per value."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


class TestCsvEmitter:
    TRICOMI = (
        "dim 2\nh 0.02\nscale 0\n"
        'term 0 2  "x2"\nterm 0 1  "-2*x2"\nterm 0 0  "x2 + 1"\n'
        "term 2 0  1\nterm 1 0  -2\n"
    )

    def test_classify_probe_matches_per_value_format(self, tmp_path):
        from pardiff.classify import classify_region
        from pardiff.stencil import load_stencil

        path = tmp_path / "tricomi.stn"
        path.write_text(self.TRICOMI)
        origin, h, extents = (-1.0, -1.0), 0.02, (41, 101)
        out = tmp_path / "labels.csv"
        probe = ["--probe-origin", "-1", "-1", "--probe-h", "0.02", "--probe-extents", "41", "101"]
        assert main(["classify", "--stencil", str(path), *probe, "--output", str(out)]) == 0
        report = classify_region(load_stencil(str(path)), GridSpec(origin, h, extents))
        rows = [[*p, *e, label] for p, e, label in zip(report.points, report.eigenvalues, report.labels)]
        expected = _per_value_csv("x1,x2,lambda1,lambda2,label", rows)
        assert "elliptic" in expected and "hyperbolic" in expected
        assert out.read_bytes() == expected.encode()

    def test_probe_csv_peak_per_point_at_301(self, tmp_path, traced_peak):
        path, out = tmp_path / "tricomi.stn", tmp_path / "labels.csv"
        path.write_text(self.TRICOMI)
        probe = ["--probe-origin", "-1.5", "-1.5", "--probe-h", "0.01", "--probe-extents", "301", "301"]
        argv = ["classify", "--stencil", str(path), *probe, "--output", str(out)]
        # 623 B per point with the CSV built whole; 106 B in blocks of rows (numpy 2.4)
        assert traced_peak(lambda: main(argv)) / 301**2 <= 150
        assert out.read_text().count("\n") == 1 + 301**2

    @pytest.mark.parametrize("block", [1, 2, 4096])
    @pytest.mark.parametrize(
        "columns",
        [
            [np.array([-0.0, 1e-05, 1e300]), np.array([7, -3, 2**60]),
             np.array([0.1, -2.5e-310, 5e-324]), ["text", "", "%s"]],
            [["h", "a,b"], np.array([np.float32(0.1), np.float32(-3e-38)]),
             np.array([np.int64(12), np.int64(-2**60)]), np.array([float("inf"), float("-inf")]),
             np.array([float("nan"), 1.0])],
            [np.array([0.30000000000000004, -1e-300, 123456789012345678.0])],
            [np.array([]), []],
        ],
        ids=["signed-zero-exponents-ints-strings", "non-finite-and-numpy-scalars", "one-column",
             "no-rows"],
    )
    def test_rows_match_per_value_format(self, columns, block, tmp_path, monkeypatch):
        monkeypatch.setattr(grid_module, "_BLOCK_VALUES", block)
        out = tmp_path / "rows.csv"
        out.write_text("".join(grid_module._table_chunks("a,b,c,d\n", columns)), encoding="utf-8")
        rows = list(zip(*columns))
        assert out.read_bytes() == _per_value_csv("a,b,c,d", rows).encode()


class TestCsvOnStdoutAndInAFile:
    """A CSV for standard output is joined whole and one for a file is streamed in
    blocks (here of 2 rows); both give the same bytes, and the grid beside it too."""

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["classify", "--stencil", "{lap2}", "--at", "0.5", "-0"], "--output"),
            (["classify", "--stencil", "{lap2}", "--probe-origin", "0", "-1", "--probe-h", "0.25",
              "--probe-extents", "3", "5"], "--output"),
            (["solve", "laplace", "--grid", "{box}", "--boundary", "x1*x2", "--output", "{grid}"],
             "--report"),
            (["mollify", "--grid", "{saddle}", "--eps", "0.5", "--output", "{grid}"], "--report"),
            (["verify", "--grid", "{saddle}", "--scaled"], "--output"),
            (["convergence", "--problem", "laplace", "--reference", "exp(x1)*sin(x2)", "--h",
              "0.25", "0.125", "0.0625", "--origin", "0", "0", "--length", "1"], "--output"),
            (["convergence", "--problem", "laplace", "--reference", "x1", "--h", "0.5", "0.25",
              "--origin", "0", "0", "--length", "1"], "--output"),
        ],
        ids=["classify-at", "classify-probe", "solve", "mollify", "verify", "convergence",
             "convergence-exact"],
    )
    def test_same_bytes(self, argv, target, lap2, saddle_grid, box_grid, tmp_path, capsys,
                        monkeypatch):
        monkeypatch.setattr(grid_module, "_BLOCK_VALUES", 2)
        grid_path, csv = tmp_path / "u.grd", tmp_path / "t.csv"
        argv = [a.format(lap2=lap2, box=box_grid, saddle=saddle_grid, grid=grid_path) for a in argv]
        assert main(argv) == 0
        joined = capsys.readouterr().out
        grid_bytes = grid_path.read_bytes() if grid_path.exists() else None
        assert joined.count("\n") >= 2
        assert main([*argv, target, str(csv)]) == 0
        assert capsys.readouterr().out == ""
        assert csv.read_bytes() == joined.encode()
        assert (grid_path.read_bytes() if grid_path.exists() else None) == grid_bytes
