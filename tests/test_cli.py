import os

import numpy as np
import pytest

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

    def test_noncompact_source_exits_1(self, tmp_path):
        spec = GridSpec((-1.0, -1.0), 1 / 8, (17, 17))
        src = tmp_path / "src.grd"
        save_grid(sample("1", spec), str(src))
        assert main(["potential", "--source", str(src), "--output", str(tmp_path / "o.grd")]) == 1


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

    def test_non_number_after_a_coordinate_list_is_not_taken(self, lap2, capsys):
        assert main(["classify", "--stencil", lap2, "--at", "-1e-05", "0", "-x"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: -x\n"


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

    @pytest.mark.parametrize(
        "rows",
        [
            [[-0.0, 1e-05, 1e300, "text"], [7, -3, 2**60, ""], [0.1, np.float64(-2.5e-310), True, "%s"]],
            [["h", float("inf"), float("-inf"), float("nan")], [np.float32(0.1), np.int64(12), "a,b", 1.0]],
            [[0.30000000000000004, -1e-300, 123456789012345678], []],
            [],
        ],
        ids=["signed-zero-exponents-ints-strings", "non-finite-and-numpy-scalars", "ragged", "no-rows"],
    )
    def test_rows_match_per_value_format(self, rows, tmp_path):
        from pardiff.cli import _emit_csv

        out = tmp_path / "rows.csv"
        _emit_csv("a,b,c,d", rows, str(out))
        assert out.read_bytes() == _per_value_csv("a,b,c,d", rows).encode()
