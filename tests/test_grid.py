import numpy as np
import pytest

from pardiff.expr import ExprEvalError
from pardiff.grid import (
    GridFileError,
    GridFunction,
    GridSpec,
    load_grid,
    norm,
    restrict,
    sample,
    save_grid,
    shrink,
)


class TestGridSpec:
    def test_node_placement(self):
        spec = GridSpec((1.0, -2.0), 0.25, (3, 5))
        assert spec.dim == 2
        assert spec.node_count == 15
        assert spec.node((2, 4)) == (1.5, -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec((), 1.0, ())
        with pytest.raises(ValueError):
            GridSpec((0.0,), 0.0, (3,))
        with pytest.raises(ValueError):
            GridSpec((0.0,), 1.0, (0,))
        with pytest.raises(ValueError):
            GridSpec((0.0, 0.0), 1.0, (3,))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_origin_rejected(self, bad):
        with pytest.raises(ValueError, match="grid nodes must be finite: origin"):
            GridSpec((0.0, bad), 1.0, (3, 3))

    def test_overflowing_far_corner_rejected(self):
        assert GridSpec((0.0,), 1e308, (2,)).meshes()[0][-1] == 1e308
        with pytest.raises(ValueError, match=r"corner \(inf,\)"):
            GridSpec((0.0,), 1e308, (3,))


class TestGridFunction:
    def test_accepts_flat_row_major_values(self):
        spec = GridSpec((0.0, 0.0), 1.0, (2, 2))
        u = GridFunction(spec, [1.0, 2.0, 3.0, 4.0])
        assert u.values[0, 1] == 2.0
        assert list(u.flat()) == [1.0, 2.0, 3.0, 4.0]

    def test_rejects_wrong_length(self):
        spec = GridSpec((0.0,), 1.0, (3,))
        with pytest.raises(ValueError):
            GridFunction(spec, [1.0, 2.0])

    def test_rejects_non_finite(self):
        spec = GridSpec((0.0,), 1.0, (3,))
        with pytest.raises(ValueError, match="node"):
            GridFunction(spec, [1.0, np.inf, 2.0])

    def test_values_are_read_only(self):
        u = GridFunction(GridSpec((0.0,), 1.0, (3,)), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            u.values[0] = 9.0


class TestSample:
    def test_constant(self):
        u = sample("1", GridSpec((0.0,), 1.0, (3,)))
        assert list(u.flat()) == [1.0, 1.0, 1.0]

    def test_linear(self):
        u = sample("x1", GridSpec((0.0,), 0.5, (3,)))
        assert list(u.flat()) == [0.0, 0.5, 1.0]

    def test_two_dimensional_row_major(self):
        u = sample("x1^2+x2^2", GridSpec((0.0, 0.0), 1.0, (2, 2)))
        assert list(u.flat()) == [0.0, 1.0, 1.0, 2.0]

    def test_failure_names_node(self):
        with pytest.raises(ExprEvalError, match=r"node \(1,\)"):
            sample("1/x1", GridSpec((-1.0,), 1.0, (3,)))

    def test_additivity(self):
        spec = GridSpec((-1.0, 0.5), 0.25, (7, 5))
        lhs = sample("exp(x1) + x2^3", spec)
        rhs = sample("exp(x1)", spec).values + sample("x2^3", spec).values
        assert np.allclose(lhs.values, rhs, rtol=0, atol=1e-15)


class TestNorm:
    def test_zero_function(self):
        u = GridFunction(GridSpec((0.0,), 0.5, (4,)), np.zeros(4))
        assert norm(u, "l1") == 0.0
        assert norm(u, "linf") == 0.0

    def test_l1_weights_by_cell_volume(self):
        u = GridFunction(GridSpec((0.0,), 0.5, (3,)), [1.0, -2.0, 3.0])
        assert norm(u, "l1") == 3.0

    def test_linf_is_max_magnitude(self):
        u = GridFunction(GridSpec((0.0,), 0.5, (3,)), [1.0, -2.0, 3.0])
        assert norm(u, "linf") == 3.0

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(7)
        spec = GridSpec((0.0, 0.0), 0.3, (5, 4))
        vals = rng.standard_normal(spec.extents)
        u = GridFunction(spec, vals)
        for c in (-2.5, 0.0, 0.7):
            cu = GridFunction(spec, c * vals)
            for kind in ("l1", "linf"):
                assert norm(cu, kind) == pytest.approx(abs(c) * norm(u, kind), rel=1e-13)

    def test_unknown_kind(self):
        u = GridFunction(GridSpec((0.0,), 1.0, (2,)), [0.0, 0.0])
        with pytest.raises(ValueError):
            norm(u, "l2")


class TestShrink:
    def test_zero_margin_is_identity(self):
        u = sample("x1*x2", GridSpec((0.0, 0.0), 0.5, (4, 4)))
        v = shrink(u, 0)
        assert v.spec == u.spec
        assert np.array_equal(v.values, u.values)

    def test_one_dimensional_margins(self):
        u = sample("x1", GridSpec((0.0,), 1.0, (5,)))
        v = shrink(u, [(1, 1)])
        assert v.spec.extents == (3,)
        assert v.spec.origin == (1.0,)
        assert list(v.flat()) == [1.0, 2.0, 3.0]

    def test_single_axis_margin(self):
        u = sample("x1", GridSpec((0.0, 0.0), 1.0, (4, 4)))
        v = shrink(u, [(0, 2), (0, 0)])
        assert v.spec.extents == (2, 4)

    def test_margins_compose_additively(self):
        u = sample("x1^2 - x2", GridSpec((0.0, 0.0), 0.5, (8, 9)))
        once = shrink(shrink(u, [(1, 0), (2, 1)]), [(0, 2), (1, 1)])
        combined = shrink(u, [(1, 2), (3, 2)])
        assert once.spec == combined.spec
        assert np.array_equal(once.values, combined.values)

    def test_empty_axis_is_an_error(self):
        u = sample("x1", GridSpec((0.0,), 1.0, (3,)))
        with pytest.raises(ValueError):
            shrink(u, [(2, 1)])


class TestRestrict:
    def test_extracts_aligned_window(self):
        u = sample("x1 + 10*x2", GridSpec((0.0, 0.0), 0.5, (5, 5)))
        target = GridSpec((0.5, 1.0), 0.5, (3, 2))
        v = restrict(u, target)
        assert v.values.shape == (3, 2)
        assert v.values[0, 0] == 0.5 + 10 * 1.0

    def test_rejects_off_lattice_target(self):
        u = sample("x1", GridSpec((0.0,), 0.5, (5,)))
        with pytest.raises(ValueError, match="incompatible"):
            restrict(u, GridSpec((0.3,), 0.5, (2,)))

    def test_rejects_window_outside(self):
        u = sample("x1", GridSpec((0.0,), 0.5, (5,)))
        with pytest.raises(ValueError, match="incompatible"):
            restrict(u, GridSpec((1.5, ), 0.5, (4,)))


class TestGridFiles:
    def test_round_trip_exact(self, tmp_path):
        spec = GridSpec((-1.0, 0.25), 1 / 3, (3, 4))
        rng = np.random.default_rng(3)
        u = GridFunction(spec, rng.standard_normal(spec.extents) * 1e3)
        path = tmp_path / "u.grd"
        save_grid(u, str(path))
        v = load_grid(str(path))
        assert v.spec == u.spec
        assert np.array_equal(v.values, u.values)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.grd"
        path.write_text(
            "# a comment\ndim 1\norigin 0\n\nh 0.5\nextents 2\n# values\n1.5\n2.5\n"
        )
        u = load_grid(str(path))
        assert list(u.flat()) == [1.5, 2.5]

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("dim 1\norigin 0\nh 1\nextents 3\n1\n2\n")
        with pytest.raises(GridFileError, match="3 value lines"):
            load_grid(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("dim 2\norigin 0\nh 1\nextents 2 2\n0\n0\n0\n0\n")
        with pytest.raises(GridFileError):
            load_grid(str(path))

    def test_bad_value_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.grd"
        path.write_text("dim 1\norigin 0\nh 1\nextents 2\n1\nnope\n")
        with pytest.raises(GridFileError, match="bad.grd:6"):
            load_grid(str(path))

    @pytest.mark.parametrize("origin", ["inf 0", "0 nan"])
    def test_non_finite_origin_reports_file(self, tmp_path, origin):
        path = tmp_path / "far.grd"
        path.write_text(f"dim 2\norigin {origin}\nh 1\nextents 1 2\n0\n0\n")
        with pytest.raises(GridFileError, match="far.grd: grid nodes must be finite: origin"):
            load_grid(str(path))
