import dataclasses
import itertools
import math
import os
import re
import stat
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import pardiff.grid as grid_module
from pardiff import elliptic
from pardiff.elliptic import (
    FundamentalSolution, newtonian_potential, solve_biharmonic, solve_poisson_dirichlet,
)
from pardiff.expr import ExprEvalError
from pardiff.grid import (
    MAX_NODES,
    GridFileError,
    GridFunction,
    GridSpec,
    _atomic_write,
    _header_fields,
    grid_file_chunks,
    load_grid,
    norm,
    restrict,
    sample,
    save_grid,
    shrink,
)
from pardiff.mollify import (
    convolve, derivative_commute, l1_convergence, make_mollifier, mollifier_for,
)
from pardiff.stencil import biharmonic_stencil, laplace_stencil


class TestGridSpec:
    def test_node_placement(self):
        spec = GridSpec((1.0, -2.0), 0.25, (3, 5))
        assert spec.dim == 2
        assert spec.node_count == 15
        assert spec.node((2, 4)) == (1.5, -1.0)

    def test_node_zero_is_the_origin_as_given(self):
        # -0.0 + h * 0 would be +0.0
        spec = GridSpec((-0.0, 0.5), 0.25, (3, 4))
        assert np.signbit(spec.axis_coords(0)[0]) and np.signbit(spec.meshes()[0][0, 3])
        assert math.copysign(1.0, spec.node((0, 2))[0]) == -1.0
        assert math.copysign(1.0, spec.shrunk((0, 1), (1, 1)).origin[0]) == -1.0
        assert spec.shrunk((1, 1), (0, 0)).origin == (0.25, 0.75)

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


class TestNodeLimit:
    def test_limit_itself_is_accepted(self):
        assert GridSpec((0.0,), 1.0, (MAX_NODES,)).node_count == MAX_NODES

    @pytest.mark.parametrize("extents", [(MAX_NODES + 1,), (4097, 4096), (2**32, 2**32)])
    def test_larger_grid_refused(self, extents):
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_NODES}"):
            GridSpec((0.0,) * len(extents), 1.0, extents)

    def test_node_count_does_not_wrap(self):
        # np.prod wraps (2**32, 2**32) to 0 in int64; the exact count is 2**64
        with pytest.raises(ValueError, match=f"grid of {2**64} nodes"):
            GridSpec((0.0, 0.0), 1.0, (2**32, 2**32))

    def test_header_only_file_refused_before_reading_values(self, tmp_path):
        path = tmp_path / "huge.grd"
        path.write_text("dim 2\norigin 0 0\nh 1\nextents 4294967296 4294967296\n")
        with pytest.raises(GridFileError, match="huge.grd: grid of .* exceeds the limit"):
            load_grid(str(path))


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

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 2)], ids=["flat", "other", "grid"])
    def test_values_are_copied(self, shape):
        given = np.array([1.0, 2.0, 3.0, 4.0]).reshape(shape)
        u = GridFunction(GridSpec((0.0, 0.0), 1.0, (2, 2)), given)
        given.reshape(-1)[1] = np.inf
        assert u.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


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

    def test_rejects_a_cell_count_that_overflows(self):
        u = sample("x1", GridSpec((0.0, 0.0), 0.125, (5, 5)))
        with pytest.raises(ValueError, match="incompatible specs: .* is off the lattice"):
            restrict(u, GridSpec((1e308, 0.0), 0.125, (2, 2)))

    def test_rejects_window_outside(self):
        u = sample("x1", GridSpec((0.0,), 0.5, (5,)))
        with pytest.raises(ValueError, match="incompatible"):
            restrict(u, GridSpec((1.5, ), 0.5, (4,)))


def test_fast_length_is_the_next_5_smooth_number():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    expected = 1
    for n in range(1, 4097):
        if expected < n:
            expected = next(m for m in itertools.count(n) if smooth(m))
        assert grid_module._fast_length(n) == expected, n


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


def reference_load_grid(path: str) -> GridFunction:
    """The per-line reader that ``load_grid`` replaced, kept as its reference."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            lines.append((lineno, stripped))
    if len(lines) < 4:
        raise GridFileError(f"{path}: truncated grid file")
    try:
        (dim,) = _header_fields(path, *lines[0], "dim", 1)
        dim = int(dim)
        if dim < 1:
            raise ValueError
    except ValueError:
        raise GridFileError(f"{path}:{lines[0][0]}: invalid dimension") from None
    try:
        origin = tuple(float(v) for v in _header_fields(path, *lines[1], "origin", dim))
        (h,) = _header_fields(path, *lines[2], "h", 1)
        h = float(h)
        extents = tuple(int(v) for v in _header_fields(path, *lines[3], "extents", dim))
    except ValueError as exc:
        raise GridFileError(f"{path}: malformed header: {exc}") from None
    try:
        spec = GridSpec(origin, h, extents)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from None
    body = lines[4:]
    if len(body) != spec.node_count:
        raise GridFileError(
            f"{path}: expected {spec.node_count} value lines, found {len(body)}"
        )
    values = np.empty(spec.node_count)
    for k, (lineno, line) in enumerate(body):
        try:
            values[k] = float(line)
        except ValueError:
            raise GridFileError(f"{path}:{lineno}: invalid value {line!r}") from None
    try:
        return GridFunction(spec, values)
    except ValueError as exc:
        raise GridFileError(f"{path}: {exc}") from None


def load_outcome(load, path):
    """The spec and exact value bytes of a load, or the type and text of its error."""
    try:
        u = load(str(path))
    except ValueError as exc:  # GridFileError and UnicodeDecodeError
        return type(exc).__name__, str(exc)
    return u.spec, u.values.tobytes()


HEADER = b"dim 2\norigin 0 -1\nh 0.5\nextents 2 3\n"
VALUES = [b"1.5", b"-0", b"2e-3", b"7", b"-8.25", b"1e300"]


def lines(values, end=b"\n"):
    return b"".join(v + end for v in values)


# A 1-D file whose invalid byte lies past the first 8 KiB of the file.
LONG_BODY = [b"%.17g" % (k / 7) for k in range(1000)]
LONG_BODY[600] = b"0.5\xff"

# 1-D files longer than the loader's first block of 4096 body lines, with a
# fault in the second block or at the edge of the first.
LATER = [b"%.17g" % (k / 3) for k in range(5000)]


def long_file(body, extent=5000):
    return b"dim 1\norigin 0\nh 1\nextents %d\n" % extent + lines(body)


GRID_FILES = {
    "plain": HEADER + lines(VALUES),
    "blank-line-in-body": HEADER + lines(VALUES[:2] + [b""] + VALUES[2:]),
    "spaces-line-in-body": HEADER + lines(VALUES[:2] + [b"  \t"] + VALUES[2:]),
    "comment-line-in-body": HEADER + lines(VALUES[:3] + [b"# note"] + VALUES[3:]),
    "comment-after-value": HEADER + lines(VALUES[:3] + [b"7 # note"] + VALUES[4:]),
    "comments-in-header": b"# c\ndim 2\n\norigin 0 -1\n  # x\nh 0.5\nextents 2 3\n" + lines(VALUES),
    "crlf": (HEADER + lines(VALUES)).replace(b"\n", b"\r\n"),
    "cr-only": (HEADER + lines(VALUES)).replace(b"\n", b"\r"),
    "crlf-with-comment": (HEADER + lines([b"#"] + VALUES)).replace(b"\n", b"\r\n"),
    "mixed-line-endings": HEADER + b"1.5\r\n-0\r2e-3\n7\n-8.25\r\n1e300",
    "no-trailing-newline": HEADER + lines(VALUES)[:-1],
    "trailing-blank-lines": HEADER + lines(VALUES) + b"\n  \n\n",
    "padded-value": HEADER + lines([b" 1.5 "] + VALUES[1:]),
    "unicode-spaces": HEADER + lines([b"\xe2\x80\x831.5\xc2\x85"] + VALUES[1:]),
    "underscore": HEADER + lines([b"1_0"] + VALUES[1:]),
    "bad-value-on-line-9": HEADER + lines(VALUES[:4] + [b"1.5.2"] + VALUES[5:]),
    "bad-value-then-too-many": HEADER + lines([b"nope"] + VALUES),
    "one-line-too-few": HEADER + lines(VALUES[:-1]),
    "one-line-too-many": HEADER + lines(VALUES + [b"3"]),
    "non-finite-value": HEADER + lines(VALUES[:5] + [b"-inf"]),
    "invalid-utf8": HEADER + lines(VALUES[:3] + [b"\xff"] + VALUES[4:]),
    "invalid-utf8-past-8-kib": b"dim 1\norigin 0\nh 1\nextents 1000\n" + lines(LONG_BODY),
    "cut-multibyte-at-end": HEADER + lines(VALUES) + b"\xc3",
    "header-only": HEADER,
    "truncated": b"dim 2\norigin 0 -1\n# h\n",
    "empty": b"",
    "bad-dimension": b"dim 0\norigin 0\nh 1\nextents 1\n0\n",
    "bad-header": b"dim 2\norigin 0\nh 1\nextents 1 1\n0\n",
    "wrong-header-key": b"dim 2\norigin 0 -1\nspacing 0.5\nextents 2 3\n" + lines(VALUES),
    "values-over-several-blocks": long_file(LATER),
    "bad-value-in-a-later-block": long_file(LATER[:4500] + [b"1.5.2"] + LATER[4501:]),
    "comment-in-a-later-block": long_file(LATER[:4500] + [b"# note"] + LATER[4500:]),
    "invalid-utf8-in-a-later-block": long_file(LATER[:4500] + [b"0.5\xff"] + LATER[4501:]),
    "one-line-too-few-at-a-block-edge": long_file(LATER[:4096], 4097),
    "one-line-too-many-at-a-block-edge": long_file(LATER[:4097], 4096),
    # past the first 8 KiB, which the header's first read decodes
    "bad-header-then-invalid-utf8": b"dim 2\norigin 0\nh 1\nextents 1 1\n" + lines(LATER[:1000])
    + b"0\xff\n",
}

# The files that are not valid UTF-8: the offset in the file of the first
# byte that does not decode, and the reason.
DECODE_ERRORS = {
    "invalid-utf8": (48, "invalid start byte"),
    "invalid-utf8-past-8-kib": (10051, "invalid start byte"),
    "cut-multibyte-at-end": (62, "unexpected end of data"),
    "bad-header-then-invalid-utf8": (
        GRID_FILES["bad-header-then-invalid-utf8"].index(b"\xff"), "invalid start byte"
    ),
    "invalid-utf8-in-a-later-block": (
        GRID_FILES["invalid-utf8-in-a-later-block"].index(b"\xff"), "invalid start byte"
    ),
}


def expected_outcome(name, path):
    """The reference loader's outcome; for an undecodable file, one GridFileError naming it."""
    if name in DECODE_ERRORS:
        offset, reason = DECODE_ERRORS[name]
        return "GridFileError", f"{path}: not valid UTF-8 at byte offset {offset}: {reason}"
    return load_outcome(reference_load_grid, path)


# The files whose body is one value per line, which the bulk pass reads.
BULK_FILES = [
    "plain", "comments-in-header", "crlf", "cr-only", "mixed-line-endings",
    "no-trailing-newline", "padded-value", "unicode-spaces", "underscore", "non-finite-value",
    "values-over-several-blocks",
]


class TestBulkLoadAgainstPerLineReader:
    @pytest.mark.parametrize("name", sorted(GRID_FILES))
    def test_same_values_or_same_error(self, tmp_path, name):
        path = tmp_path / "g.grd"
        path.write_bytes(GRID_FILES[name])
        assert load_outcome(load_grid, path) == expected_outcome(name, path)

    @pytest.mark.parametrize("name", sorted(GRID_FILES))
    def test_per_line_reader_alone_gives_the_same(self, tmp_path, monkeypatch, name):
        path = tmp_path / "g.grd"
        path.write_bytes(GRID_FILES[name])
        monkeypatch.setattr(grid_module, "_bulk_values", lambda *args: None)
        assert load_outcome(load_grid, path) == expected_outcome(name, path)

    @pytest.mark.parametrize("name", BULK_FILES)
    def test_one_value_per_line_takes_the_bulk_pass(self, tmp_path, monkeypatch, name):
        def no_per_line(*args):
            raise AssertionError("the per-line reader ran")

        path = tmp_path / "g.grd"
        path.write_bytes(GRID_FILES[name])
        expected = load_outcome(reference_load_grid, path)
        monkeypatch.setattr(grid_module, "_body_values", no_per_line)
        assert load_outcome(load_grid, path) == expected

    def test_errors_name_the_line(self, tmp_path):
        path = tmp_path / "g.grd"
        path.write_bytes(GRID_FILES["bad-value-on-line-9"])
        assert load_outcome(load_grid, path) == (
            "GridFileError", f"{path}:9: invalid value '1.5.2'"
        )
        path.write_bytes(GRID_FILES["invalid-utf8-past-8-kib"])
        assert load_outcome(load_grid, path) == (
            "GridFileError", f"{path}: not valid UTF-8 at byte offset 10051: invalid start byte"
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grids_round_trip_bit_for_bit(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        extents = tuple(int(e) for e in rng.integers(1, 12, size=int(rng.integers(1, 4))))
        n = math.prod(extents)
        edge = np.array([
            -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308,
        ])
        values = np.where(
            rng.random(n) < 0.4,
            rng.choice(edge, n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        )
        u = GridFunction(GridSpec((-1.5,) * len(extents), 1 / 3, extents), values)
        path = tmp_path / "r.grd"
        save_grid(u, str(path))
        assert load_outcome(load_grid, path) == (u.spec, u.values.tobytes())
        assert load_outcome(reference_load_grid, path) == (u.spec, u.values.tobytes())


class TestLoadInSmallBlocks(TestBulkLoadAgainstPerLineReader):
    """The whole suite again with blocks of a few lines, so that every file has
    block edges: in its body, at its end and around each fault."""

    @pytest.fixture(autouse=True, params=[1, 2, 3, 7])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(grid_module, "_BLOCK_VALUES", request.param)


class TestGridFileMemory:
    """tracemalloc peaks per node at 513², against the 8 B of each value."""

    NODES = 513 * 513

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(5)
        spec = GridSpec((0.0, 0.0), 1 / 512, (513, 513))
        return GridFunction(spec, rng.standard_normal(spec.extents))

    def peak_per_node(self, fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
        except GridFileError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak / self.NODES

    def test_save_and_load(self, tmp_path, grid):
        path = str(tmp_path / "g.grd")
        assert self.peak_per_node(save_grid, grid, path) <= 4
        assert self.peak_per_node(load_grid, path) <= 20
        assert load_grid(path).values.tobytes() == grid.values.tobytes()

    @pytest.mark.parametrize("fault", ["truncated", "bad-value-in-the-last-block"])
    def test_a_faulty_body(self, tmp_path, grid, fault):
        path = tmp_path / "g.grd"
        text = "".join(grid_file_chunks(grid))
        if fault == "truncated":
            text = text[:text.rindex("\n", 0, -1) + 1]
            error = f"{path}: expected {self.NODES} value lines, found {self.NODES - 1}"
        else:
            text = text[:text.rindex("\n", 0, -1) + 1] + "nope\n"
            error = f"{path}:{self.NODES + 4}: invalid value 'nope'"
        path.write_text(text)
        del text
        assert self.peak_per_node(load_grid, str(path)) <= 24
        assert load_outcome(load_grid, path) == ("GridFileError", error)


# Written once by the per-value writer that grid_file_chunks replaced.
EDGE_VALUES = [0.1, 1 / 3, -0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308,
               1e16, 123456789.0, -2 / 3]
GOLDEN_TEXT = {
    "1-D": (
        GridSpec((-0.5,), 0.1, (9,)),
        "dim 1\norigin -0.5\nh 0.10000000000000001\nextents 9\n0.10000000000000001\n"
        "0.33333333333333331\n-0\n4.9406564584124654e-324\n-1.7976931348623157e+308\n"
        "2.2250738585072014e-308\n10000000000000000\n123456789\n-0.66666666666666663\n",
    ),
    "2-D": (
        GridSpec((1 / 3, -0.0), 1 / 7, (3, 3)),
        "dim 2\norigin 0.33333333333333331 -0\nh 0.14285714285714285\nextents 3 3\n"
        "0.10000000000000001\n0.33333333333333331\n-0\n4.9406564584124654e-324\n"
        "-1.7976931348623157e+308\n2.2250738585072014e-308\n10000000000000000\n123456789\n"
        "-0.66666666666666663\n",
    ),
}


class TestGridFileText:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
    def test_golden_bytes(self, tmp_path, name):
        spec, text = GOLDEN_TEXT[name]
        u = GridFunction(spec, EDGE_VALUES)
        assert "".join(grid_file_chunks(u)) == text
        save_grid(u, str(tmp_path / "g.grd"))
        assert (tmp_path / "g.grd").read_bytes() == text.encode()


class TestGridFileChunks:
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 4096])
    @pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
    def test_chunks_join_to_the_golden_text(self, monkeypatch, name, block):
        monkeypatch.setattr(grid_module, "_BLOCK_VALUES", block)
        spec, text = GOLDEN_TEXT[name]
        u = GridFunction(spec, EDGE_VALUES)
        chunks = list(grid_file_chunks(u))
        assert "".join(chunks) == text
        full, rest = divmod(len(EDGE_VALUES), block)
        assert [c.count("\n") for c in chunks] == [4] + [block] * full + [rest] * (rest > 0)


class TestAtomicWrite:
    def test_failed_rename_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "u.grd"
        save_grid(sample("x1", GridSpec((0.0,), 1.0, (3,))), str(path))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            save_grid(sample("2*x1", GridSpec((0.0,), 1.0, (3,))), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["u.grd"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            _atomic_write([(str(tmp_path / "u.grd"), "1\n\ud800\n")])  # a lone surrogate
        assert os.listdir(tmp_path) == []


class TestAtomicWriteOfSeveralFiles:
    def test_every_target_is_written(self, tmp_path):
        (tmp_path / "a.txt").write_text("old\n")
        _atomic_write([(str(tmp_path / "a.txt"), "a\n"), (str(tmp_path / "b.txt"), "b\n")])
        assert (tmp_path / "a.txt").read_text() == "a\n"
        assert (tmp_path / "b.txt").read_text() == "b\n"
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]

    def test_a_failed_write_changes_no_target(self, tmp_path):
        (tmp_path / "a.txt").write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            _atomic_write([(str(tmp_path / "a.txt"), "new\n"),
                           (str(tmp_path / "b.txt"), "\ud800\n")])  # a lone surrogate
        assert (tmp_path / "a.txt").read_text() == "old\n"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_a_failed_open_names_the_target_as_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as info:
            _atomic_write([("a.txt", "a\n"), ("missing/b.txt", "b\n")])
        assert str(info.value) == "[Errno 2] No such file or directory: 'missing/b.txt'"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "path, error",
        [("", "[Errno 2] No such file or directory: ''"),
         ("adir", "[Errno 21] Is a directory: 'adir'"),
         ("afile/b.txt", "[Errno 20] Not a directory: 'afile/b.txt'")],
        ids=["empty", "directory", "under-a-file"],
    )
    def test_a_target_that_cannot_be_a_file_is_refused_before_staging(
        self, tmp_path, monkeypatch, path, error
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("x\n")

        def no_staging(*args, **kwargs):
            raise AssertionError("a temporary was named")

        monkeypatch.setattr(grid_module, "tempfile", SimpleNamespace(mktemp=no_staging))
        with pytest.raises(OSError) as info:
            _atomic_write([("a.txt", "a\n"), (path, "b\n")])
        assert str(info.value) == error
        assert sorted(os.listdir(tmp_path)) == ["adir", "afile"]

    def test_a_chunk_iterable_that_raises_midway_changes_no_target(self, tmp_path):
        (tmp_path / "a.txt").write_text("old\n")

        def chunks():
            yield "1\n"
            raise RuntimeError("no more chunks")

        with pytest.raises(RuntimeError, match="no more chunks"):
            _atomic_write([(str(tmp_path / "a.txt"), "new\n"), (str(tmp_path / "b.txt"), chunks())])
        assert (tmp_path / "a.txt").read_text() == "old\n"
        assert os.listdir(tmp_path) == ["a.txt"]


class TestOutputTargets:
    """Targets are resolved through symlinks and checked by ``os.stat`` alone."""

    def test_a_symlink_keeps_its_link_and_its_file_is_written(self, tmp_path):
        (tmp_path / "real.grd").write_text("old\n")
        os.symlink("real.grd", tmp_path / "link.grd")
        u = sample("x1", GridSpec((0.0,), 1.0, (3,)))
        save_grid(u, str(tmp_path / "link.grd"))
        assert os.readlink(tmp_path / "link.grd") == "real.grd"
        assert (tmp_path / "real.grd").read_text() == "".join(grid_file_chunks(u))
        assert sorted(os.listdir(tmp_path)) == ["link.grd", "real.grd"]

    def test_a_dangling_symlink_creates_the_file_it_names(self, tmp_path):
        os.symlink("real.txt", tmp_path / "link.txt")
        _atomic_write([(str(tmp_path / "link.txt"), "a\n")])
        assert os.path.islink(tmp_path / "link.txt")
        assert (tmp_path / "real.txt").read_text() == "a\n"

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o604])
    def test_an_existing_file_keeps_its_permission_bits(self, tmp_path, mode):
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        os.chmod(path, mode)
        _atomic_write([(str(path), "new\n")])
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == mode

    def test_a_fifo_is_refused_and_never_opened(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkfifo("fifo")  # no reader: opening it for writing would block
        with pytest.raises(OSError) as info:
            _atomic_write([("a.txt", "a\n"), ("fifo", "b\n")])
        assert str(info.value) == "[Errno 22] Not a regular file: 'fifo'"
        assert stat.S_ISFIFO(os.stat("fifo").st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    def test_a_symlink_to_a_fifo_is_refused_by_its_own_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkfifo("fifo")
        os.symlink("fifo", "link")
        with pytest.raises(OSError) as info:
            save_grid(sample("x1", GridSpec((0.0,), 1.0, (3,))), "link")
        assert str(info.value) == "[Errno 22] Not a regular file: 'link'"
        assert sorted(os.listdir(tmp_path)) == ["fifo", "link"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_link_to_a_pipe_through_proc_is_refused(self, tmp_path, monkeypatch):
        # the shape of /dev/stdout on a pipe: realpath cannot follow the last link
        monkeypatch.chdir(tmp_path)
        r, w = os.pipe()
        try:
            os.symlink(f"/proc/{os.getpid()}/fd/{w}", "out")
            with pytest.raises(OSError) as info:
                _atomic_write([("out", "a\n")])
        finally:
            os.close(r)
            os.close(w)
        assert str(info.value) == "[Errno 22] Not a regular file: 'out'"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("via", ["link", "descriptor", "self", "directory-link"])
    def test_a_descriptor_open_on_a_file_is_refused_and_the_file_kept(self, tmp_path, monkeypatch, via):
        # the shape of `pardiff ... --report /dev/stdout >> log`: the descriptor's
        # file is a regular file, but replacing it would lose what it holds
        monkeypatch.chdir(tmp_path)
        (tmp_path / "log").write_text("earlier\n")
        fd = os.open(tmp_path / "log", os.O_WRONLY | os.O_APPEND)
        try:
            os.symlink(f"/proc/{os.getpid()}/fd/{fd}", "link")
            os.symlink(f"/proc/{os.getpid()}/fd", "fds")
            path = {"link": "link", "descriptor": f"/proc/{os.getpid()}/fd/{fd}",
                    "self": f"/proc/self/fd/{fd}", "directory-link": f"fds/{fd}"}[via]
            with pytest.raises(OSError) as info:
                _atomic_write([("a.txt", "a\n"), (path, "b\n")])
            os.write(fd, b"later\n")
        finally:
            os.close(fd)
        assert str(info.value) == f"[Errno 22] Not a regular file: {path!r}"
        assert (tmp_path / "log").read_text() == "earlier\nlater\n"
        assert sorted(os.listdir(tmp_path)) == ["fds", "link", "log"]

    def test_a_link_into_a_directory_named_fd_is_written(self, tmp_path):
        # only a process's descriptor directory is refused, not any directory called fd
        (tmp_path / "fd").mkdir()
        os.symlink("fd/real.txt", tmp_path / "link.txt")
        _atomic_write([(str(tmp_path / "link.txt"), "a\n")])
        assert (tmp_path / "fd" / "real.txt").read_text() == "a\n"

    def test_a_refused_chmod_names_the_target_and_leaves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        os.chmod(path, 0o600)

        def refuse(fd, mode):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "fchmod", refuse)
        before = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        with pytest.raises(OSError) as info:
            _atomic_write([("a.txt", "new\n")])
        assert str(info.value) == "[Errno 1] Operation not permitted: 'a.txt'"
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["a.txt"]
        if before is not None:  # the temporary's descriptor was closed
            assert len(os.listdir("/proc/self/fd")) == before

    def test_a_target_with_the_temporarys_mode_needs_no_chmod(self, tmp_path, monkeypatch):
        # a filesystem that refuses chmod still takes a write whose mode is already right
        path = tmp_path / "a.txt"
        path.write_text("old\n")
        os.chmod(path, 0o666 & ~_umask())

        def refuse(fd, mode):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "fchmod", refuse)
        _atomic_write([(str(path), "new\n")])
        assert path.read_text() == "new\n"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _block_grid(h: float, dim: int = 2) -> GridFunction:
    """7 nodes per axis at pitch ``h``, ones on the interior 3^dim block and zeros around it."""
    values = np.zeros((7,) * dim)
    values[(slice(2, 5),) * dim] = 1.0
    return GridFunction(GridSpec((0.0,) * dim, h, (7,) * dim), values)


def _kernel_at(h: float):
    """A 5 x 5 kernel built at pitch 1 and carried to pitch ``h``, where it could not be built."""
    k = mollifier_for(_block_grid(1.0).spec, 2.0)
    samples = GridFunction(GridSpec((-2.0 * h,) * 2, h, (5, 5)), k.samples.values)
    return dataclasses.replace(k, eps=2.0 * h, spacing=h, samples=samples)


def _no_sweep(*args, **kwargs):
    raise AssertionError("an SOR sweep started")


def _poisson(h):
    g = _block_grid(h)
    return solve_poisson_dirichlet(g, g)


def _biharmonic(h):
    g = _block_grid(h)
    return solve_biharmonic(g, g, g)


# call, factor named, spacing or radius as printed
OVERFLOWS = {
    "norm": (lambda: norm(_block_grid(1e200), "l1"), "h^2", "h = 1e+200"),
    "apply-laplace": (
        lambda: laplace_stencil(2, 1e-200, scaled=True).apply(_block_grid(1e-200)),
        "h^(-2)", "h = 1e-200",
    ),
    "apply-biharmonic": (
        lambda: biharmonic_stencil(2, 1e-100, scaled=True).apply(_block_grid(1e-100)),
        "h^(-4)", "h = 1e-100",
    ),
    "make_mollifier-eps^n": (lambda: make_mollifier(2, 3e200, 1e200), "eps^2", "eps = 3e+200"),
    "make_mollifier-eps^(-n)": (
        lambda: make_mollifier(2, 2e-200, 1e-200), "eps^(-2)", "eps = 2e-200",
    ),
    "convolve": (lambda: convolve(_block_grid(1e200), _kernel_at(1e200)), "h^2", "h = 1e+200"),
    "l1_convergence": (
        lambda: l1_convergence(_block_grid(1e200), [3e200]), "eps^2", "eps = 3e+200",
    ),
    "derivative_commute": (
        lambda: derivative_commute(_block_grid(1e200), _kernel_at(1e200), 1),
        "h^2", "h = 1e+200",
    ),
    "poisson-h^2": (lambda: _poisson(1e200), "h^2", "h = 1e+200"),
    "poisson-h^(-2)": (lambda: _poisson(1e-200), "h^(-2)", "h = 1e-200"),
    "biharmonic": (lambda: _biharmonic(1e200), "h^2", "h = 1e+200"),
}

# targets' origin in cells of the source pitch, and the path that sums
POTENTIAL_PATHS = {
    "fft-2d": (2, 0.0, "_hockney_potential"),
    "fft-3d": (3, 0.0, "_hockney_potential"),
    "expansion-2d": (2, 1000.5, "_multipole_potential"),
    "direct-2d": (2, 0.5, "_direct_potential"),
    "direct-3d": (3, 0.5, "_direct_potential"),
}


class TestScaleFactor:
    """Every power of a spacing or a radius comes from ``grid._scale_factor``, which names
    the factor and its base when the power overflows."""

    @pytest.mark.parametrize(
        "base, p, name, value",
        [(0.25, 2, "h", 0.0625), (0.25, -2, "h", 16.0), (3, 2, "eps", 9.0), (1e200, -2, "h", 0.0),
         (np.float64(0.5), 3, "h", 0.125)],
    )
    def test_the_power_as_python_takes_it(self, base, p, name, value):
        got = grid_module._scale_factor(base, p, name)
        assert type(got) is float and got == value

    @pytest.mark.parametrize(
        "base, p, name, message",
        [(1e200, 2, "h", "scale factor h^2 overflows at h = 1e+200"),
         (1e-200, -2, "h", "scale factor h^(-2) overflows at h = 1e-200"),
         (np.float64(1e-100), -4, "h", "scale factor h^(-4) overflows at h = 1e-100"),
         (3e200, 2, "eps", "scale factor eps^2 overflows at eps = 3e+200")],
    )
    def test_an_overflow_is_named(self, base, p, name, message):
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            grid_module._scale_factor(base, p, name)

    @pytest.mark.parametrize("case", list(OVERFLOWS))
    def test_every_routed_function_names_its_factor(self, case, monkeypatch):
        monkeypatch.setattr(elliptic, "_Color", _no_sweep)
        call, factor, at = OVERFLOWS[case]
        message = re.escape(f"scale factor {factor} overflows at {at}")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("case", list(POTENTIAL_PATHS))
    def test_potential_fails_before_any_sum(self, case, monkeypatch):
        dim, cells, path = POTENTIAL_PATHS[case]
        h = 1e200 if dim == 2 else 1e150
        fs = FundamentalSolution(dim)
        paths = ("_hockney_potential", "_multipole_potential", "_direct_potential")
        taken = []

        def spy(name):
            func = getattr(elliptic, name)

            def call(*args):
                taken.append(name)
                return func(*args)

            return call

        def targets(pitch):
            return GridSpec((cells * pitch,) * dim, pitch, (7,) * dim)

        for name in paths:
            monkeypatch.setattr(elliptic, name, spy(name))
        newtonian_potential(fs, _block_grid(1.0, dim), targets(1.0))
        assert taken == [path]  # the same geometry at pitch 1 takes this path
        taken.clear()
        message = re.escape(f"scale factor h^{dim} overflows at h = {h!r}")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            newtonian_potential(fs, _block_grid(h, dim), targets(h))
        assert taken == []
