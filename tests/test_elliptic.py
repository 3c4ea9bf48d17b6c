import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pardiff import elliptic
from pardiff.elliptic import (
    FundamentalSolution,
    _kernel_of_squared_distance,
    convergence_study,
    harnack_limit,
    harmonicity_residual,
    max_principle_check,
    mean_value_check,
    newtonian_potential,
    solve_biharmonic,
    solve_laplace_dirichlet,
    solve_poisson_dirichlet,
    sphere_area,
)
from pardiff.grid import MAX_NODES, GridFunction, GridSpec, restrict, sample
from pardiff.stencil import laplace_stencil


def monte_carlo_sphere_area(dim, samples=400_000, seed=2024):
    """Unit-ball volume fraction in the bounding cube, scaled; no Gamma function."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(samples, dim))
    inside = (pts * pts).sum(axis=1) <= 1.0
    ball_volume = 2.0**dim * inside.mean()
    return dim * ball_volume  # area of the unit sphere = n * vol(B^n)


def zero_interior(g: GridFunction) -> GridFunction:
    values = g.values.copy()
    values[tuple(slice(1, -1) for _ in range(g.spec.dim))] = 0.0
    return GridFunction(g.spec, values)


def compact_poly_bump(spec, radius, power=4):
    meshes = spec.meshes()
    s = sum(m * m for m in meshes) / radius**2
    return GridFunction(spec, np.where(s < 1.0, np.maximum(0.0, 1.0 - s) ** power, 0.0))


class TestSphereArea:
    def test_closed_forms(self):
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-12)

    def test_against_monte_carlo_oracle(self):
        for dim in (2, 3, 4):
            estimate = monte_carlo_sphere_area(dim)
            assert abs(estimate - sphere_area(dim)) <= 0.01 * sphere_area(dim)

    def test_needs_dim_at_least_two(self):
        with pytest.raises(ValueError):
            sphere_area(1)


class TestFundamentalSolution:
    def test_plane_values(self):
        fs = FundamentalSolution(2)
        assert fs.evaluate((1.0, 0.0)) == 0.0
        assert fs.evaluate((math.e, 0.0)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_three_dimensional_value(self):
        fs = FundamentalSolution(3)
        assert fs.evaluate((1.0, 0.0, 0.0)) == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-12)

    def test_singular_at_origin(self):
        with pytest.raises(ValueError, match="singular"):
            FundamentalSolution(2).evaluate((0.0, 0.0))

    def test_symmetry_under_permutation_and_sign_flips(self):
        fs = FundamentalSolution(3)
        a, b, c = 0.3, -0.7, 1.1
        base = fs.evaluate((a, b, c))
        for point in ((b, a, c), (c, b, a), (-a, b, -c), (a, -b, c)):
            assert fs.evaluate(point) == base

    def test_cell_average_finite(self):
        fs = FundamentalSolution(2)
        avg = fs.cell_average(1 / 32, 8)
        assert math.isfinite(avg) and avg < fs.evaluate((1 / 64, 0.0))

    def test_sphere_area_is_derived_not_given(self):
        with pytest.raises(TypeError):
            FundamentalSolution(2, 5.0)
        assert FundamentalSolution(3).unit_sphere_area == sphere_area(3)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_values_match_the_closed_forms(self, dim):
        """radial, evaluate and cell_average against the kernel written out in r."""
        fs = FundamentalSolution(dim)
        area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)

        def closed(r):
            if dim == 2:
                return np.log(r) / (2.0 * math.pi)
            return -(r ** (2.0 - dim)) / ((dim - 2.0) * area)

        # distances near 1, where log r is near 0, would compare absolute roundoff
        r = np.array([1e-3, 0.03, 0.25, 0.5, 2.0, 7.5, 40.0, 3e5])
        assert np.allclose(fs.radial(r), closed(r), rtol=1e-15, atol=0.0)
        for point in ((0.3, -0.7, 1.1, 0.05), (-2.0, 0.0, 0.5, 1.5), (0.01, 0.02, 0.0, 0.0)):
            expected = closed(math.sqrt(math.fsum(v * v for v in point[:dim])))
            assert fs.evaluate(point[:dim]) == pytest.approx(expected, rel=1e-15, abs=0.0)
        for h in (1 / 64, 1 / 8, 0.5):
            for subdivisions in (2, 8):
                offsets = -h / 2.0 + (np.arange(subdivisions) + 0.5) * (h / subdivisions)
                meshes = np.meshgrid(*([offsets] * dim), indexing="ij")
                expected = float(np.mean(closed(np.sqrt(sum(m * m for m in meshes)))))
                average = fs.cell_average(h, subdivisions)
                assert average == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "dim, call, r",
        [
            (2, lambda fs: fs.evaluate((1e200, 0.0)), 1e200),
            (2, lambda fs: fs.evaluate((1e-200, 0.0)), 1e-200),
            (3, lambda fs: fs.evaluate((1e200, 0.0, 0.0)), 1e200),
            (3, lambda fs: fs.evaluate((0.0, -1e-200, 0.0)), 1e-200),
            (2, lambda fs: fs.radial(1e200), 1e200),
            (3, lambda fs: fs.radial(1e-170), 1e-170),
            # each square is finite, their sum is not
            (2, lambda fs: fs.evaluate((1e154, 1e154)), math.hypot(1e154, 1e154)),
            (3, lambda fs: fs.evaluate((1e154, -1e154, 1e154)), math.hypot(1e154, 1e154, 1e154)),
        ],
        ids=["2d-evaluate-far", "2d-evaluate-near", "3d-evaluate-far", "3d-evaluate-near",
             "2d-radial-far", "3d-radial-near", "2d-evaluate-far-sum", "3d-evaluate-far-sum"],
    )
    def test_distances_whose_square_leaves_the_float_range(self, dim, call, r):
        expected = math.log(r) / (2.0 * math.pi) if dim == 2 else -1.0 / (4.0 * math.pi * r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = call(FundamentalSolution(dim))
        assert value == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("point", [(1e-310, 0.0, 0.0), (1e-200, 0.0, 0.0, 0.0)], ids=["3d", "4d"])
    def test_kernels_past_the_float_range_are_infinite_without_warning(self, point):
        fs = FundamentalSolution(len(point))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fs.evaluate(point) == -math.inf
            assert fs.radial(point[0]) == -math.inf

    @pytest.mark.parametrize("h", [1e-300, 1e300])
    def test_cell_average_whose_squares_leave_the_float_range(self, h):
        offsets = -h / 2.0 + (np.arange(8) + 0.5) * (h / 8)
        r = np.hypot(*np.meshgrid(offsets, offsets, indexing="ij"))  # hypot squares nothing
        expected = float(np.mean(np.log(r))) / (2.0 * math.pi)
        average = FundamentalSolution(2).cell_average(h)
        assert average == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_distances_whose_square_is_normal_keep_their_bits(self, dim):
        fs = FundamentalSolution(dim)
        # 2^-511 squares to the smallest normal float, the last entry to the largest
        r = np.array([2.0**-511, 1e-150, 0.3, 1.0, 7.5, 1e150, math.ldexp(1.0 - 2.0**-53, 512)])
        assert fs.radial(r).tobytes() == _kernel_of_squared_distance(fs, r * r).tobytes()
        for v in r:
            point = (0.0,) * (dim - 1) + (-v,)
            assert fs.evaluate(point) == _kernel_of_squared_distance(fs, v * v)


class TestNewtonianPotential:
    def test_zero_source(self):
        spec = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        zero = GridFunction(spec, np.zeros((9, 9)))
        u = newtonian_potential(FundamentalSolution(2), zero, spec)
        assert np.abs(u.values).max() == 0.0

    @pytest.mark.parametrize(
        "targets, other",
        [
            (GridSpec((-1.0, -1.0), 0.25, (9, 9)), "_direct_potential"),
            (GridSpec((1.5, -3.0), 0.25, (4, 3)), "_direct_potential"),
            (GridSpec((-0.4, -0.3), 0.1, (7, 6)), "_hockney_potential"),
        ],
        ids=["on-lattice", "on-lattice-outside", "off-lattice"],
    )
    def test_zero_source_gives_exact_zeros_on_each_path(self, targets, other, monkeypatch):
        spec = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        monkeypatch.setattr(elliptic, other, _forbidden)
        zero = GridFunction(spec, np.zeros((9, 9)))
        with np.errstate(all="raise"):
            u = newtonian_potential(FundamentalSolution(2), zero, targets)
        assert u.spec == targets
        assert (u.values == 0.0).all() and not np.signbit(u.values).any()

    def test_noncompact_source_rejected(self):
        spec = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        f = sample("1", spec)
        with pytest.raises(ValueError, match="compact"):
            newtonian_potential(FundamentalSolution(2), f, spec)

    def test_linearity_in_the_source(self):
        spec = GridSpec((-1.0, -1.0), 0.125, (17, 17))
        f = compact_poly_bump(spec, 0.5)
        g = compact_poly_bump(spec, 0.75, power=5)
        fs = FundamentalSolution(2)
        lhs = newtonian_potential(fs, GridFunction(spec, 2.0 * f.values - g.values), spec)
        rhs = 2.0 * newtonian_potential(fs, f, spec).values - newtonian_potential(
            fs, g, spec
        ).values
        assert np.allclose(lhs.values, rhs, rtol=0, atol=1e-13)

    def test_far_field_approaches_point_source(self):
        h = 1 / 16
        spec = GridSpec((-1.0, -1.0), h, (33, 33))
        f = compact_poly_bump(spec, 0.5)
        fs = FundamentalSolution(2)
        mass = h * h * f.values.sum()
        for d in (2.5, 5.0):
            target = GridSpec((d, 0.0), h, (1, 1))
            u = newtonian_potential(fs, f, target).values[0, 0]
            assert abs(u - mass * fs.radial(d)) <= 0.02 * abs(mass * fs.radial(d))

    def test_scaled_forward_laplacian_recovers_source(self):
        h = 1 / 16
        spec = GridSpec((-2.25, -2.25), h, (73, 73))
        f = compact_poly_bump(spec, 1.75)
        u = newtonian_potential(FundamentalSolution(2), f, spec)
        out = laplace_stencil(2, h, scaled=True).apply(u)
        expected = restrict(f, out.spec)
        rel = np.abs(out.values - expected.values).max() / np.abs(f.values).max()
        assert rel < 0.10

    def test_three_dimensional_potential_decays(self):
        h = 0.25
        spec = GridSpec((-1.0, -1.0, -1.0), h, (9, 9, 9))
        f = compact_poly_bump(spec, 0.6)
        fs = FundamentalSolution(3)
        mass = h**3 * f.values.sum()
        near = newtonian_potential(fs, f, GridSpec((2.0, 0.0, 0.0), h, (1, 1, 1))).values[0, 0]
        far = newtonian_potential(fs, f, GridSpec((8.0, 0.0, 0.0), h, (1, 1, 1))).values[0, 0]
        assert abs(far) < abs(near)
        assert near == pytest.approx(mass * fs.radial(2.0), rel=0.02)


def _target_points(spec):
    return np.stack([m.reshape(-1) for m in spec.meshes()], axis=1)


def _forbidden(*args, **kwargs):
    raise AssertionError("the potential took the wrong path for these targets")


def _pairwise_potential(
    fs: FundamentalSolution,
    source: GridFunction,
    points: np.ndarray,
    singular_subdivisions: int,
) -> np.ndarray:
    """The lattice sum at arbitrary target points, shape (m, n), pair by pair."""
    n = fs.dim
    h = source.spec.h
    keep = source.values != 0.0
    src_points = np.stack([m[keep] for m in source.spec.meshes()], axis=1)
    weights = source.values[keep]
    out = np.zeros(points.shape[0])
    self_value = fs.cell_average(h, singular_subdivisions)
    near_sq = (1e-9 * h) ** 2
    # About 2 MB per (block x sources) temporary, so each fits one core's L2 cache.
    chunk = max(1, int(250_000 // max(1, src_points.shape[0])))
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        diff = block[:, 0, None] - src_points[None, :, 0]
        d2 = diff * diff
        for a in range(1, n):
            diff = block[:, a, None] - src_points[None, :, a]
            d2 += diff * diff
        vals = _kernel_of_squared_distance(fs, d2)
        vals[d2 <= near_sq] = self_value
        out[start : start + chunk] = h**n * (vals @ weights)
    return out


SOURCE_2D = GridSpec((-1.0, -0.75), 0.125, (17, 13))
SOURCE_3D = GridSpec((-1.0, -1.0, -0.75), 0.25, (9, 9, 7))
SOURCE_4D = GridSpec((-1.0, -0.75, -1.0, -0.75), 0.25, (9, 7, 9, 7))

# source grid, target origin in cells from the source origin, target extents
ON_LATTICE = {
    "2d-inside": (SOURCE_2D, (3, 2), (9, 7)),
    "2d-overlapping": (SOURCE_2D, (10, -5), (12, 9)),
    "2d-outside": (SOURCE_2D, (-30, 20), (5, 11)),
    "2d-single-node": (SOURCE_2D, (8, 6), (1, 1)),
    "2d-prime-table": (SOURCE_2D, (-4, 7), (15, 19)),  # a 31 x 31 kernel table
    "3d-same-grid": (SOURCE_3D, (0, 0, 0), (9, 9, 7)),
    "3d-overlapping": (SOURCE_3D, (5, -3, 2), (6, 4, 7)),
    "3d-outside": (SOURCE_3D, (12, 0, -9), (3, 5, 2)),
    "3d-single-node": (SOURCE_3D, (4, 4, 3), (1, 1, 1)),
    "3d-prime-table": (SOURCE_3D, (2, -6, 1), (5, 3, 7)),  # a 13 x 11 x 13 kernel table
}


class TestPotentialPaths:
    @pytest.mark.parametrize("case", list(ON_LATTICE))
    def test_fft_matches_direct_sum(self, case, monkeypatch, forbid_indicator_transform):
        spec, cells, extents = ON_LATTICE[case]
        f = compact_poly_bump(spec, 0.6)
        fs = FundamentalSolution(spec.dim)
        origin = tuple(o + k * spec.h for o, k in zip(spec.origin, cells))
        targets = GridSpec(origin, spec.h, extents)
        reference = _pairwise_potential(fs, f, _target_points(targets), 8).reshape(extents)
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        if spec.dim == 3:
            # r^(2-n) has no zero, so every node meets the source and the mask needs no FFT
            forbid_indicator_transform()
        u = newtonian_potential(fs, f, targets).values
        assert np.abs(u).max() > 0.0
        assert np.abs(u - reference).max() <= 1e-13 * max(1.0, np.abs(u).max())

    @pytest.mark.parametrize(
        "targets",
        [
            GridSpec((-0.4375, -0.3125), 0.125, (6, 5)),  # half a cell off the lattice
            GridSpec((-0.5, -0.3), 0.1, (7, 6)),  # another spacing; two nodes coincide
        ],
        ids=["half-cell-offset", "other-spacing"],
    )
    def test_off_lattice_targets_take_the_direct_sum(self, targets, monkeypatch):
        f = compact_poly_bump(SOURCE_2D, 0.6)
        fs = FundamentalSolution(2)
        h = SOURCE_2D.h
        monkeypatch.setattr(elliptic, "_hockney_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        sources = _target_points(SOURCE_2D)
        weights = f.values.reshape(-1)
        expected = np.zeros(targets.extents)
        for index in np.ndindex(*targets.extents):
            r = np.linalg.norm(np.asarray(targets.node(index)) - sources, axis=1)
            near = r <= 1e-9 * h
            kernel = np.full(r.shape, fs.cell_average(h, 8))
            kernel[~near] = fs.radial(r[~near])
            expected[index] = h * h * np.dot(kernel, weights)
        assert np.abs(u - expected).max() <= 1e-13 * max(1.0, np.abs(u).max())


# source grid, single nonzero node (or None for the bump), target pitch,
# target origin in source cells (None: a random fraction of a cell on each
# axis, from the test's seed), target extents.  With the bump's 69 (2-D), 57
# (3-D) or 137 (4-D) nonzeros a block holds 3623, 4385 or 1824 targets: runs
# of whole leading rows when the last axis is shorter, which cross axis
# boundaries in "3d-split-axis-1" and the "leading-runs" cases, else runs of
# one last axis whose final run is ragged ("split-axis" 1 in 2-D, 2 in 3-D).
OFF_LATTICE = {
    "2d-other-pitch": (SOURCE_2D, None, 0.1, None, (23, 19)),
    "2d-half-pitch-coinciding": (SOURCE_2D, None, 0.0625, (2, 1), (31, 22)),
    "2d-extent-1-leading": (SOURCE_2D, None, 0.1, None, (1, 40)),
    "2d-extent-1-trailing": (SOURCE_2D, None, 0.0625, (4, 3), (40, 1)),
    "2d-split-axis-1": (SOURCE_2D, None, 0.0005, None, (2, 4000)),
    "2d-single-nonzero": (SOURCE_2D, (5, 4), 0.0625, (3, 2), (17, 13)),
    "3d-other-pitch": (SOURCE_3D, None, 0.2, None, (11, 9, 8)),
    "3d-half-pitch-coinciding": (SOURCE_3D, None, 0.125, (1, 2, 1), (12, 10, 9)),
    "3d-extent-1-axes": (SOURCE_3D, None, 0.2, None, (5, 1, 7)),
    "3d-extent-1-leading-axes": (SOURCE_3D, None, 0.125, (4, 4, 0), (1, 1, 12)),
    "3d-split-axis-1": (SOURCE_3D, None, 0.03, None, (2, 70, 70)),
    "3d-split-axis-2": (SOURCE_3D, None, 0.125, (4, 3, 0), (1, 2, 5000)),
    "3d-single-nonzero": (SOURCE_3D, (4, 4, 3), 0.125, (3, 3, 2), (6, 7, 5)),
    "3d-leading-runs-cross-axis-1": (SOURCE_3D, None, 0.02, None, (40, 37, 130)),
    "3d-ragged-last-runs": (SOURCE_3D, None, 0.0003, None, (2, 3, 9000)),
    "4d-leading-runs-cross-axes": (SOURCE_4D, None, 0.1, None, (4, 5, 6, 70)),
}


class TestDirectSumMatchesPairwise:
    """The per-axis table sum against the pairwise reference it replaced."""

    @pytest.mark.parametrize("case", list(OFF_LATTICE))
    def test_table_sum_matches_pairwise_sum(self, case, monkeypatch):
        spec, single, pitch, cells, extents = OFF_LATTICE[case]
        if single is None:
            f = compact_poly_bump(spec, 0.6)
        else:
            values = np.zeros(spec.extents)
            values[single] = 2.5
            f = GridFunction(spec, values)
        if cells is None:
            cells = np.random.default_rng(sum(map(ord, case))).uniform(0.0, 1.0, spec.dim)
        origin = tuple(o + k * spec.h for o, k in zip(spec.origin, cells))
        targets = GridSpec(origin, pitch, extents)
        fs = FundamentalSolution(spec.dim)
        reference = _pairwise_potential(fs, f, _target_points(targets), 8).reshape(extents)
        monkeypatch.setattr(elliptic, "_hockney_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        assert np.abs(u).max() > 0.0
        assert np.abs(u - reference).max() <= 1e-13 * max(1.0, np.abs(u).max())

    def test_peak_memory_is_within_the_pairwise_peak(self, monkeypatch, traced_peak):
        f = compact_poly_bump(SOURCE_3D, 0.6)
        fs = FundamentalSolution(3)
        targets = GridSpec((-1.3, -1.2, -1.1), 0.04, (64, 64, 64))
        monkeypatch.setattr(elliptic, "_hockney_potential", _forbidden)
        direct = traced_peak(lambda: newtonian_potential(fs, f, targets))
        pairwise = traced_peak(lambda: _pairwise_potential(fs, f, _target_points(targets), 8))
        assert direct <= 1.25 * pairwise


def _centre_and_radius(f: GridFunction):
    """The nonzero nodes' bounding-box centre and their largest distance from it."""
    points = np.stack([m[f.values != 0.0] for m in f.spec.meshes()], axis=1)
    centre = (points.min(axis=0) + points.max(axis=0)) / 2
    return centre, float(np.linalg.norm(points - centre, axis=1).max())


def _far_targets(f, side, rho, pitch, extents, shift=0.0):
    """Targets on one side of ``f``'s nonzeros whose nearest node is ``R / rho`` from the centre.

    ``side`` is the unit direction from the centre to the nearest node, which is
    a corner (or edge node) of the target grid; ``shift`` moves that node along
    the grid's edge, away from the axis through the centre, by cells.
    """
    centre, radius = _centre_and_radius(f)
    near = centre + np.asarray(side) * (radius / rho)
    origin = [
        c if s > 0 else c - (e - 1) * pitch if s < 0 else c + shift * pitch
        for c, s, e in zip(near, side, extents)
    ]
    return GridSpec(tuple(origin), pitch, extents)


# side, rho at the nearest node, target pitch (None: the source's), extents
FAR_FIELD = {
    "east-rho-0.05": ((1, 0), 0.05, 0.1, (9, 11)),
    "west-rho-0.2": ((-1, 0), 0.2, 0.0913, (12, 7)),
    "north-rho-0.35": ((0, 1), 0.35, 0.0703125, (10, 13)),
    "south-rho-0.5": ((0, -1), 0.5, 0.1, (11, 8)),
    "east-same-pitch-rho-0.3": ((1, 0), 0.3, None, (14, 9)),
    "north-same-pitch-rho-0.45": ((0, 1), 0.45, None, (6, 15)),
    "west-1xN-rho-0.25": ((-1, 0), 0.25, 0.06, (1, 40)),
    "south-Nx1-rho-0.4": ((0, -1), 0.4, 0.06, (40, 1)),
}


class TestMultipoleFarField:
    """The plane far-field expansion against the pairwise sum, with the direct sum patched to fail."""

    @pytest.mark.parametrize("case", list(FAR_FIELD))
    def test_matches_pairwise_sum(self, case, monkeypatch):
        side, rho, pitch, extents = FAR_FIELD[case]
        f = compact_poly_bump(SOURCE_2D, 0.6)
        targets = _far_targets(f, side, rho, pitch or SOURCE_2D.h, extents, shift=0.37)
        fs = FundamentalSolution(2)
        reference = _pairwise_potential(fs, f, _target_points(targets), 8).reshape(extents)
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        monkeypatch.setattr(elliptic, "_hockney_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        assert np.abs(u).max() > 0.0
        assert np.abs(u - reference).max() <= 1e-13 * max(1.0, np.abs(u).max())

    @pytest.mark.parametrize("side", [(1, 0), (0, -1)], ids=["east", "south"])
    def test_sign_changing_source(self, side, monkeypatch):
        """``bump * x1`` nearly cancels, so the bound is relative to the largest term.

        Each pair contributes at most ``h^2 |f| max|K|``, so the sum's roundoff
        is bounded by ``1e-13 * h^2 * sum|f| * max|K|``, with ``max|K|`` the
        kernel's largest magnitude over the pairs.
        """
        bump = compact_poly_bump(SOURCE_2D, 0.6)
        f = GridFunction(SOURCE_2D, bump.values * SOURCE_2D.meshes()[0])
        targets = _far_targets(f, side, 0.45, 0.1, (9, 8))
        fs = FundamentalSolution(2)
        points = _target_points(targets)
        sources = np.stack([m[f.values != 0.0] for m in SOURCE_2D.meshes()], axis=1)
        distances = np.linalg.norm(points[:, None, :] - sources[None, :, :], axis=2)
        largest_term = SOURCE_2D.h**2 * np.abs(f.values).sum() * np.abs(fs.radial(distances)).max()
        reference = _pairwise_potential(fs, f, points, 8).reshape(targets.extents)
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        assert np.abs(u - reference).max() <= 1e-13 * largest_term
        assert np.abs(u).max() > 1e-6 * largest_term  # the dipole does not cancel

    def test_just_inside_half_takes_the_expansion(self, monkeypatch):
        f = compact_poly_bump(SOURCE_2D, 0.6)
        targets = _far_targets(f, (1, 0), 0.4999, 0.1, (5, 6))
        centre, radius = _centre_and_radius(f)
        assert 0.4998 < radius / math.dist(targets.origin, centre) < 0.5
        fs = FundamentalSolution(2)
        reference = _pairwise_potential(fs, f, _target_points(targets), 8).reshape(targets.extents)
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        assert np.abs(u - reference).max() <= 1e-13 * max(1.0, np.abs(u).max())

    def test_just_outside_half_takes_the_direct_sum(self, monkeypatch):
        f = compact_poly_bump(SOURCE_2D, 0.6)
        targets = _far_targets(f, (1, 0), 0.5001, 0.1, (5, 6))
        monkeypatch.setattr(elliptic, "_multipole_potential", _forbidden)
        u = newtonian_potential(FundamentalSolution(2), f, targets).values
        assert np.isfinite(u).all()

    def test_three_dimensional_far_targets_take_the_direct_sum(self, monkeypatch):
        f = compact_poly_bump(SOURCE_3D, 0.6)
        targets = GridSpec((20.0, -3.0, 1.0), 0.2, (4, 3, 5))
        fs = FundamentalSolution(3)
        reference = _pairwise_potential(fs, f, _target_points(targets), 8).reshape(targets.extents)
        monkeypatch.setattr(elliptic, "_multipole_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        assert np.abs(u - reference).max() <= 1e-13 * max(1.0, np.abs(u).max())

    @pytest.mark.parametrize("origin", [(0.3, 0.2), (-2.0, 5.5), (40.0, -7.0)])
    def test_single_source_is_the_kernel(self, origin, monkeypatch):
        values = np.zeros(SOURCE_2D.extents)
        values[5, 4] = 2.5
        f = GridFunction(SOURCE_2D, values)
        source = np.asarray(SOURCE_2D.node((5, 4)))
        targets = GridSpec(origin, 0.1, (6, 7))
        fs = FundamentalSolution(2)
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        u = newtonian_potential(fs, f, targets).values
        expected = np.array(
            [SOURCE_2D.h**2 * 2.5 * fs.evaluate(np.asarray(targets.node(i)) - source)
             for i in np.ndindex(*targets.extents)]
        ).reshape(targets.extents)
        assert np.abs(u - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("rho", [0.5, 0.3, 0.05, 1e-17])
    def test_term_count_is_the_smallest_that_meets_the_bound(self, rho):
        """p is the smallest count with ``rho^(p+1) / (1 - rho) <= 2^-53``: 53 at rho = 1/2."""
        f = compact_poly_bump(SOURCE_2D, 0.6)
        centre, radius = _centre_and_radius(f)
        targets = GridSpec((centre[0] + radius / rho, centre[1]), 0.1, (3, 4))
        *_, terms = elliptic._separated_sources(f, targets)
        measured = radius / (targets.origin[0] - centre[0])
        assert measured**(terms + 1) / (1.0 - measured) <= 2.0**-53
        assert terms == 0 or measured**terms / (1.0 - measured) > 2.0**-53
        if rho == 0.5:
            assert measured == 0.5 and terms == 53

    def test_zero_source_takes_the_direct_sum(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_multipole_potential", _forbidden)
        zero = GridFunction(SOURCE_2D, np.zeros(SOURCE_2D.extents))
        u = newtonian_potential(FundamentalSolution(2), zero, GridSpec((30.0, 0.5), 0.1, (3, 4)))
        assert (u.values == 0.0).all() and not np.signbit(u.values).any()

    def test_a_target_within_h_of_a_single_source_takes_the_direct_sum(self, monkeypatch):
        values = np.zeros(SOURCE_2D.extents)
        values[5, 4] = 2.5
        f = GridFunction(SOURCE_2D, values)
        x1, x2 = SOURCE_2D.node((5, 4))
        monkeypatch.setattr(elliptic, "_multipole_potential", _forbidden)
        u = newtonian_potential(FundamentalSolution(2), f, GridSpec((x1 + 0.1, x2), 0.1, (3, 3)))
        assert np.isfinite(u.values).all()


class TestTargetsPastTheSquareRange:
    """Targets whose squared distance from the sources overflows.

    Far from the source the potential is the point source's, ``h^n sum f K(t - c)``,
    to within rounding.
    """

    @staticmethod
    def _check(fs, f, targets, nearby=()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                u = newtonian_potential(fs, f, targets).values
        centre, _ = _centre_and_radius(f)
        mass = f.spec.h**fs.dim * f.values.sum()
        for index in np.ndindex(*targets.extents):
            point = np.asarray(targets.node(index))
            if index in nearby:
                # the same node on its own, where no difference is scaled
                alone = newtonian_potential(fs, f, GridSpec(tuple(point), targets.h, (1,) * fs.dim))
                expected = alone.values.item()
            else:
                expected = mass * fs.evaluate(point - centre)
            assert u[index] == pytest.approx(expected, rel=1e-12, abs=0.0)
        return u

    def test_three_dimensional(self):
        f = compact_poly_bump(SOURCE_3D, 0.6)
        self._check(FundamentalSolution(3), f, GridSpec((1e160, 0.0, 0.0), 0.2, (3, 2, 4)))

    def test_plane_grid_with_one_node_near_the_source(self, monkeypatch):
        f = compact_poly_bump(SOURCE_2D, 0.6)
        monkeypatch.setattr(elliptic, "_multipole_potential", _forbidden)
        self._check(FundamentalSolution(2), f, GridSpec((0.3, 0.1), 1e160, (2, 3)), nearby=[(0, 0)])

    def test_three_dimensional_grid_with_one_node_near_the_source(self):
        f = compact_poly_bump(SOURCE_3D, 0.6)
        targets = GridSpec((0.3, 0.1, -0.2), 1e160, (2, 2, 2))
        self._check(FundamentalSolution(3), f, targets, nearby=[(0, 0, 0)])

    def test_plane_far_targets_take_the_expansion(self, monkeypatch):
        f = compact_poly_bump(SOURCE_2D, 0.6)
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        self._check(FundamentalSolution(2), f, GridSpec((1e160, 0.0), 0.2, (3, 4)))

    @pytest.mark.parametrize("x", [1e19, 1e160, 1e300], ids=["1e19", "1e160", "1e300"])
    @pytest.mark.parametrize("source", [SOURCE_2D, SOURCE_3D], ids=["2d", "3d"])
    def test_same_pitch_targets_take_the_fft(self, source, x, monkeypatch):
        """Whole-cell offsets past 2^63 cells, and squared distances that overflow.

        The reference is the direct sum, reached by taking the targets off the lattice.
        """
        f = compact_poly_bump(source, 0.6)
        fs = FundamentalSolution(source.dim)
        targets = GridSpec((x,) + (0.0,) * (source.dim - 1), source.h, (3,) * source.dim)
        with monkeypatch.context() as m:
            m.setattr(elliptic, "_lattice_offset", lambda *args: None)
            m.setattr(elliptic, "_separated_sources", lambda *args: None)
            reference = newtonian_potential(fs, f, targets).values
        monkeypatch.setattr(elliptic, "_direct_potential", _forbidden)
        monkeypatch.setattr(elliptic, "_multipole_potential", _forbidden)
        u = self._check(fs, f, targets)
        assert np.abs(u - reference).max() <= 1e-13 * np.abs(u).max()


class TestLaplaceSolver:
    def test_bilinear_boundary_is_discretely_exact(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        exact = sample("x1*x2", spec)
        report = solve_laplace_dirichlet(zero_interior(exact))
        assert report.converged
        assert np.abs(report.solution.values - exact.values).max() <= 1e-9

    def test_constant_boundary_gives_constant(self):
        spec = GridSpec((0.0, 0.0), 1 / 8, (9, 9))
        g = GridFunction(spec, np.full((9, 9), 7.0))
        report = solve_laplace_dirichlet(zero_interior(g))
        assert report.converged
        assert np.abs(report.solution.values - 7.0).max() <= 1e-9

    def test_boundary_ring_held_exactly(self):
        spec = GridSpec((0.0, 0.0), 1 / 8, (9, 9))
        g = sample("exp(x1)*sin(x2)", spec)
        report = solve_laplace_dirichlet(zero_interior(g))
        assert np.array_equal(report.solution.values[0, :], g.values[0, :])
        assert np.array_equal(report.solution.values[:, -1], g.values[:, -1])

    def test_second_order_convergence(self):
        errors = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            n = round(1.0 / h) + 1
            spec = GridSpec((0.0, 0.0), h, (n, n))
            exact = sample("exp(x1)*sin(x2)", spec)
            report = solve_laplace_dirichlet(zero_interior(exact))
            assert report.converged
            errors.append(np.abs(report.solution.values - exact.values).max())
        for e0, e1 in zip(errors, errors[1:]):
            assert 3.4 <= e0 / e1 <= 4.6

    def test_superposition(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        g1 = sample("x1*x2", spec)
        g2 = sample("x1^2 - x2^2", spec)
        tol = 1e-11
        u1 = solve_laplace_dirichlet(zero_interior(g1), tol=tol).solution.values
        u2 = solve_laplace_dirichlet(zero_interior(g2), tol=tol).solution.values
        combined = GridFunction(spec, g1.values + g2.values)
        u12 = solve_laplace_dirichlet(zero_interior(combined), tol=tol).solution.values
        assert np.abs(u12 - (u1 + u2)).max() <= 2e-7  # residual-to-error amplification

    def test_interior_stays_within_boundary_range(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        g = sample("exp(x1)*sin(x2)", spec)
        report = solve_laplace_dirichlet(zero_interior(g))
        passed, witness = max_principle_check(report.solution)
        assert passed and witness is None

    def test_non_convergence_reported_not_raised(self):
        spec = GridSpec((0.0, 0.0), 1 / 32, (33, 33))
        g = sample("exp(x1)*sin(x2)", spec)
        report = solve_laplace_dirichlet(zero_interior(g), tol=1e-12, max_iter=3)
        assert not report.converged
        assert report.iterations == 3
        assert report.final_residual > 1e-12

    def test_small_grid_rejected(self):
        spec = GridSpec((0.0, 0.0), 0.5, (2, 3))
        with pytest.raises(ValueError, match="3 nodes"):
            solve_laplace_dirichlet(GridFunction(spec, np.zeros((2, 3))))

    def test_peak_memory_per_node_at_257(self, traced_peak):
        u = sample("x1*x2", GridSpec((0.0, 0.0), 1 / 256, (257, 257)))
        # measured 42.1 B (numpy 2.4), plus 4 B: half of one more array of doubles
        assert traced_peak(lambda: solve_laplace_dirichlet(u)) / u.spec.node_count <= 46


class TestPoissonSolver:
    def test_quadratic_source_is_discretely_exact(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        exact = sample("(x1^2 + x2^2)/4", spec)
        f = sample("1", spec)
        report = solve_poisson_dirichlet(f, zero_interior(exact))
        assert report.converged
        assert np.abs(report.solution.values - exact.values).max() <= 1e-9

    def test_zero_source_reduces_to_laplace_bitwise(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        g = zero_interior(sample("exp(x1)*sin(x2)", spec))
        h = spec.h
        tol = 1e-10
        lap = solve_laplace_dirichlet(g, tol=tol)
        poi = solve_poisson_dirichlet(
            GridFunction(spec, np.zeros(spec.extents)), g, tol=tol / (h * h)
        )
        assert poi.iterations == lap.iterations
        assert np.array_equal(poi.solution.values, lap.solution.values)

    def test_second_order_convergence(self):
        errors = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            n = round(1.0 / h) + 1
            spec = GridSpec((0.0, 0.0), h, (n, n))
            exact = sample("sin(x1)*sin(x2)", spec)
            f = sample("-2*sin(x1)*sin(x2)", spec)
            report = solve_poisson_dirichlet(f, zero_interior(exact))
            assert report.converged
            errors.append(np.abs(report.solution.values - exact.values).max())
        for e0, e1 in zip(errors, errors[1:]):
            assert 3.4 <= e0 / e1 <= 4.6

    def test_mismatched_specs_rejected(self):
        g = GridFunction(GridSpec((0.0, 0.0), 0.5, (5, 5)), np.zeros((5, 5)))
        f = GridFunction(GridSpec((0.0, 0.0), 0.25, (5, 5)), np.zeros((5, 5)))
        with pytest.raises(ValueError):
            solve_poisson_dirichlet(f, g)

    def test_minimum_principle_for_nonpositive_source(self):
        # With the sign convention (centered sum)/h^2 = f, a source f <= 0
        # makes the solution superharmonic: the interior stays above min g.
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        g = sample("x1*x2", spec)
        f = sample("-1", spec)
        report = solve_poisson_dirichlet(f, zero_interior(g))
        assert report.converged
        boundary_min = min(
            g.values[0, :].min(), g.values[-1, :].min(),
            g.values[:, 0].min(), g.values[:, -1].min(),
        )
        assert report.solution.values[1:-1, 1:-1].min() >= boundary_min - 1e-9


def _masked_neighbor_sum(u):
    n = u.ndim
    s = np.zeros(tuple(e - 2 for e in u.shape))
    for a in range(n):
        up = [slice(1, -1)] * n
        dn = [slice(1, -1)] * n
        up[a] = slice(2, None)
        dn[a] = slice(None, -2)
        s += u[tuple(up)] + u[tuple(dn)]
    return s


def _masked_sor_reference(boundary, rhs_values, tol, max_iter, residual_scale):
    """Red-black SOR as full-grid neighbour sums gathered through boolean colour masks.

    This is the sweep the strided solver replaced; it returns
    ``(values, iterations, final_residual, converged)``.
    """
    spec = boundary.spec
    n = spec.dim
    h = spec.h
    u = boundary.values.copy()
    interior = tuple(slice(1, -1) for _ in range(n))
    b_int = (
        np.zeros(tuple(e - 2 for e in spec.extents))
        if rhs_values is None
        else (h * h) * rhs_values[interior]
    )
    parity = np.indices(tuple(e - 2 for e in spec.extents)).sum(axis=0) % 2
    colors = (parity == 0, parity == 1)
    length = max((e - 1) * h for e in spec.extents)
    omega = 2.0 / (1.0 + math.sin(math.pi * h / length))
    two_n = 2.0 * n

    iterations = 0
    best = math.inf
    for iterations in range(1, max_iter + 1):
        for color in colors:
            target = (_masked_neighbor_sum(u) - b_int) / two_n
            ui = u[interior]
            ui[color] = (1.0 - omega) * ui[color] + omega * target[color]
        res = _masked_neighbor_sum(u) - two_n * u[interior] - b_int
        best = float(np.abs(res).max()) * residual_scale
        if best <= tol:
            break
    return u, iterations, best, best <= tol


SWEEP_EXTENTS = [
    (3, 3), (5, 8), (9, 9), (4, 17), (3, 3, 3), (4, 5, 6), (9, 9, 9),
    (7,), (6, 6), (4, 4, 4), (3, 4, 3, 4),
]


class TestSweepMatchesMaskedReference:
    """The strided sweep reproduces the masked sweep bit for bit, signs of zero included."""

    @pytest.mark.parametrize("extents", SWEEP_EXTENTS, ids=lambda e: "x".join(map(str, e)))
    @pytest.mark.parametrize("ring", ["random", "negative-zero"])
    @pytest.mark.parametrize("rhs", [False, True], ids=["laplace", "poisson"])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100_000])
    def test_bitwise_identical(self, extents, ring, rhs, max_iter):
        rng = np.random.default_rng(sum(extents) + 100 * len(extents))
        spec = GridSpec((0.0,) * len(extents), 1 / 8, extents)
        interior = tuple(slice(1, -1) for _ in extents)
        if ring == "random":
            values = rng.standard_normal(extents)
            values[rng.random(extents) < 0.2] = -0.0
            values[interior] = 0.0
        else:
            # -0.0 everywhere but on the red interior nodes: the masked sweep
            # sums a red node's neighbours to +0.0, and with omega > 1 the
            # relaxed +0.0 keeps its sign only if the neighbour sum has it.
            values = np.full(extents, -0.0)
            inner = values[interior]
            inner[np.indices(inner.shape).sum(axis=0) % 2 == 0] = 0.0
        boundary = GridFunction(spec, values)
        tol = 1e-10
        if rhs:
            f = GridFunction(spec, rng.standard_normal(extents))
            report = solve_poisson_dirichlet(f, boundary, tol=tol, max_iter=max_iter)
            expected = _masked_sor_reference(
                boundary, f.values, tol, max_iter, 1.0 / (spec.h * spec.h)
            )
        else:
            report = solve_laplace_dirichlet(boundary, tol=tol, max_iter=max_iter)
            expected = _masked_sor_reference(boundary, None, tol, max_iter, 1.0)
        values, iterations, final_residual, converged = expected
        got = report.solution.values
        assert np.array_equal(got, values)
        assert np.array_equal(np.signbit(got), np.signbit(values))
        assert report.iterations == iterations
        assert report.final_residual == final_residual
        assert report.converged == converged
        if max_iter == 100_000:
            assert converged

    def test_ring_sums_may_overflow(self):
        # Ring node (2, 0) of a color view sums its two face neighbours and
        # (1, 4) past the row end to more than the largest double; no
        # interior neighbour sum overflows.
        spec = GridSpec((0.0, 0.0), 0.25, (5, 5))
        values = np.zeros((5, 5))
        values[:, 0] = values[:, -1] = 6e307
        boundary = GridFunction(spec, values)
        with np.errstate(all="raise"):
            report = solve_laplace_dirichlet(boundary, tol=1e308, max_iter=1)
            expected = _masked_sor_reference(boundary, None, 1e308, 1, 1.0)
        values, iterations, final_residual, converged = expected
        assert np.array_equal(report.solution.values, values)
        assert (report.iterations, report.final_residual, report.converged) == (
            iterations, final_residual, converged
        )
        assert converged

    def test_interior_overflow_raises_without_a_warning(self):
        spec = GridSpec((0.0, 0.0), 0.25, (5, 5))
        boundary = zero_interior(GridFunction(spec, np.full((5, 5), 1e308)))
        with warnings.catch_warnings(), np.errstate(
            divide="warn", over="warn", invalid="warn", under="ignore"
        ):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="^SOR sweep overflows at iteration 1$"):
                solve_laplace_dirichlet(boundary, tol=1e-10, max_iter=10)


def _padded_length(extents):
    return extents[0] * math.prod(e | 1 for e in extents[1:])


# Padded flat lengths both odd and even, and colours with many ring and pad
# entries between their interior nodes.
HALVES_EXTENTS = [(33, 17), (32, 17), (9, 5, 7), (8, 5, 7), (10, 6, 8), (33,), (32,)]


class TestContiguousHalvesMatchMaskedReference:
    """The sweep on contiguous colour halves reproduces the masked sweep bit for bit."""

    def test_cases_cover_both_parities(self):
        parities = {_padded_length(e) % 2 for e in HALVES_EXTENTS if len(e) > 1}
        assert parities == {0, 1}

    @pytest.mark.parametrize("extents", HALVES_EXTENTS, ids=lambda e: "x".join(map(str, e)))
    @pytest.mark.parametrize("rhs", [False, True], ids=["laplace", "poisson"])
    @pytest.mark.parametrize("max_iter", [1, 7, 100_000])
    def test_bitwise_identical_and_ring_kept(self, extents, rhs, max_iter):
        rng = np.random.default_rng(7 * sum(extents) + len(extents))
        spec = GridSpec((0.0,) * len(extents), 1 / 16, extents)
        # a nonzero initial guess, and -0.0 on ring and interior nodes alike
        values = rng.standard_normal(extents)
        values[rng.random(extents) < 0.25] = -0.0
        boundary = GridFunction(spec, values)
        tol = 1e-9
        if rhs:
            f = GridFunction(spec, rng.standard_normal(extents))
            report = solve_poisson_dirichlet(f, boundary, tol=tol, max_iter=max_iter)
            expected = _masked_sor_reference(
                boundary, f.values, tol, max_iter, 1.0 / (spec.h * spec.h)
            )
        else:
            report = solve_laplace_dirichlet(boundary, tol=tol, max_iter=max_iter)
            expected = _masked_sor_reference(boundary, None, tol, max_iter, 1.0)
        expected_values, iterations, final_residual, converged = expected
        got = report.solution.values
        assert np.array_equal(got, expected_values)
        assert np.array_equal(np.signbit(got), np.signbit(expected_values))
        ring = elliptic._boundary_mask(extents)
        assert np.array_equal(got[ring].view(np.uint64), values[ring].view(np.uint64))
        assert (report.iterations, report.final_residual, report.converged) == (
            iterations, final_residual, converged
        )
        assert converged == (max_iter == 100_000)


def _ring_problem(extents, ring):
    """The boundary and Poisson right-hand side of one TestSweepMatchesMaskedReference case."""
    rng = np.random.default_rng(sum(extents) + 100 * len(extents))
    spec = GridSpec((0.0,) * len(extents), 1 / 8, extents)
    interior = tuple(slice(1, -1) for _ in extents)
    if ring == "random":
        values = rng.standard_normal(extents)
        values[rng.random(extents) < 0.2] = -0.0
        values[interior] = 0.0
    else:
        values = np.full(extents, -0.0)
        inner = values[interior]
        inner[np.indices(inner.shape).sum(axis=0) % 2 == 0] = 0.0
    return GridFunction(spec, values), GridFunction(spec, rng.standard_normal(extents))


def _solve(boundary, f, tol, max_iter):
    if f is None:
        return solve_laplace_dirichlet(boundary, tol=tol, max_iter=max_iter)
    return solve_poisson_dirichlet(f, boundary, tol=tol, max_iter=max_iter)


def _never_skip(monkeypatch):
    """Make the screen's probe report a zero residual, so every sweep takes the full residual."""
    monkeypatch.setattr(elliptic._Color, "window_residual", lambda self, two_n: 0.0)


def _count_full_residuals(monkeypatch):
    """Count the calls of the full residual, one per color of each sweep that takes it."""
    calls = []
    full = elliptic._Color.residual

    def counted(self, two_n):
        calls.append(1)
        return full(self, two_n)

    monkeypatch.setattr(elliptic._Color, "residual", counted)
    return calls


def _assert_same_solve(report, values, iterations, final_residual, converged):
    got = report.solution.values
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
    assert (report.iterations, report.final_residual, report.converged) == (
        iterations, final_residual, converged
    )


def _cold_box(n):
    """exp(x1) sin(x2) on the ring of the unit square at n^2 nodes, zero inside."""
    return zero_interior(sample("exp(x1)*sin(x2)", GridSpec((0.0, 0.0), 1 / (n - 1), (n, n))))


# Grids whose black window is a strict part of the color, with ring and pad
# entries inside it from two dimensions on.
WINDOWED_EXTENTS = [(601,), (40, 37), (13, 12, 11), (7, 6, 7, 6)]


class TestScreenedConvergenceCheck:
    """Skipping the full residual where a window of it is above the tolerance changes no bit."""

    @pytest.mark.parametrize(
        "extents", SWEEP_EXTENTS + WINDOWED_EXTENTS, ids=lambda e: "x".join(map(str, e))
    )
    @pytest.mark.parametrize("ring", ["random", "negative-zero"])
    @pytest.mark.parametrize("rhs", [False, True], ids=["laplace", "poisson"])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 37, 100_000])
    def test_same_solve_as_the_full_residual_on_every_sweep(
        self, extents, ring, rhs, max_iter, monkeypatch
    ):
        boundary, f = _ring_problem(extents, ring)
        f = f if rhs else None
        screened = _solve(boundary, f, 1e-10, max_iter)
        _never_skip(monkeypatch)
        full = _solve(boundary, f, 1e-10, max_iter)
        _assert_same_solve(
            screened, full.solution.values, full.iterations, full.final_residual, full.converged
        )

    @pytest.mark.parametrize("extents", WINDOWED_EXTENTS, ids=lambda e: "x".join(map(str, e)))
    def test_windowed_cases_probe_part_of_black(self, extents, monkeypatch):
        colors = []

        class Recorded(elliptic._Color):
            def __init__(self, *args):
                super().__init__(*args)
                colors.append(self)

        monkeypatch.setattr(elliptic, "_Color", Recorded)
        boundary, _ = _ring_problem(extents, "random")
        solve_laplace_dirichlet(boundary, max_iter=1)
        black = colors[1]
        assert 0 < black.window.start < black.window.stop < len(black.u)
        assert (len(black.window_outside) > 0) == (len(extents) > 1)

    def test_cold_box_matches_reference_with_few_full_residuals(self, monkeypatch):
        boundary = _cold_box(129)
        calls = _count_full_residuals(monkeypatch)
        report = solve_laplace_dirichlet(boundary)
        _assert_same_solve(report, *_masked_sor_reference(boundary, None, 1e-10, 100_000, 1.0))
        assert report.converged and report.iterations > 400
        # two calls per sweep that takes the full residual: at most 2% of sweeps take it
        assert 0 < len(calls) <= 2 * 0.02 * report.iterations

    def test_window_is_a_lower_bound_inside_the_color(self, monkeypatch):
        windows = []

        class Recorded(elliptic._Color):
            def window_residual(self, two_n):
                windows.append((super().window_residual(two_n), self.residual(two_n)))
                return windows[-1][0]

        monkeypatch.setattr(elliptic, "_Color", Recorded)
        solve_laplace_dirichlet(_cold_box(65), max_iter=40)
        assert len(windows) == 39
        assert all(0.0 < part <= whole for part, whole in windows)


class TestOverflowCertificate:
    """Values past the certificate's bound take the full residual on every sweep."""

    @pytest.mark.parametrize(
        "extents", [(9, 9), (33, 17), (5, 6, 7)], ids=lambda e: "x".join(map(str, e))
    )
    @pytest.mark.parametrize(
        "ring, source, certified",
        [(1e240, 0.0, True), (1e250, 0.0, False), (1e300, 0.0, False), (1.0, 1e245, False)],
        ids=["ring-1e240", "ring-1e250", "ring-1e300", "rhs-1e245"],
    )
    @pytest.mark.parametrize("max_iter", [1, 37, 70])
    def test_large_values_match_reference(
        self, extents, ring, source, certified, max_iter, monkeypatch
    ):
        rng = np.random.default_rng(len(extents) + max_iter)
        spec = GridSpec((0.0,) * len(extents), 1 / 8, extents)
        boundary = zero_interior(GridFunction(spec, ring * rng.uniform(0.5, 1.0, extents)))
        f = GridFunction(spec, source * rng.uniform(-1.0, 1.0, extents)) if source else None
        if f is not None:
            # h^2 f, the right-hand side the sweep relaxes with, is past the bound
            assert np.abs(spec.h**2 * f.values).max() > elliptic._GUARD_BOUND
        calls = _count_full_residuals(monkeypatch)
        report = _solve(boundary, f, 1e-10, max_iter)
        if f is None:
            expected = _masked_sor_reference(boundary, None, 1e-10, max_iter, 1.0)
        else:
            expected = _masked_sor_reference(boundary, f.values, 1e-10, max_iter, 1 / spec.h**2)
        _assert_same_solve(report, *expected)
        assert not report.converged
        assert (len(calls) < 2 * max_iter) == (certified and max_iter > 1)

    def test_overflow_after_the_first_sweep_names_the_same_iteration(self, monkeypatch):
        # The interior fills up towards the ring's value, and four times it
        # is past the largest double.
        spec = GridSpec((0.0, 0.0), 1 / 8, (9, 9))
        boundary = zero_interior(GridFunction(spec, np.full((9, 9), 4.5e307)))
        messages = []
        for patch in (lambda _: None, _never_skip):
            patch(monkeypatch)
            with pytest.raises(OverflowError) as err:
                solve_laplace_dirichlet(boundary, tol=1e-10, max_iter=100)
            messages.append(str(err.value))
        assert messages == ["SOR sweep overflows at iteration 9"] * 2


class TestReciprocalMultiply:
    """``x * (1 / 2n)`` has the bits of ``x / 2n`` when 2n is a power of two."""

    BITS = st.one_of(
        st.integers(0, 2**64 - 1),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(
            lambda x: int(np.float64(x).view(np.uint64))
        ),
    )

    @pytest.mark.parametrize("two_n", [2.0, 4.0, 8.0, 16.0])
    @given(bits=BITS)
    @example(bits=0)
    @example(bits=2**63)  # -0.0
    @example(bits=1)  # the smallest subnormal
    @example(bits=2**63 + 7)
    @example(bits=0x7FF0000000000000)  # inf
    @example(bits=0xFFF0000000000000)  # -inf
    @example(bits=0x7FF0000000000001)  # a signalling NaN
    def test_same_bits_as_division(self, two_n, bits):
        x = np.array([bits], dtype=np.uint64).view(np.float64)
        assert math.frexp(two_n)[0] == 0.5
        with np.errstate(all="ignore"):
            product = np.multiply(x, np.array(1.0 / two_n))
            quotient = np.divide(x, np.array(two_n))
        assert product.view(np.uint64)[0] == quotient.view(np.uint64)[0]

    def test_six_is_not_a_power_of_two(self):
        x = np.array(5.0)
        assert math.frexp(6.0)[0] != 0.5
        assert x * (1.0 / 6.0) != x / 6.0


class TestSweepArraysAligned:
    """Every working array of the sweep starts on a cache line, whatever malloc returned."""

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 129, 33025])
    def test_aligned_empty(self, count):
        for _ in range(8):
            a = elliptic._aligned_empty(count)
            assert a.shape == (count,) and a.dtype == np.float64
            assert a.ctypes.data % elliptic._ALIGN == 0

    @pytest.mark.parametrize("extents", HALVES_EXTENTS, ids=lambda e: "x".join(map(str, e)))
    def test_halves_and_scratch(self, extents, monkeypatch):
        colors = []

        class Recorded(elliptic._Color):
            def __init__(self, halves, *args):
                super().__init__(halves, *args)
                colors.append((halves, self))

        monkeypatch.setattr(elliptic, "_Color", Recorded)
        spec = GridSpec((0.0,) * len(extents), 1 / 16, extents)
        f = GridFunction(spec, np.ones(extents))
        solve_poisson_dirichlet(f, GridFunction(spec, np.zeros(extents)), max_iter=3)
        assert len(colors) == 2
        for halves, color in colors:
            for a in (*halves, color.b, color.ns, color.tmp):
                assert a.ctypes.data % elliptic._ALIGN == 0


class TestBiharmonicSolver:
    def test_quadratic_exact_through_both_stages(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        exact = sample("x1^2 + x2^2", spec)
        zero = GridFunction(spec, np.zeros((17, 17)))
        four = GridFunction(spec, np.full((17, 17), 4.0))
        report = solve_biharmonic(zero, zero_interior(exact), zero_interior(four))
        assert report.converged
        assert np.abs(report.solution.values - exact.values).max() <= 1e-9

    def test_harmonic_cubic_exact(self):
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        exact = sample("x1^3 - 3*x1*x2^2", spec)
        zero = GridFunction(spec, np.zeros((17, 17)))
        report = solve_biharmonic(zero, zero_interior(exact), zero)
        assert report.converged
        assert np.abs(report.solution.values - exact.values).max() <= 1e-9

    def test_stage_residuals_recorded(self):
        spec = GridSpec((0.0, 0.0), 1 / 8, (9, 9))
        zero = GridFunction(spec, np.zeros((9, 9)))
        report = solve_biharmonic(zero, zero, zero, tol=1e-11)
        assert report.stage_residuals is not None
        assert max(report.stage_residuals) <= 1e-11

    def test_composed_operator_reproduces_rhs_within_amplified_stage_tol(self):
        # The second centered Laplacian amplifies stage-2 residual noise by up
        # to 4n/h^2, which bounds the composed fourth-order residual.
        tol = 1e-10
        spec = GridSpec((0.0, 0.0), 1 / 16, (17, 17))
        exact = sample("x1^2 + x2^2", spec)
        zero = GridFunction(spec, np.zeros((17, 17)))
        four = GridFunction(spec, np.full((17, 17), 4.0))
        report = solve_biharmonic(zero, zero_interior(exact), zero_interior(four), tol=tol)
        amplification = 1.0 + 8.0 / spec.h**2
        assert report.final_residual <= tol * amplification

    def test_solution_error_second_order_on_smooth_case(self):
        errors = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            n = round(1.0 / h) + 1
            spec = GridSpec((0.0, 0.0), h, (n, n))
            exact = sample("x1*sin(x1)*(exp(x2)-exp(-x2))/2", spec)
            lap_exact = sample("2*cos(x1)*(exp(x2)-exp(-x2))/2", spec)
            zero = GridFunction(spec, np.zeros((n, n)))
            report = solve_biharmonic(
                zero, zero_interior(exact), zero_interior(lap_exact), tol=1e-11
            )
            assert report.converged
            errors.append(np.abs(report.solution.values - exact.values).max())
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert min(orders) >= 1.5

    def test_requires_five_nodes_per_axis(self):
        spec = GridSpec((0.0, 0.0), 0.25, (4, 5))
        zero = GridFunction(spec, np.zeros((4, 5)))
        with pytest.raises(ValueError, match="5 nodes"):
            solve_biharmonic(zero, zero, zero)


class TestMeanValue:
    def test_harmonic_polynomial_small_deviation(self):
        spec = GridSpec((-1.0, -1.0), 1 / 64, (129, 129))
        u = sample("x1^2 - x2^2", spec)
        assert mean_value_check(u, (0.1, -0.2), 0.25) <= 1e-2

    def test_constant_is_exact(self):
        spec = GridSpec((0.0, 0.0), 0.125, (17, 17))
        u = GridFunction(spec, np.full((17, 17), 2.5))
        assert mean_value_check(u, (1.0, 1.0), 0.5) == 0.0

    def test_non_harmonic_control_shows_r_squared_excess(self):
        spec = GridSpec((-1.0, -1.0), 1 / 64, (129, 129))
        u = sample("x1^2 + x2^2", spec)
        harmonic = sample("x1^2 - x2^2", spec)
        r = 0.25
        excess = mean_value_check(u, (0.0, 0.0), r)
        assert excess == pytest.approx(r * r, rel=0.05)
        assert excess > 10.0 * mean_value_check(harmonic, (0.0, 0.0), r)

    @pytest.mark.parametrize(
        "expression, extents, center, bound",
        [
            # two directions; linear data is interpolated exactly
            ("x1", (17,), (0.1,), 1e-15),
            # Fibonacci lattice; multilinear data is interpolated exactly, so
            # the deviation is the lattice's quadrature error
            ("x1*x2 + x3", (17, 17, 17), (0.1, -0.2, 0.15), 1e-4),
            # seeded random directions, whose sample mean is not centered
            ("x1*x2 - x3*x4", (9, 9, 9, 9), (0.1, -0.2, 0.15, 0.05), 0.1 * 0.25**2),
        ],
        ids=["1d", "3d", "4d"],
    )
    def test_harmonic_data_in_other_dimensions(self, expression, extents, center, bound):
        dim = len(extents)
        spec = GridSpec((-1.0,) * dim, 2.0 / (extents[0] - 1), extents)
        u = sample(expression, spec)
        control = sample(" + ".join(f"x{k}^2" for k in range(1, dim + 1)), spec)
        r = 0.25
        assert mean_value_check(u, center, r) <= bound
        # the sum of squares has Laplacian 2n: its sphere mean exceeds the centre by r^2
        assert mean_value_check(control, center, r) == pytest.approx(r * r, rel=0.05)

    def test_sphere_must_stay_inside(self):
        spec = GridSpec((0.0, 0.0), 0.125, (9, 9))
        u = sample("x1", spec)
        with pytest.raises(ValueError, match="exits the grid"):
            mean_value_check(u, (0.5, 0.5), 2.0)

    @pytest.mark.parametrize("origin", [1e-9, -1e-9], ids=["below", "above"])
    def test_point_1e9_cells_outside_is_accepted(self, origin):
        # h = 1 and radius 2 from the centre 2: the sphere points 0 and 4 lie
        # exactly 1e-9 cells below the first node or above the last one
        u = GridFunction(GridSpec((origin,), 1.0, (5,)), np.zeros(5))
        assert mean_value_check(u, (2.0,), 2.0) == 0.0
        with pytest.raises(ValueError, match="exits the grid"):
            mean_value_check(u, (2.0,), 2.0 + 1e-6)

    def test_point_that_overflows_to_inf_is_outside(self):
        # centre - radius is a node; centre + radius overflows to inf
        u = GridFunction(GridSpec((0.0,), 1e307, (18,)), np.zeros(18))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"point \(inf,\) is outside the grid$"):
                mean_value_check(u, (1.7e308,), 1e308)


class TestMaxPrinciple:
    def test_interior_spike_fails_with_witness(self):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        values = np.zeros((9, 9))
        values[4, 5] = 3.0
        passed, witness = max_principle_check(GridFunction(spec, values))
        assert not passed and witness == (4, 5)

    def test_constant_passes_by_ties(self):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        passed, witness = max_principle_check(GridFunction(spec, np.full((9, 9), 1.5)))
        assert passed and witness is None

    def test_interior_dip_fails(self):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        values = np.ones((9, 9))
        values[2, 2] = -1.0
        passed, witness = max_principle_check(GridFunction(spec, values))
        assert not passed and witness == (2, 2)

    def test_needs_interior(self):
        spec = GridSpec((0.0, 0.0), 0.25, (2, 5))
        with pytest.raises(ValueError):
            max_principle_check(GridFunction(spec, np.zeros((2, 5))))


class TestHarnack:
    def _bilinear_sequence(self, count=10):
        spec = GridSpec((0.0, 0.0), 0.125, (9, 9))
        base = sample("x1*x2", spec)
        return [
            GridFunction(spec, (1.0 - 2.0**-k) * base.values) for k in range(1, count + 1)
        ]

    def test_monotone_bounded_sequence_has_finite_limit(self):
        verdict = harnack_limit(self._bilinear_sequence(), 1, 1e-3)
        assert verdict.outcome == "finite_limit"
        assert verdict.limit is not None
        assert verdict.limit_residual <= 1e-10
        assert all(b <= a for a, b in zip(verdict.deviations, verdict.deviations[1:]))

    def test_unbounded_constants_diverge(self):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        seq = [GridFunction(spec, float(k) * np.ones((9, 9))) for k in range(1, 13)]
        verdict = harnack_limit(seq, 1, 0.1)
        assert verdict.outcome == "divergent"

    def test_bounded_sequence_still_moving_is_divergent(self):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        seq = [GridFunction(spec, float(k) * np.ones((9, 9))) for k in range(1, 4)]
        verdict = harnack_limit(seq, 1, 0.1)  # minimum 3 is below 1/tol = 10
        assert verdict.outcome == "divergent"
        assert verdict.deviations == (1.0, 1.0) and verdict.limit is None

    def test_non_monotone_input_is_a_violation_with_witness(self):
        spec = GridSpec((0.0, 0.0), 0.125, (9, 9))
        base = sample("x1*x2", spec)
        seq = [
            base,
            GridFunction(spec, 0.5 * base.values),
            GridFunction(spec, 0.7 * base.values),
        ]
        verdict = harnack_limit(seq, 1, 1e-3)
        assert verdict.outcome == "violation"
        assert verdict.witness is not None and verdict.witness[0] == 0

    @pytest.mark.parametrize(
        "margin, window",
        [(0, (slice(0, 9),) * 2), (1, (slice(1, 8),) * 2),
         (((2, 1), (0, 3)), (slice(2, 8), slice(0, 6)))],
    )
    def test_deviations_and_witness_are_the_windowed_differences(self, margin, window):
        spec = GridSpec((0.0, 0.0), 0.125, (9, 9))
        rng = np.random.default_rng(5)
        steps = rng.random((6, 9, 9)) * np.logspace(0, -5, 6)[:, None, None]
        seq = [GridFunction(spec, v) for v in np.cumsum(steps, axis=0)]
        verdict = harnack_limit(seq, margin, 1e-3)
        assert verdict.deviations == tuple(
            float(np.abs(b.values[window] - a.values[window]).max()) for a, b in zip(seq, seq[1:])
        )
        dipped = seq[:3] + [GridFunction(spec, seq[3].values - 2.0 * steps[3])] + seq[4:]
        diff = dipped[3].values - dipped[2].values
        witness = tuple(int(i) for i in np.unravel_index(int(np.argmin(diff)), diff.shape))
        assert harnack_limit(dipped, margin, 1e-3).witness == (2, witness)

    def test_requires_shared_spec(self):
        a = GridFunction(GridSpec((0.0,), 0.5, (5,)), np.zeros(5))
        b = GridFunction(GridSpec((0.0,), 0.25, (5,)), np.zeros(5))
        with pytest.raises(ValueError, match="share"):
            harnack_limit([a, b, a], 0, 1e-3)

    def test_requires_three_grids(self):
        a = GridFunction(GridSpec((0.0,), 0.5, (5,)), np.zeros(5))
        with pytest.raises(ValueError, match="3 grids"):
            harnack_limit([a, a], 0, 1e-3)


def _no_sweep(*args, **kwargs):
    raise AssertionError("an SOR sweep started")


NOT_POSITIVE_TOLERANCE_CALLS = {
    "laplace": lambda g, tol: solve_laplace_dirichlet(g, tol),
    "poisson": lambda g, tol: solve_poisson_dirichlet(g, g, tol),
    "biharmonic": lambda g, tol: solve_biharmonic(g, g, g, tol),
    "convergence": lambda g, tol: convergence_study(
        "laplace", "x1", None, (0.0, 0.0), 1.0, [0.5, 0.25], tol
    ),
    "harnack": lambda g, tol: harnack_limit([g, g, g], 1, tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("call", list(NOT_POSITIVE_TOLERANCE_CALLS))
def test_tolerance_that_is_not_positive_is_refused_before_any_sweep(call, tol, monkeypatch):
    monkeypatch.setattr(elliptic, "_Color", _no_sweep)
    g = GridFunction(GridSpec((0.0, 0.0), 0.125, (9, 9)), np.zeros((9, 9)))
    with pytest.raises(ValueError, match=f"^tolerance must be positive, got {tol}$"):
        NOT_POSITIVE_TOLERANCE_CALLS[call](g, tol)


class TestPoissonRefusals:
    """Grid match, then the h^(-2) overflow, then the other arguments; all before any sweep."""

    def test_grids_that_differ(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_Color", _no_sweep)
        g = GridFunction(GridSpec((0.0, 0.0), 1e-170, (3, 3)), np.zeros((3, 3)))
        f = GridFunction(GridSpec((0.0, 0.0), 0.125, (3, 3)), np.zeros((3, 3)))
        message = "^right-hand side and boundary data must share one grid$"
        with pytest.raises(ValueError, match=message):
            solve_poisson_dirichlet(f, g, math.nan, 0)

    @pytest.mark.parametrize("h", [1e-160, 1e-170], ids=["h2-subnormal", "h2-zero"])
    def test_inverse_square_spacing_overflows(self, monkeypatch, h):
        monkeypatch.setattr(elliptic, "_Color", _no_sweep)
        g = GridFunction(GridSpec((0.0, 0.0), h, (3, 3)), np.zeros((3, 3)))
        message = re.escape(f"scale factor h^(-2) overflows at h = {h!r}")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            solve_poisson_dirichlet(g, g, math.nan, 0)


class TestHarmonicityResidual:
    def test_saddle_is_discretely_exact(self):
        pairs, order = harmonicity_residual(
            "x1^2 - x2^2", (0.0, 0.0), (1.0, 1.0), [1 / 8, 1 / 16, 1 / 32]
        )
        assert all(res == 0.0 for _, res in pairs)
        assert order is None

    def test_smooth_harmonic_order_at_least_1_9(self):
        pairs, order = harmonicity_residual(
            "exp(x1)*sin(x2)", (0.0, 0.0), (1.0, 1.0), [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        )
        assert order is not None and order >= 1.9
        residuals = [res for _, res in pairs]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_non_harmonic_residual_is_exactly_4_h_squared(self):
        pairs, _ = harmonicity_residual(
            "x1^2 + x2^2", (0.0, 0.0), (1.0, 1.0), [1 / 8, 1 / 16, 1 / 32]
        )
        for h, res in pairs:
            assert res == 4.0 * h * h

    def test_evaluation_failure_propagates(self):
        with pytest.raises(Exception, match="ln|sampling"):
            harmonicity_residual("ln(x1)", (-1.0, 0.0), (2.0, 1.0), [0.5])

    @pytest.mark.parametrize(
        "lengths,h_list",
        [((1, 1), [0.0]), ((1, 1), [0.5, -0.25]), ((1, 1), [0.5, math.nan]),
         ((0, 1), [0.5]), ((1, math.inf), [0.5])],
    )
    def test_non_positive_or_non_finite_input_refused(self, lengths, h_list, monkeypatch):
        monkeypatch.setattr(elliptic, "sample", no_sample)
        with pytest.raises(ValueError, match="must be positive and finite"):
            harmonicity_residual("x1", (0, 0), lengths, h_list)

    @pytest.mark.parametrize("lengths,h", [((1e308, 1), 1e-10), ((1, 1), 1e-9), ((1, 2), 1e-7)])
    def test_box_above_the_node_limit_refused_before_any_sample(self, lengths, h, monkeypatch):
        monkeypatch.setattr(elliptic, "sample", no_sample)
        with pytest.raises(ValueError, match=f"more than {MAX_NODES}"):
            harmonicity_residual("x1", (0, 0), lengths, [0.5, h])


def no_sample(*args):
    raise AssertionError("sampled before checking every box")


class TestConvergenceStudy:
    def test_orders_near_two(self):
        rows = convergence_study(
            "laplace", "exp(x1)*sin(x2)", None, (0.0, 0.0), 1.0, [0.125, 0.0625, 0.03125]
        )
        assert [row.h for row in rows] == [0.125, 0.0625, 0.03125]
        assert rows[0].order is None and not rows[0].exact
        assert all(row.converged for row in rows)
        assert all(1.7 <= row.order <= 2.3 for row in rows[1:])

    def test_non_convergence_is_reported_and_ends_the_study(self):
        rows = convergence_study(
            "laplace", "exp(x1)*sin(x2)", None, (0.0, 0.0), 1.0, [0.125, 0.0625], max_iter=3
        )
        assert len(rows) == 1
        assert not rows[0].converged

    def test_poisson_needs_rhs(self):
        with pytest.raises(ValueError, match="rhs"):
            convergence_study("poisson", "x1", None, (0.0, 0.0), 1.0, [0.5, 0.25])

    @pytest.mark.parametrize(
        "problem, rhs, message",
        [("laplace", "x1", "a laplace study takes no --rhs"),
         ("foo", None, "unknown problem 'foo': expected laplace or poisson"),
         ("foo", "x1", "unknown problem 'foo': expected laplace or poisson")],
    )
    def test_problem_and_rhs_refused_before_any_sample(self, problem, rhs, message, monkeypatch):
        monkeypatch.setattr(elliptic, "sample", no_sample)
        with pytest.raises(ValueError) as info:
            convergence_study(problem, "x1", rhs, (0.0, 0.0), 1.0, [0.5, 0.25])
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "length,h_list",
        [(1.0, [0.5, 0.0]), (1.0, [0.5, -0.25]), (1.0, [math.inf, 0.5]), (1.0, [0.5, math.nan]),
         (math.inf, [0.5, 0.25]), (0.0, [0.5, 0.25]), (-1.0, [0.5, 0.25]), (math.nan, [0.5, 0.25])],
    )
    def test_non_positive_or_non_finite_input_refused(self, length, h_list):
        with pytest.raises(ValueError, match="must be positive and finite"):
            convergence_study("laplace", "x1", None, (0.0, 0.0), length, h_list)

    @pytest.mark.parametrize("length,h", [(1.0, 1e-4), (1.0, 1e-9), (1e308, 1e-10), (1.0, 5e-324)])
    def test_grid_above_the_node_limit_refused_before_any_solve(self, length, h, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before checking every grid")

        monkeypatch.setattr(elliptic, "solve_laplace_dirichlet", no_solve)
        with pytest.raises(ValueError, match=f"(more than|exceeds the limit of) {MAX_NODES}"):
            convergence_study("laplace", "x1", None, (0.0, 0.0), length, [length, h])
