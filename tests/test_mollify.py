import itertools
import math

import numpy as np
import pytest

import pardiff.mollify as mollify_module
import pardiff.grid as grid_module
from pardiff.grid import GridFunction, GridSpec, _valid_convolve, restrict, sample, shrink
from pardiff.mollify import (
    MAX_QUADRATURE_POINTS,
    MollifierError,
    MollifierKernel,
    bump,
    convolve,
    derivative_commute,
    l1_convergence,
    make_mollifier,
    mollifier_for,
)

# Normalization integral of the profile over [-1, 1], frozen from a
# 2e6-panel midpoint quadrature (mpmath cross-check agrees to 15 digits).
UNIT_INTEGRAL_1D = 0.44399381616807944


class TestBump:
    def test_outside_support(self):
        assert bump(2.0) == 0.0
        assert bump(1.0) == 0.0

    def test_at_zero(self):
        assert bump(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_at_half(self):
        assert bump(0.5) == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_continuous_from_the_left_at_one(self):
        assert bump(1.0 - 1e-9) < 1e-300

    def test_array_input(self):
        out = bump(np.array([0.0, 0.5, 2.0]))
        assert out.shape == (3,)
        assert out[2] == 0.0


def kernel_invariants(kernel):
    values = kernel.samples.values
    assert (values >= 0.0).all()
    flipped = values[tuple(slice(None, None, -1) for _ in range(values.ndim))]
    assert np.array_equal(values, flipped)
    meshes = kernel.samples.spec.meshes()
    radius = np.sqrt(sum(m * m for m in meshes))
    assert np.abs(values[radius > kernel.eps + 1e-12]).max(initial=0.0) == 0.0
    assert abs(kernel.mass - 1.0) <= 1e-6


class TestMakeMollifier:
    @pytest.mark.parametrize(
        "dim,eps,spacing,refine",
        [(1, 0.25, 1 / 32, 16), (1, 0.5, 1 / 16, 8), (2, 0.25, 1 / 16, 8), (3, 0.5, 1 / 8, 4)],
    )
    def test_invariants(self, dim, eps, spacing, refine):
        kernel_invariants(make_mollifier(dim, eps, spacing, refine))

    def test_mass_exactly_one_after_normalization(self):
        k = make_mollifier(2, 0.25, 1 / 16, 8)
        assert abs(k.mass - 1.0) <= 1e-12

    def test_mass_is_one_to_within_rounding(self):
        # the renormalized samples are summed and scaled again, which may leave
        # the mass an ulp or two from 1 (1 + 2^-52 at dim 1, eps 1, h 1/4)
        built = []
        for dim, eps, spacing in itertools.product(
            (1, 2, 3), (0.3, 0.5, 0.75, 1.0), (1 / 4, 1 / 10, 1 / 16, 1 / 32)
        ):
            try:
                built.append(make_mollifier(dim, eps, spacing))
            except MollifierError:  # under-resolved, or past the quadrature limit
                continue
        assert len(built) == 40
        assert max(abs(k.mass - 1.0) for k in built) <= 4 * 2.0**-52

    def test_normalization_against_fine_quadrature_oracle(self):
        k = make_mollifier(1, 0.25, 1 / 64, refine=64)
        assert abs(k.normalization - UNIT_INTEGRAL_1D) <= 1e-6 * UNIT_INTEGRAL_1D

    def test_samples_cover_support(self):
        k = make_mollifier(2, 0.3, 1 / 8, 8)
        half_width = -k.samples.spec.origin[0]
        assert half_width >= k.eps - 1e-12

    def test_sub_resolved_support_rejected(self):
        with pytest.raises(MollifierError, match="sub-resolved"):
            make_mollifier(1, 0.05, 0.1)

    def test_support_equal_to_pitch_fails_mass_tolerance(self):
        # A single interior sample carries mass ~0.83, beyond the 10% bound.
        with pytest.raises(MollifierError, match="too coarse"):
            make_mollifier(1, 0.1, 0.1)

    def test_refine_validation(self):
        with pytest.raises(ValueError):
            make_mollifier(1, 0.25, 0.05, refine=0)

    @pytest.mark.parametrize(
        "dim,eps,spacing,refine",
        [(3, 1.0, 1.0, 81), (2, 1.0, 1.0, 10**9), (2, 1e300, 1e-10, 8)],
        ids=["162-cubed", "huge-refine", "overflowing-panels"],
    )
    def test_quadrature_above_the_point_limit_refused(self, dim, eps, spacing, refine):
        assert 161**3 <= MAX_QUADRATURE_POINTS < 162**3
        with pytest.raises(MollifierError, match="quadrature"):
            make_mollifier(dim, eps, spacing, refine)


def whole_plane_integral(dim, panels):
    """The quadrature as it was written before row blocks: each plane built and bumped whole."""
    t = -1.0 + (np.arange(panels) + 0.5) * (2.0 / panels)
    sq = t * t
    if dim == 1:
        total = float(bump(sq).sum())
    else:
        plane = sq[:, None] + sq[None, :]
        total = 0.0
        for idx in np.ndindex(*((panels,) * (dim - 2))):
            offset = sum(sq[i] for i in idx)
            total += float(bump(plane + offset).sum())
    return total * (2.0 / panels) ** dim


class TestQuadratureInRowBlocks:
    @pytest.mark.parametrize(
        "dim,panels", [(2, 31), (2, 512), (2, 513), (2, 1000), (3, 64), (3, 161), (1, 77)]
    )
    def test_bit_for_bit_the_whole_plane_quadrature(self, dim, panels):
        got = mollify_module._profile_box_integral(dim, panels)
        assert got.hex() == whole_plane_integral(dim, panels).hex()

    def test_the_kernel_keeps_its_bytes(self, monkeypatch):
        got = make_mollifier(2, 0.125, 1 / 256)
        monkeypatch.setattr(mollify_module, "_profile_box_integral", whole_plane_integral)
        want = make_mollifier(2, 0.125, 1 / 256)
        assert got.normalization.hex() == want.normalization.hex()
        assert got.samples.values.tobytes() == want.samples.values.tobytes()

    def test_traced_peak_at_the_2d_limit(self, traced_peak):
        assert 2048**2 <= MAX_QUADRATURE_POINTS
        peak = traced_peak(lambda: mollify_module._profile_box_integral(2, 2048))
        assert peak <= 36 * 2**20  # one 32 MiB plane and its row block's temporaries


class TestValidators:
    @pytest.mark.parametrize(
        "dim,eps,spacing", [(1, 0.25, 1 / 32), (2, 0.25, 1 / 16), (2, 0.3, 0.07), (3, 0.5, 1 / 8)]
    )
    def test_support_radius_is_the_farthest_nonzero_sample(self, dim, eps, spacing):
        k = make_mollifier(dim, eps, spacing)
        values, meshes = k.samples.values, k.samples.spec.meshes()
        distances = [math.sqrt(sum(float(m[i]) ** 2 for m in meshes))
                     for i in np.ndindex(values.shape) if values[i] != 0.0]
        assert k.support_radius == max(distances)
        assert 0.0 < k.support_radius <= eps

    def test_symmetry_deviation_is_zero_for_built_kernels(self):
        for dim in (1, 2, 3):
            assert make_mollifier(dim, 0.5, 1 / 8).symmetry_deviation == 0.0

    def test_validators_of_a_hand_made_kernel(self):
        spec = GridSpec((-1.0, -1.0), 1.0, (3, 3))
        values = np.zeros((3, 3))
        values[1, 2] = 0.75  # at (0, 1); its mirror image (0, -1) is 0
        k = MollifierKernel(2, 1.0, 1.0, GridFunction(spec, values), 0.75, 1.0, 0.75)
        assert k.support_radius == 1.0
        assert k.symmetry_deviation == 0.75
        zero = MollifierKernel(2, 1.0, 1.0, GridFunction(spec, np.zeros((3, 3))), 0.0, 1.0, 0.0)
        assert (zero.support_radius, zero.symmetry_deviation) == (0.0, 0.0)


class TestMollifierFor:
    def test_builds_the_kernel_of_make_mollifier(self):
        spec = GridSpec((0.0, 0.0), 1 / 8, (9, 9))
        a = mollifier_for(spec, 0.5, 4)
        b = make_mollifier(2, 0.5, 1 / 8, 4)
        assert np.array_equal(a.samples.values, b.samples.values)

    @pytest.mark.parametrize(
        "h,extents,eps",
        [(1 / 8, (9, 8), 0.5), (1.0, (5, 5), 1e6), (1e-300, (5, 5), 1e10)],
        ids=["one-node-short", "wide", "eps-over-h-overflows"],
    )
    def test_kernel_wider_than_the_grid_refused(self, h, extents, eps):
        with pytest.raises(MollifierError, match="empty valid region"):
            mollifier_for(GridSpec((0.0, 0.0), h, extents), eps)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_radius_is_an_argument_error(self, eps):
        message = f"^support radius must be positive and finite, got {eps}$"
        with pytest.raises(ValueError, match=message):
            mollifier_for(GridSpec((0.0,), 0.1, (5,)), eps)


class TestConvolve:
    def test_preserves_constants(self):
        spec = GridSpec((-1.0, -1.0), 1 / 16, (33, 33))
        f = GridFunction(spec, np.full((33, 33), -4.25))
        k = make_mollifier(2, 0.25, 1 / 16, 8)
        out = convolve(f, k)
        assert np.abs(out.values + 4.25).max() <= 1e-10 * 4.25

    def test_odd_moments_vanish_then_affine_is_reproduced(self):
        spec = GridSpec((-1.0, -1.0), 1 / 16, (33, 33))
        k = make_mollifier(2, 0.25, 1 / 16, 8)
        kv = k.samples.values
        meshes = k.samples.spec.meshes()
        h = k.spacing
        for m in meshes:
            assert abs(h**2 * (m * kv).sum()) <= 1e-12
        f = sample("2*x1 - 3*x2 + 0.5", spec)
        out = convolve(f, k)
        expected = restrict(f, out.spec)
        scale = max(1.0, np.abs(f.values).max())
        assert np.abs(out.values - expected.values).max() <= 1e-8 * scale

    def test_support_inflates_by_at_most_eps(self):
        spec = GridSpec((-1.0, -1.0), 1 / 16, (33, 33))
        values = np.zeros((33, 33))
        values[16, 16] = 1.0  # spike at the origin
        f = GridFunction(spec, values)
        eps = 0.25
        out = convolve(f, make_mollifier(2, eps, 1 / 16, 8))
        meshes = out.spec.meshes()
        dist = np.sqrt(sum(m * m for m in meshes))
        assert np.abs(out.values[dist > eps + 1e-12]).max(initial=0.0) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(6)
        spec = GridSpec((0.0, 0.0), 1 / 8, (25, 25))
        f = GridFunction(spec, rng.standard_normal((25, 25)))
        g = GridFunction(spec, rng.standard_normal((25, 25)))
        k = make_mollifier(2, 0.25, 1 / 8, 8)
        lhs = convolve(GridFunction(spec, 1.5 * f.values - 2.0 * g.values), k).values
        rhs = 1.5 * convolve(f, k).values - 2.0 * convolve(g, k).values
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-13)

    def test_commutes_with_whole_step_translation(self):
        rng = np.random.default_rng(8)
        spec = GridSpec((0.0,), 0.1, (40,))
        f = GridFunction(spec, rng.standard_normal(40))
        k = make_mollifier(1, 0.3, 0.1, 8)
        moved = GridFunction(GridSpec((0.5,), 0.1, (40,)), f.values)
        a = convolve(f, k)
        b = convolve(moved, k)
        assert np.allclose(a.values, b.values, rtol=0, atol=0)
        assert b.spec.origin[0] == pytest.approx(a.spec.origin[0] + 0.5, abs=1e-12)

    def test_pitch_mismatch_rejected(self):
        f = GridFunction(GridSpec((0.0,), 0.1, (40,)), np.zeros(40))
        k = make_mollifier(1, 0.5, 0.25, 8)
        with pytest.raises(MollifierError, match="pitch"):
            convolve(f, k)

    def test_grid_must_exceed_kernel_support(self):
        f = GridFunction(GridSpec((0.0,), 0.1, (5,)), np.zeros(5))
        k = make_mollifier(1, 0.4, 0.1, 8)
        with pytest.raises(MollifierError, match="empty valid region"):
            convolve(f, k)

    def test_pointwise_convergence_at_fixed_interior_point(self):
        spec = GridSpec((-2.0, -2.0), 1 / 32, (129, 129))
        f = sample("exp(-(x1^2+x2^2))", spec)
        center = (64, 64)
        previous = None
        for eps in (0.5, 0.25, 0.125):
            out = convolve(f, make_mollifier(2, eps, 1 / 32, 8))
            r = (
                center[0] - round((out.spec.origin[0] - spec.origin[0]) / spec.h),
                center[1] - round((out.spec.origin[1] - spec.origin[1]) / spec.h),
            )
            deviation = abs(out.values[r] - f.values[center])
            if previous is not None:
                assert deviation < previous
            previous = deviation

    def test_peak_memory_per_node_at_257(self, traced_peak):
        u = sample("exp(x1)*sin(x2)", GridSpec((0.0, 0.0), 1 / 256, (257, 257)))
        # measured 40.1 B (numpy 2.4), plus 4 B: half of one more array of doubles
        peak = traced_peak(lambda: convolve(u, mollifier_for(u.spec, 1 / 8)))
        assert peak / u.spec.node_count <= 44


class TestL1Convergence:
    def test_smooth_function_errors_shrink(self):
        spec = GridSpec((-2.0, -2.0), 1 / 32, (129, 129))
        f = sample("exp(-(x1^2+x2^2))", spec)
        errors, non_increasing = l1_convergence(f, [0.5, 0.25, 0.125])
        assert non_increasing
        assert errors[-1] < 0.25 * errors[0]

    def test_zero_function(self):
        spec = GridSpec((-1.0,), 1 / 16, (65,))
        f = GridFunction(spec, np.zeros(65))
        errors, non_increasing = l1_convergence(f, [0.5, 0.25])
        assert errors == [0.0, 0.0] and non_increasing

    def test_single_entry_makes_no_trend_claim(self):
        spec = GridSpec((-1.0,), 1 / 16, (65,))
        f = sample("x1^2", spec)
        errors, non_increasing = l1_convergence(f, [2.0 / 16.0])
        assert len(errors) == 1 and math.isfinite(errors[0]) and non_increasing

    def test_requires_descending_radii(self):
        spec = GridSpec((-1.0,), 1 / 16, (65,))
        f = sample("x1", spec)
        with pytest.raises(ValueError, match="descending"):
            l1_convergence(f, [0.25, 0.5])


class TestDerivativeCommute:
    def test_roundoff_level_over_seeded_grids(self):
        spec = GridSpec((0.0, 0.0), 1 / 8, (21, 21))
        k = make_mollifier(2, 0.25, 1 / 8, 8)
        dk_l1 = 1.0 / k.eps  # derivative kernel magnitude scale
        rng = np.random.default_rng(99)
        for _ in range(20):
            f = GridFunction(spec, rng.standard_normal((21, 21)))
            scale = max(1.0, np.abs(f.values).max()) * max(1.0, dk_l1)
            for axis in (1, 2):
                assert derivative_commute(f, k, axis) <= 1e-10 * scale

    def test_constant_gives_zero_both_sides(self):
        spec = GridSpec((0.0,), 0.1, (41,))
        f = GridFunction(spec, np.full(41, 3.0))
        k = make_mollifier(1, 0.3, 0.1, 8)
        assert derivative_commute(f, k, 1) <= 1e-13

    def test_axis_out_of_range(self):
        spec = GridSpec((0.0,), 0.1, (41,))
        f = GridFunction(spec, np.zeros(41))
        k = make_mollifier(1, 0.3, 0.1, 8)
        with pytest.raises(ValueError):
            derivative_commute(f, k, 2)

    def test_insufficient_margin(self):
        spec = GridSpec((0.0,), 0.1, (8,))
        f = GridFunction(spec, np.zeros(8))
        k = make_mollifier(1, 0.3, 0.1, 8)
        with pytest.raises(MollifierError):
            derivative_commute(f, k, 1)


def lattice_convolve_reference(f_values, kernel, weight):
    """The tap loop the FFT convolution replaced: ``weight * sum_j k[j] f[m + K-1 - j]``."""
    out_shape = tuple(fs - ks + 1 for fs, ks in zip(f_values.shape, kernel.shape))
    out = np.zeros(out_shape)
    for idx in np.ndindex(kernel.shape):
        c = kernel[idx]
        if c == 0.0:
            continue
        window = tuple(
            slice(ks - 1 - i, ks - 1 - i + e) for i, ks, e in zip(idx, kernel.shape, out_shape)
        )
        out += c * f_values[window]
    out *= weight
    return out


def assert_matches_tap_loop(out, f_values, kernel, weight):
    """Within ``1e-13 * weight * sum|k| * max|f|`` of the tap loop, and exactly 0
    wherever no nonzero tap meets a nonzero value."""
    reference = lattice_convolve_reference(f_values, kernel, weight)
    assert out.shape == reference.shape
    bound = 1e-13 * weight * np.abs(kernel).sum() * np.abs(f_values).max()
    assert np.abs(out - reference).max() <= bound
    pairs = lattice_convolve_reference(
        (f_values != 0.0).astype(float), (kernel != 0.0).astype(float), 1.0
    )
    assert np.all(out[pairs == 0.0] == 0.0)


class TestFFTConvolutionAgainstTapLoop:
    CASES = [
        ((40,), 0.1, 0.3, 1.0),
        ((60,), 0.1, 0.5, 0.1),
        ((25, 31), 1 / 8, 0.25, 1.0),
        ((33, 29), 1 / 8, 0.25, 0.05),
        ((30, 27), 1 / 16, 0.5, 0.002),
        ((13, 11, 12), 1 / 8, 0.25, 1.0),
        ((14, 12, 13), 1 / 8, 0.375, 0.02),
        # prime extents, padded to the next 2^a 3^b 5^c length
        ((257,), 1 / 256, 0.125, 0.3),
        ((31, 37), 1 / 8, 0.25, 1.0),
        ((31, 37), 1 / 8, 0.375, 0.05),
        ((17, 19, 23), 1 / 8, 0.25, 0.1),
    ]

    @staticmethod
    def grid(extents, h, density, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(extents) * 10.0 ** rng.uniform(-3, 3)
        values *= rng.random(extents) < density  # sparse data keeps -0.0 among its zeros
        return GridFunction(GridSpec((0.0,) * len(extents), h, extents), values)

    @pytest.mark.parametrize("extents,h,eps,density", CASES)
    def test_convolve(self, extents, h, eps, density):
        k = make_mollifier(len(extents), eps, h, 4)
        kv = k.samples.values
        assert (kv == 0.0).any()  # the bump vanishes on the support edge and corners
        for seed in range(3):
            f = self.grid(extents, h, density, seed)
            out = convolve(f, k).values
            assert_matches_tap_loop(out, f.values, kv, h ** len(extents))

    @pytest.mark.parametrize("extents,h,eps,density", CASES)
    def test_derivative_commute_sides(self, extents, h, eps, density, monkeypatch):
        calls = []
        primitive = mollify_module._valid_convolve

        def spy(a, k):
            out = primitive(a, k)
            calls.append((a, k, out))
            return out

        monkeypatch.setattr(mollify_module, "_valid_convolve", spy)
        k = make_mollifier(len(extents), eps, h, 4)
        f = self.grid(extents, h, density, 11)
        for axis in range(1, len(extents) + 1):
            calls.clear()
            derivative_commute(f, k, axis)
            assert [c[1].shape for c in calls] == [
                k.samples.values.shape,
                tuple(s + 2 * (a == axis - 1) for a, s in enumerate(k.samples.values.shape)),
            ]
            for a_values, kernel, out in calls:
                assert_matches_tap_loop(out, a_values, kernel, 1.0)

    def test_single_spike_leaves_exact_zeros_outside_the_kernel(self):
        values = np.zeros((41, 41))
        values[20, 20] = 1.0
        f = GridFunction(GridSpec((-1.25, -1.25), 1 / 16, (41, 41)), values)
        k = make_mollifier(2, 0.5, 1 / 16, 4)
        out = convolve(f, k).values
        # the spike is at node (12, 12) of the output; the kernel reaches 8 nodes from it
        inside = np.zeros(out.shape, dtype=bool)
        inside[4:21, 4:21] = k.samples.values != 0.0
        assert np.all(out[~inside] == 0.0) and np.all(out[inside] > 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_data_near_the_overflow_threshold(self, dim):
        # every node times the whole kernel mass stays finite, but the sums an
        # unscaled FFT forms over the grid would not
        extents = (9,) * dim
        rng = np.random.default_rng(dim)
        f = GridFunction(GridSpec((0.0,) * dim, 1.0, extents), rng.uniform(0.5, 1.5, extents) * 1e308)
        k = make_mollifier(dim, 2.0, 1.0, 4)
        with np.errstate(over="raise", invalid="raise"):
            out = convolve(f, k).values
        assert_matches_tap_loop(out, f.values, k.samples.values, 1.0)


class TestExactZeroMaskWithoutTheIndicatorTransform:
    """Each mask branch against the tap loop, with the indicator FFT patched to fail."""

    CASES = [((257,), 1 / 256, 0.125), ((31, 37), 1 / 8, 0.25), ((17, 19, 23), 1 / 8, 0.25)]

    @pytest.mark.parametrize("extents,h,eps", CASES)
    def test_zero_free_data(self, extents, h, eps, forbid_indicator_transform):
        forbid_indicator_transform()
        k = make_mollifier(len(extents), eps, h, 4)
        for seed in range(3):
            f = TestFFTConvolutionAgainstTapLoop.grid(extents, h, 1.0, seed)
            assert (f.values != 0.0).all()
            assert_matches_tap_loop(convolve(f, k).values, f.values, k.samples.values, h ** len(extents))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_kernel_on_zero_free_data(self, dim, forbid_indicator_transform):
        # the FFT of a kernel of signed zeros leaves -0.0 in the window; the mask clears it
        forbid_indicator_transform()
        rng = np.random.default_rng(dim)
        for _ in range(5):
            values = rng.standard_normal((9,) * dim)
            assert (values != 0.0).all()
            kernel = np.where(rng.random((3,) * dim) < 0.5, -0.0, 0.0)
            out = _valid_convolve(values, kernel)
            assert out.shape == (7,) * dim and (out == 0.0).all() and not np.signbit(out).any()

    @pytest.mark.parametrize("extents,h,eps,density", TestFFTConvolutionAgainstTapLoop.CASES)
    def test_indicator_transform_runs_when_both_hold_a_zero(self, extents, h, eps, density, monkeypatch):
        kinds = []
        cyclic = grid_module._cyclic_convolve

        def spy(x, y, lengths):
            kinds.append(x.dtype == bool)
            return cyclic(x, y, lengths)

        monkeypatch.setattr(grid_module, "_cyclic_convolve", spy)
        k = make_mollifier(len(extents), eps, h, 4)
        f = TestFFTConvolutionAgainstTapLoop.grid(extents, h, density, 5)
        f_zero = f.values.copy()
        f_zero.reshape(-1)[0] = 0.0  # a zero even in dense data
        f = GridFunction(f.spec, f_zero)
        out = convolve(f, k).values
        assert kinds == [False, True]
        assert_matches_tap_loop(out, f.values, k.samples.values, h ** len(extents))
