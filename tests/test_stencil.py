import math
import os

import numpy as np
import pytest

from pardiff.expr import BinOp, ExprSyntaxError, parse
from pardiff.grid import (
    GridFunction, GridSpec, _content_lines, _header_fields, _read_text, sample,
)
from pardiff.stencil import (
    Stencil,
    StencilFileError,
    StencilTerm,
    axis_difference,
    biharmonic_stencil,
    laplace_stencil,
    load_stencil,
    mixed_difference,
    residual,
    save_stencil,
)

# ---------------------------------------------------------------------------
# Independent oracle: difference operators as shift->coefficient dictionaries,
# built only from the first-order definition and operator composition.


def one_axis_first_difference(dim, axis):
    shift = [0] * dim
    shift[axis - 1] = 1
    return {tuple(shift): 1.0, (0,) * dim: -1.0}


def compose(d1, d2):
    out = {}
    for s1, c1 in d1.items():
        for s2, c2 in d2.items():
            key = tuple(a + b for a, b in zip(s1, s2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def iterate_axis_difference(dim, axis, order):
    out = one_axis_first_difference(dim, axis)
    for _ in range(order - 1):
        out = compose(out, one_axis_first_difference(dim, axis))
    return out


def add_dicts(*dicts):
    out = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0.0) + value
    return out


def as_dict(s: Stencil):
    out = {}
    for t in s.terms:
        assert t.constant is not None
        out[t.shift] = t.constant
    return out


def drop_zeros(d):
    return {k: v for k, v in d.items() if v != 0.0}


class TestAxisDifference:
    def test_first_order(self):
        s = axis_difference(2, 1, 1, 0.5)
        assert as_dict(s) == {(1, 0): 1.0, (0, 0): -1.0}

    def test_second_order(self):
        s = axis_difference(1, 1, 2, 0.5)
        assert as_dict(s) == {(2,): 1.0, (1,): -2.0, (0,): 1.0}

    def test_fourth_order_matches_iterated_composition(self):
        oracle = iterate_axis_difference(1, 1, 4)
        assert oracle == {(4,): 1.0, (3,): -4.0, (2,): 6.0, (1,): -4.0, (0,): 1.0}
        assert as_dict(axis_difference(1, 1, 4, 1.0)) == oracle

    def test_high_order_matches_composition(self):
        for order in (3, 5, 6):
            assert as_dict(axis_difference(3, 2, order, 0.1)) == pytest.approx(
                iterate_axis_difference(3, 2, order)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            axis_difference(2, 3, 1, 0.5)
        with pytest.raises(ValueError):
            axis_difference(2, 1, 0, 0.5)


class TestMixedDifference:
    def test_one_one_composed_by_hand(self):
        s = mixed_difference(2, (1, 1), 1.0)
        assert as_dict(s) == {(1, 1): 1.0, (1, 0): -1.0, (0, 1): -1.0, (0, 0): 1.0}

    def test_two_two_is_outer_product(self):
        s = mixed_difference(2, (2, 2), 1.0)
        weights = {0: 1.0, 1: -2.0, 2: 1.0}
        expected = {(a, b): weights[a] * weights[b] for a in range(3) for b in range(3)}
        assert as_dict(s) == expected
        assert len(s.terms) == 9

    def test_degenerate_axis_equals_axis_difference(self):
        assert as_dict(mixed_difference(2, (2, 0), 0.25)) == as_dict(
            axis_difference(2, 1, 2, 0.25)
        )

    def test_matches_composition_oracle(self):
        oracle = compose(
            iterate_axis_difference(3, 1, 2),
            compose(iterate_axis_difference(3, 2, 1), iterate_axis_difference(3, 3, 3)),
        )
        assert as_dict(mixed_difference(3, (2, 1, 3), 1.0)) == pytest.approx(oracle)

    def test_term_count(self):
        assert len(mixed_difference(3, (2, 1, 3), 1.0).terms) == 3 * 2 * 4

    def test_needs_positive_total_order(self):
        with pytest.raises(ValueError):
            mixed_difference(2, (0, 0), 1.0)


class TestLaplaceStencil:
    def test_two_dimensional_terms(self):
        s = laplace_stencil(2, 1.0)
        assert as_dict(s) == {
            (2, 0): 1.0,
            (1, 0): -2.0,
            (0, 2): 1.0,
            (0, 1): -2.0,
            (0, 0): 2.0,
        }
        assert s.scale_exp == 0

    def test_one_dimensional(self):
        assert as_dict(laplace_stencil(1, 0.5)) == {(2,): 1.0, (1,): -2.0, (0,): 1.0}

    def test_three_dimensional_matches_merge_oracle(self):
        oracle = add_dicts(*(iterate_axis_difference(3, a, 2) for a in (1, 2, 3)))
        s = laplace_stencil(3, 1.0)
        assert as_dict(s) == pytest.approx(oracle)
        assert len(s.terms) == 7
        assert as_dict(s)[(0, 0, 0)] == 3.0

    def test_scaled_flag(self):
        assert laplace_stencil(2, 0.5, scaled=True).scale_exp == 2


class TestBiharmonicStencil:
    def test_one_dimensional(self):
        assert as_dict(biharmonic_stencil(1, 1.0)) == {
            (4,): 1.0,
            (3,): -4.0,
            (2,): 6.0,
            (1,): -4.0,
            (0,): 1.0,
        }

    def test_is_square_of_forward_laplacian(self):
        for dim in (1, 2, 3):
            lap = add_dicts(*(iterate_axis_difference(dim, a, 2) for a in range(1, dim + 1)))
            oracle = drop_zeros(compose(lap, lap))
            got = drop_zeros(as_dict(biharmonic_stencil(dim, 1.0)))
            assert got == pytest.approx(oracle)

    def test_scaled_flag(self):
        assert biharmonic_stencil(2, 0.5, scaled=True).scale_exp == 4


class TestMerging:
    def test_constant_duplicates_add(self):
        s = Stencil(1, 1.0, (StencilTerm((0,), 1.0), StencilTerm((0,), 2.5)))
        assert as_dict(s) == {(0,): 3.5}

    def test_expression_duplicates_become_symbolic_sum(self):
        s = Stencil(1, 1.0, (StencilTerm((0,), parse("x1")), StencilTerm((0,), 1.0)))
        (term,) = s.terms
        assert isinstance(term.coeff, BinOp) and term.coeff.op == "+"

    def test_shifts_pairwise_distinct(self):
        s = laplace_stencil(3, 1.0)
        shifts = [t.shift for t in s.terms]
        assert len(shifts) == len(set(shifts))


class TestApply:
    def test_forward_laplacian_annihilates_saddle(self):
        spec = GridSpec((0.0, 0.0), 0.5, (6, 6))
        u = sample("x1^2 - x2^2", spec)
        out = laplace_stencil(2, 0.5).apply(u)
        assert np.abs(out.values).max() == 0.0
        assert out.spec.extents == (4, 4)

    def test_second_difference_of_quadratic_is_2h2(self):
        for h in (0.5, 0.1, 1 / 3):
            spec = GridSpec((0.0,), h, (7,))
            u = sample("x1^2", spec)
            out = axis_difference(1, 1, 2, h).apply(u)
            assert np.allclose(out.values, 2 * h * h, rtol=1e-12, atol=0)

    def test_biharmonic_annihilates_harmonic_cubic(self):
        spec = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        u = sample("x1^3 - 3*x1*x2^2", spec)
        out = biharmonic_stencil(2, 0.25).apply(u)
        scale = np.abs(u.values).max()
        assert np.abs(out.values).max() <= 1e-12 * scale

    def test_output_origin_shifts_to_valid_region(self):
        spec = GridSpec((1.0,), 0.5, (5,))
        s = Stencil(1, 0.5, (StencilTerm((-1,), 1.0), StencilTerm((2,), 1.0)))
        out = s.apply(sample("x1", spec))
        assert out.spec.origin == (1.5,)
        assert out.spec.extents == (2,)

    def test_scale_exponent_divides_by_h_power(self):
        spec = GridSpec((0.0,), 0.25, (7,))
        u = sample("x1^2", spec)
        out = laplace_stencil(1, 0.25, scaled=True).apply(u)
        assert np.allclose(out.values, 2.0, rtol=1e-12, atol=0)

    def test_variable_coefficients_evaluated_at_base_node(self):
        spec = GridSpec((0.0,), 1.0, (4,))
        s = Stencil(1, 1.0, (StencilTerm((1,), parse("x1")),))
        out = s.apply(sample("1", spec))
        assert list(out.flat()) == [0.0, 1.0, 2.0]

    def test_empty_valid_region(self):
        spec = GridSpec((0.0,), 1.0, (3,))
        with pytest.raises(ValueError, match="empty valid region"):
            axis_difference(1, 1, 4, 1.0).apply(sample("1", spec))

    def test_mismatched_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            laplace_stencil(1, 0.5).apply(sample("1", GridSpec((0.0,), 0.25, (5,))))

    def test_non_integer_shifts_rejected_on_grids(self):
        s = Stencil(1, 1.0, (StencilTerm((0.5,), 1.0),))
        with pytest.raises(ValueError, match="non-integer"):
            s.apply(sample("1", GridSpec((0.0,), 1.0, (5,))))

    @pytest.mark.parametrize("h, values", [(1e-200, "1"), (1e-150, "1e10*x1^2")])
    def test_scaled_overflow_raises(self, h, values):
        u = sample(values, GridSpec((0.0,), 1.0, (5,)))
        u = GridFunction(GridSpec((0.0,), h, (5,)), u.values)
        with pytest.raises(OverflowError, match="overflows"):
            laplace_stencil(1, h, scaled=True).apply(u)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            StencilTerm((0,), math.inf)

    def test_coefficient_evaluation_failure_reports_node(self):
        spec = GridSpec((-1.0,), 1.0, (4,))
        s = Stencil(1, 1.0, (StencilTerm((1,), parse("1/x1")),))
        with pytest.raises(Exception, match="coefficient evaluation failed"):
            s.apply(sample("1", spec))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        spec = GridSpec((0.0, 0.0), 0.5, (8, 7))
        u = GridFunction(spec, rng.standard_normal(spec.extents))
        v = GridFunction(spec, rng.standard_normal(spec.extents))
        s = laplace_stencil(2, 0.5)
        a, b = 2.25, -0.75
        lhs = s.apply(GridFunction(spec, a * u.values + b * v.values)).values
        rhs = a * s.apply(u).values + b * s.apply(v).values
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * max(1, np.abs(rhs).max()))

    def test_mixed_difference_equals_sequential_axes_any_order(self):
        rng = np.random.default_rng(5)
        spec = GridSpec((0.0, 0.0), 0.5, (9, 8))
        u = GridFunction(spec, rng.standard_normal(spec.extents))
        mixed = mixed_difference(2, (2, 1), 0.5).apply(u)
        seq_a = axis_difference(2, 2, 1, 0.5).apply(axis_difference(2, 1, 2, 0.5).apply(u))
        seq_b = axis_difference(2, 1, 2, 0.5).apply(axis_difference(2, 2, 1, 0.5).apply(u))
        for other in (seq_a, seq_b):
            assert other.spec == mixed.spec
            assert np.allclose(other.values, mixed.values, rtol=0, atol=1e-13)

    def test_annihilates_low_degree_polynomials_exactly_on_integer_lattice(self):
        # Integer data on an integer lattice: float arithmetic is exact here.
        spec = GridSpec((0.0, 0.0), 1.0, (8, 8))
        u = sample("x1^2*x2 + 3*x1*x2 - 5", spec)  # total degree 3
        out = mixed_difference(2, (2, 2), 1.0).apply(u)
        assert np.abs(out.values).max() == 0.0

    def test_annihilates_low_degree_polynomials_generic_spacing(self):
        spec = GridSpec((-0.7, 0.3), 0.11, (9, 9))
        u = sample("x1^3 - 2*x1*x2^2 + x2 - 4", spec)
        out = mixed_difference(2, (3, 1), 0.11).apply(u)
        scale = max(1.0, np.abs(u.values).max())
        assert np.abs(out.values).max() <= 1e-12 * scale

    def test_scaled_laplacian_first_order_accurate(self):
        # Forward differences are evaluated at shifted points, so the scaled
        # operator converges to the Laplacian at first order.
        errors = []
        spacings = [1 / 32, 1 / 64, 1 / 128]
        for h in spacings:
            n = round(1.0 / h) + 1
            u = sample("exp(x1)*sin(x2)", GridSpec((0.0, 0.0), h, (n, n)))
            out = laplace_stencil(2, h, scaled=True).apply(u)
            errors.append(np.abs(out.values).max())
        orders = [
            math.log(errors[i] / errors[i + 1]) / math.log(spacings[i] / spacings[i + 1])
            for i in range(len(errors) - 1)
        ]
        assert min(orders) >= 0.9

    def test_biharmonic_peak_memory_per_node_at_257(self, traced_peak):
        u = sample("exp(x1)*sin(x2)", GridSpec((0.0, 0.0), 1 / 256, (257, 257)))
        s = biharmonic_stencil(2, u.spec.h)
        # measured 17.5 B (numpy 2.4), plus 4 B: half of one more array of doubles
        assert traced_peak(lambda: s.apply(u)) / u.spec.node_count <= 21.5


class TestResidual:
    def test_harmonic_against_zero(self):
        spec = GridSpec((0.0, 0.0), 0.25, (9, 9))
        u = sample("x1^2 - x2^2", spec)
        zero = GridFunction(spec, np.zeros(spec.extents))
        l1, linf = residual(laplace_stencil(2, 0.25), u, zero)
        bound = 1e-12 * np.abs(u.values).max()
        assert l1 <= bound and linf <= bound

    def test_scaled_poisson_exact_on_quadratic(self):
        spec = GridSpec((0.0, 0.0), 0.5, (7, 7))
        u = sample("x1^2/2", spec)
        one = sample("1", spec)
        l1, linf = residual(laplace_stencil(2, 0.5, scaled=True), u, one)
        assert linf <= 1e-12

    def test_self_consistency_is_exact(self):
        rng = np.random.default_rng(2)
        spec = GridSpec((0.0, 0.0), 0.5, (8, 8))
        u = GridFunction(spec, rng.standard_normal(spec.extents))
        s = laplace_stencil(2, 0.5)
        l1, linf = residual(s, u, s.apply(u))
        assert l1 == 0.0 and linf == 0.0

    def test_incompatible_rhs(self):
        spec = GridSpec((0.0, 0.0), 0.5, (7, 7))
        u = sample("x1", spec)
        bad = GridFunction(GridSpec((0.05, 0.0), 0.5, (7, 7)), np.zeros((7, 7)))
        with pytest.raises(ValueError, match="incompatible"):
            residual(laplace_stencil(2, 0.5), u, bad)

    def test_peak_memory_per_node_at_257(self, traced_peak):
        spec = GridSpec((0.0, 0.0), 1 / 256, (257, 257))
        u, zero = sample("exp(x1)*sin(x2)", spec), sample("0", spec)
        s = laplace_stencil(2, spec.h)
        # measured 32.6 B (numpy 2.4), plus 4 B: half of one more array of doubles
        assert traced_peak(lambda: residual(s, u, zero)) / spec.node_count <= 36.5


class TestStencilFiles:
    def test_round_trip_constant_and_expression_coefficients(self, tmp_path):
        s = Stencil(
            2,
            0.25,
            (
                StencilTerm((2, 0), 1.0),
                StencilTerm((0, 1), parse("x2^2 + 1")),
                StencilTerm((-1, 3), -2.5),
            ),
            scale_exp=2,
        )
        path = tmp_path / "s.stn"
        save_stencil(s, str(path))
        t = load_stencil(str(path))
        assert t == s

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "s.stn"
        save_stencil(laplace_stencil(2, 0.25), str(path))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            save_stencil(biharmonic_stencil(2, 0.25), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["s.stn"]

    def test_real_shifts_survive_round_trip(self, tmp_path):
        s = Stencil(1, 1.0, (StencilTerm((0.5,), 1.0), StencilTerm((0,), -1.0)))
        path = tmp_path / "r.stn"
        save_stencil(s, str(path))
        t = load_stencil(str(path))
        assert t.terms[1].shift == (0.5,)
        assert not t.is_lattice

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "c.stn"
        path.write_text("# operator\ndim 1\nh 0.5\nscale 0\nterm 1  1\nterm 0  -1\n")
        s = load_stencil(str(path))
        assert as_dict(s) == {(1,): 1.0, (0,): -1.0}

    def test_malformed_term_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.stn"
        path.write_text("dim 2\nh 0.5\nscale 0\nterm 1 0\n")
        with pytest.raises(StencilFileError, match="bad.stn:4"):
            load_stencil(str(path))

    def test_bad_expression_coefficient_reports_location(self, tmp_path):
        path = tmp_path / "bad.stn"
        path.write_text('dim 1\nh 0.5\nscale 0\nterm 0  "x1+*2"\n')
        with pytest.raises(StencilFileError, match="bad.stn:4"):
            load_stencil(str(path))

    @pytest.mark.parametrize("coeff", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_coefficient_reports_location(self, tmp_path, coeff):
        path = tmp_path / "bad.stn"
        path.write_text(f"dim 1\nh 0.5\nscale 0\nterm 1  1\nterm 0  {coeff}\n")
        with pytest.raises(StencilFileError, match="bad.stn:5: coefficient must be finite"):
            load_stencil(str(path))

    def test_overflowing_duplicate_literals_name_the_shift(self, tmp_path):
        path = tmp_path / "big.stn"
        path.write_text("dim 2\nh 0.5\nscale 0\nterm 1 0  1\nterm 0 1  1e308\nterm 0 1  1e308\n")
        with pytest.raises(StencilFileError, match=r"big.stn: literal coefficients at shift \(0, 1\)"):
            load_stencil(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.stn"
        path.write_text("dim 1\nh 0.5\n")
        with pytest.raises(StencilFileError, match="truncated"):
            load_stencil(str(path))

    def test_undecodable_file_names_the_file_and_offset(self, tmp_path):
        path = tmp_path / "u.stn"
        path.write_bytes(b"dim 1\nh 0.5\nscale 0\nterm 1  1\n# \xff\nterm 0  -1\n")
        with pytest.raises(StencilFileError) as err:
            load_stencil(str(path))
        assert str(err.value) == f"{path}: not valid UTF-8 at byte offset 32: invalid start byte"


def reference_load_stencil(path):
    """The loader with the per-entry term-splitting loop that ``load_stencil`` replaced."""
    lines = _content_lines(_read_text(path))
    if len(lines) < 4:
        raise StencilFileError(f"{path}: truncated stencil file")
    try:
        (dim,) = _header_fields(path, *lines[0], "dim", 1)
        dim = int(dim)
        (h,) = _header_fields(path, *lines[1], "h", 1)
        h = float(h)
        (scale,) = _header_fields(path, *lines[2], "scale", 1)
        scale = int(scale)
    except ValueError as exc:
        raise StencilFileError(f"{path}: malformed header: {exc}") from None
    terms = []
    for lineno, line in lines[3:]:
        fields = line.split(None, 1)
        if fields[0] != "term" or len(fields) < 2:
            raise StencilFileError(f"{path}:{lineno}: expected 'term s1 ... sN c'")
        rest = fields[1]
        shift_parts = []
        for _ in range(dim):
            split = rest.split(None, 1)
            if len(split) < 2:
                raise StencilFileError(
                    f"{path}:{lineno}: term needs {dim} shift entries and a coefficient"
                )
            shift_parts.append(split[0])
            rest = split[1]
        coeff_text = rest.strip()
        try:
            shift = tuple(float(v) for v in shift_parts)
        except ValueError:
            raise StencilFileError(f"{path}:{lineno}: invalid shift entry") from None
        if coeff_text.startswith('"'):
            if not (coeff_text.endswith('"') and len(coeff_text) >= 2):
                raise StencilFileError(f"{path}:{lineno}: unterminated coefficient expression")
            try:
                coeff = parse(coeff_text[1:-1])
            except ExprSyntaxError as exc:
                raise StencilFileError(
                    f"{path}:{lineno}: bad coefficient expression: {exc} "
                    f"(offset within the quoted text)"
                ) from None
        else:
            try:
                coeff = float(coeff_text)
            except ValueError:
                raise StencilFileError(
                    f"{path}:{lineno}: coefficient must be a number or a quoted expression"
                ) from None
        try:
            terms.append(StencilTerm(shift, coeff))
        except ValueError as exc:
            raise StencilFileError(f"{path}:{lineno}: {exc}") from None
    try:
        return Stencil(dim, h, tuple(terms), scale_exp=scale)
    except ValueError as exc:
        raise StencilFileError(f"{path}: {exc}") from None


def stencil_outcome(load, path):
    """The loaded stencil, or the type and text of the error."""
    try:
        return load(str(path))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


HEAD = "h 0.5\nscale 2\n"
STENCIL_FILES = {
    "plain": "dim 2\n" + HEAD + 'term 1 0  1\nterm 0 1  -2.5\nterm -1 0  "x1 * x2"\n',
    "dim-0-with-terms": "dim 0\n" + HEAD + "term 1\nterm 2\n",
    "dim-0-two-fields": "dim 0\n" + HEAD + "term 0 1\n",
    "dim-minus-1-with-terms": "dim -1\n" + HEAD + "term 1\n",
    "dim-minus-1-two-fields": "dim -1\n" + HEAD + "term 0 1\n",
    "dim-minus-2-with-terms": "dim -2\n" + HEAD + "term 0 0 1\n",
    "dim-huge": "dim 1000000000000000000000000000000\n" + HEAD + "term 0 0 1\n",
    "term-alone": "dim 1\n" + HEAD + "term\n",
    "term-alone-with-spaces": "dim 1\n" + HEAD + "term   \t\n",
    "not-a-term": "dim 1\n" + HEAD + "terms 1 1\n",
    "too-few-shift-entries": "dim 3\n" + HEAD + "term 1 0  1\n",
    "shift-entries-only": "dim 2\n" + HEAD + "term 1 0\n",
    "extra-field": "dim 2\n" + HEAD + "term 1 0 1  2\n",
    "tab-separators": "dim 2\n" + HEAD + "term\t1\t0\t\t1.5\t\n",
    "quoted-expression-with-spaces": "dim 2\n" + HEAD + 'term 0 1   "x1 ^ 2 + sin( x2 )"  \n',
    "quoted-expression-too-few-shifts": "dim 2\n" + HEAD + 'term 0 "x1 + 1"\n',
    "unterminated-quote": "dim 1\n" + HEAD + 'term 0 "x1 + 1\n',
    "bad-expression": "dim 1\n" + HEAD + 'term 0 "x1 +* 1"\n',
    "bad-shift": "dim 2\n" + HEAD + "term 1 a  1\n",
    "non-finite-shift": "dim 1\n" + HEAD + "term inf  1\n",
    "real-shift": "dim 1\n" + HEAD + "term 0.5  1\nterm 0 -1\n",
    "crlf": ("dim 2\n" + HEAD + "term 1 0  1\nterm 0 1  -1\n").replace("\n", "\r\n"),
    "comment-lines": "# op\ndim 1\n# spacing\n" + HEAD + "term 1  1\n  # between\nterm 0  -1\n",
    "unicode-spaces": "dim 2\n" + HEAD + "term\u20031\u00a00\u2003 1\x85\n",
    "header-only": "dim 1\n" + HEAD,
    "h-not-a-number": "dim 1\nh x\nscale 2\nterm 0  1\n",
    "scale-not-an-integer": "dim 1\nh 0.5\nscale 1.5\nterm 0  1\n",
    "wrong-header-key": "dim 1\nspacing 0.5\nscale 2\nterm 0  1\n",
}


class TestTermSplitAgainstReference:
    @pytest.mark.parametrize("name", sorted(STENCIL_FILES))
    def test_same_stencil_or_same_error(self, tmp_path, name):
        path = tmp_path / "s.stn"
        path.write_bytes(STENCIL_FILES[name].encode())
        assert stencil_outcome(load_stencil, path) == stencil_outcome(reference_load_stencil, path)
