import numpy as np
import pytest

from pardiff.classify import (
    classify_at,
    classify_region,
    coefficient_matrix,
    eigen_symmetric,
)
from pardiff.expr import parse
from pardiff.grid import GridSpec
from pardiff.stencil import Stencil, StencilTerm, laplace_stencil


def make_stencil(dim, terms, h=1.0):
    return Stencil(
        dim,
        h,
        tuple(
            StencilTerm(shift, parse(c) if isinstance(c, str) else c) for shift, c in terms
        ),
    )


WAVE = (
    ((2, 0), 1.0), ((1, 0), -2.0), ((0, 0), 1.0),
    ((0, 2), -1.0), ((0, 1), 2.0), ((0, 0), -1.0),
)
HEAT = (
    ((1, 0), 1.0), ((-1, 0), -1.0),
    ((0, 1), -1.0), ((0, 0), 2.0), ((0, -1), -1.0),
)
TRICOMI = (
    ((0, 2), "x2"), ((0, 1), "-2*x2"), ((0, 0), "x2"),
    ((2, 0), 1.0), ((1, 0), -2.0), ((0, 0), 1.0),
)


def rank_one_sum_oracle(terms, point):
    """Direct summation of shift outer products, independent of the library path."""
    dim = len(terms[0][0])
    out = [[0.0] * dim for _ in range(dim)]
    for shift, coeff in terms:
        value = coeff if isinstance(coeff, float) else None
        if value is None:
            from pardiff.expr import evaluate

            value = evaluate(parse(coeff), point)
        for k in range(dim):
            for l in range(dim):
                out[k][l] += shift[k] * shift[l] * value
    return np.array(out)


class TestCoefficientMatrix:
    def test_laplacian_is_twice_identity(self):
        m = coefficient_matrix(laplace_stencil(2, 0.5), (0.3, -0.2))
        assert np.array_equal(m.entries, [[2.0, 0.0], [0.0, 2.0]])

    def test_wave_like(self):
        m = coefficient_matrix(make_stencil(2, WAVE), (0.0, 0.0))
        assert np.array_equal(m.entries, [[2.0, 0.0], [0.0, -2.0]])

    def test_diagonal_shift_gives_rank_one(self):
        s = make_stencil(2, (((1, 1), 1.0),))
        m = coefficient_matrix(s, (0.0, 0.0))
        assert np.array_equal(m.entries, [[1.0, 1.0], [1.0, 1.0]])

    def test_scale_exponent_ignored(self):
        plain = coefficient_matrix(laplace_stencil(3, 0.25), (0.0, 0.0, 0.0))
        scaled = coefficient_matrix(laplace_stencil(3, 0.25, scaled=True), (0.0, 0.0, 0.0))
        assert np.array_equal(plain.entries, scaled.entries)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            terms = tuple(
                (tuple(rng.integers(-3, 4, size=3)), float(rng.standard_normal()))
                for _ in range(6)
            )
            s = make_stencil(3, terms)
            point = tuple(rng.standard_normal(3))
            got = coefficient_matrix(s, point).entries
            assert np.allclose(got, rank_one_sum_oracle(terms, point), rtol=1e-12, atol=1e-12)

    def test_exact_entrywise_symmetry_with_expressions(self):
        s = make_stencil(3, (((1, 2, -1), "exp(x1)*sin(x2)+x3"), ((2, 0, 1), "x1/(1+x2^2)")))
        m = coefficient_matrix(s, (0.37, -1.2, 0.9))
        assert np.array_equal(m.entries, m.entries.T)

    def test_real_shifts_accepted(self):
        s = Stencil(2, 1.0, (StencilTerm((0.5, 1.5), 2.0),))
        m = coefficient_matrix(s, (0.0, 0.0))
        assert m.entries[0, 0] == 0.5

    def test_evaluation_failure_propagates(self):
        s = make_stencil(1, (((1,), "1/x1"),))
        with pytest.raises(Exception, match="point"):
            coefficient_matrix(s, (0.0,))


class TestEigenSymmetric:
    def test_diagonal(self):
        assert np.array_equal(eigen_symmetric(np.diag([2.0, 2.0])), [2.0, 2.0])

    def test_off_diagonal_pair(self):
        eig = eigen_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig, [-1.0, 1.0], rtol=0, atol=1e-14)

    def test_rank_one(self):
        eig = eigen_symmetric(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(eig, [0.0, 2.0], rtol=0, atol=1e-14)

    def test_zero_matrix(self):
        assert np.array_equal(eigen_symmetric(np.zeros((3, 3))), np.zeros(3))

    def test_one_by_one(self):
        assert np.array_equal(eigen_symmetric(np.array([[-4.5]])), [-4.5])

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 6):
            for _ in range(25):
                a = rng.standard_normal((n, n))
                a = (a + a.T) / 2.0
                got = eigen_symmetric(a)
                expected = np.linalg.eigvalsh(a)
                scale = max(1.0, np.abs(expected).max())
                assert np.allclose(got, expected, rtol=0, atol=1e-12 * scale)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestClassifyAt:
    def test_laplacian_elliptic_all_dims(self):
        for dim in (2, 3, 4):
            assert classify_at(laplace_stencil(dim, 0.5), (0.0,) * dim) == "elliptic"

    def test_negated_laplacian_still_elliptic(self):
        s = laplace_stencil(2, 0.5)
        neg = Stencil(2, 0.5, tuple(StencilTerm(t.shift, -t.constant) for t in s.terms))
        assert classify_at(neg, (0.0, 0.0)) == "elliptic"

    def test_wave_like_hyperbolic(self):
        assert classify_at(make_stencil(2, WAVE), (1.0, 2.0)) == "hyperbolic"

    def test_centered_time_heat_parabolic(self):
        s = make_stencil(2, HEAT)
        m = coefficient_matrix(s, (0.0, 0.0))
        assert np.array_equal(m.entries, [[0.0, 0.0], [0.0, -2.0]])
        assert classify_at(s, (0.0, 0.0)) == "parabolic"

    def test_zero_matrix_parabolic(self):
        s = make_stencil(2, (((0, 0), 1.0),))
        assert classify_at(s, (0.0, 0.0)) == "parabolic"

    def test_positive_scaling_preserves_labels(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            terms = tuple(
                (tuple(rng.integers(-2, 3, size=2)), float(rng.standard_normal()))
                for _ in range(4)
            )
            s = make_stencil(2, terms)
            c = float(rng.uniform(0.5, 10.0))
            scaled = make_stencil(2, tuple((sh, c * co) for sh, co in terms))
            assert classify_at(s, (0.0, 0.0)) == classify_at(scaled, (0.0, 0.0))

    def test_global_sign_flip_preserves_labels(self):
        for terms in (WAVE, HEAT, (((2, 0), 1.0), ((1, 0), -2.0), ((0, 2), 1.0), ((0, 1), -2.0))):
            s = make_stencil(2, terms)
            flipped = make_stencil(2, tuple((sh, -co) for sh, co in terms))
            assert classify_at(s, (0.0, 0.0)) == classify_at(flipped, (0.0, 0.0))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_at(laplace_stencil(2, 1.0), (0.0, 0.0), tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_tolerance_that_is_not_positive_is_refused(self, tol):
        s = laplace_stencil(2, 1.0)
        message = f"^tolerance must be positive, got {tol}$"
        with pytest.raises(ValueError, match=message):
            classify_at(s, (0.0, 0.0), tol=tol)
        with pytest.raises(ValueError, match=message):
            classify_region(s, GridSpec((0.0, 0.0), 1.0, (3, 3)), tol=tol)


class TestClassifyRegion:
    def test_constant_coefficients_share_one_label(self):
        probe = GridSpec((-1.0, -1.0), 0.25, (9, 9))
        report = classify_region(laplace_stencil(2, 0.25), probe)
        assert report.counts == {"elliptic": 81}

    def test_mixed_type_region_map(self):
        s = make_stencil(2, TRICOMI, h=0.02)
        probe = GridSpec((0.0, -1.0), 0.02, (1, 101))
        report = classify_region(s, probe, tol=1e-9)
        assert report.counts == {"elliptic": 50, "hyperbolic": 50, "parabolic": 1}
        for k in range(101):
            x2 = report.points[k][1]
            expected = "parabolic" if abs(x2) <= 1e-9 else ("elliptic" if x2 > 0 else "hyperbolic")
            assert report.labels[k] == expected

    def test_eigenvalues_sorted_ascending(self):
        s = make_stencil(2, WAVE)
        report = classify_region(s, GridSpec((0.0, 0.0), 1.0, (2, 2)))
        assert (np.diff(report.eigenvalues, axis=1) >= 0).all()

    @pytest.mark.parametrize(
        "terms, what",
        [
            ((((1, 1), 1e308), ((1, -1), 1e307)), "eigenvalues overflow"),
            ((((2, 0), 1e308),), "coefficient matrices overflow"),
        ],
        ids=["eigenvalues", "entries"],
    )
    def test_overflow_raises_at_points_and_over_probes(self, terms, what):
        s = make_stencil(2, terms)
        with pytest.raises(OverflowError, match=what):
            classify_region(s, GridSpec((0.0, 0.0), 1.0, (2, 2)))
        with pytest.raises(OverflowError, match=what):
            classify_at(s, (0.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            classify_region(laplace_stencil(2, 1.0), GridSpec((0.0,), 1.0, (3,)))


class TestDetTraceEquivalence:
    def test_two_dimensional_labels_match_determinant_analysis(self):
        rng = np.random.default_rng(41)
        tol = 1e-9
        checked = 0
        while checked < 1000:
            terms = tuple(
                (tuple(rng.integers(-2, 3, size=2)), float(rng.standard_normal()))
                for _ in range(rng.integers(2, 6))
            )
            s = make_stencil(2, terms)
            q = coefficient_matrix(s, (0.0, 0.0)).entries
            det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
            scale = max(1.0, float(np.abs(q).max())) ** 2
            if abs(det) <= 1e-6 * scale:
                continue  # too close to the degenerate boundary to compare rules
            oracle = "elliptic" if det > 0 else "hyperbolic"
            assert classify_at(s, (0.0, 0.0), tol) == oracle
            checked += 1


def random_variable_stencil(rng, dim):
    """Shifts in {-1, 0, 1}^dim led by a cross term, with smooth variable coefficients."""
    shifts = [(1, -1) + (0,) * (dim - 2)]
    shifts += [tuple(int(v) for v in rng.integers(-1, 2, size=dim)) for _ in range(rng.integers(3, 7))]
    terms = []
    for shift in shifts:
        a, b, c = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        k = int(rng.integers(1, dim + 1))
        terms.append((shift, f"{a!r} + {b!r}*x{k} + {c!r}*sin(x{dim})*exp(x1)"))
    return make_stencil(dim, terms)


class TestBatchedMatchesPointwise:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_region_matches_classify_at_and_lapack(self, dim):
        rng = np.random.default_rng(60 + dim)
        tol = 1e-9
        rank_one = make_stencil(dim, (((1,) * dim, "1 + x1^2"),))
        stencils = [random_variable_stencil(rng, dim) for _ in range(8)] + [rank_one]
        probe = GridSpec((-1.0,) * dim, 0.5, (5,) * dim)
        seen = set()
        for s in stencils:
            report = classify_region(s, probe, tol)
            for point, eig, label in zip(report.points, report.eigenvalues, report.labels):
                assert label == classify_at(s, point, tol)
                expected = np.linalg.eigvalsh(coefficient_matrix(s, point).entries)
                scale = max(1.0, float(np.abs(expected).max()))
                assert np.allclose(eig, expected, rtol=0, atol=1e-12 * scale)
            seen.update(report.labels)
        assert seen == {"elliptic", "hyperbolic", "parabolic"}
