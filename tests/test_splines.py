import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose, assert_array_equal
from scipy.interpolate import BSpline

import odelof
from odelof import (
    ArgumentError,
    BSplineBasis,
    RankError,
    SmoothingOperator,
    SplineFunction,
    TimeSeries,
    make_basis,
    quad_grid,
)
from odelof.splines import BasisGrid, band_dot, stacked_basis_values, stacked_derivative_gram


def scipy_values(basis, coef, t, deriv=0):
    """Reference values from scipy's BSpline, independent of odelof's
    recursion; identity coefficients give the design matrix."""
    spline = BSpline(basis.knots, coef, basis.degree, extrapolate=True)
    return (spline.derivative(deriv) if deriv else spline)(t)


def scipy_gram(basis, deriv):
    """Gram of the basis's derivatives by a Gauss rule of exact degree on
    each span, with values from scipy's BSpline."""
    xi, wi = leggauss(basis.order)
    a, b = basis.breakpoints[:-1], basis.breakpoints[1:]
    nodes = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * xi).ravel()
    weights = (0.5 * (b - a)[:, None] * wi).ravel()
    d = scipy_values(basis, np.eye(basis.size), nodes, deriv)
    return d.T @ (weights[:, None] * d)


def dense_band(band):
    """The symmetric matrix whose upper band is ``band``, in the layout of
    :meth:`BasisGrid.gram`."""
    u, size = band.shape[0] - 1, band.shape[1]
    out = np.zeros((size, size))
    for k in range(u + 1):
        i = np.arange(size - k)
        out[i, i + k] = out[i + k, i] = band[u - k, k:]
    return out


class TestBasis:
    def test_size_counts_spans_plus_degree(self):
        basis = make_basis(4, (0.0, 55.0), 1.0)
        assert basis.size == 58
        assert basis.degree == 3
        assert basis.domain == (0.0, 55.0)

    def test_support_width_is_order_spans(self):
        basis = make_basis(4, (0.0, 55.0), 1.0)
        assert basis.support_width == pytest.approx(4.0)

    def test_spacing_rounds_to_integer_spans(self):
        basis = make_basis(4, (0.0, 1.0), 0.26)
        # 1 / 0.26 = 3.85 -> 4 spans
        assert basis.size == 4 + 3

    def test_partition_of_unity(self):
        basis = make_basis(4, (0.0, 5.0), 0.5)
        t = np.linspace(0.0, 5.0, 301)
        assert_allclose(basis.design_matrix(t).sum(axis=1), 1.0, atol=1e-12)

    def test_derivative_matches_finite_differences(self):
        basis = make_basis(4, (0.0, 5.0), 0.5)
        t = np.linspace(0.2, 4.8, 97)
        h = 1e-6
        d1 = basis.design_matrix(t, deriv=1)
        fd = (basis.design_matrix(t + h) - basis.design_matrix(t - h)) / (2 * h)
        scale = np.abs(d1).max()
        assert np.max(np.abs(d1 - fd)) / scale <= 1e-4

    def test_penalty_gram_exact_for_quadratic(self):
        # f(t) = t^2 lies in the cubic spline space; integral of f''^2 = 4L
        basis = make_basis(4, (0.0, 3.0), 0.5)
        t = np.linspace(0.0, 3.0, 200)
        design = basis.design_matrix(t)
        coef, *_ = np.linalg.lstsq(design, t**2, rcond=None)
        p = basis.penalty_gram(2)
        assert coef @ dense_band(p) @ coef == pytest.approx(4.0 * 3.0, rel=1e-9)
        assert coef @ band_dot(p, coef) == pytest.approx(4.0 * 3.0, rel=1e-9)

    def test_penalty_gram_first_derivative(self):
        # f(t) = t: integral of f'^2 over [0, 2] = 2
        basis = make_basis(4, (0.0, 2.0), 0.5)
        t = np.linspace(0.0, 2.0, 100)
        coef, *_ = np.linalg.lstsq(basis.design_matrix(t), t, rcond=None)
        assert coef @ dense_band(basis.penalty_gram(1)) @ coef == pytest.approx(2.0, rel=1e-9)

    def test_bases_compare_by_order_and_breakpoints(self):
        basis = make_basis(4, (0.0, 2.0), 0.5)
        same = BSplineBasis(4, np.linspace(0.0, 2.0, 5))
        assert basis == same and hash(basis) == hash(same)
        assert basis != make_basis(3, (0.0, 2.0), 0.5)
        assert basis != make_basis(4, (0.0, 2.0), 0.4)
        assert basis != "basis"

    @pytest.mark.parametrize("order", [True, 4.0])
    def test_order_is_an_integer(self, order):
        with pytest.raises(ArgumentError, match="^order must be an integer"):
            BSplineBasis(order, np.linspace(0.0, 1.0, 3))
        assert BSplineBasis(np.int64(4), np.linspace(0.0, 1.0, 3)).order == 4

    def test_evaluation_outside_domain_rejected(self):
        basis = make_basis(4, (0.0, 1.0), 0.5)
        with pytest.raises(ArgumentError, match="lie in"):
            basis.design_matrix(np.array([1.5]))

    def test_deriv_out_of_range_rejected(self):
        basis = make_basis(4, (0.0, 1.0), 0.5)
        with pytest.raises(ArgumentError):
            basis.design_matrix(np.array([0.5]), deriv=4)


class TestStackedBases:
    @pytest.fixture
    def stack(self):
        # three uneven clamped bases per order, with points at every
        # breakpoint and both domain ends
        rng = np.random.default_rng(4)

        def make(order):
            bases = [
                BSplineBasis(order, np.sort(np.r_[0.0, rng.uniform(0.0, 3.0, 5), 3.0]))
                for _ in range(3)
            ]
            points = np.array([np.r_[b.breakpoints, rng.uniform(0.0, 3.0, 40)] for b in bases])
            return bases, np.array([b.knots for b in bases]), points

        return make

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_values_match_design_matrix(self, stack, order):
        bases, knots, points = stack(order)
        values = stacked_basis_values(knots, order, points)
        for basis, t, v in zip(bases, points, values):
            reference = scipy_values(basis, np.eye(basis.size), t)
            assert_allclose(v, reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_grams_match_penalty_gram(self, stack, order):
        bases, knots, _ = stack(order)
        for deriv in range(order):
            grams = stacked_derivative_gram(knots, order, deriv)
            for basis, gram in zip(bases, grams):
                exact = scipy_gram(basis, deriv)
                assert_allclose(gram, exact, rtol=0, atol=1e-12 * np.abs(exact).max())
                assert_allclose(
                    dense_band(basis.penalty_gram(deriv)),
                    exact,
                    rtol=0,
                    atol=1e-12 * np.abs(exact).max(),
                )


class TestAgainstScipy:
    """The recursion, derivatives and sums against scipy's BSpline."""

    @pytest.fixture
    def uneven(self):
        rng = np.random.default_rng(9)

        def make(order):
            basis = BSplineBasis(order, np.sort(np.r_[-1.0, rng.uniform(-1.0, 2.5, 9), 2.5]))
            t = np.r_[basis.breakpoints, rng.uniform(-1.0, 2.5, 60)]
            return basis, t, rng

        return make

    @staticmethod
    def close(got, ref):
        # the recursion's denominators round apart from scipy's by an ulp
        assert got.shape == ref.shape
        assert_allclose(got, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_design_matrix_and_every_derivative(self, uneven, order):
        basis, t, _ = uneven(order)
        for deriv in range(order):
            ref = scipy_values(basis, np.eye(basis.size), t, deriv)
            self.close(basis.design_matrix(t, deriv), ref)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("outputs", [None, 1, 3])
    def test_spline_values_and_every_derivative(self, uneven, order, outputs):
        basis, t, rng = uneven(order)
        shape = (basis.size,) if outputs is None else (basis.size, outputs)
        coef = rng.normal(size=shape)
        f = SplineFunction(basis, coef)
        for deriv in range(order):
            ref = scipy_values(basis, coef, t, deriv)
            self.close(f(t, deriv), ref)
            # one point in, one value (or row) out
            self.close(np.asarray(f(t[3], deriv)), ref[3])

    def test_right_end_and_clipping_tolerance(self):
        basis = make_basis(4, (0.0, 2.0), 0.5)
        coef = np.random.default_rng(2).normal(size=(basis.size, 2))
        f = SplineFunction(basis, coef)
        lo, hi = basis.domain
        tol = 1e-9 * (hi - lo)
        for deriv in range(4):
            # the right end lies in the last span, as in scipy; points
            # within the tolerance outside the domain take the end values
            ends = scipy_values(basis, coef, np.array([lo, hi]), deriv)
            self.close(f(np.array([hi]), deriv), ends[1:])
            self.close(f(np.array([lo - 0.5 * tol, hi + 0.5 * tol]), deriv), ends)
            self.close(
                basis.design_matrix(np.array([hi + 0.5 * tol]), deriv),
                scipy_values(basis, np.eye(basis.size), np.array([hi]), deriv),
            )
        with pytest.raises(ArgumentError, match="lie in"):
            f(np.array([hi + 2 * tol]))
        with pytest.raises(ArgumentError, match="lie in"):
            basis.design_matrix(np.array([lo - 2 * tol]))

    @pytest.mark.parametrize(
        "domain, n_points, spacing, order",
        [
            # x and g bases of the builtin experiments, at their grids
            ((0.0, 55.0), 440, 0.25, 4),
            ((0.0, 55.0), 440, 1.0, 4),
            ((0.0, 110.0), 440, 0.5, 4),
            ((0.0, 110.0), 440, 3.0, 4),
            ((0.0, 6.0), 440, 0.025, 4),
            ((0.0, 6.0), 440, 0.11, 4),
        ],
    )
    def test_pipeline_bases_at_their_grids(self, domain, n_points, spacing, order):
        basis = make_basis(order, domain, spacing)
        times = np.linspace(*domain, n_points)
        nodes, _ = quad_grid(times, 4)
        coef = np.random.default_rng(n_points).normal(size=(basis.size, 2))
        f = SplineFunction(basis, coef)
        for t in (times, nodes):
            grid = BasisGrid(basis, t, order - 1)
            for deriv in range(order):
                ref = scipy_values(basis, coef, t, deriv)
                self.close(f(t, deriv), ref)
                # through a grid: the same sums, bit for bit
                assert_array_equal(f(grid, deriv), f(t, deriv))
            self.close(basis.design_matrix(grid), scipy_values(basis, np.eye(basis.size), t))


class TestBasisGrid:
    def test_grid_values_equal_direct_values(self):
        basis = make_basis(4, (0.0, 3.0), 0.4)
        t = np.linspace(0.0, 3.0, 37)
        grid = BasisGrid(basis, t, 2)
        f = SplineFunction(basis, np.random.default_rng(5).normal(size=basis.size))
        for deriv in range(3):
            assert_array_equal(f(grid, deriv), f(t, deriv))
            assert_array_equal(basis.design_matrix(grid, deriv), basis.design_matrix(t, deriv))
        cols, vals = grid.nonzero()
        dense = basis.design_matrix(t)
        assert_array_equal(np.take_along_axis(dense, cols, axis=1), vals)
        assert np.count_nonzero(dense) == np.count_nonzero(vals)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_dense_values_are_the_bits_of_combine(self, order):
        # design_matrix scatters the grid's nonzero values of a derivative;
        # combine sums the differenced identity's columns over the values
        # of the lowered order: the same bits, for every derivative, at the
        # knots, at both ends (a -0.0 left end too) and between
        basis = BSplineBasis(order, np.array([0.0, 0.3, 0.35, 1.1, 2.0, 2.05, 3.0]))
        t = np.concatenate(
            [basis.breakpoints, [-0.0, 3.0 + 1e-12], np.random.default_rng(2).uniform(0, 3, 40)]
        )
        identity = np.eye(basis.size)
        top = order - 1
        for points in (t, BasisGrid(basis, t, top), np.float64(1.1), np.array(-0.0), 3.0):
            grid = points if isinstance(points, BasisGrid) else BasisGrid(basis, points, top)
            for deriv in range(order):
                dense = basis.design_matrix(points, deriv)
                combined = grid.combine(identity, deriv)
                assert dense.shape == combined.shape
                assert dense.tobytes() == combined.tobytes()

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_gram_is_the_dense_weighted_gram(self, order):
        basis = BSplineBasis(order, np.array([0.0, 0.3, 0.35, 1.1, 2.0, 2.05, 3.0]))
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 3.0, 60))
        w = rng.uniform(0.5, 2.0, t.size)
        grid = BasisGrid(basis, t, order - 1)
        y = rng.standard_normal((t.size, 2))
        psi = basis.design_matrix(grid)
        assert_allclose(grid.project(y), psi.T @ y, rtol=0, atol=1e-13)
        assert_allclose(grid.project(y[:, 0]), psi.T @ y[:, 0], rtol=0, atol=1e-13)
        for deriv in range(order):
            d = basis.design_matrix(grid, deriv)
            exact = d.T @ (w[:, None] * d)
            atol = 1e-13 * np.abs(exact).max()
            assert_allclose(dense_band(grid.gram(w, deriv)), exact, rtol=0, atol=atol)
            assert_allclose(dense_band(grid.gram(None, deriv)), d.T @ d, rtol=0, atol=atol)
        x = rng.standard_normal(basis.size)
        band = grid.gram(w)
        assert_allclose(band_dot(band, x), dense_band(band) @ x, rtol=0, atol=1e-13)

    def test_grid_checks_basis_and_derivative(self):
        basis = make_basis(4, (0.0, 3.0), 0.4)
        grid = BasisGrid(basis, np.linspace(0.0, 3.0, 7), 1)
        with pytest.raises(ArgumentError, match="deriv must be in 0..1 on this grid"):
            SplineFunction(basis, np.ones(basis.size))(grid, 2)
        other = make_basis(4, (0.0, 3.0), 0.5)
        with pytest.raises(ArgumentError, match="another basis"):
            SplineFunction(other, np.ones(other.size))(grid)
        with pytest.raises(ArgumentError, match="deriv must be in 0..3"):
            BasisGrid(basis, [1.0], 4)


def test_import_loads_no_scipy_and_no_process_pool():
    # the package and its command line load numpy and the standard library
    # only: scipy.linalg loads at the first banded or QR factorization and
    # the process pool at the first study with jobs > 1, so a command that
    # fits nothing pays for neither
    src = str(Path(odelof.__file__).resolve().parents[1])
    code = (
        "import sys; import odelof, odelof.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing') "
        "or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert out.stdout.strip() == "[]"


class TestSplineFunction:
    def test_scalar_in_scalar_out(self):
        basis = make_basis(4, (0.0, 1.0), 0.5)
        f = SplineFunction(basis, np.ones(basis.size))
        assert np.ndim(f(0.3)) == 0
        assert f(0.3) == pytest.approx(1.0)

    def test_vector_coefficients_give_columns(self):
        basis = make_basis(4, (0.0, 1.0), 0.5)
        coef = np.column_stack([np.ones(basis.size), np.zeros(basis.size)])
        f = SplineFunction(basis, coef)
        out = f(np.array([0.2, 0.8]))
        assert out.shape == (2, 2)
        assert_allclose(out[:, 0], 1.0)
        assert_allclose(out[:, 1], 0.0)

    def test_derivative_of_constant_is_zero(self):
        basis = make_basis(4, (0.0, 1.0), 0.5)
        f = SplineFunction(basis, np.ones(basis.size))
        assert_allclose(f(np.linspace(0, 1, 11), 1), 0.0, atol=1e-10)

    def test_json_round_trip_is_exact(self):
        basis = make_basis(4, (0.0, 2.0), 0.3)
        rng = np.random.default_rng(4)
        f = SplineFunction(basis, rng.normal(size=(basis.size, 2)))
        d = json.loads(json.dumps(f.to_dict()))
        g = SplineFunction.from_dict(d)
        t = np.linspace(0, 2, 50)
        assert_allclose(g(t), f(t), rtol=0, atol=0)
        assert g.basis.order == f.basis.order
        assert g == f

    def test_splines_compare_by_basis_and_coefficients(self):
        f = SplineFunction(make_basis(4, (0.0, 1.0), 0.25), np.ones(7))
        same = SplineFunction(BSplineBasis(4, np.linspace(0.0, 1.0, 5)), np.ones(7))
        assert f is not same
        assert f == same
        other_coef = np.ones(7)
        other_coef[3] = 2.0
        assert f != SplineFunction(f.basis, other_coef)
        for basis in (make_basis(4, (0.0, 1.0), 0.5), make_basis(3, (0.0, 1.0), 0.2)):
            assert f != SplineFunction(basis, np.ones(basis.size))
        assert f != SplineFunction(f.basis, np.ones((7, 1)))
        assert f != "spline"


class TestSmoothingOperator:
    def test_cubic_data_reproduced_with_zero_penalty(self):
        t = np.linspace(0.0, 5.0, 200)
        y = 1.0 + 0.5 * t - 0.2 * t**2 + 0.05 * t**3
        basis = make_basis(4, (0.0, 5.0), 0.5)
        fit = SmoothingOperator(t, basis, 0.0).fit(y)
        assert_allclose(fit(t), y, atol=1e-8)

    def test_large_penalty_flattens_to_line(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 5.0, 200)
        y = np.sin(3 * t) + rng.normal(0, 0.1, 200)
        basis = make_basis(4, (0.0, 5.0), 0.5)
        fit = SmoothingOperator(t, basis, 1e12).fit(y)
        vals = fit(t)
        slope, intercept = np.polyfit(t, vals, 1)
        assert_allclose(vals, intercept + slope * t, atol=1e-4)

    def test_multicolumn_fit(self):
        t = np.linspace(0.0, 5.0, 150)
        y = np.column_stack([np.sin(t), np.cos(t)])
        basis = make_basis(4, (0.0, 5.0), 0.25)
        fit = SmoothingOperator(t, basis, 1e-4).fit(y)
        out = fit(t)
        assert out.shape == (150, 2)
        assert_allclose(out, y, atol=2e-3)

    def test_rank_error_when_data_cannot_support_basis(self):
        t = np.linspace(0.0, 55.0, 10)
        basis = make_basis(4, (0.0, 55.0), 0.25)
        with pytest.raises(RankError, match="; increase the penalty or coarsen the knots$"):
            SmoothingOperator(t, basis, 0.0)

    def test_rank_error_when_the_penalty_swamps_the_data(self):
        # valid but huge: the data term is lost to rounding beside it, so
        # more penalty is the wrong advice
        t = np.linspace(0.0, 10.0, 50)
        basis = make_basis(4, (0.0, 10.0), 0.5)
        with pytest.raises(RankError, match="; the penalty may be too large for the data's scale$"):
            SmoothingOperator(t, basis, 1e19)

    def test_timeseries_values_give_one_column(self):
        t = np.linspace(0.0, 5.0, 100)
        series = TimeSeries(t, np.sin(t))
        basis = make_basis(4, (0.0, 5.0), 0.5)
        fit = SmoothingOperator(series.times, basis, 0.01).fit(series.values)
        # TimeSeries values are always 2-D, so the smooth has one column
        assert np.asarray(fit(t)).shape == (100, 1)


    @pytest.mark.parametrize("columns", [None, 2])
    def test_weighted_fit_is_the_dense_penalized_least_squares_solve(self, columns):
        # lstsq on the sqrt(w)-scaled design stacked over penalty rows R,
        # R^T R = penalty times the curvature Gram
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0.0, 5.0, 80))
        w = rng.uniform(0.1, 3.0, t.size)
        y = rng.standard_normal(t.size if columns is None else (t.size, columns))
        basis = make_basis(4, (0.0, 5.0), 0.5)
        penalty = 0.3
        vals, vecs = np.linalg.eigh(scipy_gram(basis, 2))
        rows = (vecs * np.sqrt(np.clip(vals, 0.0, None) * penalty)).T
        sw = np.sqrt(w)
        design = np.vstack([sw[:, None] * basis.design_matrix(t), rows])
        target = np.concatenate([(sw * y.T).T, np.zeros((basis.size,) + y.shape[1:])])
        dense = np.linalg.lstsq(design, target, rcond=None)[0]
        fit = SmoothingOperator(t, basis, penalty, weights=w).fit(y)
        assert fit.coefficients.shape == dense.shape
        assert_allclose(fit.coefficients, dense, rtol=0, atol=1e-10 * np.abs(dense).max())


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_smoothing_is_linear_in_data(a, b):
    t = np.linspace(0.0, 4.0, 60)
    basis = make_basis(4, (0.0, 4.0), 1.0)
    op = SmoothingOperator(t, basis, 0.01)
    y1 = np.sin(t)
    y2 = np.cos(2 * t)
    lhs = op.fit(a * y1 + b * y2)(t)
    rhs = a * op.fit(y1)(t) + b * op.fit(y2)(t)
    assert_allclose(lhs, rhs, atol=1e-9)
