import numpy as np
import pytest
from numpy.testing import assert_allclose

from odelof import (
    ArgumentError,
    DegenerateDesignError,
    SmootherSettings,
    block_permute,
    fit_scatter_smoother,
)
from odelof.smoothers import AdditiveSmootherDesign


@pytest.fixture
def sine_data():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 10, 400)
    y = np.sin(x) + 0.1 * rng.standard_normal(400)
    return x, y


class TestGcvFit:
    def test_sine_recovery(self, sine_data):
        x, y = sine_data
        sm = fit_scatter_smoother(x, y)
        assert np.mean((sm.fitted - np.sin(x)) ** 2) <= 5e-3
        assert 4 < sm.edf < 60

    def test_pure_noise_shrinks_to_mean(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 200)
        sm = fit_scatter_smoother(x, np.zeros(200))
        assert sm.edf == pytest.approx(1.0, abs=0.05)
        assert sm.lam == pytest.approx(1e8)
        assert_allclose(sm.fitted, 0.0, atol=1e-8)

    def test_linear_data_reproduced(self):
        x = np.linspace(0, 1, 150)
        y = 2.0 - 3.0 * x
        sm = fit_scatter_smoother(x, y)
        assert_allclose(sm.fitted, y, atol=1e-6)

    def test_additive_two_predictor_truth(self):
        rng = np.random.default_rng(1)
        x1 = np.linspace(0, 10, 400)
        x2 = rng.uniform(-2, 2, 400)
        truth = np.sin(x1) + x2**2
        sm = fit_scatter_smoother(np.column_stack([x1, x2]), truth + 0.05 * rng.standard_normal(400))
        assert np.mean((sm.fitted - truth) ** 2) <= 2e-3

    def test_matches_dense_solve_on_grid(self, sine_data):
        x, y = sine_data
        design = AdditiveSmootherDesign(x)
        fit = design.fit_values(y)
        X = design.design
        n, k = X.shape
        S = np.zeros((k, k))
        at = 1
        for cols, pen in zip(design._term_cols, design._term_pens):
            kj = cols.shape[1]
            S[at : at + kj, at : at + kj] = pen
            at += kj
        best = None
        for lam in design.lambda_grid:
            A = X.T @ X + design.eps * np.eye(k) + lam * S
            beta = np.linalg.solve(A, X.T @ y)
            rss = float(np.sum((y - X @ beta) ** 2))
            edf = float(np.trace(X @ np.linalg.solve(A, X.T)))
            gcv = rss / (n - edf) ** 2
            if best is None or gcv < best[0] - 1e-15:
                best = (gcv, lam, edf)
        assert fit.lam == pytest.approx(best[1])
        assert fit.edf == pytest.approx(best[2], rel=1e-6)
        assert fit.gcv == pytest.approx(best[0], rel=1e-6)

    def test_multicolumn_responses_share_one_lambda(self, sine_data):
        x, y = sine_data
        design = AdditiveSmootherDesign(x)
        ys = np.column_stack([y, 2 * y, np.zeros_like(y)])
        fit = design.fit_values(ys)
        assert fit.fitted.shape == (400, 3)
        assert np.isscalar(fit.lam) or np.ndim(fit.lam) == 0
        assert_allclose(fit.fitted[:, 1], 2 * fit.fitted[:, 0], atol=1e-10)

    def test_deterministic(self, sine_data):
        x, y = sine_data
        a = fit_scatter_smoother(x, y)
        b = fit_scatter_smoother(x, y)
        assert np.array_equal(a.fitted, b.fitted)
        assert a.lam == b.lam


class TestFitMany:
    @pytest.mark.parametrize("interaction", [False, True])
    def test_columns_match_fit_values(self, crossed_data, interaction):
        x, truth, y = crossed_data
        rng = np.random.default_rng(2)
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=interaction))
        ys = np.column_stack(
            [y, truth, 3.0 * truth + 1.0, np.zeros_like(y), np.full_like(y, 2.5)]
            + [block_permute(y, 20, rng) for _ in range(30)]
            + [rng.standard_normal(y.size) for _ in range(5)]
        )
        fits = design.fit_many(ys)
        assert fits.fitted.shape == ys.shape
        assert fits.coefficients.shape == (design.n_columns, ys.shape[1])
        for j in range(ys.shape[1]):
            one = design.fit_values(ys[:, j])
            assert fits.lam[j] == one.lam
            assert fits.edf[j] == one.edf
            assert fits.gcv[j] == pytest.approx(one.gcv, rel=1e-10, abs=1e-300)
            scale = max(np.max(np.abs(one.fitted)), 1.0)
            assert_allclose(fits.fitted[:, j], one.fitted, rtol=0, atol=1e-12 * scale)
        # an all-zero response ties GCV on the whole grid: the largest lambda
        assert fits.lam[3] == design.lambda_grid[-1]
        # each column has its own lambda
        assert np.unique(fits.lam).size > 3

    def test_one_column(self, sine_data):
        x, y = sine_data
        design = AdditiveSmootherDesign(x)
        fits, one = design.fit_many(y[:, None]), design.fit_values(y)
        assert fits.lam[0] == one.lam and fits.edf[0] == one.edf
        assert_allclose(fits.fitted[:, 0], one.fitted, rtol=0, atol=1e-12)

    def test_responses_are_checked(self, sine_data):
        x, y = sine_data
        design = AdditiveSmootherDesign(x)
        with pytest.raises(ArgumentError, match="2-D"):
            design.fit_many(y)
        with pytest.raises(ArgumentError, match="rows"):
            design.fit_many(np.zeros((10, 3)))
        bad = np.column_stack([y, y])
        bad[4, 1] = np.inf
        with pytest.raises(ArgumentError, match="non-finite"):
            design.fit_many(bad)


class TestPredict:
    def test_predict_matches_fitted_at_training_points(self, sine_data):
        x, y = sine_data
        sm = fit_scatter_smoother(x, y)
        assert_allclose(sm.predict(x), sm.fitted, atol=1e-12)

    def test_predictions_clamp_outside_training_range(self, sine_data):
        x, y = sine_data
        sm = fit_scatter_smoother(x, y)
        inside = sm.predict(np.array([x.max()]))
        outside = sm.predict(np.array([x.max() + 5.0]))
        assert_allclose(outside, inside, atol=1e-12)


class TestDegenerate:
    def test_constant_predictor_rejected(self):
        with pytest.raises(DegenerateDesignError, match="constant predictor"):
            fit_scatter_smoother(np.ones(50), np.random.default_rng(0).normal(size=50))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ArgumentError, match="at least 8"):
            fit_scatter_smoother(np.arange(5.0), np.arange(5.0))

    def test_design_wider_than_data_rejected(self):
        settings = SmootherSettings(total_dim=40, min_term_dim=40)
        with pytest.raises(DegenerateDesignError, match="columns"):
            fit_scatter_smoother(np.linspace(0, 1, 12), np.zeros(12), settings)

    def test_non_finite_rejected(self):
        x = np.linspace(0, 1, 20)
        with pytest.raises(ArgumentError):
            fit_scatter_smoother(x, np.r_[np.nan, np.zeros(19)])


@pytest.fixture
def crossed_data():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.5, 1.5, size=(440, 2))
    truth = np.sin(2.0 * x[:, 0]) * x[:, 1]
    return x, truth, truth + 0.05 * rng.standard_normal(440)


class TestInteraction:
    def test_default_is_additive(self, crossed_data):
        x, _, y = crossed_data
        sm = fit_scatter_smoother(x, y)
        assert sm.design.groups == ((0,), (1,))

    def test_interaction_joins_all_columns(self, crossed_data):
        x, _, y = crossed_data
        sm = fit_scatter_smoother(x, y, SmootherSettings(interaction=True))
        assert sm.design.groups == ((0, 1),)

    def test_joint_fits_crossed_surface_where_additive_cannot(self, crossed_data):
        x, truth, y = crossed_data
        add = fit_scatter_smoother(x, y)
        joint = fit_scatter_smoother(x, y, SmootherSettings(interaction=True))
        assert np.mean((add.fitted - truth) ** 2) > 0.1
        assert np.mean((joint.fitted - truth) ** 2) <= 2e-3

    def test_joint_pure_noise_shrinks_to_mean(self, crossed_data):
        x, _, _ = crossed_data
        noise = np.random.default_rng(5).standard_normal(x.shape[0])
        sm = fit_scatter_smoother(x, noise, SmootherSettings(interaction=True))
        assert sm.edf == pytest.approx(1.0, abs=0.05)

    def test_joint_reproduces_bilinear_exactly(self, crossed_data):
        x, _, _ = crossed_data
        y = 1.0 + 0.5 * x[:, 0] - x[:, 1] + 2.0 * x[:, 0] * x[:, 1]
        sm = fit_scatter_smoother(x, y, SmootherSettings(interaction=True))
        assert_allclose(sm.fitted, y, atol=1e-6)

    def test_joint_predict_matches_fitted(self, crossed_data):
        x, _, y = crossed_data
        sm = fit_scatter_smoother(x, y, SmootherSettings(interaction=True))
        assert_allclose(sm.predict(x), sm.fitted, atol=1e-12)

    def test_joint_gcv_matches_dense_solve(self, crossed_data):
        x, _, y = crossed_data
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=True))
        fit = design.fit_values(y)
        X = design.design
        n, k = X.shape
        S = np.zeros((k, k))
        S[1:, 1:] = design._term_pens[0]
        best = None
        for lam in design.lambda_grid:
            A = X.T @ X + design.eps * np.eye(k) + lam * S
            beta = np.linalg.solve(A, X.T @ y)
            rss = float(np.sum((y - X @ beta) ** 2))
            edf = float(np.trace(X @ np.linalg.solve(A, X.T)))
            gcv = rss / (n - edf) ** 2
            if best is None or gcv < best[0] - 1e-15:
                best = (gcv, lam, edf)
        assert fit.lam == pytest.approx(best[1])
        assert fit.edf == pytest.approx(best[2], rel=1e-6)

    def test_explicit_groups_partition(self, crossed_data):
        x, _, y = crossed_data
        extra = np.random.default_rng(9).uniform(0, 1, x.shape[0])
        sm = fit_scatter_smoother(
            np.column_stack([x, extra]), y, groups=[(0, 1), (2,)]
        )
        assert sm.design.groups == ((0, 1), (2,))

    def test_groups_must_partition_columns(self, crossed_data):
        x, _, _ = crossed_data
        y = np.zeros(x.shape[0])
        with pytest.raises(ArgumentError, match="two groups"):
            fit_scatter_smoother(x, y, groups=[(0, 1), (1,)])
        with pytest.raises(ArgumentError, match="every predictor column"):
            fit_scatter_smoother(x, y, groups=[(0,)])
        with pytest.raises(ArgumentError, match="outside predictor range"):
            fit_scatter_smoother(x, y, groups=[(0,), (2,)])

    def test_last_column_update_reproduces_full_build(self, crossed_data):
        x, _, y = crossed_data
        rng = np.random.default_rng(13)
        groups = [(0, 1), (2,)]
        template = AdditiveSmootherDesign(
            np.column_stack([x, rng.uniform(0, 1, x.shape[0])]), groups=groups
        )
        swapped = np.column_stack([x, rng.uniform(0, 1, x.shape[0])])
        assert_same_fit(
            updated(template, swapped[:, 2]), AdditiveSmootherDesign(swapped, groups=groups), y
        )


def updated(design, column):
    return next(design.with_last_columns([column]))


def fit_gaps(a, b, y):
    """Relative gaps between two designs' fits of y: fitted values, EDF
    and GCV; and whether they picked the same lambda."""
    fit_a, fit_b = a.fit_values(y), b.fit_values(y)
    scale = np.max(np.abs(fit_a.fitted))
    gaps = (
        np.max(np.abs(fit_b.fitted - fit_a.fitted)) / scale,
        abs(fit_b.edf - fit_a.edf) / fit_a.edf,
        abs(fit_b.gcv - fit_a.gcv) / fit_a.gcv,
    )
    return gaps, fit_a.lam == fit_b.lam


def assert_same_fit(update, fresh, y, rtol=1e-10):
    """The update agrees with a full build: the same knots and lambda, and
    fitted values, EDF and GCV up to rounding."""
    assert update.groups == fresh.groups
    assert np.array_equal(
        update.terms[-1].bases[0].breakpoints, fresh.terms[-1].bases[0].breakpoints
    )
    gaps, same_lam = fit_gaps(fresh, update, y)
    assert same_lam
    assert max(gaps) <= rtol
    fit = update.fit_values(y)
    assert_allclose(
        update.design_for(fresh.predictors) @ fit.coefficients,
        fit.fitted,
        rtol=0,
        atol=1e-9 * np.max(np.abs(fit.fitted)),
    )


class TestLastColumnUpdate:
    def test_update_reproduces_full_build(self, sine_data):
        x, y = sine_data
        rng = np.random.default_rng(7)
        template = AdditiveSmootherDesign(np.column_stack([x, rng.uniform(0, 1, x.size)]))
        swapped = np.column_stack([x, rng.uniform(0, 1, x.size)])
        assert_same_fit(updated(template, swapped[:, 1]), AdditiveSmootherDesign(swapped), y)

    def test_updates_chain_from_an_update(self, sine_data):
        x, y = sine_data
        rng = np.random.default_rng(8)
        template = AdditiveSmootherDesign(np.column_stack([x, rng.uniform(0, 1, x.size)]))
        first = updated(template, rng.uniform(0, 1, x.size))
        column = rng.normal(size=x.size)
        assert_same_fit(
            updated(first, column), AdditiveSmootherDesign(np.column_stack([x, column])), y
        )

    def test_rows_match_one_at_a_time(self, sine_data):
        x, y = sine_data
        rng = np.random.default_rng(9)
        template = AdditiveSmootherDesign(np.column_stack([x, rng.uniform(0, 1, x.size)]))
        columns = rng.normal(size=(3, x.size))
        for column, design in zip(columns, template.with_last_columns(columns)):
            a, b = design.fit_values(y), updated(template, column).fit_values(y)
            assert np.array_equal(a.fitted, b.fitted)

    @pytest.mark.parametrize("interaction", [True, False])
    @pytest.mark.parametrize("n_states", [1, 2])
    def test_block_permuted_lags_match_full_builds(self, interaction, n_states):
        # The case-3 use: the states fixed, the last column a lagged
        # response whose blocks are permuted. On this synthetic data GCV
        # often picks the top of the lambda grid, where two full builds of
        # the same design with its rows reversed already differ by up to
        # ~1e-9; the update must stay within a small multiple of that gap.
        rng = np.random.default_rng(20 + n_states)
        t = np.linspace(0.0, 40.0, 360)
        states = np.column_stack([np.sin(t), np.cos(0.7 * t)])[:, :n_states]
        g = states @ np.ones(n_states) + 0.3 * rng.standard_normal(t.size)
        settings = SmootherSettings(interaction=interaction)
        groups = [tuple(range(n_states)), (n_states,)] if interaction else None
        lag = 24
        rows = slice(lag, None)
        template = AdditiveSmootherDesign(
            np.column_stack([states[rows], g[:-lag]]), settings, groups=groups
        )
        g_ks = [block_permute(g, 20, rng) for _ in range(50)]
        updates = template.with_last_columns([g_k[:-lag] for g_k in g_ks])
        update_gap = reversal_gap = 0.0
        for g_k, update in zip(g_ks, updates):
            x = np.column_stack([states[rows], g_k[:-lag]])
            fresh = AdditiveSmootherDesign(x, settings, groups=groups)
            reversed_rows = AdditiveSmootherDesign(x[::-1], settings, groups=groups)
            y = g_k[rows]
            assert np.array_equal(
                update.terms[-1].bases[0].breakpoints, fresh.terms[-1].bases[0].breakpoints
            )
            gaps, same_lam = fit_gaps(fresh, update, y)
            assert same_lam
            update_gap = max(update_gap, *gaps)
            fit_r = reversed_rows.fit_values(y[::-1])
            fit_f = fresh.fit_values(y)
            reversal_gap = max(
                reversal_gap,
                np.max(np.abs(fit_r.fitted[::-1] - fit_f.fitted)) / np.max(np.abs(fit_f.fitted)),
                abs(fit_r.edf - fit_f.edf) / fit_f.edf,
            )
        assert update_gap <= max(10.0 * reversal_gap, 1e-12)

    def test_last_group_must_be_the_column_alone(self, crossed_data):
        x, _, _ = crossed_data
        joint = AdditiveSmootherDesign(x, SmootherSettings(interaction=True))
        with pytest.raises(ArgumentError, match="group of its own"):
            joint.with_last_columns([x[:, 1]])

    def test_columns_are_checked(self, sine_data):
        x, _ = sine_data
        design = AdditiveSmootherDesign(np.column_stack([x, np.cos(x)]))
        with pytest.raises(ArgumentError, match="shape"):
            design.with_last_columns([x[:-1]])
        with pytest.raises(ArgumentError, match="non-finite"):
            design.with_last_columns([np.r_[np.nan, x[1:]]])
        with pytest.raises(DegenerateDesignError, match="constant"):
            design.with_last_columns([x, np.ones_like(x)])
