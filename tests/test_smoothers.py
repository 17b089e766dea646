from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import BSpline
from scipy.linalg import eigh, null_space

from odelof import (
    ArgumentError,
    DegenerateDesignError,
    SmootherSettings,
    config_from_dict,
    simulate_series,
)
from odelof.diagnose import block_permutation_indices
from odelof.smoothers import AdditiveSmootherDesign, _terms, build_designs
from odelof.splines import BSplineBasis
from test_splines import dense_band


def one_row(design, y):
    """The GCV fit of one response: row 0 of ``fit_many(y[None])``."""
    fits = design.fit_many(np.asarray(y, dtype=float)[None])
    return SimpleNamespace(**{name: value[0] for name, value in vars(fits).items()})


def smooth(predictors, responses, settings=None, groups=None):
    """A design on the predictors and its GCV fit of the responses."""
    design = AdditiveSmootherDesign(predictors, settings, groups=groups)
    return design, one_row(design, responses)


@pytest.fixture
def sine_data():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 10, 400)
    y = np.sin(x) + 0.1 * rng.standard_normal(400)
    return x, y


class TestGcvFit:
    def test_sine_recovery(self, sine_data):
        x, y = sine_data
        _, sm = smooth(x, y)
        assert np.mean((sm.fitted - np.sin(x)) ** 2) <= 5e-3
        assert 4 < sm.edf < 60

    def test_pure_noise_shrinks_to_mean(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 200)
        _, sm = smooth(x, np.zeros(200))
        assert sm.edf == pytest.approx(1.0, abs=0.05)
        assert sm.lam == pytest.approx(1e8)
        assert_allclose(sm.fitted, 0.0, atol=1e-8)

    def test_linear_data_reproduced(self):
        x = np.linspace(0, 1, 150)
        y = 2.0 - 3.0 * x
        _, sm = smooth(x, y)
        assert_allclose(sm.fitted, y, atol=1e-6)

    def test_additive_two_predictor_truth(self):
        rng = np.random.default_rng(1)
        x1 = np.linspace(0, 10, 400)
        x2 = rng.uniform(-2, 2, 400)
        truth = np.sin(x1) + x2**2
        _, sm = smooth(np.column_stack([x1, x2]), truth + 0.05 * rng.standard_normal(400))
        assert np.mean((sm.fitted - truth) ** 2) <= 2e-3

    def test_matches_dense_solve_on_grid(self, sine_data):
        x, y = sine_data
        design = AdditiveSmootherDesign(x)
        fit = one_row(design, y)
        X, S = design.design, design.penalty
        n, k = X.shape
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

    def test_gcv_scores_the_fitted_values(self, sine_data):
        # the table's RSS is that of the returned fit: the ridge's share of
        # it is taken out (without that, 7e-9 relative here)
        x, y = sine_data
        design, sm = smooth(x, y)
        rss = np.sum((y - sm.fitted) ** 2)
        assert sm.gcv * (design.n - sm.edf) ** 2 == pytest.approx(rss, rel=1e-10)

    def test_deterministic(self, sine_data):
        x, y = sine_data
        _, a = smooth(x, y)
        _, b = smooth(x, y)
        assert np.array_equal(a.fitted, b.fitted)
        assert a.lam == b.lam


class TestFitMany:
    @pytest.mark.parametrize("interaction", [False, True])
    def test_rows_match_one_row_fits(self, crossed_data, interaction):
        x, truth, y = crossed_data
        rng = np.random.default_rng(2)
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=interaction))
        ys = np.array(
            [y, truth, 3.0 * truth + 1.0, np.zeros_like(y), np.full_like(y, 2.5)]
            + list(y[block_permutation_indices(y.size, 20, 30, rng).T])
            + [rng.standard_normal(y.size) for _ in range(5)]
        )
        fits = design.fit_many(ys)
        assert fits.fitted.shape == ys.shape
        assert fits.coefficients.shape == (ys.shape[0], design.design.shape[1])
        for j in range(ys.shape[0]):
            one = one_row(design, ys[j])
            assert fits.lam[j] == one.lam
            assert fits.edf[j] == one.edf
            assert fits.gcv[j] == pytest.approx(one.gcv, rel=1e-10, abs=1e-300)
            scale = max(np.max(np.abs(one.fitted)), 1.0)
            assert_allclose(fits.fitted[j], one.fitted, rtol=0, atol=1e-12 * scale)
        # an all-zero response ties GCV on the whole grid: the largest lambda
        assert fits.lam[3] == design.lambda_grid[-1]
        # each column has its own lambda
        assert np.unique(fits.lam).size > 3

    def test_responses_are_checked(self, sine_data):
        x, y = sine_data
        design = AdditiveSmootherDesign(x)
        with pytest.raises(ArgumentError, match="shape"):
            design.fit_many(y)
        with pytest.raises(ArgumentError, match="shape"):
            design.fit_many(np.zeros((3, 10)))
        bad = np.array([y, y])
        bad[1, 4] = np.inf
        with pytest.raises(ArgumentError, match="non-finite"):
            design.fit_many(bad)


class TestPredict:
    def test_predict_matches_fitted_at_training_points(self, sine_data):
        x, y = sine_data
        design, sm = smooth(x, y)
        assert_allclose(design.design_for(x) @ sm.coefficients, sm.fitted, atol=1e-12)

    def test_predictions_clamp_outside_training_range(self, sine_data):
        x, y = sine_data
        design, sm = smooth(x, y)
        inside = design.design_for(np.array([x.max()])) @ sm.coefficients
        outside = design.design_for(np.array([x.max() + 5.0])) @ sm.coefficients
        assert_allclose(outside, inside, atol=1e-12)

    def test_design_for_checks_predictors(self, sine_data):
        x, y = sine_data
        design, _ = smooth(x, y)
        with pytest.raises(ArgumentError, match="non-finite"):
            design.design_for([np.nan, 5.0])
        with pytest.raises(ArgumentError, match="1-D or 2-D"):
            design.design_for(np.zeros((2, 1, 1)))
        with pytest.raises(ArgumentError, match="predictor columns"):
            design.design_for(np.zeros((2, 2)))


class TestDegenerate:
    def test_constant_predictor_rejected(self):
        with pytest.raises(DegenerateDesignError, match="constant predictor"):
            smooth(np.ones(50), np.random.default_rng(0).normal(size=50))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ArgumentError, match="at least 8"):
            smooth(np.arange(5.0), np.arange(5.0))

    def test_design_wider_than_data_rejected(self):
        # two 6-function terms on 12 rows: 11 columns leave no residual room
        x = np.column_stack([np.linspace(0, 1, 12), np.cos(np.arange(12.0))])
        with pytest.raises(DegenerateDesignError, match="columns"):
            smooth(x, np.zeros(12))

    def test_non_finite_rejected(self):
        x = np.linspace(0, 1, 20)
        with pytest.raises(ArgumentError):
            smooth(x, np.r_[np.nan, np.zeros(19)])


@pytest.fixture
def crossed_data():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.5, 1.5, size=(440, 2))
    truth = np.sin(2.0 * x[:, 0]) * x[:, 1]
    return x, truth, truth + 0.05 * rng.standard_normal(440)


class TestInteraction:
    def test_default_is_additive(self, crossed_data):
        x, _, y = crossed_data
        design, _ = smooth(x, y)
        assert design.groups == ((0,), (1,))

    def test_interaction_joins_all_columns(self, crossed_data):
        x, _, y = crossed_data
        design, _ = smooth(x, y, SmootherSettings(interaction=True))
        assert design.groups == ((0, 1),)

    def test_joint_fits_crossed_surface_where_additive_cannot(self, crossed_data):
        x, truth, y = crossed_data
        _, add = smooth(x, y)
        _, joint = smooth(x, y, SmootherSettings(interaction=True))
        assert np.mean((add.fitted - truth) ** 2) > 0.1
        assert np.mean((joint.fitted - truth) ** 2) <= 2e-3

    def test_joint_pure_noise_shrinks_to_mean(self, crossed_data):
        x, _, _ = crossed_data
        noise = np.random.default_rng(5).standard_normal(x.shape[0])
        _, sm = smooth(x, noise, SmootherSettings(interaction=True))
        assert sm.edf == pytest.approx(1.0, abs=0.05)

    def test_joint_reproduces_bilinear_exactly(self, crossed_data):
        x, _, _ = crossed_data
        y = 1.0 + 0.5 * x[:, 0] - x[:, 1] + 2.0 * x[:, 0] * x[:, 1]
        _, sm = smooth(x, y, SmootherSettings(interaction=True))
        assert_allclose(sm.fitted, y, atol=1e-6)

    def test_joint_predict_matches_fitted(self, crossed_data):
        x, _, y = crossed_data
        design, sm = smooth(x, y, SmootherSettings(interaction=True))
        assert_allclose(design.design_for(x) @ sm.coefficients, sm.fitted, atol=1e-12)

    def test_joint_predictions_clamp_outside_training_box(self, crossed_data):
        x, _, y = crossed_data
        design, _ = smooth(x, y, SmootherSettings(interaction=True))
        lo, hi = x.min(axis=0), x.max(axis=0)
        edge = np.array([[lo[0], hi[1]], [hi[0], hi[1]], [hi[0], 0.3], [0.2, lo[1]]])
        beyond = edge + np.array([[-2.0, 3.0], [1.0, 5.0], [4.0, 0.0], [0.0, -1.5]])
        assert_allclose(design.design_for(beyond), design.design_for(edge), rtol=0, atol=1e-12)

    def test_joint_gcv_matches_dense_solve(self, crossed_data):
        x, _, y = crossed_data
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=True))
        fit = one_row(design, y)
        X, S = design.design, design.penalty
        n, k = X.shape
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
        design, _ = smooth(np.column_stack([x, extra]), y, groups=[(0, 1), (2,)])
        assert design.groups == ((0, 1), (2,))

    def test_groups_must_partition_columns(self, crossed_data):
        x, _, _ = crossed_data
        y = np.zeros(x.shape[0])
        with pytest.raises(ArgumentError, match="two groups"):
            smooth(x, y, groups=[(0, 1), (1,)])
        with pytest.raises(ArgumentError, match="every predictor column"):
            smooth(x, y, groups=[(0,)])
        with pytest.raises(ArgumentError, match="outside predictor range"):
            smooth(x, y, groups=[(0,), (2,)])


def reference_term(x, dims):
    """Columns and penalty of one term over the columns of ``x``, built
    from scipy's B-splines, ``BSplineBasis`` quadrature Grams and an SVD
    null-space sum-to-zero basis; ``dims`` are the per-direction basis
    sizes."""
    bases, block = [], None
    for xj, dim in zip(x.T, dims):
        basis = BSplineBasis(4, np.quantile(xj, np.linspace(0.0, 1.0, dim - 2)))
        marg = BSpline(basis.knots, np.eye(basis.size), basis.degree)(xj)
        if block is not None:
            marg = (block[:, :, None] * marg[:, None, :]).reshape(xj.size, -1)
        block = marg
        bases.append(basis)
    z = null_space(block.mean(axis=0)[None, :])
    pen = 0.0
    for d in range(len(bases)):
        kron = np.ones((1, 1))
        for e, basis in enumerate(bases):
            kron = np.kron(kron, dense_band(basis.penalty_gram(2 if e == d else 0)))
        pen = pen + kron / np.linalg.norm(kron)
    curv = z.T @ pen @ z
    curv = 0.5 * (curv + curv.T)
    curv /= np.linalg.norm(curv)
    w, v = eigh(curv)
    null = v[:, w <= 1e-10 * max(w.max(), 1.0)]
    return block @ z, curv + null @ null.T


@pytest.mark.parametrize(
    "interaction, dims",
    # 440 rows: one column gets all of total_dim (40); a tensor over two
    # gets 6 per direction, the largest with 6 ** 2 <= 40
    [(False, [40]), (True, [6, 6])],
)
def test_terms_match_reference_build(crossed_data, interaction, dims):
    x, _, _ = crossed_data
    x = x[:, : len(dims)]
    design = AdditiveSmootherDesign(x, SmootherSettings(interaction=interaction))
    cols, pen = design.design[:, 1:], design.penalty[1:, 1:]
    ref_cols, ref_pen = reference_term(x, dims)
    assert cols.shape == ref_cols.shape
    # the same column span: cols = ref_cols Q for an orthogonal Q, the two
    # sum-to-zero bases differing by a rotation
    q = np.linalg.lstsq(ref_cols, cols, rcond=None)[0]
    assert np.max(np.abs(ref_cols @ q - cols)) <= 1e-12 * np.max(np.abs(cols))
    assert_allclose(q.T @ q, np.eye(q.shape[1]), rtol=0, atol=1e-12)
    # the same penalty in that basis
    assert_allclose(q.T @ ref_pen @ q, pen, rtol=0, atol=1e-9)


def reference_gcv_fits(design, ys, ridge=True):
    """GCV fits of the rows of ``ys`` from the full (row, lambda) table:
    every cell's RSS yTy - 2 d.z^2 + d^2.z^2 - eps (dz)^T C (dz) on the
    design's eigenbasis (without the last term if not ``ridge``), the
    argmin of each row with ties going to the largest lambda. Returns the
    picks, EDFs and coefficients."""
    v, d, edf, c, _ = (a[0] for a in design._factor)
    z = (ys @ design.design) @ v
    rss = ((d - 2.0) * d @ (z * z)[:, :, None])[:, :, 0]
    w = z[:, :, None] * z[:, None, :] * c
    if ridge:
        rss -= design.eps * np.einsum("...lk,...lk->...l", d @ w, d)
    rss += np.einsum("ij,ij->i", ys, ys)[:, None]
    gcv = np.clip(rss, 0.0, None) / (design.n - edf) ** 2
    pick = d.shape[0] - 1 - np.argmin(gcv[:, ::-1], axis=1)
    return pick, edf[pick], (d[pick] * z) @ v.T


@pytest.fixture(scope="module")
def vdp_states():
    cfg = config_from_dict({"system": "vanderpol", "generator": "ode", "master_seed": 7})
    return simulate_series(cfg, 7).values


def lag_layout(states, lag=20):
    m = states.shape[1]
    x = np.column_stack([states[lag:], states[:-lag]])
    return x, [tuple(range(m)), tuple(range(m, 2 * m))]


class TestGcvPick:
    """fit_many picks lambda from bounds on the ridge term and computes the
    term only where a pick is still open; its picks, EDFs and coefficients
    are those of the full table."""

    @staticmethod
    def responses(design, truth, rng):
        # rows 1 and 4 pick the two ends of the grid; the truth with little
        # noise is nearly interpolated, where the ridge term moves picks
        n = design.n
        y = truth + 0.05 * rng.standard_normal(n)
        signal = design.design @ rng.standard_normal(design.design.shape[1])
        return np.array(
            [y, np.zeros(n), np.full(n, 2.5), 3.0 * y + 1.0, signal, 1e3 * signal]
            + [signal + e * rng.standard_normal(n) for e in (1e-7, 1e-5, 1e-3)]
            + [truth + e * rng.standard_normal(n) for e in (1e-7, 1e-4)]
            + list(y[block_permutation_indices(n, 20, 40, rng).T])
            + [s * rng.standard_normal(n) for s in (1e-6, 1.0, 1e4) for _ in range(4)]
        )

    @pytest.mark.parametrize("layout", ["additive", "tensor", "lag-tensor", "lag-additive"])
    def test_picks_match_the_full_table(self, vdp_states, layout):
        rng = np.random.default_rng(4)
        x, groups = vdp_states, None
        if layout.startswith("lag"):
            x, groups = lag_layout(vdp_states)
            groups = groups if layout == "lag-tensor" else None
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=layout != "additive"), groups)
        ys = self.responses(design, np.sin(2.0 * x[:, 0]) * x[:, 1], rng)
        fits = design.fit_many(ys)
        pick, edf, coef = reference_gcv_fits(design, ys)
        assert np.array_equal(fits.lam, design.lambda_grid[pick])
        assert np.array_equal(fits.edf, edf)
        assert np.array_equal(fits.coefficients, coef)
        # both ends of the grid: the zero row at the largest lambda and, on
        # a tensor design, an exact design combination at the smallest
        assert fits.lam[1] == design.lambda_grid[-1]
        if "tensor" in layout:
            assert fits.lam[4] == design.lambda_grid[0]

    def test_ridge_term_matters_on_the_vanderpol_tensor(self, vdp_states):
        # eps C is not small beside the identity here, so the ridge term
        # moves picks; its bound must hold in every (row, lambda) cell
        design = AdditiveSmootherDesign(vdp_states, SmootherSettings(interaction=True))
        v, d, _, c, norms = (a[0] for a in design._factor)
        assert design.eps * np.linalg.norm(c, 2) > 0.1
        rng = np.random.default_rng(6)
        ys = self.responses(design, np.sin(2.0 * vdp_states[:, 0]) * vdp_states[:, 1], rng)
        dz = d[None] * ((ys @ design.design) @ v)[:, None, :]
        ridge = np.einsum("rlk,kj,rlj->rl", dz, c, dz)
        bound = (np.abs(dz) @ norms) ** 2
        assert np.all(ridge <= bound * (1.0 + 1e-12))
        assert np.all(ridge >= -1e-12 * bound)
        with_ridge = reference_gcv_fits(design, ys)[0]
        assert np.array_equal(design.fit_many(ys).lam, design.lambda_grid[with_ridge])
        assert not np.array_equal(with_ridge, reference_gcv_fits(design, ys, ridge=False)[0])

    def test_picks_match_on_a_crossed_surface(self, crossed_data):
        x, truth, _ = crossed_data
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=True))
        ys = self.responses(design, truth, np.random.default_rng(8))
        fits = design.fit_many(ys)
        pick, edf, _ = reference_gcv_fits(design, ys)
        assert np.array_equal(fits.lam, design.lambda_grid[pick])
        assert np.array_equal(fits.edf, edf)


class TestStackedBuild:
    """Groups whose directions have equal knot counts are built as one
    stack; each term must be the one a build of that term alone gives."""

    @staticmethod
    def assert_terms_match_one_term_builds(design):
        at = 1
        for grp, knots, z in design._bases:
            alone_z, lt, pen = _terms([design.predictors.T[[j]] for j in grp], knots)
            k = lt.shape[1]
            assert np.array_equal(z, alone_z)
            assert np.array_equal(design.design[:, at : at + k], lt[0].T)
            assert np.array_equal(design.penalty[at : at + k, at : at + k], pen[0])
            at += k
        assert at == design.design.shape[1]

    def test_lag_tensor_layout(self, vdp_states):
        x, groups = lag_layout(vdp_states)
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=True), groups)
        sizes = [[kn.shape[1] for kn in knots] for _, knots, _ in design._bases]
        assert sizes[0] == sizes[1]  # one stack of two [4, 4] tensor terms
        self.assert_terms_match_one_term_builds(design)

    def test_additive_layout(self, vdp_states):
        x, _ = lag_layout(vdp_states)
        design = AdditiveSmootherDesign(x, SmootherSettings(interaction=False))
        assert len(design.groups) == 4
        self.assert_terms_match_one_term_builds(design)

    @pytest.mark.parametrize("groups", [None, [(0, 2), (1, 3)]])
    def test_group_that_lost_a_break(self, vdp_states, groups):
        # a column with few distinct values loses close quantile breaks, so
        # its knot vector is shorter and its term cannot join the stack
        x, _ = lag_layout(vdp_states)
        x[:, 0] = np.round(x[:, 0])
        settings = SmootherSettings(total_dim=80, interaction=False)
        design = AdditiveSmootherDesign(x, settings, groups)
        sizes = [kn.shape[1] for _, knots, _ in design._bases for kn in knots]
        assert sizes[0] < max(sizes[1:])
        self.assert_terms_match_one_term_builds(design)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def rossler_states():
    cfg = config_from_dict({"system": "rossler", "generator": "ode", "master_seed": 7})
    return simulate_series(cfg, 7).values


class TestStackAcrossDesigns:
    """build_designs stacks the terms of many designs at once; each design
    must be, bit for bit, the one built alone."""

    @staticmethod
    def layouts(states2, states3):
        rng = np.random.default_rng(3)
        lag2, groups2 = lag_layout(states2)
        lag3, groups3 = lag_layout(states3)
        tied = lag2.copy()
        tied[:, 0] = np.round(tied[:, 0])
        constant = states2.copy()
        constant[:, 0] = 1.5
        return [
            (states2, None),
            (lag2, groups2),  # case 3's h1: states and lagged states
            (states2 + 1e-3 * rng.standard_normal(states2.shape), None),
            (constant, None),
            (lag2, None),
            (states3, None),  # a 3-state system, and its lag layout
            (lag3, groups3),
            (tied, groups2),  # a column that lost breaks to ties
            (tied, None),
            (lag2[:, ::-1] + 0.5, groups2),
        ]

    @staticmethod
    def responses(x, rng):
        truth = np.sin(2.0 * x[:, 0]) * x[:, 1]
        n = x.shape[0]
        rows = [truth + s * rng.standard_normal(n) for s in (1e-3, 0.3, 1.0)]
        return np.array(rows + [np.zeros(n), np.full(n, 2.5)])

    @pytest.mark.parametrize("interaction", [False, True])
    def test_members_match_lone_builds(self, vdp_states, rossler_states, interaction):
        settings = SmootherSettings(interaction=interaction)
        layouts = self.layouts(vdp_states, rossler_states)
        built = build_designs(layouts, settings)
        assert len(built) == len(layouts)
        rng = np.random.default_rng(9)
        for (x, groups), design in zip(layouts, built):
            try:
                alone = AdditiveSmootherDesign(x, settings, groups)
            except DegenerateDesignError as exc:
                # the constant column fails its own build, with its message
                assert type(design) is DegenerateDesignError
                assert str(design) == str(exc)
                assert "constant predictor" in str(exc)
                continue
            assert design.groups == alone.groups
            assert same_bits(design.design, alone.design)
            assert same_bits(design.penalty, alone.penalty)
            assert design.eps == alone.eps
            assert len(design._factor) == len(alone._factor)
            for a, b in zip(design._factor, alone._factor):
                assert same_bits(a, b)
            for (_, kn, z), (_, kn_alone, z_alone) in zip(design._bases, alone._bases):
                assert all(same_bits(a, b) for a, b in zip(kn, kn_alone))
                assert same_bits(z, z_alone)
            ys = self.responses(x, rng)
            fits, fits_alone = design.fit_many(ys), alone.fit_many(ys)
            for name in ("lam", "edf", "gcv", "coefficients", "fitted"):
                assert same_bits(getattr(fits, name), getattr(fits_alone, name)), name
        assert sum(isinstance(d, DegenerateDesignError) for d in built) == 1

    def test_a_group_that_lost_a_break_stacks_apart(self, vdp_states, rossler_states):
        # the tied column's knot vector is shorter than its untied twin's,
        # so the two terms cannot share a stack
        layouts = self.layouts(vdp_states, rossler_states)
        built = build_designs(layouts, SmootherSettings(interaction=False))
        tied, untied = built[8], built[4]
        sizes = [kn.shape[1] for _, knots, _ in tied._bases for kn in knots]
        untied_sizes = [kn.shape[1] for _, knots, _ in untied._bases for kn in knots]
        assert sizes[0] < untied_sizes[0]
        assert sizes[1:] == untied_sizes[1:]

    def test_lone_failures_keep_their_errors(self, vdp_states):
        # predictors that fail their checks come back as those errors
        short = vdp_states[:5]
        wide = vdp_states[:12]  # 11 columns for 12 rows
        built = build_designs(
            [(short, None), (vdp_states, None), (wide, None)], SmootherSettings(total_dim=40)
        )
        assert isinstance(built[0], ArgumentError) and "at least 8 rows" in str(built[0])
        assert isinstance(built[1], AdditiveSmootherDesign)
        with pytest.raises(DegenerateDesignError) as exc:
            AdditiveSmootherDesign(wide, SmootherSettings(total_dim=40))
        assert type(built[2]) is DegenerateDesignError and str(built[2]) == str(exc.value)
