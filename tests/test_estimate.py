import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from odelof import (
    ArgumentError,
    DynamicalSystem,
    ForcingOperator,
    ForcingSpec,
    PipelineError,
    PipelineRunner,
    PipelineSettings,
    RankError,
    SmoothingOperator,
    builtin_system,
    config_from_dict,
    gradient_match,
    integrate,
    make_basis,
    observe,
    quad_grid,
    quadrature_state,
    with_forcing,
)
from odelof.diagnose import residual_bootstrap_resample
from odelof.estimate import _descend
from odelof.pipeline import CompanionState
from odelof.power import diagnose_series, simulate_series
from odelof.rng import rng_from
from odelof.systems import rate_values
from test_splines import dense_band

LINEAR_THETA = np.array([0.0, -1.0, 1.0, 0.0])
TIMES = np.linspace(0.0, 55.0, 440)


def on_quadrature(xhat, times=TIMES):
    """The smooth's state on the default quadrature of ``times``."""
    return quadrature_state(xhat, *quad_grid(times))


class ExactCircle:
    """Analytic solution of the rotation system, as a smooth."""

    def __call__(self, t, deriv=0):
        t = np.asarray(t, dtype=float)
        if deriv == 0:
            return np.column_stack([np.cos(t), np.sin(t)])
        if deriv == 1:
            return np.column_stack([-np.sin(t), np.cos(t)])
        raise ValueError(deriv)


@pytest.fixture(scope="module")
def linear_system():
    return builtin_system("linear2d")


@pytest.fixture(scope="module")
def linear_smooth(linear_system):
    rng = np.random.default_rng(11)
    path = integrate(linear_system, LINEAR_THETA, np.array([1.0, 0.0]), TIMES)
    y = path.states + rng.normal(0.0, 0.05, path.states.shape)
    basis = make_basis(4, (0.0, 55.0), 0.25)
    return SmoothingOperator(TIMES, basis, 0.01).fit(y)


class TestQuadGrid:
    def test_node_count_and_span(self):
        t = np.linspace(0.0, 3.0, 13)
        nodes, w = quad_grid(t, per_spacing=4)
        assert nodes.size == 4 * (t.size - 1) + 1
        assert np.all(np.diff(nodes) > 0)
        assert w.sum() == pytest.approx(3.0)
        assert nodes[0] == t[0] and nodes[-1] == t[-1]

    def test_per_spacing_one_returns_grid(self):
        t = np.array([0.0, 0.5, 2.0, 2.25])
        nodes, w = quad_grid(t, per_spacing=1)
        assert_allclose(nodes, t)
        assert w.sum() == pytest.approx(2.25)

    def test_integrates_linear_exactly(self):
        t = np.linspace(0.0, 2.0, 9)
        nodes, w = quad_grid(t)
        assert w @ (3.0 * nodes + 1.0) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("per_spacing", range(1, 8))
    @pytest.mark.parametrize("grid", ["uniform", "random", "exponential"])
    def test_nodes_are_the_linspace_pieces(self, grid, per_spacing):
        rng = np.random.default_rng(per_spacing)
        t = {
            "uniform": np.linspace(0.0, 55.0, 440),
            "random": np.cumsum(rng.uniform(0.01, 1.0, 200)),
            "exponential": -3.0 + np.cumsum(np.exp(np.linspace(-12.0, 6.0, 120))),
        }[grid]
        pieces = [
            np.linspace(t[i], t[i + 1], per_spacing + 1)[:-1] for i in range(t.size - 1)
        ]
        expected = np.concatenate(pieces + [t[-1:]])
        nodes, w = quad_grid(t, per_spacing)
        assert nodes.tobytes() == expected.tobytes()
        h = np.diff(expected)
        assert w.tobytes() == (np.r_[0.5 * h, 0.0] + np.r_[0.0, 0.5 * h]).tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ArgumentError):
            quad_grid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ArgumentError):
            quad_grid(np.linspace(0, 1, 5), per_spacing=0)


class TestGradientMatch:
    def test_exact_state_recovers_theta(self, linear_system):
        fit = gradient_match(on_quadrature(ExactCircle()), linear_system)
        assert fit.converged
        assert np.abs(fit.theta - LINEAR_THETA).max() <= 1e-9
        assert fit.objective <= 1e-18

    def test_closed_form_matches_gauss_newton(self, linear_system, linear_smooth):
        closed = gradient_match(on_quadrature(linear_smooth), linear_system)
        forced_gn = dataclasses.replace(linear_system, linear_in_params=False)
        gn = gradient_match(on_quadrature(linear_smooth), forced_gn, theta_init=np.zeros(4))
        assert gn.converged
        assert np.abs(closed.theta - gn.theta).max() <= 1e-8

    def test_multistart_without_init(self, linear_smooth):
        forced_gn = dataclasses.replace(
            builtin_system("linear2d"), linear_in_params=False
        )
        fit = gradient_match(on_quadrature(linear_smooth), forced_gn, seed=5)
        assert fit.converged
        assert fit.objectives.shape == (2,)
        assert fit.objective == pytest.approx(fit.objectives.sum())

    def test_misspecified_model_has_larger_objective(self, linear_system):
        vdp = builtin_system("vanderpol")
        path = integrate(vdp, vdp.theta_default, np.array([0.0, 2.0]), TIMES)
        basis = make_basis(4, (0.0, 55.0), 0.25)
        xhat = SmoothingOperator(TIMES, basis, 0.01).fit(path.states)
        right = gradient_match(on_quadrature(xhat), vdp)
        wrong = gradient_match(on_quadrature(xhat), linear_system)
        # the correct model keeps some smoothing bias at the relaxation
        # jumps, so compare ratios rather than absolute size
        assert wrong.objective > 3.0 * right.objective

    def test_free_mask_fixes_parameters(self, linear_system, linear_smooth):
        mask = np.array([False, True, True, False])
        fit = gradient_match(
            on_quadrature(linear_smooth),
            linear_system,
            theta_init=np.array([0.0, 0.5, 0.5, 0.0]),
            free_mask=mask,
        )
        assert fit.theta[0] == 0.0 and fit.theta[3] == 0.0
        assert np.abs(fit.theta[1] + 1.0) < 0.05
        assert np.abs(fit.theta[2] - 1.0) < 0.05

    def test_free_mask_needs_init(self, linear_system, linear_smooth):
        with pytest.raises(ArgumentError, match="theta_init"):
            gradient_match(
                on_quadrature(linear_smooth),
                linear_system,
                free_mask=np.array([True, True, True, False]),
            )

    def test_constant_state_is_rank_deficient(self, linear_system):
        class Flat:
            def __call__(self, t, deriv=0):
                t = np.asarray(t, dtype=float)
                cols = np.ones((t.size, 2)) if deriv == 0 else np.zeros((t.size, 2))
                return cols

        with pytest.raises(RankError):
            gradient_match(on_quadrature(Flat()), linear_system)


class TestQuadratureState:
    def test_values_on_the_nodes(self, linear_smooth):
        nodes, w = quad_grid(TIMES)
        state = quadrature_state(linear_smooth, nodes, w)
        assert_array_equal(state.nodes, nodes)
        assert_array_equal(state.x, linear_smooth(nodes))
        assert_array_equal(state.dx, linear_smooth(nodes, 1))
        assert_array_equal(state.sqrt_w, np.sqrt(w))

    def test_a_scalar_smooth_is_one_coordinate(self):
        def wave(t, deriv):
            return np.sin(t) if deriv == 0 else np.cos(t)

        state = quadrature_state(wave, *quad_grid(TIMES))
        assert state.x.shape == state.dx.shape == (4 * 439 + 1, 1)

    def test_rejects_mismatched_shapes(self, linear_smooth):
        nodes, w = quad_grid(TIMES)
        with pytest.raises(ArgumentError, match="shapes"):
            quadrature_state(linear_smooth, nodes, w[1:])
        with pytest.raises(ArgumentError, match="shapes"):
            quadrature_state(lambda t, d: np.ones((t.size, 2 + d)), nodes, w)

    def test_mismatch_is_the_rate_residual(self, linear_system, linear_smooth):
        state = on_quadrature(linear_smooth)
        expected = state.dx - rate_values(linear_system, state.x, state.nodes, LINEAR_THETA)
        assert_array_equal(state.mismatch(linear_system, LINEAR_THETA), expected)


class TestDescend:
    """The damped Gauss-Newton loop both estimators run."""

    @staticmethod
    def residual(x):
        r = np.asarray(x, dtype=float)
        return r, float(r @ r), None

    def test_exact_step_converges_on_an_equal_objective(self):
        fit = _descend(self.residual, lambda x, r, _: r, np.array([3.0, -4.0]), 100, 1e-10)
        assert np.array_equal(fit.x, [0.0, 0.0])
        assert (fit.objective, fit.start_objective) == (0.0, 25.0)
        # the second step leaves the objective equal: converged
        assert fit.converged and fit.n_iter == 2

    def test_no_shortened_step_improves(self):
        start = np.array([1.0, 2.0])
        fit = _descend(self.residual, lambda x, r, _: -r, start, 100, 1e-10)
        assert np.array_equal(fit.x, start)
        assert fit.converged and fit.n_iter == 1

    def test_iteration_cap(self):
        fit = _descend(self.residual, lambda x, r, _: 0.5 * r, np.array([8.0]), 3, 1e-10)
        assert np.array_equal(fit.x, [1.0])
        assert not fit.converged and fit.n_iter == 3

    def test_non_finite_trials_are_shortened(self):
        def residual(x):
            r = np.where(np.abs(x) < 1.0, x, np.inf)
            return r, float(r @ r), None

        fit = _descend(residual, lambda x, r, _: np.array([2.4]), np.array([0.5]), 1, 1e-10)
        # the full step leaves |x| < 1, half of it grows the objective, a
        # quarter lands on -0.1
        assert fit.x == pytest.approx([-0.1])
        assert fit.n_iter == 1 and not fit.converged

    def test_non_finite_start_or_step(self):
        assert _descend(self.residual, lambda x, r, _: r, np.array([np.nan]), 100, 1e-10) is None
        assert _descend(self.residual, lambda x, r, _: None, np.array([1.0]), 100, 1e-10) is None


class TestSecondOrderMatch:
    @pytest.fixture(scope="class")
    def order2(self):
        system = builtin_system("vanderpol_order2")
        t = np.linspace(0.0, 6.0, 440)
        path = integrate(system, system.theta_default, np.array([0.2, 0.0]), t, substep=1e-3)
        basis = make_basis(4, (0.0, 6.0), 0.025)
        xhat = SmoothingOperator(t, basis, 1e-8).fit(path.states[:, 0])
        return system, t, xhat, gradient_match(on_quadrature(CompanionState(xhat), t), system)

    def test_noiseless_tight_step_recovery(self, order2):
        system, _, _, fit = order2
        assert np.abs(fit.theta - system.theta_default).max() <= 1e-3

    def test_is_the_regression_of_the_second_derivative(self, order2):
        # the first rate is dx/dt itself, so only x'' = a + b x' + c x +
        # d x^2 + e x (x')^2 is fitted: one weighted linear regression
        _, t, xhat, fit = order2
        nodes, w = quad_grid(t)
        x, xd, xdd = (xhat(nodes, k) for k in range(3))
        design = np.column_stack([np.ones_like(x), xd, x, x * x, x * xd * xd])
        sw = np.sqrt(w)
        coef = np.linalg.lstsq(sw[:, None] * design, sw * xdd, rcond=None)[0]
        assert_allclose(fit.theta, coef, rtol=0, atol=1e-12 * np.abs(coef).max())
        assert fit.objectives[0] == 0.0
        assert fit.objective == pytest.approx(float(w @ (xdd - design @ coef) ** 2), rel=1e-9)


class TestEstimateForcing:
    def test_recovers_sin_forcing_at_true_theta(self, linear_system):
        forced = with_forcing(linear_system, ForcingSpec("additive", 2))
        path = integrate(
            forced,
            LINEAR_THETA,
            np.array([1.0, 0.0]),
            TIMES,
            forcing=np.sin,
            substep=0.01,
        )
        basis = make_basis(4, (0.0, 55.0), 0.25)
        xhat = SmoothingOperator(TIMES, basis, 0.01).fit(path.states)
        g_basis = make_basis(4, (0.0, 55.0), 1.0)
        est = ForcingOperator(forced, g_basis, *quad_grid(TIMES)).fit(
            on_quadrature(xhat), LINEAR_THETA
        )
        interior = np.linspace(4.0, 51.0, 400)
        assert np.abs(est.g(interior) - np.sin(interior)).max() <= 0.05
        assert est.objective <= est.objective_unforced
        assert est.mode == "additive" and est.target == 2

    def test_rejects_a_state_on_another_quadrature(self, linear_system, linear_smooth):
        forced = with_forcing(linear_system, ForcingSpec("additive", 2))
        op = ForcingOperator(forced, make_basis(4, (0.0, 55.0), 1.0), *quad_grid(TIMES))
        with pytest.raises(ArgumentError, match="quadrature"):
            op.fit(on_quadrature(linear_smooth, TIMES[::2]), LINEAR_THETA)
        with pytest.raises(ArgumentError, match="quadrature"):
            op.fit(quadrature_state(linear_smooth, *quad_grid(TIMES, 2)), LINEAR_THETA)
        with pytest.raises(ArgumentError, match="quadrature"):
            op.fit(quadrature_state(linear_smooth, op.nodes, 2.0 * op.weights), LINEAR_THETA)
        # equal nodes and weights are the operator's quadrature
        copy = quadrature_state(linear_smooth, op.nodes.copy(), op.weights.copy())
        assert op.fit(copy, LINEAR_THETA) == op.fit(on_quadrature(linear_smooth), LINEAR_THETA)

    def test_requires_forcing_spec(self, linear_system):
        bare = dataclasses.replace(linear_system, forcing=None)
        g_basis = make_basis(4, (0.0, 55.0), 1.0)
        with pytest.raises(ArgumentError, match="forcing"):
            ForcingOperator(bare, g_basis, *quad_grid(TIMES))

    @pytest.mark.parametrize(
        "penalty, g_spacing, advice",
        [
            # knots finer than the nodes leave g coefficients no node sees
            (0.0, 0.05, "increase the penalty or coarsen the knots"),
            # a valid but huge penalty swamps the data term in rounding
            (1e19, 0.5, "the penalty may be too large for the data's scale"),
        ],
    )
    def test_singular_design_advice_follows_the_penalty(
        self, linear_system, penalty, g_spacing, advice
    ):
        forced = with_forcing(linear_system, ForcingSpec("additive", 2))
        t = np.linspace(0.0, 10.0, 50)
        g_basis = make_basis(4, (0.0, 10.0), g_spacing)
        with pytest.raises(RankError, match=f"^penalized spline fit is singular .*; {advice}$"):
            ForcingOperator(forced, g_basis, *quad_grid(t, 1), penalty)

    def test_replacement_mode_recovers_constant(self):
        system = builtin_system("rosenzweig_macarthur_log")
        truth = system.theta_default
        t = np.linspace(0.0, 110.0, 440)
        path = integrate(system, truth, np.array([0.0, np.log(0.5)]), t)
        series = observe(path, 1e-4, seed=3)
        settings = PipelineSettings(
            x_knot_spacing=0.5,
            g_knot_spacing=3.0,
            theta_init=truth,
            theta_free=np.array([True] * 6 + [False]),
        )
        run = PipelineRunner(t, system, settings).run(series.values)
        rel = np.abs(run.match.theta - truth) / np.abs(truth)
        assert rel.max() <= 0.02
        inner = np.linspace(8.0, 102.0, 300)
        g = np.asarray(run.forcing.g(inner), dtype=float)
        # replaced parameter is p = 1; its estimate should hover there
        assert abs(g.mean() - 1.0) <= 0.05
        assert run.forcing.converged
        assert run.forcing.objective <= run.forcing.objective_unforced


class TestPipelineNull:
    def test_correctly_specified_linear_model(self, linear_system):
        forced = with_forcing(linear_system, ForcingSpec("additive", 2))
        path = integrate(forced, LINEAR_THETA, np.array([1.0, 0.0]), TIMES)
        run = PipelineRunner(TIMES, forced, PipelineSettings()).run(path.states)
        assert np.abs(run.match.theta - LINEAR_THETA).max() <= 0.01
        interior = np.linspace(4.0, 51.0, 400)
        g = np.asarray(run.forcing.g(interior), dtype=float)
        assert np.sqrt(np.mean(g**2)) <= 0.01


def dense_replacement_forcing(xhat, system, theta, g_basis, times, penalty=0.0):
    """Parameter-replacement Gauss-Newton whose step is one dense
    least-squares solve over every quadrature row (and the penalty rows):
    the reference for the banded normal-equation step."""
    nodes, w = quad_grid(times)
    x, dx = xhat(nodes, 0), xhat(nodes, 1)
    psi = g_basis.design_matrix(nodes)
    sw = np.sqrt(w)
    pen_root = penalty_root(g_basis, penalty)

    def residual(coef):
        r = (sw[:, None] * (dx - rate_values(system, x, nodes, theta, psi @ coef))).reshape(-1)
        return r if pen_root is None else np.concatenate([r, pen_root @ coef])

    coef = np.full(g_basis.size, theta[system.forcing.target - 1])
    r = residual(coef)
    obj = float(r @ r)
    converged = False
    for it in range(1, 101):
        jac = dense_jacobian(system, x, nodes, theta, psi, sw, coef, pen_root)[0]
        step = np.linalg.lstsq(jac, r, rcond=None)[0]
        scale, improved = 1.0, False
        while scale > 1e-4:
            trial = coef - scale * step
            r_t = residual(trial)
            obj_t = float(r_t @ r_t)
            if np.all(np.isfinite(r_t)) and obj_t <= obj:
                converged = abs(obj - obj_t) <= 1e-10 * max(obj, 1e-300)
                coef, r, obj, improved = trial, r_t, obj_t, True
                break
            scale *= 0.5
        if converged or not improved:
            return coef, obj, True, it
    return coef, obj, False, it


def penalty_root(g_basis, penalty):
    if penalty == 0:
        return None
    vals, vecs = np.linalg.eigh(dense_band(g_basis.penalty_gram(2)))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))).T * np.sqrt(penalty)


def dense_jacobian(system, x, nodes, theta, psi, sw, coef, pen_root):
    """Explicit Jacobian of the weighted replacement residuals in the g
    coefficients (central difference in g), with the penalty rows, and the
    per-row factors a = -sqrt(w) df/dg it is built from."""
    g = psi @ coef
    h = 1e-6 * max(1.0, float(np.abs(g).max()))
    fp = rate_values(system, x, nodes, theta, g + h)
    df = (fp - rate_values(system, x, nodes, theta, g - h)) / (2.0 * h)
    a = -sw[:, None] * df
    jac = (a[:, :, None] * psi[:, None, :]).reshape(-1, psi.shape[1])
    if pen_root is not None:
        jac = np.vstack([jac, pen_root])
    return jac, a


@pytest.fixture(scope="module")
def rmlog():
    config = config_from_dict({"system": "rosenzweig_macarthur_log", "master_seed": 1})
    series = simulate_series(config, np.random.SeedSequence(1).spawn(1)[0])
    runner = PipelineRunner(series.times, config.model_system(), config.pipeline_settings())
    return series, runner, runner.run(series.values)


class TestReplacementForcing:
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_step_is_the_dense_least_squares_step(self, rmlog, penalty):
        series, runner, base = rmlog
        system, theta = runner.system, base.match.theta
        op = ForcingOperator(system, runner.g_basis, *quad_grid(series.times), penalty)
        x, dx = base.xhat(op.nodes, 0), base.xhat(op.nodes, 1)
        sw = np.sqrt(op.weights)
        rng = np.random.default_rng(4)
        pen_root = penalty_root(runner.g_basis, penalty)
        psi = runner.g_basis.design_matrix(op.nodes)
        for _ in range(3):
            coef = theta[6] * (1.0 + 0.2 * rng.standard_normal(runner.g_basis.size))
            g = psi @ coef
            jac, a = dense_jacobian(system, x, op.nodes, theta, psi, sw, coef, pen_root)
            r = sw[:, None] * (dx - rate_values(system, x, op.nodes, theta, g))
            rhs = r.reshape(-1)
            if pen_root is not None:
                rhs = np.concatenate([rhs, pen_root @ coef])
            dense = np.linalg.lstsq(jac, rhs, rcond=None)[0]
            banded = op._step(coef, a, r)
            assert np.abs(banded - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_refits_repeat_the_dense_iteration_counts(self, rmlog):
        series, runner, base = rmlog
        counts, reference = [], []
        for b in range(20):
            y = residual_bootstrap_resample(series.values, base.fitted_obs, rng_from(b))
            fit = runner.run(y)
            coef, obj, converged, n_iter = dense_replacement_forcing(
                fit.xhat, runner.system, fit.match.theta, runner.g_basis, series.times
            )
            counts.append((fit.forcing.n_iter, fit.forcing.converged))
            reference.append((n_iter, converged))
            assert fit.forcing.objective == pytest.approx(obj, rel=1e-9)
            scale = np.abs(coef).max()
            assert_allclose(fit.forcing.g.coefficients, coef, rtol=0, atol=1e-6 * scale)
        assert counts == reference
        # two of these refits stop at the iteration cap
        assert [b for b, (n, ok) in enumerate(counts) if not ok] == [8, 9]
        assert counts[8][0] == counts[9][0] == 100

    def test_step_lost_to_rounding_is_the_dense_step(self, monkeypatch):
        # on this bootstrap replicate Gauss-Newton drives g to about 1.7e5,
        # where the rate is nearly flat in it, and one banded system is not
        # positive definite in rounding; that step is the dense one, and
        # the test ends as with the dense step throughout
        dense_calls = []
        dense_step = ForcingOperator._dense_step

        def counted(self, *args):
            dense_calls.append(1)
            return dense_step(self, *args)

        monkeypatch.setattr(ForcingOperator, "_dense_step", counted)
        config = config_from_dict(
            {"system": "rosenzweig_macarthur_log", "master_seed": 1, "test": {"b1": 2, "b2": 19}}
        )
        series = simulate_series(config, np.random.SeedSequence(1, spawn_key=(0, 20)))
        seed = np.random.SeedSequence(1, spawn_key=(1, 17, 20))
        report = diagnose_series(config, series, "case2", seed)
        assert len(dense_calls) == 1
        assert report.n_failed == 0
        assert report.p_values == (0.85, 0.1)
        assert report.f0 == pytest.approx(0.6354450736176804, rel=1e-9)

    def test_rate_flat_in_the_replaced_parameter_is_rank_deficient(self):
        def rate(x, t, th, g):
            # the replaced parameter p acts only outside t in [20, 30], which
            # holds the whole support of several g basis functions
            p = th[1] if g is None else g
            on = np.where((np.asarray(t) >= 20.0) & (np.asarray(t) <= 30.0), 0.0, 1.0)
            return (-th[0] * x[..., 0] + p * on)[..., None]

        system = DynamicalSystem(
            "windowed", 1, 2, rate, linear_in_params=True,
            forcing=ForcingSpec("parameter_replacement", 2),
        )
        path = integrate(system, np.array([0.5, 1.0]), np.array([0.0]), TIMES)
        runner = PipelineRunner(TIMES, system)
        with pytest.raises(PipelineError) as err:
            runner.run(path.states)
        assert err.value.stage == "forcing"
        xhat = runner.smoother.fit(path.states)
        with pytest.raises(RankError, match="singular"):
            ForcingOperator(system, runner.g_basis, *quad_grid(TIMES)).fit(
                on_quadrature(xhat), np.array([0.5, 1.0])
            )
        # a curvature penalty ties those coefficients to their neighbours
        penalized = PipelineRunner(TIMES, system, PipelineSettings(g_penalty=1.0))
        assert penalized.run(path.states).forcing.converged
