import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from odelof import (
    ArgumentError,
    BasisGrid,
    DynamicalSystem,
    ForcingOperator,
    ForcingSpec,
    PipelineError,
    PipelineRunner,
    PipelineSettings,
    SmootherSettings,
    SplineFunction,
    TestConfig,
    TimeSeries,
    builtin_system,
    case2_test,
    config_from_dict,
    gradient_match,
    integrate,
    observe,
    quad_grid,
    quadrature_state,
    report_json,
    with_forcing,
)
from odelof import estimate, pipeline
from odelof.errors import RankError
from odelof.pipeline import CompanionState
from odelof.power import simulate_series
from odelof.splines import SmoothingOperator, make_basis

THETA = np.array([0.0, -1.0, 1.0, 0.0])

# additive forcing, the second-order state (x, dx/dt), replacement forcing
REFIT_MODELS = ["linear2d", "vanderpol_order2", "rosenzweig_macarthur_log"]


def refit_case(name):
    """A runner for the config's model and one simulated data set."""
    config = config_from_dict({"system": name, "master_seed": 1})
    series = simulate_series(config, np.random.SeedSequence(1))
    runner = PipelineRunner(series.times, config.model_system(), config.pipeline_settings())
    return runner, series


@pytest.fixture(scope="module")
def linear_run():
    system = builtin_system("linear2d")
    times = np.linspace(0.0, 55.0, 440)
    path = integrate(system, THETA, np.array([1.0, 0.0]), times)
    series = observe(path, 0.01, seed=21)
    runner = PipelineRunner(times, system, PipelineSettings())
    return runner.run(series.values), times


class TestSettings:
    def test_defaults(self):
        s = PipelineSettings()
        assert s.x_knot_spacing == 0.25
        assert s.x_penalty == 0.01
        assert s.g_knot_spacing == 1.0
        assert s.g_penalty == 0.0
        assert s.quad_per_spacing == 4
        assert not s.second_order

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_knot_spacing": 0.0},
            {"g_knot_spacing": -1.0},
            {"x_penalty": -0.01},
            {"g_penalty": float("nan")},
            {"quad_per_spacing": 0},
            {"x_order": 9},
            {"g_order": 1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ArgumentError):
            PipelineSettings(**kwargs)

    # the config turns these messages into errors at the field's key path
    @pytest.mark.parametrize(
        "cls, kwargs, field",
        [
            (PipelineSettings, {"x_order": 9}, "x_order"),
            (SmootherSettings, {"total_dim": 7}, "total_dim"),
            (TestConfig, {"seed": 0, "b2": 0}, "b2"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_messages_start_with_the_field(self, cls, kwargs, field):
        with pytest.raises(ArgumentError, match=rf"^{field} "):
            cls(**kwargs)

    # counts must be integers and flags bools: 2.5 replicates or a flag
    # spelled "no" would otherwise pass the range checks
    @pytest.mark.parametrize(
        "cls, kwargs, field",
        [
            (TestConfig, {"seed": 0, "b1": 2.5}, "b1"),
            (TestConfig, {"seed": 0, "b1": True}, "b1"),
            (TestConfig, {"seed": 0, "b2": 39.0}, "b2"),
            (TestConfig, {"seed": 0, "block_len": 20.5}, "block_len"),
            (TestConfig, {"seed": 0, "end_trim": 10.0}, "end_trim"),
            (PipelineSettings, {"x_order": 4.5}, "x_order"),
            (PipelineSettings, {"g_order": 4.0}, "g_order"),
            (PipelineSettings, {"quad_per_spacing": 2.5}, "quad_per_spacing"),
            (SmootherSettings, {"total_dim": 40.5}, "total_dim"),
            (SmootherSettings, {"interaction": "no"}, "interaction"),
            (PipelineSettings, {"second_order": 1}, "second_order"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_counts_and_flags_have_their_kind(self, cls, kwargs, field):
        with pytest.raises(ArgumentError, match=rf"^{field} must be (an integer|true or false)"):
            cls(**kwargs)

    # a number held as a string or a bool, or a parameter list of the wrong
    # kind, would otherwise raise a bare TypeError later or be accepted
    @pytest.mark.parametrize(
        "cls, kwargs, field, kind",
        [
            (PipelineSettings, {"x_penalty": "0"}, "x_penalty", "a number"),
            (PipelineSettings, {"x_knot_spacing": True}, "x_knot_spacing", "a number"),
            (PipelineSettings, {"x_penalty": True}, "x_penalty", "a number"),
            (PipelineSettings, {"g_knot_spacing": True}, "g_knot_spacing", "a number"),
            (PipelineSettings, {"g_penalty": False}, "g_penalty", "a number"),
            (PipelineSettings, {"theta_init": ("a",)}, "theta_init", "a sequence of finite numbers"),
            (PipelineSettings, {"theta_init": (1.0, np.inf)}, "theta_init", "a sequence of finite"),
            (PipelineSettings, {"theta_init": 1.0}, "theta_init", "a sequence of finite numbers"),
            (PipelineSettings, {"theta_free": (1, 0)}, "theta_free", "a sequence of booleans"),
            (TestConfig, {"seed": 0, "alpha": "0.05"}, "alpha", "a number"),
            (TestConfig, {"seed": 0, "delta": "1"}, "delta", "a number"),
            (TestConfig, {"seed": 0, "max_failed_fraction": None}, "max_failed_fraction", "a number"),
            (TestConfig, {"seed": 0, "alpha": True}, "alpha", "a number"),
            (TestConfig, {"seed": 0, "delta": True}, "delta", "a number"),
            (TestConfig, {"seed": 0, "max_failed_fraction": False}, "max_failed_fraction", "a number"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_numbers_and_sequences_have_their_kind(self, cls, kwargs, field, kind):
        with pytest.raises(ArgumentError, match=rf"^{field} must be {kind}"):
            cls(**kwargs)

    def test_numpy_integers_and_bools_pass(self):
        assert TestConfig(seed=0, b1=np.int64(3), block_len=np.int32(20)).b1 == 3
        assert PipelineSettings(x_order=np.int64(5)).x_order == 5
        assert SmootherSettings(total_dim=np.int64(30), interaction=np.bool_(True)).interaction

    def test_numpy_numbers_and_arrays_pass(self):
        assert TestConfig(seed=0, alpha=np.float64(0.1), delta=np.int64(2)).alpha == 0.1
        s = PipelineSettings(
            x_penalty=np.float32(0.5),
            theta_init=np.array([1.0, 2.0]),
            theta_free=np.array([True, False]),
        )
        assert s.x_penalty == 0.5

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"x_order": 2}, "x_order"),  # default x_penalty 0.01
            ({"x_order": 2, "x_penalty": 0.0, "second_order": True}, "x_order"),
            ({"g_order": 2, "g_penalty": 1.0}, "g_order"),
        ],
    )
    def test_second_derivatives_need_order_three(self, kwargs, field):
        with pytest.raises(ArgumentError, match=rf"^{field} must be >= 3"):
            PipelineSettings(**kwargs)

    def test_order_two_without_second_derivatives(self):
        s = PipelineSettings(x_order=2, x_penalty=0.0, g_order=2)
        assert (s.x_order, s.g_order) == (2, 2)


class TestRunner:
    def test_fit_fields(self, linear_run):
        fit, times = linear_run
        n = times.size
        assert fit.fitted_obs.shape == (n, 2)
        assert fit.state_obs.shape == (n, 2)
        assert fit.g_obs.shape == (n,)
        assert fit.match.theta.shape == (4,)
        assert np.abs(fit.match.theta - THETA).max() < 0.05
        assert_allclose(fit.fitted_obs, fit.xhat(times))
        assert_allclose(fit.g_obs, fit.forcing.g(times))

    @pytest.mark.parametrize("name", REFIT_MODELS)
    def test_grid_refit_equals_evaluation_at_the_points(self, name):
        # the runner evaluates x_hat, dx_hat and g_hat through basis values
        # built once; matching and forcing from the bare smooth, on a
        # quadrature built anew, agree bit for bit
        runner, series = refit_case(name)
        fit = runner.run(series.values)
        s, times = runner.settings, series.times
        state = CompanionState(fit.xhat) if s.second_order else fit.xhat
        assert_array_equal(fit.state_obs, np.asarray(state(times)).reshape(times.size, -1))
        assert_array_equal(fit.fitted_obs, np.asarray(fit.xhat(times)).reshape(times.size, -1))
        assert_array_equal(fit.g_obs, fit.forcing.g(times))
        quadrature = quad_grid(times, s.quad_per_spacing)
        at_points = quadrature_state(state, *quadrature)
        match = gradient_match(
            at_points,
            runner.system,
            theta_init=None if s.theta_init is None else np.asarray(s.theta_init),
            free_mask=None if s.theta_free is None else np.asarray(s.theta_free),
        )
        assert_array_equal(match.theta, fit.match.theta)
        op = ForcingOperator(runner.system, runner.g_basis, *quadrature, s.g_penalty)
        forcing = op.fit(at_points, match.theta)
        assert_array_equal(forcing.g.coefficients, fit.forcing.g.coefficients)
        assert (forcing.mode, forcing.n_iter) == (fit.forcing.mode, fit.forcing.n_iter)

    @pytest.mark.parametrize("name", REFIT_MODELS)
    def test_a_refit_evaluates_the_smooth_once_on_the_nodes(self, name, monkeypatch):
        # the quadrature is built with the runner; a refit evaluates x_hat
        # on its nodes once per derivative of the state, through the node
        # grid, and never at bare points
        runner, series = refit_case(name)
        built, on_nodes, at_points = [], [], []
        for module in (estimate, pipeline):
            monkeypatch.setattr(
                module, "quad_grid", lambda *a, **k: built.append(a) or quad_grid(*a, **k)
            )
        evaluate = SplineFunction.__call__

        def counted(spline, t, deriv=0):
            if not isinstance(t, BasisGrid):
                at_points.append(deriv)
            elif t.points is runner._forcing_op.nodes:
                on_nodes.append(deriv)
            return evaluate(spline, t, deriv)

        monkeypatch.setattr(SplineFunction, "__call__", counted)
        runner.run(series.values)
        assert built == [] and at_points == []
        # the state (x, dx/dt) and its derivative (dx/dt, d2x/dt2) share
        # dx/dt, so each derivative of x_hat is evaluated once
        assert sorted(on_nodes) == ([0, 1, 2] if runner.settings.second_order else [0, 1])

    def test_needs_enough_times(self):
        with pytest.raises(ArgumentError, match="at least 4"):
            PipelineRunner(np.array([0.0, 1.0, 2.0]), builtin_system("linear2d"))

    def test_needs_a_model(self):
        with pytest.raises(ArgumentError, match="model"):
            PipelineRunner(np.linspace(0, 55, 440), None)

    def test_column_mismatch_is_a_smooth_stage_error(self):
        runner = PipelineRunner(np.linspace(0, 55, 440), builtin_system("linear2d"))
        with pytest.raises(PipelineError, match="dimension 2; the series observes 3") as err:
            runner.run(np.zeros((440, 3)))
        assert err.value.stage == "smooth"

    def test_degenerate_data_fails_in_match_stage(self):
        runner = PipelineRunner(np.linspace(0, 55, 440), builtin_system("linear2d"))
        with pytest.raises(PipelineError, match="rank") as err:
            runner.run(np.ones((440, 2)))
        assert err.value.stage == "match"


class TestSecondOrder:
    SETTINGS = PipelineSettings(
        x_knot_spacing=0.025, g_knot_spacing=0.11, second_order=True
    )
    SYSTEM = builtin_system("vanderpol_order2")

    def test_needs_one_column(self):
        runner = PipelineRunner(np.linspace(0, 6, 200), self.SYSTEM, self.SETTINGS)
        with pytest.raises(PipelineError, match="one observed") as err:
            runner.run(np.zeros((200, 2)))
        assert err.value.stage == "smooth"

    def test_needs_a_two_dimensional_model(self):
        with pytest.raises(ArgumentError, match="rossler has dimension 3"):
            PipelineRunner(np.linspace(0, 6, 200), builtin_system("rossler"), self.SETTINGS)

    def test_recovers_coefficients_from_low_noise_data(self):
        system = self.SYSTEM
        truth = system.theta_default
        times = np.linspace(0.0, 6.0, 440)
        path = integrate(system, truth, np.array([0.2, 0.0]), times, substep=1e-3)
        series = observe(path, 1e-4, seed=9, observed=[1])
        runner = PipelineRunner(times, system, self.SETTINGS)
        fit = runner.run(series.values)
        assert runner.system is system
        assert np.abs(fit.match.theta - truth).max() < 0.15
        # state carries the smooth and its derivative for the lag smoother
        assert fit.state_obs.shape == (440, 2)
        assert_allclose(fit.state_obs[:, 0], fit.xhat(times))
        assert_allclose(fit.state_obs[:, 1], fit.xhat(times, 1))
        assert_array_equal(fit.state_obs, CompanionState(fit.xhat)(times))


class TestCompanionState:
    def test_stacks_value_and_derivative(self):
        basis = make_basis(4, (0.0, 1.0), 0.1)
        t = np.linspace(0, 1, 50)
        spline = SmoothingOperator(t, basis, 1e-6).fit(t**2)
        state = CompanionState(spline)
        out = state(t)
        assert out.shape == (50, 2)
        assert_allclose(out[:, 0], spline(t))
        assert_allclose(out[:, 1], spline(t, 1))
        d1 = state(t, 1)
        assert_allclose(d1[:, 0], spline(t, 1))
        assert_allclose(d1[:, 1], spline(t, 2))


class _UnhashableRate:
    """A user rate with ``__eq__`` and so, without ``__hash__``, no hash."""

    def __init__(self):
        self.rate = builtin_system("linear2d").rate

    def __eq__(self, other):
        return isinstance(other, _UnhashableRate)

    def __call__(self, x, t, theta, g):
        return self.rate(x, t, theta, g)


class TestRunnerMemo:
    """The tests take their runner from ``runner_for``: one per process for
    each grid, model and settings, reused by every test on them."""

    CONFIG = TestConfig(seed=3, b1=2, b2=19)

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """The runners built, with the memo empty before and after."""
        built = []

        class Counted(PipelineRunner):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(pipeline, "PipelineRunner", Counted)
        pipeline._RUNNERS.clear()
        yield built
        pipeline._RUNNERS.clear()

    @pytest.fixture(scope="class")
    def linear(self):
        config = config_from_dict({"system": "linear2d", "master_seed": 1})
        series = simulate_series(config, np.random.SeedSequence(1))
        return series, config.model_system(), config.pipeline_settings()

    def report(self, series, system, settings):
        return report_json(case2_test(series, system, self.CONFIG, settings))

    def test_a_reused_runner_reports_the_same_bytes(self, linear, builds):
        first = self.report(*linear)
        second = self.report(*linear)
        assert len(builds) == 1
        assert second == first

    def test_equal_inputs_hit(self, linear, builds):
        series, _, settings = linear
        config = config_from_dict({"system": "linear2d", "master_seed": 1})
        theta = (0.1, -1.0, 1.0, 0.0)
        runners = {
            pipeline.runner_for(times, config.model_system(), PipelineSettings(theta_init=init))
            for times, init in [
                (series.times, theta),
                (list(series.times), list(theta)),
                (series.times.copy(), np.array(theta)),
            ]
        }
        assert len(runners) == len(builds) == 1

    @pytest.mark.parametrize(
        "change",
        ["x_penalty", "g_knot_spacing", "second_order", "model", "forcing_target", "grid"],
    )
    def test_one_changed_input_builds_its_own_runner(self, linear, builds, change):
        series, system, settings = linear
        first = self.report(series, system, settings)
        other_series, other_system, other_settings = series, system, settings
        if change == "x_penalty":
            other_settings = dataclasses.replace(settings, x_penalty=0.02)
        elif change == "g_knot_spacing":
            other_settings = dataclasses.replace(settings, g_knot_spacing=1.25)
        elif change == "second_order":
            other_settings = dataclasses.replace(settings, second_order=True)
            other_series = TimeSeries(series.times, series.values[:, :1])
        elif change == "model":
            other_system = builtin_system("vanderpol")
        elif change == "forcing_target":
            other_system = with_forcing(system, ForcingSpec("additive", 3 - system.forcing.target))
        else:
            times = series.times.copy()
            times[7] = np.nextafter(times[7], np.inf)
            other_series = TimeSeries(times, series.values)
        self.report(other_series, other_system, other_settings)
        assert len(builds) == 2
        assert self.report(series, system, settings) == first
        assert len(builds) == 2

    def test_a_failed_build_is_not_kept(self, builds):
        times = np.linspace(0.0, 1.0, 10)
        # 100 spans of x basis over 10 observations, unpenalized: singular
        settings = PipelineSettings(x_knot_spacing=0.01, x_penalty=0.0)
        for _ in range(2):
            with pytest.raises(RankError, match="singular"):
                pipeline.runner_for(times, builtin_system("linear2d"), settings)
            with pytest.raises(ArgumentError, match="rossler has dimension 3"):
                pipeline.runner_for(
                    times, builtin_system("rossler"), PipelineSettings(second_order=True)
                )
        assert not pipeline._RUNNERS

    def test_an_unhashable_rate_still_runs(self, linear, builds):
        series, system, settings = linear
        user = DynamicalSystem(
            "user", 2, 4, _UnhashableRate(), linear_in_params=True, forcing=system.forcing
        )
        reports = [self.report(series, user, settings) for _ in range(2)]
        assert reports[0] == reports[1]
        assert len(builds) == 2 and not pipeline._RUNNERS

    def test_the_memo_keeps_its_capacity(self, builds):
        times, system = np.linspace(0.0, 55.0, 440), builtin_system("linear2d")
        capacity = pipeline._RUNNER_CAPACITY
        penalties = [0.01 * (k + 1) for k in range(capacity + 2)]
        for penalty in penalties:
            pipeline.runner_for(times, system, PipelineSettings(x_penalty=penalty))
            assert len(pipeline._RUNNERS) <= capacity
        # the latest keys are kept; the first was dropped and builds again
        pipeline.runner_for(times, system, PipelineSettings(x_penalty=penalties[-1]))
        assert len(builds) == capacity + 2
        pipeline.runner_for(times, system, PipelineSettings(x_penalty=penalties[0]))
        assert len(builds) == capacity + 3
        assert len(pipeline._RUNNERS) == capacity
