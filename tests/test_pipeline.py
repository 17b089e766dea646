import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from odelof import (
    ArgumentError,
    ForcingOperator,
    PipelineError,
    PipelineRunner,
    PipelineSettings,
    SmootherSettings,
    TestConfig,
    builtin_system,
    gradient_match,
    integrate,
    observe,
)
from odelof.pipeline import CompanionState
from odelof.splines import SmoothingOperator, make_basis

THETA = np.array([0.0, -1.0, 1.0, 0.0])


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

    def test_numpy_integers_and_bools_pass(self):
        assert TestConfig(seed=0, b1=np.int64(3), block_len=np.int32(20)).b1 == 3
        assert PipelineSettings(x_order=np.int64(5)).x_order == 5
        assert SmootherSettings(total_dim=np.int64(30), interaction=np.bool_(True)).interaction

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

    def test_grid_refit_equals_evaluation_at_the_points(self, linear_run):
        # the runner evaluates x_hat, dx_hat and g_hat through basis values
        # built once; matching and forcing from the bare smooth agree bit for bit
        fit, times = linear_run
        system = builtin_system("linear2d")
        assert_array_equal(fit.fitted_obs, fit.xhat(times))
        assert_array_equal(fit.g_obs, fit.forcing.g(times))
        match = gradient_match(fit.xhat, system, times)
        assert_array_equal(match.theta, fit.match.theta)
        forcing = ForcingOperator(system, fit.forcing.g.basis, times).fit(fit.xhat, match.theta)
        assert_array_equal(forcing.g.coefficients, fit.forcing.g.coefficients)

    def test_needs_enough_times(self):
        with pytest.raises(ArgumentError, match="at least 4"):
            PipelineRunner(np.array([0.0, 1.0, 2.0]), builtin_system("linear2d"))

    def test_needs_a_model(self):
        with pytest.raises(ArgumentError, match="model"):
            PipelineRunner(np.linspace(0, 55, 440), None)

    def test_column_mismatch_is_a_smooth_stage_error(self):
        runner = PipelineRunner(np.linspace(0, 55, 440), builtin_system("linear2d"))
        with pytest.raises(PipelineError, match="columns") as err:
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
        with pytest.raises(ArgumentError, match="rossler has dim 3"):
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
