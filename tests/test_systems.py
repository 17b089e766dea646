import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from odelof import (
    ArgumentError,
    BlowupError,
    ForcingSpec,
    TimeSeries,
    Trajectory,
    builtin_names,
    builtin_system,
    integrate,
    observe,
    rate_values,
    scale_rate,
    simulate_sde,
    with_forcing,
)
from odelof.rng import rng_from
from odelof.systems import BLOWUP_LIMIT, CoordinateRate, DynamicalSystem, float_drift, forced_rate

# independently computed reference: Rossler (a, b, c) = (0.2, 0.2, 3),
# x0 = (1, 1, 0), state at t = 10
ROSSLER_T10 = np.array([-0.535644877056667, -3.675735151134275, 0.047310606616105])

# Ornstein-Uhlenbeck marginal: Var[x(1)] for dx = -x dt + dW, x(0) = 0
OU_VAR_1 = 0.5 * (1.0 - np.exp(-2.0))

# van der Pol second coordinate at t = 1, sigma2 = 0.01, x0 = (0, 2):
# frozen from a 100k-path Euler-Maruyama run
VDP_SDE_VAR = 0.004306


def circle_system():
    return builtin_system("linear2d")


# a start per builtin from which its default-parameter path stays bounded
START = {
    "linear2d": (1.0, 0.0),
    "vanderpol": (0.0, 2.0),
    "rossler": (1.0, 1.0, 0.0),
    "rossler_chaotic": (1.0, 1.0, 0.0),
    "rosenzweig_macarthur_log": (0.0, -0.7),
    "vanderpol_order2": (0.2, 0.0),
}


def reference_systems():
    """Every builtin and two scale_rate systems, each with its start."""
    cases = [pytest.param(builtin_system(n), START[n], id=n) for n in builtin_names()]
    for name, factor in (("vanderpol", 1.7), ("rosenzweig_macarthur_log", 0.8)):
        scaled = scale_rate(builtin_system(name), factor)
        cases.append(pytest.param(scaled, START[name], id=scaled.name))
    return cases


def uneven_times():
    # uneven spacing: the substep count differs between intervals
    return np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.01, 0.2, 60)])


class TestIntegrate:
    def test_circular_motion_matches_closed_form(self):
        sys = circle_system()
        times = np.linspace(0.0, 2 * np.pi, 101)
        traj = integrate(sys, (0.0, -1.0, 1.0, 0.0), (1.0, 0.0), times, substep=0.01)
        assert_allclose(traj.states[:, 0], np.cos(times), atol=1e-8)
        assert_allclose(traj.states[:, 1], np.sin(times), atol=1e-8)

    def test_fourth_order_convergence(self):
        sys = circle_system()
        times = np.array([0.0, 2 * np.pi])
        exact = np.array([1.0, 0.0])

        def err(h):
            traj = integrate(sys, (0.0, -1.0, 1.0, 0.0), (1.0, 0.0), times, substep=h)
            return np.max(np.abs(traj.states[-1] - exact))

        ratio = err(0.02) / err(0.01)
        assert ratio >= 12.0

    def test_rossler_reference_point(self):
        sys = builtin_system("rossler")
        traj = integrate(sys, (0.2, 0.2, 3.0), (1.0, 1.0, 0.0), [0.0, 10.0], substep=2e-3)
        assert_allclose(traj.states[-1], ROSSLER_T10, atol=1e-8)

    def test_exponential_decay(self):
        sys = circle_system()
        times = np.linspace(0.0, 3.0, 31)
        traj = integrate(sys, (-1.0, 0.0, 0.0, -1.0), (1.0, 1.0), times, substep=0.01)
        assert_allclose(traj.states[:, 0], np.exp(-times), rtol=1e-8)

    def test_substep_default_uses_grid_spacing(self):
        sys = circle_system()
        times = np.linspace(0.0, 1.0, 11)
        a = integrate(sys, (0.0, -1.0, 1.0, 0.0), (1.0, 0.0), times)
        b = integrate(sys, (0.0, -1.0, 1.0, 0.0), (1.0, 0.0), times, substep=0.1)
        assert_allclose(a.states, b.states, rtol=0, atol=0)

    def test_blowup_raises_with_time(self):
        sys = builtin_system("vanderpol_order2")
        with pytest.raises(BlowupError) as exc:
            integrate(sys, sys.theta_default, (1.0, 0.0), np.linspace(0.0, 55.0, 441))
        assert exc.value.time > 0

    def test_forcing_callable_shifts_target_row(self):
        sys = circle_system()
        times = np.linspace(0.0, 2.0, 21)
        base = integrate(sys, (0.0, 0.0, 0.0, 0.0), (0.0, 0.0), times, substep=0.01)
        forced = integrate(
            sys, (0.0, 0.0, 0.0, 0.0), (0.0, 0.0), times, substep=0.01, forcing=np.cos
        )
        # with zero dynamics, x2(t) integrates the forcing: sin(t)
        assert_allclose(base.states, 0.0, atol=1e-14)
        assert_allclose(forced.states[:, 1], np.sin(times), atol=1e-8)
        assert_allclose(forced.states[:, 0], 0.0, atol=1e-14)

    def test_rejects_bad_x0(self):
        sys = circle_system()
        with pytest.raises(ArgumentError):
            integrate(sys, sys.theta_default, (1.0, 0.0, 0.0), [0.0, 1.0])

    @pytest.mark.parametrize("substep", [np.nan, np.inf, 0.0, -0.1])
    def test_rejects_bad_substep(self, substep):
        sys = circle_system()
        with pytest.raises(ArgumentError, match="substep"):
            integrate(sys, sys.theta_default, (1.0, 0.0), [0.0, 1.0], substep=substep)


class TestSde:
    def test_zero_noise_first_order_convergence(self):
        sys = circle_system()
        theta = (-1.0, 0.0, 0.0, -1.0)

        def err(step):
            traj = simulate_sde(sys, theta, 0.0, (1.0, 1.0), [0.0, 1.0], step=step, seed=5)
            return abs(traj.states[-1, 0] - np.exp(-1.0))

        ratio = err(0.02) / err(0.01)
        assert 1.5 <= ratio <= 3.0

    def test_ou_variance_matches_closed_form(self):
        sys = circle_system()
        theta = (-1.0, 0.0, 0.0, -1.0)
        finals = np.empty(500)
        for i in range(500):
            traj = simulate_sde(
                sys, theta, 1.0, (0.0, 0.0), [0.0, 1.0], step=2e-3, seed=(82, i)
            )
            finals[i] = traj.states[-1, 0]
        assert abs(np.var(finals) - OU_VAR_1) / OU_VAR_1 < 0.2

    def test_vanderpol_variance_matches_reference(self):
        sys = builtin_system("vanderpol")
        finals = np.empty(300)
        for i in range(300):
            traj = simulate_sde(
                sys, (0.25, 4.0), 0.01, (0.0, 2.0), [0.0, 1.0], step=1e-3, seed=(7, i)
            )
            finals[i] = traj.states[-1, 1]
        assert abs(np.var(finals) - VDP_SDE_VAR) / VDP_SDE_VAR < 0.25

    def test_seed_determinism(self):
        sys = builtin_system("vanderpol")
        a = simulate_sde(sys, (0.25, 4.0), 0.01, (0.0, 2.0), [0.0, 1.0], seed=99)
        b = simulate_sde(sys, (0.25, 4.0), 0.01, (0.0, 2.0), [0.0, 1.0], seed=99)
        c = simulate_sde(sys, (0.25, 4.0), 0.01, (0.0, 2.0), [0.0, 1.0], seed=100)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_seed_required(self):
        sys = builtin_system("vanderpol")
        with pytest.raises(ArgumentError, match="seed"):
            simulate_sde(sys, (0.25, 4.0), 0.01, (0.0, 2.0), [0.0, 1.0])

    @pytest.mark.parametrize("x0", [(np.nan, 2.0), (0.0, np.inf)])
    def test_rejects_non_finite_x0(self, x0):
        sys = builtin_system("vanderpol")
        with pytest.raises(ArgumentError, match="x0"):
            simulate_sde(sys, (0.25, 4.0), 0.01, x0, [0.0, 1.0], seed=1)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0])
    def test_rejects_bad_step(self, step):
        sys = builtin_system("vanderpol")
        with pytest.raises(ArgumentError, match="step"):
            simulate_sde(sys, (0.25, 4.0), 0.01, (0.0, 2.0), [0.0, 1.0], step=step, seed=1)

    @pytest.mark.parametrize("sigma2", [[0.01, 0.02, 0.03], [0.01], [[0.01, 0.02]]])
    def test_rejects_sigma2_of_the_wrong_length(self, sigma2):
        sys = builtin_system("vanderpol")
        with pytest.raises(ArgumentError, match="sigma2 has shape"):
            simulate_sde(sys, (0.25, 4.0), sigma2, (0.0, 2.0), [0.0, 1.0], seed=1)


def sde_reference(system, theta, sigma2, x0, times, step, seed):
    """Euler-Maruyama with one normal draw per substep, the path
    simulate_sde must reproduce bit for bit."""
    rng = rng_from(seed)
    th = np.asarray(theta, dtype=float)
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (system.dim,))
    x = np.asarray(x0, dtype=float)
    out = [x]
    for a, b in zip(times[:-1], times[1:]):
        n_sub = max(1, int(np.ceil((b - a) / step - 1e-12)))
        h = (b - a) / n_sub
        t = a
        for _ in range(n_sub):
            drift = np.asarray(system.rate(x, t, th, None), dtype=float)
            x = x + drift * h + np.sqrt(s2 * h) * rng.standard_normal(system.dim)
            t += h
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > BLOWUP_LIMIT:
                raise BlowupError("diverged", t)
        out.append(x)
    return np.array(out)


class TestSdeReference:
    @pytest.mark.parametrize(
        "name, x0, sigma2",
        [("vanderpol", (0.0, 2.0), 0.01), ("rossler", (1.0, 1.0, 0.0), (0.02, 0.01, 0.0))],
    )
    def test_path_matches_per_step_draws(self, name, x0, sigma2):
        sys = builtin_system(name)
        # uneven spacing: the substep count differs between intervals
        times = np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.01, 0.2, 60)])
        traj = simulate_sde(sys, sys.theta_default, sigma2, x0, times, step=0.007, seed=21)
        ref = sde_reference(sys, sys.theta_default, sigma2, x0, times, 0.007, 21)
        assert traj.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("sys, x0", reference_systems())
    def test_every_builtin_matches_per_step_draws(self, sys, x0):
        times = uneven_times()
        traj = simulate_sde(sys, sys.theta_default, 0.01, x0, times, step=0.007, seed=21)
        ref = sde_reference(sys, sys.theta_default, 0.01, x0, times, 0.007, 21)
        assert traj.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "rate",
        [
            lambda x, t, th, g: th[0] * x,  # grows past the limit
            lambda x, t, th, g: np.full(2, np.nan) if t > 0.3 else -x,  # NaN
            lambda x, t, th, g: np.full(2, np.inf) if t > 0.3 else -x,  # inf
        ],
        ids=["limit", "nan", "inf"],
    )
    def test_blowup_time_matches_per_step_draws(self, rate):
        sys = DynamicalSystem(name="diverging", dim=2, n_params=1, rate=rate)
        times = np.linspace(0.0, 40.0, 81)
        with pytest.raises(BlowupError) as ref:
            sde_reference(sys, (1.0,), 0.01, (1.0, 1.0), times, 0.01, 8)
        with pytest.raises(BlowupError) as exc:
            simulate_sde(sys, (1.0,), 0.01, (1.0, 1.0), times, step=0.01, seed=8)
        assert exc.value.time == ref.value.time


def rk4_reference(system, theta, x0, times, substep, forcing=None):
    """Classical RK4 on numpy arrays, one step at a time: the path integrate
    must reproduce bit for bit."""
    th = np.asarray(theta, dtype=float)

    def f(x, t):
        g = None if forcing is None else float(forcing(t))
        return np.asarray(forced_rate(system, x, t, th, g), dtype=float)

    x = np.asarray(x0, dtype=float)
    out = [x]
    for a, b in zip(times[:-1], times[1:]):
        n_sub = max(1, int(np.ceil((b - a) / substep - 1e-12)))
        h = (b - a) / n_sub
        t = a
        for _ in range(n_sub):
            k1 = f(x, t)
            k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
            k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
            k4 = f(x + h * k3, t + h)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > BLOWUP_LIMIT:
                raise BlowupError("diverged", t)
        out.append(x)
    return np.array(out)


class TestRk4Reference:
    @pytest.mark.parametrize(
        "name, x0, forcing",
        [
            ("vanderpol", (0.0, 2.0), None),
            ("rossler", (1.0, 1.0, 0.0), None),
            ("rosenzweig_macarthur_log", (0.0, -0.7), None),
            ("vanderpol", (0.0, 2.0), np.cos),  # additive
            ("rosenzweig_macarthur_log", (0.0, -0.7), lambda t: 1.0 + 0.2 * np.sin(t)),
        ],
        ids=["vanderpol", "rossler", "rmlog", "vanderpol-forced", "rmlog-forced"],
    )
    def test_path_matches_per_step_rk4(self, name, x0, forcing):
        sys = builtin_system(name)
        # uneven spacing: the substep count differs between intervals
        times = np.cumsum(np.r_[0.0, np.random.default_rng(4).uniform(0.01, 0.2, 60)])
        traj = integrate(sys, sys.theta_default, x0, times, forcing=forcing, substep=0.03)
        ref = rk4_reference(sys, sys.theta_default, x0, times, 0.03, forcing)
        assert traj.states.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize("sys, x0", reference_systems())
    def test_every_builtin_matches_per_step_rk4(self, sys, x0, forced):
        forcing = (lambda t: 0.9 + 0.2 * np.sin(t)) if forced else None
        times = uneven_times()
        traj = integrate(sys, sys.theta_default, x0, times, forcing=forcing, substep=0.03)
        ref = rk4_reference(sys, sys.theta_default, x0, times, 0.03, forcing)
        assert traj.states.tobytes() == ref.tobytes()

    def test_float_division_by_zero_diverges_like_arrays(self):
        # K_C = 0: c / K_C raises on floats and is inf on arrays
        sys = builtin_system("rosenzweig_macarthur_log")
        theta = np.array(sys.theta_default)
        theta[1] = 0.0
        times = np.linspace(0.0, 5.0, 11)
        with np.errstate(all="ignore"):
            with pytest.raises(BlowupError) as ref:
                rk4_reference(sys, theta, (0.0, -0.7), times, 0.1)
            with pytest.raises(BlowupError) as exc:
                integrate(sys, theta, (0.0, -0.7), times, substep=0.1)
        assert exc.value.time == ref.value.time

    @pytest.mark.parametrize(
        "rate",
        [
            lambda x, t, th, g: th[0] * x,  # grows past the limit
            lambda x, t, th, g: np.full(2, np.nan) if t > 0.3 else -x,  # NaN
            lambda x, t, th, g: np.full(2, np.inf) if t > 0.3 else -x,  # inf
        ],
        ids=["limit", "nan", "inf"],
    )
    def test_blowup_time_matches_per_step_rk4(self, rate):
        sys = DynamicalSystem(name="diverging", dim=2, n_params=1, rate=rate)
        times = np.linspace(0.0, 40.0, 81)
        with pytest.raises(BlowupError) as ref:
            rk4_reference(sys, (1.0,), (1.0, 1.0), times, 0.01)
        with pytest.raises(BlowupError) as exc:
            integrate(sys, (1.0,), (1.0, 1.0), times, substep=0.01)
        assert exc.value.time == ref.value.time


class TestRateOutputShape:
    def test_scalar_rate_broadcasts_in_one_dimension(self):
        def scalar(x, t, th, g):
            return th[0] * x[0]

        def array(x, t, th, g):
            return th[0] * x

        times = np.linspace(0.0, 1.0, 11)
        systems = [DynamicalSystem(name="s", dim=1, n_params=1, rate=r) for r in (scalar, array)]
        ode = [integrate(s, (-0.5,), (1.0,), times, substep=0.01).states for s in systems]
        sde = [simulate_sde(s, (-0.5,), 0.1, (1.0,), times, seed=3).states for s in systems]
        assert ode[0].tobytes() == ode[1].tobytes()
        assert sde[0].tobytes() == sde[1].tobytes()

    def test_rate_that_writes_into_its_argument_cannot_move_the_state(self):
        def clean(x, t, th, g):
            return th[0] * x

        def vandal(x, t, th, g):
            out = th[0] * x
            x[:] = 1e6
            return out

        times = np.linspace(0.0, 1.0, 11)
        a, b = (DynamicalSystem(name="s", dim=2, n_params=1, rate=r) for r in (clean, vandal))
        for run in (
            lambda s: integrate(s, (-0.5,), (1.0, 2.0), times, substep=0.01),
            lambda s: simulate_sde(s, (-0.5,), 0.1, (1.0, 2.0), times, seed=3),
        ):
            assert run(a).states.tobytes() == run(b).states.tobytes()

    def test_wrong_length_is_not_truncated(self):
        sys = DynamicalSystem(
            name="long", dim=2, n_params=1, rate=lambda x, t, th, g: np.r_[x, 0.0]
        )
        with pytest.raises(ValueError):
            integrate(sys, (1.0,), (1.0, 1.0), [0.0, 1.0])
        with pytest.raises(ValueError):
            simulate_sde(sys, (1.0,), 0.01, (1.0, 1.0), [0.0, 1.0], seed=1)


class TestObserve:
    def test_zero_noise_returns_states(self):
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), np.arange(6.0).reshape(3, 2))
        series = observe(traj, 0.0, seed=1)
        assert_allclose(series.values, traj.states, rtol=0, atol=0)

    def test_observed_subset_in_order(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        series = observe(traj, 0.0, seed=1, observed=(3, 1))
        assert_allclose(series.values, [[3.0, 1.0], [6.0, 4.0]])

    def test_noise_variance_roughly_right(self):
        traj = Trajectory(np.linspace(0, 1, 2000), np.zeros((2000, 1)))
        series = observe(traj, 0.25, seed=42)
        assert abs(np.var(series.values) - 0.25) / 0.25 < 0.2

    def test_bad_indices_rejected(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(ArgumentError):
            observe(traj, 0.1, seed=1, observed=(0,))
        with pytest.raises(ArgumentError):
            observe(traj, 0.1, seed=1, observed=(3,))

    def test_noise_var_per_observed_coordinate(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)))
        assert observe(traj, [0.0, 0.0], seed=1, observed=(3, 1)).values.shape == (2, 2)
        for noise_var in ([0.1, 0.2, 0.3], [0.1]):
            with pytest.raises(ArgumentError, match="noise_var has shape"):
                observe(traj, noise_var, seed=1, observed=(3, 1))


class TestForcingPlumbing:
    def test_additive_adds_to_target_row(self):
        sys = circle_system()
        x = np.array([1.0, 2.0])
        theta = np.asarray(sys.theta_default)
        base = np.asarray(sys.rate(x, 0.0, theta, None))
        forced = forced_rate(sys, x, 0.0, theta, g=0.7)
        expect = base.copy()
        expect[1] += 0.7
        assert_allclose(forced, expect)

    def test_replacement_is_consumed_by_rate(self):
        sys = builtin_system("rosenzweig_macarthur_log")
        x = np.array([0.1, -0.2])
        theta = np.asarray(sys.theta_default)
        swapped = theta.copy()
        swapped[6] = 2.5
        direct = np.asarray(sys.rate(x, 0.0, swapped, None))
        via_g = forced_rate(sys, x, 0.0, theta, g=2.5)
        assert_allclose(via_g, direct)

    def test_with_forcing_replaces_spec(self):
        sys = with_forcing(circle_system(), ForcingSpec("additive", 1))
        assert sys.forcing.target == 1

    def test_scale_rate_scales(self):
        sys = scale_rate(builtin_system("rossler"), 2.0)
        x = np.array([1.0, 1.0, 0.0])
        theta = np.asarray(sys.theta_default)
        base = builtin_system("rossler").rate(x, 0.0, theta, None)
        assert_allclose(sys.rate(x, 0.0, theta, None), 2.0 * np.asarray(base))
        assert sys.name.endswith("_x2")

    def test_scale_rate_keeps_the_float_path(self):
        base = builtin_system("rosenzweig_macarthur_log")
        sys = scale_rate(base, 0.3)
        assert isinstance(sys.rate, CoordinateRate)
        x = np.random.default_rng(5).normal(size=(9, 2))
        theta = np.asarray(sys.theta_default)
        for g in (None, np.linspace(0.5, 2.0, 9)):
            expect = 0.3 * np.asarray(base.rate(x, 0.0, theta, g), dtype=float)
            assert sys.rate(x, 0.0, theta, g).tobytes() == expect.tobytes()
            drift = float_drift(sys, theta)
            rows = [drift(x[i].tolist(), 0.0, None if g is None else float(g[i])) for i in range(9)]
            assert np.array(rows, dtype=float).tobytes() == expect.tobytes()

    def test_rate_values_batches_rows(self):
        sys = builtin_system("rossler")
        x = np.random.default_rng(3).normal(size=(10, 3))
        t = np.linspace(0, 1, 10)
        theta = np.asarray(sys.theta_default)
        batch = rate_values(sys, x, t, theta)
        rows = np.stack([np.asarray(sys.rate(x[i], t[i], theta, None)) for i in range(10)])
        assert_allclose(batch, rows)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_rate_batches_match_rows(name):
    sys = builtin_system(name)
    theta = np.asarray(sys.theta_default)
    rng = np.random.default_rng(6)
    x = 0.5 * rng.normal(size=(7, sys.dim))
    t = np.linspace(0.0, 1.0, 7)
    gs = [None]
    if sys.forcing.mode == "parameter_replacement":
        gs.append(rng.uniform(0.5, 2.0, 7))
    for g in gs:
        batch = np.asarray(sys.rate(x, t, theta, g))
        assert batch.shape == (7, sys.dim)
        rows = []
        for i in range(7):
            row = np.asarray(sys.rate(x[i], t[i], theta, None if g is None else g[i]))
            assert row.shape == (sys.dim,)
            rows.append(row)
        assert_allclose(batch, rows, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", builtin_names())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_drift_matches_array_rate_bitwise(name, data):
    base = builtin_system(name)
    floats = lambda lo, hi, n: st.lists(st.floats(lo, hi), min_size=n, max_size=n)
    xs = data.draw(floats(-3, 3, base.dim), label="x")
    theta = base.theta_default + np.array(data.draw(floats(-0.5, 0.5, base.n_params)))
    g = data.draw(st.floats(0.2, 3.0), label="g")
    factor = data.draw(st.floats(0.1, 4.0), label="factor")
    t = 0.5
    batch = np.array([xs, np.zeros(base.dim), xs])
    for sys in (base, scale_rate(base, factor)):
        for forcing in (
            ForcingSpec("additive", base.dim),
            ForcingSpec("parameter_replacement", base.n_params),
            None,
        ):
            forced = with_forcing(sys, forcing)
            drift = float_drift(forced, theta)
            for gi in (None, g):
                got = np.array(drift(list(xs), t, gi), dtype=float).tobytes()
                one = np.asarray(forced_rate(forced, np.array(xs), t, theta, gi), dtype=float)
                rows = rate_values(forced, batch, np.full(3, t), theta, gi)
                assert got == one.tobytes() == rows[0].tobytes() == rows[2].tobytes()


@pytest.mark.parametrize("name", builtin_names())
def test_float_drift_matches_array_rate_on_many_states(name):
    # float pow and the array loop disagree on well under 1% of inputs,
    # too rarely for a few dozen examples to show
    sys = builtin_system(name)
    rng = np.random.default_rng(9)
    # off the defaults, where vanderpol_order2's x1**2 coefficient is 0
    theta = sys.theta_default + rng.uniform(-0.5, 0.5, sys.n_params)
    x = 1.5 * rng.normal(size=(20000, sys.dim))
    drift = float_drift(sys, theta)
    rows = np.array([drift(xs, 0.0) for xs in x.tolist()], dtype=float)
    assert rows.tobytes() == rate_values(sys, x, np.zeros(len(x)), theta).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    th1=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    th2=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    x=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
)
def test_linear2d_rate_affine_in_theta(th1, th2, x):
    sys = builtin_system("linear2d")
    xv = np.asarray(x)
    r = lambda th: np.asarray(sys.rate(xv, 0.0, np.asarray(th), None))
    both = r(np.add(th1, th2))
    zero = r(np.zeros(4))
    assert_allclose(both, r(th1) + r(th2) - zero, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    th1=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    th2=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    x=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
)
def test_rossler_rate_affine_in_theta(th1, th2, x):
    sys = builtin_system("rossler")
    xv = np.asarray(x)
    r = lambda th: np.asarray(sys.rate(xv, 0.0, np.asarray(th), None))
    both = r(np.add(th1, th2))
    zero = r(np.zeros(3))
    assert_allclose(both, r(th1) + r(th2) - zero, atol=1e-9)


class TestContainers:
    def test_non_monotone_times_rejected(self):
        with pytest.raises(ArgumentError):
            TimeSeries(np.array([0.0, 2.0, 1.0]), np.zeros((3, 1)))

    def test_nan_rejected(self):
        with pytest.raises(ArgumentError):
            TimeSeries(np.array([0.0, 1.0]), np.array([[np.nan], [0.0]]))

    def test_one_dim_values_promoted(self):
        series = TimeSeries(np.array([0.0, 1.0]), np.array([3.0, 4.0]))
        assert series.values.shape == (2, 1)
        assert series.dim == 1

    def test_values_are_read_only(self):
        series = TimeSeries(np.array([0.0, 1.0]), np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            series.values[0, 0] = 9.0


def test_builtin_names_and_unknown_error():
    names = builtin_names()
    assert "vanderpol" in names and "rossler_chaotic" in names
    with pytest.raises(ArgumentError, match="vanderpol"):
        builtin_system("not_a_system")
