"""Dynamical systems, trajectory generation, and noisy observation.

A :class:`DynamicalSystem` bundles a rate function dx/dt = f(x; t, theta)
with metadata the estimators need: parameter count, whether f is affine in
theta, and where an empirical forcing g(t) enters (added to one coordinate's
equation, or replacing one parameter). Rate callables take
``(x, t, theta, g)`` and must broadcast over a leading batch axis of ``x``;
``g is None`` means unforced. Additive injection is applied centrally by
:func:`forced_rate`, so additive systems may ignore their ``g`` argument;
parameter-replacement systems consume it themselves.

The fixed-step simulators (:func:`integrate`, :func:`simulate_sde`) hold
the state as Python floats: on 2- and 3-element arrays, numpy's dispatch
costs more than the arithmetic. The builtins are :class:`CoordinateRate`
instances, written once as a function of coordinates and parameters; the
estimators call it on array columns and the simulators on Python floats,
and both round alike because powers and exponentials stay numpy ufuncs
(Python's float pow and ``math.exp`` differ from the array loops in the
last bit on a few percent of inputs). Any other rate gets a fresh float64
array of shape (d,) per stage, so it cannot write into the stepper's state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, BlowupError
from .rng import SeedLike, rng_from

RateFn = Callable[[np.ndarray, object, np.ndarray, object], np.ndarray]

# States beyond this magnitude count as divergence during integration.
BLOWUP_LIMIT = 1e8

_FORCING_MODES = ("additive", "parameter_replacement")


@dataclass(frozen=True)
class ForcingSpec:
    """Where an empirical forcing g(t) enters a system.

    Parameters
    ----------
    mode : str
        ``"additive"``: g(t) is added to one coordinate's rate equation.
        ``"parameter_replacement"``: g(t) replaces one scalar parameter.
    target : int
        1-based index of the affected coordinate (additive) or of the
        replaced parameter (replacement).
    """

    mode: str
    target: int

    def __post_init__(self):
        if self.mode not in _FORCING_MODES:
            raise ArgumentError(
                f"forcing mode must be one of {_FORCING_MODES}, got {self.mode!r}"
            )
        if not isinstance(self.target, (int, np.integer)) or self.target < 1:
            raise ArgumentError(f"forcing target must be a 1-based index, got {self.target!r}")


@dataclass(frozen=True)
class DynamicalSystem:
    """A parametric rate function with forcing metadata.

    Parameters
    ----------
    name : str
        Identifier used in configs and reports.
    dim : int
        State dimension d.
    n_params : int
        Length of the parameter vector theta.
    rate : callable
        ``rate(x, t, theta, g) -> dx/dt`` with ``x`` of shape (d,) or (n, d)
        and matching output. ``g`` is None, a scalar, or shape (n,).
    linear_in_params : bool
        True when the rate is affine in theta for every fixed (x, t, g);
        enables the closed-form gradient-matching path.
    forcing : ForcingSpec or None
        Default forcing entry point for this system.
    theta_default : ndarray or None
        Conventional parameter values, used by configs when none are given.
    """

    name: str
    dim: int
    n_params: int
    rate: RateFn
    linear_in_params: bool = False
    forcing: Optional[ForcingSpec] = None
    theta_default: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ArgumentError(f"system dimension must be >= 1, got {self.dim}")
        if self.n_params < 0:
            raise ArgumentError(f"n_params must be >= 0, got {self.n_params}")
        if self.forcing is not None and self.forcing.mode == "additive":
            if self.forcing.target > self.dim:
                raise ArgumentError(
                    f"additive forcing target {self.forcing.target} exceeds dim {self.dim}"
                )
        if self.forcing is not None and self.forcing.mode == "parameter_replacement":
            if self.forcing.target > self.n_params:
                raise ArgumentError(
                    f"replaced parameter index {self.forcing.target} exceeds "
                    f"n_params {self.n_params}"
                )
        if self.theta_default is not None:
            th = np.asarray(self.theta_default, dtype=float)
            if th.shape != (self.n_params,):
                raise ArgumentError(
                    f"theta_default has shape {th.shape}, expected ({self.n_params},)"
                )
            object.__setattr__(self, "theta_default", _frozen(th))


def with_forcing(system: DynamicalSystem, forcing: Optional[ForcingSpec]) -> DynamicalSystem:
    """Copy of ``system`` with a different forcing entry point."""
    return dataclasses.replace(system, forcing=forcing)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_times(times: np.ndarray, what: str) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ArgumentError(f"{what} must be a 1-D array with at least 2 entries")
    if not np.all(np.isfinite(t)):
        raise ArgumentError(f"{what} contain non-finite values")
    if np.any(np.diff(t) <= 0):
        raise ArgumentError(f"{what} must be strictly increasing")
    return _frozen(t)


@dataclass(frozen=True)
class Trajectory:
    """States of a system on a time grid: ``states[i]`` is x(times[i])."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = _check_times(self.times, "trajectory times")
        x = np.asarray(self.states, dtype=float)
        if x.ndim != 2 or x.shape[0] != t.size:
            raise ArgumentError(
                f"states must have shape (len(times), d), got {x.shape} for {t.size} times"
            )
        if not np.all(np.isfinite(x)):
            raise ArgumentError("trajectory states contain non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", _frozen(x))

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class TimeSeries:
    """Observed (possibly noisy, possibly partial) values on a time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _check_times(self.times, "observation times")
        y = np.asarray(self.values, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.ndim != 2 or y.shape[0] != t.size:
            raise ArgumentError(
                f"values must have shape (len(times), m), got {y.shape} for {t.size} times"
            )
        if not np.all(np.isfinite(y)):
            raise ArgumentError("observed values contain non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", _frozen(y))

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _check_theta(system: DynamicalSystem, theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.shape != (system.n_params,):
        raise ArgumentError(
            f"theta has shape {th.shape}, {system.name} expects ({system.n_params},)"
        )
    if not np.all(np.isfinite(th)):
        raise ArgumentError("theta contains non-finite values")
    return th


@dataclass(frozen=True)
class CoordinateRate:
    """A rate written once, as a function of coordinates and parameters.

    ``coords(x1, ..., xd, theta1, ..., thetap)`` returns the d rate
    coordinates. Called as a rate, ``(x, t, theta, g)``, it passes the
    columns ``x[..., j]`` and stacks the results, so it broadcasts over a
    batch; the simulators call ``coords`` on Python floats instead.

    Parameters
    ----------
    coords : callable
        The coordinate function; it must not depend on t.
    replaced : int, optional
        1-based index of the parameter that a forcing g takes the place of.
        Without one the rate ignores g.
    """

    coords: Callable[..., Sequence]
    replaced: Optional[int] = None

    def params(self, theta: Sequence, g=None) -> Sequence:
        """The parameters ``coords`` receives: theta, with g in its place."""
        if g is None or self.replaced is None:
            return theta
        params = list(theta)
        params[self.replaced - 1] = g
        return params

    def __call__(self, x, t, theta, g):
        cols = [x[..., j] for j in range(x.shape[-1])]
        return np.array(self.coords(*cols, *self.params(theta, g))).T


def forced_rate(system: DynamicalSystem, x: np.ndarray, t, theta: np.ndarray, g=None) -> np.ndarray:
    """Rate with the forcing applied according to the system's ForcingSpec."""
    if g is None or system.forcing is None:
        return system.rate(x, t, theta, None)
    if system.forcing.mode == "additive":
        out = np.array(system.rate(x, t, theta, None), dtype=float)
        out[..., system.forcing.target - 1] += g
        return out
    return system.rate(x, t, theta, g)


def rate_values(
    system: DynamicalSystem,
    states: np.ndarray,
    times: np.ndarray,
    theta: np.ndarray,
    g=None,
) -> np.ndarray:
    """Evaluate the (forced) rate on a batch of states.

    Tries one vectorized call first; falls back to a row loop for user
    systems whose rate does not broadcast.
    """
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.ndim != 2 or states.shape[1] != system.dim:
        raise ArgumentError(f"states must have shape (n, {system.dim})")
    try:
        out = np.asarray(forced_rate(system, states, times, theta, g), dtype=float)
        if out.shape == states.shape:
            return out
    except (ValueError, IndexError, TypeError):
        pass
    out = np.empty_like(states)
    for i in range(states.shape[0]):
        gi = None if g is None else (g if np.isscalar(g) else g[i])
        out[i] = forced_rate(system, states[i], float(times[i]), theta, gi)
    return out


def _drift(system: DynamicalSystem, th: np.ndarray, xs: list, t: float, g=None) -> list:
    """One evaluation of the forced rate at the float state ``xs``, as floats.

    The rate receives a fresh float64 array of shape (d,), so a rate that
    writes into its argument cannot touch the stepper's state.
    """
    x = np.array(xs, dtype=float)
    out = np.asarray(forced_rate(system, x, t, th, g), dtype=float)
    if out.shape != x.shape:
        out = np.broadcast_to(out, x.shape)
    return out.tolist()


def float_drift(system: DynamicalSystem, th: np.ndarray) -> Callable:
    """The forced rate as ``drift(xs, t, g=None)`` on a list of floats.

    Resolved once per simulation. A :class:`CoordinateRate` runs on Python
    floats, with theta converted once and the forcing applied as
    :func:`forced_rate` applies it: additive g added to the target
    coordinate, or g in place of the replaced parameter. Any other rate
    goes through :func:`_drift`.
    """
    rate = system.rate
    if not isinstance(rate, CoordinateRate):
        return lambda xs, t, g=None: _drift(system, th, xs, t, g)
    coords = rate.coords
    params = th.tolist()
    forcing = system.forcing
    target = None if forcing is None else forcing.target - 1

    def drift(xs, t, g=None):
        try:
            if g is None or forcing is None:
                return coords(*xs, *params)
            if forcing.mode == "additive":
                out = list(coords(*xs, *params))
                out[target] += g
                return out
            return coords(*xs, *rate.params(params, g))
        except ZeroDivisionError:
            # a float division by zero raises where an array's gives inf or nan
            return _drift(system, th, xs, t, g)

    return drift


def _check_start(system: DynamicalSystem, x0) -> list:
    x = np.asarray(x0, dtype=float)
    if x.shape != (system.dim,):
        raise ArgumentError(f"x0 has shape {x.shape}, expected ({system.dim},)")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("x0 contains non-finite values")
    return x.tolist()


def _check_variances(value, size: int, what: str) -> np.ndarray:
    # a scalar, or one nonnegative variance per coordinate
    v = np.asarray(value, dtype=float)
    if v.ndim and v.shape != (size,):
        raise ArgumentError(f"{what} has shape {v.shape}, expected a scalar or ({size},)")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ArgumentError(f"{what} must be nonnegative and finite, got {value!r}")
    return np.broadcast_to(v, (size,))


def _check_step(value, what: str) -> float:
    h = float(value)
    if not (h > 0 and math.isfinite(h)):
        raise ArgumentError(f"{what} must be positive and finite, got {value}")
    return h


def _diverged(xs: list) -> bool:
    # the negated comparison is also true for NaN
    for v in xs:
        if not -BLOWUP_LIMIT <= v <= BLOWUP_LIMIT:
            return True
    return False


def integrate(
    system: DynamicalSystem,
    theta,
    x0,
    times,
    forcing: Optional[Callable[[float], float]] = None,
    substep: Optional[float] = None,
) -> Trajectory:
    """Integrate dx/dt = f(x; t, theta [, g]) with classical RK4.

    Uses a fixed internal substep no larger than the smallest grid spacing;
    each grid interval is tiled by the largest uniform substep that divides
    it, so results are deterministic for a given grid and substep.

    Parameters
    ----------
    forcing : callable, optional
        g(t), applied per the system's ForcingSpec. Must be defined on the
        whole time range.
    substep : float, optional
        Upper bound on the internal step. Defaults to the smallest grid
        spacing (one step per interval).

    Raises
    ------
    BlowupError
        If the state leaves |x| <= 1e8 or becomes non-finite.
    """
    th = _check_theta(system, theta)
    t_grid = _check_times(np.asarray(times, dtype=float), "integration times")
    xs = _check_start(system, x0)
    spacing = np.diff(t_grid)
    h_max = _check_step(spacing.min() if substep is None else substep, "substep")
    drift = float_drift(system, th)

    def f(x, t):
        return drift(x, t, None if forcing is None else float(forcing(t)))

    out = np.empty((t_grid.size, system.dim))
    out[0] = xs
    for i in range(t_grid.size - 1):
        dt = float(spacing[i])
        n_sub = max(1, math.ceil(dt / h_max - 1e-12))
        h = dt / n_sub
        t = float(t_grid[i])
        for _ in range(n_sub):
            k1 = f(xs, t)
            k2 = f([x + 0.5 * h * k for x, k in zip(xs, k1)], t + 0.5 * h)
            k3 = f([x + 0.5 * h * k for x, k in zip(xs, k2)], t + 0.5 * h)
            k4 = f([x + h * k for x, k in zip(xs, k3)], t + h)
            xs = [
                x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for x, a, b, c, d in zip(xs, k1, k2, k3, k4)
            ]
            t += h
            if _diverged(xs):
                raise BlowupError(f"integration of {system.name} diverged at t={t:.6g}", t)
        out[i + 1] = xs
    return Trajectory(t_grid, out)


def simulate_sde(
    system: DynamicalSystem,
    theta,
    sigma2,
    x0,
    times,
    step: float = 1e-3,
    seed: SeedLike = None,
) -> Trajectory:
    """Euler-Maruyama simulation of dx = f(x; t, theta) dt + sigma dW.

    ``step`` is an upper bound: each grid interval is tiled by the largest
    uniform substep <= step that divides it exactly, so the number of noise
    draws is a deterministic function of the grid and the same seed always
    reproduces the same path.

    Parameters
    ----------
    sigma2 : float or sequence
        Diffusion variance per unit time, scalar or one value per coordinate.
    seed : int or SeedSequence
        Required; drives the Brownian increments.
    """
    th = _check_theta(system, theta)
    t_grid = _check_times(np.asarray(times, dtype=float), "simulation times")
    xs = _check_start(system, x0)
    s2 = _check_variances(sigma2, system.dim, "sigma2")
    step = _check_step(step, "step")
    if seed is None:
        raise ArgumentError("simulate_sde requires an explicit seed")
    rng = rng_from(seed)
    drift = float_drift(system, th)

    out = np.empty((t_grid.size, system.dim))
    out[0] = xs
    for i in range(t_grid.size - 1):
        dt = float(t_grid[i + 1] - t_grid[i])
        n_sub = max(1, math.ceil(dt / step - 1e-12))
        h = dt / n_sub
        # one draw per interval: the same stream as one draw per substep
        noise = (np.sqrt(s2 * h) * rng.standard_normal((n_sub, system.dim))).tolist()
        t = float(t_grid[i])
        for dw in noise:
            xs = [x + v * h + w for x, v, w in zip(xs, drift(xs, t), dw)]
            t += h
            if _diverged(xs):
                raise BlowupError(f"SDE simulation of {system.name} diverged at t={t:.6g}", t)
        out[i + 1] = xs
    return Trajectory(t_grid, out)


def observe(
    trajectory: Trajectory,
    noise_var,
    seed: SeedLike,
    observed: Optional[Sequence[int]] = None,
) -> TimeSeries:
    """Add i.i.d. Gaussian observation noise to (a subset of) coordinates.

    Parameters
    ----------
    noise_var : float or sequence
        Observation noise variance, scalar or one value per observed
        coordinate.
    observed : sequence of int, optional
        1-based coordinate indices to keep, in order. Defaults to all.
    """
    if observed is None:
        idx = np.arange(trajectory.dim)
    else:
        idx = np.asarray(list(observed), dtype=int) - 1
        if idx.size == 0:
            raise ArgumentError("observed must name at least one coordinate")
        if np.any(idx < 0) or np.any(idx >= trajectory.dim):
            raise ArgumentError(
                f"observed indices must lie in 1..{trajectory.dim}, got {list(observed)}"
            )
    v = _check_variances(noise_var, idx.size, "noise_var")
    rng = rng_from(seed)
    clean = trajectory.states[:, idx]
    noisy = clean + np.sqrt(v) * rng.standard_normal(clean.shape)
    return TimeSeries(trajectory.times, noisy)


def scale_rate(system: DynamicalSystem, factor: float) -> DynamicalSystem:
    """System with its rate multiplied by a constant (time speed-up)."""
    if not np.isfinite(factor) or factor == 0:
        raise ArgumentError(f"scale factor must be finite and nonzero, got {factor}")
    base = system.rate
    if isinstance(base, CoordinateRate):
        # each coordinate times factor: the bits of factor * base(...)
        def coords(*args):
            return [factor * v for v in base.coords(*args)]

        scaled = dataclasses.replace(base, coords=coords)
    else:

        def scaled(x, t, theta, g):
            return factor * np.asarray(base(x, t, theta, g), dtype=float)

    return dataclasses.replace(system, name=f"{system.name}_x{factor:g}", rate=scaled)


# --- builtin systems -------------------------------------------------------
#
# Each builtin rate is written once, coordinate-wise, as a CoordinateRate: the
# same arithmetic runs on array columns (estimators) and on Python floats
# (simulators), and must round alike. Squares are written as products, since
# an array's x**2 is a multiply and a float's is C pow. Cubes and exponentials
# go through numpy's ufunc loops, since Python's float pow and math.exp round
# differently from those on a few percent of inputs.


def _cube(x):
    """np.power(x, 3); a Python float for a scalar, so a step stays in floats."""
    y = np.power(x, 3)
    return y if isinstance(x, np.ndarray) else float(y)


def _exp(x):
    """np.exp(x); a Python float for a scalar, so a step stays in floats."""
    y = np.exp(x)
    return y if isinstance(x, np.ndarray) else float(y)


def _linear2d(x1, x2, a11, a12, a21, a22):
    return a11 * x1 + a12 * x2, a21 * x1 + a22 * x2


def _vanderpol(x1, x2, c, d):
    return c * x2, d * (x2 - x1 - _cube(x2) / 3.0)


def _rossler(x1, x2, x3, a, b, c):
    return -x2 - x3, x1 + a * x2, b + x3 * (x1 - c)


def _rm_log(log_c, log_b, r, k_c, g_max, k_b, chi, delta, p):
    # State is (log C, log B); p is replaced by g(t) when forcing is active.
    c = _exp(log_c)
    b = _exp(log_b)
    uptake = p * g_max / (k_b + p * c)
    return r * (1.0 - c / k_c) - uptake * b, chi * uptake * c - delta


def _vanderpol_order2(x1, x2, a0, a1, a2, a3, a4):
    # Second-order scalar model in companion form: state (x, dx/dt).
    return x2, a0 + a1 * x2 + a2 * x1 + a3 * (x1 * x1) + a4 * x1 * (x2 * x2)


_BUILTINS = {
    "linear2d": dict(
        dim=2,
        n_params=4,
        rate=CoordinateRate(_linear2d),
        linear_in_params=True,
        forcing=ForcingSpec("additive", 2),
        theta_default=(0.0, -1.0, 1.0, 0.0),
    ),
    "vanderpol": dict(
        dim=2,
        n_params=2,
        rate=CoordinateRate(_vanderpol),
        linear_in_params=True,
        forcing=ForcingSpec("additive", 2),
        theta_default=(0.25, 4.0),
    ),
    "rossler": dict(
        dim=3,
        n_params=3,
        rate=CoordinateRate(_rossler),
        linear_in_params=True,
        forcing=ForcingSpec("additive", 1),
        theta_default=(0.2, 0.2, 3.0),
    ),
    "rossler_chaotic": dict(
        dim=3,
        n_params=3,
        rate=CoordinateRate(_rossler),
        linear_in_params=True,
        forcing=ForcingSpec("additive", 1),
        theta_default=(0.2, 0.2, 5.7),
    ),
    "rosenzweig_macarthur_log": dict(
        dim=2,
        n_params=7,
        rate=CoordinateRate(_rm_log, replaced=7),
        linear_in_params=False,
        forcing=ForcingSpec("parameter_replacement", 7),
        theta_default=(1.0, 6.0, 1.0, 2.0, 0.5, 0.2, 1.0),
    ),
    "vanderpol_order2": dict(
        dim=2,
        n_params=5,
        rate=CoordinateRate(_vanderpol_order2),
        linear_in_params=True,
        forcing=ForcingSpec("additive", 2),
        theta_default=(0.0, 1.0, -1.0, 0.0, -1.0),
    ),
}


def builtin_system(name: str) -> DynamicalSystem:
    """Look up a builtin system by name.

    Available: linear2d, vanderpol, rossler, rossler_chaotic,
    rosenzweig_macarthur_log, vanderpol_order2.
    """
    try:
        spec = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ArgumentError(f"unknown system {name!r}; available: {known}") from None
    return DynamicalSystem(
        name=name,
        dim=spec["dim"],
        n_params=spec["n_params"],
        rate=spec["rate"],
        linear_in_params=spec["linear_in_params"],
        forcing=spec["forcing"],
        theta_default=np.asarray(spec["theta_default"], dtype=float),
    )


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))
