"""Dynamical systems, trajectory generation, and noisy observation.

A :class:`DynamicalSystem` bundles a rate function dx/dt = f(x; t, theta)
with metadata the estimators need: parameter count, whether f is affine in
theta, and where an empirical forcing g(t) enters (added to one coordinate's
equation, or replacing one parameter). Rate callables take
``(x, t, theta, g)`` and must broadcast over a leading batch axis of ``x``,
since :func:`rate_values` evaluates them on all states in one call;
``g is None`` means unforced. Additive injection is applied centrally by
:func:`forced_rate`, so additive systems may ignore their ``g`` argument;
parameter-replacement systems consume it themselves.

The fixed-step simulators (:func:`integrate`, :func:`simulate_sde`) hold
the state as Python floats: on 2- and 3-element arrays, numpy's dispatch
costs more than the arithmetic. Their substeps run in one kernel per scheme
and state dimension, generated from the dimension alone and cached, which
keeps the state in the local floats x1 ... xd. The builtins are
:class:`CoordinateRate` instances, written once as a function of
coordinates and parameters; the estimators call it on array columns and
the kernels on Python floats, and both round alike because powers are
written as products and exponentials stay numpy ufuncs (``math.exp``
differs from the array loop in the last bit on a few percent of inputs). That
direct call is the kernels' only fast path. Every other rate, forced or
user, steps through :func:`forced_rate` on a fresh float64 array of shape
(d,) per stage, so forcing is applied by one rule everywhere and a rate
cannot write into the stepper's state.
"""

from __future__ import annotations

import dataclasses
import functools
import linecache
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, BlowupError, check_kinds, is_finite_real
from .rng import SeedLike, rng_from

RateFn = Callable[[np.ndarray, object, np.ndarray, object], np.ndarray]

# States beyond this magnitude count as divergence during integration.
BLOWUP_LIMIT = 1e8

# The most substeps that tile one grid interval. An interval's substeps run
# in one kernel call, and Euler-Maruyama draws their increments at once and
# holds them as Python floats (about 150 bytes a substep in 3 dimensions):
# 100,000 keep an interval within about 15 MB and a second of stepping,
# some 800 times the default SDE step's count on the builtin grids. A
# smaller step is a slip of the exponent, and would fail in numpy's array
# allocation or step for practically ever.
MAX_SUBSTEPS = 100_000

# The most points of a simulated grid. A test builds smoother designs of n
# rows by up to about 40 columns per fit, so a million points already
# reach hundreds of MB per design; a longer grid is a slip, not a study,
# and one of 10**30 points fails in numpy's allocation.
MAX_GRID_POINTS = 1_000_000

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
        replaced parameter (replacement). A :class:`CoordinateRate` alone
        decides where g goes, so a system with one accepts replacement only
        at the rate's ``replaced`` parameter.
    """

    mode: str
    target: int

    def __post_init__(self):
        if self.mode not in _FORCING_MODES:
            raise ArgumentError(
                f"mode must be 'additive' or 'parameter_replacement', got {self.mode!r}"
            )
        check_kinds(self, counts=("target",))
        if self.target < 1:
            raise ArgumentError(f"target must be a 1-based index, got {self.target!r}")


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
        check_kinds(self, counts=("dim", "n_params"))
        if self.dim < 1:
            raise ArgumentError(f"dim must be >= 1, got {self.dim}")
        if self.n_params < 0:
            raise ArgumentError(f"n_params must be >= 0, got {self.n_params}")
        if self.forcing is not None:
            mode, target = self.forcing.mode, self.forcing.target
            size, what = (
                (self.dim, "coordinates") if mode == "additive" else (self.n_params, "parameters")
            )
            if target > size:
                raise ArgumentError(
                    f"target must lie in 1..{size} ({self.name} has {size} {what} for {mode} "
                    f"forcing), got {target}"
                )
            # a CoordinateRate alone decides where g goes
            replaced = self.rate.replaced if isinstance(self.rate, CoordinateRate) else target
            if mode == "parameter_replacement" and target != replaced:
                raise ArgumentError(
                    f"target has no parameter_replacement value: {self.name} has no parameter "
                    f"that g can replace, got {target}"
                    if replaced is None
                    else f"target must be {replaced} for parameter_replacement forcing "
                    f"({self.name} puts g in place of parameter {replaced}), got {target}"
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
    with np.errstate(over="ignore"):
        steps = np.diff(t)
    if np.any(steps <= 0):
        raise ArgumentError(f"{what} must be strictly increasing")
    if not np.all(np.isfinite(steps)):
        raise ArgumentError(f"{what} must lie a finite distance apart")
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


def _entries(value, size: int, what: str, owner: str, scalar: bool = False) -> np.ndarray:
    """``value`` as a float array of ``size`` entries of ``owner``'s, or a
    scalar where ``scalar`` allows one."""
    v = np.asarray(value, dtype=float)
    if v.shape != (size,) and not (scalar and v.ndim == 0):
        got = f"{v.size} entries" if v.ndim == 1 else f"shape {v.shape}"
        raise ArgumentError(f"{what} has {got}, {owner} expects {size}")
    return v


def _check_theta(system: DynamicalSystem, theta) -> np.ndarray:
    th = _entries(theta, system.n_params, "theta", system.name)
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

    def __call__(self, x, t, theta, g):
        cols = [x[..., j] for j in range(x.shape[-1])]
        params = list(theta)
        if g is not None and self.replaced is not None:
            params[self.replaced - 1] = g
        return np.array(self.coords(*cols, *params)).T


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
    """Evaluate the (forced) rate on a batch of states, in one call.

    Raises
    ------
    ArgumentError
        If the rate's output does not have the states' shape: a rate must
        broadcast over a leading batch axis.
    """
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.ndim != 2 or states.shape[1] != system.dim:
        raise ArgumentError(f"states must have shape (n, {system.dim})")
    out = np.asarray(forced_rate(system, states, times, theta, g), dtype=float)
    if out.shape != states.shape:
        raise ArgumentError(
            f"{system.name}: the rate returned shape {out.shape} for states of shape "
            f"{states.shape}; a rate must broadcast over a batch of states"
        )
    return out


def rate_derivative(
    system: DynamicalSystem,
    states: np.ndarray,
    times: np.ndarray,
    theta: np.ndarray,
    g=None,
    d_theta=None,
    d_g=None,
) -> np.ndarray:
    """Derivative of the (forced) rate on a batch of states at (theta, g),
    along the direction (d_theta, d_g): (n, d), as :func:`rate_values` gives
    the rate.

    ``d_theta`` is a direction in theta, ``d_g`` one in g (a scalar or one
    entry per state, and g must be given); an omitted one is zero. It is
    the central difference of step 1e-6 max(1, |v|) over the entries v that
    the direction moves, in two rate calls.
    """
    theta = np.asarray(theta, dtype=float)
    moved = [np.where(d != 0, v, 0.0) for v, d in ((theta, d_theta), (g, d_g)) if d is not None]
    h = 1e-6 * max([1.0] + [float(np.abs(m).max()) for m in moved])

    def at(s):
        th = theta if d_theta is None else theta + s * np.asarray(d_theta, dtype=float)
        return rate_values(system, states, times, th, g if d_g is None else g + s * d_g)

    return (at(h) - at(-h)) / (2.0 * h)


def _kernel_source(scheme: str, d: int, q: int) -> str:
    """Source of the substep loop of ``scheme`` ("rk4" or "em") in dimension
    d, for rates of q parameters.

    ``kernel(f, p, t, h, steps, what, x1, ..., xd)`` runs one substep per
    item of ``steps`` (a range for RK4, the rows of Brownian increments for
    Euler-Maruyama) from the state x at time t and returns the end state.
    The rate is ``f(x1, ..., xd, p1, ..., pq)`` on the q entries of p, or
    ``f(t, x1, ..., xd)`` when p is None. The parameters are passed by
    position, not as ``*p``: an unpacked call takes the interpreter's
    unspecialised call path. It raises BlowupError at the first substep
    that leaves |x| <= BLOWUP_LIMIT; the negated comparison is also true for
    NaN.
    """
    js = range(1, d + 1)

    def row(fmt: str, count: int = d) -> str:
        return ", ".join(fmt.format(j) for j in range(1, count + 1))

    def tup(fmt: str) -> str:
        # a tuple also when d = 1
        return row(fmt) + ","

    x = tup("x{0}")

    def loop(direct: bool) -> list:
        def rate(time: str, state: str) -> str:
            if direct:
                return f"f({', '.join(filter(None, [row(state), row('p{0}', q)]))})"
            return f"f({time}, {row(state)})"

        if scheme == "rk4":
            var = "_"
            body = [
                f"{tup('a{0}')} = {rate('t', 'x{0}')}",
                f"{tup('b{0}')} = {rate('t + h2', 'x{0} + h2 * a{0}')}",
                f"{tup('c{0}')} = {rate('t + h2', 'x{0} + h2 * b{0}')}",
                f"{tup('d{0}')} = {rate('t + h', 'x{0} + h * c{0}')}",
                f"{x} = {tup('x{0} + h6 * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})')}",
            ]
        else:
            var = tup("w{0}")
            body = [f"{tup('a{0}')} = {rate('t', 'x{0}')}", f"{x} = {tup('x{0} + a{0} * h + w{0}')}"]
        inside = " and ".join(f"lo <= x{j} <= hi" for j in js)
        body += [
            "t += h",
            f"if not ({inside}):",
            '    raise BlowupError(f"{what} diverged at t={t:.6g}", t)',
        ]
        return [f"for {var} in steps:"] + ["    " + line for line in body]

    lines = ["lo, hi = -BLOWUP_LIMIT, BLOWUP_LIMIT"]
    if scheme == "rk4":
        lines += ["h2 = 0.5 * h", "h6 = h / 6.0"]
    lines += ["if p is None:"] + ["    " + line for line in loop(direct=False)]
    direct = loop(direct=True)
    if q:
        direct = [f"{row('p{0}', q)}, = p"] + direct
    lines += ["else:"] + ["    " + line for line in direct]
    lines += [f"return {x}"]
    head = f"def kernel(f, p, t, h, steps, what, {row('x{0}')}):"
    return "\n".join([head] + ["    " + line for line in lines]) + "\n"


@functools.cache
def _kernel(scheme: str, d: int, q: int) -> Callable:
    """The compiled :func:`_kernel_source`, built on first use once per
    scheme, d and q."""
    namespace = {"BlowupError": BlowupError, "BLOWUP_LIMIT": BLOWUP_LIMIT}
    source = _kernel_source(scheme, d, q)
    filename = f"<odelof {scheme} kernel, d={d}, q={q}>"
    # so that tracebacks through the kernel show its lines
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


def _stepper(scheme: str, system: DynamicalSystem, th: np.ndarray, what: str, forcing=None):
    """``advance(t, h, steps, xs)``: the state at the end of one grid interval.

    An unforced :class:`CoordinateRate` is called directly, on theta's
    floats. Any other rate, forced or user, steps through
    :func:`forced_rate` on a (d,) array, with g(t) taken at each stage time.
    """
    if forcing is not None and system.forcing is None:
        raise ArgumentError(f"{system.name} has no forcing entry point, but a forcing was given")

    def adapter(t, *xs):
        # a fresh array, so a rate that writes into its argument cannot
        # touch the kernel's state
        x = np.array(xs, dtype=float)
        g = None if forcing is None else float(forcing(t))
        out = np.asarray(forced_rate(system, x, t, th, g), dtype=float)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape)
        return out.tolist()

    if forcing is None and isinstance(system.rate, CoordinateRate):
        f, p = system.rate.coords, tuple(th.tolist())
    else:
        f, p = adapter, None
    kernel = _kernel(scheme, system.dim, 0 if p is None else len(p))

    def advance(t, h, steps, xs):
        try:
            return kernel(f, p, t, h, steps, what, *xs)
        except ZeroDivisionError:
            if p is None:
                raise
            # a float division by zero raises where an array's gives inf or
            # nan: redo the interval on arrays
            return kernel(adapter, None, t, h, steps, what, *xs)

    return advance


def _check_start(system: DynamicalSystem, x0) -> list:
    x = _entries(x0, system.dim, "x0", system.name)
    if not np.all(np.isfinite(x)):
        raise ArgumentError("x0 contains non-finite values")
    return x.tolist()


def _check_variances(value, size: int, what: str, owner: str) -> np.ndarray:
    # a scalar, or one nonnegative variance per coordinate of owner's size
    v = _entries(value, size, what, owner, scalar=True)
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ArgumentError(f"{what} must be nonnegative and finite, got {value!r}")
    return np.broadcast_to(v, (size,))


def _check_step(value, what: str) -> float:
    if not (is_finite_real(value) and value > 0):
        raise ArgumentError(f"{what} must be positive and finite, got {value!r}")
    return float(value)


def _check_substeps(interval: float, step: float, what: str) -> None:
    """Raise unless a grid interval of length ``interval`` takes at most
    ``MAX_SUBSTEPS`` substeps of at most ``step``, the step named ``what``."""
    with np.errstate(over="ignore"):
        count = np.float64(interval) / step
    # as the simulators count them, ceil(interval / step - 1e-12)
    if not count <= MAX_SUBSTEPS + 1e-12:
        raise ArgumentError(
            f"{what} {step:g} tiles a grid interval of {interval:g} with more than "
            f"{MAX_SUBSTEPS} substeps"
        )


def _observed_indices(observed, dim: float, owner: str) -> np.ndarray:
    """0-based indices of the 1-based coordinates ``observed`` of ``owner``,
    of dimension ``dim`` (``math.inf`` bounds them from below only)."""
    idx = np.asarray(list(observed), dtype=int) - 1
    if idx.size == 0:
        raise ArgumentError("observed must name at least one coordinate")
    if np.any(idx < 0):
        raise ArgumentError(f"observed indices are 1-based, got {list(observed)}")
    if np.any(idx >= dim):
        raise ArgumentError(
            f"observed indices must lie in 1..{dim} for {owner}, got {list(observed)}"
        )
    return idx


def _check_rate_scale(factor) -> None:
    if not (is_finite_real(factor) and factor != 0):
        raise ArgumentError(f"factor must be a nonzero finite number, got {factor!r}")


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
    it, so results are deterministic for a given grid and substep. The
    substeps run in the generated RK4 kernel of the system's dimension, on
    Python floats. A forced or user rate is evaluated by :func:`forced_rate`
    on a (d,) array at each stage.

    Parameters
    ----------
    forcing : callable, optional
        g(t), applied per the system's ForcingSpec at every stage time. Must
        be defined on the whole time range, and the system must have a
        ForcingSpec.
    substep : float, optional
        Upper bound on the internal step. Defaults to the smallest grid
        spacing (one step per interval).

    Raises
    ------
    ArgumentError
        If ``forcing`` is given for a system without a ForcingSpec, or if a
        grid interval would take more than ``MAX_SUBSTEPS`` substeps.
    BlowupError
        If the state leaves |x| <= 1e8 or becomes non-finite; its ``time``
        is the end of the first substep that does.
    """
    th = _check_theta(system, theta)
    t_grid = _check_times(np.asarray(times, dtype=float), "integration times")
    xs = _check_start(system, x0)
    spacing = np.diff(t_grid)
    h_max = _check_step(spacing.min() if substep is None else substep, "substep")
    _check_substeps(spacing.max(), h_max, "substep")
    advance = _stepper("rk4", system, th, f"integration of {system.name}", forcing)

    out = np.empty((t_grid.size, system.dim))
    out[0] = xs
    for i in range(t_grid.size - 1):
        dt = float(spacing[i])
        n_sub = max(1, math.ceil(dt / h_max - 1e-12))
        xs = advance(float(t_grid[i]), dt / n_sub, range(n_sub), xs)
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
    reproduces the same path. Each interval draws its increments at once
    and steps through them in the generated Euler-Maruyama kernel of the
    system's dimension, on Python floats.

    Parameters
    ----------
    sigma2 : float or sequence
        Diffusion variance per unit time, scalar or one value per coordinate.
    seed : int or SeedSequence
        Required; drives the Brownian increments.

    Raises
    ------
    ArgumentError
        If a grid interval would take more than ``MAX_SUBSTEPS`` steps.
    BlowupError
        If the state leaves |x| <= 1e8 or becomes non-finite; its ``time``
        is the end of the first substep that does.
    """
    th = _check_theta(system, theta)
    t_grid = _check_times(np.asarray(times, dtype=float), "simulation times")
    xs = _check_start(system, x0)
    s2 = _check_variances(sigma2, system.dim, "sigma2", system.name)
    step = _check_step(step, "step")
    _check_substeps(np.diff(t_grid).max(), step, "step")
    if seed is None:
        raise ArgumentError("simulate_sde requires an explicit seed")
    rng = rng_from(seed)
    advance = _stepper("em", system, th, f"SDE simulation of {system.name}")

    out = np.empty((t_grid.size, system.dim))
    out[0] = xs
    for i in range(t_grid.size - 1):
        dt = float(t_grid[i + 1] - t_grid[i])
        n_sub = max(1, math.ceil(dt / step - 1e-12))
        h = dt / n_sub
        # one draw per interval: the same stream as one draw per substep
        noise = (np.sqrt(s2 * h) * rng.standard_normal((n_sub, system.dim))).tolist()
        xs = advance(float(t_grid[i]), h, noise, xs)
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
        idx = _observed_indices(observed, trajectory.dim, "the trajectory")
    v = _check_variances(noise_var, idx.size, "noise_var", "the observation")
    rng = rng_from(seed)
    clean = trajectory.states[:, idx]
    noisy = clean + np.sqrt(v) * rng.standard_normal(clean.shape)
    return TimeSeries(trajectory.times, noisy)


def scale_rate(system: DynamicalSystem, factor: float) -> DynamicalSystem:
    """System with its rate multiplied by a constant (time speed-up)."""
    _check_rate_scale(factor)
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
# (simulators), and must round alike. Squares and cubes are written as
# products, since an array's x**2 is a multiply and a float's is C pow, and a
# product rounds the same on every CPU. Exponentials go through numpy's ufunc
# loop, since math.exp rounds differently from it on a few percent of inputs;
# that loop follows numpy's CPU dispatch, so rosenzweig_macarthur_log alone
# may simulate different bytes on another CPU.


def _exp(x):
    """np.exp(x); a Python float for a scalar, so a step stays in floats."""
    y = np.exp(x)
    return y if isinstance(x, np.ndarray) else float(y)


def _linear2d(x1, x2, a11, a12, a21, a22):
    return a11 * x1 + a12 * x2, a21 * x1 + a22 * x2


def _vanderpol(x1, x2, c, d):
    return c * x2, d * (x2 - x1 - x2 * x2 * x2 / 3.0)


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
    return DynamicalSystem(name=name, **spec)


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))
