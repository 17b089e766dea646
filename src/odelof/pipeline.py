"""Shared smooth -> gradient-match -> forcing pipeline.

The diagnostic tests refit this pipeline on every bootstrap replicate, so
the pieces that depend only on the observation grid are built once by
:class:`PipelineRunner` and reused: the :class:`~odelof.splines.BasisGrid`
values of the x and g bases on the quadrature nodes and the observation
times, the smoother's banded factor, and the quadrature with the
:class:`~odelof.estimate.ForcingOperator` on it. Every Gram of these fits
is a band of :meth:`~odelof.splines.BasisGrid.gram`, so no fit follows
the BLAS thread count. A refit evaluates its smooth on the node grid
once, into the :class:`~odelof.estimate.QuadratureState` that gradient
matching and the forcing both take, and the smooth and forcing at the
times through theirs.

A process builds one runner per observation grid, model and settings:
:func:`runner_for` keeps the last few it built, so every test on the same
inputs (the two tests of a run, a study's replicates, an acceptance row's
datasets) reuses one. A runner holds no state of its fits, so a reused one
fits the same bytes as a fresh one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ArgumentError, OdelofError, PipelineError, check_kinds, is_finite_real, is_flag
from .estimate import (
    ForcingEstimate,
    ForcingOperator,
    GradientMatchFit,
    QuadratureState,
    _resolve_mask,
    gradient_match,
    quad_grid,
    quadrature_state,
)
from .smoothers import SmootherSettings
from .splines import BasisGrid, SmoothingOperator, SplineFunction, make_basis
from .systems import DynamicalSystem


@dataclass(frozen=True)
class PipelineSettings:
    """Smoothing, quadrature, and estimation knobs for one experiment.

    ``second_order`` fits one observed coordinate x as the state (x, dx/dt)
    of the runner's two-dimensional system. A curvature penalty and the
    second-order state take second derivatives of a spline, so they need
    its order to be 3 (quadratic) or more.
    """

    x_order: int = 4
    x_knot_spacing: float = 0.25
    x_penalty: float = 0.01
    g_order: int = 4
    g_knot_spacing: float = 1.0
    g_penalty: float = 0.0
    quad_per_spacing: int = 4
    # the reference smooth h(x) is a joint interaction surface by default:
    # hidden-state effects are rarely additive in the observed coordinates
    smoother: SmootherSettings = field(default_factory=lambda: SmootherSettings(interaction=True))
    second_order: bool = False
    theta_init: Optional[tuple] = None
    theta_free: Optional[tuple] = None

    def __post_init__(self):
        reals = ("x_knot_spacing", "x_penalty", "g_knot_spacing", "g_penalty")
        counts = ("x_order", "g_order", "quad_per_spacing")
        check_kinds(self, counts=counts, reals=reals, flags=("second_order",))
        for name, is_item, what in (
            ("theta_init", is_finite_real, "finite numbers"),
            ("theta_free", is_flag, "booleans"),
        ):
            v = getattr(self, name)
            seq = isinstance(v, (tuple, list)) or (isinstance(v, np.ndarray) and v.ndim == 1)
            if v is not None and not (seq and all(map(is_item, v))):
                raise ArgumentError(f"{name} must be a sequence of {what}, got {v!r}")
        for name in ("x_order", "g_order"):
            v = getattr(self, name)
            if not 2 <= v <= 8:
                raise ArgumentError(f"{name} must be in 2..8, got {v!r}")
        for name in ("x_knot_spacing", "g_knot_spacing"):
            v = getattr(self, name)
            if not is_finite_real(v) or v <= 0:
                raise ArgumentError(f"{name} must be positive and finite, got {v!r}")
        for name in ("x_penalty", "g_penalty"):
            v = getattr(self, name)
            if not is_finite_real(v) or v < 0:
                raise ArgumentError(f"{name} must be nonnegative and finite, got {v!r}")
        if self.quad_per_spacing < 1:
            raise ArgumentError(f"quad_per_spacing must be >= 1, got {self.quad_per_spacing!r}")
        for name, why, applies in (
            ("x_order", "x_penalty > 0", self.x_penalty > 0),
            ("x_order", "second_order", self.second_order),
            ("g_order", "g_penalty > 0", self.g_penalty > 0),
        ):
            if applies and getattr(self, name) < 3:
                raise ArgumentError(
                    f"{name} must be >= 3 with {why}, which takes second derivatives; "
                    f"got {getattr(self, name)}"
                )


def check_model(settings: PipelineSettings, system: DynamicalSystem) -> None:
    """Raise :class:`ArgumentError`, naming the field, when ``settings`` do
    not fit the proposed model ``system``: a second-order fit needs a
    two-dimensional model, and ``theta_init`` and ``theta_free`` (gradient
    matching's ``free_mask``) are checked by the rule gradient matching
    applies to them."""
    if settings.second_order and system.dim != 2:
        raise ArgumentError(
            f"second_order fits the state (x, dx/dt) of a two-dimensional model; "
            f"{system.name} has dimension {system.dim}"
        )
    _resolve_mask(system, settings.theta_init, settings.theta_free)


def check_columns(
    n_columns: int, settings: PipelineSettings, system: DynamicalSystem, owner: str
) -> None:
    """Raise :class:`ArgumentError` when the ``n_columns`` observed
    coordinates of ``owner`` do not fit the model ``system``: one per model
    coordinate, or one with ``second_order``."""
    if settings.second_order:
        if n_columns != 1:
            raise ArgumentError(
                f"second_order fits one observed coordinate; {owner} observes {n_columns}"
            )
    elif n_columns != system.dim:
        raise ArgumentError(
            f"model {system.name} has dimension {system.dim}; {owner} observes {n_columns}"
        )


@dataclass(frozen=True)
class PipelineFit:
    """One full pipeline pass on one data set."""

    xhat: SplineFunction
    match: GradientMatchFit
    forcing: ForcingEstimate
    times: np.ndarray
    fitted_obs: np.ndarray  # x_hat at the observation times (n, m)
    state_obs: np.ndarray  # smoother predictors at the observation times
    g_obs: np.ndarray  # g_hat at the observation times


class CompanionState:
    """Adapter presenting a scalar smooth ``spline(t, deriv)`` as the state
    (x, dx/dt)."""

    def __init__(self, spline):
        self.spline = spline

    def __call__(self, t, deriv: int = 0):
        return np.stack(
            [self.spline(t, deriv), self.spline(t, deriv + 1)], axis=-1
        )


class PipelineRunner:
    """Pipeline with grid-dependent pieces precomputed.

    Parameters
    ----------
    times : array
        Observation grid shared by every data set this runner will fit.
    system : DynamicalSystem
        Proposed model, including its ForcingSpec (required). With
        ``settings.second_order`` the data are one coordinate x and the
        system (of dimension 2) is fitted on the state (x, dx/dt) of its
        smooth, for example builtin ``vanderpol_order2``, the model
        x'' = a + b x' + c x + d x^2 + e x (x')^2 in that form.

    Every refit runs :func:`~odelof.estimate.gradient_match` and the
    runner's :class:`~odelof.estimate.ForcingOperator`. Their fits report
    ``converged``, which says that a Gauss-Newton loop stopped before its
    iteration cap; the closed forms always report True.

    The diagnostic tests take their runner from :func:`runner_for`, which
    builds one per process for each grid, model and settings and reuses it
    for every test on them.
    """

    def __init__(self, times, system: DynamicalSystem, settings: Optional[PipelineSettings] = None):
        self.settings = settings or PipelineSettings()
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size < 4:
            raise ArgumentError("need a 1-D grid with at least 4 observation times")
        self.times = t
        domain = (float(t[0]), float(t[-1]))
        s = self.settings
        self.x_basis = make_basis(s.x_order, domain, s.x_knot_spacing)
        self.g_basis = make_basis(s.g_order, domain, s.g_knot_spacing)
        # matching and forcing take x_hat and dx_hat on the quadrature
        # nodes (and d2x_hat for the second-order model, whose state is
        # (x, dx)); the fit reports the state and g_hat at the times
        max_deriv = 2 if s.second_order else 1
        self._obs_grid = BasisGrid(self.x_basis, t, max_deriv - 1)
        self.smoother = SmoothingOperator(self._obs_grid, self.x_basis, s.x_penalty)
        if system is None:
            raise ArgumentError("a proposed model system is required")
        check_model(s, system)
        self.system = system
        nodes, weights = quad_grid(t, s.quad_per_spacing)
        self._forcing_op = ForcingOperator(system, self.g_basis, nodes, weights, s.g_penalty)
        self._node_grid = BasisGrid(self.x_basis, nodes, max_deriv)
        self._g_grid = BasisGrid(self.g_basis, t)

    def _quadrature(self, xhat: SplineFunction) -> QuadratureState:
        """The smooth's state and its derivative on the nodes. The
        second-order state (x, dx) and its derivative (dx, d2x) share dx,
        so each derivative of x_hat is evaluated once."""
        weights = self._forcing_op.weights
        if not self.settings.second_order:
            return quadrature_state(xhat, self._node_grid, weights)
        x, dx, d2x = (xhat(self._node_grid, d) for d in range(3))
        return QuadratureState(
            self._forcing_op.nodes,
            weights,
            np.sqrt(weights),
            np.stack([x, dx], axis=-1),
            np.stack([dx, d2x], axis=-1),
        )

    def run(self, values) -> PipelineFit:
        """Smooth the data, match theta, and estimate the forcing."""
        s = self.settings
        y = np.asarray(values, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        try:
            check_columns(y.shape[1], s, self.system, "the series")
            xhat = self.smoother.fit(y[:, 0] if s.second_order else y)
        except OdelofError as exc:
            raise PipelineError(f"smoothing failed: {exc}", stage="smooth") from exc
        state = CompanionState(xhat) if s.second_order else xhat
        quadrature = self._quadrature(xhat)

        try:
            match = gradient_match(
                quadrature,
                self.system,
                theta_init=None if s.theta_init is None else np.asarray(s.theta_init),
                free_mask=None if s.theta_free is None else np.asarray(s.theta_free, dtype=bool),
            )
        except OdelofError as exc:
            raise PipelineError(f"gradient matching failed: {exc}", stage="match") from exc

        try:
            forcing = self._forcing_op.fit(quadrature, match.theta)
        except OdelofError as exc:
            raise PipelineError(f"forcing estimation failed: {exc}", stage="forcing") from exc

        # the observed coordinates lead the state: all of it, or x of (x, dx)
        state_obs = np.asarray(state(self._obs_grid))
        fitted_obs = state_obs[:, : y.shape[1]]
        g_obs = np.asarray(forcing.g(self._g_grid))
        return PipelineFit(
            xhat=xhat,
            match=match,
            forcing=forcing,
            times=self.times,
            fitted_obs=fitted_obs,
            state_obs=state_obs,
            g_obs=g_obs,
        )


# Runners kept per process. One CLI run holds at most two tests, both on
# one key, and a study worker takes its tasks cell by cell, so a few
# entries keep every key a process is working on; a runner holds some
# 0.5-1 MB of arrays.
_RUNNER_CAPACITY = 4
_RUNNERS: OrderedDict[tuple, PipelineRunner] = OrderedDict()


def _fields_key(obj, arrays: dict) -> tuple:
    """A dataclass's type and field values, the fields named in ``arrays``
    as the bytes of an array of the given dtype (None stays None)."""
    key = [type(obj)]
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.name in arrays and v is not None:
            a = np.asarray(v, dtype=arrays[f.name])
            v = (a.shape, a.tobytes())
        key.append(v)
    return tuple(key)


def runner_for(times, system: DynamicalSystem, settings: PipelineSettings) -> PipelineRunner:
    """The process's :class:`PipelineRunner` for this grid, model and
    settings: built on the first call, then reused by every call whose
    inputs are equal (the grid's bytes, the model's fields and the
    settings', array fields and ``theta_init``/``theta_free`` by value).
    The last ``_RUNNER_CAPACITY`` keys used are kept. Inputs that cannot
    be hashed, such as a rate without ``__hash__``, get a fresh runner;
    a build that raises is not kept, so the next call raises again."""
    t = np.array(times, dtype=float)
    t.flags.writeable = False  # the kept runner's grid, whatever the caller does to theirs
    try:
        key = (
            t.shape,
            t.tobytes(),
            _fields_key(system, {"theta_default": float}),
            _fields_key(settings, {"theta_init": float, "theta_free": bool}),
        )
        runner = _RUNNERS.get(key)
    except (TypeError, ValueError):  # a field that cannot be hashed or compared
        return PipelineRunner(t, system, settings)
    if runner is None:
        runner = _RUNNERS[key] = PipelineRunner(t, system, settings)
        while len(_RUNNERS) > _RUNNER_CAPACITY:
            _RUNNERS.popitem(last=False)
    else:
        _RUNNERS.move_to_end(key)
    return runner
