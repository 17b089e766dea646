"""Shared smooth -> gradient-match -> forcing pipeline.

The diagnostic tests refit this pipeline on every bootstrap replicate, so
the pieces that depend only on the observation grid are built once by
:class:`PipelineRunner` and reused: the smoothing design and
factorization, the quadrature with the
:class:`~odelof.estimate.ForcingOperator` on it (forcing design and
factor or penalty band), and the :class:`~odelof.splines.BasisGrid`
values of the x and g bases on the quadrature nodes and the observation
times. A refit evaluates its smooth on the node grid once, into the
:class:`~odelof.estimate.QuadratureState` that gradient matching and the
forcing both take, and the smooth and forcing at the times through theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ArgumentError, OdelofError, PipelineError, check_kinds, is_finite_real, is_flag
from .estimate import (
    ForcingEstimate,
    ForcingOperator,
    GradientMatchFit,
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
    two-dimensional model, and ``theta_init`` and ``theta_free`` need one
    entry per parameter."""
    if settings.second_order and system.dim != 2:
        raise ArgumentError(
            f"second_order fits the state (x, dx/dt) of a two-dimensional model; "
            f"{system.name} has dimension {system.dim}"
        )
    for name in ("theta_init", "theta_free"):
        v = getattr(settings, name)
        if v is not None and len(v) != system.n_params:
            raise ArgumentError(
                f"{name} has {len(v)} entries, {system.name} expects {system.n_params}"
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
        self.smoother = SmoothingOperator(t, self.x_basis, s.x_penalty)
        if system is None:
            raise ArgumentError("a proposed model system is required")
        check_model(s, system)
        self.system = system
        nodes, weights = quad_grid(t, s.quad_per_spacing)
        self._forcing_op = ForcingOperator(system, self.g_basis, nodes, weights, s.g_penalty)
        # matching and forcing take x_hat and dx_hat on the quadrature
        # nodes (and d2x_hat for the second-order model, whose state is
        # (x, dx)); the fit reports the state and g_hat at the times
        max_deriv = 2 if s.second_order else 1
        self._node_grid = BasisGrid(self.x_basis, nodes, max_deriv)
        self._obs_grid = BasisGrid(self.x_basis, t, max_deriv - 1)
        self._g_grid = BasisGrid(self.g_basis, t)

    def run(self, values) -> PipelineFit:
        """Smooth the data, match theta, and estimate the forcing."""
        s = self.settings
        y = np.asarray(values, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        try:
            if s.second_order:
                if y.shape[1] != 1:
                    raise ArgumentError(
                        f"second-order pipeline needs one observed coordinate, got {y.shape[1]}"
                    )
                xhat = self.smoother.fit(y[:, 0])
            else:
                if y.shape[1] != self.system.dim:
                    raise ArgumentError(
                        f"model {self.system.name} has dim {self.system.dim}, "
                        f"data has {y.shape[1]} columns"
                    )
                xhat = self.smoother.fit(y)
        except OdelofError as exc:
            raise PipelineError(f"smoothing failed: {exc}", stage="smooth") from exc
        state = CompanionState(xhat) if s.second_order else xhat
        quadrature = quadrature_state(state, self._node_grid, self._forcing_op.weights)

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
