"""Two-stage gradient matching and empirical forcing estimation.

Stage one smooths the data into x_hat(t) (see :mod:`odelof.splines`); the
functions here match model rates to the smooth's derivative:

* :func:`gradient_match` minimizes the weighted quadrature approximation of
  ``integral ||dx_hat/dt - f(x_hat; t, theta)||^2`` over theta, in closed
  form when f is affine in theta and by damped Gauss-Newton otherwise.
* :class:`ForcingOperator` then estimates g(t) = Psi(t) D with theta held
  fixed, either added to one coordinate's equation (closed form) or
  replacing one parameter (Gauss-Newton on D). One operator serves every
  refit on a quadrature. Both modes solve K x K banded normal equations
  (K basis functions, bandwidth the g order) from the band routine
  :meth:`~odelof.splines.BasisGrid.gram`: additive forcing is the
  :class:`~odelof.splines.SmoothingOperator` at the nodes, factored once,
  and a replacement-mode step calls the routine with its own weights.

Both Gauss-Newton fits run one damped loop, :func:`_descend`; they differ
only in the step (a theta Jacobian solved by least squares, or the banded g
step), and both take the rate's derivative from the one routine
:func:`~odelof.systems.rate_derivative`. Their ``converged`` flag says the
loop stopped before its cap of ``_GN_MAX_ITER`` iterations: the objective
stalled to within ``_GN_TOL`` relative, or no shortened step kept it from
growing.

Both estimators read the smooth through one :class:`QuadratureState`,
x_hat and dx_hat/dt on the quadrature nodes with the rule's weights, which
:func:`quadrature_state` evaluates from a callable ``x_hat(t, deriv)`` (a
SplineFunction qualifies); its ``mismatch``, dx_hat - f(x_hat; theta, g),
is the one residual they fit. A second-order scalar model is a
first-order system on the state (x, dx/dt): pass the smooth as
:class:`~odelof.pipeline.CompanionState` and a system of dimension 2 whose
first rate is the second coordinate (builtin ``vanderpol_order2``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import solveh_banded

from .errors import ArgumentError, ConvergenceError, RankError, is_finite_real
from .rng import SeedLike, rng_from
from .splines import BasisGrid, BSplineBasis, SmoothingOperator, SplineFunction, band_dot
from .systems import DynamicalSystem, _entries, rate_derivative, rate_values

_GN_MAX_ITER = 100
_GN_TOL = 1e-10
_N_STARTS = 8


def quad_grid(times, per_spacing: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes and weights refining a time grid.

    Each observation interval is split into ``per_spacing`` equal pieces;
    weights are the nonuniform trapezoid rule on the refined grid.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
        raise ArgumentError("times must be 1-D and strictly increasing")
    if per_spacing < 1:
        raise ArgumentError(f"per_spacing must be >= 1, got {per_spacing}")
    # the arithmetic of np.linspace(t[i], t[i + 1], per_spacing + 1)[:-1],
    # for all intervals at once
    step = np.diff(t) / per_spacing
    pieces = np.arange(per_spacing) * step[:, None] + t[:-1, None]
    nodes = np.concatenate([pieces.ravel(), t[-1:]])
    h = np.diff(nodes)
    w = np.zeros(nodes.size)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return nodes, w


@dataclass(frozen=True)
class GradientMatchFit:
    """Result of matching model rates to a smoothed trajectory.

    ``objective`` is the total weighted squared mismatch; ``objectives``
    breaks it down per state coordinate. ``converged`` is True for the
    closed form and, for Gauss-Newton, says the loop stopped before
    ``_GN_MAX_ITER``; ``n_iter`` counts its iterations (1 for the closed form).
    """

    theta: np.ndarray
    objective: float
    objectives: np.ndarray
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class QuadratureState:
    """A smooth's state on quadrature nodes: x_hat and dx_hat/dt (n, d) at
    the ``nodes`` (n,), the rule's ``weights`` and their square roots."""

    nodes: np.ndarray
    weights: np.ndarray
    sqrt_w: np.ndarray
    x: np.ndarray
    dx: np.ndarray

    def mismatch(self, system: DynamicalSystem, theta, g=None) -> np.ndarray:
        """``dx_hat - f(x_hat; theta, g)`` at the nodes, (n, d)."""
        return self.dx - rate_values(system, self.x, self.nodes, theta, g)


def quadrature_state(xhat, nodes, weights) -> QuadratureState:
    """Evaluate ``xhat(t, deriv)`` and its derivative on quadrature nodes.

    ``nodes`` are the points, as :func:`quad_grid` gives them with
    ``weights``, or a :class:`~odelof.splines.BasisGrid` on them that the
    smooth evaluates through. A scalar smooth is one state coordinate.
    """
    t = nodes.points if isinstance(nodes, BasisGrid) else np.asarray(nodes, dtype=float)
    w = np.asarray(weights, dtype=float)
    x = np.asarray(xhat(nodes, 0), dtype=float)
    dx = np.asarray(xhat(nodes, 1), dtype=float)
    if x.ndim == 1:
        x = x[:, None]
        dx = dx[:, None]
    if x.ndim != 2 or x.shape[0] != t.size or dx.shape != x.shape or w.shape != t.shape:
        raise ArgumentError(
            f"x_hat gives shapes {x.shape} and {dx.shape} on {t.size} nodes, {w.size} weights"
        )
    return QuadratureState(t, w, np.sqrt(w), x, dx)


def _resolve_mask(system: DynamicalSystem, theta_init, free_mask) -> tuple[np.ndarray, np.ndarray]:
    """The free-parameter mask and the base theta (the fixed parameters'
    values) of a match; raises :class:`ArgumentError` when either does not
    fit ``system``'s parameters."""
    n = system.n_params
    mask = np.ones(n, dtype=bool)
    if free_mask is not None:
        mask = _entries(free_mask, n, "free_mask", system.name) != 0
    if not mask.any():
        raise ArgumentError("free_mask leaves no parameter to estimate")
    if theta_init is None and not mask.all():
        raise ArgumentError("free_mask fixes parameters, which need values: pass theta_init")
    base = np.zeros(n) if theta_init is None else _entries(theta_init, n, "theta_init", system.name)
    return mask, base


def gradient_match(
    state: QuadratureState,
    system: DynamicalSystem,
    theta_init=None,
    free_mask=None,
    seed: SeedLike = 0,
) -> GradientMatchFit:
    """Estimate theta by gradient matching with g held at zero.

    Parameters
    ----------
    state : QuadratureState
        The smooth on the quadrature (:func:`quadrature_state`).
    theta_init : array, optional
        Start for Gauss-Newton and source of values for masked-out (fixed)
        parameters. When omitted for a nonlinear system, a seeded 8-start
        multistart around zero is used.
    free_mask : bool array, optional
        Parameters to estimate; the rest stay at their theta_init values.

    Raises
    ------
    RankError
        If the linear-in-theta design is rank deficient (degenerate
        trajectory).
    ConvergenceError
        If Gauss-Newton cannot produce a finite objective.
    """
    mask, base = _resolve_mask(system, theta_init, free_mask)
    free_idx = np.nonzero(mask)[0]
    w, sw = state.weights, state.sqrt_w

    def fit_at(theta, objective, converged, n_iter):
        per_coord = np.einsum("q,qd->d", w, state.mismatch(system, theta) ** 2)
        return GradientMatchFit(
            theta=theta,
            objective=float(per_coord.sum()) if objective is None else objective,
            objectives=per_coord,
            converged=converged,
            n_iter=n_iter,
        )

    if system.linear_in_params:
        theta = base.copy()
        theta[mask] = 0.0
        c = rate_values(system, state.x, state.nodes, theta)
        cols = np.empty(state.x.shape + (free_idx.size,))
        for k, j in enumerate(free_idx):
            tj = theta.copy()
            tj[j] = 1.0
            cols[:, :, k] = rate_values(system, state.x, state.nodes, tj) - c
        a = (sw[:, None, None] * cols).reshape(-1, free_idx.size)
        b = (sw[:, None] * state.mismatch(system, theta)).reshape(-1)
        sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < free_idx.size:
            raise RankError(
                f"gradient-matching design is rank deficient ({rank} < {free_idx.size}); "
                "the trajectory does not excite every parameter"
            )
        theta[free_idx] = sol
        return fit_at(theta, None, True, 1)

    def residual(theta):
        r = (sw[:, None] * state.mismatch(system, theta)).reshape(-1)
        return r, float(r @ r), None

    def jacobian_step(theta, r, _):
        # a column per free parameter; the fixed ones stay
        units = np.eye(theta.size)[free_idx]
        cols = [rate_derivative(system, state.x, state.nodes, theta, d_theta=u) for u in units]
        jac = (-sw[:, None, None] * np.stack(cols, axis=-1)).reshape(r.size, -1)
        if not np.all(np.isfinite(jac)):
            return None
        step = np.zeros(theta.size)
        step[free_idx] = np.linalg.lstsq(jac, r, rcond=None)[0]
        return step

    if theta_init is not None:
        starts = [base.copy()]
    else:
        rng = rng_from(seed)
        starts = [np.zeros(system.n_params)]
        starts += [rng.standard_normal(system.n_params) for _ in range(_N_STARTS - 1)]
        for s in starts:
            s[~mask] = base[~mask]

    best = None
    for start in starts:
        result = _descend(residual, jacobian_step, start, _GN_MAX_ITER, _GN_TOL)
        if result is not None and (best is None or result.objective < best.objective):
            best = result
    if best is None:
        raise ConvergenceError(
            f"gradient matching for {system.name} found no finite objective "
            f"from {len(starts)} start(s)"
        )
    return fit_at(best.x, best.objective, best.converged, best.n_iter)


class _Descent(NamedTuple):
    x: np.ndarray
    objective: float
    start_objective: float
    converged: bool
    n_iter: int


def _descend(residual, step, x, max_iter, tol) -> Optional[_Descent]:
    """Damped Gauss-Newton from ``x``.

    ``residual(x)`` returns ``(r, objective, state)``: the residuals, whose
    finiteness is checked, the objective to decrease and anything
    ``step(x, r, state)`` needs to return the Gauss-Newton step (x moves to
    ``x - step``), or None when no step can be formed. Each iteration
    halves the step until the objective does not grow, down to 1e-4 of
    it. The loop ends when the objective changes by at most ``tol``
    relative, when no trial keeps it from growing, or after ``max_iter``
    iterations; ``converged`` says it ended before that cap. Returns None
    if the start's residuals or a step are not finite.
    """
    r, obj, state = residual(x)
    if not np.all(np.isfinite(r)):
        return None
    start_obj = obj
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        d = step(x, r, state)
        if d is None:
            return None
        scale = 1.0
        improved = False
        while scale > 1e-4:
            trial = x - scale * d
            r_t, obj_t, state_t = residual(trial)
            if np.all(np.isfinite(r_t)) and obj_t <= obj:
                converged = abs(obj - obj_t) <= tol * max(obj, 1e-300)
                x, r, obj, state = trial, r_t, obj_t, state_t
                improved = True
                break
            scale *= 0.5
        if converged or not improved:
            converged = True
            break
    return _Descent(x, obj, start_obj, converged, it)


@dataclass(frozen=True)
class ForcingEstimate:
    """Estimated empirical forcing g(t) = Psi(t) D with theta held fixed.

    ``objective`` is the weighted squared mismatch of the forced model on
    the rows g touches (the target coordinate in additive mode, all
    coordinates in replacement mode); ``objective_unforced`` is the same
    quantity at g's neutral value, for before/after comparison. In
    replacement mode ``converged`` says the Gauss-Newton loop stopped
    before ``_GN_MAX_ITER`` and ``n_iter`` counts its iterations; the
    additive closed form reports True and 1.
    """

    g: SplineFunction
    mode: str
    target: int
    objective: float
    objective_unforced: float
    converged: bool
    n_iter: int


class ForcingOperator:
    """Forcing estimator for one system, g basis, quadrature and penalty.

    Everything that depends only on (system, g_basis, quadrature, penalty)
    is built once, so bootstrap replicates that share the observation grid
    reuse one instance: the g basis values at the quadrature ``nodes`` (a
    :class:`~odelof.splines.BasisGrid`) and what is built from them.
    :meth:`fit` takes a :class:`QuadratureState` on those nodes and weights.

    Additive mode fits the target coordinate's mismatch by a weighted
    :class:`~odelof.splines.SmoothingOperator` at the nodes.

    Parameter-replacement mode runs Gauss-Newton on the coefficients D,
    started at the constant function equal to the replaced parameter's
    value. Residual row (q, d) is ``sqrt(w_q) (dx_d - f_d(x, g))`` at node
    q, so its Jacobian row is ``a_qd psi_q`` with ``a = -sqrt(w) df/dg``
    (systems.rate_derivative) and ``psi_q`` row q of the g design Psi. The
    step solves the normal equations ``(Psi^T diag(c) Psi + penalty P)
    step = Psi^T s + penalty P D`` (P the curvature Gram) with ``c_q =
    sum_d a_qd^2`` and ``s_q = sum_d a_qd r_qd``, built as bands by the
    node grid, by a banded Cholesky. A coefficient that no residual row
    depends on (a zero on the diagonal, no penalty) makes the system
    singular: RankError. If the Cholesky fails otherwise, the normal
    equations have lost a direction to rounding (g far out, where the
    rate is nearly flat in it), and that step is the least-squares solve
    over all rows instead.
    """

    def __init__(
        self,
        system: DynamicalSystem,
        g_basis: BSplineBasis,
        nodes,
        weights,
        penalty: float = 0.0,
    ):
        if system.forcing is None:
            raise ArgumentError(f"system {system.name} has no forcing specification")
        if not is_finite_real(penalty) or penalty < 0:
            raise ArgumentError(f"penalty must be nonnegative and finite, got {penalty!r}")
        self.system = system
        self.basis = g_basis
        self.penalty = float(penalty)
        self.nodes, self.weights = np.asarray(nodes, dtype=float), np.asarray(weights, dtype=float)
        self._grid = BasisGrid(g_basis, self.nodes)
        if system.forcing.mode == "additive":
            self._smoother = SmoothingOperator(self._grid, g_basis, penalty, self.weights)
        else:
            self._pen = penalty * g_basis.penalty_gram(2) if penalty > 0 else None

    def fit(self, state: QuadratureState, theta) -> ForcingEstimate:
        """Estimate g at ``theta`` for the smooth's ``state`` on this
        operator's quadrature.

        The replacement-mode Gauss-Newton stops on a relative change of
        the objective below ``_GN_TOL`` or after ``_GN_MAX_ITER``
        iterations.

        Raises
        ------
        ArgumentError
            If ``state`` is not on this operator's nodes and weights.
        RankError
            In replacement mode, if a Gauss-Newton system is singular: the
            rate does not depend on the replaced parameter over the support
            of some g basis function, and no penalty ties that coefficient
            to its neighbours.
        """
        system = self.system
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (system.n_params,):
            raise ArgumentError(
                f"theta must have shape ({system.n_params},), got {theta.shape}"
            )
        for given, own in ((state.nodes, self.nodes), (state.weights, self.weights)):
            if given is not own and not np.array_equal(given, own):
                raise ArgumentError("the state is not on this operator's quadrature")
        if system.forcing.mode == "additive":
            return self._fit_additive(state, theta)
        return self._fit_replacement(state, theta)

    def _fit_additive(self, state: QuadratureState, theta) -> ForcingEstimate:
        target = self.system.forcing.target - 1
        resid = state.mismatch(self.system, theta)[:, target]
        g = self._smoother.fit(resid)
        post = resid - self._grid.combine(g.coefficients)
        return ForcingEstimate(
            g=g,
            mode="additive",
            target=self.system.forcing.target,
            objective=float(self.weights @ post**2),
            objective_unforced=float(self.weights @ resid**2),
            converged=True,
            n_iter=1,
        )

    def _step(self, coef: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Gauss-Newton step for residual rows ``r`` (nq, d) whose Jacobian
        row (q, d) is ``a[q, d] * psi_q``, with the penalty rows when the
        penalty is nonzero: the least-squares solution of J step = r."""
        band = self._grid.gram(np.einsum("qd,qd->q", a, a))
        rhs = self._grid.project(np.einsum("qd,qd->q", a, r))
        if self._pen is not None:
            band += self._pen
            rhs += band_dot(self._pen, coef)
        try:
            return solveh_banded(band, rhs, check_finite=False)
        except np.linalg.LinAlgError:
            pass
        if not band[-1].all():
            raise RankError(
                "replacement-forcing Gauss-Newton system is singular: the rate does "
                "not depend on the replaced parameter over the support of a g basis "
                "function"
            )
        # positive definite in exact arithmetic, not in rounding: g has run to
        # where the rate barely depends on it, and squaring the Jacobian's
        # condition number lost that direction; solve over the rows instead
        return self._dense_step(coef, a, r)

    def _dense_step(self, coef: np.ndarray, a: np.ndarray, r: np.ndarray) -> np.ndarray:
        psi = self.basis.design_matrix(self._grid)
        jac = (a[:, :, None] * psi[:, None, :]).reshape(-1, self.basis.size)
        rhs = r.reshape(-1)
        if self._pen is not None:
            # penalty rows R with R^T R = penalty P: the weighted curvature
            # at the nodes of the exact rule that builds P
            grid, w = self.basis.penalty_rule(2)
            rows = np.sqrt(self.penalty * w)[:, None] * self.basis.design_matrix(grid, 2)
            jac = np.vstack([jac, rows])
            rhs = np.concatenate([rhs, rows @ coef])
        return np.linalg.lstsq(jac, rhs, rcond=None)[0]

    def _fit_replacement(self, state: QuadratureState, theta) -> ForcingEstimate:
        system, x, nodes, sw = self.system, state.x, state.nodes, state.sqrt_w

        def residual(coef):
            g = self._grid.combine(coef)
            r = sw[:, None] * state.mismatch(system, theta, g)
            flat = r.reshape(-1)
            obj = float(flat @ flat)
            if self._pen is not None:
                obj += float(coef @ band_dot(self._pen, coef))
            return r, obj, g

        def banded_step(coef, r, g):
            df = rate_derivative(system, x, nodes, theta, g, d_g=1.0)
            return self._step(coef, -sw[:, None] * df, r)

        replaced = theta[system.forcing.target - 1]
        start = np.full(self.basis.size, replaced, dtype=float)  # partition of unity
        fit = _descend(residual, banded_step, start, _GN_MAX_ITER, _GN_TOL)
        if fit is None:
            raise ConvergenceError("replacement forcing start produced non-finite residuals")
        return ForcingEstimate(
            g=SplineFunction(self.basis, fit.x),
            mode="parameter_replacement",
            target=system.forcing.target,
            objective=fit.objective,
            objective_unforced=fit.start_objective,
            converged=fit.converged,
            n_iter=fit.n_iter,
        )
