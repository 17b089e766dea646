"""B-spline bases, penalized smoothing, and spline-valued functions.

Every B-spline value in the package comes from one routine: the
Cox-de Boor recursion (de Boor 1978, *A Practical Guide to Splines*),
vectorized over a stack of clamped bases and their points. A single
basis is a stack of one.

* :meth:`BSplineBasis.design_matrix` and :meth:`SplineFunction.__call__`
  evaluate through it. The derivative of order d of a spline is a spline
  of order ``order - d`` on the inner knots, with coefficients that are
  scaled differences of the original ones. Differences and sums take
  scipy's ``BSpline`` arithmetic. The recursion's denominators are
  ``(k_b - t) + (t - k_a)`` where scipy takes ``k_b - k_a``, so values
  can differ from scipy's in the last bit, where those round apart.
* :class:`BasisGrid` keeps a basis's nonzero values at fixed points. Any
  number of splines on that basis are then evaluated there by a short
  gather and sum per point; the pipeline's refits use this.
* :func:`stacked_basis_values` evaluates a stack of bases at once and
  :func:`stacked_derivative_gram` gives their penalty Grams in closed
  form; every term of the GCV smoother (:mod:`odelof.smoothers`) is built
  with them.

The penalty Grams of one basis are built by per-span Gauss-Legendre
quadrature, which is exact because the integrands are piecewise
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_factor, cho_solve

from .errors import ArgumentError, RankError, check_kinds, is_finite_real
from .systems import _frozen


@dataclass(frozen=True, eq=False)
class BSplineBasis:
    """Clamped B-spline basis of a given order on a breakpoint grid.

    Two bases are equal when their orders and breakpoints are.

    Parameters
    ----------
    order : int
        Spline order (degree + 1); 4 means cubic.
    breakpoints : ndarray
        Strictly increasing knots including both domain endpoints.
    """

    order: int
    breakpoints: np.ndarray

    def __post_init__(self):
        check_kinds(self, counts=("order",))
        if self.order < 1:
            raise ArgumentError(f"order must be >= 1, got {self.order!r}")
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ArgumentError("breakpoints must be a 1-D array with at least 2 entries")
        if not np.all(np.isfinite(bp)):
            raise ArgumentError("breakpoints contain non-finite values")
        if np.any(np.diff(bp) <= 0):
            raise ArgumentError("breakpoints must be strictly increasing")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "breakpoints", _frozen(bp))

    def __eq__(self, other):
        if not isinstance(other, BSplineBasis):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.breakpoints, other.breakpoints)

    def __hash__(self):
        return hash((self.order, self.breakpoints.tobytes()))

    @property
    def degree(self) -> int:
        return self.order - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def size(self) -> int:
        """Number of basis functions."""
        return self.breakpoints.size - 1 + self.degree

    @property
    def knots(self) -> np.ndarray:
        """Full clamped knot vector (endpoint multiplicity = order)."""
        k = self.degree
        return np.concatenate(
            [np.full(k, self.breakpoints[0]), self.breakpoints, np.full(k, self.breakpoints[-1])]
        )

    @property
    def support_width(self) -> float:
        """Widest basis-function support; order * spacing on uniform grids."""
        k = self.knots
        spans = k[self.order:] - k[: k.size - self.order]
        return float(spans.max())

    def _check_inside(self, t: np.ndarray) -> np.ndarray:
        lo, hi = self.domain
        tol = 1e-9 * (hi - lo)
        if t.size and (t.min() < lo - tol or t.max() > hi + tol):
            raise ArgumentError(
                f"evaluation points must lie in [{lo:g}, {hi:g}]; "
                f"got range [{t.min():g}, {t.max():g}]"
            )
        return np.clip(t, lo, hi)

    def design_matrix(self, t, deriv: int = 0) -> np.ndarray:
        """Evaluate all basis functions (or a derivative) at points ``t``,
        or at the points of a :class:`BasisGrid` of this basis."""
        return _grid_for(self, t, deriv).combine(np.eye(self.size), deriv)

    def penalty_gram(self, deriv: int = 2) -> np.ndarray:
        """Exact Gram matrix of derivative inner products.

        ``P[i, j] = integral of B_i^(deriv) * B_j^(deriv)`` over the domain,
        computed span by span with a Gauss-Legendre rule of the exact degree.
        """
        _check_deriv(self, deriv)
        q = self.order - deriv
        xi, wi = _gauss_rule(q)
        a = self.breakpoints[:-1]
        b = self.breakpoints[1:]
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b)[:, None] + half[:, None] * xi[None, :]).ravel()
        weights = (half[:, None] * wi[None, :]).ravel()
        d = self.design_matrix(nodes, deriv)
        gram = d.T @ (weights[:, None] * d)
        return 0.5 * (gram + gram.T)


@lru_cache(maxsize=16)
def _gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(q)


def stacked_basis_values(knots: np.ndarray, order: int, t: np.ndarray) -> np.ndarray:
    """B-spline values for a stack of clamped bases.

    Row i of ``knots`` (m, nk) is the full knot vector of one clamped basis
    of the given order, as :attr:`BSplineBasis.knots` builds it; row i of
    ``t`` (m, n) holds points inside that basis's domain. Returns (m, n, K),
    the K = nk - order basis functions of row i at its points: row i's
    :meth:`BSplineBasis.design_matrix`, for many bases at once.
    """
    span, (vals,) = _cox_de_boor(knots, order, order, t)
    return _dense(span, vals, knots.shape[1] - order)


def stacked_derivative_gram(knots: np.ndarray, order: int, deriv: int = 2) -> np.ndarray:
    """:meth:`BSplineBasis.penalty_gram` for a stack of clamped bases (rows
    of ``knots`` as in :func:`stacked_basis_values`), up to rounding.

    The derivative of an order-m B-spline is a two-term combination of
    order m - 1 ones, so ``P = D G D^T`` with ``G`` the Gram of the order
    ``q = order - deriv`` B-splines on the same knots and ``D`` the product
    of ``deriv`` bidiagonal difference maps. ``G`` has a closed form for
    piecewise constant and linear B-splines (q <= 2); above that it comes
    from the same exact Gauss rule as ``penalty_gram``.
    """
    m, nk = knots.shape
    q = order - deriv
    size = nk - q  # order-q B-splines on these knots
    at = np.arange(size)
    h = np.diff(knots, axis=1)
    gram = np.zeros((m, size, size))
    if q == 1:
        gram[:, at, at] = h
    elif q == 2:
        # hats: integral of B_j^2 = (k_{j+2} - k_j) / 3 and of B_j B_{j+1}
        # = (k_{j+2} - k_{j+1}) / 6
        gram[:, at, at] = (h[:, :-1] + h[:, 1:]) / 3.0
        gram[:, at[:-1], at[1:]] = gram[:, at[1:], at[:-1]] = h[:, 1:-1] / 6.0
    else:
        breaks = knots[:, order - 1 : nk - order + 1]
        xi, wi = _gauss_rule(q)
        half = 0.5 * (breaks[:, 1:] - breaks[:, :-1])
        mid = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
        nodes = (mid[:, :, None] + half[:, :, None] * xi).reshape(m, -1)
        weights = (half[:, :, None] * wi).reshape(m, -1)
        span, (vals,) = _cox_de_boor(knots, order, q, nodes)
        vals = _dense(span, vals, size)
        gram = vals.transpose(0, 2, 1) @ (weights[:, :, None] * vals)
    for mm in range(q + 1, order + 1):
        # d/dt B_{a,mm} = (mm - 1) (B_{a,mm-1} / (k_{a+mm-1} - k_a)
        #                           - B_{a+1,mm-1} / (k_{a+mm} - k_{a+1}))
        gaps = knots[:, mm - 1 :] - knots[:, : nk - mm + 1]
        inv = np.zeros_like(gaps)
        np.divide(mm - 1.0, gaps, out=inv, where=gaps > 0)
        rows = np.arange(nk - mm)
        diff = np.zeros((m, rows.size, rows.size + 1))
        diff[:, rows, rows] = inv[:, :-1]
        diff[:, rows, rows + 1] = -inv[:, 1:]
        gram = diff @ gram @ diff.transpose(0, 2, 1)
    return 0.5 * (gram + gram.transpose(0, 2, 1))


def _cox_de_boor(
    knots: np.ndarray, order: int, q: int, t: np.ndarray, lowest: int | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    # The nonzero B-splines of orders `lowest` (default q) to q at points
    # inside a stack of clamped bases of the given order: row i of knots
    # (m, nk) and of t (m, n) as in stacked_basis_values. Returns each
    # point's span i (m, n), with k_i <= t < k_{i+1} and the right end of
    # the domain in the last nonempty span, and per order p an array
    # (p, m, n) whose row r is the order-p B-spline i - p + 1 + r at the
    # point. The triangular scheme vectorized over bases and points
    # (Piegl & Tiller, The NURBS Book, A2.2). Each point sits in a nonempty
    # span, so no denominator is zero.
    lowest = q if lowest is None else lowest
    p = q - 1
    m, n = t.shape
    nk = knots.shape[1]
    span = np.array([np.searchsorted(k, x, side="right") for k, x in zip(knots, t)]) - 1
    np.clip(span, order - 1, nk - order - 1, out=span)
    at = span + (np.arange(m) * nk)[:, None]
    flat = knots.ravel()
    left = np.empty((p, m, n))  # row j - 1: t - k_{i+1-j}
    right = np.empty((p, m, n))  # row j - 1: k_{i+j} - t
    vals = np.empty((q, m, n))  # row r: the r-th order-j function nonzero at t
    vals[0] = 1.0
    kept = []
    for j in range(1, p + 1):
        if j >= lowest:
            kept.append(vals[:j].copy())  # the order-j values
        # in place, so a stack of bases holds few (m, n) temporaries
        np.subtract(t, flat[at + (1 - j)], out=left[j - 1])
        np.subtract(flat[at + j], t, out=right[j - 1])
        saved = 0.0
        for r in range(j):
            temp = vals[r] / (right[r] + left[j - 1 - r])
            np.multiply(right[r], temp, out=vals[r])
            vals[r] += saved
            saved = temp
            saved *= left[j - 1 - r]
        vals[j] = saved
    kept.append(vals)
    return span, kept


def _dense(span: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    # (m, n, size) design from _cox_de_boor's span and one order's values
    q, m, n = vals.shape
    out = np.zeros((m, n, size))
    first = np.arange(m * n).reshape(m, n) * size + span - (q - 1)
    out.ravel()[first + np.arange(q)[:, None, None]] = vals
    return out


_SLAB = 1 << 13  # entries of one gathered term in BasisGrid.combine


def _check_deriv(basis: BSplineBasis, deriv: int) -> None:
    if deriv < 0 or deriv >= basis.order:
        raise ArgumentError(f"deriv must be in 0..{basis.order - 1}, got {deriv}")


class BasisGrid:
    """Nonzero values of one basis, and of its derivatives, at fixed points.

    Pass a grid in place of the points to :meth:`BSplineBasis.design_matrix`
    or to :meth:`SplineFunction.__call__` of a spline on ``basis``. The
    recursion then runs once, when the grid is built, and each evaluation
    is a sum over the few basis functions nonzero at each point, in the
    order of an evaluation at the points themselves, so the values are
    the same to the last bit. Derivatives up to ``max_deriv`` are kept.
    """

    def __init__(self, basis: BSplineBasis, points, max_deriv: int = 0):
        _check_deriv(basis, max_deriv)
        self.basis = basis
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        self.max_deriv = max_deriv
        t = basis._check_inside(self.points).reshape(1, -1)
        order = basis.order
        span, vals = _cox_de_boor(basis.knots[None], order, order, t, order - max_deriv)
        # derivative d is a spline of order - d on the inner knots; its
        # functions nonzero at a point carry the same first index,
        # span - degree, in the differenced coefficients
        self._at = span[0] - basis.degree + np.arange(order)[:, None]
        self._vals = [v[:, 0] for v in reversed(vals)]  # by derivative
        # the knot gaps t_{i+k+1} - t_{i+1} of each order lowered
        knots, k = basis.knots, basis.degree
        self._gaps = []
        for _ in range(max_deriv):
            self._gaps.append(knots[k + 1 : -1] - knots[1 : -k - 1])
            knots, k = knots[1:-1], k - 1

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Columns and values (n, order) of the basis functions nonzero at
        each point."""
        return np.ascontiguousarray(self._at.T), np.ascontiguousarray(self._vals[0].T)

    def combine(self, coefficients: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Derivative ``deriv`` at the points of the spline with these
        coefficients, (K,) or (K, m)."""
        if not 0 <= deriv <= self.max_deriv:
            raise ArgumentError(f"deriv must be in 0..{self.max_deriv} on this grid, got {deriv}")
        c = np.asarray(coefficients, dtype=float)
        for d, gap in enumerate(self._gaps[:deriv]):
            # the derivative, one order lower on the inner knots:
            # c_i <- (c_{i+1} - c_i) k / (t_{i+k+1} - t_{i+1}) (de Boor 1978,
            # ch. X), in the arithmetic of scipy's splder
            k = self.basis.degree - d
            c = (c[1:] - c[:-1]) * k / (gap if c.ndim == 1 else gap[:, None])
        vals = self._vals[deriv]
        if c.ndim == 2:
            vals = vals[:, :, None]
        at = self._at[: vals.shape[0]]
        out = np.empty(at.shape[1:] + c.shape[1:])
        # points in slabs, so the gathered terms of a wide coefficient
        # array (a design matrix's identity) stay small
        step = max(1, _SLAB // c[0].size)
        for lo in range(0, out.shape[0], step):
            terms = np.take(c, at[:, lo : lo + step], axis=0)
            terms *= vals[:, lo : lo + step]
            part = out[lo : lo + step]
            # summed from 0.0, as scipy sums: -0.0 becomes 0.0
            np.add(terms[0], 0.0, out=part)
            for term in terms[1:]:
                part += term
        return out.reshape(self.points.shape + c.shape[1:])


def _grid_for(basis: BSplineBasis, t, deriv: int) -> BasisGrid:
    # t itself if it is a grid of this basis, else a grid at the points t
    if not isinstance(t, BasisGrid):
        return BasisGrid(basis, t, deriv)
    if t.basis is not basis and t.basis != basis:
        raise ArgumentError("the grid was built for another basis")
    return t


def make_basis(order: int, domain: tuple[float, float], knot_spacing: float) -> BSplineBasis:
    """Uniform clamped basis on ``domain`` with knots every ``knot_spacing``.

    The spacing is rounded so an integer number of spans tiles the domain
    exactly.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ArgumentError(f"domain must be a finite increasing pair, got {domain!r}")
    if not np.isfinite(knot_spacing) or knot_spacing <= 0:
        raise ArgumentError(f"knot_spacing must be positive, got {knot_spacing!r}")
    n_spans = max(1, int(round((hi - lo) / knot_spacing)))
    return BSplineBasis(order, np.linspace(lo, hi, n_spans + 1))


@dataclass(frozen=True, eq=False)
class SplineFunction:
    """A spline (possibly vector-valued) as basis plus coefficients.

    ``coefficients`` has shape (K,) for a scalar function or (K, m) for m
    outputs sharing one basis. Two splines are equal when their bases and
    coefficients are.
    """

    basis: BSplineBasis
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim not in (1, 2) or c.shape[0] != self.basis.size:
            raise ArgumentError(
                f"coefficients must have leading dimension {self.basis.size}, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ArgumentError("coefficients contain non-finite values")
        object.__setattr__(self, "coefficients", _frozen(c))

    def __eq__(self, other):
        if not isinstance(other, SplineFunction):
            return NotImplemented
        return self.basis == other.basis and np.array_equal(self.coefficients, other.coefficients)

    def __call__(self, t, deriv: int = 0):
        """Evaluate the spline or one of its derivatives at ``t``: points,
        or a :class:`BasisGrid` of this spline's basis."""
        out = _grid_for(self.basis, t, deriv).combine(self.coefficients, deriv)
        return out[0] if not isinstance(t, BasisGrid) and np.ndim(t) == 0 else out

    def to_dict(self) -> dict:
        """JSON-ready representation; exact float round trip."""
        return {
            "order": self.basis.order,
            "breakpoints": self.basis.breakpoints.tolist(),
            "coefficients": self.coefficients.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "SplineFunction":
        basis = BSplineBasis(int(d["order"]), np.asarray(d["breakpoints"], dtype=float))
        return SplineFunction(basis, np.asarray(d["coefficients"], dtype=float))


class SmoothingOperator:
    """Penalized least-squares smoother with precomputed factorization.

    Fixing (times, basis, penalty) once allows many response vectors to be
    smoothed at the cost of one triangular solve each; the bootstrap loops
    rely on this. Smoothing is linear in the data by construction.
    """

    def __init__(self, times, basis: BSplineBasis, penalty: float):
        t = np.asarray(times, dtype=float)
        if not is_finite_real(penalty) or penalty < 0:
            raise ArgumentError(f"penalty must be nonnegative and finite, got {penalty!r}")
        self.basis = basis
        self.penalty = float(penalty)
        self.times = t
        self.design = basis.design_matrix(t)
        gram = self.design.T @ self.design
        if penalty > 0:
            gram = gram + penalty * basis.penalty_gram(2)
        try:
            self._factor = cho_factor(gram)
        except np.linalg.LinAlgError:
            raise RankError(
                f"smoothing system is singular ({t.size} observations, "
                f"{basis.size} basis functions, penalty={penalty:g}); "
                "increase the penalty or coarsen the knots"
            ) from None

    def fit(self, values) -> SplineFunction:
        y = np.asarray(values, dtype=float)
        one_d = y.ndim == 1
        if one_d:
            y = y[:, None]
        if y.shape[0] != self.times.size:
            raise ArgumentError(
                f"values have {y.shape[0]} rows, operator was built for {self.times.size}"
            )
        coef = cho_solve(self._factor, self.design.T @ y)
        if not np.all(np.isfinite(coef)):
            raise RankError("smoothing produced non-finite coefficients")
        return SplineFunction(self.basis, coef[:, 0] if one_d else coef)
