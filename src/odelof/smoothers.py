"""Penalized-spline scatter smoother with GCV.

Fits h(x) = alpha + sum_g f_g(x_g) by penalized least squares over column
groups: each group is either a single predictor (univariate cubic
B-spline term) or several predictors smoothed jointly by a tensor
product of marginal bases, so the surface can carry interactions. The
default is fully additive; ``SmootherSettings.interaction`` joins all
columns into one tensor term, and callers may pass explicit ``groups``.
One shared smoothing weight is chosen by generalized cross-validation on
a fixed log grid. Every term uses knots at predictor quantiles, a
sum-to-zero constraint absorbed by reparameterization, a curvature
penalty, and a null-space shrinkage penalty so lambda -> inf shrinks the
whole term away (EDF -> 1 for pure-noise responses).

The design is factorized once (QR of the ridged design, then an
eigendecomposition of the reparameterized penalty), after which each
response-only refit costs O(n k): the nested bootstrap/permutation loops
depend on this. :meth:`AdditiveSmootherDesign.fit_many` is the one fit:
it fits the rows of a response matrix, such as the B2 block permutations
of one replicate, each with its own GCV lambda; one response is the
one-row matrix ``y[None]``. A row's fit depends on the batch size through
rounding, so the permutation tests count near-ties as ties. Both
permutation tests swap only the response within a replicate (case 3's
lagged predictors are lagged states, fixed with the states), so one
factorized design serves every permutation.

A term is built as arrays: knots, B-spline columns by the Cox-de Boor
recursion, a Householder sum-to-zero basis and closed-form penalty Grams
(:func:`_term`). One routine turns the design's triangular factor and
penalty into the eigenbasis the GCV search needs (:func:`_factor`), and
one (row, lambda) table of RSS, EDF and GCV picks each response row's
lambda (:func:`_gcv_table`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import block_diag
from scipy.linalg.lapack import dgeqrf, dtrtri

from .errors import ArgumentError, DegenerateDesignError
from .splines import stacked_basis_values, stacked_derivative_gram

_RIDGE_REL = 1e-10
_ORDER = 4  # cubic B-splines
_MIN_TERM_DIM = 6
_LAMBDAS = np.logspace(-8.0, 8.0, 61)  # the GCV grid
_LAMBDAS.flags.writeable = False  # shared by every design
# response rows whose (row, lambda) GCV table is filled together: enough
# to batch the matrix products, few enough that the (rows, lambda, k)
# arrays stay small
_STACK = 16


@dataclass(frozen=True)
class SmootherSettings:
    """Knobs for the scatter smoother.

    total_dim is split across terms in proportion to the number of
    predictor columns each term smooths (floor 6 per univariate term)
    and capped at n/4 for small samples. A tensor term over q columns
    uses the largest per-direction dimension d with d**q inside its
    share, never below 4. With ``interaction`` all predictor columns
    form one joint tensor term instead of separate additive terms.
    The ``interaction=False`` default is the bare smoother's: the
    pipeline (:class:`~odelof.pipeline.PipelineSettings`) and the config
    default to True.
    """

    total_dim: int = 40
    interaction: bool = False

    def __post_init__(self):
        if self.total_dim < 8:
            raise ArgumentError(f"total_dim must be >= 8, got {self.total_dim}")


@lru_cache(maxsize=32)
def _quantile_positions(n: int, n_breaks: int) -> tuple[np.ndarray, np.ndarray]:
    # Interior breaks sit at quantiles by np.quantile's linear rule, its
    # rounding included: between sorted values below and below + 1, at
    # fraction gamma.
    at = (n - 1) * np.linspace(0.0, 1.0, n_breaks)[1:-1]
    below = np.floor(at).astype(np.intp)
    gamma = at - below
    below.flags.writeable = gamma.flags.writeable = False  # shared by the cache
    return below, gamma


def _breaks(xs: np.ndarray, dim: int) -> list[float]:
    """Spline breakpoints of the sorted predictor ``xs``: the ends plus
    interior quantiles, dropping any closer than a tolerance to the last
    break kept."""
    lo, hi = float(xs[0]), float(xs[-1])
    width = hi - lo
    if width <= 0 or width < 1e-12 * max(1.0, abs(hi)):
        raise DegenerateDesignError(
            "constant predictor: its smooth term would reduce to the mean"
        )
    n_breaks = max(2, dim - _ORDER + 2)
    below, gamma = _quantile_positions(xs.size, n_breaks)
    a, b = xs[below], xs[below + 1]
    gap = b - a
    inner = np.where(gamma >= 0.5, b - gap * (1 - gamma), a + gap * gamma)
    tol = 1e-10 * width
    row = [lo]
    for q in inner.tolist() + [hi]:
        if q - row[-1] > tol:
            row.append(q)
    if len(row) < 2:
        raise DegenerateDesignError("predictor has too few distinct values for a spline term")
    return row


def _basis_values(knots: list[np.ndarray], xs: list[np.ndarray]) -> np.ndarray:
    """Tensor-product B-spline values of a stack of terms: for each
    direction d, row i of ``knots[d]`` (m, nk) is a clamped knot vector and
    row i of ``xs[d]`` (m, n) its points, clipped to the knot domain so
    points beyond it hold the boundary value. Returns (m, n, prod K_d), the
    marginals' row-wise Kronecker product."""
    block = None
    for kn, x in zip(knots, xs):
        marg = stacked_basis_values(kn, _ORDER, np.clip(x, kn[:, :1], kn[:, -1:]))
        if block is None:
            block = marg
        else:
            block = (block[..., :, None] * marg[..., None, :]).reshape(*x.shape, -1)
    return block


def _sum_to_zero_bases(rows: np.ndarray) -> np.ndarray:
    """For each row of ``rows`` (m, K), an orthonormal basis (K, K - 1) of
    the vectors orthogonal to it.

    The Householder reflection taking the row to a multiple of the first
    unit vector has the wanted basis as its other columns.
    """
    v = rows.astype(float, copy=True)
    v[:, 0] += np.copysign(np.sqrt(np.sum(v * v, axis=1)), v[:, 0])
    h = -(2.0 / np.sum(v * v, axis=1))[:, None, None] * v[:, :, None] * v[:, None, 1:]
    h[:, 1:] += np.eye(v.shape[1] - 1)
    return h


def _frobenius_normalized(a: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.sum(a * a, axis=(1, 2)))
    return a / np.where(scale > 0, scale, 1.0)[:, None, None]


def _shrunk_penalties(knots: list[np.ndarray], z: np.ndarray) -> np.ndarray:
    """Penalties (m, k, k) of a stack of terms with the given knots (as in
    :func:`_basis_values`) and sum-to-zero bases ``z`` (m, K, k)."""
    # Directionwise curvature: integrated squared second derivative along
    # each group direction, the other directions entering through their
    # function-space Gram. Summands are normalized so one lambda weights
    # all directions comparably.
    m = z.shape[0]
    pen = 0.0
    for d in range(len(knots)):
        block = None
        for e, kn in enumerate(knots):
            gram = stacked_derivative_gram(kn, _ORDER, 2 if e == d else 0)
            if block is None:
                block = gram
            else:
                size = block.shape[1] * gram.shape[1]
                block = block[:, :, None, :, None] * gram[:, None, :, None, :]
                block = block.reshape(m, size, size)
        pen = pen + _frobenius_normalized(block)
    curv = z.transpose(0, 2, 1) @ pen @ z
    curv = _frobenius_normalized(0.5 * (curv + curv.transpose(0, 2, 1)))
    # Shrinkage of the curvature null space (linear trends and their
    # products) lets lambda -> inf remove the term entirely.
    w, v = np.linalg.eigh(curv)
    null = w <= 1e-10 * np.maximum(w.max(axis=1), 1.0)[:, None]
    return curv + (v * null[:, None, :]) @ v.transpose(0, 2, 1)


def _term(xs: list[np.ndarray], dims: list[int]):
    """One term over the predictor columns ``xs``, one (n,) array per
    direction, with per-direction basis sizes ``dims``.

    Returns, each as a stack of one for the stacked helpers: clamped
    knots (1, nk_d) per direction, the sum-to-zero basis z (1, K, k), the
    transposed design columns lt (1, k, n) and the shrunk penalty (1, k, k).
    """
    # clamped: each end break repeated to multiplicity _ORDER
    knots = [
        np.pad(np.array([_breaks(np.sort(x), dim)]), ((0, 0), (_ORDER - 1,) * 2), mode="edge")
        for x, dim in zip(xs, dims)
    ]
    block = _basis_values(knots, [x[None] for x in xs]).transpose(0, 2, 1)
    z = _sum_to_zero_bases(block.sum(axis=2))
    lt = z.transpose(0, 2, 1) @ block
    return knots, z, lt, _shrunk_penalties(knots, z)


def _packed_r(a: np.ndarray) -> np.ndarray:
    """LAPACK geqrf of ``a`` in place when it is Fortran-ordered: the
    triangular factor of its thin QR sits in the upper triangle of the
    leading rows; below it are Householder vectors (no Q is formed)."""
    packed, _, _, info = dgeqrf(a, overwrite_a=True)
    if info != 0:
        raise DegenerateDesignError(f"QR of the smoother design failed (info {info})")
    return packed


def _r_inverse(packed: np.ndarray) -> np.ndarray:
    # inverse of the k x k triangular factor at the top of a packed QR
    k = packed.shape[1]
    r_inv, info = dtrtri(packed[:k])
    if info != 0:
        raise DegenerateDesignError("ridged smoother design lost full rank")
    return r_inv * _upper(k)


@lru_cache(maxsize=8)
def _upper(k: int) -> np.ndarray:
    # mask of the upper triangle, to clear what LAPACK leaves below it
    mask = np.triu(np.ones((k, k)))
    mask.flags.writeable = False  # shared by the cache
    return mask


def _factor(r_inv: np.ndarray, penalties: np.ndarray, eps: np.ndarray):
    """The GCV eigenbasis of a stack of ridged designs, given the inverses
    ``r_inv`` (m, k, k) of their triangular factors (R^T R = X^T X + eps
    I), their penalties (m, k, k) and ridges ``eps`` (m,).

    V = R^{-1} U diagonalizes the ridged Gram and the penalty at once:
    V^T (X^T X + eps I) V = I and V^T S V = diag(eig). Returns V, the
    shrinkage d = 1 / (1 + lambda eig) over the lambda grid (m, L, k), the
    EDF d.(1 - eps diag(C)) per lambda (m, L) and the ridge correction
    C = V^T V.
    """
    s = r_inv.transpose(0, 2, 1) @ penalties @ r_inv
    s += s.transpose(0, 2, 1)
    s *= 0.5
    eig, u = np.linalg.eigh(s)
    v = r_inv @ u
    c = v.transpose(0, 2, 1) @ v
    d = 1.0 / (1.0 + _LAMBDAS[:, None] * np.clip(eig, 0.0, None)[:, None, :])
    edf_weights = 1.0 - eps[:, None] * np.diagonal(c, axis1=1, axis2=2)
    return v, d, (d @ edf_weights[:, :, None])[:, :, 0], c


def _gcv_table(z: np.ndarray, yy: np.ndarray, n: int, factor, eps: float):
    """GCV over the lambda grid for each row of ``z`` (m, k), the
    projection V^T X^T y of a response with squared norm ``yy``, on one
    design with ``factor`` (from :func:`_factor`, a stack of one) and
    ridge ``eps``.

    With shrinkage d, the RSS is yTy - 2 d.z^2 + d^2.z^2 - eps (dz)^T C
    (dz), the last term undoing the ridge; it is built a chunk of rows at
    a time, which bounds the (rows, lambda, k) temporaries. Returns, per
    row, the pick (ties to the largest lambda), its EDF and GCV, and the
    shrunk projection d z at the pick.
    """
    _, d, edf, c = factor
    m = z.shape[0]
    quad = (d - 2.0) * d
    rss = np.empty((m, _LAMBDAS.size))
    for at in range(0, m, _STACK):
        rows = slice(at, at + _STACK)
        zr = z[rows]
        # (dz)^T C (dz) = d^T W d with W = C o z z^T
        w = zr[:, :, None] * zr[:, None, :]
        w *= c
        ridge = np.einsum("...lk,...lk->...l", d @ w, d)
        rss[rows] = (quad @ (zr * zr)[:, :, None])[:, :, 0] - eps * ridge
    rss += yy[:, None]
    gcv = np.clip(rss, 0.0, None, out=rss) / (n - edf) ** 2
    pick = _LAMBDAS.size - 1 - np.argmin(gcv[:, ::-1], axis=1)  # ties -> largest lambda
    return pick, edf[0, pick], gcv[np.arange(m), pick], d[0, pick] * z


def _predictor_matrix(predictors) -> np.ndarray:
    x = np.asarray(predictors, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ArgumentError(f"predictors must be 1-D or 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("predictors contain non-finite values")
    return x


class AdditiveSmootherDesign:
    """Factorized smoother design for one predictor matrix.

    Build once per predictor set; call :meth:`fit_many` for every new
    stack of responses sharing those predictors. ``groups`` partitions the
    predictor columns into terms: singleton groups get univariate spline
    terms, larger groups get joint tensor-product terms. By default the
    fit is additive (all singletons) unless ``settings.interaction``
    joins every column into one tensor term.
    """

    lambda_grid = _LAMBDAS

    def __init__(
        self,
        predictors,
        settings: Optional[SmootherSettings] = None,
        groups: Optional[list[tuple[int, ...]]] = None,
    ):
        self.settings = settings or SmootherSettings()
        x = _predictor_matrix(predictors)
        n, p = x.shape
        if n < 8:
            raise ArgumentError(f"need at least 8 rows to smooth, got {n}")
        self.n, self.p = n, p
        self.predictors = x
        self.groups = self._normalize_groups(groups, p)

        self._total = min(self.settings.total_dim, max(n // 4, _MIN_TERM_DIM * p))
        self._bases = []  # per group: its columns, knots and sum-to-zero basis
        blocks, pens = [np.ones((n, 1))], [np.zeros((1, 1))]
        for grp in self.groups:
            knots, z, lt, pen = _term([x[:, j] for j in grp], self._dims(grp))
            self._bases.append((grp, knots, z))
            blocks.append(lt[0].T)
            pens.append(pen[0])

        design = np.hstack(blocks)
        k = design.shape[1]
        if k + 2 > n:
            raise DegenerateDesignError(
                f"additive design has {k} columns for {n} rows; reduce total_dim"
            )
        # Tiny fixed ridge keeps R invertible under accidental collinearity;
        # its effect on RSS/EDF is corrected exactly in the GCV table.
        eps = _RIDGE_REL * (np.sum(design**2) / k)
        aug = np.zeros((n + k, k), order="F")
        aug[:n] = design
        aug[n + np.arange(k), np.arange(k)] = np.sqrt(eps)
        self.design = design
        self.penalty = block_diag(*pens)
        self.eps = eps
        self._factor = _factor(
            _r_inverse(_packed_r(aug))[None], self.penalty[None], np.array([eps])
        )

    def _normalize_groups(
        self, groups: Optional[list[tuple[int, ...]]], p: int
    ) -> tuple[tuple[int, ...], ...]:
        if groups is None:
            if self.settings.interaction and p >= 2:
                return (tuple(range(p)),)
            return tuple((j,) for j in range(p))
        seen: set[int] = set()
        clean = []
        for grp in groups:
            grp = tuple(int(j) for j in np.atleast_1d(grp))
            if not grp:
                raise ArgumentError("predictor groups must be non-empty")
            for j in grp:
                if not 0 <= j < p:
                    raise ArgumentError(
                        f"group column {j} outside predictor range 0..{p - 1}"
                    )
                if j in seen:
                    raise ArgumentError(f"predictor column {j} appears in two groups")
                seen.add(j)
            clean.append(grp)
        if len(seen) != p:
            raise ArgumentError("groups must cover every predictor column exactly once")
        return tuple(clean)

    def _dims(self, grp: tuple[int, ...]) -> list[int]:
        # each term's share of total_dim is proportional to its columns
        q = len(grp)
        budget = self._total * q // self.p
        if q == 1:
            return [max(_MIN_TERM_DIM, budget)]
        # Largest per-direction dimension whose tensor fits the group's
        # share of total_dim; 4 is one cubic span.
        dim = 4
        while (dim + 1) ** q <= budget:
            dim += 1
        return [dim] * q

    def design_for(self, predictors) -> np.ndarray:
        """Design rows at new predictor values; each term holds its
        boundary value beyond the training range of its columns."""
        x = _predictor_matrix(predictors)
        if x.shape[1] != self.p:
            raise ArgumentError(f"expected {self.p} predictor columns, got {x.shape[1]}")
        blocks = [np.ones((x.shape[0], 1))]
        for grp, knots, z in self._bases:
            blocks.append(_basis_values(knots, [x[None, :, j] for j in grp])[0] @ z[0])
        return np.hstack(blocks)

    def fit_many(self, responses) -> "RowFits":
        """GCV-smoothed fits of the rows of ``responses`` (m, n), each with
        its own lambda; one response is the one-row stack ``y[None]``."""
        y = np.asarray(responses, dtype=float)
        if y.ndim != 2 or y.shape[1] != self.n:
            raise ArgumentError(f"responses must have shape (m, {self.n}), got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ArgumentError("responses contain non-finite values")
        v = self._factor[0][0]
        z = (y @ self.design) @ v
        pick, edf, gcv, shrunk = _gcv_table(
            z, np.einsum("ij,ij->i", y, y), self.n, self._factor, self.eps
        )
        beta = shrunk @ v.T
        return RowFits(beta, beta @ self.design.T, edf, self.lambda_grid[pick], gcv)


@dataclass(frozen=True)
class RowFits:
    """Per-row fits of :meth:`AdditiveSmootherDesign.fit_many`: row i of
    ``coefficients`` and ``fitted`` and entry i of ``edf``, ``lam`` and
    ``gcv`` belong to response row i."""

    coefficients: np.ndarray  # (m, k)
    fitted: np.ndarray  # (m, n)
    edf: np.ndarray
    lam: np.ndarray
    gcv: np.ndarray
