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

The design is factorized once (thin QR + eigendecomposition of the
reparameterized penalty), after which each response-only refit costs
O(n k): the nested bootstrap/permutation loops depend on this.
:meth:`AdditiveSmootherDesign.fit_values` fits one response, or several
sharing one lambda; :meth:`AdditiveSmootherDesign.fit_many` fits the
columns of a response matrix, such as the B2 block permutations of one
replicate, each with its own GCV lambda, with matrix products over the
(lambda, column) table.

Case-3 permutations change one predictor as well: the lagged response,
the design's last column. :meth:`AdditiveSmootherDesign.fit_last_columns`
fits a stack of responses, each on this design with its own last column.
It keeps the intercept and the state terms with a QR factor of their
block and rebuilds only the last term of each row, as arrays: knots,
B-spline columns (Cox-de Boor), Householder sum-to-zero basis and
closed-form curvature penalty. Each row's factor follows from LAPACK QRs
of its residual block and of a small stacked triangle; one stacked
eigendecomposition and one (row, lambda) GCV table then serve the stack.
Full builds keep scipy's ``BSpline``, ``null_space`` and factorizations,
whose bits archived reports hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg import eigh, null_space, qr, solve_triangular
from scipy.linalg.lapack import dgeqrf, dtrtri

from .errors import ArgumentError, DegenerateDesignError
from .splines import BSplineBasis, stacked_basis_values, stacked_derivative_gram

_RIDGE_REL = 1e-10
# response columns per block of fit_many's GCV ridge correction
_CORR_CHUNK = 8
# rows of fit_last_columns whose last terms are built and fitted together:
# enough to batch the LAPACK calls, few enough that the stack's (rows, n,
# k) arrays stay small
_STACK = 16


@dataclass(frozen=True)
class SmootherSettings:
    """Knobs for the scatter smoother.

    total_dim is split across terms in proportion to the number of
    predictor columns each term smooths (floor min_term_dim per
    univariate term) and capped at n/4 for small samples. A tensor term
    over q columns uses the largest per-direction dimension d with
    d**q inside its share, never below 4. With ``interaction`` all
    predictor columns form one joint tensor term instead of separate
    additive terms. The lambda grid is log-uniform.
    """

    total_dim: int = 40
    min_term_dim: int = 6
    order: int = 4
    n_lambda: int = 61
    log10_lambda: tuple[float, float] = (-8.0, 8.0)
    interaction: bool = False


@dataclass
class _Term:
    cols: tuple[int, ...]
    bases: list[BSplineBasis]
    transform: np.ndarray  # (prod K_d, k_term) constraint null-space basis
    los: tuple[float, ...]
    his: tuple[float, ...]

    def columns(self, x: np.ndarray) -> np.ndarray:
        # Clip to the training box: predictions beyond it hold the
        # boundary value rather than extrapolating polynomials.
        block = None
        for basis, j, lo, hi in zip(self.bases, self.cols, self.los, self.his):
            marg = basis.design_matrix(np.clip(x[:, j], lo, hi))
            block = marg if block is None else _row_kron(block, marg)
        return block @ self.transform


def _row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


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


def _sum_to_zero_bases(rows: np.ndarray) -> np.ndarray:
    """For each row of ``rows`` (m, K), an orthonormal basis (K, K - 1) of
    the vectors orthogonal to it.

    The Householder reflection taking the row to a multiple of the first
    unit vector has the wanted basis as its other columns. It spans the
    same space as an SVD null-space basis, so fits, EDF and GCV do not
    depend on which of the two a term uses.
    """
    v = rows.astype(float, copy=True)
    v[:, 0] += np.copysign(np.sqrt(np.sum(v * v, axis=1)), v[:, 0])
    h = -(2.0 / np.sum(v * v, axis=1))[:, None, None] * v[:, :, None] * v[:, None, 1:]
    h[:, 1:] += np.eye(v.shape[1] - 1)
    return h


def _shrunk_penalties(z: np.ndarray, gram: np.ndarray) -> np.ndarray:
    # The penalties of AdditiveSmootherDesign._term_penalty for a stack of
    # univariate terms, with numpy's eigh, which takes stacks; full builds
    # keep scipy's, whose bits archived reports hold
    curv = z.transpose(0, 2, 1) @ gram @ z
    curv = 0.5 * (curv + curv.transpose(0, 2, 1))
    scale = np.sqrt(np.sum(curv * curv, axis=(1, 2)))
    curv /= np.where(scale > 0, scale, 1.0)[:, None, None]
    w, v = np.linalg.eigh(curv)
    null = w <= 1e-10 * np.maximum(w.max(axis=1), 1.0)[:, None]
    return curv + (v * null[:, None, :]) @ v.transpose(0, 2, 1)


def _packed_r(a: np.ndarray) -> np.ndarray:
    """LAPACK geqrf of ``a`` in place when it is Fortran-ordered: the
    triangular factor of its thin QR sits in the upper triangle of the
    leading rows; below it are Householder vectors (no Q is formed)."""
    packed, _, _, info = dgeqrf(a, overwrite_a=True)
    if info != 0:
        raise DegenerateDesignError(f"QR of the smoother design failed (info {info})")
    return packed


@lru_cache(maxsize=8)
def _upper(k: int) -> np.ndarray:
    # mask of the upper triangle, to clear what LAPACK leaves below it
    mask = np.triu(np.ones((k, k)))
    mask.flags.writeable = False  # shared by the cache
    return mask


def _check_width(k: int, n: int) -> None:
    if k + 2 > n:
        raise DegenerateDesignError(
            f"additive design has {k} columns for {n} rows; reduce total_dim"
        )


class AdditiveSmootherDesign:
    """Factorized smoother design for one predictor matrix.

    Build once per predictor set; call :meth:`fit_values` for every new
    response sharing those predictors. ``groups`` partitions the
    predictor columns into terms: singleton groups get univariate spline
    terms, larger groups get joint tensor-product terms. By default the
    fit is additive (all singletons) unless ``settings.interaction``
    joins every column into one tensor term.
    """

    def __init__(
        self,
        predictors,
        settings: Optional[SmootherSettings] = None,
        groups: Optional[list[tuple[int, ...]]] = None,
    ):
        self.settings = settings or SmootherSettings()
        x = np.asarray(predictors, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ArgumentError(f"predictors must be 1-D or 2-D, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ArgumentError("predictors contain non-finite values")
        n, p = x.shape
        if n < 8:
            raise ArgumentError(f"need at least 8 rows to smooth, got {n}")
        self.n, self.p = n, p
        self.predictors = x
        self.groups = self._normalize_groups(groups, p)

        self._total = min(self.settings.total_dim, max(n // 4, self.settings.min_term_dim * p))
        self.terms = []
        self._term_cols = []
        self._term_pens = []
        for grp in self.groups:
            term = self._build_term(x, grp)
            self.terms.append(term)
            self._term_cols.append(term.columns(x))
            self._term_pens.append(self._term_penalty(term))

        design = np.hstack([np.ones((n, 1))] + self._term_cols)
        k = design.shape[1]
        _check_width(k, n)
        # Tiny fixed ridge keeps R invertible under accidental collinearity;
        # its effect on RSS/EDF is corrected exactly below.
        eps = _RIDGE_REL * (np.sum(design**2) / k)
        aug = np.vstack([design, np.sqrt(eps) * np.eye(k)])
        r = qr(aug, mode="economic", check_finite=False)[1]
        m = solve_triangular(r, self._penalty(k).T, trans=1, lower=False, check_finite=False)
        m = solve_triangular(r, m.T, trans=1, lower=False, check_finite=False)
        lam_eig, u = eigh(0.5 * (m + m.T), check_finite=False)
        # v = R^{-1} U diagonalizes the ridged Gram and the penalty at once:
        # R^T R = X^T X + eps I and U^T R^{-T} S R^{-1} U = diag(lam_eig)
        v = solve_triangular(r, u, lower=False, check_finite=False)
        self.design = design
        self.eps = eps
        self._v = v
        self._eig = np.clip(lam_eig, 0.0, None)
        self._gram_corr = v.T @ v  # C = U^T R^{-T} R^{-1} U
        self._edf_weights = 1.0 - eps * np.diag(self._gram_corr)
        self._shrink = None  # per-lambda shrinkage factors, on first fit
        lo, hi = self.settings.log10_lambda
        self.lambda_grid = np.logspace(lo, hi, self.settings.n_lambda)

    def _penalty(self, k: int) -> np.ndarray:
        penalty = np.zeros((k, k))
        at = 1
        for pen in self._term_pens:
            kj = pen.shape[0]
            penalty[at : at + kj, at : at + kj] = pen
            at += kj
        return penalty

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
            return [max(self.settings.min_term_dim, budget)]
        # Largest per-direction dimension whose tensor fits the group's
        # share of total_dim; 4 is one cubic span.
        dim = 4
        while (dim + 1) ** q <= budget:
            dim += 1
        return [dim] * q

    def _build_term(self, x: np.ndarray, grp: tuple[int, ...]) -> _Term:
        bases, los, his = [], [], []
        block = None
        for j, dim_j in zip(grp, self._dims(grp)):
            basis, lo, hi = self._marginal_basis(x[:, j], dim_j)
            bases.append(basis)
            los.append(lo)
            his.append(hi)
            marg = basis.design_matrix(x[:, j])
            block = marg if block is None else _row_kron(block, marg)
        z = null_space(block.mean(axis=0)[None, :])
        return _Term(cols=grp, bases=bases, transform=z, los=tuple(los), his=tuple(his))

    def _marginal_basis(self, xj: np.ndarray, dim: int) -> tuple[BSplineBasis, float, float]:
        lo, hi, breaks = self._breaks(np.sort(xj)[None, :], dim)
        return BSplineBasis(self.settings.order, np.asarray(breaks[0])), float(lo[0]), float(hi[0])

    def _breaks(self, xs: np.ndarray, dim: int):
        """Spline breakpoints for each row of ``xs`` (m, n), sorted along
        rows: the ends plus interior quantiles, dropping any closer than a
        tolerance to the last break kept."""
        lo, hi = xs[:, 0], xs[:, -1]
        width = hi - lo
        if np.any((width <= 0) | (width < 1e-12 * np.maximum(1.0, np.abs(hi)))):
            raise DegenerateDesignError(
                "constant predictor: its smooth term would reduce to the mean"
            )
        n_breaks = max(2, dim - self.settings.order + 2)
        below, gamma = _quantile_positions(xs.shape[1], n_breaks)
        a, b = xs[:, below], xs[:, below + 1]
        gap = b - a
        inner = np.where(gamma >= 0.5, b - gap * (1 - gamma), a + gap * gamma)
        breaks = []
        for row_lo, row_inner, row_hi, tol in zip(
            lo.tolist(), inner.tolist(), hi.tolist(), (1e-10 * width).tolist()
        ):
            row = [row_lo]
            for q in row_inner + [row_hi]:
                if q - row[-1] > tol:
                    row.append(q)
            if len(row) < 2:
                raise DegenerateDesignError(
                    "predictor has too few distinct values for a spline term"
                )
            breaks.append(row)
        return lo, hi, breaks

    def _term_penalty(self, term: _Term) -> np.ndarray:
        z = term.transform
        # Directionwise curvature: integrated squared second derivative
        # along each group direction, the other directions entering
        # through their function-space Gram. Summands are normalized so
        # one lambda weights all directions comparably.
        pen = None
        for d in range(len(term.bases)):
            block = None
            for e, basis in enumerate(term.bases):
                factor = basis.penalty_gram(2 if e == d else 0)
                block = factor if block is None else np.kron(block, factor)
            scale = np.linalg.norm(block)
            if scale > 0:
                block = block / scale
            pen = block if pen is None else pen + block
        curv = z.T @ pen @ z
        curv = 0.5 * (curv + curv.T)
        scale = np.linalg.norm(curv)
        if scale > 0:
            curv = curv / scale
        w, v = eigh(curv, check_finite=False)
        null = v[:, w <= 1e-10 * max(w.max(), 1.0)]
        # Shrinkage of the curvature null space (linear trends and their
        # products) lets lambda -> inf remove the term entirely.
        return curv + null @ null.T

    @property
    def n_columns(self) -> int:
        return self.design.shape[1]

    def design_for(self, predictors) -> np.ndarray:
        x = np.asarray(predictors, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[1] != self.p:
            raise ArgumentError(f"expected {self.p} predictor columns, got {x.shape[1]}")
        blocks = [np.ones((x.shape[0], 1))]
        blocks += [term.columns(x) for term in self.terms]
        return np.hstack(blocks)

    def _responses(self, responses) -> np.ndarray:
        y = np.asarray(responses, dtype=float)
        if y.shape[0] != self.n:
            raise ArgumentError(f"responses have {y.shape[0]} rows, design has {self.n}")
        if not np.all(np.isfinite(y)):
            raise ArgumentError("responses contain non-finite values")
        return y

    def _shrinkage(self):
        # per-lambda shrinkage factors d (L, k), their squares and the EDF
        if self._shrink is None:
            d = 1.0 / (1.0 + self.lambda_grid[:, None] * self._eig[None, :])
            self._shrink = (d, d * d, d @ self._edf_weights)
        return self._shrink

    def fit_values(self, responses) -> "SmootherFit":
        """GCV-smoothed fit of new responses on the precomputed design.
        The columns of 2-D responses share one lambda."""
        y = self._responses(responses)
        one_d = y.ndim == 1
        if one_d:
            y = y[:, None]

        z = self._v.T @ (self.design.T @ y)  # (k, m)
        lam = self.lambda_grid
        d, d2, edf = self._shrinkage()
        yy = np.sum(y * y, axis=0)
        z2 = z * z
        rss = np.zeros(lam.size)
        for j in range(y.shape[1]):
            dz = d * z[:, j][None, :]
            corr = np.sum((dz @ self._gram_corr) * dz, axis=1)
            rss += yy[j] - 2.0 * (d @ z2[:, j]) + d2 @ z2[:, j] - self.eps * corr
        rss = np.clip(rss, 0.0, None)
        gcv = rss / (self.n - edf) ** 2
        pick = lam.size - 1 - int(np.argmin(gcv[::-1]))  # ties -> largest lambda

        dk = d[pick]
        beta = self._v @ (dk[:, None] * z)
        fitted = self.design @ beta
        return SmootherFit(
            coefficients=beta if not one_d else beta[:, 0],
            fitted=fitted if not one_d else fitted[:, 0],
            edf=float(edf[pick]),
            lam=float(lam[pick]),
            gcv=float(gcv[pick]),
        )

    def fit_many(self, responses) -> "ColumnFits":
        """GCV-smoothed fits of the columns of ``responses`` (n, m), each
        with its own lambda: column j gets the fit ``fit_values`` gives
        it alone, up to rounding.

        The (lambda, column) table of RSS and GCV comes from matrix
        products; the ridge correction eps * zT C z is built over chunks
        of columns, which bounds its (L, chunk, k) temporaries.
        """
        y = self._responses(responses)
        if y.ndim != 2:
            raise ArgumentError(f"responses must be 2-D (n, m), got shape {y.shape}")
        z = self._v.T @ (self.design.T @ y)  # (k, m)
        lam = self.lambda_grid
        d, d2, edf = self._shrinkage()
        z2 = z * z
        rss = np.einsum("ij,ij->j", y, y) - 2.0 * (d @ z2) + d2 @ z2  # (L, m)
        for at in range(0, y.shape[1], _CORR_CHUNK):
            cols = slice(at, at + _CORR_CHUNK)
            dz = d[:, None, :] * z[:, cols].T[None, :, :]  # (L, chunk, k)
            corr = dz @ self._gram_corr
            corr *= dz
            rss[:, cols] -= self.eps * np.sum(corr, axis=2)
        rss = np.clip(rss, 0.0, None)
        gcv = rss / ((self.n - edf) ** 2)[:, None]
        pick = lam.size - 1 - np.argmin(gcv[::-1], axis=0)  # ties -> largest lambda

        beta = self._v @ (d[pick].T * z)
        return ColumnFits(
            coefficients=beta,
            fitted=self.design @ beta,
            edf=edf[pick],
            lam=lam[pick],
            gcv=gcv[pick, np.arange(y.shape[1])],
        )


    def fit_last_columns(self, columns, responses) -> "RowFits":
        """GCV-smoothed fit of each row of ``responses`` (m, n) on this
        design with its last predictor column replaced by the same row of
        ``columns`` (m, n): row i gets the fit ``fit_values`` gives on a
        full build with that column, up to rounding.

        The last group must be that column alone. The intercept and the
        other terms are kept, with a thin QR of their block; each row's
        last term is rebuilt by the rules of a full build (quantile knots,
        sum-to-zero constraint, curvature penalty with null-space
        shrinkage, ridge from the row's own Frobenius norm) as arrays, a
        stack of rows at a time. Rows whose terms have the same width
        share one stacked eigendecomposition and one (row, lambda) table
        of RSS, EDF and GCV.
        """
        j = self.p - 1
        if self.groups[-1] != (j,):
            raise ArgumentError("the last predictor column must form a group of its own")
        cols = self._row_stack(columns, "columns")
        y = self._row_stack(responses, "responses")
        if y.shape != cols.shape:
            raise ArgumentError(f"responses {y.shape} and columns {cols.shape} must match")
        kf = self.n_columns - self._term_cols[-1].shape[1]
        kept = self.design[:, :kf]
        q_kept, r_kept = np.linalg.qr(kept)
        fixed = (kept, q_kept, r_kept, self._penalty(self.n_columns)[:kf, :kf], np.sum(kept**2))
        m = y.shape[0]
        fits = RowFits(np.empty_like(y), np.empty(m), np.empty(m), np.empty(m))
        for at in range(0, m, _STACK):
            for rows, lt, pens in self._last_terms(cols[at : at + _STACK]):
                rows = rows + at
                fits.fitted[rows], fits.edf[rows], fits.lam[rows], fits.gcv[rows] = (
                    self._fit_stack(fixed, lt, pens, y[rows])
                )
        return fits

    def _row_stack(self, a, name: str) -> np.ndarray:
        v = np.asarray(a, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n:
            raise ArgumentError(f"{name} must have shape (m, {self.n}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ArgumentError(f"{name} contain non-finite values")
        return v

    def _last_terms(self, cols: np.ndarray):
        """The last term rebuilt on each row of ``cols``: (rows, transposed
        design columns (m, k_term, n), penalties) for each set of rows
        whose terms share a width once near-equal breaks are dropped."""
        order = self.settings.order
        breaks = self._breaks(np.sort(cols, axis=1), self._dims((self.p - 1,))[0])[2]
        by_size: dict[int, list[int]] = {}
        for i, row in enumerate(breaks):
            by_size.setdefault(len(row), []).append(i)
        for rows in by_size.values():
            bps = np.array([breaks[i] for i in rows])
            knots = np.hstack(
                [np.repeat(bps[:, :1], order - 1, 1), bps, np.repeat(bps[:, -1:], order - 1, 1)]
            )
            marg = stacked_basis_values(knots, order, cols[rows]).transpose(0, 2, 1)
            z = _sum_to_zero_bases(marg.sum(axis=2))
            lt = z.transpose(0, 2, 1) @ marg
            del marg  # not held while the caller fits the stack
            yield np.array(rows), lt, _shrunk_penalties(z, stacked_derivative_gram(knots, order, 2))

    def _fit_stack(self, fixed, lt, pens, y):
        """(fitted (m, n), EDF, lambda, GCV) of the rows of ``y`` on the
        designs [kept, L_i] with L_i^T = lt[i] and last penalty pens[i]."""
        kept, q_kept, r_kept, kept_pen, sq_kept = fixed
        m, kl, n = lt.shape
        kf = r_kept.shape[0]
        k = kf + kl
        _check_width(k, n)
        eps = _RIDGE_REL * ((sq_kept + np.einsum("ijk,ijk->i", lt, lt)) / k)
        # [kept, L] = [Q, Q_L] [[R, C], [0, R_L]] with C = Q^T L; the ridge
        # rows then enter through a QR of the small stacked triangle. Both
        # QRs run in place on transposed (Fortran-order) rows.
        ct = lt @ q_kept
        resid_t = ct @ q_kept.T
        np.subtract(lt, resid_t, out=resid_t)
        r_l = np.empty((m, kl, kl))
        for i in range(m):
            r_l[i] = _packed_r(resid_t[i].T)[:kl]
        del resid_t
        r_l *= _upper(kl)
        stacked_t = np.zeros((m, k, 2 * k))  # row i transposed: [[R, C], [0, R_L], [sqrt(eps) I]]
        stacked_t[:, :kf, :kf] = r_kept.T
        stacked_t[:, kf:, :kf] = ct
        stacked_t[:, kf:, kf:k] = r_l.transpose(0, 2, 1)
        diag = np.arange(k)
        stacked_t[:, diag, k + diag] = np.sqrt(eps)[:, None]
        r_inv = np.empty((m, k, k))
        for i in range(m):
            r_inv[i], info = dtrtri(_packed_r(stacked_t[i].T)[:k])
            if info != 0:
                raise DegenerateDesignError("ridged smoother design lost full rank")
        r_inv *= _upper(k)
        del stacked_t
        s = np.zeros((m, k, k))
        s[:, :kf, :kf] = kept_pen
        s[:, kf:, kf:] = pens
        s = r_inv.transpose(0, 2, 1) @ s @ r_inv
        s += s.transpose(0, 2, 1)
        s *= 0.5
        lam_eig, u = np.linalg.eigh(s)
        del s
        # as in __init__: v = R^{-1} U; EDF weights 1 - eps diag(V^T V)
        v = r_inv @ u
        edf_weights = 1.0 - eps[:, None] * np.einsum("ijk,ijk->ik", v, v)

        xty = np.empty((m, k))
        xty[:, :kf] = (y[:, None, :] @ kept)[:, 0]
        xty[:, kf:] = (lt @ y[:, :, None])[:, :, 0]
        z = (xty[:, None, :] @ v)[:, 0]
        # the (row, lambda) table of fit_values, in place: shrinkage d,
        # EDF, then dz = d z for RSS = yTy - 2 dzT z + dzT (I - eps C) dz,
        # C = V^T V the ridge correction
        lam, eig = self.lambda_grid, np.clip(lam_eig, 0.0, None)
        d = lam[:, None] * eig[:, None, :]  # (m, L, k)
        d += 1.0
        np.divide(1.0, d, out=d)
        edf = (d @ edf_weights[:, :, None])[:, :, 0]
        dz = np.multiply(d, z[:, None, :], out=d)
        unridge = np.eye(k) - eps[:, None, None] * (v.transpose(0, 2, 1) @ v)
        rss = np.einsum("ilk,ilk->il", dz @ unridge, dz)
        rss -= 2.0 * (dz @ z[:, :, None])[:, :, 0]
        rss += np.einsum("ij,ij->i", y, y)[:, None]
        rss = np.clip(rss, 0.0, None)
        gcv = rss / (n - edf) ** 2
        pick = lam.size - 1 - np.argmin(gcv[:, ::-1], axis=1)  # ties -> largest lambda
        at = np.arange(m)
        beta = (v @ (z / (1.0 + lam[pick][:, None] * eig))[:, :, None])[:, :, 0]
        fitted = (beta[:, None, :kf] @ kept.T)[:, 0]
        fitted += (beta[:, None, kf:] @ lt)[:, 0]
        return fitted, edf[at, pick], lam[pick], gcv[at, pick]


@dataclass(frozen=True)
class SmootherFit:
    coefficients: np.ndarray
    fitted: np.ndarray
    edf: float
    lam: float
    gcv: float


@dataclass(frozen=True)
class ColumnFits:
    """Per-column fits of :meth:`AdditiveSmootherDesign.fit_many`: one
    entry of ``edf``, ``lam`` and ``gcv`` per response column."""

    coefficients: np.ndarray  # (k, m)
    fitted: np.ndarray  # (n, m)
    edf: np.ndarray
    lam: np.ndarray
    gcv: np.ndarray


@dataclass(frozen=True)
class RowFits:
    """Per-row fits of :meth:`AdditiveSmootherDesign.fit_last_columns`:
    row i of ``fitted`` and entry i of ``edf``, ``lam`` and ``gcv`` belong
    to response row i on its own design."""

    fitted: np.ndarray  # (m, n)
    edf: np.ndarray
    lam: np.ndarray
    gcv: np.ndarray
