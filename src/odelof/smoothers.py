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
the design's last column. :meth:`AdditiveSmootherDesign.with_last_columns`
keeps the intercept and the state terms with a QR factor of their block,
computed once per replicate, and rebuilds only the last term: its knots,
B-spline columns (Cox-de Boor, stacked over a chunk of permutations),
Householder sum-to-zero basis and closed-form curvature penalty. The
factor of the whole design then follows from a QR of a small stacked
triangle. Full builds keep scipy's ``BSpline``, ``null_space`` and
factorizations, whose bits archived reports hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np
from scipy.linalg import eigh, null_space, qr, solve_triangular
from scipy.linalg.lapack import dgeqrf, dtrtri

from .errors import ArgumentError, DegenerateDesignError
from .splines import BSplineBasis, stacked_basis_values, stacked_derivative_gram

_RIDGE_REL = 1e-10
# response columns per block of fit_many's GCV ridge correction
_CORR_CHUNK = 8


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


def _r_factor(a: np.ndarray) -> np.ndarray:
    """Triangular factor of a thin QR (LAPACK geqrf, no Q formed)."""
    packed, _, _, info = dgeqrf(a)
    if info != 0:
        raise DegenerateDesignError(f"QR of the smoother design failed (info {info})")
    return np.triu(packed[: a.shape[1]])


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
        v = solve_triangular(r, u, lower=False, check_finite=False)  # R^{-1} U
        self._set_basis(design, eps, lam_eig, v)
        lo, hi = self.settings.log10_lambda
        self.lambda_grid = np.logspace(lo, hi, self.settings.n_lambda)
        self._fixed = None

    def _penalty(self, k: int) -> np.ndarray:
        penalty = np.zeros((k, k))
        at = 1
        for pen in self._term_pens:
            kj = pen.shape[0]
            penalty[at : at + kj, at : at + kj] = pen
            at += kj
        return penalty

    def _set_basis(self, design, eps, lam_eig, v) -> None:
        # v = R^{-1} U diagonalizes the ridged Gram and the penalty at once:
        # R^T R = X^T X + eps I and U^T R^{-T} S R^{-1} U = diag(lam_eig)
        self.design = design
        self.eps = eps
        self._v = v
        self._eig = np.clip(lam_eig, 0.0, None)
        self._gram_corr = v.T @ v  # C = U^T R^{-T} R^{-1} U
        self._edf_weights = 1.0 - eps * np.diag(self._gram_corr)
        self._shrink = None  # per-lambda shrinkage factors, on first fit

    def with_last_columns(self, columns) -> Iterator["AdditiveSmootherDesign"]:
        """This design with its last predictor column replaced by each row
        of ``columns`` (m, n) in turn.

        The last group must be that column alone. The intercept and the
        other terms are kept; the last term is rebuilt by the same rules
        as a full build (quantile knots, curvature penalty with null-space
        shrinkage, ridge from the new Frobenius norm), for all rows at once.
        Each design's factorization is then updated against a thin QR of
        the kept block, computed once and shared by every design derived
        from this one, when the returned iterator reaches it.
        ``fit_values`` then agrees with a full build up to rounding.
        """
        j = self.p - 1
        if self.groups[-1] != (j,):
            raise ArgumentError("the last predictor column must form a group of its own")
        cols = np.asarray(columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] != self.n:
            raise ArgumentError(f"columns must have shape (m, {self.n}), got {cols.shape}")
        if not np.all(np.isfinite(cols)):
            raise ArgumentError("columns contain non-finite values")
        if self._fixed is None:
            kept = self.design[:, : self.n_columns - self._term_cols[-1].shape[1]]
            q_kept, r_kept = np.linalg.qr(kept)
            self._fixed = (q_kept, r_kept, float(np.sum(kept**2)))
        terms = self._univariate_terms(cols, j)
        return (self._with_last_term(col, *term) for col, term in zip(cols, terms))

    def _univariate_terms(self, cols: np.ndarray, j: int) -> list:
        # (term, design columns, penalty) of column j rebuilt on each row
        order = self.settings.order
        lo, hi, breaks = self._breaks(np.sort(cols, axis=1), self._dims((j,))[0])
        out = [None] * len(breaks)
        by_size: dict[int, list[int]] = {}
        for i, row in enumerate(breaks):
            by_size.setdefault(len(row), []).append(i)
        for rows in by_size.values():
            bps = np.array([breaks[i] for i in rows])
            knots = np.hstack(
                [np.repeat(bps[:, :1], order - 1, 1), bps, np.repeat(bps[:, -1:], order - 1, 1)]
            )
            marg = stacked_basis_values(knots, order, cols[rows])
            z = _sum_to_zero_bases(marg.sum(axis=1))
            term_cols = marg @ z
            pens = _shrunk_penalties(z, stacked_derivative_gram(knots, order, 2))
            for at, i in enumerate(rows):
                term = _Term(
                    cols=(j,),
                    bases=[BSplineBasis(order, bps[at])],
                    transform=z[at],
                    los=(float(lo[i]),),
                    his=(float(hi[i]),),
                )
                out[i] = (term, term_cols[at], pens[at])
        return out

    def _with_last_term(self, col, term, cols, pen) -> "AdditiveSmootherDesign":
        q_kept, r_kept, sq_kept = self._fixed
        kf, kl = r_kept.shape[1], cols.shape[1]
        k = kf + kl
        _check_width(k, self.n)
        eps = _RIDGE_REL * ((sq_kept + np.sum(cols**2)) / k)
        # [kept, cols] = [Q, Q_c] [[R, C], [0, R_c]]; the ridge rows enter
        # through a QR of the small stacked triangle
        c = q_kept.T @ cols
        stacked = np.zeros((2 * k, k))
        stacked[:kf, :kf] = r_kept
        stacked[:kf, kf:] = c
        stacked[kf:k, kf:] = _r_factor(cols - q_kept @ c)
        stacked[k:] = np.sqrt(eps) * np.eye(k)
        r_inv, info = dtrtri(_r_factor(stacked))
        if info != 0:
            raise DegenerateDesignError("ridged smoother design lost full rank")

        new = object.__new__(AdditiveSmootherDesign)
        new.__dict__.update(self.__dict__)
        new.predictors = self.predictors.copy()
        new.predictors[:, -1] = col
        new.terms = self.terms[:-1] + [term]
        new._term_cols = self._term_cols[:-1] + [cols]
        new._term_pens = self._term_pens[:-1] + [pen]
        m = r_inv.T @ new._penalty(k) @ r_inv
        lam_eig, u = np.linalg.eigh(0.5 * (m + m.T))
        design = np.empty((self.n, k))
        design[:, :kf] = self.design[:, :kf]
        design[:, kf:] = cols
        new._set_basis(design, eps, lam_eig, r_inv @ u)
        return new

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


@dataclass
class ScatterSmoother:
    """Fitted scatter smoother: carries its design for new predictions."""

    design: AdditiveSmootherDesign = field(repr=False)
    coefficients: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    edf: float = 0.0
    lam: float = 0.0
    gcv: float = 0.0

    def predict(self, predictors) -> np.ndarray:
        """Evaluate the fitted surface at new predictor rows."""
        return self.design.design_for(predictors) @ self.coefficients


def fit_scatter_smoother(
    predictors,
    responses,
    settings: Optional[SmootherSettings] = None,
    groups: Optional[list[tuple[int, ...]]] = None,
) -> ScatterSmoother:
    """Fit the GCV scatter smoother to (x, y) data.

    Parameters
    ----------
    predictors : array (n,) or (n, p)
    responses : array (n,) or (n, m)
        Multiple response columns share one design and one GCV-chosen
        smoothing weight.
    settings : SmootherSettings, optional
        The default fit is additive across predictor columns; set
        ``interaction=True`` for one joint tensor-product surface.
    groups : list of column-index tuples, optional
        Explicit partition of the predictor columns into smooth terms,
        overriding the additive/interaction default.

    Raises
    ------
    DegenerateDesignError
        For constant predictors (the fit would reduce to the mean) or a
        design with more columns than the data can support.
    """
    design = AdditiveSmootherDesign(predictors, settings, groups=groups)
    fit = design.fit_values(responses)
    return ScatterSmoother(
        design=design,
        coefficients=fit.coefficients,
        fitted=fit.fitted,
        edf=fit.edf,
        lam=fit.lam,
        gcv=fit.gcv,
    )
