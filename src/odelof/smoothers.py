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
eigendecomposition of the reparameterized penalty, V), after which a
response enters a fit only through its projection z = (X V)^T y and its
squared norm: the GCV pick and the shrunk projection d z come from those
at O(k) per lambda, and the fitted values are X V (d z).
:meth:`AdditiveSmootherDesign.fit_many` is the fit of responses: it fits
the rows of a response matrix, each with its own GCV lambda; one response
is the one-row matrix ``y[None]``. :meth:`~AdditiveSmootherDesign.shrink_projections`
is the same pick from given projections, for callers that form them
without the responses: the permutation tests sum them from per-block
parts (:mod:`odelof.diagnose`). Both permutation tests swap only the
response within a replicate (case 3's lagged predictors are lagged
states, fixed with the states), so one factorized design serves every
permutation.

Designs are built as a stack (:func:`build_designs`, such as the h0 and
h1 designs of a chunk of bootstrap replicates); one design is the stack
of one. Knots come per design. Terms are built as arrays, a stack of
equal-shaped terms at a time across the designs and their groups
(:func:`_terms`; case 3's two tensor terms are one stack): B-spline
columns by the Cox-de Boor recursion, a Householder sum-to-zero basis
and closed-form penalty Grams. The QR of each ridged design is its own;
one routine turns the triangular factors and penalties of all designs
of a width into the eigenbasis the GCV search needs (:func:`_factor`).
:func:`_gcv_table` picks each response row's lambda: bounds on the RSS's
ridge term give every (row, lambda) cell a lower and an upper GCV at
O(k) cost, and the term itself (O(k^2)) is computed only where they
leave the pick open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgeqrf, dtrtri

from .errors import ArgumentError, DegenerateDesignError, OdelofError, check_kinds
from .splines import stacked_basis_values, stacked_derivative_gram

_RIDGE_REL = 1e-10
_ORDER = 4  # cubic B-splines
_MIN_TERM_DIM = 6
_LAMBDAS = np.logspace(-8.0, 8.0, 61)  # the GCV grid
_LAMBDAS.flags.writeable = False  # shared by every design
# the GCV's ridge term as a multiple of its bound, for a lower and an
# upper GCV: the slack is far above their rounding (a few k ulps), and a
# looser one only keeps more lambdas
_BOUND_SLACKS = np.array([1.0 + 1e-6, -1e-6])[:, None, None]
_BOUND_SLACKS.flags.writeable = False


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
        check_kinds(self, counts=("total_dim",), flags=("interaction",))
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


def _clamped(xs: np.ndarray, dim: int) -> np.ndarray:
    # knots of the sorted predictor xs: each end break repeated to
    # multiplicity _ORDER
    row = _breaks(xs, dim)
    return np.array(row[:1] * (_ORDER - 1) + row + row[-1:] * (_ORDER - 1))


def _per_direction(fn, knots: list[np.ndarray], *rows: list[np.ndarray]) -> list[np.ndarray]:
    # fn(knots[d], *(r[d] for r in rows)) for each direction d of a stack
    # of terms, as one stacked call over all directions when their knot
    # vectors are equally long
    if len({kn.shape[1] for kn in knots}) > 1:
        return [fn(*args) for args in zip(knots, *rows)]
    out = fn(np.concatenate(knots), *(np.concatenate(r) for r in rows))
    return np.split(out, len(knots))


def _marginal(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    return stacked_basis_values(knots, _ORDER, np.clip(x, knots[:, :1], knots[:, -1:]))


def _basis_values(knots: list[np.ndarray], xs: list[np.ndarray]) -> np.ndarray:
    """Tensor-product B-spline values of a stack of terms: for each
    direction d, row i of ``knots[d]`` (m, nk) is a clamped knot vector and
    row i of ``xs[d]`` (m, n) its points, clipped to the knot domain so
    points beyond it hold the boundary value. Returns (m, n, prod K_d), the
    marginals' row-wise Kronecker product."""
    block = None
    for marg in _per_direction(_marginal, knots, xs):
        if block is None:
            block = marg
        else:
            block = (block[..., :, None] * marg[..., None, :]).reshape(*marg.shape[:2], -1)
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
    derivs = (2, 0) if len(knots) > 1 else (2,)
    grams = {
        deriv: _per_direction(lambda kn: stacked_derivative_gram(kn, _ORDER, deriv), knots)
        for deriv in derivs
    }
    pen = 0.0
    for d in range(len(knots)):
        block = None
        for e in range(len(knots)):
            gram = grams[2 if e == d else 0][e]
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


def _terms(xs: list[np.ndarray], knots: list[np.ndarray]):
    """A stack of m terms of equal shape: direction d of term i has the
    points ``xs[d][i]`` (xs[d] is (m, n)) and the clamped knots
    ``knots[d][i]`` (knots[d] is (m, nk_d)).

    Returns the sum-to-zero bases z (m, K, k), the transposed design
    columns lt (m, k, n) and the shrunk penalties (m, k, k).
    """
    block = _basis_values(knots, xs).transpose(0, 2, 1)
    z = _sum_to_zero_bases(block.sum(axis=2))
    lt = z.transpose(0, 2, 1) @ block
    return z, lt, _shrunk_penalties(knots, z)


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
    EDF d.(1 - eps diag(C)) per lambda (m, L), the ridge correction
    C = V^T V and the column norms sqrt(diag(C)) of V (m, k).
    """
    s = r_inv.transpose(0, 2, 1) @ penalties @ r_inv
    s += s.transpose(0, 2, 1)
    s *= 0.5
    eig, u = np.linalg.eigh(s)
    v = r_inv @ u
    c = v.transpose(0, 2, 1) @ v
    d = 1.0 / (1.0 + _LAMBDAS[:, None] * np.clip(eig, 0.0, None)[:, None, :])
    c_diag = np.diagonal(c, axis1=1, axis2=2)
    edf_weights = 1.0 - eps[:, None] * c_diag
    return v, d, (d @ edf_weights[:, :, None])[:, :, 0], c, np.sqrt(c_diag)


def _gcv_cells(main, ridge_term, yy, den):
    # GCV of (row, lambda) cells from the parts of their RSS; each rounding
    # step is monotone, so a larger ridge term never gives a larger GCV and
    # bounds on the term stay bounds on the GCV
    rss = main - ridge_term
    rss += yy
    return np.maximum(rss, 0.0, out=rss) / den


def _gcv_table(z: np.ndarray, yy: np.ndarray, n: int, factor, eps: float):
    """GCV picks over the lambda grid for each row of ``z`` (m, k), the
    projection V^T X^T y of a response with squared norm ``yy``, on one
    design with ``factor`` (from :func:`_factor`, a stack of one) and
    ridge ``eps``.

    With shrinkage d, the RSS is yTy - 2 d.z^2 + d^2.z^2 - eps (dz)^T C
    (dz), the last term undoing the ridge. That term costs k^2 per
    (row, lambda) and the rest k, so the term is bounded first: C = V^T V
    gives 0 <= (dz)^T C (dz) <= (sum_j d_j |z_j| |v_j|)^2, hence a lower
    and an upper GCV for every cell. Only the lambdas whose lower GCV
    reaches the row's least upper one can be the pick, and the term is
    computed at those only. Returns, per row, the pick (ties to the
    largest lambda), its EDF and GCV, and the shrunk projection d z at the
    pick.
    """
    _, d, edf, c, norms = factor
    main = (((d - 2.0) * d) @ (z * z)[:, :, None])[:, :, 0]
    yy = yy[:, None]
    den = (n - edf) ** 2
    bound = (np.abs(z) * norms) @ d[0].T
    low, high = _gcv_cells(main, eps * (bound * bound) * _BOUND_SLACKS, yy, den)
    rows, at = np.nonzero(low <= high.min(axis=1, keepdims=True))
    dz = d[0, at] * z[rows]
    ridge = np.einsum("ij,ij->i", dz @ c[0], dz)
    gcv = np.full(main.shape, np.inf)
    gcv[rows, at] = _gcv_cells(main[rows, at], eps * ridge, yy[rows, 0], den[0, at])
    pick = _last_argmin(gcv)
    return pick, edf[0, pick], gcv[np.arange(z.shape[0]), pick], d[0, pick] * z


def _last_argmin(gcv: np.ndarray) -> np.ndarray:
    # per row, the last of the least entries: ties go to the largest lambda
    return gcv.shape[1] - 1 - np.argmin(gcv[:, ::-1], axis=1)


def build_designs(layouts, settings: Optional[SmootherSettings] = None) -> list:
    """Designs of many predictor sets, built as one stack.

    ``layouts`` holds (predictors, groups) pairs, each as the arguments of
    :class:`AdditiveSmootherDesign`, all under one ``settings``. Entry i of
    the result is the design of ``layouts[i]``, bit for bit the one a build
    of it alone gives, or the :class:`~odelof.errors.OdelofError` that build
    raises, so a degenerate member spoils none of the others.
    """
    built, laid, knots = [], [], []
    for predictors, groups in layouts:
        design = object.__new__(AdditiveSmootherDesign)
        try:
            knots.append(design._lay_out(predictors, settings, groups))
        except OdelofError as exc:
            design = exc
        else:
            laid.append(design)
        built.append(design)
    errors = iter(_assemble(laid, knots))
    for i, design in enumerate(built):
        if not isinstance(design, OdelofError):
            built[i] = next(errors) or design
    return built


def _assemble(designs: list, knots: list) -> list:
    """Terms, design matrices, penalties and factors of laid-out designs
    (``knots[i]`` from ``designs[i]._lay_out``), built together.

    Knot vectors are per design; the terms of every design and group with
    the same row and knot counts are one :func:`_terms` call (a group that
    lost a break to a tie stacks only with its like); the QR is per design;
    designs of one width share a :func:`_factor` call. Returns per design
    None, or the DegenerateDesignError its QR raised.
    """
    stacks: dict[tuple, list[tuple[int, int]]] = {}
    for i, (design, kns) in enumerate(zip(designs, knots)):
        design._bases = [None] * len(design.groups)  # per group: columns, knots, sum-to-zero basis
        for g, group_knots in enumerate(kns):
            stacks.setdefault((design.n, tuple(kn.size for kn in group_knots)), []).append((i, g))
    parts = [[None] * len(design.groups) for design in designs]  # per group: columns, penalty
    for members in stacks.values():
        q = len(knots[members[0][0]][members[0][1]])
        kn = [np.array([knots[i][g][d] for i, g in members]) for d in range(q)]
        xs = [
            np.array([designs[i].predictors[:, designs[i].groups[g][d]] for i, g in members])
            for d in range(q)
        ]
        z, lt, shrunk = _terms(xs, kn)
        for at, (i, g) in enumerate(members):
            term_knots = [k[at : at + 1] for k in kn]
            designs[i]._bases[g] = (designs[i].groups[g], term_knots, z[at : at + 1])
            parts[i][g] = (lt[at].T, shrunk[at])

    errors = [None] * len(designs)
    widths: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, design in enumerate(designs):
        n = design.n
        matrix = np.hstack([np.ones((n, 1))] + [cols for cols, _ in parts[i]])
        k = matrix.shape[1]
        # Tiny fixed ridge keeps R invertible under accidental collinearity;
        # its effect on RSS/EDF is corrected exactly in the GCV pick.
        eps = _RIDGE_REL * (np.sum(matrix**2) / k)
        aug = np.zeros((n + k, k), order="F")
        aug[:n] = matrix
        aug[n + np.arange(k), np.arange(k)] = np.sqrt(eps)
        design.design = matrix
        design.penalty = np.zeros((k, k))
        at = 1  # the intercept is not penalized
        for _, pen in parts[i]:
            design.penalty[at : at + pen.shape[0], at : at + pen.shape[0]] = pen
            at += pen.shape[0]
        design.eps = eps
        try:
            widths.setdefault(k, []).append((i, _r_inverse(_packed_r(aug))))
        except DegenerateDesignError as exc:
            errors[i] = exc
    for members in widths.values():
        factor = _factor(
            np.array([r_inv for _, r_inv in members]),
            np.array([designs[i].penalty for i, _ in members]),
            np.array([designs[i].eps for i, _ in members]),
        )
        for at, (i, _) in enumerate(members):
            designs[i]._factor = tuple(a[at : at + 1] for a in factor)
    return errors


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
    joins every column into one tensor term. A design is the stack of one
    of :func:`build_designs`, which builds many at once.
    """

    lambda_grid = _LAMBDAS

    def __init__(
        self,
        predictors,
        settings: Optional[SmootherSettings] = None,
        groups: Optional[list[tuple[int, ...]]] = None,
    ):
        (error,) = _assemble([self], [self._lay_out(predictors, settings, groups)])
        if error is not None:
            raise error

    def _lay_out(self, predictors, settings, groups) -> list[list[np.ndarray]]:
        # checks the predictors and groups and sets the design's shape;
        # returns each group's clamped knot vectors, one per direction
        self.settings = settings or SmootherSettings()
        x = _predictor_matrix(predictors)
        n, p = x.shape
        if n < 8:
            raise ArgumentError(f"need at least 8 rows to smooth, got {n}")
        self.n, self.p = n, p
        self.predictors = x
        self.groups = self._normalize_groups(groups, p)
        self._total = min(self.settings.total_dim, max(n // 4, _MIN_TERM_DIM * p))
        knots = [
            [_clamped(np.sort(x[:, j]), dim) for j, dim in zip(grp, self._dims(grp))]
            for grp in self.groups
        ]
        # the intercept, then K - 1 sum-to-zero columns per term of K
        # tensor-product functions
        k = 1 + sum(math.prod(kn.size - _ORDER for kn in kns) - 1 for kns in knots)
        if k + 2 > n:
            raise DegenerateDesignError(
                f"additive design has {k} columns for {n} rows; reduce total_dim"
            )
        return knots

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

    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """The GCV eigenbasis V (k, k) and the design in it, W = X V (n, k):
        a response y projects to z = W^T y, and the fit with shrunk
        projection d z has the coefficients V (d z) and the fitted values
        W (d z)."""
        v = self._factor[0][0]
        return self.design @ v, v

    def shrink_projections(self, z, yy) -> np.ndarray:
        """The shrunk projections d z (m, k) of m responses at each one's
        GCV pick, from their projections ``z`` (m, k), as
        :meth:`eigenbasis` gives them, and their squared norms ``yy``
        (m,): the pick of :meth:`fit_many` without the responses."""
        return _gcv_table(z, yy, self.n, self._factor, self.eps)[3]


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
