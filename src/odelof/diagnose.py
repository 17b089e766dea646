"""Lack-of-fit tests for fitted ODE models.

The estimated forcing g(t) soaks up whatever the proposed model misses.
Its structure is then classified by two nested tests:

* case 2 ("is g a function of the state?"): F compares the variance
  explained by a smooth h(x_hat) to the residual around it. The null of
  exchangeable g blocks is simulated by permuting blocks of g values.
* case 3 ("does the state's past add information beyond its present?"):
  F compares h1(x_hat(t), x_hat(t - delta)) against h0(x_hat(t)). A
  state the model omits is a function of delay coordinates of the
  observed ones (Takens 1981; Sauer, Yorke & Casdagli 1991), so g then
  depends on the lagged states as well. The null keeps the state
  relationship and permutes blocks of the residuals eta = g - h0(x_hat),
  reconstructing g* = h0(x_hat) + eta*. The lag delta defaults to one
  block span, which just exceeds the g-basis support: at a shorter lag
  the lagged states would share smoothing error with g(t).

A test runs on the observation rows left after an end trim, in blocks
that span the g-basis support, and case 3 only on the trimmed rows whose
lagged time stays in range. :func:`_geometry` resolves this once, for the
test, for the plots of its report, and for the check that ``run_diagnose``
and ``run_power_study`` make before any work; it names the ``TestConfig``
field that does not fit.

Both are wrapped in a residual bootstrap over the data smoothing, giving
one permutation p-value p_b per bootstrap replicate:
``p_b = (1 + #{F_kb >= F_0b}) / (B2 + 1)``, where an F_kb within a
relative 1.5e-8 below F_0b counts as a tie (a refitted permutation, or
the identity order in a larger batch, reproduces F_0b only to rounding);
the test rejects when the mean of the p_b falls below alpha.

The B2 permutations of a replicate run in batches of ``_PERM_BLOCK``:
their block orders are B2 successive draws from the replicate's
generator (:meth:`_Blocks.orders`), and no permuted response is formed.
A permutation only reorders a replicate's blocks, and a smoother fit
sees its response only through its projection onto the design's
eigen-columns W = X V and its squared norm, so a permutation's are sums
of one entry per block from a table built once per replicate and design
(:meth:`_Blocks.table`: every block against every start it can take).
The GCV picks of the whole batch come from those sums
(:meth:`~odelof.smoothers.AdditiveSmootherDesign.shrink_projections`),
and F from the shrunk projections through k x k Grams of W. F0 is the
same statistic at the identity block order, in a batch of its own, and
every F is taken on g centred once: F does not change with a constant.
A row whose Gram formulas lose too much to cancellation, F0's included,
is refitted from its permuted response by one-row fits and
:func:`f_stat_case2` or :func:`f_stat_case3`, so every F is within
``_F_REL`` of that path's. A permutation changes only the response: the
h0 and h1 designs are built once per replicate.
Replicates run in chunks of ``_REPLICATE_CHUNK``: each replicate of a
chunk is refitted, the designs of all their fits are built as one stack
(:func:`~odelof.smoothers.build_designs`; the original fit joins the
first chunk), and the nulls then run in replicate order, so a failed
replicate counts, and an abort comes, where it would one replicate at a
time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import Field, dataclass, field, fields
from typing import NamedTuple, Optional, Union

import numpy as np

from . import __version__
from .errors import ArgumentError, OdelofError, TestAbortedError, check_kinds, is_finite_real
from .pipeline import PipelineSettings, runner_for
from .rng import SeedLike, as_seed_sequence, rng_from
from .seriesio import write_text
from .smoothers import AdditiveSmootherDesign, build_designs
from .splines import SplineFunction
from .systems import DynamicalSystem, TimeSeries


class FStatResult(NamedTuple):
    """F value plus a degeneracy flag (None, "zero_over_zero",
    or "zero_denominator")."""

    value: float
    flag: Optional[str]


def _as_rows(a, name: str) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] < 2:
        raise ArgumentError(f"{name} must have at least 2 rows, got shape {np.shape(a)}")
    if not np.all(np.isfinite(v)):
        raise ArgumentError(f"{name} contains non-finite values")
    return v


def _mean_square(r: np.ndarray) -> float:
    # the mean over rows of the sums over columns of r (n, d) squared
    return float(np.mean(np.sum(r * r, axis=1)))


def _ratio(num: float, den: float) -> FStatResult:
    # 0/0 reads 0 and x/0 reads inf, each flagged
    if den != 0.0:
        return FStatResult(num / den, None)
    if num == 0.0:
        return FStatResult(0.0, "zero_over_zero")
    return FStatResult(math.inf, "zero_denominator")


def f_stat_case2(g, h) -> FStatResult:
    """State-dependence statistic: variance of h around its mean over the
    mean squared residual of g around h."""
    gv = _as_rows(g, "g")
    hv = _as_rows(h, "h")
    if gv.shape != hv.shape:
        raise ArgumentError(f"g and h must share a shape, got {gv.shape} vs {hv.shape}")
    return _ratio(_mean_square(hv - hv.mean(axis=0)), _mean_square(gv - hv))


def f_stat_case3(g, h0, h1) -> FStatResult:
    """Lag-dependence statistic: mean squared gap between the lag-augmented
    and state-only smooths over the residual of g around the former."""
    gv = _as_rows(g, "g")
    h0v = _as_rows(h0, "h0")
    h1v = _as_rows(h1, "h1")
    if not (gv.shape == h0v.shape == h1v.shape):
        raise ArgumentError(
            f"g, h0, h1 must share a shape, got {gv.shape}, {h0v.shape}, {h1v.shape}"
        )
    return _ratio(_mean_square(h1v - h0v), _mean_square(gv - h1v))


class _Blocks:
    """n rows in consecutive blocks of ``block_len`` (the last may be
    short) and their block permutations.

    A permutation places its blocks back to back in the order it draws,
    so a block starts at j ``block_len`` when j full blocks precede it, or
    at j ``block_len`` + r when the short final block (of r rows) is among
    them. A block has 2 ``n_blocks`` such slots, j + ``n_blocks`` for the
    shifted ones. :meth:`table` sums a permutation's per-block parts once
    per block and slot, and :meth:`gather` adds up a permutation's parts,
    so the null holds no array of n rows per permutation; :meth:`rows`
    gives the permuted rows where a refit needs them.
    """

    def __init__(self, n: int, block_len: int):
        if block_len < 1:
            raise ArgumentError(f"block_len must be >= 1, got {block_len}")
        if n < 1:
            raise ArgumentError("nothing to permute")
        self.n, self.block_len = n, block_len
        self.n_blocks = -(-n // block_len)
        self.starts = np.arange(self.n_blocks) * block_len
        self.sizes = np.minimum(block_len, n - self.starts)
        self.full = n // block_len  # the blocks of block_len rows

    def orders(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` block orders (count, n_blocks): row j is the j-th of
        ``count`` successive ``rng.permutation(n_blocks)`` draws. One
        ``rng.permuted`` call over ``count`` stacked ranges makes the same
        draws and leaves the generator in the same state."""
        return rng.permuted(np.tile(np.arange(self.n_blocks), (count, 1)), axis=1)

    def rows(self, orders: np.ndarray) -> np.ndarray:
        """The source rows (m, n) of the m permutations ``orders``."""
        lens = self.sizes[orders]
        # output row p of a block that starts at output row s and source
        # row b is source row p + (b - s)
        shift = self.starts[orders] - (np.cumsum(lens, axis=1) - lens)
        rows = np.repeat(shift.ravel(), lens.ravel()).reshape(len(orders), self.n)
        rows += np.arange(self.n)
        return rows

    def table(self, a: np.ndarray, src: np.ndarray) -> np.ndarray:
        """Per source block b and slot j, the sum over the block's rows i
        of a[s + i] src[start_b + i], with s the slot's start: an
        (n_blocks, 2 n_blocks, c) array for ``a`` (n, c) and ``src`` (n,).
        Slots a block cannot take hold zeros. The windows of ``a`` are
        views, so nothing of n rows is copied."""
        size, nb, full, c = self.block_len, self.n_blocks, self.full, a.shape[1]
        out = np.zeros((nb, 2 * nb, c))
        src_full = src[: full * size].reshape(full, size)

        def full_blocks(first):
            # every full block against the windows of a from row first on
            windows = a[first : first + full * size].reshape(full, size, c)
            return (src_full @ windows).transpose(1, 0, 2)

        # full blocks start at j size, j < full, and after a short block
        # at j size + r, which ends at row n
        out[:full, :full] = full_blocks(0)
        if full < nb:
            r = self.n - full * size
            out[:full, nb : nb + full] = full_blocks(r)
            windows = np.lib.stride_tricks.sliding_window_view(a, r, axis=0)[::size]
            out[full, :nb] = windows @ src[full * size :]
        return out

    def slots(self, orders: np.ndarray) -> np.ndarray:
        """The flat :meth:`table` entries (m, n_blocks) of the blocks of
        the m permutations ``orders``, in their output order."""
        lens = self.sizes[orders]
        starts = np.cumsum(lens, axis=1) - lens
        slot = starts // self.block_len + self.n_blocks * (starts % self.block_len != 0)
        return orders * (2 * self.n_blocks) + slot

    @staticmethod
    def gather(table: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Per permutation, the sum of its blocks' :meth:`table` entries
        (m, c), added in output order, so a permutation's sum does not
        depend on the others of its batch."""
        flat = table.reshape(-1, table.shape[2])
        out = flat[slots[:, 0]]
        for at in slots.T[1:]:
            out += flat[at]
        return out


def residual_bootstrap_resample(
    values, fitted, rng: np.random.Generator
) -> np.ndarray:
    """Resample observation rows as fitted + resampled joint residuals."""
    y = np.asarray(values, dtype=float)
    f = np.asarray(fitted, dtype=float)
    if y.shape != f.shape:
        raise ArgumentError(f"values {y.shape} and fitted {f.shape} must match")
    resid = y - f
    idx = rng.integers(0, y.shape[0], size=y.shape[0])
    return f + resid[idx]


@dataclass(frozen=True)
class TestConfig:
    """Resampling controls for the diagnostic tests.

    ``seed`` is required: the whole test is a deterministic function of it.
    ``block_len`` defaults to the smallest number of samples whose span
    strictly exceeds the g-basis support width; ``end_trim`` to half a
    block per end; ``delta`` (the case-3 lag) to one block span.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    seed: SeedLike
    b1: int = 100
    b2: int = 199
    block_len: Optional[int] = None
    delta: Optional[float] = None
    alpha: float = 0.05
    end_trim: Optional[int] = None
    max_failed_fraction: float = 0.1

    def __post_init__(self):
        def given(*names):
            return [name for name in names if getattr(self, name) is not None]

        check_kinds(
            self,
            counts=("b1", "b2", *given("block_len", "end_trim")),
            reals=("alpha", "max_failed_fraction", *given("delta")),
        )
        for name in ("b1", "b2"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.alpha < 1.0:
            raise ArgumentError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.block_len is not None and self.block_len < 2:
            raise ArgumentError(f"block_len must be >= 2, got {self.block_len}")
        if self.delta is not None and (not is_finite_real(self.delta) or self.delta <= 0):
            raise ArgumentError(f"delta must be positive and finite, got {self.delta}")
        if self.end_trim is not None and self.end_trim < 0:
            raise ArgumentError(f"end_trim must be >= 0, got {self.end_trim}")
        if not 0.0 <= self.max_failed_fraction < 1.0:
            raise ArgumentError(
                f"max_failed_fraction must be in [0, 1), got {self.max_failed_fraction}"
            )


@dataclass(frozen=True)
class DiagnosticReport:
    """Everything needed to reproduce, inspect, and plot one test run."""

    kind: str
    reject: bool
    p_mean: float
    alpha: float
    p_values: tuple
    f0: float
    f0_flag: Optional[str]
    f0_boot: tuple
    n_degenerate: int
    b1: int
    b2: int
    block_len: int
    end_trim: int
    delta: Optional[float]
    spacing: float
    n_obs: int
    n_failed: int
    failure_messages: tuple
    seed_entropy: Union[int, list]
    model: str
    theta: tuple
    edf_h: float
    edf_h_alt: Optional[float]
    g_spline: SplineFunction = field(repr=False)
    xhat_spline: SplineFunction = field(repr=False)
    settings: dict = field(repr=False)
    version: str = __version__

    def to_dict(self) -> dict:
        return {f.name: _codec(f)[0](getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_dict(d: dict) -> "DiagnosticReport":
        d = {"f0_flag": None, "version": __version__, **d}  # keys older reports lack
        return DiagnosticReport(
            **{f.name: _codec(f)[1](d[f.name]) for f in fields(DiagnosticReport)}
        )

    def save(self, path: Union[str, os.PathLike]) -> None:
        write_text(path, report_json(self))

    @staticmethod
    def load(path: Union[str, os.PathLike]) -> "DiagnosticReport":
        with open(path) as fh:
            return DiagnosticReport.from_dict(json.load(fh))


def report_json(report: DiagnosticReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _json_float(v: float):
    # JSON has no inf; the F statistic can be legitimately infinite.
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _from_json_float(v) -> float:
    # float() reads the "inf" / "-inf" strings of _json_float too
    return float(v)


def _same(v):
    return v


def _optional_float(v) -> Optional[float]:
    return None if v is None else float(v)


# How a report field crosses JSON, as (to JSON, from JSON): by name for the
# F values, which can be infinite, and by annotated type (a string, as
# annotations are postponed here) for the rest; any other field is stored
# as it is.
_FIELD_CODECS = {
    "f0": (_json_float, _from_json_float),
    "f0_boot": (
        lambda v: [_json_float(x) for x in v],
        lambda v: tuple(_from_json_float(x) for x in v),
    ),
}
_TYPE_CODECS = {
    "bool": (_same, bool),
    "int": (_same, int),
    "float": (_same, float),
    "Optional[float]": (_same, _optional_float),
    "tuple": (list, tuple),
    "SplineFunction": (SplineFunction.to_dict, SplineFunction.from_dict),
}


def _codec(f: Field):
    return _FIELD_CODECS.get(f.name) or _TYPE_CODECS.get(f.type, (_same, _same))


def default_block_len(support_width: float, spacing: float) -> int:
    """Smallest sample count whose span strictly exceeds the basis support."""
    if spacing <= 0 or not np.isfinite(spacing):
        raise ArgumentError(f"spacing must be positive, got {spacing}")
    return int(math.floor(support_width / spacing)) + 1


def case2_test(
    series: TimeSeries,
    system: DynamicalSystem,
    config: TestConfig,
    pipeline: Optional[PipelineSettings] = None,
) -> DiagnosticReport:
    """Test whether the estimated forcing depends on the fitted state."""
    return _run_test("case2", series, system, config, pipeline)


def case3_test(
    series: TimeSeries,
    system: DynamicalSystem,
    config: TestConfig,
    pipeline: Optional[PipelineSettings] = None,
) -> DiagnosticReport:
    """Test whether the fitted states at t - delta add information about
    the forcing beyond the states at t: a sign of an omitted state."""
    return _run_test("case3", series, system, config, pipeline)


# The most permutations of one null batch. A batch's arrays are (m, k) or
# (m, lambdas), none with n rows, so the cap only bounds them for a large
# B2. On the vanderpol case-3 fixture at B2 = 999, a null took 1.44
# ms per 199 permutations in batches of 256, against 1.78 at 64 and 1.74
# at 1024 (BLAS on one thread).
_PERM_BLOCK = 256

# Bootstrap replicates refitted together, their designs built as one
# stack: the build's cost per member falls to about 3/5 of a lone build by
# 16 members, while a chunk's designs stay small (17 vanderpol case-3
# members keep about 6 MB, 11 MB at the build's peak).
_REPLICATE_CHUNK = 16

# A null F value counts as reaching F0 from F0 * (1 - _TIE_REL) up (about
# sqrt(eps), as R vegan's permutest). F0 is the null's own statistic at the
# identity block order, but a refitted row (its one-row fits agree with
# the Gram formulas only within _F_REL) and an identity row of a larger
# batch (whose products round as the batch's do) reproduce it only to
# rounding, so a permutation that reproduces the observed order must not
# count by rounding luck. F >= 0, so 0 and inf count as exact comparisons
# do.
_TIE_REL = 1.5e-8

# How far a null F from the block sums may stray from the F of the same
# permutation's one-row fits (the refit of _null). Per row, with k the
# fits' width, the relative error between the two is estimated as
# eps (k cancel + 2 sqrt(spread)) (_unsure), each summed over the
# numerator and the RSS of F, where
# - cancel is the ratio of the largest terms of a difference to its result,
#   in the Gram formulas (||y||^2 to the RSS; ||h||^2, and in case 3
#   ||h1||^2 + ||h0||^2, to the numerator) and in the one-row GCV, whose
#   RSS cancels ||y||^2 and whose pick can move with it;
# - spread is the scale of the one-row fit's rounding, whose coefficients
#   beta and fitted values X beta lose about eps sqrt(sum_j beta_j^2
#   ||X_j||^2), squared over the RSS and over the numerator: a fit whose
#   coefficients dwarf its variation rounds off.
# A row whose estimate passes _F_REL / _GUARD_MARGIN is refitted. Against
# one-row fits on vanderpol, vanderpol_order2, linear2d and rossler
# fixtures (their forcing, and near-exact, pure-noise and far-off-zero
# responses), no row missed by more than 3.2 times its estimate, and no
# kept row by more than a tenth of _F_REL. The builtins' forcing keeps the
# ratios to a few hundred and is seldom refitted; since g is centred
# before any fit, a response far off zero is refitted no more often than
# its centred self.
_F_REL = 1e-10
_GUARD_MARGIN = 8.0


def _ready(design):
    # a design from build_designs, or raise the error its build raised
    if isinstance(design, OdelofError):
        raise design
    return design


def _quad(u: np.ndarray, gram: np.ndarray, v: np.ndarray) -> np.ndarray:
    # the forms u_i^T gram v_i of the rows of u and v
    return np.einsum("ij,ij->i", u @ gram, v)


def _unsure(k: int, num, rss, tops, roundings) -> np.ndarray:
    """Rows whose F = ``num`` / ``rss`` from the Gram formulas may miss
    that of their one-row fits by more than ``_F_REL`` / ``_GUARD_MARGIN``,
    given the largest terms ``tops`` and the squared rounding ``roundings``
    of the numerator and the RSS, each a pair of (m,) arrays, as above. A
    result rounded to zero or below is unsure too: only the one-row path
    flags a degenerate F."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cancel = tops[0] / num + tops[1] / rss
        spread = roundings[0] / num + roundings[1] / rss
        loss = np.finfo(float).eps * (k * cancel + 2.0 * np.sqrt(spread))
        return ~((num > 0.0) & (rss > 0.0) & (loss <= _F_REL / _GUARD_MARGIN))


def _rounding_gram(design) -> tuple[np.ndarray, np.ndarray]:
    # the design's eigen-columns W, and P with (d z)^T P (d z) =
    # sum_j beta_j^2 ||X_j||^2 for the coefficients beta = V (d z)
    w, v = design.eigenbasis()
    return w, (v.T * np.sum(design.design**2, axis=0)) @ v


class _PermutationStat:
    """A test statistic with its block-permutation null.

    :meth:`designs` builds the smoother designs of many fits' states as one
    stack (:func:`~odelof.smoothers.build_designs`). :meth:`evaluate` takes
    one fit's designs and forcing g, which it centres once: F does not
    change with a constant, since the intercept is unpenalized and the
    other columns sum to zero, and the centred sums lose less to
    cancellation. A statistic's ``_null(designs, g, blocks)`` sets up its
    null on g's blocks (a design whose build failed raises its error
    there) and returns ``grams(orders)``, ``refit(order)`` and the EDF of
    h0 (None in case 2).

    A null forms no permuted response but to refit one. Its fits are
    linear in the response, so each one's projections onto the
    eigen-columns W = X V of a design
    (:meth:`~odelof.smoothers.AdditiveSmootherDesign.eigenbasis`) are sums
    of per-block parts, one :meth:`_Blocks.table` per replicate and
    design. ``grams`` takes a batch's GCV picks from those sums
    (:meth:`~odelof.smoothers.AdditiveSmootherDesign.shrink_projections`)
    and its F values from the shrunk projections through k x k Grams of W,
    and gives them (zero where unsure), the mask of the rows those formulas
    may not hold to ``_F_REL`` (:func:`_unsure`) and the EDFs of h (h1 in
    case 3). ``refit`` gives one order's F, flagged as
    :func:`f_stat_case2` or :func:`f_stat_case3` flag it, and that EDF,
    from one-row fits of its permuted response.

    F0 is the null's statistic at the identity block order, evaluated as a
    batch of its own so that its products are one-row ones, and refitted
    if unsure. Given a permutation generator, :meth:`evaluate` then draws
    the ``b2`` block orders ``_PERM_BLOCK`` at a time (the draws of one
    call for all of them); the count of their F values at or above F0, up
    to a relative ``_TIE_REL`` for rounding, gives the p-value.
    """

    def designs(self, states: list) -> list[tuple]:
        """Per entry of ``states`` (a fit's trimmed states), the designs of
        the statistic in the order it fits them, each a design or the
        error its build raised."""
        layouts = [self._layouts(s) for s in states]
        built = iter(build_designs([lay for per in layouts for lay in per], self.settings))
        return [tuple(next(built) for _ in per) for per in layouts]

    def evaluate(self, designs, g_trim, block_len, perm_rng=None, b2=0):
        """F0, p_b (None without ``perm_rng``), and the EDFs of h and
        None (case 2) or of h0 and h1 (case 3), for the forcing ``g_trim``
        in blocks of ``block_len`` rows.

        Raises
        ------
        ArgumentError
            If the centred g's sum of squares is not finite: every F is a
            ratio of its squares, which would overflow.
        """
        blocks = _Blocks(g_trim.shape[0], block_len)
        g = g_trim - g_trim.mean()
        with np.errstate(over="ignore"):
            finite = np.isfinite(g @ g)
        if not finite:
            raise ArgumentError(f"g's sum of squares is not finite (max |g| {np.abs(g_trim).max():.3g})")
        grams, refit, edf_h0 = self._null(designs, g, blocks)
        identity = np.arange(blocks.n_blocks)[None]
        values, unsure, edf = grams(identity)
        if unsure[0]:
            f0, edf = refit(identity[0])
        else:
            f0, edf = FStatResult(float(values[0]), None), edf[0]
        p_b = None
        if perm_rng is not None:
            reach = f0.value * (1.0 - _TIE_REL)
            count = 0
            for at in range(0, b2, _PERM_BLOCK):
                orders = blocks.orders(min(_PERM_BLOCK, b2 - at), perm_rng)
                count += int(np.count_nonzero(_null_values(grams, refit, orders) >= reach))
            p_b = (1 + count) / (b2 + 1)
        return (f0, p_b) + ((edf, None) if edf_h0 is None else (edf_h0, edf))


def _null_values(grams, refit, orders) -> np.ndarray:
    # the F values of a batch of block orders: the Gram formulas', and the
    # one-row fits' where those are unsure
    values, unsure, _ = grams(orders)
    for i in np.flatnonzero(unsure):
        values[i] = refit(orders[i])[0].value
    return values


class _Case2Stat(_PermutationStat):
    def __init__(self, smoother_settings):
        self.settings = smoother_settings

    def _layouts(self, states_trim):
        return [(states_trim, None)]

    def _null(self, designs, g, blocks):
        design = _ready(designs[0])
        w, rounding_gram = _rounding_gram(design)
        table = blocks.table(w, g)
        n, yy = g.shape[0], g @ g
        gram, col_sums = w.T @ w, w.sum(axis=0)

        def grams(orders):
            z = blocks.gather(table, blocks.slots(orders))
            dz, edf = design.shrink_projections(z, np.full(len(orders), yy))
            q = _quad(dz, gram, dz)  # ||h||^2
            h_sum = dz @ col_sums
            num = q - h_sum * h_sum / n  # n var(h)
            rss = yy - 2.0 * np.einsum("ij,ij->i", z, dz) + q
            rounding = _quad(dz, rounding_gram, dz)
            unsure = _unsure(w.shape[1], num, rss, (q, yy), (rounding, rounding))
            return np.divide(num, rss, out=np.zeros_like(num), where=~unsure), unsure, edf

        def refit(order):
            g_k = g[blocks.rows(order[None])[0]]
            fit = design.fit_many(g_k[None])
            return f_stat_case2(g_k, fit.fitted[0]), fit.edf[0]

        return grams, refit, None


class _Case3Stat(_PermutationStat):
    def __init__(self, times_trim, smoother_settings, delta, valid):
        self.settings = smoother_settings
        self.times = times_trim
        self.delta = float(delta)
        self.valid = valid
        self.lag_times = times_trim[valid] - self.delta

    def _layouts(self, states_trim):
        # h0 on the states; h1 on the lag-valid rows, the states and the
        # states at t - delta (linearly interpolated), in their groups
        m = states_trim.shape[1]
        lagged = [np.interp(self.lag_times, self.times, s) for s in states_trim.T]
        x1 = np.column_stack([states_trim[self.valid]] + lagged)
        groups = [tuple(range(m)), tuple(range(m, 2 * m))] if self.settings.interaction else None
        return [(states_trim, None), (x1, groups)]

    def _null(self, designs, g, blocks):
        # the null keeps h0(x_hat) and block-permutes eta = g - h0: the
        # permuted response y = eta* + h0 projects to W^T eta* + W^T h0
        rows = self.valid
        design0 = _ready(designs[0])
        fit0 = design0.fit_many(g[None])
        design1 = _ready(designs[1])
        h0 = fit0.fitted[0]
        eta = g - h0
        n, h0v = eta.shape[0], h0[rows]
        (w0, rounding0), (w1, rounding1) = _rounding_gram(design0), _rounding_gram(design1)
        k0, k1 = w0.shape[1], w1.shape[1]
        # the parts of eta* against W0, W1 (zero off the lag-valid rows),
        # h0 and h0 on the lag-valid rows; the last two give ||y||^2
        cols = np.zeros((n, k0 + k1 + 2))
        cols[:, :k0] = w0
        cols[rows, k0 : k0 + k1] = w1
        cols[:, -2] = h0
        cols[rows, -1] = h0v
        table = blocks.table(cols, eta)
        lag_valid = np.zeros((n, 1))
        lag_valid[rows] = 1.0
        squares = blocks.table(lag_valid, eta * eta)  # sum of eta*^2 on the lag-valid rows
        c0, c1 = h0 @ w0, h0v @ w1
        yy0, h0v_sq = eta @ eta + h0 @ h0, h0v @ h0v
        w0v = w0[rows]
        g11, g10, g00 = w1.T @ w1, w1.T @ w0v, w0v.T @ w0v

        def grams(orders):
            slots = blocks.slots(orders)
            parts = blocks.gather(table, slots)
            z0, z1 = parts[:, :k0] + c0, parts[:, k0 : k0 + k1] + c1
            yy_v = blocks.gather(squares, slots)[:, 0] + 2.0 * parts[:, -1] + h0v_sq
            dz0, _ = design0.shrink_projections(z0, yy0 + 2.0 * parts[:, -2])
            dz1, edf1 = design1.shrink_projections(z1, yy_v)
            # ||h1 - h0||^2 and ||y - h1||^2 on the lag-valid rows
            q11, q00 = _quad(dz1, g11, dz1), _quad(dz0, g00, dz0)
            num = q11 - 2.0 * _quad(dz1, g10, dz0) + q00
            rss = yy_v - 2.0 * np.einsum("ij,ij->i", z1, dz1) + q11
            round1, round0 = _quad(dz1, rounding1, dz1), _quad(dz0, rounding0, dz0)
            unsure = _unsure(k0 + k1, num, rss, (q11 + q00, yy_v), (round1 + round0, round1))
            return np.divide(num, rss, out=np.zeros_like(num), where=~unsure), unsure, edf1

        def refit(order):
            g_k = eta[blocks.rows(order[None])[0]] + h0
            h0_k = design0.fit_many(g_k[None]).fitted[0]
            fit1 = design1.fit_many(g_k[None, rows])
            return f_stat_case3(g_k[rows], h0_k[rows], fit1.fitted[0]), fit1.edf[0]

        return grams, refit, fit0.edf[0]


def _geometry(kind, times, support_width, test, smoother) -> tuple:
    """The geometry of test ``kind`` on the observation ``times``: the
    trimmed rows, the statistic, and the resolved values a report records
    (``spacing``, ``block_len``, ``end_trim`` and ``delta``).

    ``test`` is a :class:`TestConfig`, whose unset ``block_len``, ``end_trim``
    and ``delta`` take their defaults (``support_width``, that of the g
    basis, sets the block length), or a report, whose resolved values it
    reproduces. The statistic is built on the trimmed times with the
    smoother settings ``smoother``; a case-3 statistic keeps the rows whose
    lagged time stays in range.

    Raises
    ------
    ArgumentError
        Naming the field of ``test`` that does not fit: blocks and trim
        that leave too few rows, or a lag that leaves fewer than 16.
    """
    spacing = float(np.median(np.diff(times)))
    block_len = test.block_len or default_block_len(support_width, spacing)
    trim = test.end_trim if test.end_trim is not None else math.ceil(block_len / 2)
    n = times.size
    need = max(2 * block_len, 24)
    if n - 2 * trim < need:
        raise ArgumentError(
            f"block_len {block_len} and end_trim {trim} leave too few points: "
            f"{n - 2 * trim} of {n} observations remain, and the blocks need {need}"
        )
    rows = slice(trim, n - trim)
    resolved = dict(spacing=spacing, block_len=block_len, end_trim=trim, delta=None)
    if kind == "case2":
        return rows, _Case2Stat(smoother), resolved
    resolved["delta"] = delta = test.delta if test.delta is not None else block_len * spacing
    t_trim = times[rows]
    # times increase, so the rows whose lag stays in range form a tail
    first = int(np.searchsorted(t_trim - float(delta), t_trim[0] - 1e-12))
    if t_trim.size - first < 16:
        raise ArgumentError(
            f"delta {delta:g} leaves {t_trim.size - first} of {t_trim.size} trimmed rows "
            "with a lagged time in range, fewer than 16; shorten the lag or the trim"
        )
    return rows, _Case3Stat(t_trim, smoother, delta, slice(first, None)), resolved


def _run_test(kind, series, system, config, pipeline):
    if not isinstance(series, TimeSeries):
        raise ArgumentError(f"series must be a TimeSeries, got {type(series).__name__}")
    if not isinstance(config, TestConfig):
        raise ArgumentError(f"config must be a TestConfig, got {type(config).__name__}")
    settings = pipeline or PipelineSettings()
    runner = runner_for(series.times, system, settings)
    sl, stat, resolved = _geometry(
        kind, series.times, runner.g_basis.support_width, config, settings.smoother
    )
    fit0 = runner.run(series.values)

    root = as_seed_sequence(config.seed)
    rep_seeds = root.spawn(config.b1)
    p_values = []
    f0_boot = []
    n_degenerate = 0
    failures = []
    max_failures = math.floor(config.max_failed_fraction * config.b1)
    # Replicates go in chunks: refit each, build the designs of all their
    # fits as one stack (the original fit first, in the first chunk), then
    # run each replicate's null in replicate order, so failures count and
    # abort as they would one replicate at a time.
    for lo in range(0, config.b1, _REPLICATE_CHUNK):
        chunk = range(lo, min(lo + _REPLICATE_CHUNK, config.b1))
        fits, perm_seeds = [], []
        for b in chunk:
            boot_ss, perm_ss = rep_seeds[b].spawn(2)
            y_b = residual_bootstrap_resample(series.values, fit0.fitted_obs, rng_from(boot_ss))
            try:
                fits.append(runner.run(y_b))
            except OdelofError as exc:
                fits.append(exc)
            perm_seeds.append(perm_ss)
        members = ([fit0] if lo == 0 else []) + [
            fit for fit in fits if not isinstance(fit, OdelofError)
        ]
        built = iter(stat.designs([fit.state_obs[sl] for fit in members]))
        if lo == 0:
            f0, _, edf_h, edf_alt = stat.evaluate(
                next(built), fit0.g_obs[sl], resolved["block_len"]
            )
        for b, fit_b, perm_ss in zip(chunk, fits, perm_seeds):
            try:
                if isinstance(fit_b, OdelofError):
                    raise fit_b
                f0_b, p_b, _, _ = stat.evaluate(
                    next(built),
                    fit_b.g_obs[sl],
                    resolved["block_len"],
                    perm_rng=rng_from(perm_ss),
                    b2=config.b2,
                )
            except OdelofError as exc:
                failures.append(f"replicate {b}: {exc}")
                if len(failures) > max_failures:
                    raise TestAbortedError(
                        f"{len(failures)} of {b + 1} bootstrap replicates failed "
                        f"(cap {max_failures} of {config.b1}); last error: {exc}",
                        n_failed=len(failures),
                        n_total=b + 1,
                        messages=failures,
                    ) from exc
                continue
            p_values.append(p_b)
            f0_boot.append(f0_b.value)
            if f0_b.flag is not None:
                n_degenerate += 1

    if not p_values:
        raise TestAbortedError(
            "all bootstrap replicates failed",
            n_failed=len(failures),
            n_total=config.b1,
            messages=failures,
        )
    p_mean = float(np.mean(p_values))

    theta = fit0.match.theta
    settings_echo = {
        "x_order": settings.x_order,
        "x_knot_spacing": settings.x_knot_spacing,
        "x_penalty": settings.x_penalty,
        "g_order": settings.g_order,
        "g_knot_spacing": settings.g_knot_spacing,
        "g_penalty": settings.g_penalty,
        "quad_per_spacing": settings.quad_per_spacing,
        "second_order": settings.second_order,
        "smoother_total_dim": settings.smoother.total_dim,
        "smoother_n_lambda": AdditiveSmootherDesign.lambda_grid.size,
        "smoother_interaction": settings.smoother.interaction,
    }
    return DiagnosticReport(
        kind=kind,
        reject=bool(p_mean < config.alpha),
        p_mean=p_mean,
        alpha=config.alpha,
        p_values=tuple(p_values),
        f0=f0.value,
        f0_flag=f0.flag,
        f0_boot=tuple(f0_boot),
        n_degenerate=n_degenerate,
        b1=config.b1,
        b2=config.b2,
        n_obs=series.times.size,
        n_failed=len(failures),
        failure_messages=tuple(failures[:10]),
        seed_entropy=(
            int(root.entropy)
            if isinstance(root.entropy, (int, np.integer))
            else [int(v) for v in root.entropy]
        ),
        model=runner.system.name,
        theta=tuple(float(v) for v in theta),
        edf_h=float(edf_h),
        edf_h_alt=None if edf_alt is None else float(edf_alt),
        g_spline=fit0.forcing.g,
        xhat_spline=fit0.xhat,
        settings=settings_echo,
        version=__version__,
        **resolved,
    )
