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
relative 1.5e-8 below F_0b counts as a tie (the two come from fits that
agree only to rounding); the test rejects when the mean of the p_b falls
below alpha.

The B2 permutations of a replicate run as one batch: their block orders
are B2 successive draws from the replicate's generator
(:func:`block_permutation_indices`), drawn ``_PERM_BLOCK`` at a time, the
permuted responses, one per row, are fitted together, each with its own
GCV lambda (:meth:`~odelof.smoothers.AdditiveSmootherDesign.fit_many`),
and their F values come from the one column kernel that
:func:`f_stat_case2` and :func:`f_stat_case3` wrap. A permutation changes
only the response: the h0 and h1 designs are built once per replicate.
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


# degeneracy flags of the F kernels, indexed by their flag codes
_FLAGS = (None, "zero_over_zero", "zero_denominator")


def _mean_squares(r: np.ndarray) -> np.ndarray:
    # squares r (m, n, d) in place; the means over rows of the sums over d
    r *= r
    return np.mean(np.sum(r, axis=2), axis=1)


def _ratios(num: np.ndarray, den: np.ndarray):
    """F values and flag codes (indices into ``_FLAGS``): 0/0 reads 0,
    x/0 reads inf."""
    zero = den == 0.0
    values = np.divide(num, den, out=np.zeros_like(num), where=~zero)
    values[zero & (num != 0.0)] = math.inf
    codes = np.where(zero, np.where(num == 0.0, 1, 2), 0)
    return values, codes


def _f_columns(g: np.ndarray, h: np.ndarray, ref: np.ndarray):
    """F values and flag codes of m statistics: the mean squares of h - ref
    over those of g - h. ``g`` and ``h`` are (m, n, d) arrays (m statistics,
    n rows, d response columns) and ``ref`` broadcasts to them: h's mean
    over rows in case 2, h0 in case 3 (where h is h1). Each statistic sums
    over its rows in the order a single one does, so its bits do not
    depend on m."""
    r = h - ref
    num = _mean_squares(r)
    return _ratios(num, _mean_squares(np.subtract(g, h, out=r)))


def _one(result) -> FStatResult:
    values, codes = result
    return FStatResult(float(values[0]), _FLAGS[codes[0]])


def f_stat_case2(g, h) -> FStatResult:
    """State-dependence statistic: variance of h around its mean over the
    mean squared residual of g around h."""
    gv = _as_rows(g, "g")
    hv = _as_rows(h, "h")
    if gv.shape != hv.shape:
        raise ArgumentError(f"g and h must share a shape, got {gv.shape} vs {hv.shape}")
    h = hv[None]
    return _one(_f_columns(gv[None], h, h.mean(axis=1, keepdims=True)))


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
    return _one(_f_columns(gv[None], h1v[None], h0v[None]))


def block_permutation_indices(
    n: int, block_len: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Row indices (n, count) of ``count`` block permutations of n rows.

    Column j reorders the consecutive blocks of ``block_len`` rows (a
    final short block moves along with the full ones) by the j-th of
    ``count`` successive ``rng.permutation(n_blocks)`` draws. One
    ``rng.permuted`` call over ``count`` stacked ranges makes the same
    draws, row by row, and leaves the generator in the same state.
    """
    if block_len < 1:
        raise ArgumentError(f"block_len must be >= 1, got {block_len}")
    if n < 1:
        raise ArgumentError("nothing to permute")
    n_blocks = -(-n // block_len)
    starts = np.arange(n_blocks) * block_len
    sizes = np.minimum(block_len, n - starts)
    orders = rng.permuted(np.tile(np.arange(n_blocks), (count, 1)), axis=1)
    lens = sizes[orders]
    # output row p of a block that starts at output row s and source row
    # b is source row p + (b - s)
    shift = starts[orders] - (np.cumsum(lens, axis=1) - lens)
    rows = np.repeat(shift.ravel(), lens.ravel()).reshape(count, n)
    rows += np.arange(n)
    return rows.T


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


# Permutations fitted together: enough columns for the matrix products to
# pay, few enough that the (block, n) responses, fits and residuals stay
# small next to the rest of a replicate's memory.
_PERM_BLOCK = 64

# Bootstrap replicates refitted together, their designs built as one
# stack: the build's cost per member falls to about 3/5 of a lone build by
# 16 members, while a chunk's designs stay small (17 vanderpol case-3
# members keep about 6 MB, 11 MB at the build's peak).
_REPLICATE_CHUNK = 16

# A null F value counts as reaching F0 from F0 * (1 - _TIE_REL) up (about
# sqrt(eps), as R vegan's permutest): F0 is a one-row fit_many call, the
# null a batch of up to _PERM_BLOCK rows, and a row's fit rounds
# differently with the batch size (the identity permutation's case-3 F in
# a 64-row batch is off F0 by 1e-14 relative on a vanderpol fixture, 4e-12
# on vanderpol_order2), so a permutation that reproduces the observed
# order must not count by rounding luck. F >= 0, so 0 and inf count as
# exact comparisons do.
_TIE_REL = 1.5e-8


def _ready(design):
    # a design from build_designs, or raise the error its build raised
    if isinstance(design, OdelofError):
        raise design
    return design


class _PermutationStat:
    """A test statistic with its block-permutation null.

    :meth:`designs` builds the smoother designs of many fits' states as one
    stack (:func:`~odelof.smoothers.build_designs`). :meth:`evaluate` takes
    one fit's designs and fits the unpermuted statistic; a design whose
    build failed raises its error there, when the statistic first needs
    it. Given a permutation generator, it then draws the ``b2`` block
    permutations ``_PERM_BLOCK`` at a time (the draws of one call for all
    of them) and passes each block to the null of :meth:`_observed`, which
    fits them together and returns their F values; the count of those at
    or above F0, up to a relative ``_TIE_REL`` for rounding, gives the
    p-value.
    """

    def designs(self, states: list) -> list[tuple]:
        """Per entry of ``states`` (a fit's trimmed states), the designs of
        the statistic in the order it fits them, each a design or the
        error its build raised."""
        layouts = [self._layouts(s) for s in states]
        built = iter(build_designs([lay for per in layouts for lay in per], self.settings))
        return [tuple(next(built) for _ in per) for per in layouts]

    def evaluate(self, designs, g_trim, perm_rng=None, b2=0, block_len=0):
        f0, edfs, null = self._observed(designs, g_trim)
        p_b = None
        if perm_rng is not None:
            n, reach = g_trim.shape[0], f0.value * (1.0 - _TIE_REL)
            count = 0
            for at in range(0, b2, _PERM_BLOCK):
                idx = block_permutation_indices(n, block_len, min(_PERM_BLOCK, b2 - at), perm_rng)
                count += int(np.count_nonzero(null(idx.T) >= reach))
            p_b = (1 + count) / (b2 + 1)
        return (f0, p_b) + edfs


class _Case2Stat(_PermutationStat):
    def __init__(self, smoother_settings):
        self.settings = smoother_settings

    def _layouts(self, states_trim):
        return [(states_trim, None)]

    def _observed(self, designs, g_trim):
        design = _ready(designs[0])
        fit = design.fit_many(g_trim[None])

        def null(idx):
            g_k = g_trim[idx]  # (m, n): one permutation per row
            h_k = design.fit_many(g_k).fitted[:, :, None]
            return _f_columns(g_k[:, :, None], h_k, h_k.mean(axis=1, keepdims=True))[0]

        return f_stat_case2(g_trim, fit.fitted[0]), (fit.edf[0], None), null


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

    def _observed(self, designs, g_trim):
        rows = self.valid
        design0 = _ready(designs[0])
        h0 = design0.fit_many(g_trim[None])
        design1 = _ready(designs[1])
        h1 = design1.fit_many(g_trim[None, rows])
        f0 = f_stat_case3(g_trim[rows], h0.fitted[0, rows], h1.fitted[0])
        eta = g_trim - h0.fitted[0]

        def null(idx):
            # the null keeps h0(x_hat) and block-permutes eta = g - h0
            g_k = eta[idx]  # (m, n): one permutation per row
            g_k += h0.fitted[0]
            h0_k = design0.fit_many(g_k).fitted
            h1_k = design1.fit_many(g_k[:, rows]).fitted
            return _f_columns(g_k[:, rows, None], h1_k[:, :, None], h0_k[:, rows, None])[0]

        return f0, (h0.edf[0], h1.edf[0]), null


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
            f0, _, edf_h, edf_alt = stat.evaluate(next(built), fit0.g_obs[sl])
        for b, fit_b, perm_ss in zip(chunk, fits, perm_seeds):
            try:
                if isinstance(fit_b, OdelofError):
                    raise fit_b
                f0_b, p_b, _, _ = stat.evaluate(
                    next(built),
                    fit_b.g_obs[sl],
                    perm_rng=rng_from(perm_ss),
                    b2=config.b2,
                    block_len=resolved["block_len"],
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
