"""Plot-ready CSV exports for a diagnostic report.

No rendering happens here: each export is a tidy CSV a notebook or
plotting tool can consume directly. All files use 17-significant-digit
floats and LF endings so reruns are byte-identical.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .diagnose import DiagnosticReport, _geometry, _ready
from .errors import ArgumentError, BlowupError
from .pipeline import CompanionState
from .seriesio import _write_csv
from .smoothers import SmootherSettings
from .systems import DynamicalSystem, TimeSeries, builtin_system, integrate, rate_values

_SURFACE_SIDE = 41
_CURVE_POINTS = 201


def export_diagnostic_plots(
    report: DiagnosticReport,
    series: TimeSeries,
    out_dir: Union[str, os.PathLike],
    system: Optional[DynamicalSystem] = None,
) -> list[Path]:
    """Write the four diagnostic plot files for a finished test.

    * ``g_vs_state.csv``: trimmed g-hat against the fitted state, for the
      functional-dependence scatter.
    * ``rate_overlay.csv``: smoothed derivatives against forced model rates
      at every observation time.
    * ``h_surface.csv`` (case 2) or ``h_lag.csv`` (case 3): the fitted
      lack-of-fit smooths.
    * ``series_overlay.csv``: data, smooth, and the bare (unforced) model
      solution started from the smooth's initial state.

    ``system`` defaults to the builtin named in the report; pass it
    explicitly for custom models.
    """
    if series.times.size != report.n_obs:
        raise ArgumentError(
            f"series has {series.times.size} rows, report was built on {report.n_obs}"
        )
    if system is None:
        system = builtin_system(report.model)
    # the report's blocks, trim and statistic, resolved as its test resolved them
    echo = report.settings
    smoother = SmootherSettings(echo["smoother_total_dim"], echo["smoother_interaction"])
    sl, stat, resolved = _geometry(report.kind, series.times, None, report, smoother)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    xhat = report.xhat_spline
    g = report.g_spline
    theta = np.asarray(report.theta, dtype=float)
    second_order = bool(echo.get("second_order"))

    times = series.times
    n = times.size
    x_obs = np.asarray(xhat(times))
    if x_obs.ndim == 1:
        x_obs = x_obs[:, None]
    # the model's state: the smooth, or (x, dx/dt) for a second-order model
    state = CompanionState(xhat) if second_order else xhat
    states = np.asarray(state(times)).reshape(n, -1)
    g_obs = np.asarray(g(times))
    paths = []

    t_trim = times[sl]
    s_trim = states[sl]
    g_trim = g_obs[sl]
    header = ["time", "g"] + [f"s{j + 1}" for j in range(s_trim.shape[1])]
    cols = [t_trim, g_trim] + [s_trim[:, j] for j in range(s_trim.shape[1])]
    path = out / "g_vs_state.csv"
    _write_csv(path, header, cols)
    paths.append(path)

    dstates = np.asarray(state(times, 1)).reshape(n, -1)
    f_obs = rate_values(system, states, times, theta, g_obs)
    d = dstates.shape[1]
    header = ["time"] + [f"dxdt{j + 1}" for j in range(d)] + [f"f{j + 1}" for j in range(d)]
    cols = [times] + [dstates[:, j] for j in range(d)] + [f_obs[:, j] for j in range(d)]
    path = out / "rate_overlay.csv"
    _write_csv(path, header, cols)
    paths.append(path)

    paths.append(_export_h(report.kind, stat, out, t_trim, s_trim, g_trim))
    paths.append(
        _export_series_overlay(out, series, x_obs, states[0], system, theta, resolved["spacing"])
    )
    return paths


def _export_h(kind, stat, out, t_trim, s_trim, g_trim) -> Path:
    # the designs of the report's test, built as the test builds them
    designs = [_ready(d) for d in stat.designs([s_trim])[0]]
    if kind == "case2":
        design = designs[0]
        coef = design.fit_many(g_trim[None]).coefficients[0]
        if s_trim.shape[1] == 1:
            grid = np.linspace(s_trim[:, 0].min(), s_trim[:, 0].max(), _CURVE_POINTS)
            h = design.design_for(grid[:, None]) @ coef
            path = out / "h_surface.csv"
            _write_csv(path, ["s1", "h"], [grid, h])
            return path
        g1 = np.linspace(s_trim[:, 0].min(), s_trim[:, 0].max(), _SURFACE_SIDE)
        g2 = np.linspace(s_trim[:, 1].min(), s_trim[:, 1].max(), _SURFACE_SIDE)
        m1, m2 = np.meshgrid(g1, g2, indexing="ij")
        pts = np.column_stack([m1.ravel(), m2.ravel()])
        if s_trim.shape[1] > 2:
            med = np.median(s_trim[:, 2:], axis=0)
            pts = np.column_stack([pts, np.tile(med, (pts.shape[0], 1))])
        h = design.design_for(pts) @ coef
        path = out / "h_surface.csv"
        _write_csv(path, ["s1", "s2", "h"], [pts[:, 0], pts[:, 1], h])
        return path

    # case 3: h0 and h1 predictions on the lag-valid rows, h1 on the
    # test's own lag design (the states and the states at t - delta)
    rows = stat.valid
    h0 = designs[0].fit_many(g_trim[None]).fitted[0]
    h1 = designs[1].fit_many(g_trim[None, rows]).fitted[0]
    path = out / "h_lag.csv"
    _write_csv(path, ["time", "g", "h0", "h1"], [t_trim[rows], g_trim[rows], h0[rows], h1])
    return path


def _export_series_overlay(out, series, x_obs, x0, system, theta, spacing) -> Path:
    """Data, smooth and the bare model solution from the state ``x0``, at
    RK4 substeps of a quarter of the grid ``spacing``; the solution's first
    columns are the observed ones (the only one, x, for a second-order
    model)."""
    times = series.times
    sol = np.full((times.size, system.dim), np.nan)
    try:
        traj = integrate(system, theta, x0, times, substep=spacing / 4.0)
        sol = traj.states
    except BlowupError as exc:
        k = int(np.searchsorted(times, exc.time))
        if k >= 2:
            try:
                traj = integrate(system, theta, x0, times[:k], substep=spacing / 4.0)
                sol[:k] = traj.states
            except BlowupError:
                pass
    m = series.values.shape[1]
    sol_obs = sol[:, :m]
    header = (
        ["time"]
        + [f"y{j + 1}" for j in range(m)]
        + [f"xhat{j + 1}" for j in range(m)]
        + [f"model{j + 1}" for j in range(sol_obs.shape[1])]
    )
    cols = (
        [times]
        + [series.values[:, j] for j in range(m)]
        + [x_obs[:, j] for j in range(m)]
        + [sol_obs[:, j] for j in range(sol_obs.shape[1])]
    )
    path = out / "series_overlay.csv"
    _write_csv(path, header, cols)
    return path
