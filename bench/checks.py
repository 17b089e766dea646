"""Correctness checks made apart from the program.

Each check reads the program's output in its serialized form (report
dicts, files on disk) and either recomputes a result with numpy and scipy
alone or tests a property the method must have. None compares against a
stored copy of earlier output, and none imports odelof. A failed check
raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os

import numpy as np
from scipy.interpolate import BSpline


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- invariants every test report must satisfy ------------------------------


def check_report_invariants(report: dict) -> None:
    """n_failed = 0; each p_b (B2+1) an integer in 1..B2+1; p_mean the mean
    of p_values; reject exactly when p_mean < alpha."""
    b1, b2 = report["b1"], report["b2"]
    p = report["p_values"]
    _require(report["n_failed"] == 0, f"{report['n_failed']} bootstrap replicates failed")
    _require(len(p) == b1, f"{len(p)} p-values for b1={b1}")
    for pb in p:
        k = pb * (b2 + 1)
        _require(
            abs(k - round(k)) <= 1e-9 * (b2 + 1) and 1 <= round(k) <= b2 + 1,
            f"p_b={pb!r} is not a permutation p-value at B2={b2}",
        )
    mean = math.fsum(p) / len(p)
    _require(
        math.isclose(report["p_mean"], mean, rel_tol=1e-12, abs_tol=1e-15),
        f"p_mean {report['p_mean']!r} is not the mean {mean!r} of p_values",
    )
    _require(
        report["reject"] == (report["p_mean"] < report["alpha"]),
        f"reject={report['reject']} contradicts p_mean {report['p_mean']} vs alpha {report['alpha']}",
    )


def exceedances(report: dict) -> int:
    """Permuted F values that reached F0, read back from the p-values."""
    b2 = report["b2"]
    return sum(int(round(pb * (b2 + 1))) - 1 for pb in report["p_values"])


# -- splines and quadrature, rebuilt from their serialized form -------------


def spline(d: dict) -> BSpline:
    """The clamped B-spline a report's ``*_spline`` entry describes."""
    k = int(d["order"]) - 1
    bp = np.asarray(d["breakpoints"], dtype=float)
    knots = np.concatenate([np.full(k, bp[0]), bp, np.full(k, bp[-1])])
    return BSpline(knots, np.asarray(d["coefficients"], dtype=float), k, extrapolate=False)


def trapezoid(times, per_spacing: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid rule on the grid refining each interval into equal pieces."""
    t = np.asarray(times, dtype=float)
    frac = np.arange(per_spacing) / per_spacing
    nodes = np.append((t[:-1, None] + np.diff(t)[:, None] * frac).ravel(), t[-1])
    h = np.diff(nodes)
    w = np.zeros(nodes.size)
    w[:-1] += h / 2
    w[1:] += h / 2
    return nodes, w


def _state(report: dict, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nodes, w = trapezoid(times, int(report["settings"]["quad_per_spacing"]))
    xhat = spline(report["xhat_spline"])
    return xhat(nodes), xhat.derivative()(nodes), w


# -- case2-vanderpol: linear2d gradient match -------------------------------


def check_linear2d_match(report: dict, times) -> None:
    """theta-hat is the weighted least-squares fit of the linear2d rates
    dx1 = a x1 + b x2, dx2 = c x1 + d x2 to the smooth's derivative."""
    x, dx, w = _state(report, times)
    zero = np.zeros_like(x)
    design = np.block([[x, zero], [zero, x]])
    target = np.concatenate([dx[:, 0], dx[:, 1]])
    sw = np.sqrt(np.concatenate([w, w]))
    theta, *_ = np.linalg.lstsq(sw[:, None] * design, sw * target, rcond=None)
    got = np.asarray(report["theta"], dtype=float)
    _require(
        np.allclose(got, theta, rtol=1e-8, atol=1e-10),
        f"theta-hat {got.tolist()} is not the least-squares solution {theta.tolist()}",
    )


# -- refit-rmlog: both Gauss-Newton objectives descend ---------------------


def rmlog_rate(x: np.ndarray, theta, p=None) -> np.ndarray:
    """Rosenzweig-MacArthur rates in (log C, log B); ``p`` replaces theta[6]."""
    r, k_c, big_g, k_b, chi, delta, p0 = theta
    p = p0 if p is None else p
    c, b = np.exp(x[:, 0]), np.exp(x[:, 1])
    uptake = p * big_g / (k_b + p * c)
    return np.column_stack([r * (1.0 - c / k_c) - uptake * b, chi * uptake * c - delta])


def check_rmlog_descent(report: dict, times, theta_init) -> None:
    """The gradient-matching objective at theta-hat is no worse than at
    theta_init, and the forcing objective with g-hat is no worse than with
    g held at theta-hat's replaced parameter: Gauss-Newton descends from
    both of its starts."""
    _require(report["settings"]["g_penalty"] == 0, "forcing check assumes g_penalty = 0")
    x, dx, w = _state(report, times)
    theta = np.asarray(report["theta"], dtype=float)

    def objective(th, p=None):
        return float(w @ np.sum((dx - rmlog_rate(x, th, p)) ** 2, axis=1))

    at_hat, at_init = objective(theta), objective(np.asarray(theta_init, dtype=float))
    _require(
        at_hat <= at_init * (1 + 1e-12),
        f"gradient-matching objective rose from {at_init:.6g} at theta_init to {at_hat:.6g}",
    )
    nodes, _ = trapezoid(times, int(report["settings"]["quad_per_spacing"]))
    g = spline(report["g_spline"])(nodes)
    forced, held = objective(theta, g), objective(theta)
    _require(
        forced <= held * (1 + 1e-12),
        f"forcing objective rose from {held:.6g} at g = theta[6] to {forced:.6g} at g-hat",
    )


# -- vanderpol set-up: the simulator against solve_ivp ----------------------


def check_ode_solution(states, rhs, x0, times, atol: float) -> float:
    """Max deviation of a simulated path from a tight solve_ivp solution."""
    from scipy.integrate import solve_ivp

    t = np.asarray(times, dtype=float)
    sol = solve_ivp(
        lambda _t, x: rhs(x), (t[0], t[-1]), x0, t_eval=t, method="DOP853",
        rtol=1e-12, atol=1e-12,
    )
    _require(sol.success, f"solve_ivp failed: {sol.message}")
    err = float(np.max(np.abs(sol.y.T - np.asarray(states))))
    _require(err <= atol, f"simulated path is {err:.3g} from solve_ivp (tolerance {atol:g})")
    return err


def check_noise(values, clean, noise_var: float) -> None:
    """Observation noise has mean 0 and the configured variance (6 SE)."""
    e = (np.asarray(values) - np.asarray(clean)).ravel()
    n = e.size
    _require(abs(e.mean()) <= 6 * math.sqrt(noise_var / n), f"noise mean {e.mean():.3g}")
    ratio = float(e @ e) / n / noise_var
    _require(abs(ratio - 1) <= 6 * math.sqrt(2 / n), f"noise variance is {ratio:.3g} x configured")


# -- study-sde: the power table against the per-replicate files ------------


def check_study(out_dir: str) -> list[dict]:
    """Every power_table.csv row agrees with its replicate files; returns
    the reports, each of which has passed the invariants."""
    with open(os.path.join(out_dir, "power_table.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(bool(rows), "power_table.csv has no rows")
    reports = []
    for row in rows:
        rep_dir = os.path.join(out_dir, row["cell"], row["test"])
        files = sorted(glob.glob(os.path.join(rep_dir, "rep*.json")))
        aborted = glob.glob(os.path.join(rep_dir, "rep*.aborted.txt"))
        cell = []
        for f in files:
            with open(f) as fh:
                cell.append(json.load(fh))
        for r in cell:
            check_report_invariants(r)
            _require(r["kind"] == row["test"], f"{row['cell']}: report kind {r['kind']}")
        completed, n_aborted = int(row["completed"]), int(row["n_aborted"])
        _require(
            completed == len(files) and n_aborted == len(aborted),
            f"{row['cell']}/{row['test']}: table says {completed} completed, {n_aborted} aborted; "
            f"found {len(files)} reports, {len(aborted)} aborted files",
        )
        _require(
            completed + n_aborted == int(row["replicates"]),
            f"{row['cell']}/{row['test']}: completed + aborted != replicates",
        )
        rejections = sum(r["reject"] for r in cell)
        _require(
            int(row["rejections"]) == rejections,
            f"{row['cell']}/{row['test']}: table says {row['rejections']} rejections, reports {rejections}",
        )
        reports.extend(cell)
    return reports
