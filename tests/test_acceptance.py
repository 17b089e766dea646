"""Acceptance gate for the released estimator and tests.

Each criterion prints one line with the measured values next to its
bound, so a log shows at a glance what the build achieves. Tier comes
from ODELOF_ACCEPTANCE: "smoke" (default, finishes in minutes) runs the
reduced budgets; "desk" runs the full 50-replicate studies and took
222 s on one core in the latest measurement (ROADMAP.md's baseline).
"""

import dataclasses
import os

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import solve_ivp

from odelof import (
    ForcingOperator,
    ForcingSpec,
    PipelineRunner,
    PipelineSettings,
    SmoothingOperator,
    SmootherSettings,
    TestConfig,
    builtin_system,
    config_from_dict,
    diagnose_series,
    f_stat_case2,
    f_stat_case3,
    gradient_match,
    integrate,
    load_config,
    make_basis,
    observe,
    quad_grid,
    quadrature_state,
    run_diagnose,
    run_power_study,
    simulate_series,
    with_forcing,
)
from odelof.diagnose import _Case2Stat, _geometry
from odelof.pipeline import CompanionState
from odelof.rng import rng_from

TIER = os.environ.get("ODELOF_ACCEPTANCE", "smoke").lower()
DESK = TIER == "desk"

LINEAR_THETA = np.array([0.0, -1.0, 1.0, 0.0])


def emit(capsys, criterion: int, detail: str, ok: bool) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {criterion} ({TIER}): {detail} -- {verdict}")


@pytest.fixture(scope="module")
def power_results(tmp_path_factory):
    if DESK:
        budget = {"replicates": 50, "test": {"b1": 100, "b2": 199}}
        cells = [
            {"system": "linear2d", "tests": ["case2"]},
            {"system": "vanderpol", "tests": ["case2", "case3"]},
            {"system": "rossler", "tests": ["case2"]},
            {"system": "rossler_chaotic", "tests": ["case3"]},
            {"system": "rossler", "generator": "sde", "tests": ["case3"]},
            {"system": "vanderpol", "generator": "sde", "tests": ["case2"]},
        ]
    else:
        budget = {"replicates": 10, "test": {"b1": 20, "b2": 99}}
        cells = [
            {"system": "linear2d", "tests": ["case2"]},
            {"system": "vanderpol", "tests": ["case2", "case3"]},
            {"system": "rossler_chaotic", "tests": ["case3"]},
        ]
    cfg = config_from_dict({"master_seed": 20260814, **budget, "cells": cells})
    out = tmp_path_factory.mktemp("power")
    summaries = run_power_study(cfg, str(out), jobs=1)
    return {(s.system, s.generator, s.kind): s for s in summaries}


def check_rates(power_results, capsys, criterion, checks):
    parts = []
    ok_all = True
    for system, gen, kind, op, bound in checks:
        s = power_results[(system, gen, kind)]
        ok = s.power >= bound if op == ">=" else s.power <= bound
        ok_all = ok_all and ok
        parts.append(
            f"{system}/{gen} {kind} rate {s.power:.3f} "
            f"({s.rejections}/{s.completed}) {op} {bound}"
        )
    emit(capsys, criterion, "; ".join(parts), ok_all)
    assert ok_all, "; ".join(parts)


class TestCriterion1PowerTable:
    def test_ode_rejection_rates(self, power_results, capsys):
        if DESK:
            checks = [
                ("linear2d", "ode", "case2", "<=", 0.12),
                ("vanderpol", "ode", "case2", ">=", 0.9),
                ("vanderpol", "ode", "case3", "<=", 0.1),
                ("rossler", "ode", "case2", ">=", 0.9),
                ("rossler_chaotic", "ode", "case3", ">=", 0.8),
            ]
        else:
            checks = [
                ("vanderpol", "ode", "case2", ">=", 0.8),
                ("linear2d", "ode", "case2", "<=", 0.3),
                ("vanderpol", "ode", "case3", "<=", 0.3),
                ("rossler_chaotic", "ode", "case3", ">=", 0.7),
            ]
        check_rates(power_results, capsys, 1, checks)


class TestCriterion2SdeRows:
    def test_sde_rejection_rates(self, power_results, capsys):
        if not DESK:
            emit(capsys, 2, "skipped at smoke tier (set ODELOF_ACCEPTANCE=desk)", True)
            pytest.skip("desk tier only")
        check_rates(
            power_results,
            capsys,
            2,
            [
                ("rossler", "sde", "case3", ">=", 0.7),
                ("vanderpol", "sde", "case2", ">=", 0.8),
            ],
        )


def uniform_null_pvalues(stat, states, make_g, n_rep=500):
    """p_b of ``stat`` over ``n_rep`` synthetic responses ``make_g(rng)``,
    each permuted (B2 = 99, blocks of 32) by the stream that drew it."""
    pvals = np.empty(n_rep)
    (designs,) = stat.designs([states])
    for i, child in enumerate(np.random.SeedSequence(2718).spawn(n_rep)):
        g_rng = rng_from(child)
        _, pvals[i], _, _ = stat.evaluate(
            designs, make_g(g_rng), perm_rng=g_rng, b2=99, block_len=32
        )
    return pvals


class TestCriterion3Level:
    @pytest.fixture(scope="class")
    def linear_fit(self):
        system = builtin_system("linear2d")
        times = np.linspace(0.0, 55.0, 440)
        path = integrate(system, LINEAR_THETA, np.array([1.0, 0.0]), times)
        series = observe(path, 0.25, seed=314)
        fit = PipelineRunner(times, system, PipelineSettings()).run(series.values)
        sl = slice(16, times.size - 16)  # block_len 32, half a block per end
        return times[sl], fit.state_obs[sl]

    def test_null_pvalues_are_uniform(self, linear_fit, capsys):
        _, states = linear_fit
        pvals = uniform_null_pvalues(
            _Case2Stat(SmootherSettings()), states, lambda rng: rng.standard_normal(states.shape[0])
        )
        ks = stats.kstest(pvals, "uniform")
        ok = ks.pvalue > 0.01
        emit(
            capsys,
            3,
            f"KS uniformity of p_b under synthetic null: D = {ks.statistic:.4f}, "
            f"p = {ks.pvalue:.3f} > 0.01 over {pvals.size} replicates",
            ok,
        )
        assert ok, f"KS p-value {ks.pvalue}"

    @pytest.mark.xfail(
        strict=True,
        reason="case-3 p_b is only approximately uniform when h is not 0: the "
        "residual-permutation null refits GCV-tuned smooths (see ROADMAP)",
    )
    def test_case3_null_pvalues_are_uniform(self, linear_fit, capsys):
        # g = a smooth function of the state plus noise independent across
        # blocks: the lagged states carry nothing more
        times, states = linear_fit
        # the statistic on the trimmed rows, with a lag of one block
        test = TestConfig(seed=0, block_len=32, end_trim=0, delta=32 * (times[1] - times[0]))
        _, stat, _ = _geometry("case3", times, None, test, SmootherSettings(interaction=True))
        h = np.sin(2.0 * states[:, 0]) + states[:, 1] ** 2
        pvals = uniform_null_pvalues(
            stat, states, lambda rng: h + 0.5 * rng.standard_normal(states.shape[0])
        )
        ks = stats.kstest(pvals, "uniform")
        ok = ks.pvalue > 0.01
        emit(
            capsys,
            3,
            f"case3 KS uniformity of p_b with g = h(x_hat) + noise: D = {ks.statistic:.4f}, "
            f"p = {ks.pvalue:.3f} > 0.01 over {pvals.size} replicates",
            ok,
        )
        assert ok, f"KS p-value {ks.pvalue}"

    def test_level_on_correct_model(self, power_results, capsys):
        bound = 0.12 if DESK else 0.3
        s = power_results[("linear2d", "ode", "case2")]
        ok = s.power <= bound
        emit(
            capsys,
            3,
            f"case2 level on correctly specified linear2d: "
            f"{s.power:.3f} ({s.rejections}/{s.completed}) <= {bound}",
            ok,
        )
        assert ok


ROADMAP_ITEM_9 = pytest.mark.xfail(
    strict=True,
    reason="gradient matching on the curvature-penalized smooth biases vanderpol's theta, "
    "and case 2 reads the bias as a wrong rate (ROADMAP item 9)",
)


class TestCriterion3CorrectModels:
    """The hierarchy's first level: a correctly specified model is retained
    on ODE and on SDE data. Dataset d is simulated from seed (9, 0, d) and
    tested from (9, 1, d), at 10 datasets, B1 = 20 and B2 = 99 at both tiers."""

    @pytest.mark.parametrize(
        "system, generator, kind",
        [
            pytest.param("vanderpol", "ode", "case2", marks=ROADMAP_ITEM_9),
            pytest.param("vanderpol", "sde", "case2", marks=ROADMAP_ITEM_9),
        ],
    )
    def test_correct_model_is_retained(self, system, generator, kind, capsys):
        cfg = config_from_dict(
            {
                "system": system,
                "model": system,
                "generator": generator,
                "tests": [kind],
                "test": {"b1": 20, "b2": 99},
            }
        )
        n_data, bound = 10, 0.3
        rejections, p_b = 0, []
        for d in range(n_data):
            series = simulate_series(cfg, np.random.SeedSequence(9, spawn_key=(0, d)))
            report = diagnose_series(cfg, series, kind, np.random.SeedSequence(9, spawn_key=(1, d)))
            rejections += report.reject
            p_b += report.p_values
        rate = rejections / n_data
        ok = rate <= bound
        # the pooled share is reported, not gated: it is 5% for uniform p_b
        share = float(np.mean(np.asarray(p_b) <= 0.05))
        emit(
            capsys,
            3,
            f"{system}/{generator} {kind} on its own model: rate {rate:.3f} "
            f"({rejections}/{n_data}) <= {bound}; pooled p_b <= 0.05: {share:.1%}",
            ok,
        )
        assert ok


class TestCriterion4Oracles:
    def test_oracle_equivalences(self, capsys):
        f2 = f_stat_case2([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]).value
        f3 = f_stat_case3([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [1.0, 2.0, 2.5]).value
        f_ok = abs(f2 - 2.0 / 3.0) <= 1e-12 and abs(f3 - 5.0) <= 1e-12

        system = builtin_system("linear2d")
        times = np.linspace(0.0, 55.0, 440)
        rng = np.random.default_rng(12)
        path = integrate(system, LINEAR_THETA, np.array([1.0, 0.0]), times)
        basis = make_basis(4, (0.0, 55.0), 0.25)
        xhat = SmoothingOperator(times, basis, 0.01).fit(
            path.states + rng.normal(0.0, 0.05, path.states.shape)
        )
        state = quadrature_state(xhat, *quad_grid(times))
        closed = gradient_match(state, system)
        gn = gradient_match(
            state, dataclasses.replace(system, linear_in_params=False), theta_init=np.zeros(4)
        )
        gn_gap = float(np.abs(closed.theta - gn.theta).max())

        t_end = np.array([0.0, 12.0])
        truth = np.column_stack([np.cos(t_end), np.sin(t_end)])[-1]
        err = {}
        for h in (0.02, 0.01):
            out = integrate(system, LINEAR_THETA, np.array([1.0, 0.0]), t_end, substep=h)
            err[h] = float(np.abs(out.states[-1] - truth).max())
        ratio = err[0.02] / err[0.01]

        t = np.linspace(0.0, 10.0, 2001)
        spline = SmoothingOperator(
            t, make_basis(4, (0.0, 10.0), 0.5), 0.0
        ).fit(np.sin(t))
        mid = t[100:-100]
        fd = (spline(mid + 1e-5) - spline(mid - 1e-5)) / 2e-5
        d_err = float(
            np.max(np.abs(np.squeeze(spline(mid, 1)) - np.squeeze(fd)))
            / np.max(np.abs(fd))
        )

        ok = f_ok and gn_gap <= 1e-8 and ratio >= 12.0 and d_err <= 1e-4
        emit(
            capsys,
            4,
            f"F hand values {f2:.15f}, {f3:.15f} (1e-12); closed-vs-GN gap "
            f"{gn_gap:.2e} <= 1e-8; RK4 halving ratio {ratio:.1f} >= 12; "
            f"spline derivative vs FD {d_err:.2e} <= 1e-4",
            ok,
        )
        assert ok


ROADMAP_ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="the default ode.substep takes one RK4 step per grid interval, too coarse "
    "for this system (ROADMAP item 1)",
)


class TestGeneratorAccuracy:
    @pytest.mark.parametrize(
        "system",
        [
            "linear2d",
            "rosenzweig_macarthur_log",
            "rossler",
            pytest.param("rossler_chaotic", marks=ROADMAP_ITEM_1),
            pytest.param("vanderpol", marks=ROADMAP_ITEM_1),
            "vanderpol_order2",
        ],
    )
    def test_default_path_follows_its_ode(self, system, capsys):
        # the noise-free data on the observed coordinates lie within a tenth
        # of the noise sd of a tight DOP853 solution of the same ODE
        cfg = config_from_dict({"system": system})
        r = cfg.resolved
        generator, theta = cfg.generator_system(), cfg.generator_theta()
        times = np.linspace(r["t_span"][0], r["t_span"][1], r["n_points"])
        path = integrate(generator, theta, r["x0"], times, substep=r["ode"]["substep"])
        ref = solve_ivp(
            lambda t, x: np.asarray(generator.rate(x, t, theta, None)),
            r["t_span"],
            r["x0"],
            method="DOP853",
            t_eval=times,
            rtol=1e-12,
            atol=1e-12,
        )
        obs = np.asarray(r["observed"]) - 1
        err = np.abs(path.states[:, obs] - ref.y.T[:, obs]).max(axis=0)
        bound = 0.1 * np.sqrt(np.broadcast_to(r["noise_var"], obs.shape))
        ok = bool(np.all(err <= bound))
        emit(
            capsys,
            4,
            f"{system} default path vs DOP853: max error {err.max():.2e} <= {bound.min():.2e}",
            ok,
        )
        assert ok, f"{system}: error {err} above {bound}"


class TestCriterion5Recovery:
    def test_estimator_recovery(self, capsys):
        system = builtin_system("linear2d")
        times = np.linspace(0.0, 55.0, 440)

        class Circle:
            def __call__(self, t, deriv=0):
                t = np.asarray(t, dtype=float)
                if deriv == 0:
                    return np.column_stack([np.cos(t), np.sin(t)])
                return np.column_stack([-np.sin(t), np.cos(t)])

        theta_err = float(
            np.abs(
                gradient_match(quadrature_state(Circle(), *quad_grid(times)), system).theta
                - LINEAR_THETA
            ).max()
        )

        forced = with_forcing(system, ForcingSpec("additive", 2))
        path = integrate(
            forced, LINEAR_THETA, np.array([1.0, 0.0]), times,
            forcing=np.sin, substep=0.01,
        )
        basis = make_basis(4, (0.0, 55.0), 0.25)
        xhat = SmoothingOperator(times, basis, 0.01).fit(path.states)
        quadrature = quad_grid(times)
        est = ForcingOperator(forced, make_basis(4, (0.0, 55.0), 1.0), *quadrature).fit(
            quadrature_state(xhat, *quadrature), LINEAR_THETA
        )
        interior = np.linspace(4.0, 51.0, 400)
        sin_err = float(np.abs(est.g(interior) - np.sin(interior)).max())

        order2 = builtin_system("vanderpol_order2")
        t6 = np.linspace(0.0, 6.0, 440)
        sol = integrate(order2, order2.theta_default, np.array([0.2, 0.0]), t6, substep=1e-3)
        smooth = SmoothingOperator(t6, make_basis(4, (0.0, 6.0), 0.025), 1e-8).fit(
            sol.states[:, 0]
        )
        o2_err = float(
            np.abs(
                gradient_match(
                    quadrature_state(CompanionState(smooth), *quad_grid(t6)), order2
                ).theta
                - order2.theta_default
            ).max()
        )

        ok = theta_err <= 1e-6 and sin_err <= 0.05 and o2_err <= 1e-3
        emit(
            capsys,
            5,
            f"noiseless theta error {theta_err:.2e} <= 1e-6; sin forcing interior "
            f"sup error {sin_err:.4f} <= 0.05; second-order coefficient error "
            f"{o2_err:.2e} <= 1e-3",
            ok,
        )
        assert ok


class TestCriterion6Reproducibility:
    def test_archived_rerun_and_jobs(self, tmp_path, capsys):
        raw = {
            "system": "linear2d",
            "n_points": 120,
            "master_seed": 424242,
            "replicates": 2,
            "tests": ["case2"],
            "test": {"b1": 2, "b2": 9},
        }
        cfg = config_from_dict(raw)

        diag_a = tmp_path / "diag_a"
        run_diagnose(cfg, str(diag_a))
        rerun_cfg = load_config(diag_a / "config.json")
        diag_b = tmp_path / "diag_b"
        run_diagnose(rerun_cfg, str(diag_b))
        diag_ok = (diag_a / "report_case2.json").read_bytes() == (
            diag_b / "report_case2.json"
        ).read_bytes()

        pow_a = tmp_path / "pow_a"
        run_power_study(cfg, str(pow_a), jobs=1)
        pow_b = tmp_path / "pow_b"
        run_power_study(load_config(pow_a / "config.json"), str(pow_b), jobs=2)
        files_a = sorted(p.relative_to(pow_a) for p in pow_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(pow_b) for p in pow_b.rglob("*") if p.is_file())
        jobs_ok = files_a == files_b and all(
            (pow_a / rel).read_bytes() == (pow_b / rel).read_bytes() for rel in files_a
        )

        ok = diag_ok and jobs_ok
        emit(
            capsys,
            6,
            f"report rerun from archived config byte-identical: {diag_ok}; "
            f"power study jobs=1 vs jobs=2 byte-identical: {jobs_ok}",
            ok,
        )
        assert ok
