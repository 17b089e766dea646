"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py -q

It covers three things: a short run of every workload prints every metric
of BENCHMARK.json with its unit; power-study reports are byte-identical at
jobs 1 and 2; each correctness check rejects a tampered output. It takes
about a minute.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _short(name):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, **wl.short)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


# -- short runs print every metric ------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_prints_every_metric(workload, trace):
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    proc = _run(["--workload", workload, "--trace", str(trace), "--short"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "case2-vanderpol"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the tracer's self times add up to the outermost span ---------------------


def test_tracer_keeps_self_time_of_nested_same_name_spans():
    tracer = layers.Tracer()
    inner = tracer._wrap("x", lambda: time.sleep(0.02), ())
    middle = tracer._wrap("y", lambda: (time.sleep(0.01), inner()), ())
    outer = tracer._wrap("x", lambda: (time.sleep(0.01), inner(), middle()), ())
    outer()
    busy, calls, self_time = tracer._totals()
    assert calls == {"x": 1, "y": 1}
    outer_s = busy["x"]
    assert outer_s >= 0.06
    assert self_time["x"] + self_time["y"] == pytest.approx(outer_s, rel=1e-9)
    assert self_time["y"] == pytest.approx(busy["y"] - (tracer.spans[-1][2] - tracer.spans[-1][1]), rel=1e-9)


# -- power-study output does not depend on jobs ------------------------------


@pytest.fixture(scope="module")
def study_dirs(tmp_path_factory):
    wl = _short("study-sde")
    config = ops.experiment(wl, wl.default_seed)
    dirs = {}
    for jobs in (1, 2):
        dirs[jobs] = str(tmp_path_factory.mktemp(f"jobs{jobs}"))
        ops.power.run_power_study(config, dirs[jobs], jobs=jobs)
    return dirs


def _tree(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files
    )


def test_study_reports_identical_across_jobs(study_dirs):
    one, two = study_dirs[1], study_dirs[2]
    files = _tree(one)
    assert files == _tree(two)
    assert any(f.endswith(".json") and "rep" in f for f in files)
    _, mismatch, errors = filecmp.cmpfiles(one, two, files, shallow=False)
    assert not mismatch and not errors


# -- every check rejects a tampered output -----------------------------------


def _reports(name, seed=3):
    wl = _short(name)
    inputs = ops.setup(wl, seed)
    tally = ops.Tally()
    ops.run_round(wl, inputs, seed, 0, 1, "", tally)
    return inputs, [r.to_dict() for r in tally.outputs]


@pytest.fixture(scope="module")
def vanderpol():
    inputs, reports = _reports("case2-vanderpol")
    return inputs, reports[0]


@pytest.fixture(scope="module")
def rmlog():
    inputs, reports = _reports("refit-rmlog")
    return inputs, reports[0]


def _fails(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def _tampered(report, **changes):
    out = copy.deepcopy(report)
    out.update(changes)
    return out


def test_invariants_reject_tampered_reports(vanderpol):
    _, report = vanderpol
    checks.check_report_invariants(report)
    p = report["p_values"]
    _fails(checks.check_report_invariants, _tampered(report, p_mean=report["p_mean"] + 0.01))
    _fails(checks.check_report_invariants, _tampered(report, p_values=[p[0] + 0.001] + p[1:]))
    _fails(checks.check_report_invariants, _tampered(report, reject=not report["reject"]))
    _fails(checks.check_report_invariants, _tampered(report, n_failed=1))
    _fails(checks.check_report_invariants, _tampered(report, p_values=p + p))


def test_linear2d_check_rejects_moved_theta(vanderpol):
    inputs, report = vanderpol
    checks.check_linear2d_match(report, inputs.times)
    theta = list(report["theta"])
    theta[0] += 1e-4 * max(1.0, abs(theta[0]))
    _fails(checks.check_linear2d_match, _tampered(report, theta=theta), inputs.times)


def test_rejection_check_rejects_a_retained_test(vanderpol):
    inputs, report = vanderpol
    ops._must_reject(report, inputs)
    retained = _tampered(report, p_values=[1.0] * len(report["p_values"]), p_mean=1.0, reject=False)
    checks.check_report_invariants(retained)
    _fails(ops._must_reject, retained, inputs)


def test_rmlog_check_rejects_worse_fits(rmlog):
    inputs, report = rmlog
    theta_init = inputs.config.resolved["smoothing"]["theta_init"]
    checks.check_rmlog_descent(report, inputs.times, theta_init)
    # theta-hat stepped three times as far from theta_init as it went
    worse = [i + 3 * (h - i) for i, h in zip(theta_init, report["theta"])]
    _fails(checks.check_rmlog_descent, _tampered(report, theta=worse), inputs.times, theta_init)
    # g-hat likewise pushed past its optimum, away from the start g = theta[6]
    g = copy.deepcopy(report["g_spline"])
    start = report["theta"][6]
    g["coefficients"] = [start + 3 * (c - start) for c in g["coefficients"]]
    _fails(checks.check_rmlog_descent, _tampered(report, g_spline=g), inputs.times, theta_init)


def test_study_check_rejects_tampered_files(study_dirs, tmp_path):
    checks.check_study(study_dirs[1])

    def copy_study(name):
        dst = str(tmp_path / name)
        shutil.copytree(study_dirs[1], dst)
        return dst

    table = os.path.join(copy_study("table"), "power_table.csv")
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["rejections"] = str(int(rows[0]["rejections"]) + 1)
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    _fails(checks.check_study, os.path.dirname(table))

    out = copy_study("report")
    path = next(os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs if f.startswith("rep"))
    with open(path) as fh:
        report = json.load(fh)
    report["p_mean"] += 0.25
    with open(path, "w") as fh:
        json.dump(report, fh)
    _fails(checks.check_study, out)

    out = copy_study("missing")
    path = next(os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs if f.startswith("rep"))
    os.remove(path)
    _fails(checks.check_study, out)


def test_input_checks_reject_wrong_paths(vanderpol):
    inputs, _ = vanderpol
    times = inputs.times
    x0 = inputs.config.resolved["x0"]
    theta = inputs.config.generator_theta()
    rhs = ops._RHS["vanderpol"](theta)
    fine = ops.systems.integrate(
        inputs.config.generator_system(), theta, x0, times, substep=(times[1] - times[0]) / 16
    )
    checks.check_ode_solution(fine.states, rhs, x0, times, 1e-5)
    shifted = fine.states + np.array([1e-3, 0.0])
    _fails(checks.check_ode_solution, shifted, rhs, x0, times, 1e-5)
    clean = ops.systems.integrate(inputs.config.generator_system(), theta, x0, times)
    values = inputs.series[0].values
    checks.check_noise(values, clean.states, 0.001)
    _fails(checks.check_noise, values, clean.states, 0.002)
    _fails(checks.check_noise, values + 0.01, clean.states, 0.001)
