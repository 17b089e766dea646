"""The benchmark's side of each workload: inputs, rounds and checks.

Importing this module imports odelof and the checks (scipy); the set-up
timer covers ``import odelof`` and :func:`setup`, not this import. Program
callables are looked up on their modules at call time,
so the tracer's wrappers apply once installed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

import odelof
from odelof import power, systems

import checks
from workloads import Workload


@dataclass
class Inputs:
    """What set-up hands to the timed region."""

    config: odelof.ExperimentConfig
    series: list  # one TimeSeries per dataset; empty for a study
    times: np.ndarray = None


@dataclass
class Tally:
    """Operations run, and their outputs, over some rounds."""

    attempted: int = 0
    failed: int = 0
    reps: int = 0
    elapsed: float = 0.0
    outputs: list = field(default_factory=list)  # reports, or study output dirs


def experiment(wl: Workload, master_seed: int) -> odelof.ExperimentConfig:
    raw = dict(wl.config, master_seed=master_seed, test={"b1": wl.b1, "b2": wl.b2})
    if wl.kind == "study":
        raw["replicates"] = wl.replicates
    return odelof.config_from_dict(raw, source=wl.name)


def setup(wl: Workload, seed: int) -> Inputs:
    """Resolve the config and simulate the datasets (dataset d from seed
    child (0, d)). A study simulates its own datasets inside each round."""
    config = experiment(wl, seed)
    if wl.kind == "study":
        for cell in config.cells():
            cell.require_simulation()
        return Inputs(config, [])
    series = [
        power.simulate_series(config, np.random.SeedSequence(seed, spawn_key=(0, d)))
        for d in range(wl.datasets)
    ]
    return Inputs(config, series, series[0].times)


def digest(inputs: Inputs) -> str:
    h = hashlib.sha256(inputs.config.echo_json().encode())
    for s in inputs.series:
        h.update(s.times.tobytes())
        h.update(s.values.tobytes())
    return h.hexdigest()


def run_round(wl: Workload, inputs: Inputs, seed: int, r: int, jobs: int, scratch: str, tally: Tally):
    """One round: ``per_round`` datasets from the pool, in turn, each tested
    once (test seed child (1, r, d)); or one power study at master seed
    ``seed + r``."""
    start = time.perf_counter()
    if wl.kind == "study":
        config = experiment(wl, seed + r)
        out = os.path.join(scratch, f"round{r:04d}")
        tasks = sum(c.replicates * len(c.tests) for c in config.cells())
        tally.attempted += tasks
        try:
            summaries = power.run_power_study(config, out, jobs=jobs)
        except odelof.OdelofError:
            tally.failed += tasks
        else:
            tally.failed += sum(s.n_aborted for s in summaries)
            tally.reps += sum(s.completed for s in summaries)
            tally.outputs.append(out)
    else:
        pool = len(inputs.series)
        k = wl.per_round or pool
        for d in [(r * k + j) % pool for j in range(k)]:
            series = inputs.series[d]
            tally.attempted += 1
            seed_d = np.random.SeedSequence(seed, spawn_key=(1, r, d))
            try:
                report = power.diagnose_series(inputs.config, series, wl.kind, seed_d)
            except odelof.OdelofError:
                tally.failed += 1
                continue
            tally.reps += len(report.p_values)
            tally.outputs.append(report)
    tally.elapsed += time.perf_counter() - start


def warm_up(wl: Workload, inputs: Inputs, seed: int) -> None:
    """One untimed test, so first-call costs (lazy imports inside scipy,
    caches) stay out of the timed rounds. A study forks fresh workers from
    this process every round, so it gains nothing from a warm-up."""
    if wl.kind == "study":
        return
    try:
        power.diagnose_series(
            inputs.config, inputs.series[0], wl.kind, np.random.SeedSequence(seed, spawn_key=(2,))
        )
    except odelof.OdelofError:
        pass


def fingerprint(wl: Workload, tally: Tally) -> str:
    """Hash of every output byte, to show tracing leaves results alone."""
    h = hashlib.sha256()
    for out in tally.outputs:
        if wl.kind != "study":
            h.update(odelof.report_json(out).encode())
            continue
        for dirpath, dirnames, filenames in os.walk(out):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, out).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# -- checks -----------------------------------------------------------------

_RHS = {
    "vanderpol": lambda th: lambda x: [th[0] * x[1], th[1] * (x[1] - x[0] - x[1] ** 3 / 3.0)],
    "rosenzweig_macarthur_log": lambda th: lambda x: checks.rmlog_rate(np.asarray(x)[None, :], th)[0],
}

# The program's RK4 one step per grid interval (the default) is not
# solve_ivp-accurate; at a sixteenth of it the scheme must be.
_FINE_SUBSTEPS = 16
_ODE_ATOL = 1e-5


def check_inputs(wl: Workload, inputs: Inputs) -> list[str]:
    """Simulator against solve_ivp, and each dataset's observation noise."""
    if wl.kind == "study":
        return []
    cfg = inputs.config.resolved
    system = inputs.config.generator_system()
    theta = inputs.config.generator_theta()
    x0, times = cfg["x0"], inputs.times
    errors = []
    try:
        fine = systems.integrate(system, theta, x0, times, substep=(times[1] - times[0]) / _FINE_SUBSTEPS)
        checks.check_ode_solution(fine.states, _RHS[cfg["system"]](theta), x0, times, _ODE_ATOL)
        clean = systems.integrate(system, theta, x0, times, substep=cfg["ode"]["substep"])
        observed = np.asarray(cfg["observed"]) - 1
        for series in inputs.series:
            checks.check_noise(series.values, clean.states[:, observed], cfg["noise_var"])
    except checks.CheckFailed as exc:
        errors.append(f"set-up: {exc}")
    return errors


def check_outputs(wl: Workload, inputs: Inputs, tally: Tally) -> tuple[list[str], int]:
    """Errors found in the round outputs, and their exceedance count."""
    if wl.kind == "study":
        reports = []
        errors = []
        for out in tally.outputs:
            try:
                reports.extend(checks.check_study(out))
            except checks.CheckFailed as exc:
                errors.append(f"{os.path.basename(out)}: {exc}")
        return errors, sum(checks.exceedances(r) for r in reports)
    extra = _EXTRA_CHECKS.get(wl.name, ())
    errors = []
    for i, report in enumerate(tally.outputs):
        d = report.to_dict()
        try:
            checks.check_report_invariants(d)
            for check in extra:
                check(d, inputs)
        except checks.CheckFailed as exc:
            errors.append(f"report {i}: {exc}")
    return errors, sum(checks.exceedances(r.to_dict()) for r in tally.outputs)


def _must_reject(report: dict, inputs: Inputs) -> None:
    # linear2d cannot carry the van der Pol cubic; the desk power bound
    # for this cell is >= 0.9.
    if not report["reject"]:
        raise checks.CheckFailed(f"linear2d retained on van der Pol data (p_mean {report['p_mean']})")


_EXTRA_CHECKS = {
    "case2-vanderpol": (
        lambda d, inputs: checks.check_linear2d_match(d, inputs.times),
        _must_reject,
    ),
    "refit-rmlog": (
        lambda d, inputs: checks.check_rmlog_descent(
            d, inputs.times, inputs.config.resolved["smoothing"]["theta_init"]
        ),
    ),
}
