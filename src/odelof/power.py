"""Batch runners: simulate datasets, diagnose them, tabulate rejection rates.

A power study is a grid of cells (system x generator), each diagnosed with
one or both tests over many simulated replicates. One task is one
replicate of one cell: it simulates the dataset once and runs each of the
cell's tests on it in turn. Replicates are independent given their seeds,
so they parallelize across processes, the calling one among them; the
seed tree is spawned up front and each replicate's files are written by
the calling process in replicate order, making output bytes independent
of --jobs. An ODE cell's datasets differ only in their observation noise,
so a process integrates the cell's noise-free path once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .config import ExperimentConfig, _check_tests
from .diagnose import DiagnosticReport, TestConfig, case2_test, case3_test, report_json
from .errors import ArgumentError, TestAbortedError, is_count
from .rng import as_seed_sequence
from .seriesio import write_series_csv, write_text
from .systems import (
    TimeSeries,
    Trajectory,
    builtin_system,
    integrate,
    observe,
    scale_rate,
    simulate_sde,
)

_TEST_FN = {"case2": case2_test, "case3": case3_test}


def _grid(config: ExperimentConfig) -> np.ndarray:
    """The observation times of a simulation: ``n_points`` evenly spaced
    over ``t_span``."""
    config.require_simulation()
    start, end = config.resolved["t_span"]
    return np.linspace(float(start), float(end), config.resolved["n_points"])


def _floats(values) -> bytes:
    """``values`` as float64 bytes, a key that tells every float apart
    (-0.0 from 0.0 too)."""
    return np.asarray(values, dtype=float).tobytes()


# Noise-free ODE paths kept per process, by value: a study process takes its
# tasks cell by cell, so a few entries keep every path it is working on, and
# a path of n_points x dim floats is a few KB. A path that raises is not kept.
@lru_cache(maxsize=4)
def _ode_path(
    system: str, rate_scale, theta: bytes, x0: bytes, times: bytes, substep
) -> Trajectory:
    """The RK4 path of builtin ``system``, its rate times ``rate_scale``,
    from ``x0`` at ``theta`` over ``times`` (each as float64 bytes)."""
    generator = builtin_system(system)
    if rate_scale != 1.0:
        generator = scale_rate(generator, rate_scale)
    theta, x0, times = (np.frombuffer(b) for b in (theta, x0, times))
    return integrate(generator, theta, x0, times, substep=substep)


def simulate_series(config: ExperimentConfig, seed) -> TimeSeries:
    """One noisy dataset from the configured generator: its path on the
    config's grid, observed with noise drawn from ``seed``.

    An SDE path is drawn from ``seed`` for every dataset. An ODE path does
    not depend on the seed, so a process integrates it once per distinct
    set of generator entries (``system``, ``theta``, ``x0``, ``t_span``,
    ``n_points``, ``ode.substep`` and ``ode.rate_scale``, compared by
    value), and every dataset of that config observes the one path with
    its own noise. The bytes are those of integrating the path each time.
    """
    times = _grid(config)
    cfg = config.resolved
    ss = as_seed_sequence(seed)
    path_ss, obs_ss = ss.spawn(2)
    if config.generator == "sde":
        traj = simulate_sde(
            config.generator_system(),
            config.generator_theta(),
            cfg["sde"]["sigma2"],
            cfg["x0"],
            times,
            step=cfg["sde"]["step"],
            seed=path_ss,
        )
    else:
        traj = _ode_path(
            config.system_name,
            cfg["ode"]["rate_scale"],
            _floats(config.generator_theta()),
            _floats(cfg["x0"]),
            _floats(times),
            cfg["ode"]["substep"],
        )
    return observe(traj, cfg["noise_var"], obs_ss, observed=cfg["observed"])


def diagnose_series(
    config: ExperimentConfig, series: TimeSeries, kind: str, seed
) -> DiagnosticReport:
    """Run one lack-of-fit test on a dataset under the configured model."""
    test_cfg = TestConfig(seed=seed, **config.test_kwargs())
    return _TEST_FN[kind](
        series, config.model_system(), test_cfg, config.pipeline_settings()
    )


@dataclass
class CellSummary:
    cell: str
    system: str
    generator: str
    kind: str
    replicates: int
    completed: int
    rejections: int
    n_aborted: int

    @property
    def power(self) -> float:
        return self.rejections / self.completed if self.completed else float("nan")

    @property
    def mc_se(self) -> float:
        if not self.completed:
            return float("nan")
        p = self.power
        return math.sqrt(p * (1.0 - p) / self.completed)


def _run_replicate(task) -> list:
    """Simulate one replicate's dataset and run each of its cell's tests on
    it, in order; per test, its report or its TestAbortedError message."""
    cell, sim_ss, test_seeds = task
    series = simulate_series(cell, sim_ss)
    outcomes = []
    for kind, test_ss in zip(cell.tests, test_seeds):
        try:
            outcomes.append(diagnose_series(cell, series, kind, test_ss))
        except TestAbortedError as exc:
            outcomes.append(str(exc))
    return outcomes


_shared = None  # a pool worker's (counter, tasks), set as it starts


def _share(counter, tasks) -> None:
    global _shared
    _shared = (counter, tasks)


def _claim(counter, tasks) -> tuple:
    """Take the next task from the shared counter and run it: its index
    with its outcomes or the exception it raised, or an index past the
    end once every task is taken. A failing task closes the counter, so
    no process starts another."""
    with counter.get_lock():
        k = counter.value
        counter.value += 1
    if k >= len(tasks):
        return k, None
    try:
        return k, _run_replicate(tasks[k])
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(tasks)
        return k, exc


def _claim_shared() -> tuple:
    return _claim(*_shared)


def _in_order(pool, counter, tasks):
    """Run ``tasks`` in this process and the pool's workers, each taking
    the next task as it finishes one, and yield each task's outcomes in
    task order: between this process's own tasks, then as the workers
    finish the rest. A task's exception is raised in its place."""
    import queue

    # one claim per task, so a worker never waits on this process; each
    # claim's future is queued as it finishes
    finished = queue.SimpleQueue()
    for _ in tasks:
        pool.submit(_claim_shared).add_done_callback(finished.put)
    done: dict = {}
    claiming = True
    for k in range(len(tasks)):
        while k not in done:
            if claiming:
                j, outcome = _claim(counter, tasks)
                done[j] = outcome
                claiming = j < len(tasks)
            else:  # every task is taken: wait for a worker to finish one
                done.update([finished.get().result()])
            while not finished.empty():
                done.update([finished.get().result()])
        outcome = done.pop(k)
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


def _unique_names(cells) -> list[str]:
    names = []
    seen: dict[str, int] = {}
    for cell in cells:
        base = cell.cell_name()
        seen[base] = seen.get(base, 0) + 1
        names.append(base if seen[base] == 1 else f"{base}_{seen[base]}")
    return names


def run_power_study(
    config: ExperimentConfig, out_dir: str, jobs: int = 1
) -> list[CellSummary]:
    """Simulate and test every (cell, test) pair; write reports and a table.

    Layout under ``out_dir``: ``config.json`` echo, one
    ``<cell>/<test>/rep####.json`` per replicate, and ``power_table.csv``.
    A replicate's dataset is simulated once for all of its cell's tests,
    and its files are written as soon as it finishes, in replicate order.
    Replicates that abort (too many failed bootstrap refits) are counted
    in ``n_aborted`` and excluded from the power denominator; they leave a
    ``rep####.aborted.txt`` with the reason.

    Every test of every cell is checked against its cell's grid and model
    first, so a test that does not fit is a ConfigError before any output.
    Any other error in a replicate propagates: it means the cell is
    misconfigured, not that the data were unlucky. It leaves the files of
    the replicates written before it, and no ``power_table.csv``.

    ``jobs`` processes run replicates, this one included: a study forks
    ``min(jobs, number of tasks) - 1`` workers, so none starts without a
    task, and with one task, or ``jobs=1``, every replicate runs here. Each
    process takes the next replicate from one shared counter as it
    finishes one. This process writes each replicate's files in replicate
    order, between its own replicates and then as the workers finish, and
    every worker has ended when the study returns or raises. A ``jobs``
    that is not a positive integer is an ArgumentError before anything is
    written.
    """
    if not is_count(jobs) or jobs < 1:
        raise ArgumentError(f"jobs must be a positive integer, got {jobs!r}")
    config.require_seed()
    cells = config.cells()
    for cell in cells:
        _check_tests(cell, _grid(cell))
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "config.json"), config.echo_json())

    names = _unique_names(cells)
    summaries: dict[tuple[str, str], CellSummary] = {}
    cell_seeds = as_seed_sequence(config.master_seed).spawn(len(cells))
    tasks, places = [], []
    for cell, name, cell_ss in zip(cells, names, cell_seeds):
        for kind in cell.tests:
            summaries[name, kind] = CellSummary(
                cell=name,
                system=cell.system_name or "csv",
                generator=cell.generator,
                kind=kind,
                replicates=cell.replicates,
                completed=0,
                rejections=0,
                n_aborted=0,
            )
        for i, rep_ss in enumerate(cell_ss.spawn(cell.replicates)):
            # the dataset takes child 0 and each test the next: case2 and
            # case3 of a replicate share the dataset, not bootstrap draws
            sim_ss, *test_seeds = rep_ss.spawn(1 + len(cell.tests))
            tasks.append((cell, sim_ss, test_seeds))
            places.append((cell, name, i))

    workers = min(jobs, len(tasks))
    pool = None
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked workers share the parent's scipy.linalg instead of each
        # importing its own at its first fit
        import scipy.linalg

        claims = (multiprocessing.Value("q", 0), tasks)
        pool = ProcessPoolExecutor(workers - 1, initializer=_share, initargs=claims)
    try:
        outcomes = map(_run_replicate, tasks) if pool is None else _in_order(pool, *claims)
        for (cell, name, i), results in zip(places, outcomes):
            for kind, result in zip(cell.tests, results):
                summary = summaries[name, kind]
                rep_dir = os.path.join(out_dir, name, kind)
                os.makedirs(rep_dir, exist_ok=True)
                if isinstance(result, str):
                    summary.n_aborted += 1
                    write_text(os.path.join(rep_dir, f"rep{i:04d}.aborted.txt"), result + "\n")
                else:
                    summary.completed += 1
                    summary.rejections += int(result.reject)
                    write_text(os.path.join(rep_dir, f"rep{i:04d}.json"), report_json(result))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    ordered = [summaries[k] for k in sorted(summaries)]
    write_text(os.path.join(out_dir, "power_table.csv"), power_table_csv(ordered))
    return ordered


def power_table_csv(summaries: list[CellSummary]) -> str:
    lines = ["cell,system,generator,test,replicates,completed,rejections,power,mc_se,n_aborted"]
    for s in summaries:
        lines.append(
            f"{s.cell},{s.system},{s.generator},{s.kind},{s.replicates},"
            f"{s.completed},{s.rejections},{s.power:.6g},{s.mc_se:.6g},{s.n_aborted}"
        )
    return "\n".join(lines) + "\n"


def run_simulate(config: ExperimentConfig, out_path: str) -> TimeSeries:
    """Simulate one dataset and write it as CSV.

    Uses seed child 0 of the master seed, matching what ``run_diagnose``
    simulates internally for the same config.
    """
    config.require_seed()
    root = as_seed_sequence(config.master_seed)
    series = simulate_series(config, root.spawn(1)[0])
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    write_series_csv(out_path, series)
    return series


def run_diagnose(
    config: ExperimentConfig, out_dir: str, series: Optional[TimeSeries] = None
) -> list[DiagnosticReport]:
    """Run the configured tests on one dataset; write one report per test.

    With ``series=None`` the dataset is simulated first, using the same
    seed child ``run_simulate`` would, so diagnosing a saved CSV and
    diagnosing in one step produce byte-identical reports. The tests are
    checked against the model and the grid they will run on, the series'
    or the simulation's, before anything is simulated or written.
    """
    config.require_seed()
    if series is None:
        _check_tests(config, _grid(config))
    else:
        _check_tests(config, series.times, series.dim)
    root = as_seed_sequence(config.master_seed)
    sim_ss, test_root = root.spawn(2)
    if series is None:
        series = simulate_series(config, sim_ss)
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "config.json"), config.echo_json())
    write_series_csv(os.path.join(out_dir, "data.csv"), series)
    reports = []
    kind_seeds = test_root.spawn(len(config.tests))
    for kind, kind_ss in zip(config.tests, kind_seeds):
        report = diagnose_series(config, series, kind, kind_ss)
        report.save(os.path.join(out_dir, f"report_{kind}.json"))
        reports.append(report)
    return reports
