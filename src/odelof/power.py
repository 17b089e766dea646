"""Batch runners: simulate datasets, diagnose them, tabulate rejection rates.

A power study is a grid of cells (system x generator), each diagnosed with
one or both tests over many simulated replicates. Replicates are
independent given their seeds, so they parallelize across processes; the
seed tree is spawned up front and results are aggregated in replicate
order, making output bytes independent of --jobs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .diagnose import DiagnosticReport, TestConfig, case2_test, case3_test, report_json
from .errors import OdelofError, TestAbortedError
from .rng import as_seed_sequence
from .seriesio import write_series_csv
from .systems import TimeSeries, integrate, observe, simulate_sde

_TEST_FN = {"case2": case2_test, "case3": case3_test}

# one entropy stream per purpose so adding tests never shifts sim noise
_SIM_STREAM, _TEST_STREAM = 0, 1


def simulate_series(config: ExperimentConfig, seed) -> TimeSeries:
    """One noisy dataset from the configured generator."""
    config.require_simulation()
    cfg = config.resolved
    system = config.generator_system()
    theta = config.generator_theta()
    times = np.linspace(cfg["t_span"][0], cfg["t_span"][1], cfg["n_points"])
    ss = as_seed_sequence(seed)
    path_ss, obs_ss = ss.spawn(2)
    if config.generator == "sde":
        traj = simulate_sde(
            system,
            theta,
            cfg["sde"]["sigma2"],
            cfg["x0"],
            times,
            step=cfg["sde"]["step"],
            seed=path_ss,
        )
    else:
        traj = integrate(system, theta, cfg["x0"], times, substep=cfg["ode"]["substep"])
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
class ReplicateResult:
    cell: str
    kind: str
    index: int
    report: Optional[DiagnosticReport]
    error: Optional[str]


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


def _pin_blas():
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"


def _run_replicate(task) -> ReplicateResult:
    cell_resolved, cell_name, kind, index, sim_state, test_state = task
    config = ExperimentConfig(cell_resolved, source=cell_name)
    sim_ss = np.random.SeedSequence(**sim_state)
    test_ss = np.random.SeedSequence(**test_state)
    try:
        series = simulate_series(config, sim_ss)
        report = diagnose_series(config, series, kind, test_ss)
        return ReplicateResult(cell_name, kind, index, report, None)
    except TestAbortedError as exc:
        return ReplicateResult(cell_name, kind, index, None, str(exc))


def _ss_state(ss: np.random.SeedSequence) -> dict:
    # entropy + spawn_key identify a SeedSequence exactly and pickle cheaply
    return {"entropy": ss.entropy, "spawn_key": ss.spawn_key}


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
    Replicates that abort (too many failed bootstrap refits) are counted
    in ``n_aborted`` and excluded from the power denominator.

    Any other error in a replicate propagates: it means the cell is
    misconfigured, not that the data were unlucky.
    """
    config.require_seed()
    cells = config.cells()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", newline="\n") as fh:
        fh.write(config.echo_json())

    root = as_seed_sequence(config.master_seed)
    cell_seeds = root.spawn(len(cells))

    names = _unique_names(cells)
    tasks = []
    for cell, name, cell_ss in zip(cells, names, cell_seeds):
        cell.require_simulation()
        rep_seeds = cell_ss.spawn(cell.replicates)
        for i, rep_ss in enumerate(rep_seeds):
            sim_ss = rep_ss.spawn(1)[0]
            # independent test stream per kind: case2 and case3 for one
            # replicate share the dataset but not bootstrap draws
            kind_seeds = rep_ss.spawn(len(cell.tests))
            for kind, kind_ss in zip(cell.tests, kind_seeds):
                tasks.append(
                    (
                        cell.resolved,
                        name,
                        kind,
                        i,
                        _ss_state(sim_ss),
                        _ss_state(kind_ss),
                    )
                )

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pin_blas) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=1))
    else:
        results = [_run_replicate(t) for t in tasks]

    summaries: dict[tuple[str, str], CellSummary] = {}
    cell_by_name = dict(zip(names, cells))
    for res in results:
        key = (res.cell, res.kind)
        if key not in summaries:
            cell = cell_by_name[res.cell]
            summaries[key] = CellSummary(
                cell=res.cell,
                system=cell.system_name or "csv",
                generator=cell.generator,
                kind=res.kind,
                replicates=cell.replicates,
                completed=0,
                rejections=0,
                n_aborted=0,
            )
        summary = summaries[key]
        rep_dir = os.path.join(out_dir, res.cell, res.kind)
        os.makedirs(rep_dir, exist_ok=True)
        if res.report is None:
            summary.n_aborted += 1
            with open(
                os.path.join(rep_dir, f"rep{res.index:04d}.aborted.txt"),
                "w",
                newline="\n",
            ) as fh:
                fh.write(res.error + "\n")
        else:
            summary.completed += 1
            summary.rejections += int(res.report.reject)
            with open(
                os.path.join(rep_dir, f"rep{res.index:04d}.json"), "w", newline="\n"
            ) as fh:
                fh.write(report_json(res.report))

    ordered = [summaries[k] for k in sorted(summaries)]
    with open(os.path.join(out_dir, "power_table.csv"), "w", newline="\n") as fh:
        fh.write(power_table_csv(ordered))
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
    diagnosing in one step produce byte-identical reports.
    """
    config.require_seed()
    root = as_seed_sequence(config.master_seed)
    sim_ss, test_root = root.spawn(2)
    if series is None:
        series = simulate_series(config, sim_ss)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", newline="\n") as fh:
        fh.write(config.echo_json())
    write_series_csv(os.path.join(out_dir, "data.csv"), series)
    reports = []
    kind_seeds = test_root.spawn(len(config.tests))
    for kind, kind_ss in zip(config.tests, kind_seeds):
        report = diagnose_series(config, series, kind, kind_ss)
        report.save(os.path.join(out_dir, f"report_{kind}.json"))
        reports.append(report)
    return reports
