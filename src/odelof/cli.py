"""Command line entry point.

Exit codes: 0 success, 2 bad configuration or arguments, including a
file named on the command line that cannot be read, parsed or written,
a missing model, a data series whose columns do not fit the model and a
test that does not fit the grid it would run on, 3 runtime
failure inside the pipeline, 4 test aborted (too many bootstrap
replicates failed on this dataset).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .config import ExperimentConfig, config_from_dict, load_config
from .diagnose import DiagnosticReport
from .errors import ConfigError, OdelofError, TestAbortedError
from .plots import export_diagnostic_plots
from .power import run_diagnose, run_power_study, run_simulate
from .seriesio import read_timeseries_csv


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument(
        "--seed", type=int, default=None, help="override master_seed from the config"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odelof",
        description="Lack-of-fit diagnosis for ODE models via estimated forcing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one noisy dataset to CSV")
    _add_config_args(p_sim)
    p_sim.add_argument("--out", default="data.csv", help="output CSV path")

    p_diag = sub.add_parser("diagnose", help="run the configured tests on a dataset")
    _add_config_args(p_diag)
    p_diag.add_argument(
        "--data",
        default=None,
        help="input CSV; omit to read the config's csv source or simulate",
    )
    p_diag.add_argument("--out", default=None, help="output directory (default: out_dir)")

    p_pow = sub.add_parser(
        "power-study", help="rejection rates over simulated replicates"
    )
    _add_config_args(p_pow)
    p_pow.add_argument(
        "--replicates", type=int, default=None, help="override replicates per cell"
    )
    p_pow.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes, at most one per replicate of the study's cells",
    )
    p_pow.add_argument("--out", default=None, help="output directory (default: out_dir)")

    p_plot = sub.add_parser(
        "export-plots", help="write plot-ready CSVs for a finished report"
    )
    p_plot.add_argument("--report", required=True, help="diagnostic report JSON")
    p_plot.add_argument("--data", required=True, help="the CSV the report was built on")
    p_plot.add_argument(
        "--config", default=None, help="config JSON, to recover the forced model"
    )
    p_plot.add_argument("--out", default="plots", help="output directory")
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        config = _override(config, "master_seed", args.seed)
    return config


def _override(config: ExperimentConfig, key: str, value) -> ExperimentConfig:
    # resolved again from the file's own keys, so cells inherit the value
    return config_from_dict({**config.raw, key: value}, config.source)


def _read(reader, path: str, what: str):
    """``reader(path)``; a file that cannot be read or parsed is a bad
    argument (exit 2)."""
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc.strerror or exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: {what} lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:  # the CSV reader's messages name the file
        msg = str(exc)
        raise ConfigError(msg if msg.startswith(path) else f"{path}: bad {what}: {msg}") from None


def _write(writer, *args):
    """``writer(*args)``; an output path that cannot be written is a bad
    argument (exit 2)."""
    try:
        return writer(*args)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise ConfigError(f"{exc.filename}: cannot write: {exc.strerror or exc}") from None


def _cmd_simulate(args) -> int:
    config = _load(args)
    series = _write(run_simulate, config, args.out)
    print(f"wrote {series.times.size} x {series.dim} series to {args.out}")
    return 0


def _cmd_diagnose(args) -> int:
    config = _load(args)
    data = args.data or config.data_csv
    series = _read(read_timeseries_csv, data, "data CSV") if data else None
    out_dir = args.out or config.out_dir
    reports = _write(run_diagnose, config, out_dir, series)
    for r in reports:
        verdict = "reject" if r.reject else "retain"
        print(
            f"{r.kind}: {verdict} (mean p = {r.p_mean:.4f}, alpha = {r.alpha:g}, "
            f"F0 = {r.f0:.4g})"
        )
    print(f"reports written to {out_dir}")
    return 0


def _cmd_power_study(args) -> int:
    config = _load(args)
    if args.replicates is not None:
        config = _override(config, "replicates", args.replicates)
    jobs = args.jobs if args.jobs is not None else config.jobs
    if jobs < 1:
        raise ConfigError(f"--jobs must be a positive integer, got {jobs}")
    out_dir = args.out or config.out_dir
    summaries = _write(run_power_study, config, out_dir, jobs)
    for s in summaries:
        print(
            f"{s.cell} {s.kind}: power {s.power:.3f} "
            f"({s.rejections}/{s.completed}, se {s.mc_se:.3f}, "
            f"aborted {s.n_aborted})"
        )
    print(f"table written to {out_dir}/power_table.csv")
    return 0


def _cmd_export_plots(args) -> int:
    report = _read(DiagnosticReport.load, args.report, "report")
    series = _read(read_timeseries_csv, args.data, "data CSV")
    system = None
    if args.config is not None:
        system = load_config(args.config).model_system()
    paths = _write(export_diagnostic_plots, report, series, args.out, system)
    for p in paths:
        print(f"wrote {p}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
    "power-study": _cmd_power_study,
    "export-plots": _cmd_export_plots,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TestAbortedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OdelofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
