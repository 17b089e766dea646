import json
import re
import warnings
from pathlib import Path

import pytest

from odelof import (
    ArgumentError,
    ConfigError,
    ForcingSpec,
    PipelineSettings,
    TestAbortedError,
    Trajectory,
    builtin_system,
    cli,
    config_from_dict,
    integrate,
    observe,
    power,
    scale_rate,
    simulate_sde,
    with_forcing,
)
from odelof.pipeline import check_columns, check_model


def write_config(path: Path, **overrides) -> Path:
    # linear2d stays stable on the coarse 120-point grid these tests use
    raw = {
        "system": "linear2d",
        "n_points": 120,
        "master_seed": 17,
        "test": {"b1": 2, "b2": 9},
        "tests": ["case2"],
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw))
    return path



class TestSimulate:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["simulate", "--config", str(cfg), "--out", str(a)])
        cli.main(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_seed_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", master_seed=None)
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "master_seed" in capsys.readouterr().err


class TestDiagnose:
    def test_internal_and_csv_runs_match(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        run_a = tmp_path / "a"
        assert cli.main(["diagnose", "--config", str(cfg), "--out", str(run_a)]) == 0
        out = capsys.readouterr().out
        assert "case2:" in out and ("reject" in out or "retain" in out)
        assert (run_a / "config.json").exists()
        assert (run_a / "data.csv").exists()
        assert (run_a / "report_case2.json").exists()

        run_b = tmp_path / "b"
        assert (
            cli.main(
                [
                    "diagnose",
                    "--config",
                    str(cfg),
                    "--data",
                    str(run_a / "data.csv"),
                    "--out",
                    str(run_b),
                ]
            )
            == 0
        )
        # diagnosing the archived CSV reproduces the internal run exactly
        assert (run_b / "report_case2.json").read_bytes() == (
            run_a / "report_case2.json"
        ).read_bytes()

    def test_short_series_is_an_argument_error(self, tmp_path, capsys):
        # the blocks do not fit the CSV's grid: exit 2 before any output
        cfg = write_config(tmp_path / "c.json")
        import math

        data = tmp_path / "short.csv"
        rows = ["time,x1,x2"] + [
            f"{0.5 * i},{math.cos(0.5 * i)},{math.sin(0.5 * i)}" for i in range(30)
        ]
        data.write_text("\n".join(rows) + "\n")
        code = cli.main(
            ["diagnose", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}: test.block_len 9 and test.end_trim 5 leave too few points" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            pytest.param(
                {"n_points": 20, "tests": ["case2"]},
                "test.block_len 2 and test.end_trim 1 leave too few points: 18 of 20",
                id="n_points",
            ),
            pytest.param(
                {"tests": ["case2"], "test": {"block_len": 300}},
                "test.block_len 300 and test.end_trim 150 leave too few points: 140 of 440",
                id="block_len",
            ),
            pytest.param(
                {"tests": ["case3"], "test": {"delta": 50}},
                "test.delta 50 leaves 8 of 408 trimmed rows",
                id="delta",
            ),
        ],
    )
    def test_test_that_does_not_fit_its_grid_exits_2_first(
        self, tmp_path, capsys, monkeypatch, override, message
    ):
        # checked on the grid to be simulated, before simulating it
        def no_simulation(config, seed):
            raise AssertionError("simulated before the tests were checked")

        monkeypatch.setattr(power, "simulate_series", no_simulation)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": "linear2d", "master_seed": 1, **override}))
        out = tmp_path / "out"
        assert cli.main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_data_grid_is_the_one_checked(self, tmp_path):
        # a CSV whose grid fits runs under a config whose own grid would not,
        # and gives the report of a config whose grid fits
        fits = write_config(tmp_path / "fits.json")
        data = tmp_path / "data.csv"
        assert cli.main(["simulate", "--config", str(fits), "--out", str(data)]) == 0
        short = write_config(tmp_path / "short.json", n_points=20)
        assert cli.main(["diagnose", "--config", str(short), "--out", str(tmp_path / "x")]) == 2
        runs = {}
        for name, cfg in (("short", short), ("fits", fits)):
            runs[name] = tmp_path / name
            argv = ["diagnose", "--config", str(cfg), "--data", str(data), "--out", str(runs[name])]
            assert cli.main(argv) == 0
        report = "report_case2.json"
        assert (runs["short"] / report).read_bytes() == (runs["fits"] / report).read_bytes()

    def test_aborted_test_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(config, out_dir, series=None):
            raise TestAbortedError("all replicates failed", n_failed=2, n_total=2)

        monkeypatch.setattr(cli, "run_diagnose", boom)
        cfg = write_config(tmp_path / "c.json")
        code = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "failed" in capsys.readouterr().err


class TestPowerStudy:
    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "master_seed": 23,
                    "replicates": 2,
                    "n_points": 120,
                    "test": {"b1": 2, "b2": 9},
                    "tests": ["case2", "case3"],
                    "cells": [
                        {"system": "linear2d"},
                        {"system": "linear2d", "generator": "sde"},
                    ],
                }
            )
        )
        one = tmp_path / "one"
        two = tmp_path / "two"
        assert cli.main(["power-study", "--config", str(cfg), "--out", str(one)]) == 0
        assert (
            cli.main(
                ["power-study", "--config", str(cfg), "--jobs", "2", "--out", str(two)]
            )
            == 0
        )
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        for rel in files:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel

        table = (one / "power_table.csv").read_text().splitlines()
        assert table[0] == (
            "cell,system,generator,test,replicates,completed,rejections,"
            "power,mc_se,n_aborted"
        )
        assert len(table) == 5  # two cells, two tests each
        assert len(files) == 2 + 2 * 2 * 2  # config, table and 8 reports
        assert (one / "linear2d_ode" / "case2" / "rep0000.json").exists()
        assert (one / "linear2d_sde" / "case3" / "rep0001.json").exists()

    def test_cell_whose_test_does_not_fit_exits_2_first(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cells = [{"system": "linear2d"}, {"system": "linear2d", "test": {"delta": 50}}]
        raw = {"master_seed": 23, "replicates": 2, "tests": ["case3"], "cells": cells}
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["power-study", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {cfg}: cells[1]: test.delta 50 leaves" in capsys.readouterr().err
        assert not out.exists()

    def test_cells_inherit_cli_replicate_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "master_seed": 31,
                    "replicates": 5,
                    "n_points": 120,
                    "test": {"b1": 2, "b2": 9},
                    "tests": ["case2"],
                    "cells": [{"system": "linear2d"}],
                }
            )
        )
        out = tmp_path / "out"
        assert (
            cli.main(
                [
                    "power-study",
                    "--config",
                    str(cfg),
                    "--replicates",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        reps = list((out / "linear2d_ode" / "case2").glob("rep*.json"))
        assert len(reps) == 1


class TestOverrides:
    def test_seed_override_echoes_like_the_file(self, tmp_path):
        via_cli, via_file = tmp_path / "cli", tmp_path / "file"
        cfg = write_config(tmp_path / "c.json")
        cfg99 = write_config(tmp_path / "c99.json", master_seed=99)
        args = ["diagnose", "--config", str(cfg), "--seed", "99", "--out", str(via_cli)]
        assert cli.main(args) == 0
        assert cli.main(["diagnose", "--config", str(cfg99), "--out", str(via_file)]) == 0
        for name in ("config.json", "report_case2.json"):
            assert (via_cli / name).read_bytes() == (via_file / name).read_bytes(), name

    def test_zero_replicates_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        args = ["power-study", "--config", str(cfg), "--replicates", "0"]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: replicates" in err
        assert not (tmp_path / "out").exists()

    def test_zero_jobs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        args = ["power-study", "--config", str(cfg), "--jobs", "0"]
        assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
        assert "--jobs must be a positive integer, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExportPlots:
    def test_writes_plot_tables(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        run = tmp_path / "run"
        assert cli.main(["diagnose", "--config", str(cfg), "--out", str(run)]) == 0
        plots = tmp_path / "plots"
        code = cli.main(
            [
                "export-plots",
                "--report",
                str(run / "report_case2.json"),
                "--data",
                str(run / "data.csv"),
                "--config",
                str(cfg),
                "--out",
                str(plots),
            ]
        )
        assert code == 0
        report = json.loads((run / "report_case2.json").read_text())
        n = report["n_obs"]
        trim = report["end_trim"]
        g_rows = (plots / "g_vs_state.csv").read_text().splitlines()
        assert len(g_rows) == n - 2 * trim + 1  # header + trimmed rows
        overlay = (plots / "series_overlay.csv").read_text().splitlines()
        assert len(overlay) == n + 1
        assert (plots / "rate_overlay.csv").exists()
        assert (plots / "h_surface.csv").exists()

def forced(model, mode, target):
    return lambda: with_forcing(builtin_system(model), ForcingSpec(mode, target))


def checked(model, **settings):
    return lambda: check_model(PipelineSettings(**settings), builtin_system(model))


def fits_columns(model, n_columns, owner, **settings):
    system = builtin_system(model)
    return lambda: check_columns(n_columns, PipelineSettings(**settings), system, owner)


# (config override, message, the pipeline call that states the rule)
MODEL_ROWS = [
    (
        {"system": "vanderpol", "forcing": {"mode": "additive", "target": 5}},
        "forcing.target must lie in 1..2 (linear2d has 2 coordinates",
        forced("linear2d", "additive", 5),
    ),
    (
        {
            "system": "rosenzweig_macarthur_log",
            "forcing": {"mode": "parameter_replacement", "target": 8},
        },
        "forcing.target must lie in 1..7 (rosenzweig_macarthur_log has 7 parameters",
        forced("rosenzweig_macarthur_log", "parameter_replacement", 8),
    ),
    (
        {"system": "rosenzweig_macarthur_log", "smoothing": {"theta_init": [1.0, 6.0]}},
        "smoothing.theta_init has 2 entries, rosenzweig_macarthur_log expects 7",
        checked("rosenzweig_macarthur_log", theta_init=(1.0, 6.0)),
    ),
    (
        {"system": "vanderpol", "smoothing": {"theta_free": [True, False]}},
        "smoothing.theta_free has 2 entries, linear2d expects 4",
        checked("linear2d", theta_free=(True, False)),
    ),
    (
        {"system": "vanderpol", "model": "vanderpol", "smoothing": {"theta_free": [True, False]}},
        "smoothing.theta_free fixes parameters, which need values: pass smoothing.theta_init",
        checked("vanderpol", theta_free=(True, False)),
    ),
    (
        {"system": "vanderpol", "model": "vanderpol", "smoothing": {"theta_free": [False, False]}},
        "smoothing.theta_free leaves no parameter to estimate",
        checked("vanderpol", theta_free=(False, False)),
    ),
    (
        {"system": "vanderpol_order2", "observed": [1, 2]},
        "smoothing.second_order fits one observed coordinate; vanderpol_order2 observes 2",
        fits_columns("vanderpol_order2", 2, "vanderpol_order2", second_order=True),
    ),
    (
        {"system": "vanderpol", "observed": [1]},
        "model linear2d has dimension 2; vanderpol observes 1",
        fits_columns("linear2d", 1, "vanderpol"),
    ),
    (
        {
            "system": "rosenzweig_macarthur_log",
            "forcing": {"mode": "parameter_replacement", "target": 3},
        },
        "forcing.target must be 7 for parameter_replacement forcing "
        "(rosenzweig_macarthur_log puts g in place of parameter 7), got 3",
        forced("rosenzweig_macarthur_log", "parameter_replacement", 3),
    ),
    (
        {"system": "vanderpol", "forcing": {"mode": "parameter_replacement", "target": 1}},
        "forcing.target has no parameter_replacement value: linear2d has no parameter",
        forced("linear2d", "parameter_replacement", 1),
    ),
]


VANDERPOL = builtin_system("vanderpol")
VDP_THETA, VDP_X0 = VANDERPOL.theta_default, [0.0, 2.0]
VDP_PATH = Trajectory([0.0, 1.0], [VDP_X0, VDP_X0])


# (config override of a vanderpol config, key path, the simulator's field
# name, the simulator call that states the rule)
GENERATOR_ROWS = [
    (
        {"theta": [1, 2, 3]},
        "theta",
        "theta",
        lambda: integrate(VANDERPOL, [1, 2, 3], VDP_X0, [0, 1]),
    ),
    (
        {"x0": [0.0, 2.0, 1.0]},
        "x0",
        "x0",
        lambda: integrate(VANDERPOL, VDP_THETA, [0.0, 2.0, 1.0], [0, 1]),
    ),
    ({"noise_var": -1.0}, "noise_var", "noise_var", lambda: observe(VDP_PATH, -1.0, seed=1)),
    ({"observed": []}, "observed", "observed", lambda: observe(VDP_PATH, 0.1, 1, observed=[])),
    ({"observed": [0]}, "observed", "observed", lambda: observe(VDP_PATH, 0.1, 1, observed=[0])),
    (
        {"sde": {"sigma2": -0.1}},
        "sde.sigma2",
        "sigma2",
        lambda: simulate_sde(VANDERPOL, VDP_THETA, -0.1, VDP_X0, [0, 1], seed=1),
    ),
    (
        {"sde": {"sigma2": [0.01, 0.02, 0.03]}},
        "sde.sigma2",
        "sigma2",
        lambda: simulate_sde(VANDERPOL, VDP_THETA, [0.01, 0.02, 0.03], VDP_X0, [0, 1], seed=1),
    ),
    (
        {"sde": {"step": 0}},
        "sde.step",
        "step",
        lambda: simulate_sde(VANDERPOL, VDP_THETA, 0.01, VDP_X0, [0, 1], step=0, seed=1),
    ),
    (
        {"ode": {"substep": -0.01}},
        "ode.substep",
        "substep",
        lambda: integrate(VANDERPOL, VDP_THETA, VDP_X0, [0, 1], substep=-0.01),
    ),
    ({"ode": {"rate_scale": 0}}, "ode.rate_scale", "factor", lambda: scale_rate(VANDERPOL, 0)),
]


class TestArgumentHandling:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_bad_json_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{"system": "linear2d",}')
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "broken.json:1:" in capsys.readouterr().err

    def test_unknown_system_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"system": "lorenz", "master_seed": 1}')
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "system must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"theta": [1, 2, 3]}, "theta has 3 entries, vanderpol expects 2"),
            ({"x0": [0.0, 2.0, 1.0]}, "x0 has 3 entries, vanderpol expects 2"),
            ({"observed": [1, 3]}, "observed indices must lie in 1..2 for vanderpol"),
            ({"noise_var": [0.1, 0.2, 0.3]}, "noise_var has 3 entries, vanderpol expects 2"),
            (
                {"generator": "sde", "sde": {"sigma2": [0.01, 0.02, 0.03]}},
                "sde.sigma2 has 3 entries, vanderpol expects 2",
            ),
        ],
    )
    def test_lengths_are_checked_against_the_system(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"system": "vanderpol", "master_seed": 1, **override}))
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key, field, build",
        [pytest.param(*row, id=str(row[0])) for row in GENERATOR_ROWS],
    )
    def test_generator_rows_state_the_simulators_rule(self, override, key, field, build):
        with pytest.raises(ConfigError) as by_config:
            config_from_dict({"system": "vanderpol", **override})
        with pytest.raises(ArgumentError) as by_simulator:
            build()
        # the config names the field by its key path; the words are the same
        assert str(by_config.value) == f"config: {key}" + str(by_simulator.value)[len(field):]

    @pytest.mark.parametrize("override, message", [row[:2] for row in MODEL_ROWS])
    def test_model_settings_are_checked_against_the_model(
        self, tmp_path, capsys, override, message
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"master_seed": 1, **override}))
        code = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["diagnose", "power-study"])
    def test_a_missing_model_exits_2_first(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", model=None, replicates=1)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {cfg}: 'model' is required for diagnosis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["csv source", "--data"])
    def test_data_columns_are_checked_against_the_model_first(self, tmp_path, capsys, given):
        data = tmp_path / "one.csv"
        data.write_text("time,x1\n" + "".join(f"{0.5 * i},{i % 3}\n" for i in range(120)))
        argv = ["diagnose", "--out", str(tmp_path / "out")]
        if given == "--data":
            cfg = write_config(tmp_path / "c.json")
            argv += ["--data", str(data)]
        else:
            forcing = {"mode": "additive", "target": 2}
            cfg = write_config(
                tmp_path / "c.json", system={"csv": str(data)}, model="linear2d", forcing=forcing
            )
        assert cli.main(argv + ["--config", str(cfg)]) == 2
        message = f"error: {cfg}: model linear2d has dimension 2; the series observes 1"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "diagnose", "power-study"])
    def test_an_overflowing_grid_spacing_exits_2_quietly(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.json", t_span=[-1e308, 1e308], replicates=1)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {cfg}: t_span must lie a finite distance apart" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, build",
        [pytest.param(override, build, id=message) for override, message, build in MODEL_ROWS],
    )
    def test_model_settings_state_the_constructors_rule(self, override, build):
        with pytest.raises(ConfigError) as by_config:
            config_from_dict({"master_seed": 1, **override})
        with pytest.raises(ArgumentError) as by_constructor:
            build()
        # the config names each field by its key path, gradient matching's
        # free_mask as smoothing.theta_free; the words are the same
        field_names = re.sub(r"^config: |\b(forcing|smoothing)\.", "", str(by_config.value))
        assert field_names == str(by_constructor.value).replace("free_mask", "theta_free")

    @pytest.mark.parametrize(
        "smoothing, message",
        [
            ({"x_order": 2}, "smoothing.x_order must be >= 3 with smoothing.x_penalty > 0"),
            (
                {"g_order": 2, "g_penalty": 0.1},
                "smoothing.g_order must be >= 3 with smoothing.g_penalty > 0",
            ),
        ],
    )
    def test_spline_orders_are_checked_against_the_penalties(
        self, tmp_path, capsys, smoothing, message
    ):
        cfg = write_config(tmp_path / "c.json", smoothing=smoothing)
        code = cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read data CSV"),
            ("time,y1\n0,1\n1,2\n", "columns must be named"),
            ("time,x1\n0,1\n1,oops\n", ":3: could not convert"),
        ],
        ids=["missing", "bad-header", "bad-float"],
    )
    def test_unreadable_data_is_an_argument_error(self, tmp_path, capsys, text, message):
        data = tmp_path / "data.csv"
        if text is not None:
            data.write_text(text)
        cfg = write_config(tmp_path / "c.json")
        argv = ["diagnose", "--config", str(cfg), "--data", str(data)]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(data) in err and message in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read report"),
            ("{not json", "bad report: Expecting property name"),
            ('{"kind": "case2"}', "report lacks the field 'reject'"),
            ("[1, 2]", "bad report"),
        ],
        ids=["missing", "not-json", "missing-field", "not-an-object"],
    )
    def test_unreadable_report_is_an_argument_error(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "c.json")
        data = tmp_path / "data.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
        report = tmp_path / "report.json"
        if text is not None:
            report.write_text(text)
        argv = ["export-plots", "--report", str(report), "--data", str(data)]
        assert cli.main(argv + ["--out", str(tmp_path / "plots")]) == 2
        err = capsys.readouterr().err
        assert str(report) in err and message in err
        assert not (tmp_path / "plots").exists()

    @pytest.mark.parametrize(
        "command, out, culprit",
        [
            ("simulate", ".", "."),
            ("simulate", "afile/x.csv", "afile"),
            ("diagnose", "afile", "afile"),
            ("power-study", "afile", "afile"),
            ("export-plots", "afile", "afile"),
        ],
        ids=["simulate-dir", "simulate-under-file", "diagnose", "power-study", "export-plots"],
    )
    def test_unwritable_output_is_an_argument_error(
        self, tmp_path, capsys, monkeypatch, command, out, culprit
    ):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", replicates=1)
        (tmp_path / "afile").write_text("in the way\n")
        argv = [command, "--config", str(cfg)]
        if command == "export-plots":
            run = tmp_path / "run"
            assert cli.main(["diagnose", "--config", str(cfg), "--out", str(run)]) == 0
            argv += ["--report", str(run / "report_case2.json"), "--data", str(run / "data.csv")]
        capsys.readouterr()
        assert cli.main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {culprit}") and "cannot write" in err
        assert "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "in the way\n"

    def test_simulate_creates_the_output_directory(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "new" / "dir" / "data.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith("time,x1,x2\n")

    def test_order_2_splines_without_penalties_run(self, tmp_path):
        smoothing = {"x_order": 2, "x_penalty": 0.0, "x_knot_spacing": 1.0, "g_order": 2}
        cfg = write_config(tmp_path / "c.json", smoothing=smoothing)
        assert cli.main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "report_case2.json").exists()


class TestCsvDataSource:
    def test_csv_config_diagnoses_the_simulated_file(self, tmp_path):
        builtin = write_config(tmp_path / "builtin.json")
        data = tmp_path / "data.csv"
        assert cli.main(["simulate", "--config", str(builtin), "--out", str(data)]) == 0
        csv_config = write_config(
            tmp_path / "csv.json",
            system={"csv": str(data)},
            model="linear2d",
            forcing={"mode": "additive", "target": 2},
        )
        from_csv = tmp_path / "from_csv"
        assert cli.main(["diagnose", "--config", str(csv_config), "--out", str(from_csv)]) == 0
        # the same file passed with --data to the builtin config gives the
        # same report
        with_data = tmp_path / "with_data"
        assert (
            cli.main(
                ["diagnose", "--config", str(builtin), "--data", str(data), "--out", str(with_data)]
            )
            == 0
        )
        assert (from_csv / "report_case2.json").read_bytes() == (
            with_data / "report_case2.json"
        ).read_bytes()
        assert (from_csv / "data.csv").read_bytes() == data.read_bytes()

    def test_csv_config_cannot_simulate(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", system={"csv": "d.csv"}, model="linear2d")
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "builtin 'system' name" in capsys.readouterr().err
