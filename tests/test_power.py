import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from odelof import ConfigError, PipelineError, TestAbortedError, config_from_dict
from odelof.power import (
    CellSummary,
    diagnose_series,
    power_table_csv,
    run_power_study,
    simulate_series,
)
from odelof.power import _unique_names
import odelof.power as power_mod


@pytest.fixture
def tiny_config():
    return config_from_dict(
        {
            "system": "linear2d",
            "n_points": 120,
            "master_seed": 77,
            "replicates": 3,
            "tests": ["case2"],
            "test": {"b1": 2, "b2": 9},
        }
    )


class TestSimulateSeries:
    def test_deterministic_per_seed(self, tiny_config):
        a = simulate_series(tiny_config, np.random.SeedSequence(5))
        b = simulate_series(tiny_config, np.random.SeedSequence(5))
        assert_allclose(a.values, b.values)
        c = simulate_series(tiny_config, np.random.SeedSequence(6))
        assert not np.allclose(a.values, c.values)

    def test_generator_dispatch(self, tiny_config):
        ode = simulate_series(tiny_config, np.random.SeedSequence(5))
        sde_cfg = config_from_dict(
            {"system": "linear2d", "n_points": 120, "generator": "sde"}
        )
        sde = simulate_series(sde_cfg, np.random.SeedSequence(5))
        assert ode.values.shape == sde.values.shape == (120, 2)
        assert not np.allclose(ode.values, sde.values)

    def test_partial_observation_shapes(self):
        cfg = config_from_dict({"system": "rossler", "n_points": 120})
        series = simulate_series(cfg, np.random.SeedSequence(1))
        assert series.values.shape == (120, 2)  # third coordinate hidden


class TestDiagnoseSeries:
    def test_runs_the_requested_kind(self, tiny_config):
        series = simulate_series(tiny_config, np.random.SeedSequence(9))
        report = diagnose_series(tiny_config, series, "case2", np.random.SeedSequence(10))
        assert report.kind == "case2"
        assert report.b1 == 2 and report.b2 == 9


class TestSummaries:
    def test_power_and_se(self):
        s = CellSummary(
            cell="c", system="s", generator="ode", kind="case2",
            replicates=10, completed=8, rejections=6, n_aborted=2,
        )
        assert s.power == pytest.approx(0.75)
        assert s.mc_se == pytest.approx(math.sqrt(0.75 * 0.25 / 8))

    def test_empty_cell_is_nan(self):
        s = CellSummary(
            cell="c", system="s", generator="ode", kind="case2",
            replicates=4, completed=0, rejections=0, n_aborted=4,
        )
        assert math.isnan(s.power) and math.isnan(s.mc_se)

    def test_table_format(self):
        s = CellSummary(
            cell="lin", system="linear2d", generator="ode", kind="case2",
            replicates=4, completed=4, rejections=1, n_aborted=0,
        )
        text = power_table_csv([s])
        lines = text.splitlines()
        assert lines[1] == "lin,linear2d,ode,case2,4,4,1,0.25,0.216506,0"

    def test_unique_names_suffix_duplicates(self):
        class Stub:
            def __init__(self, name):
                self._n = name

            def cell_name(self):
                return self._n

        cells = [Stub("a_ode"), Stub("b_ode"), Stub("a_ode"), Stub("a_ode")]
        assert _unique_names(cells) == ["a_ode", "b_ode", "a_ode_2", "a_ode_3"]


# an ODE and an SDE cell, each running both tests on every replicate
BOTH_TESTS = {
    "master_seed": 41,
    "replicates": 2,
    "n_points": 120,
    "tests": ["case2", "case3"],
    "test": {"b1": 2, "b2": 9},
    "cells": [{"system": "linear2d"}, {"system": "linear2d", "generator": "sde"}],
}


class TestRunPowerStudy:
    def test_aborted_replicates_tracked(self, tiny_config, tmp_path, monkeypatch):
        real = diagnose_series
        calls = {"n": 0}

        def flaky(config, series, kind, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise TestAbortedError("unlucky draw", n_failed=1, n_total=2)
            return real(config, series, kind, seed)

        monkeypatch.setattr(power_mod, "diagnose_series", flaky)
        summaries = run_power_study(tiny_config, str(tmp_path / "out"), jobs=1)
        assert len(summaries) == 1
        s = summaries[0]
        assert s.replicates == 3
        assert s.completed == 2
        assert s.n_aborted == 1
        rep_dir = tmp_path / "out" / "linear2d_ode" / "case2"
        assert (rep_dir / "rep0000.json").exists()
        assert (rep_dir / "rep0001.aborted.txt").exists()
        assert "unlucky draw" in (rep_dir / "rep0001.aborted.txt").read_text()
        table = (tmp_path / "out" / "power_table.csv").read_text()
        assert ",3,2," in table

    def test_a_replicate_is_simulated_once_for_its_tests(self, tmp_path, monkeypatch):
        real = simulate_series
        seeds = []

        def counted(config, seed):
            seeds.append(seed.spawn_key)
            return real(config, seed)

        monkeypatch.setattr(power_mod, "simulate_series", counted)
        cfg = config_from_dict({**BOTH_TESTS, "replicates": 2})
        run_power_study(cfg, str(tmp_path / "out"), jobs=1)
        # two cells of two replicates, each dataset at child 0 of its
        # replicate's seed
        assert seeds == [(c, r, 0) for c in range(2) for r in range(2)]

    def test_an_error_keeps_the_finished_replicates(self, tmp_path, monkeypatch):
        real = simulate_series
        calls = {"n": 0}

        def failing(config, seed):
            calls["n"] += 1
            if calls["n"] == 3:
                raise PipelineError("integration failed", stage="simulate")
            return real(config, seed)

        monkeypatch.setattr(power_mod, "simulate_series", failing)
        cfg = config_from_dict({**BOTH_TESTS, "replicates": 4, "cells": BOTH_TESTS["cells"][:1]})
        out = tmp_path / "out"
        with pytest.raises(PipelineError, match="integration failed"):
            run_power_study(cfg, str(out), jobs=1)
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert written == ["config.json"] + [
            f"linear2d_ode/{kind}/rep{i:04d}.json" for kind in ("case2", "case3") for i in (0, 1)
        ]
        assert calls["n"] == 3

    def test_requires_seed(self, tmp_path):
        cfg = config_from_dict({"system": "linear2d", "n_points": 120})
        with pytest.raises(Exception, match="master_seed"):
            run_power_study(cfg, str(tmp_path / "out"))


class TestTestsFitTheirGrid:
    """Every test of every cell is checked against the cell's grid before
    anything is written or run."""

    def test_study_checks_every_cell_first(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(power_mod, "_run_replicate", ran.append)
        cfg = config_from_dict(
            {
                "master_seed": 5,
                "replicates": 2,
                "n_points": 120,
                "tests": ["case2", "case3"],
                "test": {"b1": 2, "b2": 9},
                "cells": [{"system": "linear2d"}, {"system": "vanderpol", "test": {"delta": 50}}],
            }
        )
        match = r"^config: cells\[1\]: test\.delta 50 leaves 1 of 110 trimmed rows"
        with pytest.raises(ConfigError, match=match):
            run_power_study(cfg, str(tmp_path / "out"))
        assert ran == []
        assert not (tmp_path / "out").exists()
