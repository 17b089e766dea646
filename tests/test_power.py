import concurrent.futures
import json
import math
import multiprocessing
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from odelof import (
    ArgumentError,
    BlowupError,
    ConfigError,
    PipelineError,
    TestAbortedError,
    config_from_dict,
    integrate,
    observe,
)
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

    def test_a_reused_seed_sequence_gives_the_same_data(self, tiny_config):
        ss = np.random.SeedSequence(5)
        a = simulate_series(tiny_config, ss)
        b = simulate_series(tiny_config, ss)
        assert a.values.tobytes() == b.values.tobytes()
        assert ss.n_children_spawned == 0
        # children the caller spawned count: the next ones draw the data
        ss.spawn(3)
        c = simulate_series(tiny_config, ss)
        d = simulate_series(tiny_config, np.random.SeedSequence(5, n_children_spawned=3))
        assert c.values.tobytes() == d.values.tobytes() != a.values.tobytes()


PATH_BASE = {"system": "vanderpol"}


class TestPathStore:
    @pytest.fixture(autouse=True)
    def integrations(self, monkeypatch):
        """The name of the generator of every ODE path integrated here."""
        power_mod._ode_path.cache_clear()
        calls = []
        real = power_mod.integrate

        def counted(system, *args, **kwargs):
            calls.append(system.name)
            return real(system, *args, **kwargs)

        monkeypatch.setattr(power_mod, "integrate", counted)
        yield calls
        power_mod._ode_path.cache_clear()

    @staticmethod
    def assert_direct(config, seed):
        """``simulate_series(config, seed)`` is the dataset built straight
        from the simulators, the path integrated for this seed alone."""
        cfg = config.resolved
        times = np.linspace(*cfg["t_span"], cfg["n_points"])
        path = integrate(
            config.generator_system(),
            config.generator_theta(),
            cfg["x0"],
            times,
            substep=cfg["ode"]["substep"],
        )
        _, obs_ss = np.random.SeedSequence(seed).spawn(2)
        expected = observe(path, cfg["noise_var"], obs_ss, observed=cfg["observed"])
        series = simulate_series(config, np.random.SeedSequence(seed))
        assert series.times.tobytes() == expected.times.tobytes()
        assert series.values.tobytes() == expected.values.tobytes()

    def test_an_ode_config_integrates_once(self, integrations):
        cfg = config_from_dict(PATH_BASE)
        for seed in range(5):
            self.assert_direct(cfg, seed)
        assert integrations == ["vanderpol"]

    def test_a_config_rebuilt_from_its_echo_takes_the_stored_path(self, integrations):
        cfg = config_from_dict({**PATH_BASE, "ode": {"rate_scale": 2.0}, "master_seed": 3})
        echo = json.loads(cfg.echo_json())
        rebuilt = config_from_dict({k: v for k, v in echo.items() if k != "cells"})
        self.assert_direct(cfg, 1)
        self.assert_direct(rebuilt, 2)
        assert integrations == ["vanderpol_x2"]

    def test_an_sde_config_draws_a_path_per_dataset(self, integrations, monkeypatch):
        drawn = []
        real = power_mod.simulate_sde

        def counted(*args, **kwargs):
            drawn.append(kwargs["seed"].spawn_key)
            return real(*args, **kwargs)

        monkeypatch.setattr(power_mod, "simulate_sde", counted)
        # no observation noise: the dataset is the path
        cfg = config_from_dict({**PATH_BASE, "generator": "sde", "noise_var": 0.0})
        paths = {simulate_series(cfg, seed).values.tobytes() for seed in range(3)}
        assert len(paths) == 3
        assert drawn == [(0,)] * 3 and integrations == []

    @pytest.mark.parametrize(
        "change",
        [
            {"system": "linear2d"},
            {"theta": [0.25, 4.5]},
            {"x0": [0.0, 2.5]},
            {"t_span": [0.0, 50.0]},
            {"n_points": 441},
            {"ode": {"substep": 0.05}},
            {"ode": {"rate_scale": 2.0}},
        ],
    )
    @pytest.mark.parametrize("changed_first", [False, True])
    def test_other_generator_entries_never_share_a_path(self, integrations, change, changed_first):
        pair = [config_from_dict(PATH_BASE), config_from_dict({**PATH_BASE, **change})]
        if changed_first:
            pair.reverse()
        for seed, cfg in enumerate(pair + pair):
            self.assert_direct(cfg, seed)
        assert len(integrations) == 2

    def test_a_path_that_blows_up_raises_on_every_call(self, integrations):
        # x' = x from x0 = 1 leaves |x| <= 1e8 near t = 18.4
        cfg = config_from_dict(
            {**PATH_BASE, "system": "linear2d", "theta": [1.0, 0.0, 0.0, 1.0], "x0": [1.0, 1.0]}
        )
        for seed in range(3):
            with pytest.raises(BlowupError):
                simulate_series(cfg, seed)
        assert integrations == ["linear2d"] * 3


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


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestWorkers:
    """The calling process is one of a study's ``jobs`` processes: it forks
    min(jobs, tasks) - 1 workers, every task runs once in one of them, and
    the output is the same at every jobs."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        init = concurrent.futures.ProcessPoolExecutor.__init__

        def recording(pool, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            init(pool, max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", recording)
        return sizes

    @pytest.fixture
    def ran(self, tmp_path, monkeypatch):
        """Reads the dataset seed of every task run so far, in any process:
        forked workers inherit the patch and append to the same file."""
        log = tmp_path / "ran.txt"
        log.touch()
        real = power_mod._run_replicate

        def logged(task):
            with open(log, "a") as fh:
                fh.write(f"{task[1].spawn_key}\n")
            return real(task)

        monkeypatch.setattr(power_mod, "_run_replicate", logged)
        return lambda: sorted(log.read_text().splitlines())

    @pytest.mark.parametrize(
        "jobs, replicates, cells, sizes",
        [(1, 2, 2, []), (2, 2, 2, [1]), (3, 2, 2, [2]), (64, 2, 2, [3]), (64, 1, 1, [])],
    )
    def test_forks_one_worker_fewer_than_the_processes(
        self, tmp_path, pool_sizes, ran, jobs, replicates, cells, sizes
    ):
        raw = {**BOTH_TESTS, "replicates": replicates, "cells": BOTH_TESTS["cells"][:cells]}
        summaries = run_power_study(config_from_dict(raw), str(tmp_path / "out"), jobs=jobs)
        assert pool_sizes == sizes
        assert ran() == sorted(str((c, r, 0)) for c in range(cells) for r in range(replicates))
        assert [s.completed for s in summaries] == [replicates] * 2 * cells
        assert multiprocessing.active_children() == []

    def test_every_task_runs_once_under_contention(self, tmp_path, monkeypatch, ran):
        # more processes than cores race for 48 quick tasks; a claim lost or
        # taken twice shows in the log and in the files
        def aborting(config, series, kind, seed):
            raise TestAbortedError("stub abort", n_failed=1, n_total=1)

        monkeypatch.setattr(power_mod, "diagnose_series", aborting)
        raw = {"system": "linear2d", "master_seed": 3, "replicates": 48, "tests": ["case2"]}
        out = tmp_path / "out"
        (summary,) = run_power_study(config_from_dict(raw), str(out), jobs=4)
        assert ran() == sorted(str((0, r, 0)) for r in range(48))
        assert summary.n_aborted == 48
        assert len(list(out.glob("*/case2/rep*.aborted.txt"))) == 48
        assert multiprocessing.active_children() == []

    def test_output_does_not_depend_on_jobs(self, tmp_path):
        cfg = config_from_dict(BOTH_TESTS)
        outputs = []
        for jobs in (1, 2, 3):
            run_power_study(cfg, str(tmp_path / f"jobs{jobs}"), jobs=jobs)
            outputs.append(_files(tmp_path / f"jobs{jobs}"))
            assert multiprocessing.active_children() == []
        assert len(outputs[0]) == 10  # config, table and eight reports
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_an_error_in_any_process_keeps_the_finished_replicates(self, tmp_path, monkeypatch):
        # a worker counts calls in its own copy of a counter, so the failing
        # replicate is named by its seed, and fails in whichever process runs it
        real = simulate_series

        def failing(config, seed):
            if seed.spawn_key == (0, 2, 0):
                raise BlowupError("simulation diverged", 1.5)
            return real(config, seed)

        monkeypatch.setattr(power_mod, "simulate_series", failing)
        cfg = config_from_dict({**BOTH_TESTS, "replicates": 4, "cells": BOTH_TESTS["cells"][:1]})
        out = tmp_path / "out"
        with pytest.raises(BlowupError, match="simulation diverged") as info:
            run_power_study(cfg, str(out), jobs=2)
        assert info.value.time == 1.5
        assert sorted(_files(out)) == ["config.json"] + [
            f"linear2d_ode/{kind}/rep{i:04d}.json" for kind in ("case2", "case3") for i in (0, 1)
        ]
        assert multiprocessing.active_children() == []

    def test_blowup_error_crosses_processes(self):
        # a worker returns its replicate's exception to the calling process
        err = pickle.loads(pickle.dumps(BlowupError("diverged at t=2", 2.0)))
        assert type(err) is BlowupError
        assert (str(err), err.time) == ("diverged at t=2", 2.0)

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, "2", None, True])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, jobs):
        with pytest.raises(ArgumentError, match=r"^jobs must be a positive integer, got "):
            run_power_study(config_from_dict(BOTH_TESTS), str(tmp_path / "out"), jobs=jobs)
        assert not (tmp_path / "out").exists()


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
