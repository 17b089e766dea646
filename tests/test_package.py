import json
import os
import subprocess
import sys
from pathlib import Path

import odelof
from odelof import config, diagnose, estimate, pipeline, plots, power, seriesio


def test_every_exported_name_resolves():
    assert len(set(odelof.__all__)) == len(odelof.__all__)
    for name in odelof.__all__:
        assert getattr(odelof, name) is not None, name


def test_one_estimation_path():
    # second-order models fit through gradient_match on the companion
    # state, and forcing through ForcingOperator.fit
    for name in ("gradient_match_order2", "estimate_forcing"):
        assert name not in odelof.__all__
        assert not hasattr(odelof, name)
        assert not hasattr(estimate, name)


def test_no_test_only_wrappers():
    # block permutations come from diagnose._Blocks and
    # series files from write_series_csv
    for module, name in ((diagnose, "block_permute"), (seriesio, "series_csv_text")):
        assert name not in odelof.__all__
        assert not hasattr(odelof, name)
        assert not hasattr(module, name)


def test_one_state_on_the_quadrature():
    # the runner passes its basis grids to the spline itself, and the plots
    # build the lag design through the test's own designs
    assert not hasattr(pipeline, "_OnGrids")
    assert not hasattr(diagnose._Case3Stat, "lag_design")
    assert not hasattr(estimate, "_state_on_grid")


def test_one_rule_per_input():
    # config validation runs the simulators' checks, and the test, the plots
    # and the up-front check share one test geometry
    for name in ("_is_int", "_is_pos"):
        assert not hasattr(config, name)
    for name in ("_Case2Stat", "_Case3Stat"):
        assert not hasattr(plots, name)


def test_one_task_per_study_replicate():
    # a study task is one (cell, replicate): it takes the cell's config and
    # its seeds as they are, and returns per test a report or the abort
    # message, which the study writes as it arrives
    for name in ("ReplicateResult", "_ss_state"):
        assert not hasattr(power, name)


def fresh_interpreter(code, cwd):
    """Output lines of ``code`` run by a fresh interpreter in ``cwd``, with
    the package and these tests importable."""
    src = str(Path(odelof.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, str(Path(__file__).parent), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout.splitlines()


def test_scipy_loads_at_the_first_fit(tmp_path):
    # simulating, and a config the up-front test check rejects, fit
    # nothing and load no scipy module; the first test's factorizations
    # load scipy.linalg, and the fixture keeps its pinned p-values
    sim = {"system": "vanderpol", "generator": "sde", "master_seed": 4}
    bad = {"system": "linear2d", "tests": ["case2"], "test": {"block_len": 300}}
    (tmp_path / "sim.json").write_text(json.dumps(sim))
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    child = """
import sys
from odelof import cli
assert cli.main(["simulate", "--config", "sim.json", "--out", "sim.csv"]) == 0
assert cli.main(["diagnose", "--config", "bad.json", "--seed", "1", "--out", "bad"]) == 2
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from test_diagnose import fixture_p_values
print(fixture_p_values("vanderpol", "case3"))
print("scipy.linalg" in sys.modules)
"""
    out = fresh_interpreter(child, tmp_path)
    assert out[-3:] == ["[]", "(0.84, 0.92, 0.86, 0.88)", "True"]
    assert (tmp_path / "sim.csv").exists()
    assert not (tmp_path / "bad").exists()


def test_study_workers_inherit_scipy(tmp_path):
    # before it starts the pool, a study loads scipy.linalg, which forked
    # workers then share instead of each importing its own at its first
    # fit: every replicate, in this process or a worker, starts with it
    # loaded. The output does not depend on jobs
    study = {
        "system": "linear2d",
        "n_points": 120,
        "master_seed": 77,
        "replicates": 2,
        "tests": ["case2"],
        "test": {"b1": 2, "b2": 9},
    }
    child = f"""
import sys
from odelof import config_from_dict, power
config = config_from_dict({study!r})
run_replicate = power._run_replicate
def reporting(task):
    print("scipy.linalg" in sys.modules, flush=True)
    return run_replicate(task)
power._run_replicate = reporting
print("scipy.linalg" in sys.modules, flush=True)
power.run_power_study(config, "two", jobs=2)
power._run_replicate = run_replicate
power.run_power_study(config, "one", jobs=1)
"""
    assert fresh_interpreter(child, tmp_path) == ["False", "True", "True"]
    one, two = tmp_path / "one", tmp_path / "two"
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    assert len(files) == 4  # config, table and two reports
    for rel in files:
        assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
