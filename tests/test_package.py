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
