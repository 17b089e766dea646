import odelof
from odelof import diagnose, estimate, seriesio


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
    # block permutations come from diagnose.block_permutation_indices and
    # series files from write_series_csv
    for module, name in ((diagnose, "block_permute"), (seriesio, "series_csv_text")):
        assert name not in odelof.__all__
        assert not hasattr(odelof, name)
        assert not hasattr(module, name)
