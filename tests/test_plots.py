import numpy as np
import pytest

from odelof import (
    ArgumentError,
    SmootherSettings,
    TestConfig,
    builtin_system,
    case2_test,
    case3_test,
    export_diagnostic_plots,
    integrate,
    observe,
)
from odelof.diagnose import _geometry


@pytest.fixture(scope="module")
def series():
    system = builtin_system("linear2d")
    times = np.linspace(0.0, 55.0, 120)
    path = integrate(
        system, np.array([0.0, -1.0, 1.0, 0.0]), np.array([1.0, 0.0]), times
    )
    return observe(path, 0.05, seed=61)


def read_header(path):
    return path.read_text().splitlines()[0].split(",")


class TestCase2Exports:
    def test_four_tables(self, series, tmp_path):
        report = case2_test(
            series, builtin_system("linear2d"), TestConfig(seed=1, b1=2, b2=9)
        )
        paths = export_diagnostic_plots(report, series, tmp_path / "p")
        names = sorted(p.name for p in paths)
        assert names == [
            "g_vs_state.csv",
            "h_surface.csv",
            "rate_overlay.csv",
            "series_overlay.csv",
        ]
        by_name = {p.name: p for p in paths}
        assert read_header(by_name["g_vs_state.csv"]) == ["time", "g", "s1", "s2"]
        assert read_header(by_name["h_surface.csv"]) == ["s1", "s2", "h"]
        surface_rows = by_name["h_surface.csv"].read_text().splitlines()
        assert len(surface_rows) == 41 * 41 + 1
        n_trim = series.times.size - 2 * report.end_trim
        g_rows = by_name["g_vs_state.csv"].read_text().splitlines()
        assert len(g_rows) == n_trim + 1
        overlay = by_name["series_overlay.csv"].read_text().splitlines()
        assert len(overlay) == series.times.size + 1

    def test_series_must_match_report(self, series, tmp_path):
        report = case2_test(
            series, builtin_system("linear2d"), TestConfig(seed=2, b1=2, b2=9)
        )
        system = builtin_system("linear2d")
        times = np.linspace(0.0, 55.0, 90)
        other = observe(
            integrate(system, np.array([0.0, -1.0, 1.0, 0.0]), np.array([1.0, 0.0]), times),
            0.05,
            seed=62,
        )
        with pytest.raises(ArgumentError, match="rows"):
            export_diagnostic_plots(report, other, tmp_path / "p")


class TestCase3Exports:
    def test_lag_table(self, series, tmp_path):
        report = case3_test(
            series, builtin_system("linear2d"), TestConfig(seed=3, b1=2, b2=9)
        )
        paths = export_diagnostic_plots(report, series, tmp_path / "p")
        by_name = {p.name: p for p in paths}
        assert "h_lag.csv" in by_name
        assert read_header(by_name["h_lag.csv"]) == ["time", "g", "h0", "h1"]
        rows = by_name["h_lag.csv"].read_text().splitlines()[1:]
        # lag-invalid leading rows are dropped
        assert 0 < len(rows) < series.times.size - 2 * report.end_trim
        first_time = float(rows[0].split(",")[0])
        assert first_time >= series.times[report.end_trim] + report.delta - 1e-9

    def test_h1_is_the_tests_lag_fit(self, series, tmp_path):
        # the exported h1 comes from the same lag design as the unpermuted
        # case-3 fit, on the trimmed states and g of the report
        report = case3_test(
            series, builtin_system("linear2d"), TestConfig(seed=4, b1=2, b2=9)
        )
        paths = export_diagnostic_plots(report, series, tmp_path / "p")
        h_lag = next(p for p in paths if p.name == "h_lag.csv")
        exported = np.loadtxt(h_lag, delimiter=",", skiprows=1)

        rows = slice(report.end_trim, series.times.size - report.end_trim)
        times = series.times[rows]
        states = report.xhat_spline(times)
        g = report.g_spline(times)
        settings = SmootherSettings(
            total_dim=report.settings["smoother_total_dim"],
            interaction=report.settings["smoother_interaction"],
        )
        stat = _geometry("case3", series.times, None, report, settings)[1]
        h1 = stat.designs([states])[0][1].fit_many(g[None, stat.valid]).fitted[0]
        np.testing.assert_array_equal(exported[:, 0], times[stat.valid])
        np.testing.assert_array_equal(exported[:, 3], h1)
