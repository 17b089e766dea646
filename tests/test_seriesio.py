import numpy as np
import pytest
from numpy.testing import assert_allclose

from odelof import (
    ArgumentError,
    TimeSeries,
    read_timeseries_csv,
    write_series_csv,
)


@pytest.fixture
def series():
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0, 10, 40))
    t[0], t[-1] = 0.0, 10.0
    return TimeSeries(t, rng.normal(size=(40, 3)))


def test_round_trip_is_exact_and_byte_stable(tmp_path, series):
    path = tmp_path / "s.csv"
    write_series_csv(path, series)
    back = read_timeseries_csv(path)
    assert_allclose(back.times, series.times, rtol=0, atol=0)
    assert_allclose(back.values, series.values, rtol=0, atol=0)
    again = tmp_path / "again.csv"
    write_series_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_header_shape(tmp_path, series):
    path = tmp_path / "s.csv"
    write_series_csv(path, series)
    text = path.read_bytes()
    assert text.startswith(b"time,x1,x2,x3\n")
    assert text.endswith(b"\n")
    assert b"\r" not in text


def test_bad_header_reports_line_one(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("clock,x1\n0,1\n1,2\n")
    with pytest.raises(ArgumentError, match=r":1:"):
        read_timeseries_csv(p)


def test_misnamed_columns_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,a,b\n0,1,2\n1,2,3\n")
    with pytest.raises(ArgumentError, match="x1,x2"):
        read_timeseries_csv(p)


def test_ragged_row_reports_its_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x1\n0,1\n1\n2,3\n")
    with pytest.raises(ArgumentError, match=r":3:"):
        read_timeseries_csv(p)


def test_bad_float_reports_its_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x1\n0,1\n1,two\n")
    with pytest.raises(ArgumentError, match=r":3:"):
        read_timeseries_csv(p)


def test_non_increasing_times_report_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x1\n0,1\n2,2\n1,3\n")
    with pytest.raises(ArgumentError, match=r":4: times"):
        read_timeseries_csv(p)


def test_too_few_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,x1\n0,1\n")
    with pytest.raises(ArgumentError, match="2 data rows"):
        read_timeseries_csv(p)


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "ok.csv"
    p.write_text("time,x1\n0,1\n\n1,2\n")
    back = read_timeseries_csv(p)
    assert back.times.size == 2
