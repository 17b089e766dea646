"""CSV serialization for trajectories and observed series.

Format: header ``time,x1,...,xd``, one row per time point, floats written
with 17 significant digits and LF line endings, so write -> read -> write
is byte-identical.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .errors import ArgumentError
from .systems import TimeSeries, Trajectory


def write_series_csv(path: Union[str, os.PathLike], obj: Union[TimeSeries, Trajectory]) -> None:
    """Write a series to ``path`` in the time,x1,...,xd format."""
    if isinstance(obj, TimeSeries):
        values = obj.values
    elif isinstance(obj, Trajectory):
        values = obj.states
    else:
        raise ArgumentError(f"expected TimeSeries or Trajectory, got {type(obj).__name__}")
    header = ["time"] + [f"x{j + 1}" for j in range(values.shape[1])]
    _write_csv(path, header, [obj.times, *values.T])


def write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Write ``text`` to ``path`` with LF line endings on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Union[str, os.PathLike], header: list[str], columns: list[np.ndarray]):
    # one row per entry of the equally long columns, 17 significant digits
    rows = (",".join(f"{v:.17g}" for v in row) for row in zip(*columns))
    write_text(path, "".join(f"{line}\n" for line in (",".join(header), *rows)))


def read_timeseries_csv(path: Union[str, os.PathLike]) -> TimeSeries:
    """Read a time,x1,...,xd file back into a TimeSeries.

    Raises
    ------
    ArgumentError
        With the offending line number for malformed headers, ragged rows,
        unparseable floats, or non-increasing times.
    """
    with open(path, "r", newline=None) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ArgumentError(f"{path}: file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "time" or len(header) < 2:
        raise ArgumentError(f"{path}:1: header must be 'time,x1,...', got {lines[0]!r}")
    expected = ["time"] + [f"x{j + 1}" for j in range(len(header) - 1)]
    if header != expected:
        raise ArgumentError(f"{path}:1: columns must be named {','.join(expected)}")
    n_col = len(header)
    times = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_col:
            raise ArgumentError(f"{path}:{lineno}: expected {n_col} fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ArgumentError(f"{path}:{lineno}: {exc}") from None
        times.append(vals[0])
        rows.append(vals[1:])
    if len(times) < 2:
        raise ArgumentError(f"{path}: need at least 2 data rows, got {len(times)}")
    t = np.asarray(times)
    bad = np.nonzero(np.diff(t) <= 0)[0]
    if bad.size:
        raise ArgumentError(
            f"{path}:{int(bad[0]) + 3}: times must be strictly increasing"
        )
    try:
        return TimeSeries(t, np.asarray(rows))
    except ArgumentError as exc:
        raise ArgumentError(f"{path}: {exc}") from None
