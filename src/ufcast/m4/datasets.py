"""M4 dataset conventions and CSV ingestion.

The distribution files are one CSV per frequency (``Hourly-train.csv``,
``Hourly-test.csv``, ...), each row a quoted series id followed by the
observations, ragged with trailing empty cells.  Frequencies fix the
seasonal periodicity and forecasting horizon.

One reader, :func:`_numbered_lines`, reads every file ``ufcast-m4`` reads:
these CSVs, a published-values table and a results file.  Lines end at
``\\n``, ``\\r\\n`` or a bare ``\\r``, a UTF-8 byte-order mark at the start
of any of them is dropped, and every refusal of their contents names the
file and the physical line.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

from ..core import TimeSeries
from ..exceptions import MalformedRowError, MissingTestSeriesError

__all__ = ["DatasetSpec", "DATASETS", "load_m4", "natural_key"]


@dataclass(frozen=True)
class DatasetSpec:
    """Frequency-level constants: periodicity and forecasting horizon."""

    name: str
    sp: int
    horizon: int

    @property
    def file_stem(self) -> str:
        return self.name.capitalize()


DATASETS = {
    "yearly": DatasetSpec("yearly", 1, 6),
    "quarterly": DatasetSpec("quarterly", 4, 8),
    "monthly": DatasetSpec("monthly", 12, 18),
    "weekly": DatasetSpec("weekly", 1, 13),
    "daily": DatasetSpec("daily", 1, 14),
    "hourly": DatasetSpec("hourly", 24, 48),
}


def natural_key(series_id: str):
    """Sort key putting H2 before H10."""
    m = re.match(r"([A-Za-z]*)(\d+)$", series_id)
    if m:
        return (m.group(1), int(m.group(2)))
    return (series_id, 0)


def _numbered_lines(path):
    """``(line number, bytes)`` of each line of ``path``, its end kept; the
    only place that opens a file for reading (see the module docstring)."""
    with open(path, "rb") as fh:
        head = fh.readline().removeprefix(codecs.BOM_UTF8)
        yield from enumerate((line for chunk in itertools.chain([head], fh)
                              for line in chunk.splitlines(keepends=True)),
                             start=1)


def _csv_records(path, comment=None):
    """``(line the record starts on, cells)`` of each CSV record of ``path``
    not on a line starting with ``comment``; a line that is not UTF-8 and a
    record the csv module refuses raise :class:`MalformedRowError`."""
    first = last = 0  # the lines the record being read starts and ends on

    def text():
        nonlocal first, last
        for last, line in _numbered_lines(path):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRowError(last, str(exc), path) from None
            if comment is None or not line.startswith(comment):
                first = first or last
                yield line

    try:
        for cells in csv.reader(text()):
            yield first, cells
            first = 0
    except csv.Error as exc:
        raise MalformedRowError(last, str(exc), path) from None


def _read_series_csv(path) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    records = _csv_records(path)
    line_no, _ = next(records, (0, None))  # the header
    for line_no, row in records:
        cells = list(map(str.strip, row))
        if not any(cells):
            continue
        series_id = cells[0].strip('"')
        if not series_id:
            raise MalformedRowError(line_no, "missing series id", path)
        # the values run up to the first empty cell
        cut = cells.index("") if "" in cells else len(cells)
        values = []
        for cell in cells[1:cut]:
            try:
                value = float(cell)
            except ValueError:
                raise MalformedRowError(
                    line_no, f"non-numeric token {cell!r}", path) from None
            if not math.isfinite(value):  # "nan", "inf", "-Infinity"
                raise MalformedRowError(
                    line_no, f"non-finite value {cell!r} in series "
                    f"{series_id}", path)
            values.append(value)
        if any(cells[cut:]):  # only empty cells may follow the first one
            raise MalformedRowError(line_no, "gap inside the row", path)
        if not values:
            raise MalformedRowError(line_no, "row has no values", path)
        if series_id in out:
            raise MalformedRowError(line_no, f"duplicate id {series_id}", path)
        out[series_id] = values
    if not out:
        raise MalformedRowError(
            line_no + 1, "no series after the header", path)
    return out


def load_m4(train_path, test_path, spec: DatasetSpec):
    """Load one frequency; returns [(id, train, test)] in natural id order.

    Training series are anchored at position 0; test series continue at
    position ``len(train)``.  Every training id must have a test series of
    exactly ``spec.horizon`` values, every value must be finite, and a
    file with no series after its header is refused.  A line that is not
    UTF-8 or CSV, or a row that is not an id followed by numbers (trailing
    empty cells allowed), raises :class:`MalformedRowError` naming the file
    and the line the row starts on.
    """
    trains = _read_series_csv(train_path)
    tests = _read_series_csv(test_path)
    out = []
    for sid in sorted(trains, key=natural_key):
        if sid not in tests:
            raise MissingTestSeriesError(f"no test series for {sid}")
        test_vals = tests[sid]
        if len(test_vals) != spec.horizon:
            raise MissingTestSeriesError(
                f"test series {sid} has {len(test_vals)} values, "
                f"expected {spec.horizon}"
            )
        train = TimeSeries(trains[sid], start_index=0, sp=spec.sp)
        test = TimeSeries(test_vals, start_index=len(train), sp=spec.sp)
        out.append((sid, train, test))
    return out


def resolve_paths(train_dir, test_dir, spec: DatasetSpec):
    """Locate ``<Freq>-train.csv`` / ``<Freq>-test.csv`` under two roots."""
    train = Path(train_dir) / f"{spec.file_stem}-train.csv"
    test = Path(test_dir) / f"{spec.file_stem}-test.csv"
    return train, test
