"""M4 dataset conventions and CSV ingestion.

The distribution files are one CSV per frequency (``Hourly-train.csv``,
``Hourly-test.csv``, ...), each row a quoted series id followed by the
observations, ragged with trailing empty cells.  Frequencies fix the
seasonal periodicity and forecasting horizon.
"""

from __future__ import annotations

import csv
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


def _read_series_csv(path) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for line_no, row in enumerate(reader, start=1):
                if line_no == 1:  # header
                    continue
                if not row or all(not c.strip() for c in row):
                    continue
                series_id = row[0].strip().strip('"')
                if not series_id:
                    raise MalformedRowError(line_no, "missing series id", path)
                values = []
                stopped_at = None
                for col, cell in enumerate(row[1:], start=1):
                    cell = cell.strip()
                    if cell == "":
                        stopped_at = col
                        break
                    try:
                        value = float(cell)
                    except ValueError:
                        raise MalformedRowError(
                            line_no, f"non-numeric token {cell!r}", path
                        ) from None
                    if not math.isfinite(value):  # "nan", "inf", "-Infinity"
                        raise MalformedRowError(
                            line_no, f"non-finite value {cell!r} in series "
                            f"{series_id}", path)
                    values.append(value)
                # only trailing empties may follow the first empty cell
                if stopped_at is not None and any(
                    c.strip() for c in row[stopped_at + 1:]
                ):
                    raise MalformedRowError(
                        line_no, "gap inside the row", path)
                if not values:
                    raise MalformedRowError(line_no, "row has no values", path)
                if series_id in out:
                    raise MalformedRowError(
                        line_no, f"duplicate id {series_id}", path)
                out[series_id] = values
        except csv.Error as exc:  # a quoted field past the size limit
            raise MalformedRowError(reader.line_num, str(exc), path) from None
    if not out:
        raise MalformedRowError(
            reader.line_num + 1, "no series after the header", path)
    return out


def load_m4(train_path, test_path, spec: DatasetSpec):
    """Load one frequency; returns [(id, train, test)] in natural id order.

    Training series are anchored at position 0; test series continue at
    position ``len(train)``.  Every training id must have a test series of
    exactly ``spec.horizon`` values, every value must be finite, and a
    file with no series after its header is refused.
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
