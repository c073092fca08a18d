"""Seeded, M4-shaped synthetic inputs for the benchmark workloads.

Every series is positive: a level drawn log-uniformly, a multiplicative
trend, an optional multiplicative season, a random-walk level factor and
multiplicative noise.  Levels and lengths are stratified (one draw per
equal-probability stratum, strata shuffled) so that a small sample still
covers the whole range; the seed moves every draw inside its stratum and
every noise path.

Runner workloads get M4 distribution CSVs (``<Freq>-train.csv`` /
``<Freq>-test.csv``: header row, quoted id, ragged rows padded with empty
cells).  The rolling workload gets plain arrays.  Frequencies take their
seasonal period and horizon from ``ufcast.m4.DATASETS``; this module does
not import ``ufcast`` itself, so the caller passes those in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Per-frequency shape of the generated series: id prefix, the largest
# per-step growth of the multiplicative trend, the random-walk step and
# the observation noise (both as log standard deviations).
_SHAPES = {
    "yearly": ("Y", 0.04, 0.03, 0.02),
    "quarterly": ("Q", 0.012, 0.015, 0.02),
    "monthly": ("M", 0.004, 0.01, 0.02),
    "hourly": ("H", 0.0004, 0.001, 0.02),
}
LEVELS = (10.0, 1e4)  # range of the log-uniform series level


@dataclass(frozen=True)
class SeriesSpec:
    """How many series of one frequency, and their training lengths.

    ``lengths`` is an inclusive (min, max) range, or a tuple of allowed
    lengths when ``choices`` is true.
    """

    freq: str
    count: int
    lengths: tuple
    choices: bool = False


def _strata(rng, count: int) -> np.ndarray:
    """``count`` stratified uniforms in [0, 1), in shuffled order."""
    return rng.permutation((np.arange(count) + rng.uniform(size=count)) / count)


def _lengths(rng, spec: SeriesSpec) -> np.ndarray:
    u = _strata(rng, spec.count)
    if spec.choices:
        options = np.asarray(spec.lengths)
        return options[(u * options.size).astype(int)]
    lo, hi = spec.lengths
    return (lo + u * (hi - lo + 1)).astype(int)


def one_series(rng, n: int, sp: int, freq: str, level: float,
               seasonal: bool) -> np.ndarray:
    """One positive series of ``n`` observations."""
    _, growth, walk, noise = _SHAPES[freq]
    t = np.arange(n)
    slope = rng.uniform(-growth / 3.0, growth)
    log_path = (t * np.log1p(slope)
                + np.cumsum(rng.normal(0.0, walk, n))
                + rng.normal(0.0, noise, n))
    values = level * np.exp(log_path)
    if seasonal and sp > 1:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.1, 0.3)
        values *= 1.0 + amp * np.sin(2.0 * np.pi * t / sp + phase)
    return values


def make_dataset(rng, spec: SeriesSpec, sp: int, horizon: int):
    """[(id, train, test)] for one frequency; half the series seasonal."""
    prefix = _SHAPES[spec.freq][0]
    lengths = _lengths(rng, spec)
    lo, hi = np.log10(LEVELS)
    levels = 10.0 ** (lo + (hi - lo) * _strata(rng, spec.count))
    seasonal = rng.permutation(np.arange(spec.count) % 2 == 0)
    out = []
    for i in range(spec.count):
        n = int(lengths[i])
        values = one_series(rng, n + horizon, sp, spec.freq, float(levels[i]),
                            bool(seasonal[i]))
        out.append((f"{prefix}{i + 1}", values[:n], values[n:]))
    return out


def _write_csv(path: Path, rows, width: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"V{i + 1}" for i in range(width + 1)) + "\n")
        for sid, values in rows:
            cells = [repr(float(v)) for v in values]
            cells += [""] * (width - len(cells))
            fh.write(f'"{sid}",' + ",".join(cells) + "\n")


def write_m4(directory, file_stem: str, data) -> None:
    """Write ``<file_stem>-train.csv`` / ``-test.csv`` in M4 layout."""
    directory = Path(directory)
    width = max(train.size for _, train, _ in data) + 1  # always ragged
    _write_csv(directory / f"{file_stem}-train.csv",
               [(sid, train) for sid, train, _ in data], width)
    test_width = max(test.size for _, _, test in data)
    _write_csv(directory / f"{file_stem}-test.csv",
               [(sid, test) for sid, _, test in data], test_width)
