"""The benchmark workloads: their inputs, one timed pass, and output checks.

Three workloads drive ``ufcast.m4.runner.run`` over generated M4-format
CSVs and then run the report phase (``read_results``, four
``stats_report`` tests, ``compare_aggregate`` against the vendored
table).  ``rolling`` uses the library directly: one fit per (model,
series), then ``update_predict`` over a long test stretch.

Only public ufcast entry points are called.  A ``call`` hook lets the
tracer put spans around the calls this module makes itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ufcast.core import ForecastingHorizon, TimeSeries
from ufcast.compose import TransformedTargetForecaster
from ufcast.evaluation import mase, smape
from ufcast.forecasters import HoltForecaster
from ufcast.m4 import (
    DATASETS,
    RunManifest,
    build_model,
    compare_aggregate,
    load_published,
    read_results,
    run,
    stats_report,
)
from ufcast.select import SlidingWindowSplitter
from ufcast.transforms import Deseasonalizer

from generate import SeriesSpec, make_dataset, one_series, write_m4

# the CLI's default --models list
DEFAULT_MODELS = ("Naive", "sNaive", "Naive2", "SES", "Holt", "Damped", "Com",
                  "Theta", "Theta-bc")
STATS_TESTS = ("friedman", "nemenyi", "wilcoxon_holm", "ttest")
REPORT_CALLS = ("read_results",) + STATS_TESTS + ("compare_aggregate",)
# Documented, typed refusals of the report phase on these inputs: the
# signed-rank test is undefined when two models forecast identically
# (Naive, sNaive and Naive2 on sp=1 data), and the vendored table omits
# some linear-regression cells.  They are counted, not treated as wrong.
EXPECTED_REFUSALS = {("wilcoxon_holm", "AllZeroDifferencesError"),
                     ("compare_aggregate", "MissingReferenceError")}
# The smoothing panel does not move with the seed (see Workload.seeded).
FIXED_PANEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One workload.  ``seeded=False`` draws the inputs from a fixed seed:
    Holt/Damped fit cost hinges on whether Nelder-Mead stops at its
    iteration cap, which flips with any change of the data, so a panel
    small enough for one run cannot be re-drawn per seed and stay
    comparable between runs (2+2-series panels drawn from seeds 0-7 took
    8 to 117 s per pass)."""

    name: str
    kind: str  # "runner" or "rolling"
    models: tuple
    data: tuple  # SeriesSpec per dataset
    jobs: int = 1
    seeded: bool = True
    test_length: int = 0  # rolling: observations walked by update_predict

    @property
    def workers(self) -> int:
        """``jobs``, but never more than the CPUs this process may use."""
        return min(self.jobs, len(os.sched_getaffinity(0)))

    @property
    def run_models(self) -> list:
        models = list(self.models)
        if self.kind == "runner" and "Naive2" not in models:
            models.append("Naive2")  # the runner adds the OWA reference
        return models


WORKLOADS = {
    "smoothing": Workload(
        "smoothing", "runner", DEFAULT_MODELS,
        (SeriesSpec("yearly", 2, (13, 60)), SeriesSpec("quarterly", 2, (16, 100))),
        seeded=False,
    ),
    "reduction": Workload(
        "reduction", "runner",
        ("LR-s", "KNN-s", "LR-t-s", "KNN-t-s", "KNN-Theta-bc", "KNN-Theta-bc-t"),
        (SeriesSpec("hourly", 14, (700, 960), choices=True),),
    ),
    "harness": Workload(
        "harness", "runner",
        ("Naive", "sNaive", "Naive2", "SES", "Theta", "Theta-bc", "LR", "KNN",
         "LR-s", "KNN-s"),
        (SeriesSpec("yearly", 250, (13, 40)), SeriesSpec("monthly", 250, (42, 96))),
        jobs=2,
    ),
    "rolling": Workload(
        "rolling", "rolling",
        ("Naive2", "SES", "Theta", "Theta-bc", "LR-s", "KNN-s", "Holt-fixed",
         "Damped-fixed"),
        (SeriesSpec("hourly", 6, (700, 960), choices=True),),
        test_length=96,
    ),
}


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(wl: Workload, seed: int, directory) -> dict:
    """Generate the workload's inputs; CSVs go to ``directory``.

    Returns {dataset: [(id, train, test)]} in natural id order.
    """
    rng = np.random.default_rng(seed if wl.seeded else FIXED_PANEL_SEED)
    out = {}
    for spec in wl.data:
        ds = DATASETS[spec.freq]
        horizon = wl.test_length if wl.kind == "rolling" else ds.horizon
        data = make_dataset(rng, spec, ds.sp, horizon)
        if wl.kind == "runner":
            write_m4(directory, ds.file_stem, data)
        out[spec.freq] = data
    return out


def warm_up_series(wl: Workload):
    """The short fixed series of the set-up probe, with its sp and horizon."""
    freq = wl.data[-1].freq
    ds = DATASETS[freq]
    n = 8 * max(ds.sp, 3)
    values = one_series(np.random.default_rng(0), n, ds.sp, freq, 50.0, True)
    return TimeSeries(values, sp=ds.sp), ds.sp, ds.horizon


def model_factory(name: str, sp: int, horizon: int):
    """Registry models, plus the rolling workload's fixed-coefficient Holt."""
    if name in ("Holt-fixed", "Damped-fixed"):
        damped = name == "Damped-fixed"
        holt = HoltForecaster(damped=damped, alpha=0.2, beta=0.05,
                              phi=0.9 if damped else None)
        return TransformedTargetForecaster(
            [("deseasonalize", Deseasonalizer(sp=sp)), ("forecast", holt)])
    return build_model(name, sp=sp, horizon=horizon)


def warm_up(wl: Workload) -> None:
    """One fit + predict per model on the short fixed series."""
    y, sp, horizon = warm_up_series(wl)
    for name in wl.run_models:
        model_factory(name, sp, horizon).fit(y).predict(
            ForecastingHorizon.out_to(horizon))


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    wall: float  # the timed workload pass (run_wall_s)
    report_wall: float = 0.0
    tasks: int = 0
    failed: int = 0
    smape_mean: float = math.nan
    mase_mean: float = math.nan
    model_seconds: dict = field(default_factory=dict)
    task_seconds: list = field(default_factory=list)
    report_failures: dict = field(default_factory=dict)  # call -> error type
    bytes_written: int = 0
    run_end: float = 0.0  # perf_counter when the runner returned
    digest: str = ""
    problems: list = field(default_factory=list)


def one_pass(wl: Workload, inputs: dict, workdir: Path, jobs: int,
             call=_direct) -> PassResult:
    if wl.kind == "runner":
        return _runner_pass(wl, inputs, workdir, jobs, call)
    return _rolling_pass(wl, inputs)


def _runner_pass(wl, inputs, workdir, jobs, call) -> PassResult:
    out_path = workdir / "results.jsonl"
    manifest = RunManifest(
        datasets=list(inputs), models=list(wl.models),
        train_dir=str(workdir), test_dir=str(workdir), out_path=str(out_path),
        jobs=jobs,
    )
    started = time.perf_counter()
    run(manifest)
    run_end = time.perf_counter()
    failures = report_phase(out_path, call)
    result = PassResult(wall=run_end - started,
                        report_wall=time.perf_counter() - run_end,
                        report_failures=failures, run_end=run_end,
                        bytes_written=out_path.stat().st_size)
    check_runner_output(out_path, wl, inputs, result)
    return result


def report_phase(out_path, call=_direct) -> dict:
    """The six report calls; returns {call: error type} for those that raised.

    A call that raises is recorded and the phase goes on, as a user
    running the CLI subcommands one by one would.
    """
    failures = {}
    records = aggregate = None
    try:
        records, _, aggregate = call("m4.reports.read_results", read_results,
                                     out_path)
    except Exception as exc:  # recorded and reported as a failed call
        failures["read_results"] = type(exc).__name__
    for test in STATS_TESTS:
        try:
            call("m4.reports.stats_report", stats_report, records, test=test)
        except Exception as exc:  # recorded and reported as a failed call
            failures[test] = type(exc).__name__
    try:
        call("m4.published.compare_aggregate",
             lambda: compare_aggregate(aggregate, load_published()))
    except Exception as exc:  # recorded and reported as a failed call
        failures["compare_aggregate"] = type(exc).__name__
    return failures


_RUNTIME_FIELD = re.compile(r', "(?:total_)?runtime_s": [-+0-9.eE]+')


def stripped_digest(text: str) -> str:
    """sha256 of a results file with every runtime field removed."""
    return hashlib.sha256(_RUNTIME_FIELD.sub("", text).encode()).hexdigest()


def check_runner_output(out_path, wl: Workload, inputs: dict,
                        result: PassResult) -> None:
    """Fill ``result`` from the results file and list what is wrong in it."""
    text = Path(out_path).read_text(encoding="utf-8")
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    rows, aggregate = lines[:-1], lines[-1] if lines else {}
    problems = result.problems
    expected = [(d, m, sid) for d, data in inputs.items()
                for m in sorted(wl.run_models) for sid, _, _ in data]
    got = [(r.get("dataset"), r.get("model"), r.get("series_id")) for r in rows]
    if got != expected:
        problems.append(f"rows are not models x series in canonical order "
                        f"({len(got)} rows, {len(expected)} expected)")
    records = [r for r in rows if r.get("type") == "record"]
    if any(not (math.isfinite(r["smape"]) and math.isfinite(r["mase"]))
           for r in records):
        problems.append("non-finite sMAPE or MASE")
    if aggregate.get("type") != "aggregate":
        problems.append("last line is not the aggregate block")
    else:
        for d, data in inputs.items():
            block = aggregate["datasets"].get(d, {})
            if block.get("n_series") != len(data):
                problems.append(f"{d}: aggregate n_series is "
                                f"{block.get('n_series')}, expected {len(data)}")
            for m, entry in block.get("models", {}).items():
                if entry["n_series"] + entry["n_failed"] != len(data):
                    problems.append(f"{d}/{m}: n_series + n_failed != {len(data)}")
    for test, error in result.report_failures.items():
        if (test, error) not in EXPECTED_REFUSALS:
            problems.append(f"report call {test} raised {error}")
    result.tasks = len(rows)
    result.failed = len(rows) - len(records)
    if records:
        result.smape_mean = float(np.mean([r["smape"] for r in records]))
        result.mase_mean = float(np.mean([r["mase"] for r in records]))
    result.task_seconds = [r["runtime_s"] for r in rows]
    for r in rows:
        result.model_seconds[r["model"]] = (
            result.model_seconds.get(r["model"], 0.0) + r["runtime_s"])
    result.digest = stripped_digest(text)


def _rolling_pass(wl, inputs) -> PassResult:
    """Fit each (model, series) once, then walk the test stretch."""
    (freq, data), = inputs.items()
    sp, horizon = DATASETS[freq].sp, DATASETS[freq].horizon
    cv = SlidingWindowSplitter(window_length=1, fh=list(range(1, horizon + 1)),
                               mode="expanding")
    outputs = []
    result = PassResult(wall=0.0)
    started = time.perf_counter()
    for name in wl.run_models:
        for sid, train, test in data:
            t0 = time.perf_counter()
            forecaster = model_factory(name, sp, horizon)
            forecaster.fit(TimeSeries(train, sp=sp))
            walked = forecaster.update_predict(
                TimeSeries(test, start_index=train.size, sp=sp), cv)
            seconds = time.perf_counter() - t0
            outputs.append((name, sid, walked))
            result.task_seconds.append(seconds)
            result.model_seconds[name] = (
                result.model_seconds.get(name, 0.0) + seconds)
    result.run_end = time.perf_counter()
    result.wall = result.run_end - started
    _check_rolling(outputs, data, horizon, sp, result)
    return result


def _check_rolling(outputs, data, horizon, sp, result: PassResult) -> None:
    series = {sid: (train, test) for sid, train, test in data}
    digest = hashlib.sha256()
    smapes, mases = [], []
    for name, sid, walked in outputs:
        train, test = series[sid]
        if len(walked) != test.size:
            result.problems.append(f"{name}/{sid}: {len(walked)} origins, "
                                   f"expected {test.size}")
        for cutoff, forecast in walked:
            values = np.asarray(forecast.values, dtype=float)
            digest.update(np.int64(cutoff).tobytes() + values.tobytes())
            if values.size != horizon or not np.all(np.isfinite(values)):
                result.problems.append(f"{name}/{sid}: bad forecast at {cutoff}")
                continue
            rel = cutoff + 1 - train.size  # first forecast position in test
            if rel + horizon <= test.size:
                actual = test[rel:rel + horizon]
                smapes.append(smape(actual, values))
                mases.append(mase(actual, values, train, sp))
        result.tasks += 1
    result.digest = digest.hexdigest()
    result.smape_mean = float(np.mean(smapes))
    result.mase_mean = float(np.mean(mases))

