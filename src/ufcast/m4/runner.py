"""Benchmark experiment runner.

Work is a queue of (dataset, series) tasks.  A task builds, fits and
forecasts each requested model on the training series in manifest order,
scores sMAPE and MASE and captures wall time, one row per model.  Each
task is one prefix-cache scope (see
:class:`~ufcast.compose.TransformedTargetForecaster`), so its pipelines
share every fitted step, the final forecaster included: ``Com``'s SES,
Holt and Damped pipelines take the fits of those models.  A shared fit is
timed in the row of the first model that needs it, so per-model runtimes
depend on the manifest's model order; metric values do not.  A manifest
that cannot run is refused before any data is read (see :func:`run`);
per-series failures are recorded as data and never abort a run.  Results
are JSON-lines — one record or error object per line, then one aggregate
block — with all numbers rendered at 17 significant digits so identical
manifests produce byte-identical files (runtimes excepted).

Workers share nothing mutable and results are folded in a canonical
(dataset, model, series) order, so metric values are independent of the
job count.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from dataclasses import dataclass

import numpy as np

from ..compose import _prefix_cache_scope
from ..core import ForecastingHorizon, TimeSeries, _check_integer
from ..evaluation import (
    MASE_DENOMINATORS, EvalRecord, mase, mean_ranks, owa, rank_models, smape,
)
from ..exceptions import (FIT_ERRORS, MalformedRowError,
                          ZeroDenominatorError)
from .datasets import DATASETS, load_m4, natural_key, resolve_paths
from .registry import build_model

__all__ = ["RunManifest", "run", "read_results", "dumps_17g"]


@dataclass
class RunManifest:
    """Everything that determines a benchmark run's outputs."""

    datasets: list
    models: list
    train_dir: str
    test_dir: str
    out_path: str
    jobs: int = 1
    mase_denominator: str = "as_formula"
    window_rule: str = "max"


# ---------------------------------------------------------------------------
# serialization: JSON with floats at 17 significant digits
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite value in serialised output")
    return f"{x:.17g}"


def dumps_17g(obj) -> str:
    """Compact JSON with every float at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dumps_17g(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps_17g(v) for v in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


# ---------------------------------------------------------------------------
# per-series evaluation
# ---------------------------------------------------------------------------

_EXTERNAL_REGRESSORS: dict | None = None  # set in pool workers by _init_worker


def _evaluate_series(task: tuple, external_regressors: dict | None) -> list:
    """One row per model in the task, all on the task's series."""
    (dataset, sp, horizon, models, sid, train_vals, test_vals,
     mase_denominator, window_rule) = task
    train = TimeSeries(train_vals, start_index=0, sp=sp)
    test = TimeSeries(test_vals, start_index=len(train_vals), sp=sp)
    fh = ForecastingHorizon.out_to(horizon)
    rows = []
    with _prefix_cache_scope():
        for model in models:
            head = {"dataset": dataset, "series_id": sid, "model": model}
            started = time.perf_counter()
            try:
                values = build_model(
                    model, sp=sp, horizon=horizon, window_rule=window_rule,
                    external_regressors=external_regressors,
                ).fit(train).predict(fh).values
                runtime = time.perf_counter() - started
                row = {"type": "record", **head,
                       "smape": smape(test.values, values),
                       "mase": mase(test.values, values, train.values, sp,
                                    denominator=mase_denominator)}
            except FIT_ERRORS as exc:
                runtime = time.perf_counter() - started
                row = {"type": "error", **head,
                       "error": f"{type(exc).__name__}: {exc}"}
            rows.append({**row, "runtime_s": runtime})
    return rows


def _init_worker(external_regressors):
    global _EXTERNAL_REGRESSORS
    _EXTERNAL_REGRESSORS = external_regressors


def _evaluate_in_worker(task: tuple) -> list:
    return _evaluate_series(task, _EXTERNAL_REGRESSORS)


def _run_tasks(tasks, jobs: int, external_regressors: dict | None = None):
    """One list of rows per task, in task order."""
    # a fork-based pool starts every worker up front, so never ask for more
    # than there are tasks
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_evaluate_series(t, external_regressors) for t in tasks]
    # many chunks per worker, so one slow series does not leave the other
    # workers idle at the end
    chunksize = max(1, len(tasks) // (16 * workers))
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(external_regressors,)) as pool:
        return list(pool.map(_evaluate_in_worker, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _record(row: dict) -> EvalRecord:
    """The :class:`EvalRecord` of a ``"record"`` row."""
    return EvalRecord(
        series_id=row["series_id"], model=row["model"], smape=row["smape"],
        mase=row["mase"], runtime_s=row["runtime_s"], dataset=row["dataset"],
    )


def _aggregate_dataset(models: list, rows: list) -> dict:
    records = {}  # model -> {sid: EvalRecord}
    failures = {m: 0 for m in models}
    runtimes = {m: 0.0 for m in models}
    all_ids = set()
    for row in rows:
        m, sid = row["model"], row["series_id"]
        all_ids.add(sid)
        runtimes[m] += row["runtime_s"]
        if row["type"] == "record":
            records.setdefault(m, {})[sid] = _record(row)
        else:
            failures[m] += 1

    # mean ranks over series every model completed
    common = set(all_ids)
    for m in models:
        common &= set(records.get(m, {}))
    rank_of = {}
    if common and len(models) >= 2:
        flat = [records[m][sid] for m in models for sid in sorted(common)]
        matrix = rank_models(flat, metric="smape")
        for model, value in zip(matrix.models, mean_ranks(matrix)):
            rank_of[model] = float(value)

    naive2 = records.get("Naive2", {})
    out_models = {}
    for m in models:
        own = records.get(m, {})
        ids = sorted(own)
        entry = {
            "n_series": len(own),
            "n_failed": failures[m],
            "mean_smape": float(np.mean([own[i].smape for i in ids])) if ids else None,
            "mean_mase": float(np.mean([own[i].mase for i in ids])) if ids else None,
            "owa": None,
            "mean_rank_smape": rank_of.get(m),
            "runtime_s": runtimes[m],
        }
        shared = sorted(set(own) & set(naive2))
        if shared:
            try:
                entry["owa"] = owa(
                    [own[i] for i in shared], [naive2[i] for i in shared]
                )
            except ZeroDenominatorError:
                pass  # Naive2 is perfect where this model is not: no ratio
        out_models[m] = entry
    return {"n_series": len(all_ids), "models": out_models}


def _check_manifest(manifest: RunManifest,
                    external_regressors: dict | None = None) -> None:
    """Raise unless ``manifest`` can run; reads no data."""
    _check_integer("jobs", manifest.jobs, 1)
    for what in ("datasets", "models"):
        names = getattr(manifest, what)
        repeated = [*dict.fromkeys(
            n for i, n in enumerate(names) if n in names[:i])]
        if repeated:
            listed = ", ".join(map(str, repeated))
            raise ValueError(f"{what} listed more than once: {listed}")
    unknown = [d for d in manifest.datasets if d not in DATASETS]
    if unknown:
        raise ValueError(f"unknown datasets: {', '.join(map(str, unknown))}")
    if manifest.mase_denominator not in MASE_DENOMINATORS:
        raise ValueError(
            f"unknown MASE denominator {manifest.mase_denominator!r}")
    for model in [*manifest.models, "Naive2"]:  # run() adds the OWA reference
        build_model(model, sp=1, horizon=1, window_rule=manifest.window_rule,
                    external_regressors=external_regressors)


def run(manifest: RunManifest, external_regressors: dict | None = None) -> dict:
    """Execute a manifest; writes JSON-lines to ``manifest.out_path``.

    Returns the aggregate block.  ``external_regressors`` factories go to
    the evaluation directly with ``jobs=1`` and to each pool worker through
    its initializer; where workers are not forked they must pickle.
    Before any data is read, ``jobs`` not an integer >= 1, a name listed
    twice, or an unknown dataset, MASE denominator or window rule raises
    ``ValueError``, and a model the registry cannot build (``RF``/``XGB``
    without a factory) ``UnknownModelError``.  Then a data file that cannot
    be read raises ``OSError`` (``FileNotFoundError`` when it is missing),
    a row that cannot be parsed ``MalformedRowError`` naming the file and
    the line, a training id without a test series of the dataset's horizon
    ``MissingTestSeriesError``, and a NaN or infinite value
    ``NonFiniteInputError``.  No results file is written after a refusal.
    A model with no OWA, because Naive2 is perfect on every series the
    model completed and it is not, gets ``"owa": None``.
    """
    _check_manifest(manifest, external_regressors)
    started = time.perf_counter()
    models = list(manifest.models)
    if "Naive2" not in models:
        models.append("Naive2")  # OWA reference is always evaluated

    per_dataset_rows = {}
    for dataset in manifest.datasets:
        spec = DATASETS[dataset]
        train_path, test_path = resolve_paths(
            manifest.train_dir, manifest.test_dir, spec
        )
        data = load_m4(train_path, test_path, spec)
        tasks = [
            (dataset, spec.sp, spec.horizon, models, sid,
             train.values.tolist(), test.values.tolist(),
             manifest.mase_denominator, manifest.window_rule)
            for sid, train, test in data
        ]
        rows = [row for task_rows in
                _run_tasks(tasks, manifest.jobs, external_regressors)
                for row in task_rows]
        rows.sort(key=lambda r: (r["model"], natural_key(r["series_id"])))
        per_dataset_rows[dataset] = rows

    aggregate = {
        "type": "aggregate",
        "manifest": {
            "datasets": list(manifest.datasets),
            "models": models,
            "mase_denominator": manifest.mase_denominator,
            "window_rule": manifest.window_rule,
        },
        "datasets": {
            dataset: _aggregate_dataset(models, rows)
            for dataset, rows in per_dataset_rows.items()
        },
        "total_runtime_s": time.perf_counter() - started,
    }

    with open(manifest.out_path, "w", encoding="utf-8") as fh:
        for dataset in manifest.datasets:
            for row in per_dataset_rows[dataset]:
                fh.write(dumps_17g(row) + "\n")
        fh.write(dumps_17g(aggregate) + "\n")
    return aggregate


def read_results(path):
    """Parse a results file into (records, errors, aggregate).

    A line that is not a JSON object in UTF-8 raises
    :class:`~ufcast.exceptions.MalformedRowError` naming the file and line.
    """
    records, errors, aggregate = [], [], None
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError is one too
                obj = None
            if not isinstance(obj, dict):
                raise MalformedRowError(
                    line_no, "not a JSON object in UTF-8", path)
            kind = obj.get("type")
            if kind == "record":
                records.append(_record(obj))
            elif kind == "error":
                errors.append(obj)
            elif kind == "aggregate":
                aggregate = obj
    return records, errors, aggregate
