"""Benchmark experiment runner.

Work is a flat queue of (model, series) tasks: fit on the training series,
forecast the full horizon, score sMAPE and MASE, capture wall time.
Per-series failures are recorded as data and never abort the run.  Results
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
from dataclasses import dataclass, field

import numpy as np

from ..core import ForecastingHorizon, TimeSeries
from ..evaluation import EvalRecord, mase, mean_ranks, owa, rank_models, smape
from ..exceptions import FIT_ERRORS
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

_EXTERNAL_REGRESSORS: dict | None = None  # inherited by forked workers


def _evaluate_one(task: tuple) -> dict:
    (dataset, sp, horizon, model, sid, train_vals, test_vals,
     mase_denominator, window_rule) = task
    train = TimeSeries(train_vals, start_index=0, sp=sp)
    test = TimeSeries(test_vals, start_index=len(train_vals), sp=sp)
    started = time.perf_counter()
    try:
        forecaster = build_model(
            model, sp=sp, horizon=horizon, window_rule=window_rule,
            external_regressors=_EXTERNAL_REGRESSORS,
        )
        forecaster.fit(train)
        forecast = forecaster.predict(ForecastingHorizon.out_to(horizon))
        runtime = time.perf_counter() - started
        return {
            "type": "record",
            "dataset": dataset,
            "series_id": sid,
            "model": model,
            "smape": smape(test.values, forecast.values),
            "mase": mase(test.values, forecast.values, train.values, sp,
                         denominator=mase_denominator),
            "runtime_s": runtime,
        }
    except FIT_ERRORS as exc:
        return {
            "type": "error",
            "dataset": dataset,
            "series_id": sid,
            "model": model,
            "error": f"{type(exc).__name__}: {exc}",
            "runtime_s": time.perf_counter() - started,
        }


def _run_tasks(tasks, jobs: int):
    # a fork-based pool starts every worker up front, so never ask for more
    # than there are tasks
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_evaluate_one(t) for t in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_one, tasks, chunksize=16))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _aggregate_dataset(dataset: str, models: list, rows: list) -> dict:
    records = {}  # model -> {sid: EvalRecord}
    failures = {m: 0 for m in models}
    runtimes = {m: 0.0 for m in models}
    all_ids = set()
    for row in rows:
        m, sid = row["model"], row["series_id"]
        all_ids.add(sid)
        runtimes[m] += row["runtime_s"]
        if row["type"] == "record":
            records.setdefault(m, {})[sid] = EvalRecord(
                series_id=sid, model=m, smape=row["smape"], mase=row["mase"],
                runtime_s=row["runtime_s"], dataset=dataset,
            )
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
            entry["owa"] = owa(
                [own[i] for i in shared], [naive2[i] for i in shared]
            )
        out_models[m] = entry
    return {"n_series": len(all_ids), "models": out_models}


def run(manifest: RunManifest, external_regressors: dict | None = None) -> dict:
    """Execute a manifest; writes JSON-lines to ``manifest.out_path``.

    Returns the aggregate block.  ``external_regressors`` factories are
    inherited by worker processes via fork; on platforms without fork use
    ``jobs=1`` when plugging externals in.
    """
    global _EXTERNAL_REGRESSORS
    _EXTERNAL_REGRESSORS = external_regressors
    try:
        return _run_manifest(manifest)
    finally:
        _EXTERNAL_REGRESSORS = None


def _run_manifest(manifest: RunManifest) -> dict:
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
            (dataset, spec.sp, spec.horizon, model, sid,
             train.values.tolist(), test.values.tolist(),
             manifest.mase_denominator, manifest.window_rule)
            for model in models
            for sid, train, test in data
        ]
        rows = _run_tasks(tasks, manifest.jobs)
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
            dataset: _aggregate_dataset(dataset, models, rows)
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
    """Parse a results file into (records, errors, aggregate)."""
    records, errors, aggregate = [], [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("type")
            if kind == "record":
                records.append(EvalRecord(
                    series_id=obj["series_id"], model=obj["model"],
                    smape=obj["smape"], mase=obj["mase"],
                    runtime_s=obj["runtime_s"], dataset=obj["dataset"],
                ))
            elif kind == "error":
                errors.append(obj)
            elif kind == "aggregate":
                aggregate = obj
    return records, errors, aggregate
