"""How each metric in ``declared`` is computed.

End-to-end metrics come from the untraced passes of a run (medians over
passes).  Per-layer metrics come from the spans of one traced pass at
``jobs=1``, except the per-model seconds, task percentiles, parallel
efficiency and the ``RUN_EXTRAS``, which come from the untraced pass of
the same run.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import DETAIL, END, LABEL, NAME, PARENT, START, self_times
from declared import ALL_MODELS, RUN_EXTRAS
from workloads import REPORT_CALLS

_TEST_SPANS = {"evaluation.friedman_test", "evaluation.critical_difference_report",
               "evaluation.wilcoxon_signed_rank", "evaluation.holm_adjust",
               "evaluation.paired_t_test"}
_RANK_SPANS = {"m4.runner.rank_models", "m4.runner.mean_ranks",
               "m4.reports.rank_models", "m4.reports.mean_ranks"}
_AGGREGATION_SPANS = _RANK_SPANS | {"m4.runner.owa"}
_TRANSFORM_SPANS = {"transforms.transform", "transforms.transform_at",
                    "transforms.inverse_at"}


def task_percentiles(task_seconds) -> dict:
    if not task_seconds:
        return {"m4.runner.task_p50_ms": 0.0, "m4.runner.task_p90_ms": 0.0,
                "m4.runner.task_samples": 0}
    ms = np.asarray(task_seconds) * 1e3
    return {"m4.runner.task_p50_ms": float(np.percentile(ms, 50)),
            "m4.runner.task_p90_ms": float(np.percentile(ms, 90)),
            "m4.runner.task_samples": int(ms.size)}


def end_to_end(passes, peak_rss_mb) -> dict:
    """The end-to-end metrics but ``setup_s`` (``run.py`` times set-up in
    fresh interpreters), plus ``RUN_EXTRAS``, from the untraced passes of
    one run (medians over passes)."""
    wall = statistics.median(p.wall for p in passes)
    tasks = passes[0].tasks
    attempted = sum(p.tasks for p in passes)
    reports = [p for p in passes if p.report_wall > 0]
    return {
        "run_wall_s": wall,
        "tasks_per_s": tasks / wall,
        "smape_mean": passes[0].smape_mean,
        "mase_mean": passes[0].mase_mean,
        "peak_rss_mb": peak_rss_mb,
        "task_failed_ratio": sum(p.failed for p in passes) / attempted,
        "report_wall_s": (statistics.median(p.report_wall for p in reports)
                          if reports else 0.0),
        "report_failed_ratio": (len(passes[-1].report_failures) / len(REPORT_CALLS)
                                if reports else 0.0),
    }


def layer_metrics(spans, traced, untraced, untraced_jobs1, jobs) -> dict:
    """Per-layer metrics from the spans of one traced pass (``traced``),
    the untraced pass at the workload's job count (``untraced``) and an
    untraced ``jobs=1`` pass (the tracing-overhead reference)."""
    self_s = self_times(spans)

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def total(idx):
        return float(sum(spans[i][END] - spans[i][START] for i in idx))

    def own(idx):
        return float(sum(self_s[i] for i in idx))

    def fits(label):
        return pick(lambda s: s[NAME] == "core.fit" and s[LABEL] == label)

    def tfits(label):
        return pick(lambda s: s[NAME] == "transforms.fit" and s[LABEL] == label)

    def named(*names):
        return pick(lambda s: s[NAME] in names)

    def unique_ratio(name):
        keys = [spans[i][DETAIL] for i in pick(
            lambda s: s[NAME] == name and s[DETAIL] is not None)]
        return len(set(keys)) / len(keys) if keys else 1.0

    holt = fits("HoltForecaster")
    minimize = named("scipy.minimize")
    opt = [spans[i][DETAIL] for i in minimize]
    seas = named("transforms.seasonality_test")
    grid_fits = set(fits("ForecastingGridSearch"))
    regress_predicts = named("regress.lr.predict", "regress.knn.predict")
    m = {
        "forecasters.holt.fit_s": total(holt),
        "forecasters.holt.fit.calls": len(holt),
        "forecasters.ses.fit_s": total(fits("SESForecaster")),
        "forecasters.theta.fit_s": total(fits("ThetaForecaster")),
        "forecasters.optimize.minimize_s": total(minimize),
        "forecasters.optimize.calls": len(minimize),
        "forecasters.optimize.nfev": sum(o[0] for o in opt),
        "forecasters.optimize.nit": sum(o[1] for o in opt),
        "forecasters.optimize.maxiter_hits": sum(not o[2] for o in opt),
        "forecasters.grid_s": own(holt + fits("SESForecaster")),
        "forecasters.fit.unique_ratio": unique_ratio("core.fit"),
        "transforms.seasonality_test_s": total(seas),
        "transforms.seasonality_test.calls": len(seas),
        "transforms.seasonality_test.pass_ratio": (
            sum(bool(spans[i][DETAIL]) for i in seas) / len(seas) if seas else 0.0),
        "transforms.decompose_s": total(named("transforms.decompose")),
        "transforms.boxcox.fit_s": total(tfits("BoxCoxTransformer")),
        "transforms.boxcox.nfev": sum(
            spans[i][DETAIL][0] for i in named("scipy.minimize_scalar")),
        "transforms.detrend.fit_s": total(tfits("Detrender")),
        "transforms.transform_s": own(pick(lambda s: s[NAME] in _TRANSFORM_SPANS)),
        "transforms.fit.calls": len(named("transforms.fit")),
        "transforms.fit.unique_ratio": unique_ratio("transforms.fit"),
        "compose.tabularize_s": total(named("compose.tabularize")),
        "compose.tabularize.calls": len(named("compose.tabularize")),
        "compose.reduction.fit_s": total(fits("ReducedRegressionForecaster")),
        "compose.reduction.predict_steps": sum(
            spans[i][DETAIL] == 1 for i in regress_predicts),
        "compose.pipeline.self_s": own(pick(
            lambda s: s[LABEL] == "TransformedTargetForecaster")),
        "compose.ensemble.fit_s": total(fits("EnsembleForecaster")),
        "regress.lr.fit_s": total(named("regress.lr.fit")),
        "regress.lr.predict_s": total(named("regress.lr.predict")),
        "regress.knn.fit_s": total(named("regress.knn.fit")),
        "regress.knn.predict_s": total(named("regress.knn.predict")),
        "regress.knn.predict_rows": sum(
            spans[i][DETAIL] for i in named("regress.knn.predict")),
        "select.grid_search.fit_s": total(grid_fits),
        "select.grid_search.self_s": own(grid_fits),
        "select.grid_search.candidate_fits": len(pick(
            lambda s: s[NAME] == "core.fit" and s[PARENT] in grid_fits)),
        "core.fit.calls": len(named("core.fit")),
        "core.predict.calls": len(named("core.predict")),
        "core.update.calls": len(named("core.update")),
        "core.update_predict.self_s": own(named("core.update_predict")),
        "evaluation.score_s": total(named("m4.runner.smape", "m4.runner.mase")),
        "evaluation.rank_s": total(pick(lambda s: s[NAME] in _RANK_SPANS)),
        "evaluation.tests_s": total(pick(lambda s: s[NAME] in _TEST_SPANS)),
        "m4.datasets.load_s": total(named("m4.runner.load_m4")),
        "m4.datasets.series": sum(spans[i][DETAIL] for i in named("m4.runner.load_m4")),
        "m4.registry.build_s": total(named("m4.runner.build_model")),
        "m4.runner.task_busy_s": float(sum(traced.task_seconds)),
        "m4.runner.bytes_written": traced.bytes_written,
        "m4.reports.read_s": total(named("m4.reports.read_results")),
        "m4.reports.stats_s": total(named("m4.reports.stats_report")),
        "m4.published.compare_s": total(named("m4.published.compare_aggregate")),
    }
    m.update(_write_phases(spans, traced))
    m.update(task_percentiles(untraced.task_seconds))
    m["m4.runner.parallel_efficiency"] = (
        sum(untraced.task_seconds) / (jobs * untraced.wall))
    for model in ALL_MODELS:
        m[f"m4.model.{model}.s"] = float(untraced.model_seconds.get(model, 0.0))
    e2e = end_to_end([untraced], 0.0)
    for name in RUN_EXTRAS:
        m[name] = e2e[name]
    traced_wall = traced.wall + traced.report_wall
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["trace.unattributed_s"] = traced_wall - covered
    m["trace.overhead_s"] = traced_wall - (untraced_jobs1.wall
                                           + untraced_jobs1.report_wall)
    return m


def _write_phases(spans, traced) -> dict:
    """Aggregation and write time of a runner pass, from the gaps between
    spans: aggregation runs from the end of the last task call to the
    first ``dumps_17g`` call, writing from there until ``run`` returns."""
    top = [s for s in spans if s[PARENT] < 0]
    writes = [s for s in top if s[NAME] == "m4.runner.dumps_17g"]
    if not writes:
        return {"m4.runner.aggregate_s": 0.0, "m4.runner.write_s": 0.0}
    first_write = writes[0][START]
    task_ends = [s[END] for s in top if s[END] <= first_write
                 and s[NAME] not in _AGGREGATION_SPANS]
    return {"m4.runner.aggregate_s": first_write - max(task_ends),
            "m4.runner.write_s": traced.run_end - first_write}
