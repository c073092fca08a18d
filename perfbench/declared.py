"""Names, units and directions of every metric the benchmark prints.

``END_TO_END`` are what a user of the harness sees, measured with tracing
off; ``PER_LAYER`` come from the traced run.  Each per-layer entry names
the end-to-end metric and workload it should move.  ``BENCHMARK.json``
declares the same names, units and directions (a test keeps them equal).
This module imports nothing, so ``run.py`` can read it without loading
the package under test.
"""

# name -> (unit, better, bound)
END_TO_END = {
    "run_wall_s": ("s", "lower", 0.25),
    "tasks_per_s": ("1/s", "higher", 0.25),
    "smape_mean": ("%", "lower", 0.2),
    "mase_mean": ("1", "lower", 0.2),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# Printed with the end-to-end metrics, but not declared as such: each is 0
# on some workload (no failures; no report phase on rolling), and a
# declared end-to-end metric must never be 0.  The traced run reports them
# as per-layer metrics.
RUN_EXTRAS = {
    "task_failed_ratio": "ratio",
    "report_wall_s": "s",
    "report_failed_ratio": "ratio",
}

# every model some workload runs; the last two are the rolling workload's
# fixed-coefficient Holt pipelines
ALL_MODELS = ("Naive", "sNaive", "Naive2", "SES", "Holt", "Damped", "Com",
              "Theta", "Theta-bc", "LR", "KNN", "LR-s", "KNN-s", "LR-t-s",
              "KNN-t-s", "KNN-Theta-bc", "KNN-Theta-bc-t", "Holt-fixed",
              "Damped-fixed")

_S, _N, _R = "s", "count", "ratio"
_WALL = "run_wall_s"
# name -> (unit, better, moves: "<end-to-end metric> on <workloads>")
PER_LAYER = {
    "forecasters.holt.fit_s": (_S, "lower", f"{_WALL} on smoothing"),
    "forecasters.holt.fit.calls": (_N, "lower", f"{_WALL} on smoothing"),
    "forecasters.ses.fit_s": (_S, "lower", f"{_WALL} on smoothing"),
    "forecasters.theta.fit_s": (_S, "lower", f"{_WALL} on smoothing, reduction"),
    "forecasters.optimize.minimize_s": (_S, "lower", f"{_WALL} on smoothing"),
    "forecasters.optimize.calls": (_N, "lower", f"{_WALL} on smoothing"),
    "forecasters.optimize.nfev": (_N, "lower", f"{_WALL} on smoothing"),
    "forecasters.optimize.nit": (_N, "lower", f"{_WALL} on smoothing"),
    "forecasters.optimize.maxiter_hits": (_N, "lower", f"{_WALL} on smoothing"),
    "forecasters.grid_s": (_S, "lower", f"{_WALL} on smoothing"),
    "forecasters.fit.unique_ratio": (_R, "higher", f"{_WALL} on smoothing"),
    "transforms.seasonality_test_s": (_S, "lower", f"{_WALL} on reduction, harness"),
    "transforms.seasonality_test.calls": (_N, "lower", f"{_WALL} on reduction, harness"),
    "transforms.seasonality_test.pass_ratio": (_R, "higher", f"{_WALL} on reduction, harness"),
    "transforms.decompose_s": (_S, "lower", f"{_WALL} on reduction, harness"),
    "transforms.boxcox.fit_s": (_S, "lower", f"{_WALL} on reduction, harness"),
    "transforms.boxcox.nfev": (_N, "lower", f"{_WALL} on reduction, harness"),
    "transforms.detrend.fit_s": (_S, "lower", f"{_WALL} on reduction"),
    "transforms.transform_s": (_S, "lower", f"{_WALL} on reduction, rolling"),
    "transforms.fit.calls": (_N, "lower", f"{_WALL} on reduction, harness"),
    "transforms.fit.unique_ratio": (_R, "higher", f"{_WALL} on reduction, harness"),
    "compose.tabularize_s": (_S, "lower", f"{_WALL} on reduction, rolling"),
    "compose.tabularize.calls": (_N, "lower", f"{_WALL} on reduction, rolling"),
    "compose.reduction.fit_s": (_S, "lower", f"{_WALL} on reduction, rolling"),
    "compose.reduction.predict_steps": (_N, "lower", f"{_WALL} on reduction, rolling"),
    "compose.pipeline.self_s": (_S, "lower", f"{_WALL} on reduction, rolling"),
    "compose.ensemble.fit_s": (_S, "lower", f"{_WALL} on smoothing"),
    "regress.lr.fit_s": (_S, "lower", f"{_WALL} on rolling, reduction"),
    "regress.lr.predict_s": (_S, "lower", f"{_WALL} on rolling, reduction"),
    "regress.knn.fit_s": (_S, "lower", f"{_WALL} on rolling, reduction"),
    "regress.knn.predict_s": (_S, "lower", f"{_WALL} on rolling, reduction"),
    "regress.knn.predict_rows": (_N, "lower", f"{_WALL} on rolling, reduction"),
    "select.grid_search.fit_s": (_S, "lower", f"{_WALL} on reduction"),
    "select.grid_search.self_s": (_S, "lower", f"{_WALL} on reduction"),
    "select.grid_search.candidate_fits": (_N, "lower", f"{_WALL} on reduction"),
    "core.fit.calls": (_N, "lower", f"{_WALL} on rolling, smoothing"),
    "core.predict.calls": (_N, "lower", f"{_WALL} on rolling"),
    "core.update.calls": (_N, "lower", f"{_WALL} on rolling"),
    "core.update_predict.self_s": (_S, "lower", f"{_WALL} on rolling"),
    "evaluation.score_s": (_S, "lower", f"{_WALL} on harness"),
    "evaluation.rank_s": (_S, "lower", "report_wall_s, run_wall_s on harness"),
    "evaluation.tests_s": (_S, "lower", "report_wall_s on harness"),
    "m4.datasets.load_s": (_S, "lower", f"{_WALL} on harness"),
    "m4.datasets.series": (_N, "higher", f"{_WALL} on harness"),
    "m4.registry.build_s": (_S, "lower", f"{_WALL} on harness"),
    "m4.runner.task_busy_s": (_S, "lower", f"{_WALL} on harness"),
    "m4.runner.aggregate_s": (_S, "lower", f"{_WALL} on harness"),
    "m4.runner.write_s": (_S, "lower", f"{_WALL} on harness"),
    "m4.runner.bytes_written": ("bytes", "lower", f"{_WALL} on harness"),
    "m4.runner.task_p50_ms": ("ms", "lower", f"{_WALL} on every workload"),
    "m4.runner.task_p90_ms": ("ms", "lower", f"{_WALL} on every workload"),
    "m4.runner.task_samples": (_N, "higher", "sample count of the task percentiles"),
    "m4.runner.parallel_efficiency": (_R, "higher", f"{_WALL} on harness"),
    "m4.reports.read_s": (_S, "lower", "report_wall_s on harness"),
    "m4.reports.stats_s": (_S, "lower", "report_wall_s on harness"),
    "m4.published.compare_s": (_S, "lower", "report_wall_s on harness"),
}
for _model in ALL_MODELS:
    PER_LAYER[f"m4.model.{_model}.s"] = (
        _S, "lower", f"{_WALL} on the workloads that run {_model}")
PER_LAYER.update({
    "task_failed_ratio": (_R, "lower", "tasks that failed, every workload"),
    "report_wall_s": (_S, "lower", "report phase wall, harness"),
    "report_failed_ratio": (_R, "lower", "report calls that raised"),
    "trace.unattributed_s": (_S, "lower", "traced wall outside any span"),
    "trace.overhead_s": (_S, "lower", "traced minus untraced wall"),
})
