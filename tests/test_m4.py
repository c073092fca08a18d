import functools
import json
import os
import re
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ufcast.compose import (
    EnsembleForecaster,
    ReducedRegressionForecaster,
    TransformedTargetForecaster,
)
from ufcast.core import ForecastingHorizon, TimeSeries
from ufcast.evaluation import mase, smape
from ufcast.exceptions import (
    FIT_ERRORS,
    MalformedRowError,
    MissingReferenceError,
    MissingTestSeriesError,
    OptimizerFailedError,
    UnknownModelError,
)
from ufcast.forecasters import HoltForecaster, SESForecaster
from ufcast.m4.cli import _DEFAULT_MODELS
from ufcast.m4.datasets import DATASETS, load_m4
from ufcast.m4.published import (
    compare_aggregate,
    comparison_csv,
    comparison_text,
    default_published_path,
    load_published,
)
from ufcast.m4.registry import WINDOW_GRID, build_model, default_window_length
from ufcast.m4.reports import render_cd_svg, stats_report
from ufcast.m4 import runner
from ufcast.m4.runner import RunManifest, dumps_17g, read_results, run
from ufcast.regress import KNNRegressor
from ufcast.transforms import BaseTransformer
from tests.conftest import seasonal_series, write_m4_csv


class TestDatasetSpecs:
    def test_frequency_constants(self):
        assert {d.name: d.sp for d in DATASETS.values()} == {
            "yearly": 1, "quarterly": 4, "monthly": 12,
            "weekly": 1, "daily": 1, "hourly": 24,
        }
        assert {d.name: d.horizon for d in DATASETS.values()} == {
            "yearly": 6, "quarterly": 8, "monthly": 18,
            "weekly": 13, "daily": 14, "hourly": 48,
        }


class TestLoader:
    def test_roundtrip(self, mini_m4_dir):
        data = load_m4(mini_m4_dir / "Hourly-train.csv",
                       mini_m4_dir / "Hourly-test.csv", DATASETS["hourly"])
        assert [sid for sid, _, _ in data] == [f"H{i}" for i in range(1, 7)]
        for _, train, test in data:
            assert train.sp == 24
            assert len(test) == 48
            assert test.start_index == len(train)

    def test_ragged_rows_have_different_lengths(self, mini_m4_dir):
        data = load_m4(mini_m4_dir / "Hourly-train.csv",
                       mini_m4_dir / "Hourly-test.csv", DATASETS["hourly"])
        lengths = {len(train) for _, train, _ in data}
        assert len(lengths) > 1

    def test_natural_id_order(self, tmp_path):
        rows = [(f"H{i}", np.full(60, float(i))) for i in (2, 10, 1)]
        tests = [(f"H{i}", np.full(48, float(i))) for i in (2, 10, 1)]
        write_m4_csv(tmp_path / "t.csv", rows)
        write_m4_csv(tmp_path / "e.csv", tests)
        data = load_m4(tmp_path / "t.csv", tmp_path / "e.csv",
                       DATASETS["hourly"])
        assert [sid for sid, _, _ in data] == ["H1", "H2", "H10"]

    def test_non_numeric_token(self, tmp_path):
        (tmp_path / "bad.csv").write_text('"V1","V2"\n"H1",1.5,oops\n')
        with pytest.raises(MalformedRowError) as err:
            load_m4(tmp_path / "bad.csv", tmp_path / "bad.csv",
                    DATASETS["hourly"])
        assert err.value.line_no == 2

    @pytest.mark.parametrize("part", ["train", "test"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, token, part):
        # refused where it is read, with the file, line and series named
        good = '"V1","V2","V3"\n"H1",1.5,2.5\n"H2",3.5,4.5\n'
        paths = {p: tmp_path / f"{p}.csv" for p in ("train", "test")}
        for p, path in paths.items():
            path.write_text(good.replace("4.5", token) if p == part else good)
        with pytest.raises(MalformedRowError) as err:
            load_m4(paths["train"], paths["test"], DATASETS["hourly"])
        assert err.value.line_no == 3 and err.value.path == paths[part]
        assert str(err.value).endswith(
            f"non-finite value '{token}' in series H2")

    def test_gap_inside_row(self, tmp_path):
        (tmp_path / "bad.csv").write_text('"V1","V2"\n"H1",1.5,,2.5\n')
        with pytest.raises(MalformedRowError):
            load_m4(tmp_path / "bad.csv", tmp_path / "bad.csv",
                    DATASETS["hourly"])

    @pytest.mark.parametrize("rows, line_no, detail", [
        ('"H1",1.5\n"",2.5\n', 3, "missing series id"),
        ('"H1",1.5\n"H2",,\n', 3, "row has no values"),
        ('"H1",1.5\n"H2",2.5\n"H1",3.5\n', 4, "duplicate id H1"),
        # a quote left open runs the field to the end of the file
        ('"H1",1.5\n"H2,' + "2.5," * 40000 + "\n", 3,
         r"field larger than field limit \(131072\)"),
    ], ids=["missing-id", "no-values", "duplicate-id", "unclosed-quote"])
    def test_malformed_row(self, tmp_path, rows, line_no, detail):
        (tmp_path / "bad.csv").write_text('"V1","V2"\n' + rows)
        with pytest.raises(MalformedRowError, match=detail) as err:
            load_m4(tmp_path / "bad.csv", tmp_path / "bad.csv",
                    DATASETS["hourly"])
        assert err.value.line_no == line_no
        assert err.value.path == tmp_path / "bad.csv"

    @pytest.mark.parametrize("text, line_no", [
        ("", 1), ('"V1","V2"\n', 2), ('"V1","V2"\n\n,,\n', 4),
    ], ids=["empty", "header-only", "blank-rows"])
    def test_no_series_after_the_header(self, tmp_path, text, line_no):
        (tmp_path / "t.csv").write_text(text)
        write_m4_csv(tmp_path / "e.csv", [("H1", np.arange(1.0, 49.0))])
        with pytest.raises(MalformedRowError,
                           match="no series after the header") as err:
            load_m4(tmp_path / "t.csv", tmp_path / "e.csv", DATASETS["hourly"])
        assert err.value.line_no == line_no
        assert err.value.path == tmp_path / "t.csv"

    def test_missing_test_series(self, tmp_path):
        write_m4_csv(tmp_path / "t.csv", [("H1", np.arange(1.0, 61.0))])
        write_m4_csv(tmp_path / "e.csv", [("H2", np.arange(1.0, 49.0))])
        with pytest.raises(MissingTestSeriesError):
            load_m4(tmp_path / "t.csv", tmp_path / "e.csv", DATASETS["hourly"])

    def test_wrong_test_length(self, tmp_path):
        write_m4_csv(tmp_path / "t.csv", [("H1", np.arange(1.0, 61.0))])
        write_m4_csv(tmp_path / "e.csv", [("H1", np.arange(1.0, 11.0))])
        with pytest.raises(MissingTestSeriesError):
            load_m4(tmp_path / "t.csv", tmp_path / "e.csv", DATASETS["hourly"])


class TestRegistry:
    def test_window_rule(self):
        assert default_window_length(24) == 24
        assert default_window_length(1) == 3
        assert default_window_length(24, rule="min") == 3
        assert default_window_length(1, rule="min") == 1

    def test_com_is_mean_of_components(self):
        y = seasonal_series(120, sp=12, seed=31)
        com = build_model("Com", sp=12, horizon=18).fit(y)
        assert isinstance(com, EnsembleForecaster)
        parts = [build_model(m, sp=12, horizon=18).fit(y)
                 for m in ("SES", "Holt", "Damped")]
        fh = ForecastingHorizon.out_to(18)
        manual = np.mean([p.predict(fh).values for p in parts], axis=0)
        np.testing.assert_allclose(com.predict(fh).values, manual, rtol=1e-12)

    def test_naive2_without_seasonality_is_naive(self):
        y = seasonal_series(80, sp=1, seed=32)
        naive2 = build_model("Naive2", sp=1, horizon=6).fit(y)
        naive = build_model("Naive", sp=1, horizon=6).fit(y)
        fh = ForecastingHorizon.out_to(6)
        np.testing.assert_array_equal(naive2.predict(fh).values,
                                      naive.predict(fh).values)

    def test_tuned_models_search_published_window_grid(self):
        for name in ("KNN-t-s", "LR-t-s", "KNN-Theta-bc-t"):
            model = build_model(name, sp=24, horizon=48)
            assert model.param_grid == {
                "forecast.window_length": [3, 4, 6, 8, 10, 12, 15, 18, 21, 24]
            }
            assert model.cv.mode == "single"
            assert list(model.cv.fh) == list(range(1, 49))
        assert WINDOW_GRID == [3, 4, 6, 8, 10, 12, 15, 18, 21, 24]

    def test_untuned_window_length_follows_rule(self):
        m_max = build_model("KNN-s", sp=24, horizon=48)
        m_min = build_model("KNN-s", sp=24, horizon=48, window_rule="min")
        assert m_max.get_params()["forecast.window_length"] == 24
        assert m_min.get_params()["forecast.window_length"] == 3

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            build_model("Telepathy", sp=1, horizon=6)

    def test_external_regressor_seam(self):
        with pytest.raises(UnknownModelError):
            build_model("RF-s", sp=4, horizon=8)
        model = build_model("RF-s", sp=4, horizon=8,
                            external_regressors={"RF": lambda: KNNRegressor(2)})
        y = seasonal_series(60, sp=4, seed=33)
        assert np.isfinite(model.fit(y).predict([1, 2]).values).all()

    def test_boosted_pipeline_shape(self):
        model = build_model("KNN-Theta-bc", sp=24, horizon=48)
        assert isinstance(model, TransformedTargetForecaster)
        names = [name for name, _ in model.steps]
        assert names == ["detrend", "standardize", "forecast"]

    def test_every_registry_name_constructible(self):
        external = {"RF": lambda: KNNRegressor(2),
                    "XGB": lambda: KNNRegressor(3)}
        from ufcast.m4.registry import KNOWN_MODELS

        for name in KNOWN_MODELS:
            assert build_model(name, sp=4, horizon=8,
                               external_regressors=external) is not None


def _record_pools(monkeypatch):
    """Replace the process pool with an in-process one that records its
    arguments."""
    created = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            created.append({"max_workers": max_workers})
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            created[-1]["chunksize"] = chunksize
            return map(fn, tasks)

    monkeypatch.setattr(runner.concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(runner, "_evaluate_series",
                        lambda task, external_regressors: task)
    monkeypatch.setattr(runner, "_EXTERNAL_REGRESSORS", None)
    return created


@pytest.fixture(scope="module")
def mini_run(mini_m4_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("results") / "results.jsonl"
    manifest = RunManifest(
        datasets=["hourly"],
        models=["Naive", "sNaive", "SES", "Theta-bc", "KNN-s"],
        train_dir=str(mini_m4_dir), test_dir=str(mini_m4_dir),
        out_path=str(out), jobs=1, mase_denominator="train_only",
    )
    aggregate = run(manifest)
    return manifest, out, aggregate


class TestRunner:
    def test_records_complete(self, mini_run):
        _, out, _ = mini_run
        records, errors, aggregate = read_results(out)
        assert not errors
        assert len(records) == 6 * 6  # five models + implicit Naive2
        assert aggregate["datasets"]["hourly"]["n_series"] == 6

    def test_implicit_naive2_reference(self, mini_run):
        _, _, aggregate = mini_run
        models = aggregate["datasets"]["hourly"]["models"]
        assert "Naive2" in models
        assert models["Naive2"]["owa"] == 1.0

    def test_smape_bounds_and_rank_sum(self, mini_run):
        _, out, aggregate = mini_run
        records, _, _ = read_results(out)
        assert all(0.0 <= r.smape <= 200.0 for r in records)
        models = aggregate["datasets"]["hourly"]["models"]
        ranks = [m["mean_rank_smape"] for m in models.values()]
        k = len(models)
        assert sum(ranks) == pytest.approx(k * (k + 1) / 2)

    def test_parallel_matches_serial_bitwise(self, mini_run, tmp_path):
        manifest, out, _ = mini_run
        par = RunManifest(**{**manifest.__dict__,
                             "out_path": str(tmp_path / "par.jsonl"),
                             "jobs": 8})
        run(par)

        def canon(path):
            lines = []
            for line in open(path):
                obj = json.loads(line)
                obj.pop("runtime_s", None)
                if obj.get("type") == "aggregate":
                    obj.pop("total_runtime_s", None)
                    for block in obj["datasets"].values():
                        for m in block["models"].values():
                            m.pop("runtime_s", None)
                lines.append(json.dumps(obj, sort_keys=True))
            return lines

        assert canon(out) == canon(tmp_path / "par.jsonl")

    def test_error_isolation(self, mini_m4_dir, tmp_path):
        # one extra series too short for the KNN-s window: that model
        # records an error there, every other aggregate is unaffected
        data = load_m4(mini_m4_dir / "Hourly-train.csv",
                       mini_m4_dir / "Hourly-test.csv", DATASETS["hourly"])
        rows_t = [(sid, t.values) for sid, t, _ in data]
        rows_e = [(sid, e.values) for sid, _, e in data]
        short = seasonal_series(30, sp=24, seed=77).values
        rows_t.append(("H7", short[:20]))
        rows_e.append(("H7", seasonal_series(48, sp=24, seed=78).values))
        write_m4_csv(tmp_path / "Hourly-train.csv", rows_t)
        write_m4_csv(tmp_path / "Hourly-test.csv", rows_e)

        manifest = RunManifest(
            datasets=["hourly"], models=["Naive", "KNN-s"],
            train_dir=str(tmp_path), test_dir=str(tmp_path),
            out_path=str(tmp_path / "r.jsonl"), jobs=1,
        )
        aggregate = run(manifest)
        records, errors, _ = read_results(tmp_path / "r.jsonl")
        failing = {e["model"] for e in errors}
        assert failing == {"KNN-s"}
        models = aggregate["datasets"]["hourly"]["models"]
        assert models["KNN-s"]["n_failed"] == 1
        assert models["Naive"]["n_series"] == 7
        assert models["Naive"]["n_failed"] == 0
        # errored series still contributes to the other models' aggregates
        naive_h7 = [r for r in records if r.model == "Naive"
                    and r.series_id == "H7"]
        assert len(naive_h7) == 1

    def test_perfect_naive2_leaves_owa_empty_and_keeps_the_run(self,
                                                                tmp_path):
        # Naive2 (the naive forecast, for yearly data) hits every test
        # value, so SES's OWA would divide its nonzero errors by zero
        train = [10, 12, 11, 13, 12, 14, 13, 15, 14, 16, 15, 17, 16, 20]
        write_m4_csv(tmp_path / "Yearly-train.csv", [("Y1", train)])
        write_m4_csv(tmp_path / "Yearly-test.csv", [("Y1", [20.0] * 6)])
        manifest = RunManifest(
            datasets=["yearly"], models=["Naive", "SES"],
            train_dir=str(tmp_path), test_dir=str(tmp_path),
            out_path=str(tmp_path / "r.jsonl"),
        )
        models = run(manifest)["datasets"]["yearly"]["models"]
        assert models["SES"]["mean_smape"] > 0.0
        assert models["SES"]["owa"] is None
        assert models["Naive"]["owa"] == models["Naive2"]["owa"] == 1.0
        records, errors, aggregate = read_results(tmp_path / "r.jsonl")
        assert len(records) == 3 and not errors
        assert aggregate["datasets"]["yearly"]["models"] == models

    def test_failed_run_clears_external_regressors(self, tmp_path):
        manifest = RunManifest(
            datasets=["hourly"], models=["RF"], train_dir=str(tmp_path),
            test_dir=str(tmp_path), out_path=str(tmp_path / "r.jsonl"),
        )
        with pytest.raises(FileNotFoundError):
            run(manifest, external_regressors={"RF": lambda: KNNRegressor(2)})
        assert runner._EXTERNAL_REGRESSORS is None

    # non-integers too: a float would otherwise reach the process pool
    @pytest.mark.parametrize("jobs", [0, -2, 1.5, 2.0, True, "2", None])
    def test_jobs_below_one_rejected_before_reading(self, tmp_path, jobs):
        # the data directory is empty: a FileNotFoundError would mean the
        # check came after the first read
        manifest = RunManifest(
            datasets=["hourly"], models=["Naive"], train_dir=str(tmp_path),
            test_dir=str(tmp_path), out_path=str(tmp_path / "r.jsonl"),
            jobs=jobs,
        )
        with pytest.raises(ValueError, match="jobs"):
            run(manifest)
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("fields, error, message", [
        # each listing would write a dataset's rows, or a model's row per
        # series, once more
        ({"datasets": ["yearly", "yearly"]}, ValueError,
         "datasets listed more than once: yearly"),
        ({"models": ["SES", "SES", "Naive"]}, ValueError,
         "models listed more than once: SES"),
        ({"models": ["Naive2", "SES", "Naive2", "SES"]}, ValueError,
         "models listed more than once: Naive2, SES"),
        # would evaluate yearly, then raise KeyError with nothing written
        ({"datasets": ["yearly", "bogus"]}, ValueError,
         "unknown datasets: bogus"),
        ({"datasets": ["yearly", 3]}, ValueError, "unknown datasets: 3"),
        # each case below would write error rows, one per series
        ({"models": ["Nonsense", "SES"]}, UnknownModelError,
         "unknown model 'Nonsense'"),
        ({"models": ["RF"]}, UnknownModelError,
         "RF requires an external regressor factory"),
        ({"mase_denominator": "bogus"}, ValueError,
         "unknown MASE denominator 'bogus'"),
        ({"window_rule": "bogus"}, ValueError, "unknown window rule 'bogus'"),
        # the implied Naive2 reference is built with the rule too
        ({"models": [], "window_rule": "bogus"}, ValueError,
         "unknown window rule 'bogus'"),
    ], ids=["repeated-dataset", "repeated-model", "repeated-models",
            "unknown-dataset", "non-string-dataset", "unknown-model",
            "no-factory", "unknown-mase-denominator", "unknown-window-rule",
            "unknown-window-rule-no-models"])
    def test_bad_manifest_rejected_before_reading(self, tmp_path, monkeypatch,
                                                  fields, error, message):
        # readable yearly files, so that only the check stops the run
        full = [seasonal_series(26, sp=1, seed=i).values for i in range(3)]
        write_m4_csv(tmp_path / "Yearly-train.csv",
                     [(f"Y{i}", v[:20]) for i, v in enumerate(full)])
        write_m4_csv(tmp_path / "Yearly-test.csv",
                     [(f"Y{i}", v[20:]) for i, v in enumerate(full)])
        reads = []
        monkeypatch.setattr(runner, "load_m4",
                            lambda *args: reads.append(args) or load_m4(*args))
        manifest = RunManifest(**{
            "datasets": ["yearly"], "models": ["SES", "Naive"],
            "train_dir": str(tmp_path), "test_dir": str(tmp_path),
            "out_path": str(tmp_path / "r.jsonl"), **fields,
        })
        with pytest.raises(error, match=re.escape(message)):
            run(manifest)
        assert reads == []
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("jobs, n_tasks, pool_workers", [
        (8, 3, 3), (2, 5, 2), (8, 1, None), (1, 4, None),
    ])
    def test_pool_never_exceeds_task_count(self, monkeypatch, jobs, n_tasks,
                                           pool_workers):
        # a fork pool starts all max_workers at once; record the request
        # instead of starting any process
        created = _record_pools(monkeypatch)
        tasks = list(range(n_tasks))
        assert runner._run_tasks(tasks, jobs) == tasks
        assert [pool["max_workers"] for pool in created] == (
            [] if pool_workers is None else [pool_workers])

    @pytest.mark.parametrize("n_tasks, chunksize", [
        (5, 1), (32, 1), (250, 7), (2500, 78),
    ])
    def test_pool_chunks_follow_task_count(self, monkeypatch, n_tasks,
                                           chunksize):
        # many chunks per worker even when a task is a whole series
        created = _record_pools(monkeypatch)
        runner._run_tasks(list(range(n_tasks)), 2)
        assert [pool["chunksize"] for pool in created] == [chunksize]

    def test_seventeen_digit_serialisation(self):
        line = dumps_17g({"x": 1.0 / 3.0, "n": 3, "s": "a", "b": True,
                          "none": None, "arr": [0.1]})
        assert json.loads(line)["x"] == 1.0 / 3.0
        assert "0.33333333333333331" in line

    def test_naive_family_against_straight_line_oracle(self, mini_m4_dir,
                                                       tmp_path):
        """Re-derive every naive-family record with independent code:
        direct formulas for the forecasts and the metrics, no library
        machinery."""
        from ufcast.transforms import classical_decompose, seasonality_test

        manifest = RunManifest(
            datasets=["hourly"], models=["Naive", "sNaive", "Naive2"],
            train_dir=str(mini_m4_dir), test_dir=str(mini_m4_dir),
            out_path=str(tmp_path / "oracle.jsonl"), jobs=1,
            mase_denominator="train_only",
        )
        run(manifest)
        records, errors, _ = read_results(tmp_path / "oracle.jsonl")
        assert not errors
        by_key = {(r.model, r.series_id): r for r in records}

        data = load_m4(mini_m4_dir / "Hourly-train.csv",
                       mini_m4_dir / "Hourly-test.csv", DATASETS["hourly"])
        sp, horizon = 24, 48
        for sid, train, test in data:
            y, z = train.values, test.values
            T = y.size
            forecasts = {
                "Naive": np.full(horizon, y[-1]),
                "sNaive": y[T - sp + (np.arange(horizon) % sp)],
            }
            if seasonality_test(train, sp):
                idx = classical_decompose(train, sp).indices
                des_last = (y / idx[np.arange(T) % sp])[-1]
                forecasts["Naive2"] = des_last * idx[(T + np.arange(horizon)) % sp]
            else:
                forecasts["Naive2"] = forecasts["Naive"]
            for model, pred in forecasts.items():
                expected_smape = float(
                    np.mean(200.0 * np.abs(z - pred) / (np.abs(z) + np.abs(pred)))
                )
                expected_mase = float(
                    np.mean(np.abs(z - pred))
                    / np.mean(np.abs(y[sp:] - y[:-sp]))
                )
                got = by_key[(model, sid)]
                assert got.smape == pytest.approx(expected_smape, rel=1e-12)
                assert got.mase == pytest.approx(expected_mase, rel=1e-12)

    def test_mase_flag_changes_records(self, mini_m4_dir, tmp_path):
        base = dict(datasets=["hourly"], models=["Naive"],
                    train_dir=str(mini_m4_dir), test_dir=str(mini_m4_dir),
                    jobs=1)
        a = run(RunManifest(out_path=str(tmp_path / "a.jsonl"),
                            mase_denominator="as_formula", **base))
        b = run(RunManifest(out_path=str(tmp_path / "b.jsonl"),
                            mase_denominator="train_only", **base))
        ma = a["datasets"]["hourly"]["models"]["Naive"]["mean_mase"]
        mb = b["datasets"]["hourly"]["models"]["Naive"]["mean_mase"]
        assert ma != mb


# two quarterly series; the first is short enough to single out
_QUARTERLY = [("Q1", 26), ("Q2", 36)]


@pytest.fixture
def quarterly_dir(tmp_path):
    train_rows, test_rows = [], []
    for i, (sid, n) in enumerate(_QUARTERLY, start=1):
        full = seasonal_series(n=n + 8, sp=4, level=40.0 + 7 * i,
                               slope=0.4 * i, amp=0.15, noise=0.03 * i,
                               seed=900 + i).values
        train_rows.append((sid, full[:n]))
        test_rows.append((sid, full[n:]))
    write_m4_csv(tmp_path / "Quarterly-train.csv", train_rows)
    write_m4_csv(tmp_path / "Quarterly-test.csv", test_rows)
    return tmp_path


# every runtime field follows another key, so it is always ", "-prefixed
_RUNTIME_FIELD = re.compile(r', "(?:total_)?runtime_s": [-+0-9.eE]+')


def _run_rows(directory, models, jobs=1, external_regressors=None):
    """Rows of a quarterly run, each without its runtime."""
    out = directory / f"r{jobs}.jsonl"
    run(RunManifest(datasets=["quarterly"], models=models,
                    train_dir=str(directory), test_dir=str(directory),
                    out_path=str(out), jobs=jobs),
        external_regressors=external_regressors)
    rows = [json.loads(line) for line in out.read_text().splitlines()][:-1]
    for row in rows:
        del row["runtime_s"]
    return rows


def _standalone_row(model, directory, sid):
    """The row of a fresh ``build_model(model)`` fit and forecast on its
    own, as the runner wrote it before tasks shared fits."""
    spec = DATASETS["quarterly"]
    (train, test), = [(t, e) for s, t, e in load_m4(
        directory / "Quarterly-train.csv", directory / "Quarterly-test.csv",
        spec) if s == sid]
    row = {"type": "record", "dataset": "quarterly", "series_id": sid,
           "model": model}
    try:
        forecast = build_model(model, sp=4, horizon=8).fit(train).predict(
            ForecastingHorizon.out_to(8)).values
        row["smape"] = smape(test.values, forecast)
        row["mase"] = mase(test.values, forecast, train.values, 4)
    except FIT_ERRORS as exc:
        row["type"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


class TestOpenOutputs:
    def test_every_file_appears_with_the_mode_open_gives(self, tmp_path):
        (tmp_path / "b.svg").write_text("old")
        with open(tmp_path / "plain", "w"):
            pass
        with runner.open_outputs([tmp_path / "a.json",
                                  str(tmp_path / "b.svg")]) as (a, b):
            a.write("one\n")
            b.write("two")
            assert not (tmp_path / "a.json").exists()
            assert (tmp_path / "b.svg").read_text() == "old"
        assert sorted(os.listdir(tmp_path)) == ["a.json", "b.svg", "plain"]
        assert (tmp_path / "a.json").read_text() == "one\n"
        assert (tmp_path / "b.svg").read_text() == "two"
        mode = (tmp_path / "plain").stat().st_mode
        assert (tmp_path / "a.json").stat().st_mode == mode
        assert (tmp_path / "b.svg").stat().st_mode == mode

    def test_an_error_in_the_block_leaves_nothing(self, tmp_path):
        (tmp_path / "b.svg").write_text("old")
        with pytest.raises(ZeroDivisionError):
            with runner.open_outputs([tmp_path / "a.json",
                                      tmp_path / "b.svg"]) as (a, b):
                a.write("one\n")
                1 / 0
        assert os.listdir(tmp_path) == ["b.svg"]
        assert (tmp_path / "b.svg").read_text() == "old"

    @pytest.mark.parametrize("bad, error", [
        ("nodir/b.svg", FileNotFoundError), ("adir", IsADirectoryError),
        ("newname/", IsADirectoryError),
    ])
    def test_a_bad_path_is_refused_on_entry(self, tmp_path, bad, error):
        (tmp_path / "adir").mkdir()
        bad = os.path.join(tmp_path, bad)  # keeps a trailing slash
        entered = False
        with pytest.raises(error) as err:
            with runner.open_outputs([tmp_path / "a.json", bad]):
                entered = True
        assert not entered
        assert err.value.filename == bad
        assert os.listdir(tmp_path) == ["adir"]

    def test_an_existing_file_keeps_its_mode_and_links(self, tmp_path):
        path, link = tmp_path / "r.json", tmp_path / "hard.json"
        path.write_text("old")
        path.chmod(0o600)
        os.link(path, link)
        inode = path.stat().st_ino
        with runner.open_outputs([path]) as (fh,):
            fh.write("new")
            assert path.read_text() == "old"
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert link.read_text() == "new"
        assert sorted(os.listdir(tmp_path)) == ["hard.json", "r.json"]

    def test_a_read_only_file_is_refused_as_open_refuses_it(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old")
        path.chmod(0o444)
        try:
            open(path, "a").close()  # what open(path, "w") would allow
        except PermissionError:
            with pytest.raises(PermissionError) as err:
                with runner.open_outputs([path]):
                    pytest.fail("entered")
            assert err.value.filename == str(path)
            assert path.read_text() == "old"
        else:  # a superuser may write it, as open(path, "w") does
            with runner.open_outputs([path]) as (fh,):
                fh.write("new")
            assert path.read_text() == "new"
        assert stat.S_IMODE(path.stat().st_mode) == 0o444
        assert os.listdir(tmp_path) == ["r.json"]

    @pytest.mark.parametrize("exists", [True, False],
                             ids=["to-a-file", "dangling"])
    def test_a_symlink_is_written_through(self, tmp_path, exists):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        if exists:
            real.write_text("old")
        link.symlink_to(real)
        with runner.open_outputs([link]) as (fh,):
            fh.write("new")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "new"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_a_device_is_written_through_never_replaced(self):
        before = os.stat(os.devnull)
        assert stat.S_ISCHR(before.st_mode)
        with runner.open_outputs([os.devnull]) as (fh,):
            fh.write("discarded")
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode)
        assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)


class TestReadResults:
    """``read_results`` checks every row it hands on."""

    @staticmethod
    def _row(**fields):
        row = {"type": "record", "series_id": "Y1", "model": "Naive",
               "dataset": "yearly", "smape": 1.0, "mase": 2, "runtime_s": 0.5}
        return {k: v for k, v in {**row, **fields}.items() if v != "-"}

    @pytest.mark.parametrize("fields, detail", [
        ({"series_id": 1}, "'series_id' is not a string"),
        ({"model": "-"}, "'model' is not a string"),
        ({"dataset": None}, "'dataset' is not a string"),
        ({"smape": "-"}, "'smape' is not a number in float range"),
        ({"mase": True}, "'mase' is not a number in float range"),
        ({"runtime_s": "0.5"}, "'runtime_s' is not a number in float range"),
        ({"smape": [1.0]}, "'smape' is not a number in float range"),
        ({"smape": 2 ** 1024}, "'smape' is not a number in float range"),
    ], ids=["id-int", "no-model", "dataset-null", "no-smape", "mase-bool",
            "runtime-string", "smape-list", "smape-past-float-range"])
    def test_bad_record_field(self, tmp_path, fields, detail):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(self._row()) + "\n"
                        + json.dumps(self._row(**fields)) + "\n")
        with pytest.raises(MalformedRowError) as err:
            read_results(path)
        assert str(err.value) == (
            f"malformed row at line 2 of {path}: record field {detail}")

    @pytest.mark.parametrize("datasets, detail", [
        ("-", "aggregate 'datasets' is not an object of objects"),
        ([], "aggregate 'datasets' is not an object of objects"),
        ({"yearly": 3}, "aggregate 'datasets' is not an object of objects"),
        ({"yearly": {}},
         "aggregate 'models' of dataset 'yearly' is not an object of objects"),
        ({"yearly": {"models": {"Naive": None}}},
         "aggregate 'models' of dataset 'yearly' is not an object of objects"),
        ({"yearly": {"models": {"Naive": {"mean_smape": "1.5"}}}},
         "aggregate 'mean_smape' of 'Naive' in dataset 'yearly' is not a "
         "number or null"),
        ({"yearly": {"models": {"Naive": {"owa": False}}}},
         "aggregate 'owa' of 'Naive' in dataset 'yearly' is not a number or "
         "null"),
    ], ids=["missing", "list", "dataset-int", "no-models", "entry-null",
            "entry-string", "entry-bool"])
    def test_bad_aggregate(self, tmp_path, datasets, detail):
        path = tmp_path / "r.jsonl"
        row = {"type": "aggregate", "datasets": datasets}
        path.write_text(json.dumps({k: v for k, v in row.items()
                                    if v != "-"}) + "\n")
        with pytest.raises(MalformedRowError) as err:
            read_results(path)
        assert str(err.value) == f"malformed row at line 1 of {path}: {detail}"

    def test_non_finite_scores_still_load(self, tmp_path):
        # ``stats`` refuses them later, with its own message
        path = tmp_path / "r.jsonl"
        path.write_text('{"type": "record", "series_id": "Y1", "model": "a", '
                        '"dataset": "yearly", "smape": NaN, "mase": Infinity,'
                        ' "runtime_s": 0}\n')
        (record,), _, _ = read_results(path)
        assert record.smape != record.smape and record.mase == float("inf")


class TestPerSeriesTasks:
    """One task runs every model on one series; ``Com``'s SES, Holt and
    Damped pipelines take the fits those models made in the same task."""

    def _assert_standalone(self, rows, directory, model="Com"):
        got = [r for r in rows if r["model"] == model]
        assert [r["series_id"] for r in got] == [sid for sid, _ in _QUARTERLY]
        for row in got:
            expected = _standalone_row(model, directory, row["series_id"])
            assert dumps_17g(row) == dumps_17g(expected)
        return got

    @pytest.mark.parametrize("damped", [False, True], ids=["Holt", "Damped"])
    def test_component_fit_error_is_coms_error(self, quarterly_dir,
                                               monkeypatch, damped):
        estimate = HoltForecaster._estimate

        def failing(self, values):
            if self.damped is damped and len(values) < 30:
                raise OptimizerFailedError("injected failure")
            return estimate(self, values)

        monkeypatch.setattr(HoltForecaster, "_estimate", failing)
        rows = _run_rows(quarterly_dir, ["SES", "Holt", "Damped", "Com"])
        com = self._assert_standalone(rows, quarterly_dir)
        assert [r["type"] for r in com] == ["error", "record"]
        assert com[0]["error"] == "OptimizerFailedError: injected failure"
        failed = {r["model"] for r in rows if r["type"] == "error"}
        assert failed == {"Damped" if damped else "Holt", "Com"}

    def test_non_finite_component_forecast_fails_com(self, quarterly_dir,
                                                     monkeypatch):
        predict_ahead = SESForecaster._predict_ahead

        def non_finite(self, steps):
            if len(self._y) < 30:
                return np.full(steps.size, np.inf)
            return predict_ahead(self, steps)

        monkeypatch.setattr(SESForecaster, "_predict_ahead", non_finite)
        rows = _run_rows(quarterly_dir, ["SES", "Holt", "Damped", "Com"])
        com = self._assert_standalone(rows, quarterly_dir)
        assert [r["type"] for r in com] == ["error", "record"]
        assert com[0]["error"].startswith("NonFiniteInputError")

    def test_com_without_its_components(self, quarterly_dir):
        rows = _run_rows(quarterly_dir, ["Com"])
        assert {r["model"] for r in rows} == {"Com", "Naive2"}
        com = self._assert_standalone(rows, quarterly_dir)
        assert [r["type"] for r in com] == ["record", "record"]

    def test_each_smoothing_model_fitted_once(self, quarterly_dir,
                                              monkeypatch):
        calls = Counter()
        for cls in (HoltForecaster, SESForecaster):
            def counting(self, *args, _fit=cls.fit, **kwargs):
                calls[type(self).__name__] += 1
                return _fit(self, *args, **kwargs)

            monkeypatch.setattr(cls, "fit", counting)
        rows = _run_rows(quarterly_dir, _DEFAULT_MODELS.split(","))
        assert len(rows) == 9 * len(_QUARTERLY)
        # Holt and Damped per series, not again inside Com
        assert calls == {"HoltForecaster": 2 * len(_QUARTERLY),
                         "SESForecaster": len(_QUARTERLY)}

    def test_model_order_does_not_change_the_output(self, quarterly_dir):
        models = _DEFAULT_MODELS.split(",")
        outputs = []
        for name, order in (("default", models), ("reversed", models[::-1])):
            out = quarterly_dir / f"{name}.jsonl"
            run(RunManifest(datasets=["quarterly"], models=order,
                            train_dir=str(quarterly_dir),
                            test_dir=str(quarterly_dir), out_path=str(out)))
            *rows, aggregate = _RUNTIME_FIELD.sub(
                "", out.read_text()).splitlines()
            outputs.append((rows, json.loads(aggregate)))
        (rows, aggregate), (rows_reversed, aggregate_reversed) = outputs
        # Com before its components makes the same rows, byte for byte
        assert rows_reversed == rows
        assert aggregate_reversed["manifest"]["models"] == models[::-1]
        aggregate_reversed["manifest"]["models"] = models
        entries = aggregate["datasets"]["quarterly"]["models"]
        entries_reversed = aggregate_reversed["datasets"]["quarterly"]["models"]
        assert list(entries_reversed) == models[::-1]
        assert {m: dumps_17g(e) for m, e in entries_reversed.items()} \
            == {m: dumps_17g(e) for m, e in entries.items()}

    def test_external_regressors_reach_pool_workers(self, quarterly_dir):
        external = {"RF": functools.partial(KNNRegressor, k=2)}
        serial = _run_rows(quarterly_dir, ["RF", "RF-s"], jobs=1,
                           external_regressors=external)
        pooled = _run_rows(quarterly_dir, ["RF", "RF-s"], jobs=2,
                           external_regressors=external)
        assert all(r["type"] == "record" for r in pooled)
        assert pooled == serial
        assert runner._EXTERNAL_REGRESSORS is None


class TestTaskPrefixCache:
    """A task's pipelines share their fitted steps."""

    MODELS = ["LR-s", "KNN-s", "LR-t-s", "KNN-t-s", "KNN-Theta-bc",
              "KNN-Theta-bc-t", "Naive2"]

    def test_each_distinct_transformer_fit_runs_once(self, monkeypatch):
        fits = Counter()
        fit = BaseTransformer.fit

        def counting_fit(self, y):
            params = sorted((k, repr(v)) for k, v in self.get_params().items())
            fits[(type(self).__name__, repr(params), y.values.tobytes(),
                  y.start_index, y.sp)] += 1
            return fit(self, y)

        monkeypatch.setattr(BaseTransformer, "fit", counting_fit)
        spec = DATASETS["hourly"]
        full = seasonal_series(n=168 + spec.horizon, sp=spec.sp, seed=77).values
        task = ("hourly", spec.sp, spec.horizon, self.MODELS, "H1",
                full[:168].tolist(), full[168:].tolist(), "as_formula", "max")
        rows = runner._evaluate_series(task, None)
        assert [r["type"] for r in rows] == ["record"] * len(self.MODELS)
        by_class = Counter(key[0] for key in fits)
        assert set(by_class) == {"Deseasonalizer", "BoxCoxTransformer",
                                 "Detrender", "Standardizer"}
        assert max(fits.values()) == 1

    def test_non_seasonal_reductions_share_their_final_fits(self,
                                                            monkeypatch):
        fits = []
        fit = ReducedRegressionForecaster.fit

        def recording_fit(self, y, fh=None):
            fits.append(self)
            return fit(self, y, fh)

        monkeypatch.setattr(ReducedRegressionForecaster, "fit", recording_fit)
        spec = DATASETS["yearly"]
        full = seasonal_series(n=30 + spec.horizon, sp=1, seed=5).values
        models = ["LR", "KNN", "LR-s", "KNN-s"]
        task = ("yearly", spec.sp, spec.horizon, models, "Y1",
                full[:30].tolist(), full[30:].tolist(), "as_formula", "max")
        rows = {r["model"]: r for r in runner._evaluate_series(task, None)}
        # with sp 1 the seasonal adjustment is the identity, so LR-s and
        # KNN-s take the reductions LR and KNN fitted
        assert len(fits) == 2
        for model in ("LR", "KNN"):
            assert rows[model]["type"] == "record"
            assert (rows[f"{model}-s"]["smape"], rows[f"{model}-s"]["mase"]) \
                == (rows[model]["smape"], rows[model]["mase"])


class TestCompare:
    def test_identical_gives_zero(self, mini_run, tmp_path):
        _, out, aggregate = mini_run
        models = aggregate["datasets"]["hourly"]["models"]
        lines = ["model,dataset,metric,value"]
        for m, entry in models.items():
            lines += [
                f"{m},hourly,smape,{entry['mean_smape']!r}",
                f"{m},hourly,mase,{entry['mean_mase']!r}",
                f"{m},hourly,owa,{entry['owa']!r}",
            ]
        pub_path = tmp_path / "pub.csv"
        pub_path.write_text("\n".join(lines))
        rows = compare_aggregate(aggregate, load_published(pub_path))
        assert rows and all(abs(r["diff_pct"]) < 1e-9 for r in rows)
        text = comparison_text(rows)
        assert "0.000" in text and "Naive" in text

    def test_hand_percentage(self):
        aggregate = {"datasets": {"hourly": {"models": {"Naive": {
            "mean_smape": 9.0, "mean_mase": None, "owa": None,
        }}}}}
        rows = compare_aggregate(aggregate,
                                 {("Naive", "hourly", "smape"): 10.0})
        assert rows[0]["diff_pct"] == pytest.approx(-10.0)

    def test_missing_reference(self):
        aggregate = {"datasets": {"hourly": {"models": {"Mystery": {
            "mean_smape": 9.0, "mean_mase": None, "owa": None,
        }}}}}
        with pytest.raises(MissingReferenceError):
            compare_aggregate(aggregate, {})

    def test_vendored_table(self):
        pub = load_published()
        assert pub[("Naive", "hourly", "smape")] == 43.003
        assert pub[("Naive", "hourly", "mase")] == 11.608
        assert pub[("sNaive", "hourly", "smape")] == 13.912
        assert pub[("Naive2", "hourly", "smape")] == 18.383
        assert pub[("LR-s", "hourly", "owa")] == 0.501
        assert pub[("KNN-s", "hourly", "owa")] == 0.544
        assert pub[("Naive2", "total", "smape")] == 13.564
        assert pub[("Naive2", "total", "mase")] == 1.912
        assert pub[("Naive2", "total", "owa")] == 1.0
        assert default_published_path().exists()

    def test_csv_rendering_parses_back(self):
        rows = [{"model": "Naive", "dataset": "hourly", "metric": "smape",
                 "replicated": 43.003, "published": 43.003, "diff_pct": 0.0}]
        text = comparison_csv(rows)
        assert text.splitlines()[0] == \
            "model,dataset,metric,replicated,published,diff_pct"
        assert "43.003" in text


class TestStatsReports:
    def _fixture_records(self):
        # ten series, three models, identical orderings: Friedman chi2 = 20
        from ufcast.evaluation import EvalRecord

        recs = []
        for i in range(10):
            for j, model in enumerate("abc"):
                recs.append(EvalRecord(
                    series_id=f"s{i}", model=model, smape=float(j + 1),
                    mase=1.0, dataset="hourly",
                ))
        return recs

    def test_friedman_matches_hand_value(self):
        rep = stats_report(self._fixture_records(), "friedman", "smape")
        block = rep["datasets"]["hourly"]
        assert block["chi2"] == pytest.approx(20.0)
        assert block["p"] < 0.001
        assert [m["model"] for m in block["mean_ranks"]] == ["a", "b", "c"]

    def test_nemenyi_groups_identical_models(self):
        from ufcast.evaluation import EvalRecord

        recs = []
        rng = np.random.default_rng(9)
        scores = rng.uniform(1, 5, 12)
        for i in range(12):
            # two models with identical scores, one clearly worse
            recs.append(EvalRecord(f"s{i}", "twin1", smape=float(scores[i]),
                                   mase=1.0, dataset="hourly"))
            recs.append(EvalRecord(f"s{i}", "twin2", smape=float(scores[i]),
                                   mase=1.0, dataset="hourly"))
            recs.append(EvalRecord(f"s{i}", "bad", smape=float(scores[i] + 50),
                                   mase=1.0, dataset="hourly"))
        rep = stats_report(recs, "nemenyi", "smape")
        cd = rep["datasets"]["hourly"]["critical_difference"]
        assert {"twin1", "twin2"} in [set(g) for g in cd["groups"]]
        svg = render_cd_svg(cd, title="fixture")
        assert svg.startswith("<svg") and "twin1" in svg

    def test_wilcoxon_holm_pair_table(self, mini_run):
        _, out, _ = mini_run
        records, _, _ = read_results(out)
        rep = stats_report(records, "wilcoxon_holm", "smape")
        pairs = rep["datasets"]["hourly"]["pairs"]
        assert len(pairs) == 15  # C(6, 2)
        for row in pairs:
            assert row["p_holm"] >= row["p"] - 1e-15
            assert isinstance(row["significant"], bool)

    def test_ttest_pairs_with_zero_variance_flag(self):
        recs = self._fixture_records()
        rep = stats_report(recs, "ttest", "smape")
        pairs = rep["datasets"]["hourly"]["pairs"]
        assert all(p.get("zero_variance") for p in pairs)  # constant gaps

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0,
                                       -0.05, 1.5, "0.05", True])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be a real number "
                                             r"in \(0, 1\]"):
            stats_report(self._fixture_records(), "friedman", "smape", alpha)

    def test_incomplete_grid_rejected(self):
        from ufcast.evaluation import EvalRecord
        from ufcast.exceptions import IncompleteGridError

        recs = [EvalRecord("s0", "a", 1.0, 1.0, dataset="hourly"),
                EvalRecord("s0", "b", 2.0, 1.0, dataset="hourly"),
                EvalRecord("s1", "a", 1.0, 1.0, dataset="hourly")]
        with pytest.raises(IncompleteGridError):
            stats_report(recs, "friedman", "smape")


class TestCli:
    def test_run_compare_stats_workflow(self, mini_m4_dir, tmp_path):
        from ufcast.m4.cli import main

        out = tmp_path / "results.jsonl"
        code = main([
            "run", "--dataset", "hourly", "--models", "Naive,sNaive,SES",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(out), "--jobs", "2",
            "--mase-denominator", "train_only",
        ])
        assert code == 0 and out.exists()

        # compare against a published file built from this very run
        _, _, aggregate = read_results(out)
        lines = ["model,dataset,metric,value"]
        for m, e in aggregate["datasets"]["hourly"]["models"].items():
            lines.append(f"{m},hourly,smape,{e['mean_smape']!r}")
            lines.append(f"{m},hourly,mase,{e['mean_mase']!r}")
            lines.append(f"{m},hourly,owa,{e['owa']!r}")
        pub = tmp_path / "pub.csv"
        pub.write_text("\n".join(lines))
        cmp_out = tmp_path / "cmp.csv"
        code = main(["compare", "--results", str(out), "--published",
                     str(pub), "--out", str(cmp_out)])
        assert code == 0
        assert cmp_out.read_text().count("\n") == 1 + 4 * 3

        rep_out = tmp_path / "stats.json"
        svg_out = tmp_path / "cd.svg"
        code = main(["stats", "--results", str(out), "--test", "nemenyi",
                     "--metric", "smape", "--out", str(rep_out),
                     "--svg", str(svg_out)])
        assert code == 0
        report = json.loads(rep_out.read_text())
        ranks = report["datasets"]["hourly"]["friedman"]["mean_ranks"]
        assert [r["mean_rank"] for r in ranks] == sorted(
            r["mean_rank"] for r in ranks
        )
        assert svg_out.read_text().startswith("<svg")

    @staticmethod
    def _results_lines(mini_run, keep):
        _, out, _ = mini_run
        lines = out.read_text().splitlines(keepends=True)
        return "".join(ln for ln in lines if json.loads(ln)["type"] in keep)

    def test_compare_without_aggregate_rejected(self, mini_run, tmp_path,
                                                capsys):
        from ufcast.m4.cli import main

        results = tmp_path / "records_only.jsonl"
        results.write_text(self._results_lines(mini_run, {"record", "error"}))
        code = main(["compare", "--results", str(results),
                     "--out", str(tmp_path / "cmp.csv")])
        assert code == 2
        assert "no aggregate block" in capsys.readouterr().err
        assert not (tmp_path / "cmp.csv").exists()

    def test_stats_without_records_rejected(self, mini_run, tmp_path, capsys):
        from ufcast.m4.cli import main

        results = tmp_path / "aggregate_only.jsonl"
        results.write_text(self._results_lines(mini_run, {"aggregate"}))
        code = main(["stats", "--results", str(results), "--test", "friedman",
                     "--out", str(tmp_path / "stats.json")])
        assert code == 2
        assert "no records" in capsys.readouterr().err
        assert not (tmp_path / "stats.json").exists()

    def test_out_to_a_device_writes_through(self, mini_run):
        from ufcast.m4.cli import main

        _, out, _ = mini_run
        before = os.stat(os.devnull)
        assert main(["stats", "--results", str(out), "--test", "friedman",
                     "--out", os.devnull]) == 0
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode) and after.st_ino == before.st_ino

    def test_svg_needs_nemenyi(self, mini_run, tmp_path, capsys):
        from ufcast.m4.cli import main

        _, out, _ = mini_run
        code = main(["stats", "--results", str(out), "--test", "friedman",
                     "--out", str(tmp_path / "stats.json"),
                     "--svg", str(tmp_path / "cd.svg")])
        assert code == 2
        captured = capsys.readouterr()
        assert "only meaningful with --test nemenyi" in captured.err
        assert "wrote" not in captured.out
        assert not (tmp_path / "stats.json").exists()
        assert not (tmp_path / "cd.svg").exists()

    @staticmethod
    def _records_file(path, scores):
        """A results file of records only: ``scores[model]`` lists each
        series' sMAPE."""
        path.write_text("".join(
            json.dumps({"type": "record", "series_id": f"s{i}", "model": m,
                        "smape": v, "mase": 1.0, "runtime_s": 0.0,
                        "dataset": "yearly"}) + "\n"
            for m, values in scores.items() for i, v in enumerate(values)))
        return path

    @pytest.mark.parametrize("test, scores, message", [
        # a model scored exactly like another: the signed-rank test refuses
        ("wilcoxon_holm", {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0, 3.0]},
         "all paired differences are zero"),
        # Nemenyi's critical values stop at 30 models
        ("nemenyi", {f"m{j:02d}": [j + 1.0, 40.0 - j] for j in range(31)},
         "k <= 30"),
        ("ttest", {"a": [1.0, float("nan"), 3.0], "b": [0.0, 0.0, 0.0]},
         "not finite"),
    ], ids=["wilcoxon_holm", "nemenyi", "ttest"])
    def test_stats_refusal_exits_2(self, tmp_path, capsys, test, scores,
                                   message):
        from ufcast.m4.cli import main

        results = self._records_file(tmp_path / "r.jsonl", scores)
        code = main(["stats", "--results", str(results), "--test", test,
                     "--out", str(tmp_path / "stats.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err and "wrote" not in captured.out
        assert not (tmp_path / "stats.json").exists()

    @staticmethod
    def _bad_results(mini_run, root, kind):
        """A results file (or a path that is none) of ``kind``, and the
        text its refusal prints; a bad line is line 3, after two good
        ones."""
        _, out, _ = mini_run
        good = "".join(out.read_text().splitlines(keepends=True)[:2])
        path = root / "bad.jsonl"
        if kind == "missing":
            return path, f"No such file or directory: '{path}'"
        if kind == "directory":
            path.mkdir()
            return path, f"Is a directory: '{path}'"
        bad = {"cut": good.splitlines()[0][:40].encode(),
               "not-an-object": b"[1,2]",
               "not-utf8": b'{"type": "error", "model": "\xff"}'}[kind]
        path.write_bytes(good.encode() + bad + b"\n")
        return path, (f"malformed row at line 3 of {path}: "
                      "not a JSON object in UTF-8")

    @pytest.mark.parametrize("kind", ["missing", "directory", "cut",
                                      "not-an-object", "not-utf8"])
    def test_unreadable_results_exit_2(self, mini_run, tmp_path, capsys,
                                       kind):
        from ufcast.m4.cli import main

        results, message = self._bad_results(mini_run, tmp_path, kind)
        if kind not in ("missing", "directory"):
            with pytest.raises(MalformedRowError) as err:
                read_results(results)
            assert err.value.line_no == 3 and err.value.path == results
        for argv in (["stats", "--test", "friedman"], ["compare"]):
            out = tmp_path / "out.txt"
            code = main([*argv, "--results", str(results), "--out", str(out)])
            assert code == 2, argv
            captured = capsys.readouterr()
            assert message in captured.err and not captured.out, argv
            assert not out.exists()

    @staticmethod
    def _probe(mini_m4_dir, mini_run, root, kind):
        """The argv of a command that must be refused, and the text its
        refusal prints."""
        _, out, _ = mini_run
        lines = out.read_text().splitlines(keepends=True)
        results = root / "r.jsonl"
        if kind.endswith("record-without-smape"):
            row = json.loads(lines[0])
            del row["smape"]
            results.write_text(json.dumps(row) + "\n" + "".join(lines[1:]))
            message = (f"malformed row at line 1 of {results}: "
                       "record field 'smape' is not a number in float range")
            command = kind.partition("-")[0]
            argv = [command, "--results", str(results),
                    "--out", str(root / "out.txt")]
            return argv + (["--test", "friedman"]
                           if command == "stats" else []), message
        if kind.startswith("compare-aggregate"):
            aggregate = json.loads(lines[-1])
            if kind == "compare-aggregate-without-datasets":
                del aggregate["datasets"]
                detail = "aggregate 'datasets' is not an object of objects"
            else:
                aggregate["datasets"]["hourly"]["models"]["Naive"] = 3
                detail = ("aggregate 'models' of dataset 'hourly' is not an "
                          "object of objects")
            results.write_text(json.dumps(aggregate) + "\n")
            return (["compare", "--results", str(results),
                     "--out", str(root / "c.csv")],
                    f"malformed row at line 1 of {results}: {detail}")
        missing = root / "nodir" / {"stats-out": "s.json",
                                    "compare-out": "c.csv",
                                    "stats-svg": "x.svg",
                                    "run-out": "r.jsonl"}.get(kind, "")
        message = f"No such file or directory: '{missing}'"
        if kind == "stats-out":
            argv = ["stats", "--results", str(out), "--test", "friedman",
                    "--out", str(missing)]
        elif kind == "compare-out":
            argv = ["compare", "--results", str(out), "--out", str(missing)]
        elif kind == "stats-svg":
            argv = ["stats", "--results", str(out), "--test", "nemenyi",
                    "--out", str(root / "s2.json"), "--svg", str(missing)]
        elif kind == "compare-published-directory":
            (root / "pub").mkdir()
            argv = ["compare", "--results", str(out), "--published",
                    str(root / "pub"), "--out", str(root / "c.csv")]
            message = f"Is a directory: '{root / 'pub'}'"
        elif kind == "run-out":
            argv = ["run", "--dataset", "hourly", "--models", "Naive",
                    "--train-dir", str(mini_m4_dir),
                    "--test-dir", str(mini_m4_dir), "--out", str(missing)]
        else:  # run-empty-training-file
            (root / "Hourly-train.csv").write_text('"V1","V2"\n')
            (root / "Hourly-test.csv").write_bytes(
                (mini_m4_dir / "Hourly-test.csv").read_bytes())
            argv = ["run", "--dataset", "hourly", "--models", "Naive",
                    "--train-dir", str(root), "--test-dir", str(root),
                    "--out", str(root / "r.jsonl")]
            message = (f"malformed row at line 2 of "
                       f"{root / 'Hourly-train.csv'}: no series after the "
                       "header")
        return argv, message

    @pytest.mark.parametrize("kind", [
        "stats-record-without-smape", "compare-record-without-smape",
        "stats-out", "compare-out", "stats-svg", "compare-published-directory",
        "compare-aggregate-entry-not-an-object",
        "compare-aggregate-without-datasets", "run-out",
        "run-empty-training-file",
    ])
    def test_refusal_exits_2_and_leaves_no_file(self, mini_m4_dir, mini_run,
                                                tmp_path, capsys, monkeypatch,
                                                kind):
        from ufcast.m4.cli import main

        if kind == "run-out":  # refused before any data is read
            def load_m4(*args):
                raise AssertionError("data read before --out was checked")
            monkeypatch.setattr(runner, "load_m4", load_m4)
        argv, message = self._probe(mini_m4_dir, mini_run, tmp_path, kind)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out
        assert sorted(tmp_path.rglob("*")) == before

    def test_stats_nan_alpha_exits_2(self, mini_run, tmp_path, capsys):
        from ufcast.m4.cli import main

        _, out, _ = mini_run
        code = main(["stats", "--results", str(out), "--test", "friedman",
                     "--alpha", "nan", "--out", str(tmp_path / "stats.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert "alpha must be a real number in (0, 1]" in captured.err
        assert not captured.out
        assert not (tmp_path / "stats.json").exists()

    def test_compare_missing_reference_exits_2(self, mini_run, tmp_path,
                                               capsys):
        from ufcast.m4.cli import main

        _, out, _ = mini_run
        published = tmp_path / "pub.csv"
        published.write_text("model,dataset,metric,value\n"
                             "Naive,hourly,smape,1.0\n")
        code = main(["compare", "--results", str(out), "--published",
                     str(published), "--out", str(tmp_path / "cmp.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert "no published value for" in captured.err
        assert not captured.out
        assert not (tmp_path / "cmp.csv").exists()

    @pytest.mark.parametrize("text, line_no, detail", [
        ("# a comment\nmodel,dataset,metric,value\n"
         "Naive,hourly,smape,1.0\nNaive,hourly,mase,n/a\n",
         4, "value 'n/a' is not a number"),
        ("# a comment\nmodel,dataset,value\nNaive,hourly,1.0\n",
         2, "no 'metric' column"),
        ("model,dataset,metric,value\nNaive,hourly,smape,0\n",
         2, "value '0' is not a finite nonzero number"),
        ("model,dataset,metric,value\nNaive,hourly,smape,1.0\n"
         "Naive,hourly,mase,nan\n",
         3, "value 'nan' is not a finite nonzero number"),
    ], ids=["non-numeric-value", "missing-metric-column", "zero-value",
            "nan-value"])
    def test_compare_malformed_published_exits_2(self, mini_run, tmp_path,
                                                 capsys, text, line_no,
                                                 detail):
        from ufcast.m4.cli import main

        _, out, _ = mini_run
        published = tmp_path / "pub.csv"
        published.write_text(text)
        with pytest.raises(MalformedRowError, match=detail) as err:
            load_published(published)
        assert err.value.line_no == line_no and err.value.path == published
        code = main(["compare", "--results", str(out), "--published",
                     str(published), "--out", str(tmp_path / "cmp.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert (f"malformed row at line {line_no} of {published}: {detail}"
                in captured.err)
        assert not captured.out
        assert not (tmp_path / "cmp.csv").exists()

    def test_unknown_model_rejected(self, mini_m4_dir, tmp_path):
        from ufcast.m4.cli import main

        code = main([
            "run", "--dataset", "hourly", "--models", "Nonsense",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2

    def test_jobs_below_one_rejected(self, mini_m4_dir, tmp_path, capsys):
        from ufcast.m4.cli import main

        code = main([
            "run", "--dataset", "hourly", "--models", "Naive",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(tmp_path / "x.jsonl"), "--jobs", "0",
        ])
        assert code == 2
        assert "jobs must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_model_without_factory_rejected(self, mini_m4_dir, tmp_path,
                                            capsys):
        # the command line cannot plug in a regressor factory
        from ufcast.m4.cli import main

        code = main([
            "run", "--dataset", "hourly", "--models", "Naive,RF",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "external regressor factory" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_repeated_model_rejected(self, mini_m4_dir, tmp_path, capsys):
        from ufcast.m4.cli import main

        code = main([
            "run", "--dataset", "hourly", "--models", "SES,Naive,SES",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "more than once: SES" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_unknown_dataset_rejected(self, mini_m4_dir, tmp_path):
        from ufcast.m4.cli import main

        code = main([
            "run", "--dataset", "minutely", "--models", "Naive",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2

    def test_missing_data_file_exits_2(self, mini_m4_dir, tmp_path, capsys):
        from ufcast.m4.cli import main

        train = tmp_path / "Hourly-train.csv"
        train.write_bytes((mini_m4_dir / "Hourly-train.csv").read_bytes())
        code = main([
            "run", "--dataset", "hourly", "--models", "Naive",
            "--train-dir", str(tmp_path), "--test-dir", str(tmp_path / "no"),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert str(tmp_path / "no" / "Hourly-test.csv") in (
            capsys.readouterr().err)
        assert not (tmp_path / "x.jsonl").exists()

    def test_bad_token_in_data_file_exits_2(self, mini_m4_dir, tmp_path,
                                            capsys):
        from ufcast.m4.cli import main

        for part in ("train", "test"):
            name = f"Hourly-{part}.csv"
            (tmp_path / name).write_bytes((mini_m4_dir / name).read_bytes())
        test = tmp_path / "Hourly-test.csv"
        lines = test.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ",oops,", 1)
        test.write_text("".join(lines))
        code = main([
            "run", "--dataset", "hourly", "--models", "Naive",
            "--train-dir", str(tmp_path), "--test-dir", str(tmp_path),
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert (f"malformed row at line 4 of {test}: non-numeric token "
                "'oops'") in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_module_entry_point(self, mini_m4_dir, tmp_path):
        # ``python -m ufcast.m4.cli`` exits with main()'s status
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([
            sys.executable, "-m", "ufcast.m4.cli", "run",
            "--dataset", "minutely", "--models", "Naive",
            "--train-dir", str(mini_m4_dir), "--test-dir", str(mini_m4_dir),
            "--out", str(tmp_path / "x.jsonl"),
        ], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "unknown datasets: minutely" in proc.stderr
        assert not (tmp_path / "x.jsonl").exists()
