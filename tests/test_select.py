import itertools
from collections import Counter

import numpy as np
import pytest

from ufcast.core import BaseForecaster, TimeSeries
from ufcast.evaluation import smape
from ufcast.exceptions import (
    FIT_ERRORS,
    AllCandidatesFailedError,
    NotFittedError,
    SeriesTooShortError,
    UnknownParameterError,
)
from ufcast.forecasters import (
    NaiveForecaster,
    PolynomialTrendForecaster,
    SESForecaster,
)
from ufcast.compose import (
    _PREFIX_CACHE,
    ReducedRegressionForecaster,
    TransformedTargetForecaster,
    _estimator_key,
    _prefix_cache_scope,
)
from ufcast.regress import KNNRegressor, LinearRegressor
from ufcast.select import ForecastingGridSearch, SlidingWindowSplitter
from ufcast.transforms import (
    BaseTransformer,
    BoxCoxTransformer,
    Deseasonalizer,
    Detrender,
    Standardizer,
)
from tests.conftest import seasonal_series


class TestSplitter:
    def test_sliding_enumeration(self):
        cv = SlidingWindowSplitter(window_length=3, fh=1)
        got = [(a.tolist(), b.tolist()) for a, b in cv.split(5)]
        assert got == [([0, 1, 2], [3]), ([1, 2, 3], [4])]

    def test_expanding_enumeration(self):
        cv = SlidingWindowSplitter(window_length=3, fh=1, mode="expanding")
        got = [(a.tolist(), b.tolist()) for a, b in cv.split(5)]
        assert got == [([0, 1, 2], [3]), ([0, 1, 2, 3], [4])]

    def test_single_mode_tail_validation(self):
        cv = SlidingWindowSplitter(window_length=1, fh=[1, 2, 3, 4],
                                   mode="single")
        got = [(a.tolist(), b.tolist()) for a, b in cv.split(10)]
        assert got == [([0, 1, 2, 3, 4, 5], [6, 7, 8, 9])]

    def test_too_short_is_empty(self):
        cv = SlidingWindowSplitter(window_length=4, fh=[1, 2])
        assert list(cv.split(5)) == []

    def test_test_never_precedes_train(self):
        cv = SlidingWindowSplitter(window_length=4, fh=[1, 3], step_length=2)
        for train, test in cv.split(20):
            assert test.min() > train.max()

    def test_non_overlapping_tests_when_step_covers_fh(self):
        cv = SlidingWindowSplitter(window_length=5, fh=[1, 2], step_length=2)
        seen = []
        for _, test in cv.split(30):
            for t in test:
                assert t not in seen
                seen.append(t)

    def test_deterministic(self):
        cv = SlidingWindowSplitter(window_length=6, fh=[1, 2, 3])
        a = [(x.tolist(), y.tolist()) for x, y in cv.split(40)]
        b = [(x.tolist(), y.tolist()) for x, y in cv.split(40)]
        assert a == b

    @pytest.mark.parametrize("counts", [
        {"window_length": 2.5}, {"window_length": 2.0},
        {"window_length": True}, {"window_length": 0},
        {"step_length": 1.5}, {"step_length": True}, {"step_length": 0},
    ], ids=str)
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValueError):
            SlidingWindowSplitter(fh=1, **counts)

    @pytest.mark.parametrize("n", [10.7, 10.0, True, -1, "10"], ids=repr)
    def test_split_count_must_be_an_integer(self, n):
        # int() would split 10.7 as 10, and True as 1
        cv = SlidingWindowSplitter(window_length=3, fh=1)
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            list(cv.split(n))
        assert list(cv.split(np.int64(3))) == list(cv.split(0)) == []

    def test_numpy_integer_counts(self):
        cv = SlidingWindowSplitter(window_length=np.int64(3), fh=1,
                                   step_length=np.int64(2))
        got = [(a.tolist(), b.tolist()) for a, b in cv.split(7)]
        assert got == [([0, 1, 2], [3]), ([2, 3, 4], [5])]

    def test_sparse_horizon_positions(self):
        cv = SlidingWindowSplitter(window_length=3, fh=[2, 4], mode="single")
        [(train, test)] = list(cv.split(12))
        assert train.tolist() == list(range(8))
        assert test.tolist() == [9, 11]


class TestGridSearch:
    def _cv(self):
        return SlidingWindowSplitter(window_length=20, fh=[1, 2, 3],
                                     mode="single")

    def test_single_candidate_equals_plain_fit(self):
        y = seasonal_series(60, sp=6, seed=0)
        gs = ForecastingGridSearch(
            SESForecaster(), {"alpha": [0.4]}, self._cv()
        ).fit(y)
        plain = SESForecaster(alpha=0.4).fit(y)
        np.testing.assert_array_equal(
            gs.predict([1, 2, 3]).values, plain.predict([1, 2, 3]).values
        )

    def test_update_advances_the_best_forecaster(self):
        y = seasonal_series(75, sp=6, seed=3)
        train, new = y.islice(0, 60), y.islice(60, 75)
        gs = ForecastingGridSearch(
            SESForecaster(), {"alpha": [0.2, 0.5, 0.8]}, self._cv()
        ).fit(train)
        gs.update(new)
        assert gs.cutoff == gs.best_forecaster_.cutoff == new.end_index
        want = gs.best_forecaster_.predict([1, 2, 3]).values
        np.testing.assert_array_equal(gs.predict([1, 2, 3]).values, want)
        plain = SESForecaster(**gs.best_params_).fit(train).update(new)
        np.testing.assert_array_equal(plain.predict([1, 2, 3]).values, want)

    def test_fitted_params_are_the_winner(self):
        gs = ForecastingGridSearch(
            SESForecaster(), {"alpha": [0.2, 0.5, 0.8]}, self._cv()
        )
        with pytest.raises(NotFittedError):
            gs.get_fitted_params()
        gs.fit(seasonal_series(60, sp=6, seed=3))
        params = gs.get_fitted_params()
        assert params == {"best_params": gs.best_params_,
                          "best_score": gs.best_score_}
        params["best_params"]["alpha"] = -1.0  # a copy, not the attribute
        assert gs.best_params_["alpha"] != -1.0

    def test_zero_score_wins(self):
        y = TimeSeries(np.full(30, 5.0))
        gs = ForecastingGridSearch(
            NaiveForecaster(), {"strategy": ["last", "seasonal_last"]},
            self._cv(),
        ).fit(y)
        assert gs.best_score_ == 0.0
        assert gs.best_params_ == {"strategy": "last"}  # tie -> first

    def test_matches_brute_force_on_random_instances(self):
        """Oracle equivalence: an external loop fitting and scoring every
        candidate manually must select the same parameters and score."""
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(25, 60))
            y = seasonal_series(n, sp=4, noise=0.2, seed=int(rng.integers(1e6)))
            grid = {"window_length": [2, 3, 5],
                    "regressor.k": [1, 2]}
            cv = SlidingWindowSplitter(
                window_length=int(rng.integers(10, 16)),
                fh=[1, 2], mode=str(rng.choice(["sliding", "expanding"])),
                step_length=int(rng.integers(1, 4)),
            )
            proto = ReducedRegressionForecaster(KNNRegressor(1), 2)

            # independent brute force
            best_score, best_combo = np.inf, None
            for combo in itertools.product(grid["window_length"],
                                           grid["regressor.k"]):
                w, k = combo
                scores = []
                try:
                    for train_pos, test_pos in cv.split(y):
                        cand = ReducedRegressionForecaster(KNNRegressor(k), w)
                        cand.fit(y.islice(int(train_pos[0]),
                                          int(train_pos[-1]) + 1))
                        pred = cand.predict([1, 2]).values
                        scores.append(smape(y.values[test_pos], pred))
                except Exception:
                    continue
                if scores and np.mean(scores) < best_score:
                    best_score, best_combo = float(np.mean(scores)), combo

            gs = ForecastingGridSearch(proto, grid, cv).fit(y)
            assert (gs.best_params_["window_length"],
                    gs.best_params_["regressor.k"]) == best_combo, trial
            assert gs.best_score_ == pytest.approx(best_score)

    def test_best_params_member_of_grid(self):
        y = seasonal_series(50, sp=5, seed=3)
        grid = {"alpha": [0.2, 0.5, 0.8]}
        gs = ForecastingGridSearch(SESForecaster(), grid, self._cv()).fit(y)
        assert gs.best_params_["alpha"] in grid["alpha"]

    def test_failed_candidate_scores_infinite(self):
        y = seasonal_series(30, sp=3, seed=4)
        gs = ForecastingGridSearch(
            ReducedRegressionForecaster(LinearRegressor(), 2),
            {"window_length": [2, 500]},  # 500 cannot fit
            self._cv(),
        ).fit(y)
        by_window = {r["params"]["window_length"]: r for r in gs.report_}
        assert by_window[500]["mean_score"] == np.inf
        assert by_window[500]["n_errors"] == 1
        assert gs.best_params_ == {"window_length": 2}

    def test_all_candidates_failed(self):
        y = seasonal_series(30, sp=3, seed=5)
        gs = ForecastingGridSearch(
            ReducedRegressionForecaster(LinearRegressor(), 2),
            {"window_length": [400, 500]},
            self._cv(),
        )
        with pytest.raises(AllCandidatesFailedError):
            gs.fit(y)

    @pytest.mark.parametrize("mode, window, fh, needed", [
        ("sliding", 10, 1, 11), ("expanding", 10, [1, 3], 13),
        ("single", 10, [2, 4], 5),
    ])
    def test_series_too_short_for_any_split(self, mode, window, fh, needed):
        cv = SlidingWindowSplitter(window_length=window, fh=fh, mode=mode)
        y = seasonal_series(needed, sp=1, seed=8)
        gs = ForecastingGridSearch(SESForecaster(), {"alpha": [0.3, 0.6]}, cv)
        assert len(list(cv.split(y))) == 1
        gs.fit(y)
        assert all(r["n_errors"] == 0 and np.isfinite(r["mean_score"])
                   for r in gs.report_)
        with pytest.raises(SeriesTooShortError,
                           match=f"ForecastingGridSearch needs at least "
                                 f"{needed} observations, got {needed - 1}"):
            gs.fit(y.islice(0, needed - 1))

    def test_unknown_parameter_is_fatal(self):
        y = seasonal_series(30, sp=3, seed=6)
        gs = ForecastingGridSearch(SESForecaster(), {"bogus": [1]}, self._cv())
        with pytest.raises(UnknownParameterError):
            gs.fit(y)

    def test_invalid_grid_value_fails_before_any_fit(self, monkeypatch):
        fits = Counter()
        fit = BaseForecaster.fit

        def counting_fit(self, y, fh=None):
            fits[type(self).__name__] += 1
            return fit(self, y, fh)

        monkeypatch.setattr(BaseForecaster, "fit", counting_fit)
        gs = ForecastingGridSearch(
            ReducedRegressionForecaster(LinearRegressor(), 2),
            {"window_length": [2, 2.5]}, self._cv(),
        )
        with pytest.raises(ValueError):
            gs.fit(seasonal_series(40, sp=4, seed=9))
        assert fits == {"ForecastingGridSearch": 1}

    def test_failed_candidate_skips_its_later_splits(self, monkeypatch):
        windows = Counter()
        fit = BaseForecaster.fit

        def counting_fit(self, y, fh=None):
            if isinstance(self, ReducedRegressionForecaster):
                windows[self.window_length] += 1
            return fit(self, y, fh)

        monkeypatch.setattr(BaseForecaster, "fit", counting_fit)
        y = seasonal_series(50, sp=5, seed=10)
        cv = SlidingWindowSplitter(window_length=20, fh=[1, 2], step_length=5)
        splits = len(list(cv.split(y)))
        assert splits == 6
        gs = ForecastingGridSearch(
            ReducedRegressionForecaster(LinearRegressor(), 2),
            {"window_length": [2, 25, 3]},  # 25 cannot fit a 20-point window
            cv,
        ).fit(y)
        expected = {2: splits, 25: 1, 3: splits}
        expected[gs.best_params_["window_length"]] += 1  # the refit
        assert windows == expected
        assert [row["n_errors"] for row in gs.report_] == [0, 1, 0]

    def test_refit_on_full_series(self):
        y = seasonal_series(60, sp=6, seed=7)
        gs = ForecastingGridSearch(
            SESForecaster(), {"alpha": [0.3, 0.6]}, self._cv()
        ).fit(y)
        assert gs.best_forecaster_.cutoff == y.end_index

    def test_report_covers_every_candidate(self):
        y = seasonal_series(40, sp=4, seed=8)
        grid = {"alpha": [0.2, 0.4, 0.6, 0.8]}
        gs = ForecastingGridSearch(SESForecaster(), grid, self._cv()).fit(y)
        assert [r["params"]["alpha"] for r in gs.report_] == grid["alpha"]


def _reduction_pipeline(box_cox=False):
    steps = [("deseasonalize", Deseasonalizer())]
    if box_cox:
        steps.append(("boxcox", BoxCoxTransformer()))
    steps += [
        ("detrend", Detrender(PolynomialTrendForecaster(1))),
        ("standardize", Standardizer()),
        ("forecast", ReducedRegressionForecaster(KNNRegressor(1), 3)),
    ]
    return TransformedTargetForecaster(steps)


class TestGridSearchSharedPrefix:
    """With every key on the final pipeline step, the transformers are
    fitted once per split, and the result is that of whole-pipeline fits."""

    FH = [1, 2, 3]
    WINDOWS = {"forecast.window_length": [2, 3, 4, 6]}

    def _cv(self):
        return SlidingWindowSplitter(window_length=30, fh=self.FH,
                                     step_length=10)

    def test_transformers_fitted_once_per_split(self, monkeypatch):
        fits = Counter()
        fit = BaseTransformer.fit

        def counting_fit(self, y):
            fits[type(self).__name__] += 1
            return fit(self, y)

        monkeypatch.setattr(BaseTransformer, "fit", counting_fit)
        y = seasonal_series(60, sp=6, seed=1)
        assert len(list(self._cv().split(y))) == 3
        proto = _reduction_pipeline()
        ForecastingGridSearch(proto, self.WINDOWS, self._cv()).fit(y)
        # 3 splits + the refit, not 4 candidates x 3 splits + the refit
        assert fits == {"Deseasonalizer": 4, "Detrender": 4, "Standardizer": 4}
        assert not any(step.is_fitted for _, step in proto.steps)

    def test_candidates_keep_no_final_step(self):
        y = seasonal_series(60, sp=6, seed=1)
        with _prefix_cache_scope():
            gs = ForecastingGridSearch(_reduction_pipeline(), self.WINDOWS,
                                       self._cv()).fit(y)
            keys = list(_PREFIX_CACHE.get())
        kept = Counter(key[0][0].__name__ for key in keys)
        # every transformer once per split and once for the refit, and of
        # the finals only the winner's refit on the full series
        assert kept == {"Deseasonalizer": 4, "Detrender": 4,
                        "Standardizer": 4, "ReducedRegressionForecaster": 1}
        (final,) = [key for key in keys
                    if key[0][0] is ReducedRegressionForecaster]
        assert final[0] == _estimator_key(gs.best_forecaster_._final)
        assert (len(final[1]), final[2]) == (y.values.nbytes, y.start_index)

    def test_transformer_key_shares_what_it_does_not_reach(self,
                                                           monkeypatch):
        fits = Counter()
        fit = BaseTransformer.fit

        def counting_fit(self, y):
            fits[type(self).__name__] += 1
            return fit(self, y)

        monkeypatch.setattr(BaseTransformer, "fit", counting_fit)
        y = seasonal_series(60, sp=6, seed=1)
        splits = len(list(self._cv().split(y)))
        grid = {"deseasonalize.sp": [1, 6], "forecast.window_length": [2, 4]}
        ForecastingGridSearch(_reduction_pipeline(), grid, self._cv()).fit(y)
        # one fit per sp value and split, plus the refit; not one per
        # candidate and split
        assert fits["Deseasonalizer"] == 2 * splits + 1

    def _brute_force_report(self, grid, y):
        report = []
        for combo in itertools.product(*grid.values()):
            params = dict(zip(grid, combo))
            scores, n_errors = [], 0
            for train_pos, test_pos in self._cv().split(y):
                candidate = _reduction_pipeline().set_params(**params)
                try:
                    candidate.fit(y.islice(int(train_pos[0]),
                                           int(train_pos[-1]) + 1))
                    pred = candidate.predict(self.FH).values
                except FIT_ERRORS:
                    n_errors = 1
                    break
                scores.append(float(smape(y.values[test_pos], pred)))
            mean = np.inf if n_errors else float(np.mean(scores))
            report.append({"params": params, "mean_score": mean,
                           "n_errors": n_errors})
        return report

    @pytest.mark.parametrize("grid", [
        {"forecast.window_length": [2, 3, 4, 30]},  # 30 cannot fit
        {"deseasonalize.sp": [1, 6], "forecast.window_length": [2, 4]},
    ], ids=["final-step-keys", "transformer-key"])
    def test_matches_whole_pipeline_fits_bitwise(self, grid):
        for seed in range(4):
            y = seasonal_series(60, sp=6, noise=0.1, seed=seed)
            expected = self._brute_force_report(grid, y)
            gs = ForecastingGridSearch(_reduction_pipeline(), grid,
                                       self._cv()).fit(y)
            assert gs.report_ == expected, seed
            best = min(expected, key=lambda row: row["mean_score"])
            assert gs.best_score_ == best["mean_score"]
            refit = _reduction_pipeline().set_params(**best["params"]).fit(y)
            assert np.array_equal(gs.predict(self.FH).values,
                                  refit.predict(self.FH).values)

    def test_failing_prefix_fails_every_candidate(self):
        values = seasonal_series(60, sp=6, seed=2).values.copy()
        values[35] = -1.0  # in the training windows of splits 2 and 3 only
        gs = ForecastingGridSearch(_reduction_pipeline(box_cox=True),
                                   self.WINDOWS, self._cv())
        with pytest.raises(AllCandidatesFailedError):
            gs.fit(TimeSeries(values, sp=6))
        assert [(row["mean_score"], row["n_errors"]) for row in gs.report_] \
            == [(np.inf, 1)] * 4

    def test_unknown_final_step_parameter_is_fatal(self):
        gs = ForecastingGridSearch(_reduction_pipeline(),
                                   {"forecast.bogus": [1]}, self._cv())
        with pytest.raises(UnknownParameterError):
            gs.fit(seasonal_series(60, sp=6, seed=3))
