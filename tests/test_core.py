import numpy as np
import pytest

from ufcast.core import Forecast, ForecastingHorizon, TimeSeries, as_horizon
from ufcast.exceptions import (
    NonContiguousUpdateError,
    NonFiniteInputError,
    NotFittedError,
    SeriesTooShortError,
    UnknownParameterError,
    UnsupportedInSampleError,
)
from ufcast.forecasters import (
    HoltForecaster,
    NaiveForecaster,
    PolynomialTrendForecaster,
    SESForecaster,
    ThetaForecaster,
)
from ufcast.compose import (
    EnsembleForecaster,
    ReducedRegressionForecaster,
    TransformedTargetForecaster,
)
from ufcast.regress import KNNRegressor, LinearRegressor
from ufcast.select import ForecastingGridSearch, SlidingWindowSplitter
from ufcast.transforms import Deseasonalizer, Standardizer
from tests.conftest import seasonal_series


class TestTimeSeries:
    def test_basic(self):
        y = TimeSeries([1.0, 2.0, 3.0], start_index=5, sp=2)
        assert len(y) == 3
        assert y.end_index == 7
        assert y.positions.tolist() == [5, 6, 7]

    def test_empty_rejected(self):
        with pytest.raises(SeriesTooShortError):
            TimeSeries([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInputError):
            TimeSeries([1.0, bad])

    def test_bad_sp(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0], sp=0)

    @pytest.mark.parametrize("sp", [2.0, 1.5, True, "3", None])
    def test_non_integer_sp_rejected(self, sp):
        with pytest.raises(ValueError, match="sp must be an integer"):
            TimeSeries([1.0], sp=sp)

    @pytest.mark.parametrize("start_index", [1.5, 3.0, True, "3", None])
    def test_non_integer_start_index_rejected(self, start_index):
        with pytest.raises(ValueError, match="start_index must be an integer"):
            TimeSeries([1.0], start_index=start_index)

    @pytest.mark.parametrize("start_index, sp", [
        (-7, 1), (0, 12), (np.int64(5), np.int64(4)),
    ])
    def test_integer_anchors_accepted(self, start_index, sp):
        y = TimeSeries([1.0, 2.0], start_index=start_index, sp=sp)
        assert (y.start_index, y.sp) == (start_index, sp)
        assert type(y.start_index) is int and type(y.sp) is int

    def test_values_read_only(self):
        y = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            y.values[0] = 9.0

    def test_concat_requires_contiguity(self):
        y = TimeSeries([1.0, 2.0], start_index=0)
        with pytest.raises(NonContiguousUpdateError):
            y.concat(TimeSeries([3.0], start_index=5))

    def test_islice_keeps_anchor(self):
        y = TimeSeries([1.0, 2.0, 3.0, 4.0], start_index=10)
        s = y.islice(1, 3)
        assert s.values.tolist() == [2.0, 3.0]
        assert s.start_index == 11


class TestForecastingHorizon:
    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            ForecastingHorizon([0, 1])

    def test_must_increase(self):
        with pytest.raises(ValueError):
            ForecastingHorizon([2, 1])
        with pytest.raises(ValueError):
            ForecastingHorizon([1, 1])

    def test_out_to(self):
        assert list(ForecastingHorizon.out_to(3)) == [1, 2, 3]

    def test_to_absolute(self):
        fh = ForecastingHorizon([-1, 2])
        assert fh.to_absolute(10).tolist() == [9, 12]

    def test_scalar_coercion(self):
        assert list(as_horizon(4)) == [4]

    @pytest.mark.parametrize("bad", [[1.5, 2.7], [1, 2.5], [np.nan], [np.inf]])
    def test_non_integral_steps_rejected(self, bad):
        with pytest.raises(ValueError):
            ForecastingHorizon(bad)

    def test_integral_floats_accepted(self):
        assert ForecastingHorizon([1.0, 2.0]) == ForecastingHorizon([1, 2])
        assert list(as_horizon(np.float64(3.0))) == [3]

    def test_predict_rejects_non_integral_step(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        with pytest.raises(ValueError):
            f.predict([1.5])


class TestForecastType:
    def test_length_must_match(self):
        with pytest.raises(ValueError):
            Forecast(ForecastingHorizon([1, 2]), np.array([1.0]))

    def test_values_finite(self):
        with pytest.raises(NonFiniteInputError):
            Forecast(ForecastingHorizon([1]), np.array([np.nan]))


class TestFit:
    def test_naive_last(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        assert f.cutoff == 2
        assert f.get_fitted_params() == {"last": 9.0}

    def test_ses_constant_level(self):
        # smoothing a constant is the constant, for fixed and fitted alpha
        for forecaster in (SESForecaster(alpha=0.3), SESForecaster()):
            forecaster.fit((5.0, 5.0, 5.0, 5.0))
            assert forecaster.get_fitted_params()["level"] == pytest.approx(5.0)

    def test_holt_too_short(self):
        with pytest.raises(SeriesTooShortError):
            HoltForecaster().fit((1.0,))

    def test_fit_resets_state(self):
        f = NaiveForecaster("last").fit((1, 2, 3))
        f.fit((4, 5))
        assert f.predict(1).values[0] == 5.0
        assert f.cutoff == 1

    def test_fit_validates_unused_horizon(self):
        y = (1.0, 2.0, 3.0)
        fitted = SESForecaster(alpha=0.5).fit(y, fh=[1, 2])
        plain = SESForecaster(alpha=0.5).fit(y)
        assert fitted.get_fitted_params() == plain.get_fitted_params()
        with pytest.raises(ValueError):
            SESForecaster(alpha=0.5).fit(y, fh=[0, 1])

    def test_fit_idempotent(self):
        y = seasonal_series(60, sp=1, seed=4)
        a = SESForecaster().fit(y).get_fitted_params()
        b = SESForecaster().fit(y).get_fitted_params()
        assert a == b


class TestPredict:
    def test_naive(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        assert f.predict([1, 2, 3]).values.tolist() == [9.0, 9.0, 9.0]

    def test_seasonal_naive_wraps(self):
        f = NaiveForecaster("seasonal_last", sp=2).fit((1, 2, 3, 4))
        assert f.predict([1, 2, 3]).values.tolist() == [3.0, 4.0, 3.0]
        # a raw sequence is anchored with sp 1; the forecaster's own sp
        # decides the season
        assert f.cutoff == 3 and f._y.sp == 1

    def test_polynomial_trend_line(self):
        # independent oracle: normal equations for OLS on a noiseless line
        t = np.arange(10.0)
        y = 2 * t + 1
        design = np.column_stack([np.ones_like(t), t])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        expected = beta[0] + beta[1] * np.array([10.0, 11.0])

        f = PolynomialTrendForecaster(degree=1).fit(y)
        got = f.predict([1, 2]).values
        np.testing.assert_allclose(got, expected, atol=1e-9)
        np.testing.assert_allclose(got, [21.0, 23.0], atol=1e-8)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            NaiveForecaster().predict(1)

    def test_forecast_length_matches_horizon(self):
        f = NaiveForecaster("last").fit((1, 2, 3))
        for fh in ([1], [2, 5], [-1, 1, 4]):
            assert len(f.predict(fh).values) == len(fh)

    def test_predict_deterministic_bitwise(self):
        y = seasonal_series(90, sp=12, seed=8)
        f = SESForecaster().fit(y)
        a = f.predict([1, 2, 3]).values
        b = f.predict([1, 2, 3]).values
        assert np.array_equal(a, b)


LEAF_FORECASTERS = {
    "naive_last": lambda: NaiveForecaster("last"),
    "naive_seasonal": lambda: NaiveForecaster("seasonal_last", sp=4),
    "ses": lambda: SESForecaster(),
    "holt": lambda: HoltForecaster(),
    "damped": lambda: HoltForecaster(damped=True),
    "theta": lambda: ThetaForecaster(),
    "polynomial": lambda: PolynomialTrendForecaster(degree=2),
    "reduced_lr": lambda: ReducedRegressionForecaster(LinearRegressor(), 3),
}


class TestInSampleAheadSplit:
    """The base class splits a horizon into in-sample offsets and ahead
    steps; every leaf forecaster answers each half the same way alone."""

    @pytest.mark.parametrize("make", LEAF_FORECASTERS.values(),
                             ids=LEAF_FORECASTERS.keys())
    def test_mixed_horizon_equals_its_halves(self, make):
        f = make().fit(seasonal_series(40, sp=4, seed=11, start_index=7))
        mixed = f.predict([-3, -1, 1, 4]).values
        halves = np.concatenate([f.predict([-3, -1]).values,
                                 f.predict([1, 4]).values])
        assert np.array_equal(mixed, halves)

    @pytest.mark.parametrize("make", LEAF_FORECASTERS.values(),
                             ids=LEAF_FORECASTERS.keys())
    def test_position_before_training_start_rejected(self, make):
        f = make().fit(seasonal_series(40, sp=4, seed=11, start_index=7))
        with pytest.raises(UnsupportedInSampleError):
            f.predict([-40, 1])


class TestUpdate:
    def test_naive_update(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        f.update((4,))
        assert f.predict(1).values[0] == 4.0
        assert f.cutoff == 3

    def test_ses_level_recursion(self):
        # one-step update by hand: new level = 0.5 x + 0.5 old
        f = SESForecaster(alpha=0.5).fit((3.0, 5.0))
        old = f.get_fitted_params()["level"]
        f.update((10.0,))
        assert f.get_fitted_params()["level"] == pytest.approx(0.5 * 10 + 0.5 * old)

    def test_non_contiguous_rejected(self):
        f = NaiveForecaster("last").fit(TimeSeries([2, 5, 9]))
        with pytest.raises(NonContiguousUpdateError):
            f.update(TimeSeries([1.0], start_index=5))

    def test_empty_update_noop(self):
        f = SESForecaster().fit(seasonal_series(40, sp=1))
        before = f.predict([1, 2]).values
        f.update(())
        np.testing.assert_array_equal(f.predict([1, 2]).values, before)

    def test_update_params_refits(self):
        y = seasonal_series(50, sp=1, seed=2)
        extra = seasonal_series(10, sp=1, seed=3, start_index=50)
        updated = SESForecaster().fit(y).update(extra, update_params=True)
        refit = SESForecaster().fit(y.concat(extra))
        assert updated.get_fitted_params() == refit.get_fitted_params()

    def test_cutoff_advances_monotonically(self):
        f = NaiveForecaster("last").fit((1, 2))
        cutoffs = [f.cutoff]
        for x in (3.0, 4.0, 5.0):
            f.update((x,))
            cutoffs.append(f.cutoff)
        assert cutoffs == sorted(cutoffs)
        assert cutoffs[-1] == 4


class TestUpdatePredict:
    def test_naive_one_step_walk(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        cv = SlidingWindowSplitter(window_length=1, fh=1, mode="expanding")
        out = f.update_predict((10.0, 11.0, 12.0, 13.0), cv)
        assert [fc.values[0] for _, fc in out] == [10.0, 11.0, 12.0, 13.0]
        assert [cut for cut, _ in out] == [3, 4, 5, 6]

    def test_empty_splitter_output(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        cv = SlidingWindowSplitter(window_length=10, fh=1)
        assert f.update_predict((1.0, 2.0), cv) == []

    def test_non_contiguous_test_data_rejected(self):
        f = NaiveForecaster("last").fit(TimeSeries([2, 5, 9]))
        cv = SlidingWindowSplitter(window_length=1, fh=1, mode="expanding")
        with pytest.raises(NonContiguousUpdateError, match="starts at 5"):
            f.update_predict(TimeSeries([1.0, 2.0], start_index=5), cv)
        assert f.cutoff == 2
        assert f.predict(1).values[0] == 9.0

    @pytest.mark.parametrize("update_params", [False, True])
    def test_ses_both_update_paths(self, update_params):
        y = seasonal_series(60, sp=1, seed=5)
        test = seasonal_series(8, sp=1, seed=6, start_index=60)
        f = SESForecaster().fit(y)
        cv = SlidingWindowSplitter(window_length=2, fh=[1], step_length=2,
                                   mode="expanding")
        out = f.update_predict(test, cv, update_params=update_params)
        assert len(out) == 4  # windows ending at 2, 4, 6, 8
        for _, fc in out:
            assert fc.values.shape == (1,)
            assert np.isfinite(fc.values).all()


class TestParams:
    def test_get_contains_window_length(self):
        f = ReducedRegressionForecaster(KNNRegressor(1), window_length=10)
        assert f.get_params()["window_length"] == 10

    def test_round_trip(self):
        f = SESForecaster(alpha=0.2)
        f.set_params(alpha=0.7)
        assert f.get_params()["alpha"] == 0.7

    def test_unknown_parameter(self):
        with pytest.raises(UnknownParameterError):
            SESForecaster().set_params(bogus=1)

    def test_nested_path(self):
        f = ReducedRegressionForecaster(KNNRegressor(1), window_length=3)
        f.set_params(**{"regressor.k": 4})
        assert f.get_params()["regressor.k"] == 4

    def test_set_params_resets_fit(self):
        f = SESForecaster(alpha=0.5).fit((1.0, 2.0, 3.0))
        f.set_params(alpha=0.9)
        with pytest.raises(NotFittedError):
            f.predict(1)

    @pytest.mark.parametrize("make, params", [
        (lambda: HoltForecaster(damped=True, phi=0.9), {"damped": False}),
        (lambda: NaiveForecaster(), {"strategy": "bogus"}),
        (lambda: KNNRegressor(k=1), {"k": 0}),
        (lambda: PolynomialTrendForecaster(1), {"degree": 1.5}),
        (lambda: ReducedRegressionForecaster(KNNRegressor(1), 3),
         {"regressor.k": 0}),
        (lambda: TransformedTargetForecaster([SESForecaster()]),
         {"steps": [Standardizer()]}),
        (lambda: EnsembleForecaster([SESForecaster()]), {"forecasters": []}),
        (lambda: ForecastingGridSearch(
            SESForecaster(), {"alpha": [0.5]}, SlidingWindowSplitter()),
         {"param_grid": {"alpha": []}}),
    ], ids=["holt-phi", "naive-strategy", "knn-k", "trend-degree",
            "nested-k", "pipeline-steps", "ensemble-empty", "grid-empty"])
    def test_set_params_runs_constructor_checks(self, make, params):
        est = make()
        before = est.get_params()
        with pytest.raises(ValueError):
            est.set_params(**params)
        assert est.get_params() == before

    @pytest.mark.parametrize("make, params", [
        (NaiveForecaster, {"strategy": "seasonal_last", "sp": 0}),
        (NaiveForecaster, {"sp": 2.0}),
        (PolynomialTrendForecaster, {"degree": 1.0}),
        (PolynomialTrendForecaster, {"degree": -1}),
        (Deseasonalizer, {"sp": 2.5}),
        (Deseasonalizer, {"sp": 0}),
        (KNNRegressor, {"k": 2.0}),
        (KNNRegressor, {"k": True}),
        (lambda **kw: ReducedRegressionForecaster(KNNRegressor(1), **kw),
         {"window_length": 2.0}),
    ], ids=["naive-sp-0", "naive-sp-float", "trend-degree-float",
            "trend-degree-negative", "deseasonalize-sp-float",
            "deseasonalize-sp-0", "knn-k-float", "knn-k-bool",
            "window-float"])
    def test_counts_must_be_integers(self, make, params):
        # accepted, a float count or an sp of 0 fails later inside numpy
        # with an IndexError or TypeError, which a run does not record
        with pytest.raises(ValueError):
            make(**params)
        est = make()
        before = est.get_params()
        with pytest.raises(ValueError):
            est.set_params(**params)
        assert est.get_params() == before

    def test_numpy_integer_counts_are_accepted(self):
        four = np.int64(4)
        y = seasonal_series(24, sp=4, seed=3)
        assert NaiveForecaster("seasonal_last", sp=four).fit(y).predict(
            [1, 2]).values.tolist() == y.values[-4:-2].tolist()
        assert Deseasonalizer(sp=four).fit(y).is_fitted
        assert PolynomialTrendForecaster(np.int64(1)).fit(y).is_fitted
        assert KNNRegressor(k=np.int64(2)).k == 2

    def test_rejected_set_params_leaves_a_usable_estimator(self):
        X, y = np.eye(3), np.array([1.0, 2.0, 3.0])
        knn = KNNRegressor(k=1)
        with pytest.raises(ValueError):
            knn.set_params(k=0)
        assert knn.k == 1
        assert knn.fit(X, y).predict(X[1]).tolist() == [2.0]

    @pytest.mark.parametrize("params, error", [
        ({"forecast.window_length": 6, "bogus": 1}, UnknownParameterError),
        ({"forecast.window_length": 6, "nothere.k": 1}, UnknownParameterError),
        ({"forecast.window_length": 6, "forecast.regressor.k": 0},
         ValueError),
    ], ids=["unknown-own", "unknown-component", "nested-check"])
    def test_failed_set_params_restores_earlier_keys(self, params, error):
        pipe = TransformedTargetForecaster([
            Standardizer(),
            ("forecast", ReducedRegressionForecaster(KNNRegressor(1), 3)),
        ])
        before = pipe.get_params()
        with pytest.raises(error):
            pipe.set_params(**params)
        assert pipe.get_params() == before

    def test_set_params_checks_after_every_assignment(self):
        f = HoltForecaster(damped=True, phi=0.9).set_params(damped=False,
                                                             phi=None)
        assert f.get_params() == HoltForecaster().get_params()
        pipe = TransformedTargetForecaster([SESForecaster()])
        pipe.set_params(steps=[Standardizer(), NaiveForecaster()])
        assert [name for name, _ in pipe.steps] == ["standardizer",
                                                    "naiveforecaster"]

    @pytest.mark.parametrize("child_first", [False, True],
                             ids=["parent-first", "child-first"])
    def test_param_names_are_per_class(self, child_first):
        # fresh classes, so neither has read its names before
        class Scaled(Standardizer):
            def __init__(self, scale=2.0):
                self.scale = scale
                super().__init__()

        class Shifted(Scaled):
            def __init__(self, scale=2.0, shift=0.5):
                self.shift = shift
                super().__init__(scale)

        classes = [Scaled, Shifted]
        if child_first:
            classes.reverse()
        names = {cls: cls._param_names() for cls in classes}
        assert names == {Scaled: ("scale",), Shifted: ("scale", "shift")}
        assert Standardizer._param_names() == ()
        assert all(type(n) is tuple for n in names.values())
        assert Shifted(shift=1.0).get_params() == {"scale": 2.0, "shift": 1.0}
        assert Scaled().clone().get_params() == {"scale": 2.0}


class TestFittedParams:
    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            SESForecaster().get_fitted_params()

    def test_polynomial_coefficients(self):
        y = [2 * t + 1 for t in range(10)]
        params = PolynomialTrendForecaster(degree=1).fit(y).get_fitted_params()
        assert params["coef_1"] == pytest.approx(2.0, abs=1e-8)
        assert params["coef_0"] == pytest.approx(1.0, abs=1e-8)


class TestHorizonRelativity:
    """Feeding a model its own interim forecasts must not move later
    forecasts at fixed absolute indices (models without re-estimation)."""

    @pytest.mark.parametrize("forecaster", [
        NaiveForecaster("last"),
        NaiveForecaster("seasonal_last", sp=3),
    ])
    def test_self_consistent_update(self, forecaster):
        y = TimeSeries([3.0, 1.0, 4.0, 1.0, 5.0, 9.0], sp=3)
        forecaster.fit(y)
        j, k = 2, 2
        before = forecaster.predict([j + k]).values
        interim = forecaster.predict(list(range(1, j + 1))).values
        forecaster.update(interim)
        after = forecaster.predict([k]).values
        np.testing.assert_array_equal(before, after)
