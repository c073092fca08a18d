import numpy as np
import pytest

from ufcast.compose import (
    EnsembleForecaster,
    ReducedRegressionForecaster,
    TransformedTargetForecaster,
    _prefix_cache_scope,
    tabularize,
)
from ufcast.core import BaseForecaster, TimeSeries
from ufcast.exceptions import (
    NonPositiveValuesError,
    SeriesTooShortError,
    UnsupportedInSampleError,
)
from ufcast.forecasters import (
    HoltForecaster,
    NaiveForecaster,
    PolynomialTrendForecaster,
    SESForecaster,
)
from ufcast.regress import KNNRegressor, LinearRegressor
from ufcast.select import ForecastingGridSearch, SlidingWindowSplitter
from ufcast.transforms import (
    BaseTransformer,
    BoxCoxTransformer,
    Deseasonalizer,
    Detrender,
    Standardizer,
    classical_decompose,
    seasonality_test,
)
from tests.conftest import seasonal_series


class TestTabularize:
    def test_enumerated_windows(self):
        table = tabularize((1.0, 2.0, 3.0, 4.0, 5.0), 2)
        np.testing.assert_array_equal(
            table.X, [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]
        )
        np.testing.assert_array_equal(table.targets, [3.0, 4.0, 5.0])

    def test_single_row(self):
        table = tabularize((1.0, 2.0, 3.0), 2)
        assert table.X.shape == (1, 2)

    def test_window_equal_to_length_rejected(self):
        with pytest.raises(SeriesTooShortError):
            tabularize((1.0, 2.0, 3.0), 3)

    @pytest.mark.parametrize("window_length", [2.7, 2.0, True, 0])
    def test_non_integer_window_rejected(self, window_length):
        with pytest.raises(ValueError):
            tabularize([1, 2, 3, 4, 5, 6], window_length)

    def test_numpy_integer_window(self):
        table = tabularize([1, 2, 3, 4, 5, 6], np.int64(2))
        assert table.X.shape == (4, 2)
        assert table.window_length == 2

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=17)
        for w in (1, 3, 8):
            table = tabularize(y, w)
            rebuilt = np.concatenate([table.X[0], table.targets])
            np.testing.assert_array_equal(rebuilt, y)


class TestReducedRegression:
    def test_least_squares_continues_line(self):
        y = np.arange(1.0, 21.0)
        f = ReducedRegressionForecaster(LinearRegressor(), window_length=2)
        f.fit(y)
        got = f.predict([1, 2, 3]).values
        np.testing.assert_allclose(got, [21.0, 22.0, 23.0], atol=1e-6)

        # pseudoinverse oracle for the first step: collinear windows still
        # interpolate the line
        table = tabularize(y, 2)
        Xc = table.X - table.X.mean(axis=0)
        coef = np.linalg.pinv(Xc) @ (table.targets - table.targets.mean())
        intercept = table.targets.mean() - table.X.mean(axis=0) @ coef
        first = np.array([19.0, 20.0]) @ coef + intercept
        assert got[0] == pytest.approx(first, abs=1e-9)

    def test_constant_series(self):
        f = ReducedRegressionForecaster(KNNRegressor(1), window_length=3)
        f.fit(np.full(12, 5.0))
        np.testing.assert_array_equal(f.predict([1, 2, 5]).values, 5.0)

    def test_knn_nearest_window_oracle(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        f = ReducedRegressionForecaster(KNNRegressor(1), window_length=2).fit(y)
        # rows: (1,2)->3, (2,3)->4; query window (3,4)
        rows = np.array([[1.0, 2.0], [2.0, 3.0]])
        targets = np.array([3.0, 4.0])
        dists = np.sqrt(((rows - np.array([3.0, 4.0])) ** 2).sum(axis=1))
        assert f.predict(1).values[0] == targets[np.argmin(dists)] == 4.0

    def test_sparse_horizon_runs_full_recursion(self):
        y = seasonal_series(40, sp=4, seed=2)
        f = ReducedRegressionForecaster(LinearRegressor(), window_length=4).fit(y)
        dense = f.predict([1, 2, 3]).values
        sparse = f.predict([3]).values
        assert sparse[0] == dense[2]

    def test_in_sample_needs_full_window(self):
        y = seasonal_series(20, sp=2, seed=3)
        f = ReducedRegressionForecaster(LinearRegressor(), window_length=5).fit(y)
        preds = f.predict([-5, -1])
        assert np.all(np.isfinite(preds.values))
        with pytest.raises(UnsupportedInSampleError):
            f.predict([-(len(y) - 1)])  # inside the first window

    @pytest.mark.parametrize("regressor", [LinearRegressor(), KNNRegressor(2)],
                             ids=["lr", "knn"])
    def test_in_sample_rows_are_the_trailing_windows(self, regressor):
        y = seasonal_series(40, sp=4, seed=4)
        w = 5
        f = ReducedRegressionForecaster(regressor, window_length=w).fit(y)
        steps = np.array([-34, -20, -19, -7, -1])
        rel = steps + len(y) - 1
        rows = np.stack([y.values[i - w:i] for i in rel])
        expected = regressor.predict(rows)
        assert f.predict(steps).values.tobytes() == expected.tobytes()

    def test_window_too_long(self):
        with pytest.raises(SeriesTooShortError):
            ReducedRegressionForecaster(LinearRegressor(), window_length=9).fit(
                np.arange(5.0)
            )

    def test_interpolating_regressor_reproduces_ar_continuation(self):
        # y_t = 0.6 y_{t-1} + 0.4 y_{t-2}: exactly AR-representable windows
        y = [1.0, 2.0]
        for _ in range(28):
            y.append(0.6 * y[-1] + 0.4 * y[-2])
        y = np.array(y)
        truth = list(y)
        for _ in range(5):
            truth.append(0.6 * truth[-1] + 0.4 * truth[-2])
        f = ReducedRegressionForecaster(LinearRegressor(), window_length=2).fit(y)
        np.testing.assert_allclose(f.predict([1, 2, 3, 4, 5]).values,
                                   truth[30:], rtol=1e-8)


def naive2_direct(y: TimeSeries, horizon: int) -> np.ndarray:
    """Straight-line reference: conditional seasonal adjustment + last value."""
    sp = y.sp
    if seasonality_test(y, sp):
        idx = classical_decompose(y, sp)
        adjusted = y.values / idx.indices[np.arange(len(y)) % sp]
        out_idx = idx.indices[(len(y) + np.arange(horizon)) % sp]
        return adjusted[-1] * out_idx
    return np.full(horizon, y.values[-1])


class TestPipeline:
    def test_reproduces_direct_seasonal_naive(self):
        for seed in range(3):
            y = seasonal_series(144, sp=12, seed=seed)
            pipe = TransformedTargetForecaster(
                [Deseasonalizer(sp=12), NaiveForecaster("last")]
            ).fit(y)
            got = pipe.predict(list(range(1, 19))).values
            np.testing.assert_allclose(got, naive2_direct(y, 18), rtol=1e-12)

    def test_single_step_equals_bare_forecaster(self):
        y = seasonal_series(50, sp=5, seed=1)
        bare = SESForecaster().fit(y).predict([1, 2, 3]).values
        piped = TransformedTargetForecaster([SESForecaster()]).fit(y)
        np.testing.assert_array_equal(piped.predict([1, 2, 3]).values, bare)

    def test_standardized_trend_is_exact_on_line(self):
        t = np.arange(30.0)
        y = TimeSeries(3 * t + 7)
        pipe = TransformedTargetForecaster(
            [Standardizer(), PolynomialTrendForecaster(degree=1)]
        ).fit(y)
        expected = 3 * np.arange(30, 34) + 7
        np.testing.assert_allclose(pipe.predict([1, 2, 3, 4]).values, expected,
                                   atol=1e-8)

    def test_manual_inverse_chain(self):
        y = seasonal_series(96, sp=12, seed=7)
        deseas, std = Deseasonalizer(sp=12), Standardizer()
        pipe = TransformedTargetForecaster(
            [("d", deseas), ("s", std), ("f", SESForecaster())]
        ).fit(y)
        fh = [1, 5, 12]
        got = pipe.predict(fh).values

        inner = SESForecaster().fit(
            Standardizer().fit(
                Deseasonalizer(sp=12).fit(y).transform(y)
            ).transform(Deseasonalizer(sp=12).fit(y).transform(y))
        )
        positions = np.array([95 + s for s in fh])
        manual = inner.predict(fh).values
        manual = Standardizer().fit(Deseasonalizer(sp=12).fit(y).transform(y)) \
            .inverse_at(manual, positions)
        manual = Deseasonalizer(sp=12).fit(y).inverse_at(manual, positions)
        np.testing.assert_allclose(got, manual, rtol=1e-12)

    def test_update_without_refit(self):
        y = seasonal_series(96, sp=12, seed=8)
        more = seasonal_series(12, sp=12, seed=9, start_index=96)
        pipe = TransformedTargetForecaster(
            [Deseasonalizer(sp=12), SESForecaster()]
        ).fit(y)
        pipe.update(more)
        assert pipe.cutoff == 107
        assert np.isfinite(pipe.predict([1, 2]).values).all()

    def test_step_kinds_validated(self):
        with pytest.raises(ValueError):
            TransformedTargetForecaster([Standardizer()])  # no forecaster
        with pytest.raises(ValueError):
            TransformedTargetForecaster(
                [NaiveForecaster(), SESForecaster()]  # forecaster mid-chain
            )

    def test_nested_param_paths(self):
        pipe = TransformedTargetForecaster([
            ("deseasonalize", Deseasonalizer(sp=4)),
            ("forecast", ReducedRegressionForecaster(KNNRegressor(1), 3)),
        ])
        pipe.set_params(**{"forecast.window_length": 6,
                           "forecast.regressor.k": 2})
        params = pipe.get_params()
        assert params["forecast.window_length"] == 6
        assert params["forecast.regressor.k"] == 2


class TestEnsemble:
    def test_single_component_identity(self):
        y = seasonal_series(40, sp=4, seed=4)
        bare = SESForecaster().fit(y).predict([1, 2]).values
        ens = EnsembleForecaster([SESForecaster()]).fit(y)
        np.testing.assert_array_equal(ens.predict([1, 2]).values, bare)

    def test_hand_mean(self):
        ens = EnsembleForecaster([
            NaiveForecaster("last"),
            NaiveForecaster("seasonal_last", sp=2),
        ]).fit((1.0, 2.0, 3.0, 4.0))
        assert ens.predict(1).values[0] == pytest.approx(3.5)

    def test_permutation_invariant_bitwise(self):
        y = seasonal_series(60, sp=6, seed=5)
        parts = [SESForecaster(), HoltForecaster(),
                 NaiveForecaster("seasonal_last")]
        a = EnsembleForecaster(list(parts)).fit(y).predict([1, 2, 3]).values
        b = EnsembleForecaster(parts[::-1]).fit(y).predict([1, 2, 3]).values
        assert np.array_equal(a, b)

    def test_component_failure_fails_ensemble(self):
        ens = EnsembleForecaster([
            NaiveForecaster("last"),
            HoltForecaster(),  # needs 3 points
        ])
        with pytest.raises(SeriesTooShortError):
            ens.fit((1.0, 2.0))

    def test_update_is_the_mean_of_updated_components(self):
        y = seasonal_series(80, sp=6, seed=7)
        train, new = y.islice(0, 60), y.islice(60, 80)
        parts = [SESForecaster(), HoltForecaster(),
                 NaiveForecaster("seasonal_last", sp=6)]
        ens = EnsembleForecaster([p.clone() for p in parts]).fit(train)
        ens.update(new)
        alone = np.stack([p.fit(train).update(new).predict([1, 2, 3]).values
                          for p in parts])
        assert ens.cutoff == new.end_index
        assert np.array_equal(ens.predict([1, 2, 3]).values,
                              np.sort(alone, axis=0).mean(axis=0))


class _Tagged(Standardizer):
    """A standardizer with a hyper-parameter of any type."""

    def __init__(self, tag=None):
        self.tag = tag
        super().__init__()


@pytest.fixture
def transformer_fits(monkeypatch):
    """Every transformer whose ``fit`` runs, in call order."""
    fits = []
    fit = BaseTransformer.fit

    def recording_fit(self, y):
        fits.append(self)
        return fit(self, y)

    monkeypatch.setattr(BaseTransformer, "fit", recording_fit)
    return fits


def _reduction(window=12):
    return TransformedTargetForecaster([
        ("deseasonalize", Deseasonalizer()),
        ("detrend", Detrender(PolynomialTrendForecaster(degree=1))),
        ("standardize", Standardizer()),
        ("forecast", ReducedRegressionForecaster(KNNRegressor(1), window)),
    ])


def _one_ulp_up(y, at):
    values = y.values.copy()
    values[at] = np.nextafter(values[at], np.inf)
    return TimeSeries(values, y.start_index, y.sp)


_Y = seasonal_series(72, sp=6, seed=21)


class TestPrefixCache:
    """Inside a scope a transformer is fitted once per (class,
    hyper-parameters, input values, start_index, sp)."""

    @staticmethod
    def _fit_both(first, second, y_first, y_second=None):
        if y_second is None:
            y_second = y_first
        with _prefix_cache_scope():
            for step, y in ((first, y_first), (second, y_second)):
                TransformedTargetForecaster(
                    [("t", step), ("f", NaiveForecaster())]).fit(y)

    @pytest.mark.parametrize("first, second, y_second", [
        (Deseasonalizer(), Deseasonalizer(critical=2.0), None),
        (Deseasonalizer(),
         Deseasonalizer(critical=float(np.nextafter(1.645, 2.0))), None),
        (Detrender(PolynomialTrendForecaster(degree=1)),
         Detrender(PolynomialTrendForecaster(degree=2)), None),
        (Standardizer(), Standardizer(),
         TimeSeries(_Y.values, start_index=5, sp=6)),
        (Standardizer(), Standardizer(), TimeSeries(_Y.values, sp=4)),
        (Standardizer(), Standardizer(), _one_ulp_up(_Y, 40)),
        (Deseasonalizer(), Deseasonalizer(), _one_ulp_up(_Y, 0)),
    ], ids=["critical", "critical-ulp", "nested-degree", "start-index", "sp",
            "ulp-apart", "ulp-apart-first"])
    def test_any_difference_fits_again(self, transformer_fits, first, second,
                                       y_second):
        self._fit_both(first, second, _Y, y_second)
        assert transformer_fits == [first, second]

    def test_identical_step_and_input_fit_once(self, transformer_fits):
        first = Detrender(PolynomialTrendForecaster(degree=1))
        second = Detrender(PolynomialTrendForecaster(degree=1))
        self._fit_both(first, second, _Y, TimeSeries(_Y.values.copy(), sp=6))
        assert transformer_fits == [first]
        assert second.is_fitted
        assert second.forecaster_ is first.forecaster_
        assert second.transform(_Y).values.tobytes() \
            == first.transform(_Y).values.tobytes()

    @pytest.mark.parametrize("tag", [object(), {"a": 1}, np.float32(1.0)],
                             ids=["object", "dict", "numpy-scalar"])
    def test_unkeyable_parameter_is_never_shared(self, transformer_fits, tag):
        first, second = _Tagged(tag), _Tagged(tag)
        second.tag = first.tag  # the very same value
        self._fit_both(first, second, _Y)
        assert transformer_fits == [first, second]

    def test_unkeyable_step_leaves_the_rest_shared(self, transformer_fits):
        with _prefix_cache_scope():
            for _ in range(2):
                TransformedTargetForecaster([
                    Deseasonalizer(), _Tagged(object()), NaiveForecaster(),
                ]).fit(_Y)
        assert [type(t) for t in transformer_fits] \
            == [Deseasonalizer, _Tagged, _Tagged]

    def test_failed_fit_is_not_kept(self, transformer_fits):
        values = _Y.values.copy()
        values[3] = -1.0
        with _prefix_cache_scope():
            for _ in range(2):
                with pytest.raises(NonPositiveValuesError):
                    TransformedTargetForecaster(
                        [BoxCoxTransformer(), NaiveForecaster()]).fit(values)
        assert len(transformer_fits) == 2

    def test_nothing_kept_outside_a_scope(self, transformer_fits):
        for _ in range(2):
            _reduction().fit(_Y)
        assert len(transformer_fits) == 6

    def test_inner_scope_joins_the_outer(self, transformer_fits):
        with _prefix_cache_scope():
            with _prefix_cache_scope():
                _reduction().fit(_Y)
            _reduction().fit(_Y)
        assert len(transformer_fits) == 3

    def test_refit_leaves_a_sharing_pipeline_unchanged(self,
                                                       transformer_fits):
        y = seasonal_series(96, sp=12, seed=11)
        other = seasonal_series(96, sp=12, level=80.0, seed=12)
        fh = [1, 2, 12, 30]

        def state(pipe):
            deseas, detrend, standardize = pipe._transformers
            return (pipe.predict(fh).values.tobytes(),
                    pipe.get_fitted_params(),
                    deseas.indices_.indices.tobytes(),
                    detrend.forecaster_.coef_.tobytes(),
                    (standardize.mean_, standardize.std_))

        with _prefix_cache_scope():
            first = _reduction().fit(y)
            second = _reduction(window=6).fit(y)
            assert len(transformer_fits) == 3  # second fitted no step
            shared = second._transformers[1].forecaster_
            assert shared is first._transformers[1].forecaster_
            before = state(second)
            first.fit(other)
            assert len(transformer_fits) == 6
            assert first._transformers[1].forecaster_ is not shared
            assert state(second) == before
            # the scope still holds the fit on y, not the refit's
            assert state(_reduction(window=6).fit(y)) == before
            assert len(transformer_fits) == 6
        # a fit after the scope closes fits every step again, to the same
        # state
        fresh = _reduction(window=6).fit(y)
        assert len(transformer_fits) == 9
        assert state(fresh) == before


@pytest.fixture
def forecaster_fits(monkeypatch):
    """Every forecaster whose ``fit`` runs, in call order."""
    fits = []
    fit = BaseForecaster.fit

    def recording_fit(self, y, fh=None):
        fits.append(self)
        return fit(self, y, fh)

    monkeypatch.setattr(BaseForecaster, "fit", recording_fit)
    return fits


_FINALS = {
    "SES": SESForecaster,
    "Holt": lambda: HoltForecaster(damped=True),
    "KNN": lambda: ReducedRegressionForecaster(KNNRegressor(1), 6),
    "LR": lambda: ReducedRegressionForecaster(LinearRegressor(), 6),
}


def _adjusted(final):
    steps = [("deseasonalize", Deseasonalizer())]
    if isinstance(final, ReducedRegressionForecaster):
        steps += [("detrend", Detrender(PolynomialTrendForecaster(degree=1))),
                  ("standardize", Standardizer())]
    return TransformedTargetForecaster(steps + [("forecast", final)])


def _shares_fit(first, second):
    """Whether ``second`` and its nested estimators hold the very fitted
    attributes of ``first`` and its nested estimators."""
    for ours, theirs in zip(first._estimators(), second._estimators()):
        for name, value in vars(ours).items():
            if name not in ours._param_names() \
                    and vars(theirs).get(name) is not value:
                return False
    return True


class TestSharedFinalStep:
    """Inside a scope the final step is looked up like the transformers
    before it: fitted, not transformed, and shared whole, the fitted state
    of its nested estimators included."""

    @pytest.mark.parametrize("final", list(_FINALS))
    def test_identical_pipelines_fit_the_final_once(self, forecaster_fits,
                                                    final):
        with _prefix_cache_scope():
            first = _adjusted(_FINALS[final]()).fit(_Y)
            second = _adjusted(_FINALS[final]()).fit(_Y)
        finals = [f for f in forecaster_fits
                  if type(f) is type(first._final)]
        assert finals == [first._final]
        assert second._final.is_fitted
        fh = [-2, 1, 5, 13]
        if final in ("KNN", "LR"):
            fh = fh[1:]  # no full window before the cutoff
        assert second.predict(fh).values.tobytes() \
            == first.predict(fh).values.tobytes()

    @pytest.mark.parametrize("final", ["KNN", "LR"])
    def test_nested_fitted_state_travels_with_the_final(self, final):
        with _prefix_cache_scope():
            first = _adjusted(_FINALS[final]()).fit(_Y)
            second = _adjusted(_FINALS[final]()).fit(_Y)
        assert second._final.regressor is not first._final.regressor
        assert second._final.regressor.is_fitted
        assert _shares_fit(first._final, second._final)

    @pytest.mark.parametrize("update_params", [False, True],
                             ids=["state", "refit"])
    @pytest.mark.parametrize("final", list(_FINALS))
    def test_update_leaves_a_sharing_pipeline_unchanged(self, final,
                                                        update_params):
        y = seasonal_series(96, sp=12, seed=11)
        train, new = y.islice(0, 84), y.islice(84, 96)
        fh = [1, 2, 12, 30]
        with _prefix_cache_scope():
            first = _adjusted(_FINALS[final]()).fit(train)
            second = _adjusted(_FINALS[final]()).fit(train)
            assert _shares_fit(first._final, second._final)
            before = second.predict(fh).values.tobytes()
            first.update(new, update_params=update_params)
            assert second.predict(fh).values.tobytes() == before
            # and the update itself is that of an unshared pipeline
        alone = _adjusted(_FINALS[final]()).fit(train)
        alone.update(new, update_params=update_params)
        assert first.predict(fh).values.tobytes() \
            == alone.predict(fh).values.tobytes()

    def test_grid_search_final_is_never_shared(self, forecaster_fits):
        def tuned():
            cv = SlidingWindowSplitter(window_length=1, fh=[1, 2, 3],
                                       mode="single")
            return _adjusted(ForecastingGridSearch(
                SESForecaster(), {"alpha": [0.2, 0.5]}, cv))

        with _prefix_cache_scope():
            first, second = tuned().fit(_Y), tuned().fit(_Y)
        searches = [f for f in forecaster_fits
                    if isinstance(f, ForecastingGridSearch)]
        # the dict-valued param_grid cannot be keyed exactly
        assert searches == [first._final, second._final]
