import numpy as np
import pytest
import scipy.optimize

from ufcast.core import TimeSeries
from ufcast.exceptions import (
    NonPositiveValuesError,
    SeriesTooShortError,
    UnsupportedInSampleError,
)
from ufcast.forecasters import NaiveForecaster, PolynomialTrendForecaster
from ufcast.transforms import (
    BoxCoxTransformer,
    Deseasonalizer,
    Detrender,
    Standardizer,
    classical_decompose,
    seasonality_test,
)
from tests.conftest import seasonal_series


def manual_autocorrelation(values, lag):
    values = np.asarray(values, dtype=float)
    c = values - values.mean()
    return float(np.sum(c[lag:] * c[:-lag]) / np.sum(c * c))


class TestSeasonalityTest:
    def test_sp_one_never_seasonal(self):
        assert seasonality_test(seasonal_series(100, sp=12), sp=1) is False

    @pytest.mark.parametrize("function", [seasonality_test,
                                          classical_decompose])
    @pytest.mark.parametrize("sp", [0, -3, 2.5, True], ids=repr)
    def test_sp_checked_for_a_series_too(self, function, sp):
        # a TimeSeries skips the constructor's check of a raw list's sp
        with pytest.raises(ValueError, match="^sp must be an integer >= 1"):
            function(seasonal_series(48, sp=12), sp)

    @pytest.mark.parametrize("settings", [
        {"critical": float("nan")}, {"critical": -1.0}, {"critical": "x"},
        {"critical": True}, {"min_cycles": 0}, {"min_cycles": 2.5},
    ], ids=str)
    def test_settings_checked_as_the_deseasonalizer_checks_them(
            self, settings):
        y = seasonal_series(48, sp=12)
        assert seasonality_test(y, 12) is True
        [name] = settings
        with pytest.raises(ValueError, match=f"^{name} must be"):
            seasonality_test(y, 12, **settings)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Deseasonalizer(**settings)

    def test_zero_variance_not_seasonal(self):
        assert seasonality_test(np.full(100, 3.0), sp=4) is False

    def test_too_short_not_seasonal(self):
        y = seasonal_series(35, sp=12)
        assert seasonality_test(y, sp=12) is False  # < 3 full seasons

    def test_sine_wave_detected_and_matches_manual_threshold(self):
        t = np.arange(200)
        y = np.sin(2 * np.pi * t / 12) + 5.0
        # hand evaluation of the decision rule
        r = np.array([manual_autocorrelation(y, lag) for lag in range(1, 13)])
        limit = 1.645 * np.sqrt((1 + 2 * np.sum(r[:-1] ** 2)) / 200)
        assert abs(r[-1]) > limit
        assert seasonality_test(y, sp=12) is True

    def test_white_noise_not_seasonal(self):
        rng = np.random.default_rng(0)
        assert seasonality_test(rng.normal(10, 1, 400), sp=12) is False


class TestClassicalDecompose:
    def test_recovers_synthetic_indices(self):
        s = np.array([0.8, 1.2, 0.9, 1.1])  # already mean 1
        t = np.arange(48)
        y = 10.0 * s[t % 4]
        out = classical_decompose(TimeSeries(y, sp=4), sp=4)
        np.testing.assert_allclose(out.indices, s, atol=1e-6)
        assert out.indices.mean() == pytest.approx(1.0, abs=1e-9)

    def test_constant_series_unit_indices(self):
        out = classical_decompose(np.full(30, 6.0), sp=5)
        np.testing.assert_allclose(out.indices, 1.0, atol=1e-12)

    def test_zero_value_rejected(self):
        y = np.full(30, 2.0)
        y[7] = 0.0
        with pytest.raises(NonPositiveValuesError):
            classical_decompose(y, sp=5)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            classical_decompose(np.arange(1.0, 8.0), sp=4)

    def test_odd_period(self):
        s = np.array([0.9, 1.25, 0.85])
        s = s / s.mean()
        y = 4.0 * s[np.arange(30) % 3]
        out = classical_decompose(y, sp=3)
        np.testing.assert_allclose(out.indices, s, atol=1e-6)


class TestDeseasonalizer:
    def test_identity_when_not_seasonal(self):
        rng = np.random.default_rng(1)
        y = TimeSeries(rng.normal(50, 1, 120), sp=12)
        d = Deseasonalizer().fit(y)
        assert d.indices_.applied is False
        np.testing.assert_array_equal(d.transform(y).values, y.values)

    def test_roundtrip_exact(self):
        y = seasonal_series(144, sp=12)
        d = Deseasonalizer().fit(y)
        assert d.indices_.applied is True
        back = d.inverse_transform(d.transform(y))
        np.testing.assert_allclose(back.values, y.values, rtol=1e-12)

    def test_transform_removes_seasonality(self):
        y = seasonal_series(192, sp=24, noise=0.01)
        d = Deseasonalizer().fit(y)
        adjusted = d.transform(y)
        assert seasonality_test(y, sp=24) is True
        assert seasonality_test(adjusted, sp=24) is False

    def test_out_of_sample_alignment(self):
        y = seasonal_series(96, sp=24)
        d = Deseasonalizer().fit(y)
        future = np.arange(96, 96 + 48)
        factors = d.indices_.at(future)
        np.testing.assert_array_equal(factors, d.indices_.indices[future % 24])

    def test_critical_nan_refused_not_read_as_never_seasonal(self):
        y = seasonal_series(48, sp=12)
        assert Deseasonalizer().fit(y).indices_.applied is True
        with pytest.raises(ValueError, match="critical"):
            Deseasonalizer(critical=float("nan"))

    @pytest.mark.parametrize("params, ok", [
        ({}, True), ({"critical": 2}, True), ({"critical": 1e-9}, True),
        ({"critical": np.float64(1.96)}, True), ({"min_cycles": 2}, True),
        ({"critical": float("nan")}, False),
        ({"critical": float("inf")}, False), ({"critical": 0.0}, False),
        ({"critical": -1.645}, False), ({"critical": "x"}, False),
        ({"critical": True}, False),
        ({"critical": None}, False), ({"min_cycles": 1}, False),
        ({"min_cycles": 0}, False), ({"min_cycles": 3.0}, False),
        ({"min_cycles": True}, False), ({"min_cycles": "3"}, False),
    ], ids=str)
    def test_critical_and_min_cycles_checked(self, params, ok):
        y = seasonal_series(48, sp=12)
        if ok:
            Deseasonalizer(**params).fit(y)
            return
        with pytest.raises(ValueError):
            Deseasonalizer(**params)
        d = Deseasonalizer(sp=12)
        with pytest.raises(ValueError):
            d.set_params(sp=4, **params)  # all or nothing
        assert d.get_params() == {"sp": 12, "critical": 1.645,
                                  "min_cycles": 3}


class TestBoxCox:
    def test_roundtrip(self):
        y = seasonal_series(80, sp=8)
        b = BoxCoxTransformer().fit(y)
        back = b.inverse_transform(b.transform(y))
        np.testing.assert_allclose(back.values, y.values, atol=1e-9)

    def test_lambda_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        y = np.exp(rng.normal(1.0, 0.4, 300)) + 0.5
        b = BoxCoxTransformer().fit(y)

        def llf(lam):
            z = (y ** lam - 1) / lam
            return -0.5 * y.size * np.log(z.var()) + (lam - 1) * np.log(y).sum()

        grid = np.linspace(1e-4, 1 - 1e-4, 4001)
        best = grid[np.argmax([llf(g) for g in grid])]
        assert abs(b.lambda_ - best) <= (grid[1] - grid[0]) * 2

    def test_lognormal_pushes_lambda_to_lower_bound(self):
        rng = np.random.default_rng(5)
        y = np.exp(rng.normal(0.0, 1.0, 500))
        b = BoxCoxTransformer().fit(y)
        assert b.lambda_ < 0.05

    @pytest.mark.parametrize("bad", [0.0, -3.0], ids=["zero", "negative"])
    def test_transform_rejects_non_positive(self, bad):
        b = BoxCoxTransformer().fit(seasonal_series(40, sp=4))
        with pytest.raises(NonPositiveValuesError):
            b.transform(TimeSeries([5.0, bad, 7.0]))

    @pytest.mark.parametrize("bounds", [{}, {"lower": 0.1, "upper": 0.6}],
                             ids=["default", "narrow"])
    def test_constant_series_takes_upper_bound(self, bounds):
        y = TimeSeries(np.full(12, 7.5))
        b = BoxCoxTransformer(**bounds).fit(y)
        assert b.lambda_ == b.upper
        back = b.inverse_transform(b.transform(y))
        np.testing.assert_allclose(back.values, y.values, rtol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NonPositiveValuesError):
            BoxCoxTransformer().fit(np.array([1.0, -2.0, 3.0]))

    def test_monotone_in_y(self):
        b = BoxCoxTransformer().fit(seasonal_series(60, sp=6))
        y_sorted = np.linspace(0.1, 50, 200)
        z = b.transform_at(y_sorted, np.arange(200))
        assert np.all(np.diff(z) > 0)


    def test_lambda_equals_scipy_bounded_reference(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 12, 60, 300):
            y = np.exp(rng.normal(1.0, 0.8, n)) * rng.uniform(0.5, 500.0)
            log_sum = float(np.sum(np.log(y)))

            def neg_llf(lam):
                z = (y ** lam - 1.0) / lam
                var = z.var()
                if var <= 0 or not np.isfinite(var):
                    return np.inf
                return 0.5 * n * np.log(var) - (lam - 1.0) * log_sum

            for lower, upper in [(1e-4, 1 - 1e-4), (0.2, 0.3), (0.5, 0.5)]:
                res = scipy.optimize.minimize_scalar(
                    neg_llf, bounds=(lower, upper), method="bounded",
                    options={"xatol": 1e-8})
                want = float(np.clip(res.x, lower, upper))
                got = BoxCoxTransformer(lower, upper).fit(y).lambda_
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("bounds, ok", [
        ({}, True), ({"lower": np.float64(0.2), "upper": 1}, True),
        ({"lower": 0.5, "upper": 0.5}, True),
        ({"lower": "0.1"}, False), ({"lower": 0.0}, False),
        ({"lower": -0.5}, False), ({"upper": 1.5}, False),
        ({"lower": 0.6, "upper": 0.4}, False), ({"upper": True}, False),
        ({"lower": float("nan")}, False), ({"upper": float("inf")}, False),
        ({"lower": None}, False), ({"upper": np.bool_(True)}, False),
    ], ids=str)
    def test_bounds_checked_at_construction(self, bounds, ok):
        if ok:
            BoxCoxTransformer(**bounds).fit(np.array([1.0, 3.0, 2.0, 5.0]))
            return
        with pytest.raises(ValueError):
            BoxCoxTransformer(**bounds)
        b = BoxCoxTransformer()
        with pytest.raises(ValueError):
            b.set_params(**bounds)
        assert (b.lower, b.upper) == (1e-4, 1.0 - 1e-4)


class TestStandardizer:
    def test_two_points(self):
        s = Standardizer().fit(np.array([2.0, 4.0]))
        assert (s.mean_, s.std_) == (3.0, 1.0)
        out = s.transform(TimeSeries([2.0, 4.0]))
        np.testing.assert_array_equal(out.values, [-1.0, 1.0])

    def test_roundtrip(self):
        y = seasonal_series(50, sp=5)
        s = Standardizer().fit(y)
        back = s.inverse_transform(s.transform(y))
        np.testing.assert_allclose(back.values, y.values, atol=1e-12)

    def test_constant_series(self):
        s = Standardizer().fit(np.full(10, 7.0))
        out = s.transform(TimeSeries(np.full(10, 7.0)))
        np.testing.assert_array_equal(out.values, np.zeros(10))


class TestDetrender:
    def test_linear_trend_residuals_are_zero(self):
        t = np.arange(12.0)
        y = TimeSeries(2 * t + 1)
        d = Detrender(PolynomialTrendForecaster(degree=1)).fit(y)
        np.testing.assert_allclose(d.transform(y).values, 0.0, atol=1e-8)

    def test_roundtrip(self):
        y = seasonal_series(60, sp=6)
        d = Detrender(PolynomialTrendForecaster(degree=1)).fit(y)
        back = d.inverse_transform(d.transform(y))
        np.testing.assert_allclose(back.values, y.values, atol=1e-9)

    def test_future_window_uses_out_of_sample_predictions(self):
        y = seasonal_series(40, sp=4)
        d = Detrender(PolynomialTrendForecaster(degree=1)).fit(y)
        future = TimeSeries(np.full(5, 60.0), start_index=40, sp=4)
        out = d.transform(future)
        assert out.values.shape == (5,)
        assert np.all(np.isfinite(out.values))
        assert out.start_index == 40

    def test_prototype_left_unfitted(self):
        proto = PolynomialTrendForecaster(degree=1)
        Detrender(proto).fit(seasonal_series(20, sp=2))
        assert proto.is_fitted is False

    def test_propagates_unsupported_in_sample(self):
        y = seasonal_series(30, sp=3)
        d = Detrender(NaiveForecaster("last")).fit(y)
        with pytest.raises(UnsupportedInSampleError):
            d.transform(y)  # first training point has no lagged prediction


class TestAgainstStatsmodels:
    """Optional oracle: statsmodels mirrors the classical R conventions."""

    def test_decomposition_and_acf_match(self):
        sm_seasonal = pytest.importorskip("statsmodels.tsa.seasonal")
        sm_stattools = pytest.importorskip("statsmodels.tsa.stattools")
        from ufcast.transforms import autocorrelations

        rng = np.random.default_rng(0)
        for sp, n in ((24, 700), (12, 144), (7, 100)):
            t = np.arange(n)
            y = ((50 + 0.1 * t) * (1 + 0.3 * np.sin(2 * np.pi * t / sp))
                 * np.exp(rng.normal(0, 0.05, n)))
            mine = classical_decompose(TimeSeries(y, sp=sp), sp=sp).indices
            ref = sm_seasonal.seasonal_decompose(
                y, model="multiplicative", period=sp
            ).seasonal[:sp]
            np.testing.assert_allclose(mine, ref, atol=1e-12)

            r_mine = autocorrelations(y, sp)
            r_ref = sm_stattools.acf(y, nlags=sp, fft=False)[1:]
            np.testing.assert_allclose(r_mine, r_ref, atol=1e-12)


class TestRoundtripProperty:
    """Every transformer inverts itself to 1e-9 on its validity domain."""

    @pytest.mark.parametrize("make", [
        lambda: Deseasonalizer(),
        lambda: BoxCoxTransformer(),
        lambda: Standardizer(),
        lambda: Detrender(PolynomialTrendForecaster(degree=1)),
    ])
    def test_inverse_of_transform(self, make):
        for seed in range(4):
            y = seasonal_series(96, sp=12, seed=seed)
            t = make().fit(y)
            back = t.inverse_transform(t.transform(y))
            np.testing.assert_allclose(back.values, y.values, atol=1e-9)
