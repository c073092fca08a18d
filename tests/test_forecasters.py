import numpy as np
import pytest

from ufcast.core import TimeSeries
from ufcast.exceptions import SeriesTooShortError
from ufcast.forecasters import (
    HoltForecaster,
    NaiveForecaster,
    PolynomialTrendForecaster,
    SESForecaster,
    ThetaForecaster,
    _SMOOTHING_GRID,
    _holt_sse_grid,
    _holt_sse_scalar,
    _ses_sse_scalar,
)
from tests.conftest import seasonal_series


class TestNaive:
    def test_last_sparse_horizon(self):
        f = NaiveForecaster("last").fit((2, 5, 9))
        assert f.predict([1, 5]).values.tolist() == [9.0, 9.0]

    def test_seasonal_repeats(self):
        f = NaiveForecaster("seasonal_last", sp=2).fit((1, 2, 3, 4))
        assert f.predict([1, 2, 3, 4]).values.tolist() == [3.0, 4.0, 3.0, 4.0]

    def test_seasonal_too_short(self):
        with pytest.raises(SeriesTooShortError):
            NaiveForecaster("seasonal_last", sp=4).fit((1.0,))

    def test_sp_from_series(self):
        f = NaiveForecaster("seasonal_last").fit(TimeSeries([1, 2, 3, 4], sp=2))
        assert f.predict(1).values[0] == 3.0

    def test_in_sample_is_lagged(self):
        from ufcast.exceptions import UnsupportedInSampleError

        f = NaiveForecaster("last").fit((2.0, 5.0, 9.0))
        assert f.predict([-1]).values.tolist() == [2.0]
        with pytest.raises(UnsupportedInSampleError):
            f.predict([-2])  # first point has nothing to lag from


class TestSES:
    def test_constant_any_alpha(self):
        for alpha in (0.1, 0.5, 0.9, None):
            f = SESForecaster(alpha=alpha).fit((7.0, 7.0, 7.0, 7.0))
            assert np.all(f.predict([1, 2, 5]).values == 7.0)

    def test_alpha_one_is_naive(self):
        y = seasonal_series(40, sp=1, seed=1)
        ses = SESForecaster(alpha=1.0).fit(y).predict([1, 2, 3]).values
        naive = NaiveForecaster("last").fit(y).predict([1, 2, 3]).values
        np.testing.assert_allclose(ses, naive, atol=1e-12)

    def test_two_point_hand_recursion(self):
        # l0 = 3, then l = .5*3+.5*3 = 3, then l = .5*5+.5*3 = 4
        f = SESForecaster(alpha=0.5).fit((3.0, 5.0))
        assert f.predict(1).values[0] == pytest.approx(4.0)

    def test_optimised_alpha_in_bounds_and_beats_grid(self):
        for seed in range(5):
            y = seasonal_series(80, sp=1, noise=0.1, seed=seed)
            f = SESForecaster().fit(y)
            params = f.get_fitted_params()
            assert 0.0 <= params["alpha"] <= 1.0
            data = y.values.tolist()
            grid_sse = min(_ses_sse_scalar(data, a, data[0])
                           for a in _SMOOTHING_GRID.tolist())
            assert params["sse"] <= grid_sse + 1e-9

    def test_noop_update_invariance(self):
        f = SESForecaster().fit(seasonal_series(50, sp=1, seed=9))
        before = f.predict([1, 3]).values
        f.update(())
        np.testing.assert_array_equal(f.predict([1, 3]).values, before)

    def test_optimizer_failure_on_overflowing_series(self):
        from ufcast.exceptions import OptimizerFailedError

        huge = [1e200, -1e200, 1e200, -1e200]
        with pytest.raises(OptimizerFailedError):
            SESForecaster().fit(huge)
        with pytest.raises(OptimizerFailedError):
            HoltForecaster().fit(huge)


class TestHolt:
    def test_noiseless_line_continues(self):
        t = np.arange(20.0)
        f = HoltForecaster().fit(2 * t + 1)
        expected = 2 * np.arange(20, 24) + 1
        np.testing.assert_allclose(f.predict([1, 2, 3, 4]).values, expected,
                                   atol=1e-4)

    def test_damped_phi_one_equals_holt(self):
        y = seasonal_series(60, sp=1, noise=0.05, seed=11)
        fixed = dict(alpha=0.4, beta=0.2)
        plain = HoltForecaster(**fixed).fit(y)
        damped = HoltForecaster(damped=True, phi=1.0, **fixed).fit(y)
        np.testing.assert_allclose(
            plain.predict([1, 2, 5]).values, damped.predict([1, 2, 5]).values,
            rtol=1e-12,
        )

    @pytest.mark.parametrize("damped, given", [
        (False, {"alpha": 0.3}),
        (False, {"beta": 0.1}),
        (True, {"alpha": 0.3}),
        (True, {"beta": 0.1}),
        (True, {"phi": 0.9}),
        (True, {"alpha": 0.3, "beta": 0.1}),
        (True, {"alpha": 0.3, "phi": 0.9}),
        (True, {"beta": 0.1, "phi": 0.9}),
    ], ids=lambda v: "damped" if v is True else "holt" if v is False
        else "+".join(v))
    def test_partially_given_coefficients_stay_fixed(self, damped, given):
        y = seasonal_series(60, sp=1, slope=0.4, noise=0.05, seed=15)
        p = HoltForecaster(damped=damped, **given).fit(y).get_fitted_params()
        for name, value in given.items():
            assert p[name] == value
        phi = p["phi"] if damped else 1.0
        # the reported SSE is the in-sample SSE of the reported parameters
        assert p["sse"] == _holt_sse_scalar(
            y.values.tolist(), p["alpha"], p["beta"], phi,
            p["initial_level"], p["initial_trend"])
        # and no worse than the grid over the free coefficients alone
        axes = {"alpha": _SMOOTHING_GRID, "beta": _SMOOTHING_GRID,
                "phi": _SMOOTHING_GRID if damped else np.ones(1)}
        axes.update({name: np.array([value]) for name, value in given.items()})
        aa, bb, pp = (g.ravel() for g in np.meshgrid(*axes.values(),
                                                     indexing="ij"))
        values = y.values
        b0 = (values[-1] - values[0]) / (len(values) - 1)
        assert p["sse"] <= _holt_sse_grid(values, aa, bb, pp, values[0],
                                          b0).min()

    def test_phi_without_damping_rejected(self):
        # an undamped model would ignore phi: its forecast is plain Holt's
        with pytest.raises(ValueError, match="damped"):
            HoltForecaster(phi=0.9)
        assert HoltForecaster(damped=True, phi=0.9).phi == 0.9

    def test_constant_series_flat(self):
        f = HoltForecaster().fit(np.full(30, 4.0))
        params = f.get_fitted_params()
        assert abs(params["trend"]) < 1e-6
        np.testing.assert_allclose(f.predict([1, 10]).values, 4.0, atol=1e-6)

    def test_forecasts_affine_in_h(self):
        f = HoltForecaster().fit(seasonal_series(50, sp=1, seed=12))
        vals = f.predict([1, 2, 3, 4, 5]).values
        second_diff = np.diff(vals, n=2)
        np.testing.assert_allclose(second_diff, 0.0, atol=1e-9)

    def test_damped_monotone_approach_to_limit(self):
        y = seasonal_series(60, sp=1, slope=0.4, seed=13)
        f = HoltForecaster(damped=True).fit(y)
        p = f.get_fitted_params()
        if p["phi"] >= 1.0 or abs(p["trend"]) < 1e-12:
            pytest.skip("no damping fitted on this draw")
        limit = p["level"] + p["trend"] * p["phi"] / (1 - p["phi"])
        horizon = np.arange(1, 200)
        vals = f.predict(horizon).values
        gaps = np.abs(vals - limit)
        assert np.all(np.diff(gaps) <= 1e-9)

    def test_noop_update_invariance(self):
        f = HoltForecaster().fit(seasonal_series(40, sp=1, seed=14))
        before = f.predict([1, 2]).values
        f.update(())
        np.testing.assert_array_equal(f.predict([1, 2]).values, before)


@pytest.mark.parametrize("forecaster, keys", [
    (SESForecaster(), {"alpha", "initial_level", "level", "sse"}),
    (SESForecaster(alpha=0.3), {"alpha", "initial_level", "level", "sse"}),
    (HoltForecaster(), {"alpha", "beta", "initial_level", "initial_trend",
                        "level", "trend", "sse"}),
    (HoltForecaster(damped=True), {"alpha", "beta", "phi", "initial_level",
                                   "initial_trend", "level", "trend", "sse"}),
    (ThetaForecaster(), {"slope", "intercept", "alpha", "level"}),
], ids=["ses", "ses-fixed", "holt", "damped", "theta"])
def test_smoothing_fitted_param_keys(forecaster, keys):
    """The shared smoothing fit sets beta_, phi_ and initial_trend_ on every
    model; each model still reports only its own documented keys."""
    y = seasonal_series(40, sp=1, slope=0.3, noise=0.05, seed=31)
    assert set(forecaster.fit(y).get_fitted_params()) == keys


class TestTheta:
    def test_combination_identity(self):
        """Forecast = 0.5 * trend-line extrapolation + 0.5 * flat smoothing
        of the double-curvature line, exactly, at every step."""
        y = seasonal_series(70, sp=1, noise=0.05, seed=21)
        f = ThetaForecaster().fit(y)
        p = f.get_fitted_params()
        steps = np.array([1, 2, 7, 20])
        line = p["intercept"] + p["slope"] * (len(y) - 1 + steps)
        manual = 0.5 * line + 0.5 * p["level"]
        np.testing.assert_array_equal(f.predict(steps).values, manual)

    def test_constant_series(self):
        f = ThetaForecaster().fit(np.full(20, 3.0))
        np.testing.assert_allclose(f.predict([1, 5, 9]).values, 3.0, atol=1e-9)

    def test_line_gives_half_slope_drift(self):
        # the double-curvature line of a pure line is the line itself, and
        # flat smoothing contributes no trend: the combination extrapolates
        # at half the fitted slope
        t = np.arange(40.0)
        y = 3 * t + 2
        f = ThetaForecaster().fit(y)
        h = np.arange(1.0, 6.0)
        expected = y[-1] + 0.5 * 3 * h
        np.testing.assert_allclose(f.predict(h.astype(int)).values, expected,
                                   rtol=1e-3)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            ThetaForecaster().fit((1.0, 2.0))


SMOOTHERS = {
    "ses": SESForecaster,
    "holt": HoltForecaster,
    "damped": lambda: HoltForecaster(damped=True),
    "theta": ThetaForecaster,
}


class TestSmoothingUpdate:
    """The cheap update path carries the smoothing state exactly: splitting
    new data into chunks changes no bit of any prediction."""

    @pytest.mark.parametrize("make", SMOOTHERS.values(), ids=SMOOTHERS)
    def test_chunked_update_matches_one_update(self, make):
        y = seasonal_series(60, sp=1, noise=0.05, seed=41).values
        whole = make().fit(y[:30]).update(y[30:])
        chunked = make().fit(y[:30])
        for lo, hi in ((30, 31), (31, 38), (38, 60)):
            chunked.update(y[lo:hi])
        steps = list(range(-59, 0)) + list(range(1, 9))
        assert (whole.predict(steps).values.tobytes()
                == chunked.predict(steps).values.tobytes())
        assert whole.get_fitted_params() == chunked.get_fitted_params()

    def test_fixed_alpha_ses_update_matches_refit(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            k = int(rng.integers(1, n))
            y = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3, 6)
            alpha = float(rng.uniform(0.0, 1.0))
            refit = SESForecaster(alpha=alpha).fit(y)
            updated = SESForecaster(alpha=alpha).fit(y[:k]).update(y[k:])
            steps = list(range(-(n - 1), 0)) + [1, 2, 3]
            assert (refit.predict(steps).values.tobytes()
                    == updated.predict(steps).values.tobytes())
            assert (refit.get_fitted_params()["level"]
                    == updated.get_fitted_params()["level"])


class TestPolynomialTrend:
    def test_degree_zero_is_mean(self):
        f = PolynomialTrendForecaster(degree=0).fit((1.0, 2.0, 3.0))
        assert f.predict([1, 4]).values.tolist() == [2.0, 2.0]

    def test_exact_line(self):
        y = [2 * t + 1 for t in range(10)]
        f = PolynomialTrendForecaster(degree=1).fit(y)
        np.testing.assert_allclose(f.predict([1, 2]).values, [21.0, 23.0],
                                   atol=1e-8)

    def test_too_short_for_degree(self):
        with pytest.raises(SeriesTooShortError):
            PolynomialTrendForecaster(degree=2).fit((1.0, 2.0))

    def test_in_sample_fitted_values(self):
        t = np.arange(8.0)
        y = 1.5 * t - 2
        f = PolynomialTrendForecaster(degree=1).fit(y)
        steps = list(range(-7, 0))
        np.testing.assert_allclose(f.predict(steps).values, y[:-1], atol=1e-9)
