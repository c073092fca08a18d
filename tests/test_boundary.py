"""Inputs are checked once, at the public boundary.

``fit``, ``predict``, ``update`` and ``update_predict`` check what they are
given; ``TimeSeries.concat`` and ``islice`` build on series that were
checked already and skip the re-check and the copy; the base class sends
an all-ahead horizon straight to ``_predict_ahead``.  These tests pin the
refusals that must stay at the boundary, the values that must not depend
on which internal path computed them, and the number of checks a short
walk makes.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from ufcast.compose import (
    ReducedRegressionForecaster,
    TransformedTargetForecaster,
)
from ufcast.core import BaseEstimator, BaseForecaster, TimeSeries
from ufcast.exceptions import (
    NonContiguousUpdateError,
    NonFiniteInputError,
    SeriesTooShortError,
)
from ufcast.forecasters import (
    HoltForecaster,
    NaiveForecaster,
    SESForecaster,
    ThetaForecaster,
)
from ufcast.m4.registry import build_model
from ufcast.regress import KNNRegressor
from ufcast.select import SlidingWindowSplitter
from ufcast.transforms import BaseTransformer, BoxCoxTransformer, Deseasonalizer
from tests.conftest import seasonal_series

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # optional test dependency; the property test skips
    given = st = None


class _Scale(BaseTransformer):
    """Multiplies by ``factor``; overflows to inf on large inputs."""

    def __init__(self, factor: float = 1e10):
        self.factor = factor
        super().__init__()

    def _fit(self, y):
        pass

    def transform_at(self, values, positions):
        with np.errstate(over="ignore"):
            return np.asarray(values, dtype=float) * self.factor

    def inverse_at(self, values, positions):
        return np.asarray(values, dtype=float) / self.factor


class _Constant(BaseForecaster):
    """Forecasts ``value`` ahead and the observations in sample."""

    def __init__(self, value: float = 0.0):
        self.value = value
        super().__init__()

    def _fit(self, y):
        pass

    def _predict_ahead(self, steps):
        return np.full(steps.size, self.value)

    def _predict_in_sample(self, rel):
        return self._y.values[rel]


def _pipeline():
    return TransformedTargetForecaster(
        [("deseasonalize", Deseasonalizer(sp=4)), ("forecast", SESForecaster())])


class TestRefusals:
    @pytest.mark.parametrize("make", [SESForecaster, _pipeline])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_update(self, make, bad):
        f = make().fit(seasonal_series(40, sp=4, seed=1))
        with pytest.raises(NonFiniteInputError):
            f.update([50.0, bad])
        assert f.cutoff == 39

    @pytest.mark.parametrize("make", [SESForecaster, _pipeline])
    def test_gap_in_update(self, make):
        f = make().fit(seasonal_series(40, sp=4, seed=1))
        with pytest.raises(NonContiguousUpdateError):
            f.update(TimeSeries([50.0], start_index=41, sp=4))
        assert f.cutoff == 39

    @pytest.mark.parametrize("start, stop", [(2, 2), (3, 1), (5, 9)])
    def test_empty_islice(self, start, stop):
        y = TimeSeries([1.0, 2.0, 3.0], start_index=4)
        with pytest.raises(SeriesTooShortError):
            y.islice(start, stop)

    def test_values_stay_read_only(self):
        # what concat and islice trust cannot change after its check
        y = TimeSeries([1.0, 2.0, 3.0], start_index=4)
        joined = y.concat(TimeSeries([4.0], start_index=7))
        for s in (y, y.islice(1, 3), joined, joined.islice(0, 4)):
            with pytest.raises(ValueError):
                s.values[0] = 9.0
            with pytest.raises(ValueError):
                s.values.flags.writeable = True
        assert joined.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert (joined.start_index, joined.sp) == (4, 1)
        part = y.islice(np.int64(1), np.int64(3))
        assert type(part.start_index) is int and part.start_index == 5

    def test_non_finite_transform_output_during_update(self):
        f = TransformedTargetForecaster(
            [("scale", _Scale()), ("forecast", NaiveForecaster())])
        f.fit(seasonal_series(20, sp=1, seed=2))
        with pytest.raises(NonFiniteInputError,
                           match="series contains NaN or infinite values"):
            f.update([1e300])

    @pytest.mark.parametrize("fh", [[1, 2], [-1, 2]],
                             ids=["ahead", "in-sample-and-ahead"])
    def test_non_finite_forecast(self, fh):
        f = _Constant(np.inf).fit(seasonal_series(20, sp=1, seed=2))
        with pytest.raises(NonFiniteInputError,
                           match="forecast contains non-finite values"):
            f.predict(fh)

    def test_non_finite_inverse_transform_in_a_forecast(self):
        # lambda * x + 1 < 0 has no inverse power transform: NaN
        f = TransformedTargetForecaster(
            [("boxcox", BoxCoxTransformer()), ("forecast", _Constant(-1e6))])
        f.fit(seasonal_series(20, sp=1, seed=2))
        with pytest.raises(NonFiniteInputError,
                           match="forecast contains non-finite values"):
            f.predict([1, 2])


# forecaster factory -> the first in-sample offset it defines
_PATH_FORECASTERS = {
    "naive": (lambda: NaiveForecaster("seasonal_last", sp=4), 4),
    "ses": (SESForecaster, 0),
    "holt": (lambda: HoltForecaster(alpha=0.3, beta=0.1), 0),
    "damped": (lambda: HoltForecaster(damped=True), 0),
    "theta": (ThetaForecaster, 0),
    "reduced_knn": (lambda: ReducedRegressionForecaster(KNNRegressor(2), 5), 5),
    "pipeline": (_pipeline, 0),
}


def _given_data(test):
    """``@given(st.data())``, or a skip when hypothesis is missing."""
    if given is None:
        return pytest.mark.skip(reason="hypothesis is not installed")(test)
    return given(st.data())(test)


@_given_data
def test_predictions_do_not_depend_on_order_or_mix(data):
    # every position gets the bits it gets when asked for alone, whether
    # the call takes the all-ahead path or the in-sample / ahead split
    name = data.draw(st.sampled_from(sorted(_PATH_FORECASTERS)))
    make, first = _PATH_FORECASTERS[name]
    start = data.draw(st.integers(-5, 5))
    y = seasonal_series(36, sp=4, seed=data.draw(st.integers(0, 3)),
                        start_index=start)
    f = make().fit(y)
    lowest = data.draw(st.sampled_from([start + first, y.end_index + 1]))
    positions = data.draw(st.lists(
        st.integers(lowest, y.end_index + 12), min_size=1, max_size=12,
        unique=True))
    positions = np.array(data.draw(st.permutations(positions)))
    got = f._predict_at_positions(positions)
    alone = [f._predict_at_positions(positions[i:i + 1])
             for i in range(positions.size)]
    assert got.dtype == np.float64 and got.shape == positions.shape
    assert got.tobytes() == np.concatenate(alone).tobytes()


def _count_checks(name):
    """Checked ``TimeSeries`` constructions and ``_check_fitted`` calls in
    a 5-origin walk of registry model ``name`` (sp 4, horizon 8)."""
    full = seasonal_series(125, sp=4, seed=3)
    model = build_model(name, sp=4, horizon=8).fit(full.islice(0, 120))
    test = full.islice(120, 125)
    cv = SlidingWindowSplitter(window_length=1, fh=list(range(1, 9)),
                               mode="expanding")
    counts = Counter()
    init, check = TimeSeries.__init__, BaseEstimator._check_fitted

    def counting_init(self, *args, **kwargs):
        counts["series_checked"] += 1
        init(self, *args, **kwargs)

    def counting_check(self):
        counts["check_fitted"] += 1
        check(self)

    with mock.patch.object(TimeSeries, "__init__", counting_init), \
            mock.patch.object(BaseEstimator, "_check_fitted", counting_check):
        walked = model.update_predict(test, cv)
    assert len(walked) == 5
    return dict(counts)


@pytest.mark.parametrize("name, expected", [
    # per origin: one transformer output (one per transformer); checks in
    # predict, update, each transform, the final step's update and each
    # one-row regressor predict, plus one for the walk
    ("SES", {"series_checked": 5, "check_fitted": 22}),
    ("KNN-s", {"series_checked": 15, "check_fitted": 72}),
])
def test_walk_checks_each_input_once(name, expected):
    # before the checks moved to the boundary the same walks made 20 and
    # 30 checked constructions and 37 and 87 fitted-state checks
    assert _count_checks(name) == expected
