"""Metamorphic relations: the same forecasts from the same data, presented
another way.

**Origin.** Every model reads the values and their positions relative to
the training start, never the absolute positions: the trend lines and
polynomials are fitted in the 0-based position, and the seasonal indices
are anchored at the series' own start.  So shifting the training series'
``start_index`` shifts the forecasts' positions and leaves every forecast
value bit for bit as it was.  This is checked for the 17 registry models
that need no external regressor, on a yearly, a quarterly, a monthly and
a short hourly series, each fitted at three origins.

**Chunking.** ``update`` advances each model's state through the new
observations in order, so revealing them in chunks, then predicting,
gives the bytes of revealing them in one ``update``.  This is
checked for the same models and series, chunked in thirds, one
observation at a time, and all but the last, then the last.  It fails
where a detrender feeds least squares one observation at a time (see
``CHUNKING_MOVES``).
"""

import numpy as np
import pytest

from ufcast.core import ForecastingHorizon, TimeSeries
from ufcast.m4.registry import KNOWN_MODELS, build_model
from ufcast.transforms import seasonality_test
from tests.conftest import seasonal_series

MODELS = [m for m in KNOWN_MODELS if not m.startswith(("RF", "XGB"))]

# name -> (sp, horizon, training length); each long enough for the
# seasonality test's three full seasons, so the seasonal paths run
SERIES = {
    "yearly": (1, 6, 30),
    "quarterly": (4, 8, 40),
    "monthly": (12, 18, 72),
    "hourly": (24, 48, 96),
}


@pytest.mark.parametrize("name", SERIES)
def test_origin_shift_leaves_forecast_values_bit_identical(name):
    sp, horizon, n = SERIES[name]
    assert len(MODELS) == 17
    values = seasonal_series(n=n, sp=sp, amp=0.2 if sp > 1 else 0.0,
                             noise=0.05, seed=11 * sp).values
    assert seasonality_test(values, sp) == (sp > 1)
    fh = ForecastingHorizon.out_to(horizon)
    moved = []
    for model in MODELS:
        forecasts = {}
        # 7 moves the phase of every period here; the last is far away
        for start in (0, 7, 1000 * sp + 1):
            y = TimeSeries(values, start_index=start, sp=sp)
            forecast = build_model(model, sp=sp, horizon=horizon).fit(
                y).predict(fh)
            assert forecast.cutoff == start + n - 1
            forecasts[start] = np.asarray(forecast.values).tobytes()
        if len(set(forecasts.values())) != 1:
            moved.append(model)
    assert moved == []


# The chunkings that move forecast bits, per series, listed exactly so
# that a new one and a mend both fail the test.  ``Detrender`` evaluates
# its trend line over each update's block of positions with one
# matrix-vector product (``_numerics.polyval``), and the BLAS kernel
# rounds a row differently by how many rows the call holds.  So
# one-observation updates detrend the new values in other last bits,
# which least squares carries into the forecasts; KNN's neighbours do not
# move here.  Evaluating the polynomial row by row makes every chunking
# exact, and moves the golden output.
CHUNKING_MOVES = {
    "monthly": [("LR", "single"), ("LR-s", "single"), ("LR-t-s", "single")],
    "hourly": [("LR-s", "single"), ("LR-t-s", "single")],
}


@pytest.mark.parametrize("name", SERIES)
def test_chunked_updates_give_the_forecasts_of_one_update(name):
    sp, horizon, n = SERIES[name]
    m = 2 * sp + 3  # new observations: past a season boundary, odd
    values = seasonal_series(n=n + m, sp=sp, amp=0.2 if sp > 1 else 0.0,
                             noise=0.05, seed=11 * sp).values
    train, new = TimeSeries(values[:n], sp=sp), values[n:]
    chunkings = {
        "thirds": [m // 3, 2 * m // 3],
        "single": list(range(1, m)),
        "all-but-one": [m - 1],
    }
    fh = ForecastingHorizon.out_to(horizon)
    moved = []
    for model in MODELS:
        whole = build_model(model, sp=sp, horizon=horizon).fit(train)
        expected = whole.update(new).predict(fh)
        assert expected.cutoff == n + m - 1
        for chunking, cuts in chunkings.items():
            f = build_model(model, sp=sp, horizon=horizon).fit(train)
            for lo, hi in zip([0, *cuts], [*cuts, m]):
                f.update(new[lo:hi])
            got = f.predict(fh)
            if (got.cutoff != expected.cutoff
                    or got.values.tobytes() != expected.values.tobytes()):
                moved.append((model, chunking))
    assert moved == CHUNKING_MOVES.get(name, [])
