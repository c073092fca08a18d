"""Single-series transformers with fit / transform / inverse-transform.

All transformers are position-aware: ``transform_at`` / ``inverse_at``
operate on raw values at explicit absolute positions, which is what lets
pipelines inverse-transform forecasts that live beyond the training range
(or, for in-sample work, inside it).  ``transform`` / ``inverse_transform``
are the series-level conveniences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .core import BaseEstimator, TimeSeries, as_series
from .exceptions import (
    NonPositiveValuesError,
    SeriesTooShortError,
)

__all__ = [
    "seasonality_test",
    "classical_decompose",
    "SeasonalIndices",
    "Deseasonalizer",
    "BoxCoxTransformer",
    "Standardizer",
    "Detrender",
]


def autocorrelations(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations r_1 .. r_max_lag (biased, denominator T)."""
    values = np.asarray(values, dtype=float)
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom <= 0.0:
        return np.zeros(max_lag)
    return np.array([
        float(np.dot(centered[lag:], centered[:-lag])) / denom
        for lag in range(1, max_lag + 1)
    ])


def seasonality_test(y, sp: int, critical: float = 1.645,
                     min_cycles: int = 3) -> bool:
    """Autocorrelation test for seasonal behaviour at lag ``sp``.

    Seasonal iff ``|r_sp| > critical * sqrt((1 + 2 * sum_{i<sp} r_i^2) / T)``.
    The default critical value 1.645 is the 90% two-sided normal quantile.
    Degenerate inputs (sp = 1, fewer than ``min_cycles`` full seasons, zero
    variance) are declared non-seasonal rather than errors.
    """
    y = as_series(y, sp=sp)
    if sp <= 1 or len(y) < min_cycles * sp:
        return False
    r = autocorrelations(y.values, sp)
    if not np.any(r):
        return False
    limit = critical * np.sqrt((1.0 + 2.0 * np.sum(r[:-1] ** 2)) / len(y))
    return bool(abs(r[-1]) > limit)


@dataclass
class SeasonalIndices:
    """Multiplicative seasonal indices anchored at an absolute position.

    ``indices[(pos - phase) % sp]`` is the factor at absolute position
    ``pos``.  With ``applied=False`` the lookup is identically 1 and the
    transform is the identity.
    """

    indices: np.ndarray
    phase: int
    sp: int
    applied: bool = True

    def at(self, positions) -> np.ndarray:
        positions = np.asarray(positions)
        if not self.applied:
            return np.ones(positions.shape, dtype=float)
        return self.indices[(positions - self.phase) % self.sp]


def classical_decompose(y, sp: int) -> SeasonalIndices:
    """Seasonal indices from classical multiplicative decomposition.

    The trend is a centred moving average of window ``sp`` (for even ``sp``
    the usual 2xsp average with half weights at the ends); per-season mean
    ratios of observation to trend are normalised to mean one.

    Requires at least two full seasons and strictly positive values.
    """
    y = as_series(y, sp=sp)
    values = y.values
    if len(values) < 2 * sp:
        raise SeriesTooShortError(2 * sp, len(values), "decomposition")
    if np.any(values <= 0):
        raise NonPositiveValuesError(
            "multiplicative decomposition requires positive values"
        )
    if sp % 2 == 0:
        weights = np.full(sp + 1, 1.0 / sp)
        weights[0] = weights[-1] = 0.5 / sp
    else:
        weights = np.full(sp, 1.0 / sp)
    trend = np.convolve(values, weights, mode="valid")
    offset = (weights.size - 1) // 2
    ratios = values[offset:offset + trend.size] / trend
    seasons = (np.arange(trend.size) + offset) % sp
    indices = np.array([ratios[seasons == s].mean() for s in range(sp)])
    indices /= indices.mean()
    return SeasonalIndices(indices, phase=y.start_index, sp=sp)


class BaseTransformer(BaseEstimator):
    """fit / transform / inverse-transform over values-at-positions."""

    def __init__(self):
        self._reset()

    def fit(self, y) -> "BaseTransformer":
        self._reset()
        self._fit(as_series(y))
        self._is_fitted = True
        return self

    def _fit(self, y: TimeSeries):
        raise NotImplementedError

    def transform(self, y) -> TimeSeries:
        self._check_fitted()
        y = as_series(y)
        return y.with_values(self.transform_at(y.values, y.positions))

    def inverse_transform(self, y) -> TimeSeries:
        self._check_fitted()
        y = as_series(y)
        return y.with_values(self.inverse_at(y.values, y.positions))

    def transform_at(self, values, positions) -> np.ndarray:
        raise NotImplementedError

    def inverse_at(self, values, positions) -> np.ndarray:
        raise NotImplementedError


class Deseasonalizer(BaseTransformer):
    """Conditional multiplicative seasonal adjustment.

    Fitting runs the autocorrelation seasonality test; only when it passes
    are decomposition indices estimated and applied (otherwise the
    transformer is the identity).  Index lookup is by absolute position, so
    it works identically for in-sample positions and forecasts beyond the
    cutoff.
    """

    def __init__(self, sp: int | None = None, critical: float = 1.645,
                 min_cycles: int = 3):
        self.sp = sp
        self.critical = critical
        self.min_cycles = min_cycles
        super().__init__()

    def _fit(self, y):
        sp = self.sp if self.sp is not None else y.sp
        if seasonality_test(y, sp, self.critical, self.min_cycles):
            self.indices_ = classical_decompose(y, sp)
        else:
            self.indices_ = SeasonalIndices(
                np.ones(max(sp, 1)), phase=y.start_index, sp=max(sp, 1),
                applied=False,
            )

    def transform_at(self, values, positions):
        return np.asarray(values, dtype=float) / self.indices_.at(positions)

    def inverse_at(self, values, positions):
        return np.asarray(values, dtype=float) * self.indices_.at(positions)


class BoxCoxTransformer(BaseTransformer):
    """Power transform with likelihood-estimated exponent in (0, 1).

    ``transform: (y**lam - 1) / lam``;  ``inverse: (lam * x + 1)**(1/lam)``.
    The exponent maximises the Gaussian profile log-likelihood
    ``-T/2 * log(sigma2(lam)) + (lam - 1) * sum(log y)`` over a clamped
    open interval, using deterministic bounded search.
    """

    def __init__(self, lower: float = 1e-4, upper: float = 1.0 - 1e-4):
        self.lower = lower
        self.upper = upper
        super().__init__()

    def _fit(self, y):
        values = y.values
        if np.any(values <= 0):
            raise NonPositiveValuesError("power transform requires positive values")
        self.lambda_ = self._estimate_lambda(values)

    def _estimate_lambda(self, values) -> float:
        if np.ptp(values) == 0.0:
            # any exponent is a perfect fit for a constant series
            return self.upper

        log_sum = float(np.sum(np.log(values)))
        n = values.size

        def neg_llf(lam):
            z = (values ** lam - 1.0) / lam
            var = z.var()
            if var <= 0 or not np.isfinite(var):
                return np.inf
            return 0.5 * n * np.log(var) - (lam - 1.0) * log_sum

        res = optimize.minimize_scalar(
            neg_llf, bounds=(self.lower, self.upper), method="bounded",
            options={"xatol": 1e-8},
        )
        return float(np.clip(res.x, self.lower, self.upper))

    def transform_at(self, values, positions):
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0):
            raise NonPositiveValuesError("power transform requires positive values")
        return (values ** self.lambda_ - 1.0) / self.lambda_

    def inverse_at(self, values, positions):
        values = np.asarray(values, dtype=float)
        # out-of-domain inputs (lam*x + 1 <= 0) yield NaN and surface as a
        # non-finite-forecast error downstream rather than a warning here
        with np.errstate(invalid="ignore", over="ignore"):
            return (self.lambda_ * values + 1.0) ** (1.0 / self.lambda_)


class Standardizer(BaseTransformer):
    """Remove the mean, scale to unit (population) variance.

    A constant series keeps scale 1 so the transform stays invertible.
    """

    def __init__(self):
        super().__init__()

    def _fit(self, y):
        self.mean_ = float(y.values.mean())
        std = float(y.values.std())
        self.std_ = std if std > 0 else 1.0

    def transform_at(self, values, positions):
        return (np.asarray(values, dtype=float) - self.mean_) / self.std_

    def inverse_at(self, values, positions):
        return np.asarray(values, dtype=float) * self.std_ + self.mean_


class Detrender(BaseTransformer):
    """Residuals with respect to a wrapped forecaster's predictions.

    Fitting fits a clone of the forecaster.  Transforming subtracts its
    predictions at the positions of the passed data, producing in-sample
    residuals for training data and out-of-sample residuals for anything
    past the cutoff; the inverse adds the predictions back.
    """

    def __init__(self, forecaster):
        self.forecaster = forecaster
        super().__init__()

    def _children(self):
        return {"forecaster": self.forecaster}

    def _fit(self, y):
        self.forecaster_ = self.forecaster.clone()
        self.forecaster_.fit(y)

    def transform_at(self, values, positions):
        pred = self.forecaster_._predict_at_positions(np.asarray(positions))
        return np.asarray(values, dtype=float) - pred

    def inverse_at(self, values, positions):
        pred = self.forecaster_._predict_at_positions(np.asarray(positions))
        return np.asarray(values, dtype=float) + pred
