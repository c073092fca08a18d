"""Tabular regressors pluggable into the reduction forecaster.

Two deterministic reference implementations: minimum-norm least squares
(pseudoinverse, so collinear designs stay well-defined) and k-nearest
neighbours with stable index-order tie-breaking.  Anything exposing
``fit(X, y)`` / ``predict(X)`` plugs into the same seam.
"""

from __future__ import annotations

import numpy as np

from .core import BaseEstimator
from .exceptions import DimensionMismatchError, KTooLargeError

__all__ = ["LinearRegressor", "KNNRegressor"]


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    return X


class LinearRegressor(BaseEstimator):
    """Ordinary least squares via SVD pseudoinverse (minimum-norm solution)."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "LinearRegressor":
        self._reset()
        X = _as_matrix(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.size:
            raise DimensionMismatchError(
                f"{X.shape[0]} rows vs {y.size} targets"
            )
        if self.fit_intercept:
            self._x_mean = X.mean(axis=0)
            y_mean = y.mean()
            coef, *_ = np.linalg.lstsq(X - self._x_mean, y - y_mean, rcond=None)
            self.coef_ = coef
            self.intercept_ = float(y_mean - self._x_mean @ coef)
        else:
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            self.coef_ = coef
            self.intercept_ = 0.0
        self._n_features = X.shape[1]
        self._is_fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = _as_matrix(X)
        if X.shape[1] != self._n_features:
            raise DimensionMismatchError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        return X @ self.coef_ + self.intercept_


class KNNRegressor(BaseEstimator):
    """Mean target of the k nearest training rows (Euclidean distance).

    Distance ties are broken by the lower training-row index, which makes
    predictions deterministic.
    """

    def __init__(self, k: int = 1):
        if k < 1 or int(k) != k:
            raise ValueError("k must be a positive integer")
        self.k = k

    def fit(self, X, y) -> "KNNRegressor":
        self._reset()
        X = _as_matrix(X)
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.size:
            raise DimensionMismatchError(
                f"{X.shape[0]} rows vs {y.size} targets"
            )
        if self.k > X.shape[0]:
            raise KTooLargeError(f"k={self.k} but only {X.shape[0]} rows")
        self._X = X
        self._y = y
        self._is_fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = _as_matrix(X)
        if X.shape[1] != self._X.shape[1]:
            raise DimensionMismatchError(
                f"expected {self._X.shape[1]} features, got {X.shape[1]}"
            )
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            d2 = np.sum((self._X - row) ** 2, axis=1)
            nearest = np.argsort(d2, kind="stable")[: self.k]
            out[i] = self._y[nearest].mean()
        return out
