"""Tabular regressors pluggable into the reduction forecaster.

Two deterministic reference implementations: minimum-norm least squares
(pseudoinverse, so collinear designs stay well-defined) and k-nearest
neighbours with stable index-order tie-breaking.  Anything exposing
``fit(X, y)`` / ``predict(X)`` plugs into the same seam.  Least squares
solves and predicts with the kernels of :mod:`ufcast._numerics`
(``least_squares``, ``matvec``), whose rounding depends on the CPU path.

The neighbour search filters, then refines.  A matrix-vector product and
the row norms give each squared distance to within a strict rounding-error
bound (the ||a||^2 - 2 a.b + ||b||^2 expansion of scikit-learn's
brute-force neighbours; the bound after Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, sec. 3.1), which rules out the rows that
cannot be among the k nearest.  The one exact distance kernel then ranks
the rows left, so predictions are bit for bit those of ranking every row.
Small tables skip the filter.  The filter's products are the one place
outside :mod:`ufcast._numerics` whose rounding depends on the CPU path:
its bound covers any rounding they may have, so predictions do not.
"""

from __future__ import annotations

import math

import numpy as np

from . import _numerics
from .core import BaseEstimator, _check_flag, _check_integer
from .exceptions import DimensionMismatchError, KTooLargeError

__all__ = ["LinearRegressor", "KNNRegressor"]


def _as_matrix(X, n_features: int | None = None) -> np.ndarray:
    """``X`` as float rows, of ``n_features`` columns when given."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if n_features is not None and X.shape[1] != n_features:
        raise DimensionMismatchError(
            f"expected {n_features} features, got {X.shape[1]}")
    return X


def _as_table(X, y) -> tuple:
    """``X`` as float rows and ``y`` as one float target per row."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.size:
        raise DimensionMismatchError(f"{X.shape[0]} rows vs {y.size} targets")
    return X, y


class LinearRegressor(BaseEstimator):
    """Ordinary least squares via SVD pseudoinverse (minimum-norm solution);
    ``fit_intercept`` must be a bool."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept
        super().__init__()

    def _validate(self):
        _check_flag("fit_intercept", self.fit_intercept)

    def fit(self, X, y) -> "LinearRegressor":
        self._reset()
        X, y = _as_table(X, y)
        if self.fit_intercept:
            self._x_mean = X.mean(axis=0)
            y_mean = y.mean()
            self.coef_ = _numerics.least_squares(X - self._x_mean, y - y_mean)
            self.intercept_ = float(
                y_mean - _numerics.matvec(self._x_mean, self.coef_))
        else:
            self.coef_ = _numerics.least_squares(X, y)
            self.intercept_ = 0.0
        self._n_features = X.shape[1]
        self._is_fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = _as_matrix(X, self._n_features)
        return _numerics.matvec(X, self.coef_) + self.intercept_


# Below this many table cells (n * w) the filter costs more than it saves,
# and every row goes to the exact kernel.  One-row predicts on sliding
# windows (2-vCPU Xeon), filter time over full-table time: 1.26 at 30
# cells, 1.0-1.08 at 360-720, 0.93-0.99 at 960-1008, 0.71-0.76 at 1200
# and 0.32 at 16,800 (n=700, w=24).
_FILTER_MIN_SIZE = 1000

# Largest row or query norm the filter takes: with both at most 2**1000, no
# product, sum or bound it forms can overflow.
_FILTER_LIMIT = 2.0**1000


class KNNRegressor(BaseEstimator):
    """Mean target of the k nearest training rows (Euclidean distance).

    Distance ties are broken by the lower training-row index, which makes
    predictions deterministic; for ``k == 1`` that row is the first
    ``argmin`` of the distances.  ``fit`` refuses non-finite ``X`` or ``y``
    with ``ValueError``: a NaN distance would be ``argmin``'s pick but the
    stable sort's last.

    ``predict`` filters, then refines.  The filter bounds each squared
    distance with one matrix-vector product per query row ``q``:
    ``a_i = s_i - 2 X_i.q + q.q``, with the row norms ``s_i`` taken at
    ``fit``, is within ``B_i = c (s_i + q.q) + eta`` of the distance the
    exact kernel computes, for ``c = 16 (w + 4) 2**-53`` and
    ``eta = (w + 4) 2**-1022``.  That covers any summation order or FMA in
    the BLAS, the kernel's own rounding and underflow, about four times
    over.  A row whose ``a_i - B_i`` exceeds the k-th smallest ``a_j + B_j``
    is strictly farther than k other rows, so it is dropped.  The refine
    runs the exact kernel (subtract, square, ``sum(axis=1)`` in the fitted
    table's memory order) on the rows left, in row order, and takes the
    first ``argmin`` (k=1) or the stable ``argsort`` (k>1): the neighbours,
    and their order, are those of the full table.  Tables below
    ``_FILTER_MIN_SIZE`` cells, norms or queries past ``_FILTER_LIMIT`` and
    non-finite queries skip the filter and refine every row.  ``predict``
    writes no shared state.

    A query row holding NaN or an infinity predicts NaN: no training row
    is nearer to it than another.  Only the full-table path checks: the
    filter takes a row only when ``q.q`` is finite, which proves it
    finite, and a NaN or inf in the row makes every distance NaN or inf,
    so the row is looked at only when its nearest distance is not finite.
    """

    def __init__(self, k: int = 1):
        self.k = k
        super().__init__()

    def _validate(self):
        _check_integer("k", self.k, 1)

    def fit(self, X, y) -> "KNNRegressor":
        self._reset()
        X, y = _as_table(X, y)
        if self.k > X.shape[0]:
            raise KTooLargeError(f"k={self.k} but only {X.shape[0]} rows")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("KNNRegressor needs finite X and y")
        if not (X.flags.c_contiguous or X.flags.f_contiguous):
            # contiguous in the layout the kernel's differences take, so a
            # subset of rows sums in the full table's order
            X = X.copy(order="K")
        self._X = X
        self._y = y
        self._bounds = None
        n, w = X.shape
        if n * w >= _FILTER_MIN_SIZE:
            s = np.einsum("ij,ij->i", X, X)
            if s.max() <= _FILTER_LIMIT:
                c = 16 * (w + 4) * 2.0**-53
                # halved and less its q.q terms, a_i -/+ B_i is
                # s_i (1 -/+ c) / 2 - X_i.q
                self._bounds = (s * ((1 - c) / 2), s * ((1 + c) / 2),
                                c, (w + 4) * 2.0**-1022)
        self._is_fitted = True
        return self

    def _candidates(self, q):
        """Ascending indices of the rows that may be among the k nearest
        to ``q``, or None for every row."""
        if self._bounds is None:
            return None
        lo_half, hi_half, c, eta = self._bounds
        qq = q.dot(q)
        if not qq <= _FILTER_LIMIT:  # also NaN
            return None
        p = self._X.dot(q)
        hi = hi_half - p
        k = self.k
        t = hi[hi.argmin()] if k == 1 else np.partition(hi, k - 1)[k - 1]
        lo = np.subtract(lo_half, p, out=p)
        # halved, a_i - B_i > a_j + B_j reads lo_i > hi_j + c q.q + eta
        return (lo <= t + (c * qq + eta)).nonzero()[0]

    def _distances(self, q, rows):
        """The exact kernel: squared distances from ``q`` to ``rows`` (every
        row for None), summed in the fitted table's memory order."""
        X = self._X
        if rows is None:
            diff = np.subtract(X, q)
        else:  # an F-ordered table sums column by column, so must its rows
            diff = (X.take(rows, axis=0) if X.flags.c_contiguous
                    else X.T.take(rows, axis=1).T)
            np.subtract(diff, q, out=diff)
        return np.multiply(diff, diff, out=diff).sum(axis=1)

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = _as_matrix(X, self._X.shape[1])
        targets, k = self._y, self.k
        out = np.empty(X.shape[0])
        for i, row in enumerate(X):
            rows = self._candidates(row)
            if k == 1 and rows is not None and rows.size == 1:
                out[i] = targets[rows[0]]
                continue
            d2 = self._distances(row, rows)
            nearest = (d2.argmin() if k == 1
                       else np.argsort(d2, kind="stable")[:k])
            if rows is not None:
                nearest = rows[nearest]
            elif (not math.isfinite(d2[nearest if k == 1 else nearest[0]])
                  and not np.isfinite(row).all()):
                out[i] = math.nan
                continue
            out[i] = targets[nearest] if k == 1 else targets[nearest].mean()
        return out
