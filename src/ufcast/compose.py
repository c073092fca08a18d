"""Meta-forecasters: reduction to tabular regression, transformed-target
pipelines, and mean ensembles.

Reduction turns the training series into a table of sliding windows
(features ordered oldest to newest) and forecasts recursively: each
one-step prediction is appended to the window to produce the next.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import BaseEstimator, BaseForecaster, _check_integer, as_series
from .exceptions import SeriesTooShortError, UnsupportedInSampleError

__all__ = [
    "LaggedTable",
    "tabularize",
    "ReducedRegressionForecaster",
    "TransformedTargetForecaster",
    "EnsembleForecaster",
]


@dataclass(frozen=True)
class LaggedTable:
    """Design matrix of lagged windows plus one-step targets.

    Row ``i`` is ``(y_i, ..., y_{i+w-1})`` (oldest first) with target
    ``y_{i+w}``; there are ``T - w`` rows.
    """

    X: np.ndarray
    targets: np.ndarray
    window_length: int


def tabularize(y, window_length: int) -> LaggedTable:
    """Stack sliding windows of a series into a regression table."""
    _check_integer("window_length", window_length, 1)
    y = as_series(y)
    w = int(window_length)
    if len(y) < w + 1:
        raise SeriesTooShortError(w + 1, len(y), "tabularization")
    X = sliding_window_view(y.values, w)[:-1].copy()
    targets = y.values[w:].copy()
    return LaggedTable(X=X, targets=targets, window_length=w)


class ReducedRegressionForecaster(BaseForecaster):
    """Forecasting via reduction to tabular regression.

    Fits the regressor on the lagged-window table and generates multi-step
    forecasts with the recursive strategy: the last window is fed to the
    regressor, the prediction appended, and the window slid forward.
    In-sample predictions exist from position ``window_length`` onwards
    (earlier points have no full window).
    """

    def __init__(self, regressor, window_length: int = 10):
        self.regressor = regressor
        self.window_length = window_length
        super().__init__()

    def _validate(self):
        _check_integer("window_length", self.window_length, 1)

    def _children(self):
        return {"regressor": self.regressor}

    def _required_length(self, y):
        return self.window_length + 1

    def _fit(self, y):
        table = tabularize(y, self.window_length)
        self.regressor.fit(table.X, table.targets)
        self.n_windows_ = table.targets.size

    def _predict_ahead(self, steps):
        w = self.window_length
        window = self._y.values[-w:].astype(float)  # astype copies
        row = window[None, :]  # a view: each step sees the slid window
        predict = self.regressor.predict
        preds = np.empty(int(steps.max()))
        for k in range(preds.size):
            preds[k] = float(predict(row)[0])
            window[:-1] = window[1:]
            window[-1] = preds[k]
        return preds[steps - 1]

    def _predict_in_sample(self, rel):
        w = self.window_length
        if np.any(rel < w):
            raise UnsupportedInSampleError(
                f"first {w} in-sample positions have no full window"
            )
        rows = sliding_window_view(self._y.values, w)[rel - w]
        return np.asarray(self.regressor.predict(rows), dtype=float)

    def _get_fitted_params(self):
        return {"n_windows": self.n_windows_}


# (step key, input values bytes, start_index, sp) -> (fitted attributes of
# each estimator in step._estimators(), the step's output: the transformed
# series, or the input for a final step); None outside any scope
_PREFIX_CACHE: contextvars.ContextVar = contextvars.ContextVar(
    "ufcast_prefix_cache", default=None)

# True while a grid search scores its candidates: a final step fitted on a
# split window is never looked up again, so the cache keeps none
_SCORING_CANDIDATES: contextvars.ContextVar = contextvars.ContextVar(
    "ufcast_scoring_candidates", default=False)


@contextlib.contextmanager
def _prefix_cache_scope():
    """Share fitted pipeline steps until the outermost scope exits.

    A scope opened inside another joins it.  Outside every scope pipelines
    fit each step and keep nothing.
    """
    if _PREFIX_CACHE.get() is not None:
        yield
        return
    token = _PREFIX_CACHE.set({})
    try:
        yield
    finally:
        _PREFIX_CACHE.reset(token)


class _Unshareable(Exception):
    """A hyper-parameter value that the prefix cache cannot key exactly."""


_PLAIN_TYPES = (bool, int, str, type(None))


def _value_key(value):
    if isinstance(value, BaseEstimator):
        return _estimator_key(value)
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return kind, value
    if kind is float:
        return kind, value.hex()  # exact: -0.0 is not 0.0, nan is nan
    if kind in (list, tuple):
        return kind, tuple(_value_key(item) for item in value)
    raise _Unshareable(kind.__name__)


def _estimator_key(estimator):
    """Class and hyper-parameter values, nested estimators keyed alike."""
    return type(estimator), tuple(
        _value_key(getattr(estimator, name))
        for name in estimator._param_names())


def _fitted_attributes(estimator) -> dict:
    """The attributes of ``estimator`` other than its hyper-parameters."""
    params = estimator._param_names()
    return {name: value for name, value in vars(estimator).items()
            if name not in params}


def _named_steps(estimators, kind: str):
    """Normalise a list of estimators / (name, estimator) pairs."""
    named = []
    seen = {}
    for item in estimators:
        if isinstance(item, tuple):
            name, est = item
        else:
            est = item
            name = type(est).__name__.lower()
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:
                name = f"{name}_{seen[name]}"
        if name in dict(named):
            raise ValueError(f"duplicate {kind} name {name!r}")
        named.append((name, est))
    return named


class TransformedTargetForecaster(BaseForecaster):
    """Chain of transformers ending in a forecaster.

    Fitting folds the series through the transformers (fit, then
    transform) before fitting the final forecaster; predictions run the
    inverse transformations in reverse order at the forecast positions.
    Transformers other than position-aware ones never see the horizon.

    Inside a prefix-cache scope (one per series in the benchmark runner,
    one per grid search) every step, the final forecaster included, is
    looked up by its class, its hyper-parameters (nested estimators
    included) and the exact values, ``start_index`` and ``sp`` of its
    input.  A hit takes on the fitted attributes of the step and of each
    estimator nested in it (a reduction's regressor, say), and for a
    transformer the transformed series too, so hits compose step by step:
    every pipeline of a series shares one seasonal adjustment, grid-search
    candidates share the steps no grid key reaches, and an ensemble of
    pipelines reuses the fits of the same pipelines run on their own.
    Sharing is safe because ``fit`` and ``update`` only rebind the
    object's own attributes (``fit`` after ``_reset``) and ``predict``
    writes none, so no later call on one pipeline changes what another
    sees.  While a grid search scores its candidates their final steps are
    not kept: each is fitted on a split window that only its own candidate
    sees, and holds, say, a whole KNN table.  A failed fit is not kept,
    and a step whose hyper-parameters hold anything but plain scalars,
    strings, ``None``, lists, tuples and estimators (a grid search's
    ``param_grid`` dict, say) is always fitted directly.

    Steps may be given as estimators or (name, estimator) pairs; names are
    the path components for nested parameter access, e.g.
    ``set_params(**{"forecast.window_length": 6})``.
    """

    def __init__(self, steps):
        self.steps = steps
        super().__init__()

    def _validate(self):
        if not self.steps:
            raise ValueError("pipeline needs at least one step")
        self.steps = _named_steps(self.steps, "step")
        name, final = self.steps[-1]
        if not hasattr(final, "predict"):
            raise ValueError(f"final step {name!r} is not a forecaster")
        for name, step in self.steps[:-1]:
            if not hasattr(step, "transform_at"):
                raise ValueError(f"step {name!r} is not a transformer")

    def _children(self):
        return dict(self.steps)

    @property
    def _transformers(self):
        return [transformer for _, transformer in self.steps[:-1]]

    @property
    def _final(self):
        return self.steps[-1][1]

    def _fit(self, y):
        cache = _PREFIX_CACHE.get()
        final = self._final
        for _, step in self.steps:
            key = None
            if cache is not None:
                try:
                    key = (_estimator_key(step),
                           y.values.tobytes(), y.start_index, y.sp)
                except _Unshareable:
                    pass
            if key is not None and key in cache:
                fitted, y = cache[key]
                for estimator, attributes in zip(step._estimators(), fitted):
                    estimator._reset()
                    vars(estimator).update(attributes)
                continue
            step.fit(y)
            if step is not final:
                y = step.transform(y)
            elif _SCORING_CANDIDATES.get():
                break  # a candidate's final step is not kept
            if key is not None:
                cache[key] = ([_fitted_attributes(estimator)
                               for estimator in step._estimators()], y)

    def _predict_at_positions(self, positions):
        values = self._final._predict_at_positions(positions)
        for transformer in reversed(self._transformers):
            values = transformer.inverse_at(values, positions)
        return values

    def _update_state(self, y_new):
        current = y_new
        for transformer in self._transformers:
            current = transformer.transform(current)
        self._final.update(current, update_params=False)


class EnsembleForecaster(BaseForecaster):
    """Unweighted mean of independently fitted component forecasters.

    Components may run and fail independently; any component error fails
    the ensemble.  The pointwise mean is computed over sorted component
    values so predictions are exactly invariant to component order.
    """

    def __init__(self, forecasters):
        self.forecasters = forecasters
        super().__init__()

    def _validate(self):
        if not self.forecasters:
            raise ValueError("ensemble needs at least one component")
        self.forecasters = _named_steps(self.forecasters, "component")

    def _children(self):
        return dict(self.forecasters)

    def _fit(self, y):
        for _, forecaster in self.forecasters:
            forecaster.fit(y)

    def _predict_at_positions(self, positions):
        stacked = np.stack([f._predict_at_positions(positions)
                            for _, f in self.forecasters])
        return np.sort(stacked, axis=0).mean(axis=0)

    def _update_state(self, y_new):
        for _, forecaster in self.forecasters:
            forecaster.update(y_new, update_params=False)
