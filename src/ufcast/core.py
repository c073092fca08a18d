"""Core data model and the uniform forecaster contract.

A :class:`TimeSeries` is an equidistant, finite-valued series anchored at an
integer ``start_index`` with a seasonal periodicity ``sp``.  Forecasters share
one estimator contract: construct with hyper-parameters, ``fit`` on a series,
``predict`` at a :class:`ForecastingHorizon` of steps relative to the cutoff
(the last index seen in training), ``update`` with new contiguous data, and
inspect state via ``get_params`` / ``get_fitted_params``.  Negative horizon
steps request in-sample predictions where the model defines them.
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    NonContiguousUpdateError,
    NonFiniteInputError,
    NotFittedError,
    SeriesTooShortError,
    UnknownParameterError,
    UnsupportedInSampleError,
)

__all__ = [
    "TimeSeries",
    "ForecastingHorizon",
    "Forecast",
    "as_series",
    "as_horizon",
    "BaseEstimator",
    "BaseForecaster",
]


class TimeSeries:
    """Equidistant univariate series with positional time indexing.

    Parameters
    ----------
    values : array-like of float
        Observations; must be non-empty and finite.
    start_index : int
        Time position of the first observation.  Observation ``i`` sits at
        absolute position ``start_index + i``.
    sp : int
        Seasonal periodicity (periods per year); ``1`` means non-seasonal.
    """

    __slots__ = ("values", "start_index", "sp")

    def __init__(self, values, start_index: int = 0, sp: int = 1):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size < 1:
            raise SeriesTooShortError(1, arr.size)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInputError("series contains NaN or infinite values")
        if sp < 1 or int(sp) != sp:
            raise ValueError(f"sp must be a positive integer, got {sp!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr
        self.start_index = int(start_index)
        self.sp = int(sp)

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_index(self) -> int:
        """Absolute position of the last observation."""
        return self.start_index + len(self) - 1

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.start_index, self.start_index + len(self))

    def with_values(self, values) -> "TimeSeries":
        """Same time anchoring and sp, different values."""
        return TimeSeries(values, self.start_index, self.sp)

    def concat(self, other: "TimeSeries") -> "TimeSeries":
        if other.start_index != self.end_index + 1:
            raise NonContiguousUpdateError(
                f"expected continuation at {self.end_index + 1}, got {other.start_index}"
            )
        return TimeSeries(
            np.concatenate([self.values, other.values]), self.start_index, self.sp
        )

    def islice(self, start: int, stop: int) -> "TimeSeries":
        """Positional slice [start, stop) keeping absolute anchoring."""
        return TimeSeries(
            self.values[start:stop], self.start_index + start, self.sp
        )

    def __repr__(self) -> str:
        return (
            f"TimeSeries(n={len(self)}, start_index={self.start_index}, sp={self.sp})"
        )


def as_series(y, sp: int = 1, start_index: int = 0) -> TimeSeries:
    """Coerce raw sequences to :class:`TimeSeries`; pass instances through."""
    if isinstance(y, TimeSeries):
        return y
    return TimeSeries(y, start_index=start_index, sp=sp)


class ForecastingHorizon:
    """Strictly increasing nonzero integer steps relative to the cutoff.

    Positive steps are out-of-sample, negative steps in-sample.  Step 0 (the
    cutoff itself) is not part of the public contract.  Integral floats
    (``2.0``) are accepted; other floats raise ``ValueError``.
    """

    __slots__ = ("steps",)

    def __init__(self, steps):
        if np.isscalar(steps):
            steps = [steps]
        raw = np.asarray(list(steps))
        if raw.dtype.kind == "f" and not np.all(
                np.isfinite(raw) & (np.trunc(raw) == raw)):
            raise ValueError(f"horizon steps must be integers, got {raw.tolist()}")
        arr = raw.astype(int)
        if arr.size == 0:
            raise ValueError("forecasting horizon needs at least one step")
        if np.any(arr == 0):
            raise ValueError("horizon steps must be nonzero")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("horizon steps must be strictly increasing")
        arr.flags.writeable = False
        self.steps = arr

    @classmethod
    def out_to(cls, h: int) -> "ForecastingHorizon":
        """The dense out-of-sample horizon ``{1, ..., h}``."""
        return cls(np.arange(1, h + 1))

    def to_absolute(self, cutoff: int) -> np.ndarray:
        return cutoff + self.steps

    def __len__(self) -> int:
        return self.steps.size

    def __iter__(self):
        return iter(self.steps.tolist())

    def __eq__(self, other):
        return isinstance(other, ForecastingHorizon) and np.array_equal(
            self.steps, other.steps
        )

    def __repr__(self) -> str:
        return f"ForecastingHorizon({self.steps.tolist()})"


def as_horizon(fh) -> ForecastingHorizon:
    if isinstance(fh, ForecastingHorizon):
        return fh
    return ForecastingHorizon(fh)


@dataclass(frozen=True)
class Forecast:
    """One finite value per requested horizon step, in step order."""

    horizon: ForecastingHorizon
    values: np.ndarray = field(repr=False)
    cutoff: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.horizon),):
            raise ValueError(
                f"forecast has {vals.size} values for {len(self.horizon)} steps"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteInputError("forecast contains non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def positions(self) -> np.ndarray:
        """Absolute positions the values refer to."""
        return self.horizon.to_absolute(self.cutoff)


class BaseEstimator:
    """Hyper-parameter plumbing shared by forecasters, transformers, regressors.

    Hyper-parameters are exactly the constructor arguments, stored under the
    same attribute names.  Nested estimators are addressed with dotted paths
    (``"regressor.k"``); composites expose their children via
    :meth:`_children`.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def _children(self) -> dict:
        """name -> child estimator map for dotted-path access."""
        return {}

    def get_params(self, deep: bool = True) -> dict:
        out = {name: getattr(self, name) for name in self._param_names()}
        if deep:
            for child_name, child in self._children().items():
                for key, value in child.get_params(deep=True).items():
                    out[f"{child_name}.{key}"] = value
        return out

    def set_params(self, **params) -> "BaseEstimator":
        """Set hyper-parameters (dotted paths reach nested estimators).

        Resets fitted state.  Raises :class:`UnknownParameterError` for
        undeclared names.
        """
        own = set(self._param_names())
        children = self._children()
        for key, value in params.items():
            head, _, rest = key.partition(".")
            if rest:
                if head not in children:
                    raise UnknownParameterError(
                        f"{type(self).__name__} has no component {head!r}"
                    )
                children[head].set_params(**{rest: value})
            elif head in own:
                setattr(self, head, value)
            else:
                raise UnknownParameterError(
                    f"{type(self).__name__} has no parameter {head!r}"
                )
        self._reset()
        return self

    def clone(self) -> "BaseEstimator":
        """Unfitted copy with identical (recursively cloned) hyper-parameters."""
        kwargs = {
            name: _clone_value(getattr(self, name)) for name in self._param_names()
        }
        return type(self)(**kwargs)

    def _reset(self):
        """Drop fitted state; extended by estimators that hold more than
        the fitted flag."""
        self._is_fitted = False

    @property
    def is_fitted(self) -> bool:
        return getattr(self, "_is_fitted", False)

    def _check_fitted(self):
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in self.get_params(deep=False).items()
        )
        return f"{type(self).__name__}({params})"


def _clone_value(value):
    if isinstance(value, BaseEstimator):
        return value.clone()
    if isinstance(value, (list, tuple)):
        cloned = [_clone_value(v) for v in value]
        return type(value)(cloned) if isinstance(value, tuple) else cloned
    return copy.deepcopy(value)


class BaseForecaster(BaseEstimator):
    """Uniform forecaster contract.

    Subclasses implement ``_fit`` and the two prediction hooks that
    ``_predict_at_positions`` calls: ``_predict_ahead(steps)`` for steps
    ``h >= 1`` past the cutoff and ``_predict_in_sample(rel)`` for offsets
    from the training start.  ``_update_state`` is the cheap update path.
    The base class owns cutoff tracking, the training buffer, validation,
    horizon resolution and the in-sample / ahead split.
    """

    _min_length = 1

    def __init__(self):
        self._reset()

    def _reset(self):
        super()._reset()
        self._y: TimeSeries | None = None

    # -- state ---------------------------------------------------------

    @property
    def cutoff(self) -> int:
        """Absolute index of the last observation seen; requires fit."""
        self._check_fitted()
        return self._y.end_index

    def _required_length(self, y: TimeSeries) -> int:
        return self._min_length

    # -- fitting -------------------------------------------------------

    def fit(self, y, fh=None) -> "BaseForecaster":
        """Fit to a training series; resets any prior state.

        Parameters
        ----------
        y : TimeSeries or array-like
            Training data (raw sequences are anchored at position 0, sp 1
            unless the forecaster carries its own sp).
        fh : optional
            Forecasting horizon.  Validated, then unused: no model fits
            horizon-specific parameters.
        """
        self._reset()
        y = self._coerce_y(y)
        needed = self._required_length(y)
        if len(y) < needed:
            raise SeriesTooShortError(needed, len(y), type(self).__name__)
        if fh is not None:
            as_horizon(fh)
        self._y = y
        self._fit(y)
        self._is_fitted = True
        return self

    def _coerce_y(self, y) -> TimeSeries:
        return as_series(y, sp=getattr(self, "sp", None) or 1)

    def _fit(self, y: TimeSeries):
        raise NotImplementedError

    # -- prediction ----------------------------------------------------

    def predict(self, fh) -> Forecast:
        """Forecast at the given horizon (negative steps = in-sample)."""
        self._check_fitted()
        fh = as_horizon(fh)
        positions = fh.to_absolute(self.cutoff)
        values = self._predict_at_positions(positions)
        return Forecast(fh, values, cutoff=self.cutoff)

    def _predict_at_positions(self, positions: np.ndarray) -> np.ndarray:
        """Predictions at absolute positions (may include the cutoff).

        Internal surface used by the public ``predict``, the detrender and
        pipelines.  Positions past the cutoff go to ``_predict_ahead`` as
        steps ``h >= 1``, the others to ``_predict_in_sample`` as offsets
        from the training start.  A position before the training start
        raises UnsupportedInSampleError, as do hooks for in-sample offsets
        they do not define.
        """
        positions = np.asarray(positions)
        y = self._y
        out = np.empty(positions.size, dtype=float)
        ahead = positions > y.end_index
        if np.any(ahead):
            out[ahead] = self._predict_ahead(positions[ahead] - y.end_index)
        if not np.all(ahead):
            rel = positions[~ahead] - y.start_index
            if np.any(rel < 0):
                raise UnsupportedInSampleError(
                    "position precedes the training series")
            out[~ahead] = self._predict_in_sample(rel)
        return out

    def _predict_ahead(self, steps: np.ndarray) -> np.ndarray:
        """Forecasts ``steps`` (integers >= 1) past the cutoff."""
        raise NotImplementedError

    def _predict_in_sample(self, rel: np.ndarray) -> np.ndarray:
        """Predictions at offsets ``rel`` (>= 0) from the training start."""
        raise NotImplementedError

    # -- updating ------------------------------------------------------

    def update(self, y_new, update_params: bool = False) -> "BaseForecaster":
        """Advance the cutoff with new contiguous observations.

        With ``update_params=True`` the model is re-fitted on the
        concatenated series; otherwise only prediction state advances
        (the cheap path).  Empty input is a no-op.
        """
        self._check_fitted()
        y_new = self._coerce_update(y_new)
        if y_new is None:
            return self
        combined = self._y.concat(y_new)  # raises NonContiguousUpdateError
        if update_params:
            self.fit(combined)
        else:
            self._y = combined
            self._update_state(y_new)
        return self

    def _coerce_update(self, y_new) -> TimeSeries | None:
        if isinstance(y_new, TimeSeries):
            return y_new
        arr = np.asarray(y_new, dtype=float).reshape(-1)
        if arr.size == 0:
            return None
        return TimeSeries(arr, start_index=self._y.end_index + 1, sp=self._y.sp)

    def _update_state(self, y_new: TimeSeries):
        """Advance prediction state without re-estimating parameters.

        Called after the training buffer has been extended to include
        ``y_new``.  Default: nothing beyond the cutoff advance.
        """

    def update_predict(self, y_test, cv, update_params: bool = False):
        """Walk a temporal cross-validation scheme over test data.

        For each train window emitted by ``cv`` over ``y_test``, reveal the
        newly covered observations via ``update`` and predict ``cv.fh``.
        The last forecasts may target positions beyond ``y_test``.

        Returns
        -------
        list of (cutoff, Forecast)
        """
        self._check_fitted()
        y_test = self._coerce_update(y_test)
        if y_test is None:
            return []
        if y_test.start_index != self.cutoff + 1:
            raise NonContiguousUpdateError(
                f"test data starts at {y_test.start_index}, cutoff is {self.cutoff}"
            )
        results = []
        revealed = 0
        for window in cv.train_windows(len(y_test)):
            end = window.stop
            if end > revealed:
                self.update(
                    y_test.islice(revealed, end), update_params=update_params
                )
                revealed = end
            results.append((self.cutoff, self.predict(cv.fh)))
        return results

    # -- inspection ----------------------------------------------------

    def get_fitted_params(self) -> dict:
        """Documented fitted-parameter map; requires fit."""
        self._check_fitted()
        return self._get_fitted_params()

    def _get_fitted_params(self) -> dict:
        """Fitted parameters of the forecaster children, by dotted name."""
        out = {}
        for name, child in self._children().items():
            if isinstance(child, BaseForecaster):
                for key, value in child.get_fitted_params().items():
                    out[f"{name}.{key}"] = value
        return out
