"""Temporal cross-validation splitters and grid-search tuning.

Splits never let validation indices precede their training window, and a
series too short for a single split yields an empty iterator rather than
an error.  Grid search scores the candidates one at a time, each over
every split (default scoring: symmetric MAPE, lower is better), picks the
minimum with ties broken by enumeration order, and refits the winning
candidate on the full series.  The search runs inside a prefix-cache
scope (see :class:`~ufcast.compose.TransformedTargetForecaster`), so
pipeline candidates share every step that no grid key reaches, whatever
order the fits come in, and the refit reuses the steps of an earlier fit
on the full series.
"""

from __future__ import annotations

import itertools

import numpy as np

from .compose import _SCORING_CANDIDATES, _prefix_cache_scope
from .core import (BaseForecaster, TimeSeries, _check_integer, as_horizon,
                   as_series)
from .evaluation import smape
from .exceptions import FIT_ERRORS, AllCandidatesFailedError

__all__ = ["SlidingWindowSplitter", "ForecastingGridSearch"]

_MODES = ("sliding", "expanding", "single")


class SlidingWindowSplitter:
    """Time-ordered train/validation splits over a series.

    Parameters
    ----------
    window_length : int
        Training window size (minimum size, for ``expanding``).
    fh : horizon-like
        Validation steps relative to the training-window end; must be
        positive.
    step_length : int
        Stride between consecutive window ends.
    mode : {"sliding", "expanding", "single"}
        ``sliding`` moves a fixed-size window, ``expanding`` grows it from
        the series start, ``single`` emits exactly one split whose
        validation block is the last ``max(fh)`` positions.
    """

    def __init__(self, window_length: int = 10, fh=1, step_length: int = 1,
                 mode: str = "sliding"):
        _check_integer("window_length", window_length, 1)
        _check_integer("step_length", step_length, 1)
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        fh = as_horizon(fh)
        if fh.steps[0] < 1:
            raise ValueError("cv horizon steps must be positive")
        self.window_length = window_length
        self.fh = fh
        self.step_length = step_length
        self.mode = mode

    @staticmethod
    def _length(y) -> int:
        if isinstance(y, TimeSeries):
            return len(y)
        if np.isscalar(y):
            _check_integer("y", y, 0)
            return int(y)
        return len(as_series(y))

    def split(self, y):
        """Yield (train_positions, test_positions) pairs, 0-based in y (a
        series, or its length as an integer >= 0)."""
        n = self._length(y)
        for window in self.train_windows(n):
            test = window.stop - 1 + self.fh.steps
            if test[-1] > n - 1:
                return
            yield np.arange(window.start, window.stop), test

    def train_windows(self, n: int):
        """Train windows only, unbounded on the validation side.

        Used by ``update_predict``: each window marks how much of the test
        data is revealed before a forecast, so the forecast itself may
        target positions beyond the data.
        """
        if self.mode == "single":
            end = n - int(self.fh.steps[-1])
            if end >= 1:
                yield range(0, end)
            return
        end = self.window_length
        while end <= n:
            start = 0 if self.mode == "expanding" else end - self.window_length
            yield range(start, end)
            end += self.step_length


def _cv_score(candidate, splits, fh, scoring):
    """A candidate's (mean score, n_errors) over the splits; its first
    failure scores it infinity and skips its later splits."""
    scores = []
    try:
        for train, actual in splits:
            forecast = candidate.fit(train).predict(fh)
            scores.append(float(scoring(actual, forecast.values)))
    except FIT_ERRORS:
        return np.inf, 1
    score = float(np.mean(scores)) if scores else np.inf
    return (score if np.isfinite(score) else np.inf), 0


class ForecastingGridSearch(BaseForecaster):
    """Grid-search cross-validation over a forecaster's parameter grid.

    Every grid candidate is first built by cloning the prototype forecaster
    and re-parameterising the clone (dotted paths reach nested components),
    so an unknown key or a rejected value fails before anything is fitted.
    Then the candidates are scored one at a time: a candidate is fitted on
    each training window and scored on the validation positions, and its
    first failure scores it infinity and skips its remaining splits.  The
    candidate with the smallest mean score wins, ties going to the earliest
    in enumeration order (keys in insertion order, last key varying
    fastest); only all candidates failing is an error.  The winning
    candidate itself is then refitted on the full series.

    The search runs in a prefix-cache scope, joining one already open (the
    benchmark runner opens one per series).  So when the prototype is a
    :class:`~ufcast.compose.TransformedTargetForecaster`, a step whose
    input and hyper-parameters do not depend on the candidate (every step
    before the first one a grid key reaches) is fitted once per split and
    shared by all candidates, whatever order the fits come in, and the
    refit shares the steps of any earlier fit on the same series, its
    final forecaster too.  The candidates' own final steps, fitted on
    split windows, are not kept.  Scores, report and refit are exactly
    those of fitting every candidate pipeline whole.
    """

    def __init__(self, forecaster, param_grid: dict, cv, scoring=None):
        self.forecaster = forecaster
        self.param_grid = param_grid
        self.cv = cv
        self.scoring = scoring
        super().__init__()

    def _validate(self):
        if not self.param_grid or any(
                len(v) == 0 for v in self.param_grid.values()):
            raise ValueError("param_grid must map names to non-empty lists")

    def _children(self):
        return {"forecaster": self.forecaster}

    def _required_length(self, y):
        """The shortest series the cv splits at least once."""
        horizon = int(self.cv.fh.steps[-1])
        if self.cv.mode == "single":
            return horizon + 1
        return self.cv.window_length + horizon

    def _fit(self, y):
        candidates = []
        for combo in itertools.product(*self.param_grid.values()):
            params = dict(zip(self.param_grid, combo))
            candidate = self.forecaster.clone()
            candidate.set_params(**params)  # UnknownParameterError propagates
            candidates.append((params, candidate))
        scoring = self.scoring if self.scoring is not None else smape
        fh = as_horizon(self.cv.fh)
        splits = [(y.islice(int(train[0]), int(train[-1] + 1)), y.values[test])
                  for train, test in self.cv.split(y)]
        self.report_ = []
        with _prefix_cache_scope():
            scoring_candidates = _SCORING_CANDIDATES.set(True)
            try:
                for params, candidate in candidates:
                    score, n_errors = _cv_score(candidate, splits, fh, scoring)
                    self.report_.append({"params": params, "mean_score": score,
                                         "n_errors": n_errors})
            finally:
                _SCORING_CANDIDATES.reset(scoring_candidates)
            scores = [row["mean_score"] for row in self.report_]
            best_score = min(scores)
            if best_score == np.inf:
                raise AllCandidatesFailedError(
                    "no candidate produced a finite validation score"
                )
            # ties go to the earliest candidate
            best_params, best = candidates[scores.index(best_score)]
            self.best_params_ = dict(best_params)
            self.best_score_ = best_score
            self.best_forecaster_ = best.fit(y)

    def _predict_at_positions(self, positions):
        return self.best_forecaster_._predict_at_positions(positions)

    def _update_state(self, y_new):
        self.best_forecaster_.update(y_new, update_params=False)

    def _get_fitted_params(self):
        return {"best_params": dict(self.best_params_),
                "best_score": self.best_score_}
