"""Temporal cross-validation splitters and grid-search tuning.

Splits never let validation indices precede their training window, and a
series too short for a single split yields an empty iterator rather than
an error.  Grid search scores every candidate over the splits (default
scoring: symmetric MAPE, lower is better), picks the minimum with ties
broken by enumeration order, and refits the winner on the full series.
Every candidate is fitted whole on every split.  A grid search runs inside
a prefix-cache scope (see
:class:`~ufcast.compose.TransformedTargetForecaster`), so pipeline
candidates fit each transformer that no grid key reaches once per split,
and the refit reuses the transformers of an earlier fit on the full
series.
"""

from __future__ import annotations

import itertools

import numpy as np

from .compose import _prefix_cache_scope
from .core import BaseForecaster, TimeSeries, as_horizon, as_series
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
        if window_length < 1:
            raise ValueError("window_length must be >= 1")
        if step_length < 1:
            raise ValueError("step_length must be >= 1")
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
            return int(y)
        return len(as_series(y))

    def split(self, y):
        """Yield (train_positions, test_positions) pairs, 0-based in y."""
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


class ForecastingGridSearch(BaseForecaster):
    """Grid-search cross-validation over a forecaster's parameter grid.

    For every grid candidate the prototype forecaster is cloned,
    re-parameterised (dotted paths reach nested components), fitted on
    each training window and scored on the validation positions; the
    candidate with the smallest mean score wins, ties going to the
    earliest candidate in enumeration order (keys in insertion order,
    last key varying fastest).  A failing candidate scores infinity; only
    all candidates failing is an error.  The winner is refitted on the
    full series.

    The search runs in a prefix-cache scope, joining one already open (the
    benchmark runner opens one per series).  So when the prototype is a
    :class:`~ufcast.compose.TransformedTargetForecaster`, a transformer
    whose input and hyper-parameters do not depend on the candidate (every
    step before the first one a grid key reaches) is fitted once per split
    and shared by all candidates, and the refit shares the steps of any
    earlier fit on the same series, its final forecaster too.  Scores,
    report and refit are exactly those of fitting every candidate pipeline
    whole.
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

    def _candidates(self):
        names = list(self.param_grid)
        for combo in itertools.product(*(self.param_grid[n] for n in names)):
            yield dict(zip(names, combo))

    def _fit(self, y):
        candidates = []
        for params in self._candidates():
            candidate = self.forecaster.clone()
            candidate.set_params(**params)  # UnknownParameterError propagates
            candidates.append(candidate)
        with _prefix_cache_scope():
            evaluated = self._evaluate(candidates, y)
            report = []
            best_score = np.inf
            best_params = None
            for params, (score, n_errors) in zip(self._candidates(), evaluated):
                report.append({"params": dict(params), "mean_score": score,
                               "n_errors": n_errors})
                if score < best_score:
                    best_score = score
                    best_params = params
            self.report_ = report
            if best_params is None:
                raise AllCandidatesFailedError(
                    "no candidate produced a finite validation score"
                )
            self.best_params_ = dict(best_params)
            self.best_score_ = float(best_score)
            self.best_forecaster_ = self.forecaster.clone()
            self.best_forecaster_.set_params(**best_params)
            self.best_forecaster_.fit(y)

    def _evaluate(self, candidates, y):
        """(mean score, n_errors) of each candidate over the cv splits.

        Each candidate is fitted on each training window and scored on the
        forecast of the validation steps.  A candidate's first failure
        scores it infinity and skips its later splits.
        """
        scoring = self.scoring if self.scoring is not None else smape
        fh = as_horizon(self.cv.fh)
        scores = [[] for _ in candidates]
        failed = [False] * len(candidates)
        for train_pos, test_pos in self.cv.split(y):
            train = y.islice(int(train_pos[0]), int(train_pos[-1] + 1))
            actual = y.values[test_pos]
            for i, candidate in enumerate(candidates):
                if failed[i]:
                    continue
                try:
                    forecast = candidate.fit(train).predict(fh)
                    scores[i].append(float(scoring(actual, forecast.values)))
                except FIT_ERRORS:
                    failed[i] = True
        out = []
        for split_scores, error in zip(scores, failed):
            mean = float(np.mean(split_scores)) if split_scores else np.inf
            if error or not np.isfinite(mean):
                mean = np.inf
            out.append((mean, int(error)))
        return out

    def _predict_at_positions(self, positions):
        return self.best_forecaster_._predict_at_positions(positions)

    def _update_state(self, y_new):
        self.best_forecaster_.update(y_new, update_params=False)

    def _get_fitted_params(self):
        return {"best_params": dict(self.best_params_),
                "best_score": self.best_score_}
