"""Benchmark model registry.

Every in-scope recipe is assembled from the composition toolkit:

* ``Naive`` / ``sNaive`` — plain naive forecasters.
* ``Naive2`` — naive after conditional multiplicative seasonal adjustment.
* ``SES`` / ``Holt`` / ``Damped`` — exponential smoothing behind the same
  seasonal adjustment; ``Com`` is the :class:`EnsembleForecaster` of those
  three pipelines (in a runner task they reuse the models' fits through
  the prefix cache of :mod:`ufcast.compose`).
* ``Theta`` — seasonal adjustment + the two-line theta core;
  ``Theta-bc`` adds a likelihood-fitted power transform in between.
* ``{reg}`` / ``{reg}-s`` — reduction to tabular regression with linear
  detrending and standardisation, ``-s`` adding seasonal adjustment; the
  default window length covers at least a full seasonal period
  (``max(sp, 3)``, rule configurable).
* ``{reg}-t-s`` — ``-s`` wrapped in grid search over the window length
  (3, 4, 6, 8, 10, 12, 15, 18, 21, 24) on a single tail split whose
  validation block matches the forecasting horizon.
* ``{reg}-Theta-bc[-t]`` — residual boosting: detrend with a fitted
  Theta-bc model, standardise the residuals, model them by reduction,
  and sum the forecasts (``-t`` tunes the window as above).

``LR`` (least squares, with intercept) and ``KNN`` (one neighbour) ship
in-package; ``RF`` / ``XGB`` recipes resolve only when an external
regressor factory is plugged in.
"""

from __future__ import annotations

from ..compose import (
    EnsembleForecaster,
    ReducedRegressionForecaster,
    TransformedTargetForecaster,
)
from ..exceptions import UnknownModelError
from ..forecasters import (
    HoltForecaster,
    NaiveForecaster,
    PolynomialTrendForecaster,
    SESForecaster,
    ThetaForecaster,
)
from ..regress import KNNRegressor, LinearRegressor
from ..select import ForecastingGridSearch, SlidingWindowSplitter
from ..transforms import BoxCoxTransformer, Deseasonalizer, Detrender, Standardizer

__all__ = ["KNOWN_MODELS", "WINDOW_GRID", "WINDOW_RULES", "build_model",
           "default_window_length"]

WINDOW_GRID = [3, 4, 6, 8, 10, 12, 15, 18, 21, 24]

_REGRESSORS = {
    "LR": lambda: LinearRegressor(fit_intercept=True),
    "KNN": lambda: KNNRegressor(k=1),
}
_BOOSTABLE = ("KNN", "RF", "XGB")  # linear regression is excluded from boosting

_STATISTICAL = (
    "Naive", "sNaive", "Naive2", "SES", "Holt", "Damped", "Com",
    "Theta", "Theta-bc",
)

KNOWN_MODELS = list(_STATISTICAL)
for _reg in ("LR", "KNN", "RF", "XGB"):
    KNOWN_MODELS += [_reg, f"{_reg}-s", f"{_reg}-t-s"]
for _reg in _BOOSTABLE:
    KNOWN_MODELS += [f"{_reg}-Theta-bc", f"{_reg}-Theta-bc-t"]


WINDOW_RULES = ("max", "min")


def default_window_length(sp: int, rule: str = "max") -> int:
    if rule == "max":
        return max(sp, 3)
    if rule == "min":
        return min(sp, 3)
    raise ValueError(f"unknown window rule {rule!r}")


def _regressor(token: str, external):
    if token in _REGRESSORS:
        return _REGRESSORS[token]()
    if external and token in external:
        return external[token]()
    raise UnknownModelError(f"{token} requires an external regressor factory")


def build_model(name: str, sp: int, horizon: int, window_rule: str = "max",
                external_regressors: dict | None = None):
    """Build a fresh forecaster for a registry name.

    Parameters
    ----------
    name : str
        One of :data:`KNOWN_MODELS`; ``UnknownModelError`` otherwise, and
        for ``RF``/``XGB`` without a factory.
    sp, horizon : int
        Dataset seasonal periodicity and forecasting horizon.
    window_rule : {"max", "min"}
        Untuned reduction window: max(sp, 3) or min(sp, 3); else ValueError.
    external_regressors : dict, optional
        name -> zero-argument factory for regressors not shipped here
        (``RF``, ``XGB``).
    """
    if name not in KNOWN_MODELS:
        raise UnknownModelError(f"unknown model {name!r}")
    w = default_window_length(sp, window_rule)

    def deseas():
        return ("deseasonalize", Deseasonalizer(sp=sp))

    def adjusted(forecaster):
        return TransformedTargetForecaster([deseas(), ("forecast", forecaster)])

    def theta_pipeline(box_cox):
        steps = [deseas()]
        if box_cox:
            steps.append(("boxcox", BoxCoxTransformer()))
        steps.append(("forecast", ThetaForecaster()))
        return TransformedTargetForecaster(steps)

    def reduction_pipeline(reg_token, seasonal, window):
        steps = [deseas()] if seasonal else []
        steps += [
            ("detrend", Detrender(PolynomialTrendForecaster(degree=1))),
            ("standardize", Standardizer()),
            ("forecast", ReducedRegressionForecaster(
                _regressor(reg_token, external_regressors), window_length=window
            )),
        ]
        return TransformedTargetForecaster(steps)

    def boosted_pipeline(reg_token, window):
        return TransformedTargetForecaster([
            ("detrend", Detrender(theta_pipeline(box_cox=True))),
            ("standardize", Standardizer()),
            ("forecast", ReducedRegressionForecaster(
                _regressor(reg_token, external_regressors), window_length=window
            )),
        ])

    def tuned(pipeline):
        cv = SlidingWindowSplitter(
            window_length=1, fh=list(range(1, horizon + 1)), mode="single"
        )
        return ForecastingGridSearch(
            pipeline, {"forecast.window_length": list(WINDOW_GRID)}, cv
        )

    if name == "Naive":
        return NaiveForecaster(strategy="last")
    if name == "sNaive":
        return NaiveForecaster(strategy="seasonal_last", sp=sp)
    if name == "Naive2":
        return adjusted(NaiveForecaster(strategy="last"))
    if name == "SES":
        return adjusted(SESForecaster())
    if name == "Holt":
        return adjusted(HoltForecaster(damped=False))
    if name == "Damped":
        return adjusted(HoltForecaster(damped=True))
    if name == "Com":
        return EnsembleForecaster([
            ("ses", adjusted(SESForecaster())),
            ("holt", adjusted(HoltForecaster(damped=False))),
            ("damped", adjusted(HoltForecaster(damped=True))),
        ])
    if name == "Theta":
        return theta_pipeline(box_cox=False)
    if name == "Theta-bc":
        return theta_pipeline(box_cox=True)

    reg_token, _, suffix = name.partition("-")
    if suffix == "":
        return reduction_pipeline(reg_token, seasonal=False, window=w)
    if suffix == "s":
        return reduction_pipeline(reg_token, seasonal=True, window=w)
    if suffix == "t-s":
        return tuned(reduction_pipeline(reg_token, seasonal=True, window=w))
    if suffix == "Theta-bc":
        return boosted_pipeline(reg_token, window=w)
    return tuned(boosted_pipeline(reg_token, window=w))  # "Theta-bc-t"
