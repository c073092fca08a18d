"""Reference forecasting algorithms: naive family, exponential smoothing
family (simple / trend / damped trend), the two-line theta method, and
polynomial trend.

Smoothing parameters are estimated by minimising the in-sample one-step
sum of squared errors: a coarse deterministic grid over the smoothing
coefficients (0.01 to 0.99, step 0.02) seeds a Nelder-Mead refinement that
also adjusts the initial states.  The refinement is the port of scipy's
Nelder-Mead in :mod:`ufcast._numerics` (same steps, same results, on Python
floats).  Everything is deterministic.

The values whose rounding depends on the CPU path come from the kernels of
:mod:`ufcast._numerics`: the least-squares trend lines of Theta and
:class:`PolynomialTrendForecaster` (``trend_coefficients``), the
polynomial's predictions (``polyval``) and the damped trend's sums of
powers of phi (``damped_sums``).  The smoothing recursions use only
``+ - * /``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _numerics
from .core import (BaseForecaster, TimeSeries, _check_flag, _check_integer,
                   _check_real)
from .exceptions import OptimizerFailedError, UnsupportedInSampleError

__all__ = [
    "NaiveForecaster",
    "SESForecaster",
    "HoltForecaster",
    "ThetaForecaster",
    "PolynomialTrendForecaster",
]

_SMOOTHING_GRID = np.linspace(0.01, 0.99, 50)


# ---------------------------------------------------------------------------
# naive family
# ---------------------------------------------------------------------------

class NaiveForecaster(BaseForecaster):
    """Repeat the last observation, or the last observed season.

    Parameters
    ----------
    strategy : {"last", "seasonal_last"}
    sp : int, optional
        Seasonal periodicity for ``seasonal_last``; taken from the series
        when not given.
    """

    def __init__(self, strategy: str = "last", sp: int | None = None):
        self.strategy = strategy
        self.sp = sp
        super().__init__()

    def _validate(self):
        if self.strategy not in ("last", "seasonal_last"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.sp is not None:
            _check_integer("sp", self.sp, 1)

    def _effective_sp(self, y: TimeSeries) -> int:
        return self.sp if self.sp is not None else y.sp

    def _required_length(self, y: TimeSeries) -> int:
        return self._effective_sp(y) if self.strategy == "seasonal_last" else 1

    def _fit(self, y):
        self._lag_ = self._effective_sp(y) if self.strategy == "seasonal_last" else 1

    def _predict_ahead(self, steps):
        # repeat the final lag-length block of observations
        lag = self._lag_
        return self._y.values[len(self._y) - lag + (steps - 1) % lag]

    def _predict_in_sample(self, rel):
        lag = self._lag_
        if np.any(rel < lag):
            raise UnsupportedInSampleError(
                f"the first {lag} positions have no observation {lag} steps before"
            )
        return self._y.values[rel - lag]

    def _get_fitted_params(self):
        if self.strategy == "seasonal_last":
            return {"last_season": self._y.values[-self._lag_:].copy()}
        return {"last": float(self._y.values[-1])}


# ---------------------------------------------------------------------------
# exponential smoothing machinery
# ---------------------------------------------------------------------------

# SES keeps its own SSE kernel rather than running _holt_sse_scalar with
# beta=0, phi=1, b0=0: that is bit-identical for finite inputs (the property
# tests pin it) but slower, and this kernel is the hot path of SES and
# Theta fits (the harness workload's 160k Nelder-Mead evaluations).  Per
# call with Python float arguments, as Nelder-Mead's vertices pass them,
# on a 2-vCPU Xeon (Python 3.11, numpy 2.4): 3.4 and 42 us at n=60 and 800,
# against 8.8 and 121 us for _holt_sse_scalar and 11.5 and 155 us for
# _smoothing_path, which also records the fitted values (neither optimiser
# runs it).  Numpy scalar coefficients make every step numpy scalar
# arithmetic: 12 and 162 us.  One evaluation inside an SES fit, the
# optimiser's two-parameter steps included, costs about 4.0 and 44 us (6.2
# and 46 us with the general loop's list steps).  SES's 50-alpha grid runs this
# kernel once per alpha: that takes 1.1-1.3x the time of a vectorised grid
# kernel at n 13-900, and the grid is 22-36 % of an SES fit at n 60-800,
# so a second copy of the recursion would save at most about 8 % of one.

def _ses_sse_scalar(values, alpha, l0):
    """One-step SSE of the level recursion ``level += alpha * (x - level)``
    over ``values`` (a list of floats)."""
    level = l0
    sse = 0.0
    for x in values:
        e = x - level
        sse += e * e
        level += alpha * e
    return sse


def _refine(objective, x0, seed_sse, options=None):
    """Deterministic Nelder-Mead from the best grid point; returns the
    point as a list of floats and its SSE.

    By default convergence thresholds are relative to the seed objective;
    ``options`` replaces them.  The result is only accepted when it beats
    the seed.  ``objective`` must be a pure function of its argument: on a
    run that ends at a cap (Holt's ``maxiter``), the minimiser counts the
    repeats of a cycle in ``nfev`` without calling it again.
    """
    if options is None:
        options = {"xatol": 1e-7, "fatol": 1e-10 * (1.0 + abs(seed_sse))}
    res = _numerics.minimize(objective, x0, options)
    if np.isfinite(res.fun) and res.fun < seed_sse:
        return res.x.tolist(), float(res.fun)
    return list(x0), float(seed_sse)


def _grid_best(sse, what):
    """Index and value of the smallest finite SSE on a ``what`` grid."""
    sse = np.asarray(sse, dtype=float)
    finite = np.isfinite(sse)
    if not np.any(finite):
        raise OptimizerFailedError(f"no finite SSE on the {what} grid")
    best = int(np.argmin(np.where(finite, sse, np.inf)))
    return best, float(sse[best])


def _ses_fit(values):
    """Fit level smoothing to ``values`` (a list of floats); returns
    ``(alpha, 0.0, 1.0, l0, 0.0, sse)``, the smoothing template's
    coefficients and states with no trend.

    A grid over alpha (initial level fixed at the first observation) seeds
    Nelder-Mead over (alpha, l0), with the level coordinate scaled to the
    data so tolerances bite on both axes.
    """
    y0 = values[0]
    grid = _SMOOTHING_GRID.tolist()
    best, seed_sse = _grid_best(
        [_ses_sse_scalar(values, a, y0) for a in grid], "alpha")
    scale = max(1.0, abs(float(np.mean(values))))

    def objective(x):
        a, l0_scaled = x
        if not 0.0 <= a <= 1.0:
            return math.inf
        s = _ses_sse_scalar(values, a, l0_scaled * scale)
        return s if math.isfinite(s) else math.inf

    x, sse = _refine(objective, [grid[best], y0 / scale], seed_sse)
    return float(np.clip(x[0], 0.0, 1.0)), 0.0, 1.0, x[1] * scale, 0.0, sse


def _smoothing_path(values, alpha, beta, phi, level, trend):
    """Run the (damped) trend recursion over ``values`` (a list of floats).

    Returns ``(fitted, level, trend, sse)``: ``fitted[t]`` is the one-step
    prediction of ``values[t]``, then the states after the last value and
    the one-step SSE.  The expressions are :func:`_holt_sse_scalar`'s, so
    ``sse`` equals it bit for bit.  With ``beta=0``, ``phi=1`` and a zero
    trend the fitted values and level equal the SES recursion
    ``level += alpha * (x - level)`` bit for bit on finite inputs, up to the
    sign of a zero (``level + 1.0 * 0.0`` turns a -0.0 level into +0.0).
    Running over ``values[k:]`` from the states a run over ``values[:k]``
    returned gives the same fitted values and states as one run.
    """
    fitted = []
    sse = 0.0
    for x in values:
        pred = level + phi * trend
        fitted.append(pred)
        e = x - pred
        sse += e * e
        prev_level = level
        level = pred + alpha * e
        trend = beta * (level - prev_level) + (1 - beta) * phi * trend
    return np.array(fitted), level, trend, sse


class _SmoothingForecaster(BaseForecaster):
    """The one fit and state shared by SES, Holt/Damped and Theta.

    ``_fit`` converts the values ``_path_values`` derives from the training
    series to a list of floats once, takes the coefficients and initial
    states from the model's ``_estimate`` hook on that list, and runs
    :func:`_smoothing_path` over it once.  It
    keeps ``alpha_``, ``beta_``, ``phi_``, ``initial_level_``,
    ``initial_trend_`` and ``sse_`` (the estimator's SSE, or the path's when
    nothing was estimated), the one-step fitted values of every observation
    seen (the in-sample predictions) and the level and trend after the
    last.  ``_update_state`` continues the recursion over new data from
    those states.
    """

    def _fit(self, y):
        values = self._path_values(y).tolist()
        (self.alpha_, self.beta_, self.phi_, self.initial_level_,
         self.initial_trend_, sse) = self._estimate(values)
        self._fitted, self._level, self._trend, path_sse = _smoothing_path(
            values, self.alpha_, self.beta_, self.phi_,
            self.initial_level_, self.initial_trend_)
        self.sse_ = path_sse if sse is None else sse

    def _estimate(self, values: list) -> tuple:
        """``(alpha, beta, phi, initial level, initial trend, sse)`` for the
        recursion over ``values`` (a list of floats); ``sse`` is None when
        nothing was estimated."""
        raise NotImplementedError

    def _path_values(self, y: TimeSeries) -> np.ndarray:
        """The values the recursion runs on over ``y``."""
        return y.values

    def _update_state(self, y_new):
        fitted, self._level, self._trend, _ = _smoothing_path(
            self._path_values(y_new).tolist(), self.alpha_, self.beta_,
            self.phi_, self._level, self._trend)
        self._fitted = np.concatenate([self._fitted, fitted])

    def _predict_in_sample(self, rel):
        return self._fitted[rel]


class SESForecaster(_SmoothingForecaster):
    """Simple exponential smoothing with flat extrapolation.

    ``alpha=None`` (default) estimates the smoothing coefficient and the
    initial level by SSE minimisation; a fixed ``alpha`` runs the plain
    recursion seeded with the first observation.
    """

    def __init__(self, alpha: float | None = None):
        self.alpha = alpha
        super().__init__()

    def _validate(self):
        if self.alpha is not None:
            _check_real("alpha", self.alpha, 0, 1)

    def _required_length(self, y):
        return 2 if self.alpha is None else 1

    def _estimate(self, values):
        if self.alpha is None:
            return _ses_fit(values)
        return float(self.alpha), 0.0, 1.0, values[0], 0.0, None

    def _predict_ahead(self, steps):
        # not Holt's level + h * trend: with a zero trend that can turn a
        # -0.0 level into +0.0
        return np.full(steps.size, self._level)

    def _get_fitted_params(self):
        return {
            "alpha": self.alpha_,
            "initial_level": self.initial_level_,
            "level": self._level,
            "sse": self.sse_,
        }


# Candidates per pass of the grid kernel: small enough that the dozen
# working arrays stay in cache, large enough that the per-call overhead of
# the ufuncs stays small (about 1.9x faster than one pass over the 125,000
# damped candidates, at n=40 and n=700).
_GRID_BLOCK = 16384


def _holt_sse_grid(values, alphas, betas, phis, l0, b0):
    """One-step SSE of the (damped) trend recursion over ``values`` (a list
    of floats), vectorised over candidates: ``alphas``, ``betas`` and
    ``phis`` are 1-d arrays of equal length, one candidate per index.

    Each step evaluates, per candidate and in this association order::

        pred  = level + phi * trend
        e     = x - pred
        sse   = sse + e * e
        level = pred + alpha * e
        trend = beta * (level - prev_level) + ((1 - beta) * phi) * trend

    ``(1 - beta) * phi`` is formed once per block, before the time loop;
    that is the left-to-right grouping of ``(1 - beta) * phi * trend``, so
    hoisting it changes no bit.  Candidates run in blocks through
    preallocated buffers with ``out=`` ufuncs, every operand order kept, so
    each candidate's SSE is bit-identical to :func:`_holt_sse_scalar` on the
    same coefficients, overflow to inf or nan included.
    """
    sse = np.zeros(alphas.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, sse.size, _GRID_BLOCK):
            block = slice(lo, lo + _GRID_BLOCK)
            alpha, beta, phi, acc = (
                alphas[block], betas[block], phis[block], sse[block])
            n = acc.size
            damp = (1 - beta) * phi
            level = np.full(n, l0)
            trend = np.full(n, b0)
            pred, err, step, new_level = (np.empty(n) for _ in range(4))
            for x in values:
                np.multiply(phi, trend, out=pred)
                np.add(level, pred, out=pred)
                np.subtract(x, pred, out=err)
                np.multiply(err, err, out=step)
                np.add(acc, step, out=acc)
                np.multiply(alpha, err, out=step)
                np.add(pred, step, out=new_level)
                np.subtract(new_level, level, out=step)
                np.multiply(beta, step, out=step)
                np.multiply(damp, trend, out=trend)
                np.add(step, trend, out=trend)
                level, new_level = new_level, level
    return sse


def _holt_sse_scalar(values, alpha, beta, phi, l0, b0):
    """Scalar twin of :func:`_holt_sse_grid` (Python floats).

    ``values`` is a list of floats.  The recursion uses the grid kernel's
    exact expressions, ``(1 - beta) * phi * trend`` grouped left to right
    included, so the result equals a one-candidate grid call bit for bit
    (inf and nan included) and Nelder-Mead follows the same path whichever
    kernel feeds it; this one is an order of magnitude faster per call.
    """
    level = l0
    trend = b0
    sse = 0.0
    for x in values:
        pred = level + phi * trend
        e = x - pred
        sse += e * e
        prev_level = level
        level = pred + alpha * e
        trend = beta * (level - prev_level) + (1 - beta) * phi * trend
    return sse


class HoltForecaster(_SmoothingForecaster):
    """Additive level-and-trend smoothing, optionally with damping.

    Forecasts are ``level + h * trend`` (Holt) or
    ``level + (phi + ... + phi**h) * trend`` (damped).  Unset coefficients
    are estimated by SSE minimisation together with the initial states;
    given ones stay fixed.  With every coefficient given nothing is
    estimated: the initial level is the first observation and the initial
    trend the mean slope.  Given ``alpha`` and ``beta`` lie in [0, 1] and
    ``phi`` in (0, 1]; ``phi`` needs ``damped=True``, a bool.
    """

    def __init__(
        self,
        damped: bool = False,
        alpha: float | None = None,
        beta: float | None = None,
        phi: float | None = None,
    ):
        self.damped = damped
        self.alpha = alpha
        self.beta = beta
        self.phi = phi
        super().__init__()

    def _validate(self):
        _check_flag("damped", self.damped)
        for name in ("alpha", "beta", "phi"):
            value = getattr(self, name)
            if value is not None:
                _check_real(name, value, 0, 1, low_open=name == "phi")
        if self.phi is not None and not self.damped:
            raise ValueError("phi is only used with damped=True")

    def _required_length(self, y):
        return 3

    def _estimate(self, values):
        l0 = values[0]
        b0 = (values[-1] - values[0]) / (len(values) - 1)
        phi = self.phi if self.damped else 1.0
        # (alpha, beta, phi) as floats, None where to be estimated
        given = tuple(None if c is None else float(c)
                      for c in (self.alpha, self.beta, phi))
        if None in given:
            return self._optimize(values, l0, b0, given)
        return (*given, l0, b0, None)

    def _optimize(self, values, l0, b0, given):
        """Grid over the free coefficients (a given one takes its single
        value), then Nelder-Mead over the free coefficients and both initial
        states."""
        axes = [_SMOOTHING_GRID if c is None else np.array([c]) for c in given]
        aa, bb, pp = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
        best, seed_sse = _grid_best(
            _holt_sse_grid(values, aa, bb, pp, l0, b0), "coefficient")

        seed = [float(aa[best]), float(bb[best]), float(pp[best])]
        free = [i for i, c in enumerate(given) if c is None]

        def coefficients(x):
            """(alpha, beta, phi) with the free ones read from ``x``."""
            out = list(seed)
            for i, v in zip(free, x):
                out[i] = v
            return out

        def objective(x):
            a, b, p = coefficients(x)
            if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 < p <= 1.0):
                return math.inf
            s = _holt_sse_scalar(values, a, b, p, x[-2], x[-1])
            return s if math.isfinite(s) else math.inf

        x0 = [seed[i] for i in free] + [l0, b0]
        x, best_sse = _refine(
            objective, x0, seed_sse,
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000},
        )
        a, b, p = coefficients(x)
        a = float(np.clip(a, 0.0, 1.0))
        b = float(np.clip(b, 0.0, 1.0))
        p = float(np.clip(p, 1e-6, 1.0))
        return a, b, p, x[-2], x[-1], best_sse

    def _predict_ahead(self, steps):
        if self.damped:
            damp = _numerics.damped_sums(self.phi_, steps.max())
            return self._level + damp[steps - 1] * self._trend
        return self._level + steps * self._trend

    def _get_fitted_params(self):
        out = {
            "alpha": self.alpha_,
            "beta": self.beta_,
            "initial_level": self.initial_level_,
            "initial_trend": self.initial_trend_,
            "level": self._level,
            "trend": self._trend,
            "sse": self.sse_,
        }
        if self.damped:
            out["phi"] = self.phi_
        return out


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

class ThetaForecaster(_SmoothingForecaster):
    """Two-line theta method with equal combination weights.

    The zero-curvature line is the least-squares linear trend; the
    double-curvature line (two times the series minus the trend line) is
    extrapolated flat by simple exponential smoothing with its own
    estimated coefficient.  Forecasts average the two extrapolations.
    Expects seasonally adjusted input; seasonal handling lives in the
    surrounding pipeline.
    """

    def _required_length(self, y):
        return 3

    def _fit(self, y):
        self.intercept_, self.slope_ = _numerics.trend_coefficients(
            y.values, 1).tolist()
        super()._fit(y)

    _estimate = staticmethod(_ses_fit)

    def _line_at(self, rel):
        return self.intercept_ + self.slope_ * rel

    def _path_values(self, y):
        """The double-curvature line ``2y - line`` over ``y``."""
        return 2.0 * y.values - self._line_at(y.positions - self._y.start_index)

    def _predict_ahead(self, steps):
        rel = (len(self._y) - 1) + steps
        return 0.5 * self._line_at(rel) + 0.5 * self._level

    def _predict_in_sample(self, rel):
        return 0.5 * self._line_at(rel) + 0.5 * self._fitted[rel]

    def _get_fitted_params(self):
        return {
            "slope": self.slope_,
            "intercept": self.intercept_,
            "alpha": self.alpha_,
            "level": self._level,
        }


# ---------------------------------------------------------------------------
# polynomial trend
# ---------------------------------------------------------------------------

class PolynomialTrendForecaster(BaseForecaster):
    """Least-squares polynomial in the 0-based training position.

    Supports in-sample prediction at any training position, which makes it
    the standard engine for the detrending transformer.
    """

    def __init__(self, degree: int = 1):
        self.degree = degree
        super().__init__()

    def _validate(self):
        _check_integer("degree", self.degree, 0)

    def _required_length(self, y):
        return self.degree + 1

    def _fit(self, y):
        self.coef_ = _numerics.trend_coefficients(y.values, self.degree)

    def _predict_ahead(self, steps):
        return self._predict_in_sample((len(self._y) - 1) + steps)

    def _predict_in_sample(self, rel):
        return _numerics.polyval(self.coef_, rel)

    def _get_fitted_params(self):
        return {f"coef_{i}": float(c) for i, c in enumerate(self.coef_)}
