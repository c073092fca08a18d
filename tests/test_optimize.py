"""The smoothing models' Nelder-Mead: the in-package port against scipy's,
the argument types the SSE kernels receive, and the minimisations an
outside wrapper of ``scipy.optimize.minimize`` can observe.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from ufcast import forecasters
from ufcast.forecasters import (
    HoltForecaster,
    SESForecaster,
    ThetaForecaster,
    _nelder_mead,
)
from tests.conftest import seasonal_series

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _boxed_objective(centre, box, step):
    """A quadratic bowl that is inf outside ``|x_i| <= box`` and nan where
    ``x_0 < -box / 2``, on a staircase of height ``step`` (0 for none), so
    that vertices often tie, on inf or on a stair."""

    def fun(x):
        x = [float(v) for v in x]
        if any(abs(v) > box for v in x):
            return math.inf
        if x[0] < -box / 2:
            return math.nan
        s = 0.0
        for v, c in zip(x, centre):
            e = v - c
            s += e * e
        return math.floor(s / step) * step if step else s

    return fun


def _summary(res):
    return (np.asarray(res.x, dtype=float).tobytes(),
            np.float64(res.fun).tobytes(), int(res.nit), int(res.nfev),
            int(res.status))


_OPTIONS = st.one_of(
    st.just({}),
    st.just({"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000}),
    st.builds(lambda m: {"maxiter": m}, st.integers(1, 30)),
    st.builds(lambda m: {"maxfev": m}, st.integers(1, 30)),
    st.builds(lambda m, f: {"maxiter": m, "maxfev": f},
              st.integers(1, 30), st.integers(1, 30)),
)
_COORD = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def _problems(draw):
    n = draw(st.integers(1, 6))
    x0 = draw(st.lists(_COORD, min_size=n, max_size=n))
    centre = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    box = draw(st.floats(0.05, 4.0))
    step = draw(st.sampled_from([0.0, 0.0, 0.01, 0.5]))
    return x0, centre, box, step


@settings(max_examples=200)
@given(problem=_problems(), options=_OPTIONS)
# simplices of four and seven vertices tied on inf, where np.argsort orders
# equal values differently from a stable sort
@example(problem=([0.0, 0.0, 0.0], [0.0, 1.0, 1.0], 1.0, 0.0), options={})
@example(problem=([-0.2, 0.0, -0.0, -1.0, -0.0, 0.0],
                  [0.3, -0.1, -0.1, -0.9, -0.2, -0.4], 1.1, 0.0),
         options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000})
def test_port_matches_scipy_bit_for_bit(problem, options):
    x0, centre, box, step = problem
    fun = _boxed_objective(centre, box, step)
    ours = scipy.optimize.minimize(fun, x0, method=_nelder_mead,
                                   options=options)
    with np.errstate(invalid="ignore"):
        theirs = scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
                                         options=options)
    assert _summary(ours) == _summary(theirs)
    assert ours.success == theirs.success


def test_port_passes_args_and_fresh_lists():
    seen = []

    def fun(x, shift):
        seen.append(x)
        assert type(x) is list and all(type(v) is float for v in x)
        x.append(0.0)  # a vertex the objective changes stays unchanged
        return (x[0] - shift) ** 2

    res = _nelder_mead(fun, np.array([1.0]), args=(0.25,), maxfev=10)
    assert res.nfev == len(seen) == 10 and res.status == 1
    assert res.x.shape == (1,)
    assert len({id(x) for x in seen}) == len(seen)


@pytest.fixture
def series():
    return seasonal_series(n=48, sp=1, amp=0.0, noise=0.05, seed=7)


_FITS = {
    "ses": lambda: SESForecaster(),
    "theta": lambda: ThetaForecaster(),
    "holt": lambda: HoltForecaster(),
    "damped": lambda: HoltForecaster(damped=True),
}


@pytest.mark.parametrize("model", sorted(_FITS))
def test_kernels_get_python_floats(model, series, monkeypatch):
    calls = []

    def recorder(kernel):
        def record(values, *args):
            calls.append(args)
            return kernel(values, *args)
        return record

    for name in ("_ses_sse_scalar", "_holt_sse_scalar"):
        monkeypatch.setattr(forecasters, name,
                            recorder(getattr(forecasters, name)))
    _FITS[model]().fit(series)
    assert len(calls) > 50
    bad = {type(v).__name__ for args in calls for v in args
           if type(v) is not float}
    assert not bad


@pytest.mark.parametrize("model", ["ses", "damped"])
def test_minimisations_visible_to_a_minimize_wrapper(model, series,
                                                     monkeypatch):
    original = scipy.optimize.minimize
    seen = []

    def minimize(fun, *args, **kwargs):
        evals = []

        def counted(x, *a):
            evals.append(x)
            return fun(x, *a)

        res = original(counted, *args, **kwargs)
        seen.append((res, len(evals)))
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    _FITS[model]().fit(series)
    assert len(seen) == 1
    res, evals = seen[0]
    assert type(res.nfev) is int and res.nfev == evals > 0
    assert type(res.nit) is int and res.nit > 0
    assert res.success is True and res.status == 0
