"""The in-package optimisers against scipy's: the smoothing models'
Nelder-Mead (its two-parameter loop and its general one) and Box-Cox's
bounded Brent search; the argument types the SSE kernels receive, the
minimisations an outside wrapper of ``scipy.optimize.minimize`` can
observe, and the same results from the seams of ``ufcast._numerics``
whether or not ``scipy.optimize`` is loaded.
"""

import math
import struct
import sys

import numpy as np
import pytest
import scipy.optimize

from ufcast import _numerics, forecasters
from ufcast._numerics import _bounded_brent, _Cycles, _nelder_mead
from ufcast.forecasters import HoltForecaster, SESForecaster, ThetaForecaster
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
    # two parameters (SES and Theta) run their own loop: draw them often
    n = draw(st.one_of(st.just(2), st.integers(1, 6)))
    x0 = draw(st.lists(_COORD, min_size=n, max_size=n))
    centre = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    box = draw(st.floats(0.05, 4.0))
    step = draw(st.sampled_from([0.0, 0.0, 0.01, 0.5]))
    return x0, centre, box, step


# simplices that stop changing (all period 1) under Holt's options: the
# general loop counts the repeats instead of evaluating them, once with a
# maxfev that falls inside the periods it would otherwise count
_CAP = {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000}
_CYCLES = [
    (([2.59, 2.29, -0.09], [1.94, -1.06, 0.9], 0.38, 0.01), _CAP),
    (([2.59, 2.29, -0.09], [1.94, -1.06, 0.9], 0.38, 0.01),
     {**_CAP, "maxfev": 1003}),
    (([-1.72, 0.6, -0.79, -1.25], [1.47, 0.42, 1.82, 1.55], 0.58, 0.01),
     _CAP),
    (([-2.0, 2.71, 0.89, 1.22, -2.31], [-0.75, -0.63, 1.18, -0.97, -0.99],
      2.93, 0.01), _CAP),
    (([-2.41, 2.38, -0.05, -0.66, -2.9, -0.59],
      [-0.87, -1.37, 1.43, 1.24, 0.25, -1.46], 1.75, 0.5), _CAP),
]


def _cycle_examples(test):
    for problem, options in _CYCLES:
        test = example(problem=problem, options=options)(test)
    return test


@settings(max_examples=200)
@given(problem=_problems(), options=_OPTIONS)
@_cycle_examples
# simplices of four and seven vertices tied on inf, where np.argsort orders
# equal values differently from a stable sort
@example(problem=([0.0, 0.0, 0.0], [0.0, 1.0, 1.0], 1.0, 0.0), options={})
@example(problem=([-0.2, 0.0, -0.0, -1.0, -0.0, 0.0],
                  [0.3, -0.1, -0.1, -0.9, -0.2, -0.4], 1.1, 0.0),
         options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000})
# two parameters: an initial simplex with two vertices tied on inf, a nan
# vertex, and maxfev cuts inside a shrink, before each of its evaluations
@example(problem=([2.55, 2.56], [-1.04, -0.52], 2.63, 0.0), options={})
@example(problem=([-1.78, 1.84], [-0.73, -1.4], 2.81, 0.01),
         options={"maxfev": 14})
@example(problem=([-1.86, -0.45], [-0.45, 0.73], 3.16, 0.5),
         options={"maxfev": 5})
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


@pytest.mark.parametrize("problem, options", _CYCLES)
def test_cycle_examples_count_repeats_without_calling(problem, options):
    # the examples above reach a repeat, so they test the skip
    x0, centre, box, step = problem
    fun = _boxed_objective(centre, box, step)
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return fun(x)

    res = scipy.optimize.minimize(counted, x0, method=_nelder_mead,
                                  options=options)
    assert res.status in (1, 2) and calls < res.nfev


def test_cycles_tell_zeros_and_nans_apart():
    # states that differ only in the sign of a zero, or in a NaN's
    # payload, are different states; the same bits again are a repeat
    nan = math.nan
    other_nan = struct.unpack("d", struct.pack("Q", 0x7FF8000000000001))[0]
    for first, second in [
            (([[0.0], [1.0]], [2.0, 3.0]), ([[-0.0], [1.0]], [2.0, 3.0])),
            (([[1.0], [2.0]], [0.0, 3.0]), ([[1.0], [2.0]], [-0.0, 3.0])),
            (([[1.0], [2.0]], [0.0, nan]), ([[1.0], [2.0]], [0.0, other_nan])),
    ]:
        cycles = _Cycles(1)
        assert cycles.see(*first, 1, 2) is None  # saved
        assert cycles.see(*second, 2, 3) is None
        assert cycles.see(*first, 3, 5) == (2, 3)
        cycles = _Cycles(1)
        assert cycles.see(*first, 1, 2) is None
        assert cycles.see(*first, 2, 4) == (1, 2)


def test_cycles_report_a_repeat_of_the_previous_state_with_period_1():
    # Brent's saved state is the one of iteration 3 here, so only the
    # comparison with the previous iteration sees the repeat at 5
    states = [([[float(k)], [9.0]], [float(k), 9.0]) for k in range(4)]
    cycles = _Cycles(1)
    for nit, state in enumerate(states, start=1):
        assert cycles.see(*state, nit, 3 * nit) is None
    assert cycles.see(*states[-1], 5, 17) == (1, 5)
    # the previous state is kept apart from the list passed, whose items
    # the loop replaces: a new worst vertex with the old value is new
    sim, fsim = [[0.0], [1.0]], [5.0, 5.0]
    cycles = _Cycles(1)
    assert cycles.see(sim, fsim, 1, 2) is None
    sim[-1] = [2.0]
    assert cycles.see(sim, fsim, 2, 3) is None


def _scalar_objective(kind, centre, step):
    """A bowl around ``centre`` (quadratic, or ``|x - centre|``) on a
    staircase of height ``step`` (0 for none); ``"inf"`` and ``"nan"``
    return that value right of the centre, ``"constant"`` is flat."""

    def fun(x):
        x = float(x)
        if kind == "constant":
            return 2.5
        if kind in ("inf", "nan") and x > centre:
            return math.inf if kind == "inf" else math.nan
        e = x - centre
        s = abs(e) if kind == "abs" else e * e
        return math.floor(s / step) * step if step else s

    return fun


@st.composite
def _scalar_problems(draw):
    lower = draw(st.floats(-5.0, 5.0))
    upper = lower + draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
    centre = draw(st.floats(-6.0, 6.0))
    kind = draw(st.sampled_from(["square", "abs", "inf", "nan", "constant"]))
    step = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.5]))
    xatol = draw(st.sampled_from([None, 1e-8, 1e-12, 0.3]))
    options = {} if xatol is None else {"xatol": xatol}
    maxiter = draw(st.one_of(st.none(), st.integers(1, 40)))
    if maxiter is not None:
        options["maxiter"] = maxiter
    return (lower, upper), _scalar_objective(kind, centre, step), options


def _scalar_summary(res):
    return (np.float64(res.x).tobytes(), np.float64(res.fun).tobytes(),
            int(res.nfev), int(res.nit), int(res.status))


@settings(max_examples=300)
@given(problem=_scalar_problems())
def test_brent_port_matches_scipy_bit_for_bit(problem):
    bounds, fun, options = problem
    ours = scipy.optimize.minimize_scalar(fun, bounds=bounds,
                                          method=_bounded_brent,
                                          options=options)
    with np.errstate(invalid="ignore"):
        theirs = scipy.optimize.minimize_scalar(fun, bounds=bounds,
                                                method="bounded",
                                                options=options)
    assert _scalar_summary(ours) == _scalar_summary(theirs)
    assert ours.success == theirs.success


def _without_scipy_optimize(seam, *args):
    """``seam(*args)`` with ``scipy.optimize`` hidden from ``sys.modules``,
    so the seam calls its port directly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(sys.modules, "scipy.optimize")
        return seam(*args)


@settings(max_examples=100)
@given(problem=_problems(), options=_OPTIONS,
       scalar_problem=_scalar_problems())
def test_seams_give_the_same_bits_with_and_without_scipy_optimize(
        problem, options, scalar_problem):
    x0, centre, box, step = problem
    fun = _boxed_objective(centre, box, step)
    direct = _without_scipy_optimize(_numerics.minimize, fun, x0, options)
    through = _numerics.minimize(fun, x0, options)
    assert _summary(direct) == _summary(through)
    assert direct.success is through.success

    bounds, fun, options = scalar_problem
    direct = _without_scipy_optimize(_numerics.minimize_scalar, fun, bounds,
                                     options)
    through = _numerics.minimize_scalar(fun, bounds, options)
    assert _scalar_summary(direct) == _scalar_summary(through)
    assert direct.success is through.success


def test_port_passes_args_and_fresh_lists():
    for x0 in ([1.0], [1.0, 2.0]):  # the general loop, the 2-D loop
        seen = []

        def fun(x, shift):
            seen.append(x)
            assert type(x) is list and all(type(v) is float for v in x)
            x.append(0.0)  # a vertex the objective changes stays unchanged
            return (x[0] - shift) ** 2

        res = _nelder_mead(fun, np.array(x0), args=(0.25,), maxfev=10)
        assert res.nfev == len(seen) == 10 and res.status == 1
        assert res.x.shape == (len(x0),)
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


def test_capped_fit_counts_repeated_cycles_without_calling(monkeypatch):
    # a damped fit that ends at the 4000-iteration cap: its simplex stops
    # changing at iteration 1,387 and the repeat is counted from the next
    # one, so the objective runs far fewer times than nfev counts, while x,
    # fun, nit, nfev and status stay scipy's
    original = scipy.optimize.minimize
    seen = []

    def minimize(fun, x0, **kwargs):
        calls = 0

        def counted(x, *a):
            nonlocal calls
            calls += 1
            return fun(x, *a)

        res = original(counted, x0, **kwargs)
        theirs = original(fun, x0, **{**kwargs, "method": "Nelder-Mead"})
        seen.append((res, calls, theirs))
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    HoltForecaster(damped=True).fit(
        seasonal_series(n=45, sp=1, amp=0.0, noise=0.1, seed=55))
    [(res, calls, theirs)] = seen
    assert _summary(res) == _summary(theirs)
    assert (res.nit, res.nfev, res.status) == (4000, 20649, 2)
    assert calls == 2365


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
