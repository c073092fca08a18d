"""Numerical routines shared by the estimators; the only module of
``ufcast`` that imports scipy, and the only one that computes a value
whose rounding depends on the CPU path.

- **Rounding-sensitive kernels.** Every inner or matrix product,
  convolution, least-squares solve, logarithm and non-integer power of
  the package, whose last bits depend on the BLAS kernel or the SIMD loop
  numpy picks at run time: :func:`lag_products` (autocorrelations),
  :func:`moving_average` (classical decomposition),
  :func:`least_squares`, with :func:`trend_coefficients` on it (Theta's
  line, :class:`~ufcast.forecasters.PolynomialTrendForecaster`,
  :class:`~ufcast.regress.LinearRegressor`), :func:`matvec`, with
  :func:`polyval` on it (the polynomial and linear predictions),
  :func:`log`, :func:`boxcox` and :func:`boxcox_inverse` (Box-Cox), and
  :func:`damped_sums` (the damped trend's forecast).  Each is the
  expression its callers used before, on the same operands, so the same
  bits.  ``tests/test_imports.py`` fails on such an op anywhere else, but
  for the KNN filter of :mod:`ufcast.regress`, whose rounding bound makes
  its output independent of the path.
- **Optimisers.** :func:`_nelder_mead` (Nelder & Mead 1965), which fits
  the smoothing models, and :func:`_bounded_brent` (Brent 1973, ch. 5),
  which fits Box-Cox's exponent, are ports of scipy 1.17's
  ``_minimize_neldermead`` and ``_minimize_scalar_bounded`` on Python
  floats, with scipy's results bit for bit.  Callers reach them through
  :func:`minimize` and :func:`minimize_scalar`, which hand them to
  :func:`scipy.optimize.minimize` and :func:`scipy.optimize.minimize_scalar`
  as ``method``, so a wrapper of those two functions sees every
  minimisation.  The general Nelder-Mead loop skips the whole periods of a
  simplex that repeats bit for bit: on a run that ends at ``maxiter`` or
  ``maxfev``, the objective is called fewer times than ``nfev``, which
  still counts every evaluation scipy makes.  So the objective must be a
  pure function of its argument, as every caller's objective is.
- **Ranks.** :func:`_average_ranks` is ``scipy.stats.rankdata``'s average
  ranking without importing ``scipy.stats``, which costs about a third of a
  second and 20 MiB per interpreter.
- **Tails.** :func:`stdtr`, :func:`chdtrc` and :func:`ndtr` are the
  ``scipy.special`` functions that ``scipy.stats`` itself calls for the t,
  chi-square and normal tails, so p-values are the same bits as there.
  Each imports ``scipy.special`` inside the function: today
  ``scipy.optimize`` loads it anyway, but a run path without
  ``scipy.optimize`` would not.

Every name here is reached as ``_numerics.<name>`` from the calling
module, so patching one attribute of this module sees every call.
"""

from __future__ import annotations

import math
import struct
from itertools import chain

import numpy as np
# Not ``from scipy import optimize``: under CPython 3.11 that form, here,
# made a fresh interpreter's ``import ufcast`` about 0.1 s slower, with
# about 8,000 more page faults (2-vCPU Xeon).  The cost of scipy's import
# depends on the frames beneath it, which the import statement shapes.
import scipy.optimize


# ---------------------------------------------------------------------------
# optimisers
# ---------------------------------------------------------------------------

def minimize(fun, x0, options):
    """Minimise ``fun`` from ``x0`` by :func:`_nelder_mead`, run through
    :func:`scipy.optimize.minimize`."""
    return scipy.optimize.minimize(fun, x0, method=_nelder_mead,
                                   options=options)


def minimize_scalar(fun, bounds, options):
    """Minimise ``fun`` over ``bounds`` by :func:`_bounded_brent`, run
    through :func:`scipy.optimize.minimize_scalar`."""
    return scipy.optimize.minimize_scalar(
        fun, bounds=bounds, method=_bounded_brent, options=options)


class _MaxFevReached(Exception):
    """Raised in place of an objective evaluation past ``maxfev``."""


def _nelder_mead(fun, x0, args=(), xatol=1e-4, fatol=1e-4, maxiter=None,
                 maxfev=None, **unused):
    """scipy's Nelder-Mead on Python floats.

    A port of scipy 1.17's ``_minimize_neldermead`` without bounds and with
    ``adaptive=False``: the same initial simplex, ``maxiter``/``maxfev``
    defaults and cap, convergence test, steps and operand order, so ``x``,
    ``fun``, ``nit``, ``nfev`` and ``status`` equal scipy's bit for bit.
    ``fun(x, *args)`` gets a fresh list of floats and returns a float.  It
    is passed to :func:`scipy.optimize.minimize` as ``method`` by
    :func:`minimize`; scipy adds the keywords collected in ``unused``.

    The dimension picks the loop.  Two parameters (SES and Theta) run
    :func:`_nelder_mead_2d`, which keeps the three vertices in float
    locals; any other size runs :func:`_nelder_mead_nd` on lists, which
    counts the repeats of a cycle instead of evaluating them again.  On a
    run that ends at a cap ``fun`` may then be called fewer times than
    ``nfev``, so it must be a pure function of its argument.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).ravel().tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)

    if maxiter is None and maxfev is None:
        maxiter = maxfev = n * 200
    elif maxiter is None:
        maxiter = n * 200 if maxfev == np.inf else np.inf
    elif maxfev is None:
        maxfev = n * 200 if maxiter == np.inf else np.inf

    fsim = [np.inf] * (n + 1)
    nfev = 0
    for k in range(n + 1):
        if nfev >= maxfev:
            break
        nfev += 1
        fsim[k] = fun(list(sim[k]), *args)

    loop = _nelder_mead_2d if n == 2 else _nelder_mead_nd
    sim, fsim, nit, nfev = loop(fun, args, sim, fsim, nfev, xatol, fatol,
                                maxiter, maxfev)

    status = 1 if nfev >= maxfev else 2 if nit >= maxiter else 0
    return scipy.optimize.OptimizeResult(
        x=np.array(sim[0]), fun=np.min(fsim), nit=nit, nfev=nfev,
        status=status, success=status == 0)


def _nelder_mead_nd(fun, args, sim, fsim, nfev, xatol, fatol, maxiter,
                    maxfev):
    """:func:`_nelder_mead`'s iterations for any dimension, on lists.

    Takes the evaluated initial simplex; returns the final ``(sim, fsim,
    nit, nfev)``.  Vertices are ordered with ``np.argsort`` of their values
    wherever scipy sorts: for four or more values that sort need not be
    stable, and ties (several vertices at inf) are common, so another sort
    would move results.

    An iteration depends only on the ordered simplex, its vertices and
    values, when ``fun`` is pure.  So once that state repeats bit for bit
    (``-0.0`` is not ``0.0``, and NaN payloads differ), every later period
    repeats too, with the same iterations and evaluations.  :class:`_Cycles`
    finds the repeat by comparing each state with the previous one and
    with one saved state; then the whole periods that end by both
    ``maxiter`` and ``maxfev`` are added to ``nit`` and ``nfev`` without
    being run, and the loop runs the rest as before.  A state that repeats
    has failed the convergence test, so only runs that end at a cap are
    shortened: there ``fun`` is called fewer times than ``nfev``, while
    ``nit``, ``nfev``, the result and its status stay scipy's.
    """
    n = len(sim) - 1

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFevReached
        nfev += 1
        return fun(list(x), *args)

    def by_value(sim, fsim):
        order = np.array(fsim).argsort().tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim, fsim = by_value(sim, fsim)
    sim, fsim = by_value(sim, fsim)

    nit = 1
    cycles = _Cycles(n)
    while nfev < maxfev and nit < maxiter:
        repeat = cycles.see(sim, fsim, nit, nfev)
        if repeat is not None:
            # count the whole periods that end by both caps, run the rest
            period, fev = repeat
            k = min((maxiter - nit) // period, (maxfev - nfev) // fev)
            if k < math.inf:  # both caps infinite: loop as scipy does
                nit += int(k) * period
                nfev += int(k) * fev
                if nfev >= maxfev or nit >= maxiter:
                    break
        try:
            best = sim[0]
            if (all(abs(v - b) <= xatol
                    for x in sim[1:] for v, b in zip(x, best))
                    and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
                break

            xbar = best
            for x in sim[1:-1]:
                xbar = [c + v for c, v in zip(xbar, x)]
            xbar = [c / n for c in xbar]
            worst = sim[-1]
            xr = [2 * c - w for c, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:
                    xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    xcc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b)
                                  for b, v in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
            nit += 1
        except _MaxFevReached:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim, fsim, nit, nfev


class _Cycles:
    """Repeats of the ordered simplex of one Nelder-Mead run, compared on
    exact bits: ``-0.0`` is not ``0.0``, and NaN payloads differ.

    :meth:`see` compares each new state with two others, the values first
    and the vertices only when the values match.  The first is the
    previous iteration's state, so a simplex that stops changing (period
    1, the repeat that capped Holt and Damped fits reach) is found at the
    next iteration.  The second is Brent's (Brent, BIT 20, 1980): one saved
    state, moved to the new one whenever ``power`` iterations have passed
    since it was saved, ``power`` then doubling.  A cycle of period ``p``
    that starts at iteration ``m`` is found by about iteration
    ``2 max(m, p) + p``.
    """

    def __init__(self, n):
        self._pack_values = struct.Struct(f"{n + 1}d").pack
        self._pack_vertices = struct.Struct(f"{n * (n + 1)}d").pack
        self._values = self._vertices = b""
        self._nit = self._nfev = 0
        self._power = 1
        # the previous state: packed values, vertices, nit and nfev.  The
        # loop replaces items of the list it passes, never a vertex's
        # coordinates, so a shallow copy of that list keeps the vertices.
        self._last = (b"", [], 0, 0)

    def _pack(self, sim):
        return self._pack_vertices(*chain.from_iterable(sim))

    def see(self, sim, fsim, nit, nfev):
        """The ``(iterations, evaluations)`` since an earlier state, when
        ``(sim, fsim)`` at iteration ``nit`` after ``nfev`` evaluations is
        that state again; else None."""
        values = self._pack_values(*fsim)
        last_values, last_sim, last_nit, last_nfev = self._last
        self._last = (values, list(sim), nit, nfev)
        vertices = None
        if values == last_values:
            vertices = self._pack(sim)
            if vertices == self._pack(last_sim):
                return nit - last_nit, nfev - last_nfev
        if values == self._values:
            if vertices is None:
                vertices = self._pack(sim)
            if vertices == self._vertices:
                return nit - self._nit, nfev - self._nfev
        if nit - self._nit == self._power:
            self._values = values
            self._vertices = self._pack(sim) if vertices is None else vertices
            self._nit, self._nfev = nit, nfev
            self._power *= 2
        return None


def _nelder_mead_2d(fun, args, sim, fsim, nfev, xatol, fatol, maxiter,
                    maxfev):
    """:func:`_nelder_mead_nd` for two parameters, on float locals.

    The vertices are ``a`` (best), ``b`` and ``c`` (worst), each an x, a y
    and a value.  Every step is the general loop's expression in the same
    operand order, and an evaluation past ``maxfev`` ends the loop where
    the general loop's exception would.  Vertices are ordered by a stable
    insertion that puts nan last, which for three values is the order
    ``np.argsort`` gives.  After a step that replaces only the worst
    vertex, inserting it is the whole sort; the initial simplex, a shrink
    and a step cut by ``maxfev`` sort all three (scipy sorts the initial
    simplex twice; the second sort is then a no-op).
    """
    (ax, ay), (bx, by), (cx, cy) = sim
    fa, fb, fc = fsim
    nit = 1
    full = True  # order all three vertices, not only the worst
    while True:
        if full and (fb < fa or (fa != fa and fb == fb)):
            ax, ay, fa, bx, by, fb = bx, by, fb, ax, ay, fa
        if fc < fb or (fb != fb and fc == fc):
            if fc < fa or (fa != fa and fc == fc):
                ax, ay, fa, bx, by, fb, cx, cy, fc = (
                    cx, cy, fc, ax, ay, fa, bx, by, fb)
            else:
                bx, by, fb, cx, cy, fc = cx, cy, fc, bx, by, fb
        if (not (nfev < maxfev and nit < maxiter)
                or (abs(bx - ax) <= xatol and abs(by - ay) <= xatol
                    and abs(cx - ax) <= xatol and abs(cy - ay) <= xatol
                    and abs(fa - fb) <= fatol and abs(fa - fc) <= fatol)):
            break
        # each "continue" below is a cut by maxfev, with ``full`` set: the
        # sort at the top orders all three vertices, then the loop ends
        full = False

        mx = (ax + bx) / 2
        my = (ay + by) / 2
        rx = 2 * mx - cx
        ry = 2 * my - cy
        nfev += 1
        fr = fun([rx, ry], *args)
        if fr < fa:
            if nfev >= maxfev:
                full = True
                continue
            ex = 3 * mx - 2 * cx
            ey = 3 * my - 2 * cy
            nfev += 1
            fe = fun([ex, ey], *args)
            if fe < fr:
                cx, cy, fc = ex, ey, fe
            else:
                cx, cy, fc = rx, ry, fr
        elif fr < fb:
            cx, cy, fc = rx, ry, fr
        else:
            if nfev >= maxfev:
                full = True
                continue
            if fr < fc:
                kx = 1.5 * mx - 0.5 * cx
                ky = 1.5 * my - 0.5 * cy
                nfev += 1
                fk = fun([kx, ky], *args)
                full = not fk <= fr
            else:
                kx = 0.5 * mx + 0.5 * cx
                ky = 0.5 * my + 0.5 * cy
                nfev += 1
                fk = fun([kx, ky], *args)
                full = not fk < fc
            if full:  # shrink towards the best vertex
                bx = ax + 0.5 * (bx - ax)
                by = ay + 0.5 * (by - ay)
                if nfev >= maxfev:
                    continue
                nfev += 1
                fb = fun([bx, by], *args)
                cx = ax + 0.5 * (cx - ax)
                cy = ay + 0.5 * (cy - ay)
                if nfev >= maxfev:
                    continue
                nfev += 1
                fc = fun([cx, cy], *args)
            else:
                cx, cy, fc = kx, ky, fk
        nit += 1
    return [[ax, ay], [bx, by], [cx, cy]], [fa, fb, fc], nit, nfev


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _unit_sign(v):
    """``np.sign(v) + (v == 0)``: 1.0 for v >= 0 (either zero), -1.0 below,
    nan for nan."""
    return 1.0 if v >= 0 else -1.0 if v < 0 else math.nan


def _bounded_brent(func, bounds, args=(), xatol=1e-5, maxiter=500,
                   **unused):
    """scipy's bounded Brent minimiser on Python floats.

    A port of scipy 1.17's ``_minimize_scalar_bounded`` (Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 5): the same golden
    section and parabolic steps, tolerances, ``maxiter`` cap (counted in
    function evaluations) and operand order, with ``abs`` and conditionals
    in place of ``np.abs``, ``np.sign`` and ``np.maximum`` (nan propagates
    as there), so ``x``, ``fun``, ``nfev``, ``nit`` and ``status`` equal
    scipy's bit for bit.  The bounds are taken as given: callers check
    them.  It is passed to :func:`scipy.optimize.minimize_scalar` as
    ``method`` by :func:`minimize_scalar`; scipy adds the keywords collected
    in ``unused``.
    """
    a, b = bounds
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x, *args)
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    flag = 0
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        step = abs(rat)
        if not (step >= tol1 or step != step):  # np.maximum(step, tol1)
            step = tol1
        x = xf + _unit_sign(rat) * step
        fu = func(x, *args)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxiter:
            flag = 1
            break

    if xf != xf or fx != fx or fu != fu:
        flag = 2
    return scipy.optimize.OptimizeResult(x=xf, fun=fx, nfev=num, nit=num,
                                         status=flag, success=flag == 0)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def _average_ranks(values) -> np.ndarray:
    """Ranks along the last axis, 1 for the smallest; ties share the mean
    of their 1-based positions.

    The same bits as ``scipy.stats.rankdata(values, method="average",
    axis=-1)``: a stable sort per row, then each run of equal values gets
    ``0.5 * (first + last)`` of its positions, an exact half-integer.  A
    row holding a NaN comes out all NaN, as under scipy's ``propagate``.
    """
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    # a run starts each row and wherever the sorted value changes
    # (-0.0 ties 0.0, inf ties inf)
    starts = np.ones(x.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    run_start = np.flatnonzero(starts)
    run_length = np.diff(run_start, append=x.size)
    first = run_start % x.shape[-1] + 1
    last = first + run_length - 1
    ranks = np.empty(x.shape)
    np.put_along_axis(
        ranks, order,
        np.repeat(0.5 * (first + last), run_length).reshape(x.shape), axis=-1)
    ranks[np.isnan(x).any(axis=-1)] = np.nan
    return ranks


# ---------------------------------------------------------------------------
# distribution tails
# ---------------------------------------------------------------------------

def stdtr(df, t) -> float:
    """Student t distribution function with ``df`` degrees of freedom."""
    from scipy import special
    return float(special.stdtr(df, t))


def chdtrc(df, x) -> float:
    """Chi-square upper tail with ``df`` degrees of freedom.

    ``special.chdtrc`` is nan for a negative statistic, where
    ``scipy.stats.chi2.sf`` gives 1 (an all-ones rank matrix has
    chi-square -36 on 3 models and 4 series); the tail there is 1.
    """
    if x < 0:
        return 1.0
    from scipy import special
    return float(special.chdtrc(df, x))


def ndtr(x) -> float:
    """Standard normal distribution function."""
    from scipy import special
    return float(special.ndtr(x))


# ---------------------------------------------------------------------------
# rounding-sensitive kernels
# ---------------------------------------------------------------------------
#
# The path is picked by the CPU and by ``OPENBLAS_CORETYPE`` and
# ``NPY_DISABLE_CPU_FEATURES`` (``python -m tests.cpu_paths`` runs each).
# Elementwise ``+ - * /``, ``sqrt`` and ``.sum()`` round the same on every
# path tried, so they stay with their callers.

def lag_products(x, max_lag) -> np.ndarray:
    """The lagged inner products ``x[k:] . x[:n - k]`` of the 1-d array
    ``x``, for k = 0 .. ``max_lag``."""
    n = x.size
    return np.array([np.dot(x[k:], x[:n - k]) for k in range(max_lag + 1)])


def moving_average(x, sp) -> np.ndarray:
    """The centred moving average of window ``sp`` over ``x``, where the
    whole window lies in ``x``: for even ``sp`` the 2 x sp average, with
    half weights at its ends.  Entry ``i`` is centred on ``x[i + sp // 2]``."""
    if sp % 2 == 0:
        weights = np.full(sp + 1, 1.0 / sp)
        weights[0] = weights[-1] = 0.5 / sp
    else:
        weights = np.full(sp, 1.0 / sp)
    return np.convolve(x, weights, mode="valid")


def least_squares(a, b) -> np.ndarray:
    """The minimum-norm least-squares solution ``coef`` of ``a @ coef = b``
    (LAPACK's SVD-based ``gelsd``)."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


def matvec(a, x):
    """``a @ x``: the matrix-vector product, or the inner product when ``a``
    is 1-d."""
    return a @ x


def trend_coefficients(values, degree) -> np.ndarray:
    """Coefficients, constant term first, of the least-squares polynomial
    of ``degree`` through ``values`` in the 0-based position."""
    design = np.vander(np.arange(len(values), dtype=float), degree + 1,
                       increasing=True)
    return least_squares(design, values)


def polyval(coef, positions) -> np.ndarray:
    """The polynomial with coefficients ``coef``, constant term first, at
    ``positions`` (an array)."""
    return matvec(np.vander(positions.astype(float), len(coef),
                            increasing=True), coef)


def log(x):
    """The natural logarithm, elementwise: ``np.log(x)``."""
    return np.log(x)


def boxcox(x, lam):
    """The Box-Cox transform ``(x**lam - 1) / lam`` of positive ``x``."""
    return (x ** lam - 1.0) / lam


def boxcox_inverse(z, lam):
    """The inverse Box-Cox transform ``(lam * z + 1)**(1 / lam)``; NaN where
    ``lam * z + 1`` is negative."""
    return (lam * z + 1.0) ** (1.0 / lam)


def damped_sums(phi, h) -> np.ndarray:
    """``phi + phi**2 + ... + phi**j`` for j = 1 .. ``h``."""
    return np.cumsum(phi ** np.arange(1, h + 1))
