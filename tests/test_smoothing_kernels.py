"""Property tests for the exponential-smoothing SSE kernels.

Equality here is bit equality: two floats match when their hex forms
match, and any two nans match (a nan's sign and payload carry no meaning
for the optimiser, which maps every non-finite SSE to inf).
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ufcast import forecasters  # noqa: E402
from ufcast.forecasters import (  # noqa: E402
    _holt_sse_grid,
    _holt_sse_scalar,
    _ses_sse_scalar,
    _smoothing_path,
)


def _bits(values):
    return ["nan" if v != v else float(v).hex() for v in np.ravel(values)]


def _bits_any_zero(values):
    """_bits with +0.0 and -0.0 counted as the same value."""
    return _bits([0.0 if v == 0 else v for v in np.ravel(values)])


def _reference_ses_levels(values, alpha, l0):
    """The level recursion SES and Theta ran before the shared path kernel;
    levels[t] is the level after consuming values[t]."""
    levels = np.empty(values.size, dtype=float)
    level = l0
    for t, x in enumerate(values):
        level += alpha * (x - level)
        levels[t] = level
    return levels


def _reference_holt_path(values, a, b, p, level, trend):
    """The fitted/level/trend recursion Holt ran before the shared path
    kernel."""
    fitted = np.empty(values.size)
    levels = np.empty(values.size)
    trends = np.empty(values.size)
    for t, x in enumerate(values):
        pred = level + p * trend
        fitted[t] = pred
        prev_level = level
        level = pred + a * (x - pred)
        trend = b * (level - prev_level) + (1 - b) * p * trend
        levels[t] = level
        trends[t] = trend
    return fitted, levels, trends


def _reference_holt_sse(values, alphas, betas, phis, l0, b0):
    """The plain allocating recursion the in-place grid kernel replaced."""
    shape = np.broadcast(alphas, betas, phis).shape
    level = np.full(shape, float(l0))
    trend = np.full(shape, float(b0))
    sse = np.zeros(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in values:
            pred = level + phis * trend
            e = x - pred
            sse += e * e
            prev_level = level
            level = pred + alphas * e
            trend = betas * (level - prev_level) + (1 - betas) * phis * trend
    return sse


unit = st.floats(0.0, 1.0)
damping = st.floats(1e-6, 1.0)
# wide enough that some recursions overflow to inf and then to nan
wide = st.floats(-1e200, 1e200, allow_nan=False)
series = st.lists(wide, min_size=1, max_size=40)
moderate = st.floats(-1e6, 1e6, allow_nan=False)


@given(series, unit, unit, damping, wide, wide)
@example([3.0, 1e200, -1e200, 5.0], 0.5, 0.5, 0.9, 0.0, 0.0)
def test_scalar_matches_one_candidate_grid(values, alpha, beta, phi, l0, b0):
    grid = _holt_sse_grid(np.array(values), np.array([alpha]),
                          np.array([beta]), np.array([phi]), l0, b0)
    scalar = _holt_sse_scalar(values, alpha, beta, phi, l0, b0)
    assert _bits([scalar]) == _bits(grid)


@given(st.data(), series, wide, wide)
def test_blocked_grid_matches_scalar_per_candidate(data, values, l0, b0):
    """With a small block, candidate counts just below, at and past a block
    edge (and past two) give each candidate the scalar kernel's SSE."""
    block = data.draw(st.integers(2, 5))
    count = data.draw(st.sampled_from(
        [block - 1, block, block + 1, 2 * block + 1]))
    candidates = data.draw(st.lists(st.tuples(unit, unit, damping),
                                    min_size=count, max_size=count))
    alphas, betas, phis = (np.array(c) for c in zip(*candidates))
    with mock.patch.object(forecasters, "_GRID_BLOCK", block):
        got = _holt_sse_grid(values, alphas, betas, phis, l0, b0)
    want = [_holt_sse_scalar(values, a, b, p, l0, b0)
            for a, b, p in candidates]
    assert _bits(got) == _bits(want)


def test_scalar_and_grid_agree_past_overflow():
    values = [1e200, -1e200, 1e200, -1e200]
    scalar = _holt_sse_scalar(values, 1.0, 1.0, 1.0, 1e200, 1e200)
    grid = _holt_sse_grid(np.array(values), np.array([1.0]), np.array([1.0]),
                          np.array([1.0]), 1e200, 1e200)
    assert not np.isfinite(scalar)
    assert _bits([scalar]) == _bits(grid)


@given(series, st.lists(st.tuples(unit, unit, damping), min_size=1,
                        max_size=12), wide, wide)
def test_inplace_grid_matches_reference(values, candidates, l0, b0):
    alphas, betas, phis = (np.array(c) for c in zip(*candidates))
    values = np.array(values)
    got = _holt_sse_grid(values, alphas, betas, phis, l0, b0)
    want = _reference_holt_sse(values, alphas, betas, phis, l0, b0)
    assert _bits(got) == _bits(want)


def test_inplace_grid_matches_reference_on_damped_grid():
    grid = np.linspace(0.01, 0.99, 50)
    aa, bb, pp = (g.ravel() for g in np.meshgrid(grid, grid, grid,
                                                 indexing="ij"))
    values = 50 + np.cumsum(np.random.default_rng(3).normal(0, 2, 40))
    got = _holt_sse_grid(values, aa, bb, pp, values[0], 0.3)
    want = _reference_holt_sse(values, aa, bb, pp, values[0], 0.3)
    assert _bits(got) == _bits(want)


@given(st.lists(moderate, min_size=1, max_size=40),
       st.lists(unit, min_size=1, max_size=12), moderate)
def test_ses_grid_is_holt_without_trend(values, alphas, l0):
    """SES is Holt with beta=0, phi=1 and a zero initial trend, bit for bit
    on finite inputs, alpha by alpha as SES's grid runs it; the kernels stay
    separate only for speed."""
    ses = [_ses_sse_scalar(values, a, l0) for a in alphas]
    alphas = np.array(alphas)
    holt = _holt_sse_grid(values, alphas, np.zeros_like(alphas),
                          np.ones_like(alphas), l0, 0.0)
    assert _bits(ses) == _bits(holt)


@given(st.lists(moderate, min_size=1, max_size=40), unit, moderate)
@example([-0.0, 0.0, -0.0], 0.5, -0.0)
def test_path_is_the_ses_level_recursion(values, alpha, l0):
    """SES through the path kernel (beta=0, phi=1, zero trend) reproduces
    the level recursion; only the sign of a zero may differ."""
    fitted, level, trend, sse = _smoothing_path(values, alpha, 0.0, 1.0, l0,
                                                0.0)
    levels = _reference_ses_levels(np.array(values), alpha, l0)
    assume(np.all(np.isfinite(levels)))
    assert _bits_any_zero(fitted) == _bits_any_zero(
        np.concatenate([[l0], levels[:-1]]))
    assert _bits_any_zero([level]) == _bits_any_zero(levels[-1:])
    assert trend == 0.0
    assert _bits([sse]) == _bits([_ses_sse_scalar(values, alpha, l0)])


@given(st.lists(moderate, min_size=1, max_size=40), unit, unit, damping,
       moderate, moderate)
def test_path_is_the_holt_recursion(values, alpha, beta, phi, l0, b0):
    fitted, level, trend, sse = _smoothing_path(values, alpha, beta, phi, l0,
                                                b0)
    ref_fitted, ref_levels, ref_trends = _reference_holt_path(
        np.array(values), alpha, beta, phi, l0, b0)
    assume(np.isfinite(sse))
    assert _bits(fitted) == _bits(ref_fitted)
    assert _bits([level, trend]) == _bits([ref_levels[-1], ref_trends[-1]])
    assert _bits([sse]) == _bits(
        [_holt_sse_scalar(values, alpha, beta, phi, l0, b0)])
