"""The in-package average ranking against ``scipy.stats.rankdata``.

``ufcast._numerics._average_ranks`` ranks every run's aggregate and the
Wilcoxon test's absolute differences without importing ``scipy.stats``;
these properties pin it to scipy's ``method="average"`` byte for byte, on
1-D and 2-D input, tie-heavy values (signed zeros, infinities, repeated
small integers), rows holding NaN and empty shapes.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ufcast._numerics import _average_ranks

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

# few distinct values, so that most draws tie; NaN now and then
_TIE_HEAVY = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 1.0, 2.0, 3.0, -1.0, -2.0])
_VALUES = st.one_of(
    _TIE_HEAVY, _TIE_HEAVY, _TIE_HEAVY,
    st.floats(allow_nan=False, width=64),
    st.just(math.nan),
)


def _arrays(dims):
    return hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=dims, max_dims=dims, min_side=0, max_side=9),
        elements=_VALUES,
    )


def _assert_matches_scipy(x):
    got = _average_ranks(x)
    expected = stats.rankdata(x, method="average", axis=-1)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape == x.shape
    assert got.tobytes() == expected.tobytes(), (x, got, expected)
    # a row holding a NaN comes out all NaN, any other row all finite
    has_nan = np.isnan(x).any(axis=-1)
    assert np.isnan(got[has_nan]).all()
    assert np.isfinite(got[~has_nan]).all()


@given(_arrays(1))
@example(np.empty(0))
@example(np.array([0.0, -0.0, 0.0]))
@example(np.array([math.inf, 1.0, -math.inf, math.inf, -math.inf]))
@example(np.array([2.0, math.nan, 1.0]))
def test_vector_matches_rankdata(x):
    _assert_matches_scipy(x)


@given(_arrays(2))
@example(np.empty((0, 0)))
@example(np.empty((3, 0)))
@example(np.empty((0, 4)))
@example(np.array([[1.0, 1.0, 2.0], [math.nan, 0.0, 0.0], [-0.0, 0.0, 5.0]]))
def test_matrix_matches_rankdata_per_row(x):
    _assert_matches_scipy(x)
