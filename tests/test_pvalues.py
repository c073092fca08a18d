"""The significance tests' p-values against ``scipy.stats``, bit for bit.

``ufcast.evaluation`` takes its t, chi-square and normal tails from
``scipy.special`` (``stdtr``, ``chdtrc``, ``ndtr``) rather than importing
``scipy.stats``; these properties pin each p-value to the ``scipy.stats``
expression it replaced: the paired t-test's two-sided tail, the Friedman
tail on rank matrices (a negative statistic included, where ``chdtrc`` is
nan but the chi-square tail is 1) and the normal approximation of the
Wilcoxon test above n = 25.
"""

import numpy as np
import pytest
from scipy import stats

from ufcast.evaluation import (
    RankMatrix,
    friedman_test,
    paired_t_test,
    wilcoxon_signed_rank,
)
from ufcast.exceptions import ZeroVarianceError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, reject  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402


def _same_bits(got, expected):
    return np.float64(got).tobytes() == np.float64(expected).tobytes()


def _samples(min_size, max_size):
    return st.integers(min_size, max_size).flatmap(lambda n: st.tuples(
        *(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6))
          for _ in range(2))))


@given(_samples(2, 40))
@example((np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0])))
@example((np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, 1.0, 2.0, 3.001])))
@example((np.arange(30.0), np.arange(30.0) + 1e-3 * np.sin(np.arange(30.0))))
def test_paired_t_p_matches_t_sf(samples):
    a, b = samples
    try:
        t, p = paired_t_test(a, b)
    except ZeroVarianceError:
        reject()
    expected = 2 * stats.t.sf(abs(t), a.size - 1)
    assert _same_bits(p, expected), (t, p, expected)


def _matrices(elements):
    shapes = st.tuples(st.integers(2, 12), st.integers(2, 8))
    return shapes.flatmap(lambda shape: hnp.arrays(
        np.float64, shape, elements=elements(shape[1])))


def _friedman(ranks):
    n, k = ranks.shape
    return friedman_test(RankMatrix(models=list(range(k)),
                                    series=list(range(n)), ranks=ranks))


# half-integers in [1, k] with free row sums, so that the statistic is
# also negative now and then
@given(_matrices(lambda k: st.sampled_from(
    [0.5 * j for j in range(2, 2 * k + 1)])))
@example(np.tile([1.0, 2.0, 3.0], (10, 1)))
@example(np.full((6, 4), 2.5))
def test_friedman_p_matches_chi2_sf(ranks):
    chi2, p = _friedman(ranks)
    expected = stats.chi2.sf(chi2, ranks.shape[1] - 1)
    assert _same_bits(p, expected), (chi2, p, expected)


# tie-heavy scores, ranked per series as the runner ranks them
@given(_matrices(lambda k: st.sampled_from([0.0, 1.0, 2.0])))
def test_friedman_on_ranked_scores_matches_chi2_sf(scores):
    ranks = stats.rankdata(scores, method="average", axis=1)
    chi2, p = _friedman(ranks)
    assert _same_bits(p, stats.chi2.sf(chi2, scores.shape[1] - 1))


def test_friedman_negative_statistic_gives_one():
    chi2, p = _friedman(np.ones((4, 3)))
    assert chi2 == -36.0
    assert p == 1.0 == stats.chi2.sf(chi2, 2)


def _normal_z(d):
    """The tie-corrected normal statistic of the Wilcoxon test."""
    d = d[d != 0.0]
    n = d.size
    ranks = stats.rankdata(np.abs(d), method="average")
    w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(counts ** 3 - counts)) / 48.0
    return (w - n * (n + 1) / 4.0) / np.sqrt(var)


# few distinct magnitudes, so that most draws tie; no zeros
_DIFFERENCES = st.one_of(
    st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
    st.floats(0.001, 1e3), st.floats(-1e3, -0.001))


@given(hnp.arrays(np.float64, st.integers(26, 80), elements=_DIFFERENCES))
@example(np.arange(1.0, 31.0))
@example(np.where(np.arange(40) % 2 == 0, 1.0, -1.0))
def test_wilcoxon_normal_p_matches_norm_cdf(d):
    w, p = wilcoxon_signed_rank(d, np.zeros_like(d))
    expected = min(1.0, 2 * stats.norm.cdf(_normal_z(d)))
    assert _same_bits(p, expected), (w, p, expected)
