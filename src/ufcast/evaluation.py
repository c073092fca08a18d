"""Forecast-accuracy metrics and multiple-comparison significance tests.

Metrics: symmetric MAPE, seasonal-naive-scaled MASE (with both published
scaling conventions behind a flag), and the overall weighted average (OWA)
of sMAPE and MASE ratios against a reference model.

Tests: paired t-test, Friedman rank test, post-hoc Nemenyi critical
differences with grouping, Wilcoxon signed-rank (exact for small n) and
the Holm step-down correction.  All functions are pure.

Average ranks and the t, chi-square and normal tail probabilities come
from :mod:`ufcast._numerics`, with the bits of ``scipy.stats`` but without
importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _numerics
from .exceptions import (
    AllZeroDifferencesError,
    DegenerateInputError,
    IncompleteGridError,
    LengthMismatchError,
    NonFiniteInputError,
    SeriesMismatchError,
    UnsupportedAlphaError,
    ZeroDenominatorError,
    ZeroVarianceError,
)

__all__ = [
    "smape",
    "mase",
    "MASE_DENOMINATORS",
    "EvalRecord",
    "owa",
    "RankMatrix",
    "rank_models",
    "mean_ranks",
    "paired_t_test",
    "friedman_test",
    "nemenyi_critical_difference",
    "nemenyi_groups",
    "critical_difference_report",
    "wilcoxon_signed_rank",
    "holm_adjust",
]


# ---------------------------------------------------------------------------
# accuracy metrics
# ---------------------------------------------------------------------------

def _paired(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=float).reshape(-1)
    if y_true.size != y_pred.size:
        raise LengthMismatchError(
            f"{y_true.size} actuals vs {y_pred.size} predictions"
        )
    if y_true.size == 0:
        raise LengthMismatchError("empty input")
    return y_true, y_pred


def smape(y_true, y_pred) -> float:
    """Symmetric mean absolute percentage error, in [0, 200].

    ``(200 / H) * sum(|y - yhat| / (|y| + |yhat|))``; a term with zero
    denominator (both values zero) contributes zero, so a perfect forecast
    always scores 0.
    """
    y_true, y_pred = _paired(y_true, y_pred)
    denom = np.abs(y_true) + np.abs(y_pred)
    diff = np.abs(y_true - y_pred)
    terms = np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)
    return float(200.0 * terms.mean())


MASE_DENOMINATORS = ("as_formula", "train_only")


def mase(y_true, y_pred, y_train, sp: int = 1,
         denominator: str = "as_formula") -> float:
    """Mean absolute error scaled by the seasonal-naive in-sample error.

    ``denominator="as_formula"`` scales by the mean absolute seasonal
    difference over the concatenation of training and test actuals
    (T + H - sp terms); ``"train_only"`` restricts the scaling to the
    training series (T - sp terms), which is the convention behind the
    published M4 numbers.
    """
    y_true, y_pred = _paired(y_true, y_pred)
    y_train = np.asarray(y_train, dtype=float).reshape(-1)
    if denominator not in MASE_DENOMINATORS:
        raise ValueError(f"unknown denominator convention {denominator!r}")
    full = y_train
    if denominator == "as_formula":
        full = np.concatenate([y_train, y_true])
    if full.size <= sp:
        raise ZeroDenominatorError(
            f"need more than sp={sp} scaling observations, got {full.size}"
        )
    scale = np.abs(full[sp:] - full[:-sp]).mean()
    if scale == 0.0:
        raise ZeroDenominatorError("seasonal-naive scaling error is zero")
    return float(np.abs(y_true - y_pred).mean() / scale)


@dataclass(frozen=True)
class EvalRecord:
    """Per-series evaluation outcome for one model."""

    series_id: str
    model: str
    smape: float
    mase: float
    runtime_s: float = 0.0
    dataset: str = ""


def owa(records, reference_records) -> float:
    """Overall weighted average against a reference model (usually Naive2).

    Half the sum of the mean-sMAPE ratio and the mean-MASE ratio, both
    computed over the same series set.  A model scored against itself is
    exactly 1.
    """
    own = {r.series_id: r for r in records}
    ref = {r.series_id: r for r in reference_records}
    if len(own) != len(records) or len(ref) != len(reference_records):
        raise SeriesMismatchError("duplicate series ids in records")
    if set(own) != set(ref):
        raise SeriesMismatchError("record collections cover different series")
    ids = sorted(own)
    ratios = []
    for metric in ("smape", "mase"):
        num = float(np.mean([getattr(own[i], metric) for i in ids]))
        den = float(np.mean([getattr(ref[i], metric) for i in ids]))
        if den == 0.0:
            if num == 0.0:
                ratios.append(1.0)  # both perfect: parity
                continue
            raise ZeroDenominatorError(f"reference mean {metric} is zero")
        ratios.append(num / den)
    return float(0.5 * (ratios[0] + ratios[1]))


# ---------------------------------------------------------------------------
# rank machinery
# ---------------------------------------------------------------------------

@dataclass
class RankMatrix:
    """Per-series model ranks (ascending metric, ties averaged)."""

    models: list
    series: list
    ranks: np.ndarray = field(repr=False)


def rank_models(records, metric: str = "smape") -> RankMatrix:
    """Rank every model on every series; lower metric is rank 1.

    Raises IncompleteGridError when some (model, series) cell is missing.
    """
    models = []
    scores = {}
    series_ids = set()
    for r in records:
        if r.model not in models:
            models.append(r.model)
        series_ids.add(r.series_id)
        scores[(r.model, r.series_id)] = getattr(r, metric)
    series = sorted(series_ids)
    missing = [
        (m, s) for m in models for s in series if (m, s) not in scores
    ]
    if missing:
        raise IncompleteGridError(
            f"{len(missing)} missing (model, series) cells, e.g. {missing[0]}"
        )
    table = np.array([scores[(m, s)] for s in series for m in models],
                     dtype=float).reshape(len(series), len(models))
    return RankMatrix(models, series, _numerics._average_ranks(table))


def mean_ranks(rank_matrix: RankMatrix) -> np.ndarray:
    return rank_matrix.ranks.mean(axis=0)


# ---------------------------------------------------------------------------
# significance tests
# ---------------------------------------------------------------------------

def paired_t_test(a, b) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t, p).

    Raises ZeroVarianceError when all differences are equal (including the
    identical-samples case), rather than reporting a degenerate p-value,
    and NonFiniteInputError when a paired difference is NaN or infinite.
    """
    a, b = _paired(a, b)
    if a.size < 2:
        raise DegenerateInputError("paired t-test needs n >= 2")
    d = a - b
    if not np.isfinite(d).all():
        raise NonFiniteInputError("a paired difference is not finite")
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise ZeroVarianceError("differences have zero variance")
    t = float(d.mean() / (sd / np.sqrt(d.size)))
    return t, 2.0 * _numerics.stdtr(d.size - 1, -abs(t))


def friedman_test(rank_matrix: RankMatrix) -> tuple[float, float]:
    """Friedman chi-square test on a rank matrix; returns (chi2, p).

    ``chi2 = 12 N / (k (k+1)) * (sum_j Rbar_j^2 - k (k+1)^2 / 4)`` with p
    from the chi-square distribution with k - 1 degrees of freedom.
    Raises NonFiniteInputError when a rank is NaN (``rank_models`` gives a
    series with a NaN score NaN ranks).
    """
    n, k = rank_matrix.ranks.shape
    if n < 2 or k < 2:
        raise DegenerateInputError("Friedman test needs N >= 2 series and k >= 2 models")
    if np.isnan(rank_matrix.ranks).any():
        raise NonFiniteInputError("the rank matrix holds NaN")
    rbar = mean_ranks(rank_matrix)
    chi2 = 12.0 * n / (k * (k + 1)) * (np.sum(rbar ** 2) - k * (k + 1) ** 2 / 4.0)
    return float(chi2), _numerics.chdtrc(k - 1, chi2)


# Two-tailed Nemenyi critical values q_alpha(k) for k = 2..30: studentized
# range upper quantile at infinite degrees of freedom divided by sqrt(2)
# (frozen from scipy.stats.studentized_range to six decimals).
_NEMENYI_Q = {
    0.05: (
        1.959964, 2.343701, 2.569032, 2.727774, 2.849705, 2.948320,
        3.030878, 3.101730, 3.163684, 3.218654, 3.268004, 3.312739,
        3.353618, 3.391230, 3.426041, 3.458425, 3.488685, 3.517073,
        3.543799, 3.569040, 3.592946, 3.615646, 3.637252, 3.657861,
        3.677556, 3.696413, 3.714498, 3.731869, 3.748578,
    ),
    0.10: (
        1.644854, 2.052293, 2.291341, 2.459516, 2.588521, 2.692732,
        2.779884, 2.854606, 2.919889, 2.977768, 3.029694, 3.076733,
        3.119693, 3.159199, 3.195743, 3.229723, 3.261461, 3.291224,
        3.319233, 3.345676, 3.370712, 3.394477, 3.417089, 3.438651,
        3.459253, 3.478971, 3.497878, 3.516033, 3.533492,
    ),
}


def nemenyi_critical_difference(k: int, n: int, alpha: float = 0.05) -> float:
    """Minimum mean-rank gap for significance under the Nemenyi test.

    ``CD = q_alpha(k) * sqrt(k (k+1) / (6 N))`` with tabulated two-tailed
    critical values for alpha in {0.05, 0.10} and k up to 30.
    """
    if k < 2:
        raise DegenerateInputError("need at least two models")
    if k > 30:
        raise ValueError("critical values tabulated for k <= 30")
    table = None
    for key, values in _NEMENYI_Q.items():
        if abs(alpha - key) < 1e-12:
            table = values
    if table is None:
        raise UnsupportedAlphaError(f"no critical values for alpha={alpha}")
    q = table[k - 2]
    return float(q * np.sqrt(k * (k + 1) / (6.0 * n)))


def nemenyi_groups(model_mean_ranks, cd: float) -> list[tuple[int, ...]]:
    """Maximal contiguous groups of models not separated by the CD.

    Models are ordered by mean rank; a group is a maximal run whose
    extreme mean ranks differ by less than ``cd``.  Returned tuples hold
    indices into the input order.
    """
    ranks = np.asarray(model_mean_ranks, dtype=float)
    order = np.argsort(ranks, kind="stable")
    sorted_ranks = ranks[order]
    k = ranks.size
    groups = []
    for i in range(k):
        j = i
        while j + 1 < k and sorted_ranks[j + 1] - sorted_ranks[i] < cd:
            j += 1
        group = tuple(int(m) for m in order[i:j + 1])
        if groups and set(group) <= set(groups[-1]):
            continue
        groups.append(group)
    return groups


def critical_difference_report(models, model_mean_ranks, n_series: int,
                               alpha: float = 0.05) -> dict:
    """JSON-serialisable critical-difference summary.

    Mean ranks sorted ascending, the CD value, and group memberships by
    model name.
    """
    ranks = np.asarray(model_mean_ranks, dtype=float)
    cd = nemenyi_critical_difference(len(models), n_series, alpha)
    order = np.argsort(ranks, kind="stable")
    groups = nemenyi_groups(ranks, cd)
    return {
        "alpha": alpha,
        "n_series": int(n_series),
        "critical_difference": cd,
        "models": [
            {"model": models[i], "mean_rank": float(ranks[i])} for i in order
        ],
        "groups": [[models[i] for i in g] for g in groups],
    }


def _signed_rank_pmf(doubled_ranks) -> np.ndarray:
    """Null distribution of the doubled positive-rank sum (convolution)."""
    total = int(sum(doubled_ranks))
    weights = np.zeros(total + 1)
    weights[0] = 1.0
    for r in doubled_ranks:
        shifted = np.zeros_like(weights)
        shifted[r:] = weights[:total + 1 - r]
        weights = weights + shifted
    return weights / weights.sum()


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test; returns (W, p).

    Zero differences are dropped; W is the smaller signed-rank sum.  The
    p-value is exact (full null distribution, ties handled by average
    ranks) for n <= 25 and a tie-corrected normal approximation above.
    Raises NonFiniteInputError when a paired difference is NaN.
    """
    a, b = _paired(a, b)
    d = a - b
    if np.isnan(d).any():
        raise NonFiniteInputError("a paired difference is NaN")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise AllZeroDifferencesError("all paired differences are zero")
    ranks = _numerics._average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= 25:
        doubled = np.rint(2.0 * ranks).astype(int)
        pmf = _signed_rank_pmf(doubled)
        w2 = int(np.rint(2.0 * w))
        p = float(min(1.0, 2.0 * pmf[: w2 + 1].sum()))
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, counts = np.unique(ranks, return_counts=True)
        var -= float(np.sum(counts ** 3 - counts)) / 48.0
        z = (w - mean) / np.sqrt(var)
        p = min(1.0, 2.0 * _numerics.ndtr(z))
    return w, p


def holm_adjust(pvalues) -> np.ndarray:
    """Holm step-down adjusted p-values, in the input order.

    ``p_(i) -> max_{j <= i} (m - j + 1) * p_(j)`` over ascending raw
    p-values, clamped to 1.
    """
    p = np.asarray(pvalues, dtype=float).reshape(-1)
    if p.size == 0:
        raise DegenerateInputError("need at least one p-value")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = (m - np.arange(m)) * p[order]
    adjusted_sorted = np.minimum(np.maximum.accumulate(scaled), 1.0)
    out = np.empty(m)
    out[order] = adjusted_sorted
    return out
