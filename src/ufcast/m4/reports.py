"""Significance reports over benchmark results, plus CD-diagram SVG.

Reports are computed per dataset from the per-series records and emitted
as JSON-serialisable dicts; the rank-based tests require a complete
model x series grid.
"""

from __future__ import annotations

import itertools

from ..core import _check_real
from ..evaluation import (
    critical_difference_report,
    friedman_test,
    holm_adjust,
    mean_ranks,
    paired_t_test,
    rank_models,
    wilcoxon_signed_rank,
)
from ..exceptions import ZeroVarianceError

__all__ = ["stats_report", "render_cd_svg"]


def _by_dataset(records):
    groups = {}
    for r in records:
        groups.setdefault(r.dataset, []).append(r)
    return dict(sorted(groups.items()))


def _model_series_scores(records, metric):
    scores = {}
    for r in records:
        scores.setdefault(r.model, {})[r.series_id] = getattr(r, metric)
    return scores


def _pairwise(records, metric, test_fn):
    scores = _model_series_scores(records, metric)
    models = sorted(scores)
    rows = []
    for a, b in itertools.combinations(models, 2):
        shared = sorted(set(scores[a]) & set(scores[b]))
        xs = [scores[a][s] for s in shared]
        ys = [scores[b][s] for s in shared]
        rows.append(test_fn(a, b, xs, ys))
    return rows


def _ranked_summary(records, metric, alpha):
    matrix = rank_models(records, metric=metric)
    chi2, p = friedman_test(matrix)
    ranks = mean_ranks(matrix)
    order = sorted(range(len(matrix.models)), key=lambda i: ranks[i])
    return matrix, {
        "chi2": chi2,
        "p": p,
        "alpha": alpha,
        "significant": bool(p < alpha),
        "mean_ranks": [
            {"model": matrix.models[i], "mean_rank": float(ranks[i])}
            for i in order
        ],
    }


def stats_report(records, test: str, metric: str = "smape",
                 alpha: float = 0.05) -> dict:
    """Run a significance procedure per dataset.

    ``test`` is one of ``friedman``, ``nemenyi``, ``wilcoxon_holm``,
    ``ttest``.  Rank-based procedures raise IncompleteGridError unless
    every model scored every series.  ``alpha`` must be a real number in
    (0, 1].
    """
    _check_real("alpha", alpha, 0, 1, low_open=True)
    report = {"test": test, "metric": metric, "alpha": alpha, "datasets": {}}
    for dataset, group in _by_dataset(records).items():
        if test == "friedman":
            _, summary = _ranked_summary(group, metric, alpha)
            block = summary
        elif test == "nemenyi":
            matrix, summary = _ranked_summary(group, metric, alpha)
            cd = critical_difference_report(
                matrix.models, mean_ranks(matrix), len(matrix.series), alpha
            )
            block = {"friedman": summary, "critical_difference": cd}
        elif test == "wilcoxon_holm":
            def wilcoxon_row(a, b, xs, ys):
                w, p = wilcoxon_signed_rank(xs, ys)
                return {"model_a": a, "model_b": b, "w": w, "p": p}

            rows = _pairwise(group, metric, wilcoxon_row)
            adjusted = holm_adjust([r["p"] for r in rows]) if rows else []
            for row, adj in zip(rows, adjusted):
                row["p_holm"] = float(adj)
                row["significant"] = bool(adj < alpha)
            block = {"pairs": rows}
        elif test == "ttest":
            def ttest_row(a, b, xs, ys):
                try:
                    t, p = paired_t_test(xs, ys)
                    return {"model_a": a, "model_b": b, "t": t, "p": p}
                except ZeroVarianceError:
                    return {"model_a": a, "model_b": b, "t": None, "p": None,
                            "zero_variance": True}

            block = {"pairs": _pairwise(group, metric, ttest_row)}
        else:
            raise ValueError(f"unknown test {test!r}")
        report["datasets"][dataset] = block
    return report


# ---------------------------------------------------------------------------
# critical-difference diagram (SVG)
# ---------------------------------------------------------------------------

def render_cd_svg(cd_report: dict, title: str = "") -> str:
    """Classic critical-difference diagram.

    Horizontal rank axis; models connect to their mean-rank position with
    the better half labelled on the left, the rest on the right; thick
    bars join groups whose spread is below the critical difference.
    """
    entries = cd_report["models"]  # sorted ascending by mean rank
    groups = [g for g in cd_report["groups"] if len(g) > 1]
    cd = cd_report["critical_difference"]
    k = len(entries)

    lo = min(e["mean_rank"] for e in entries)
    hi = max(e["mean_rank"] for e in entries)
    axis_lo = min(1.0, float(int(lo)))
    axis_hi = max(float(k), float(int(hi) + 1))

    width, margin = 760.0, 120.0
    axis_y = 70.0
    scale = (width - 2 * margin) / (axis_hi - axis_lo)

    def x_of(rank):
        return margin + (rank - axis_lo) * scale

    left = entries[: (k + 1) // 2]
    right = entries[(k + 1) // 2:]
    label_step = 22.0
    bar_rows = _stack_groups(entries, groups)
    bars_base = axis_y + 14.0
    labels_base = bars_base + (max(bar_rows.values(), default=-1) + 1) * 8.0 + 16.0
    height = labels_base + max(len(left), len(right)) * label_step + 20.0

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="Helvetica, Arial, sans-serif" '
        'font-size="13">',
        f'<line x1="{x_of(axis_lo)}" y1="{axis_y}" x2="{x_of(axis_hi)}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1.5"/>',
    ]
    if title:
        svg.append(f'<text x="{width / 2}" y="22" text-anchor="middle" '
                   f'font-size="15">{_esc(title)}</text>')

    tick = int(axis_lo)
    while tick <= axis_hi:
        x = x_of(tick)
        svg.append(f'<line x1="{x}" y1="{axis_y - 5}" x2="{x}" '
                   f'y2="{axis_y + 5}" stroke="black"/>')
        svg.append(f'<text x="{x}" y="{axis_y - 10}" '
                   f'text-anchor="middle">{tick}</text>')
        tick += 1

    # CD ruler
    svg.append(f'<line x1="{x_of(axis_lo)}" y1="36" '
               f'x2="{x_of(axis_lo + cd)}" y2="36" stroke="black" '
               'stroke-width="2"/>')
    svg.append(f'<text x="{x_of(axis_lo + cd) + 8}" y="40">'
               f'CD = {cd:.3f}</text>')

    # group bars
    rank_of = {e["model"]: e["mean_rank"] for e in entries}
    for gi, group in enumerate(groups):
        row = bar_rows[gi]
        ranks = [rank_of[name] for name in group]
        y = bars_base + row * 8.0
        svg.append(f'<line x1="{x_of(min(ranks)) - 3}" y1="{y}" '
                   f'x2="{x_of(max(ranks)) + 3}" y2="{y}" stroke="black" '
                   'stroke-width="4"/>')

    # model labels and connectors
    for i, entry in enumerate(left):
        y = labels_base + i * label_step
        x = x_of(entry["mean_rank"])
        svg.append(f'<polyline fill="none" stroke="black" points="'
                   f'{x},{axis_y} {x},{y - 4} {margin - 10},{y - 4}"/>')
        svg.append(f'<text x="{margin - 14}" y="{y}" text-anchor="end">'
                   f'{_esc(entry["model"])} ({entry["mean_rank"]:.3f})</text>')
    for i, entry in enumerate(right):
        y = labels_base + (len(right) - 1 - i) * label_step
        x = x_of(entry["mean_rank"])
        svg.append(f'<polyline fill="none" stroke="black" points="'
                   f'{x},{axis_y} {x},{y - 4} {width - margin + 10},{y - 4}"/>')
        svg.append(f'<text x="{width - margin + 14}" y="{y}">'
                   f'{_esc(entry["model"])} ({entry["mean_rank"]:.3f})</text>')

    svg.append("</svg>")
    return "\n".join(svg)


def _stack_groups(entries, groups) -> dict:
    """Assign each group bar a row so overlapping bars never collide."""
    rank_of = {e["model"]: e["mean_rank"] for e in entries}
    spans = []
    for group in groups:
        ranks = [rank_of[name] for name in group]
        spans.append((min(ranks), max(ranks)))
    rows = {}
    for gi, (lo, hi) in enumerate(spans):
        row = 0
        while any(
            rows.get(gj) == row and not (hi < s_lo or lo > s_hi)
            for gj, (s_lo, s_hi) in enumerate(spans[:gi])
        ):
            row += 1
        rows[gi] = row
    return rows


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
