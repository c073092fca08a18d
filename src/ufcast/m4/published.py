"""Published benchmark values and the replicated-vs-published comparison.

The package ships a reference table keyed (model, dataset, metric); the
``compare`` interface reports ``100 * (replicated - published) / published``
per cell, rendered as CSV and as an aligned text table at three decimals.
A table is read by the reader of every ``ufcast-m4`` input
(:mod:`ufcast.m4.datasets`): a byte-order mark is accepted, and a line
that is not UTF-8 or CSV is refused naming the file and the line.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

from ..exceptions import MalformedRowError, MissingReferenceError
from .datasets import _csv_records

__all__ = [
    "default_published_path",
    "load_published",
    "compare_aggregate",
    "comparison_csv",
    "comparison_text",
]

_METRIC_KEYS = {"smape": "mean_smape", "mase": "mean_mase", "owa": "owa"}
_COLUMNS = ("model", "dataset", "metric", "value")


def default_published_path() -> Path:
    """Location of the vendored published-values table."""
    return Path(resources.files("ufcast.m4") / "published_values.csv")


def load_published(path=None) -> dict:
    """Read a published-values CSV into {(model, dataset, metric): value}.

    Lines starting with ``#`` are comments.  A line that is not UTF-8 or
    CSV (a cell past the csv module's field limit), a header without one
    of the columns ``model``, ``dataset``, ``metric`` and ``value``, or a
    row whose value is missing, not a number, zero or not finite, raises
    MalformedRowError naming the file and the line.
    """
    path = default_published_path() if path is None else path
    out = {}
    records = _csv_records(path, comment="#")
    line_no, header = next(records, (0, None))
    if header is None:  # an empty file
        return out
    for column in _COLUMNS:
        if column not in header:
            raise MalformedRowError(line_no, f"no {column!r} column", path)
    for line_no, cells in records:
        if not cells:  # a blank line
            continue
        row = dict(zip(header, cells))
        text = row.get("value")  # None when the row is short
        try:
            value = float(text)
        except (TypeError, ValueError):
            raise MalformedRowError(
                line_no, f"value {text!r} is not a number", path) from None
        if value == 0.0 or not math.isfinite(value):  # a diff divides by it
            raise MalformedRowError(
                line_no, f"value {text!r} is not a finite nonzero number",
                path)
        out[(row.get("model"), row.get("dataset"), row.get("metric"))] = value
    return out


def compare_aggregate(aggregate: dict, published: dict) -> list[dict]:
    """Percentage differences for every replicated (model, dataset, metric).

    Raises MissingReferenceError when the published table has no value for
    a cell present in the replicated aggregate.
    """
    rows = []
    for dataset, block in aggregate["datasets"].items():
        for model, entry in block["models"].items():
            for metric, key in _METRIC_KEYS.items():
                replicated = entry.get(key)
                if replicated is None:
                    continue
                ref = published.get((model, dataset, metric))
                if ref is None:
                    raise MissingReferenceError(
                        f"no published value for ({model}, {dataset}, {metric})"
                    )
                rows.append({
                    "model": model,
                    "dataset": dataset,
                    "metric": metric,
                    "replicated": float(replicated),
                    "published": ref,
                    "diff_pct": 100.0 * (replicated - ref) / ref,
                })
    return rows


def comparison_csv(rows: list[dict]) -> str:
    lines = ["model,dataset,metric,replicated,published,diff_pct"]
    for r in rows:
        lines.append(
            f"{r['model']},{r['dataset']},{r['metric']},"
            f"{r['replicated']:.17g},{r['published']:.17g},{r['diff_pct']:.17g}"
        )
    return "\n".join(lines) + "\n"


def comparison_text(rows: list[dict]) -> str:
    """Aligned text blocks, one per metric, diffs at three decimals."""
    out = []
    metrics = sorted({r["metric"] for r in rows})
    for metric in metrics:
        sub = [r for r in rows if r["metric"] == metric]
        datasets = sorted({r["dataset"] for r in sub})
        models = []
        for r in sub:
            if r["model"] not in models:
                models.append(r["model"])
        cell = {(r["model"], r["dataset"]): r["diff_pct"] for r in sub}
        name_w = max(len(m) for m in models) + 2
        col_w = max(max(len(d) for d in datasets) + 2, 10)
        out.append(f"{metric} percentage difference (replicated vs published)")
        out.append(" " * name_w + "".join(d.rjust(col_w) for d in datasets))
        for m in models:
            cells = []
            for d in datasets:
                v = cell.get((m, d))
                cells.append(("-" if v is None else f"{v:.3f}").rjust(col_w))
            out.append(m.ljust(name_w) + "".join(cells))
        out.append("")
    return "\n".join(out)
