"""Benchmark command line: ``ufcast-m4 run | compare | stats``.

``run`` evaluates registry models over M4-format CSVs and writes
JSON-lines results; ``compare`` reports percentage differences against
published values; ``stats`` runs significance tests over per-series
results and can render a critical-difference diagram as SVG.  Every
command ends in exit status 0 or 2.  A command that refuses its input
prints why to stderr, leaves no output file and exits with status 2:
:func:`main` is the one place that turns a refusal into that status.
Output files are written only when the command succeeds, all of them
(:func:`~ufcast.m4.runner.open_outputs`), and ``run`` checks that ``--out``
can be written before it reads any data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..evaluation import MASE_DENOMINATORS
from ..exceptions import UfcastError
from .datasets import DATASETS
from .published import (
    compare_aggregate,
    comparison_csv,
    comparison_text,
    load_published,
)
from .registry import KNOWN_MODELS, WINDOW_RULES
from .reports import render_cd_svg, stats_report
from .runner import RunManifest, dumps_17g, open_outputs, read_results, run

_DEFAULT_MODELS = "Naive,sNaive,Naive2,SES,Holt,Damped,Com,Theta,Theta-bc"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufcast-m4",
        description="M4 benchmark harness: run models, compare against "
                    "published results, test significance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate models on M4-format data")
    p_run.add_argument("--dataset", required=True,
                       help="frequency name (%s) or 'all'"
                            % "|".join(DATASETS))
    p_run.add_argument("--models", default=_DEFAULT_MODELS,
                       help="comma-separated registry names "
                            f"(known: {', '.join(KNOWN_MODELS)})")
    p_run.add_argument("--train-dir", required=True,
                       help="directory with <Freq>-train.csv files")
    p_run.add_argument("--test-dir", required=True,
                       help="directory with <Freq>-test.csv files")
    p_run.add_argument("--out", required=True, help="JSON-lines output file")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes (default 1)")
    p_run.add_argument("--mase-denominator", default="as_formula",
                       choices=MASE_DENOMINATORS,
                       help="MASE scaling convention (default as_formula)")
    p_run.add_argument("--window-rule", default="max", choices=WINDOW_RULES,
                       help="untuned reduction window: max(sp,3) or min(sp,3)")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="percentage differences vs published values")
    p_cmp.add_argument("--results", required=True, help="run output file")
    p_cmp.add_argument("--published", default=None,
                       help="published-values CSV (default: vendored table)")
    p_cmp.add_argument("--out", required=True, help="comparison CSV output")
    p_cmp.set_defaults(func=_cmd_compare)

    p_st = sub.add_parser("stats", help="significance tests over results")
    p_st.add_argument("--results", required=True, help="run output file")
    p_st.add_argument("--test", required=True,
                      choices=["friedman", "nemenyi", "wilcoxon_holm", "ttest"])
    p_st.add_argument("--metric", default="smape", choices=["smape", "mase"])
    p_st.add_argument("--alpha", type=float, default=0.05)
    p_st.add_argument("--out", required=True, help="JSON report output")
    p_st.add_argument("--svg", default=None,
                      help="critical-difference SVG output (nemenyi only; "
                           "with several datasets, one file per dataset)")
    p_st.set_defaults(func=_cmd_stats)
    return parser


def _cmd_run(args) -> int:
    datasets = list(DATASETS) if args.dataset == "all" else [args.dataset]
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    aggregate = run(RunManifest(
        datasets=datasets, models=models, train_dir=args.train_dir,
        test_dir=args.test_dir, out_path=args.out, jobs=args.jobs,
        mase_denominator=args.mase_denominator, window_rule=args.window_rule,
    ))
    for dataset, block in aggregate["datasets"].items():
        print(f"{dataset}: {block['n_series']} series")
        for model, entry in block["models"].items():
            smape_s = ("-" if entry["mean_smape"] is None
                       else f"{entry['mean_smape']:.3f}")
            mase_s = ("-" if entry["mean_mase"] is None
                      else f"{entry['mean_mase']:.3f}")
            owa_s = "-" if entry["owa"] is None else f"{entry['owa']:.3f}"
            print(f"  {model:<16} sMAPE {smape_s:>9}  MASE {mase_s:>8}  "
                  f"OWA {owa_s:>7}  failed {entry['n_failed']}  "
                  f"{entry['runtime_s']:.1f}s")
    print(f"total runtime: {aggregate['total_runtime_s']:.1f}s -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    _, _, aggregate = read_results(args.results)
    if aggregate is None:
        raise ValueError("results file has no aggregate block")
    rows = compare_aggregate(aggregate, load_published(args.published))
    with open_outputs([args.out]) as (out,):
        out.write(comparison_csv(rows))
    print(comparison_text(rows))
    print(f"wrote {len(rows)} comparison cells -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    if args.svg and args.test != "nemenyi":
        raise ValueError("--svg is only meaningful with --test nemenyi")
    records, _, _ = read_results(args.results)
    if not records:
        raise ValueError("results file has no records")
    report = stats_report(records, test=args.test, metric=args.metric,
                          alpha=args.alpha)
    datasets = list(report["datasets"]) if args.svg else []
    svg = Path(args.svg or "")
    svgs = [svg if len(datasets) == 1
            else svg.with_name(f"{svg.stem}_{dataset}{svg.suffix}")
            for dataset in datasets]
    with open_outputs([args.out, *svgs]) as (out, *svg_files):
        out.write(dumps_17g(report) + "\n")
        for dataset, fh in zip(datasets, svg_files):
            cd = report["datasets"][dataset]["critical_difference"]
            fh.write(render_cd_svg(cd, title=f"{dataset} ({args.metric})"))
    print(f"wrote {args.test} report -> {args.out}")
    for path in svgs:
        print(f"wrote CD diagram -> {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UfcastError, ValueError, OSError) as exc:
        # every refusal: bad arguments, unreadable or malformed input, an
        # output that cannot be written
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
