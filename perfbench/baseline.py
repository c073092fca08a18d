"""Repeat the benchmark over seeds and summarise, optionally as the baseline.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10]
                                  [--seconds S] [--write]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for every end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median, as ``statistics.quantiles(n=4)``
gives the quartiles) next to the metric's bound.  ``--write`` also runs
one traced run per workload and records everything, with machine
information and the git commit, in ``perfbench/baseline.json``; the
runtime-stripped output digest of every run goes to
``perfbench/reference_digests.json``, which ``run.py`` compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import declared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1].rstrip(":") for line in lines
                            if line.startswith("digest "))
    return result


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 "
                        "MKL_NUM_THREADS=1 in every process the benchmark starts",
        "git_commit": commit,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    record = {"machine": machine(), "run_seconds": args.seconds,
              "seeds": args.seeds, "end_to_end": {}, "traced": {}}
    digests = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0)
                for seed in _seeds(args.seeds)]
        digests[workload] = {str(seed): r["digest"]
                             for seed, r in zip(_seeds(args.seeds), runs)}
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run failed its output checks")
        record["end_to_end"][workload] = {}
        for name, (unit, _, bound) in declared.END_TO_END.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            record["end_to_end"][workload][name] = {"unit": unit, **stats}
            flag = "" if stats["spread"] <= bound / 3 else "  <-- over bound/3"
            print(f"{workload:<10} {name:<12} median {stats['median']:.6g} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}] spread "
                  f"{stats['spread']:.4f} bound {bound}{flag}", flush=True)
        if args.write:
            traced = run_once(workload, _seeds(args.seeds)[0], args.seconds, 1)
            record["traced"][workload] = {
                name: entry["value"] for name, entry in traced["metrics"].items()}
    if args.write:
        record["per_layer_moves"] = {
            name: moves for name, (_, _, moves) in declared.PER_LAYER.items()}
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
        (HERE / "reference_digests.json").write_text(
            json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
