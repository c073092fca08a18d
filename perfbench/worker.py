"""Benchmark worker; ``run.py`` starts it in a fresh interpreter.

    worker.py probe   <workload>
        Time importing ``ufcast.m4.cli`` plus one warm-up fit and predict
        per model of the workload; prints the seconds.
    worker.py measure <workload> <seed> <seconds> <workdir> <result.json>
        Untraced passes until ``seconds`` are used, in concurrent copies
        that fill two CPUs; writes end-to-end metrics and check results.
    worker.py trace   <workload> <seed> <workdir> <result.json> <spans.jsonl>
        One untraced pass at the workload's job count (and one at jobs=1
        when that differs), then one traced pass at jobs=1; writes
        per-layer metrics and the spans.

Set-up work outside the timed probe (data generation, warm-up) is never
inside a timed pass.
"""

from __future__ import annotations

import sys
import time


def _workload(name: str):
    """The workload, after checking that ufcast is this checkout's."""
    from pathlib import Path

    import ufcast
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ufcast.__file__).resolve().parents:
        raise SystemExit(f"ufcast was imported from {ufcast.__file__}, "
                         f"not from {src}")
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def probe(name: str) -> None:
    started = time.perf_counter()
    import ufcast.m4.cli  # noqa: F401  (importing it is part of what is timed)
    import workloads

    workloads.warm_up(_workload(name))
    print(repr(time.perf_counter() - started))


def _prepare(name: str, seed: int, workdir: str):
    from pathlib import Path

    import workloads

    wl = _workload(name)
    workdir = Path(workdir)
    inputs = workloads.make_inputs(wl, seed, workdir)
    workloads.warm_up(wl)
    return wl, inputs, workdir


def _peak_rss_mib() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _problems(passes) -> list:
    problems = sorted({p for one in passes for p in one.problems})
    if len({one.digest for one in passes}) > 1:
        problems.append("outputs differ between passes of one run")
    return problems


def _passes(name: str, seed: int, seconds: float, workdir: str) -> list:
    """Untraced passes until ``seconds`` are used (at least one)."""
    from workloads import one_pass

    wl, inputs, workdir = _prepare(name, seed, workdir)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(one_pass(wl, inputs, workdir, wl.workers))
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def measure(name: str, seed: int, seconds: float, workdir: str,
            out: str) -> None:
    """Measure ``copies`` concurrent copies of the workload, each in its own
    process and directory: as many as fill two CPUs at the workload's job
    count.  A single-process pass alone on a CPU flips between a fast and
    a slow machine state every few seconds; with the CPUs kept busy, pass
    times spread about half as much, and a run holds twice the passes."""
    import json
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor
    from pathlib import Path

    import metrics

    wl = _workload(name)
    copies = max(1, min(2, len(os.sched_getaffinity(0)) // wl.workers))
    if copies == 1:
        passes = _passes(name, seed, seconds, workdir)
    else:
        dirs = [Path(workdir) / f"copy{i}" for i in range(copies)]
        for d in dirs:
            d.mkdir()
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(copies, mp_context=context) as pool:
            futures = [pool.submit(_passes, name, seed, seconds, str(d))
                       for d in dirs]
            passes = [p for future in futures for p in future.result()]
    result = {
        "metrics": metrics.end_to_end(passes, _peak_rss_mib()),
        "attempted": sum(p.tasks for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": len(passes),
        "copies": copies,
        "jobs": wl.workers,
        "tasks": passes[0].tasks,
        "report_failures": passes[-1].report_failures,
        "digest": passes[0].digest,
        "problems": _problems(passes),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def trace(name: str, seed: int, workdir: str, out: str, spans_out: str) -> None:
    import json

    import metrics
    from tracing import Tracer
    from workloads import one_pass

    wl, inputs, workdir = _prepare(name, seed, workdir)
    untraced = one_pass(wl, inputs, workdir, wl.workers)
    jobs1 = untraced if wl.workers == 1 else one_pass(wl, inputs, workdir, 1)
    tracer = Tracer()
    with tracer:
        traced = one_pass(wl, inputs, workdir, 1, call=tracer.call)
    passes = [untraced, jobs1, traced]
    result = {
        "metrics": metrics.layer_metrics(tracer.spans, traced, untraced,
                                         jobs1, wl.workers),
        "attempted": traced.tasks,
        "failed": traced.failed,
        "passes": 1,
        "copies": 1,
        "jobs": 1,
        "tasks": traced.tasks,
        "report_failures": traced.report_failures,
        "digest": traced.digest,
        "problems": _problems(passes),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    with open(spans_out, "w", encoding="utf-8") as fh:
        fh.write('["id", "parent", "name", "class", "start", "end", "detail"]\n')
        for span in tracer.spans:
            fh.write(json.dumps(span, default=repr) + "\n")


def main(argv) -> int:
    mode, name = argv[1], argv[2]
    if mode == "probe":
        probe(name)
    elif mode == "measure":
        measure(name, int(argv[3]), float(argv[4]), argv[5], argv[6])
    elif mode == "trace":
        trace(name, int(argv[3]), argv[4], argv[5], argv[6])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
