"""Run one benchmark workload against the ufcast source of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses ``<checkout>/src``.  The
workloads are ``smoothing``, ``reduction``, ``harness`` and ``rolling``
(see ``workloads.py``).  Every process it starts runs with one BLAS thread.

``--trace 0`` times set-up in fresh interpreters, then repeats untraced
passes of the workload for ``--seconds`` (in two concurrent copies when
the workload runs a single process) and prints the end-to-end metrics.  ``--trace 1`` prints the per-layer metrics of one traced pass
and keeps its spans in ``.perfbench_out/``.  Both check the program's
outputs.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Inputs and result files live in ``.perfbench_work/`` while the run lasts.
The exit code is 0 whenever that line is printed, also when a check
failed; it is not 0 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import declared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, probes included
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(BLAS_THREADS)
    return env


def _run_worker(args, deadline: float) -> str:
    """Run ``worker.py`` with ``args`` in a fresh interpreter; its stdout.

    The worker gets its own process group, so a timeout also ends the
    pool processes it may have started.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group ended on its own meanwhile
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n"
                         f"{err[-3000:]}")
    return out


def _reference_note(workload: str, seed: int, digest: str) -> str:
    path = HERE / "reference_digests.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return f"no reference recorded for seed {seed}"
    return "matches the reference" if ref == digest else f"DIFFERS from reference {ref}"


def _measure(args, work: Path, deadline: float):
    setup = [float(_run_worker(["probe", args.workload], deadline).split()[-1])
             for _ in range(SETUP_PROBES)]
    result_path = work / "result.json"
    _run_worker(["measure", args.workload, args.seed, args.seconds, work,
                 result_path], deadline)
    result = json.loads(result_path.read_text())
    result["metrics"]["setup_s"] = statistics.median(setup)
    units = {name: spec[0] for name, spec in declared.END_TO_END.items()}
    return result, units, list(declared.RUN_EXTRAS.items())


def _trace(args, work: Path, deadline: float):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    result_path = work / "result.json"
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    _run_worker(["trace", args.workload, args.seed, work, result_path,
                 spans_path], deadline)
    result = json.loads(result_path.read_text())
    print(f"spans: {spans_path.relative_to(ROOT)}")
    units = {name: spec[0] for name, spec in declared.PER_LAYER.items()}
    return result, units, []


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end the workers' process group on SIGTERM too (see _run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ufcast" / "__init__.py").is_file():
        print(f"perfbench: no ufcast source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        step = _trace if args.trace else _measure
        result, units, extras = step(args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    values = result["metrics"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"copies {result['copies']}  passes {result['passes']}  "
          f"jobs {result['jobs']}  "
          f"tasks per pass {result['tasks']}  "
          f"BLAS threads {BLAS_THREADS['OPENBLAS_NUM_THREADS']}")
    for name, unit in list(units.items()) + extras:
        print(f"  {name:<40} {_fmt(values[name]):>14} {unit}")
    for call, error in sorted(result["report_failures"].items()):
        print(f"  report call {call} raised {error}")
    print(f"digest {result['digest']}: "
          f"{_reference_note(args.workload, args.seed, result['digest'])}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
