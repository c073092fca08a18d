"""Byte-identity gate for the update path.

The golden files run ``fit`` and ``predict`` only.  This test runs one
pass of the benchmark's ``rolling`` workload at each of seeds 1 and 2
(each model fitted once per series, then ``update_predict`` over 96
origins of 6 hourly series: every ``_update_state`` path) in one fresh
interpreter with the benchmark's single BLAS thread, and compares each
digest with the one recorded in ``perfbench/reference_digests.json``.  It
reads ``perfbench/`` and changes nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

SEEDS = (1, 2)

# ``run`` imports no numpy, so its BLAS settings apply before numpy loads;
# the caller prepends the ``SEEDS`` line
_PASS = """
import json, os, sys
import run
os.environ.update(run.BLAS_THREADS)
from pathlib import Path
import workloads
wl = workloads.WORKLOADS["rolling"]
out = {}
for seed in SEEDS:
    inputs = workloads.make_inputs(wl, seed, Path.cwd())
    result = workloads.one_pass(wl, inputs, Path.cwd(), 1)
    out[str(seed)] = {"digest": result.digest, "problems": result.problems}
print(json.dumps(out))
"""


def test_rolling_pass_matches_reference_digest(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", f"SEEDS = {SEEDS!r}\n" + _PASS], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    results = json.loads(proc.stdout.splitlines()[-1])
    references = json.loads(
        (PERFBENCH / "reference_digests.json").read_text())["rolling"]
    for seed in map(str, SEEDS):
        assert results[seed]["problems"] == [], seed
        assert results[seed]["digest"] == references[seed], seed
