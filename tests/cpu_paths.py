"""Digests of the golden outputs and of the benchmark's ``rolling`` pass
under each CPU code path that OpenBLAS and numpy can be made to take.

Run from the repository root::

    python -m tests.cpu_paths

For each setting below, one fresh interpreter, with the setting in its
own environment only, computes the sha256 of
``tests.test_golden.golden_output`` for each golden file and the
``rolling`` digests of seeds 1 and 2 (as ``tests/test_rolling_digest.py``
computes them).  The interpreters run one at a time.  Each line printed is
a setting, a name, its digest, and ``same`` or ``moved`` against the
committed golden file or ``perfbench/reference_digests.json``.  Two
checkouts that print the same digests compute the same bits on every path.

The settings are the default environment, OpenBLAS's Haswell and Prescott
kernels (``OPENBLAS_CORETYPE``), and numpy's SIMD loops without AVX-512
(``NPY_DISABLE_CPU_FEATURES``); on a CPU without AVX-512 the last is the
default path.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_AVX512 = ("AVX512F,AVX512CD,AVX512VL,AVX512BW,AVX512DQ,AVX512_SKX,"
           "AVX512_CLX,AVX512_CNL,AVX512_ICL,AVX512_SPR,AVX512VNNI,"
           "AVX512IFMA,AVX512VBMI,AVX512VBMI2,AVX512BITALG,AVX512FP16,"
           "AVX512BF16,AVX512VPOPCNTDQ,X86_V4")

SETTINGS = {
    "default": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": _AVX512},
}

# ``run`` imports no numpy, so the benchmark's single BLAS thread applies
# before numpy loads, as in tests/test_rolling_digest.py
_CHILD = """
import hashlib, json, os, sys, tempfile
from pathlib import Path
import run
os.environ.update(run.BLAS_THREADS)
import workloads
from tests.test_golden import _GOLDENS, golden_output
out = {}
for name in _GOLDENS:
    with tempfile.TemporaryDirectory() as tmp:
        text = golden_output(Path(tmp), name)
    out[name] = hashlib.sha256(text.encode()).hexdigest()
wl = workloads.WORKLOADS["rolling"]
for seed in (1, 2):
    inputs = workloads.make_inputs(wl, seed, Path.cwd())
    result = workloads.one_pass(wl, inputs, Path.cwd(), 1)
    if result.problems:
        sys.exit(f"rolling seed {seed}: {result.problems}")
    out[f"rolling-{seed}"] = result.digest
print(json.dumps(out))
"""


def committed(name: str) -> str:
    """The digest that output ``name`` has in the committed files."""
    if name.startswith("rolling-"):
        rolling = json.loads((ROOT / "perfbench" / "reference_digests.json")
                             .read_text())["rolling"]
        return rolling[name.removeprefix("rolling-")]
    return hashlib.sha256((ROOT / "tests" / name).read_bytes()).hexdigest()


def digests(setting: dict) -> dict:
    """Name -> digest, computed in a fresh interpreter under ``setting``."""
    env = {**os.environ, **setting}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT)])
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=tmp,
                              env=env, capture_output=True, text=True,
                              timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-3000:])
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    for label, setting in SETTINGS.items():
        for name, digest in digests(setting).items():
            state = "same" if digest == committed(name) else "moved"
            print(f"{label:18} {name:24} {digest} {state}", flush=True)


if __name__ == "__main__":
    main()
