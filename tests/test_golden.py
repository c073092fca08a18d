"""Byte-identity gate for the benchmark runner.

A short run of the default ``ufcast-m4 run`` model list over small
synthetic yearly and quarterly series must reproduce the committed
results file byte for byte, once every runtime field is removed.  Any
change that moves a forecast, a score or an aggregate by one bit fails
here.

Regenerate only when an output change is intended (and explain it in the
change log), from the repository root::

    PYTHONPATH=src python -m tests.test_golden
"""

import re
import sys
import tempfile
from pathlib import Path

import pytest

from ufcast.m4.cli import _DEFAULT_MODELS
from ufcast.m4.runner import RunManifest, run
from tests.conftest import seasonal_series, write_m4_csv

GOLDEN = Path(__file__).with_name("golden_run.jsonl")

# every runtime field follows another key, so it is always ", "-prefixed
_RUNTIME_FIELD = re.compile(r', "(?:total_)?runtime_s": [-+0-9.eE]+')

# (file stem, prefix, sp, horizon, train lengths)
_PANELS = [
    ("Yearly", "Y", 1, 6, (18, 24, 31)),
    ("Quarterly", "Q", 4, 8, (28, 36, 44)),
]


def _write_inputs(root: Path) -> None:
    for stem, prefix, sp, horizon, lengths in _PANELS:
        train_rows, test_rows = [], []
        for i, n in enumerate(lengths, start=1):
            full = seasonal_series(
                n=n + horizon, sp=sp, level=40.0 + 7 * i,
                slope=0.4 * i - 0.5, amp=0.15 if sp > 1 else 0.0,
                noise=0.03 * i, seed=500 + 10 * sp + i,
            ).values
            train_rows.append((f"{prefix}{i}", full[:n]))
            test_rows.append((f"{prefix}{i}", full[n:]))
        write_m4_csv(root / f"{stem}-train.csv", train_rows)
        write_m4_csv(root / f"{stem}-test.csv", test_rows)


def golden_output(workdir: Path, jobs: int = 1) -> str:
    """Run the golden manifest in ``workdir``; results text sans runtimes."""
    _write_inputs(workdir)
    out = workdir / "results.jsonl"
    run(RunManifest(
        datasets=["yearly", "quarterly"],
        models=_DEFAULT_MODELS.split(","),
        train_dir=str(workdir), test_dir=str(workdir), out_path=str(out),
        jobs=jobs,
    ))
    return _RUNTIME_FIELD.sub("", out.read_text(encoding="utf-8"))


# jobs=2 byte-checks the process-pool path against the same file
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matches_golden_bytes(tmp_path, jobs):
    assert golden_output(tmp_path, jobs) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(golden_output(Path(tmp)), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
