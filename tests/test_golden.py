"""Byte-identity gates for the benchmark runner.

Three short runs over small synthetic series must reproduce their
committed results files byte for byte, once every runtime field is
removed:

* ``golden_run.jsonl``: the default ``ufcast-m4 run`` model list on yearly
  and quarterly series (naive, smoothing, theta and their ensemble);
* ``golden_reduction.jsonl``: ``LR-s``, ``KNN-Theta-bc`` and ``KNN-t-s`` on
  quarterly and monthly series (reduction, Theta as a detrender, window
  grid search);
* ``golden_tuned.jsonl``: ``LR-t-s`` and ``KNN-Theta-bc-t`` on the same
  quarterly and monthly series (the tuned refits, boosted on a Theta-bc
  detrender).

Any change that moves a forecast, a score or an aggregate by one bit fails
here.  The optimisers reach their ports through scipy when
``scipy.optimize`` is loaded, as it is in this process, and directly when
it is not, as in a run from the command line; so the three files are also
produced in a fresh interpreter that must never import it.  Regenerate
only when an output change is intended (and explain it in the change
log), from the repository root::

    PYTHONPATH=src python -m tests.test_golden [golden file name ...]

With no names every golden file is rewritten.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ufcast.m4.cli import _DEFAULT_MODELS
from ufcast.m4.runner import RunManifest, run
from tests.conftest import seasonal_series, write_m4_csv

# every runtime field follows another key, so it is always ", "-prefixed
_RUNTIME_FIELD = re.compile(r', "(?:total_)?runtime_s": [-+0-9.eE]+')

# golden file name -> (models, panels); a panel is
# (file stem, prefix, sp, horizon, train lengths, seed base)
_GOLDENS = {
    "golden_run.jsonl": (_DEFAULT_MODELS.split(","), [
        ("Yearly", "Y", 1, 6, (18, 24, 31), 500),
        ("Quarterly", "Q", 4, 8, (28, 36, 44), 500),
    ]),
    "golden_reduction.jsonl": (["LR-s", "KNN-Theta-bc", "KNN-t-s"], [
        ("Quarterly", "Q", 4, 8, (40, 48, 60), 700),
        ("Monthly", "M", 12, 18, (66, 78, 90), 700),
    ]),
}
_GOLDENS["golden_tuned.jsonl"] = (["LR-t-s", "KNN-Theta-bc-t"],
                                  _GOLDENS["golden_reduction.jsonl"][1])


def _write_inputs(root: Path, panels) -> None:
    for stem, prefix, sp, horizon, lengths, seed in panels:
        train_rows, test_rows = [], []
        for i, n in enumerate(lengths, start=1):
            full = seasonal_series(
                n=n + horizon, sp=sp, level=40.0 + 7 * i,
                slope=0.4 * i - 0.5, amp=0.15 if sp > 1 else 0.0,
                noise=0.03 * i, seed=seed + 10 * sp + i,
            ).values
            train_rows.append((f"{prefix}{i}", full[:n]))
            test_rows.append((f"{prefix}{i}", full[n:]))
        write_m4_csv(root / f"{stem}-train.csv", train_rows)
        write_m4_csv(root / f"{stem}-test.csv", test_rows)


def golden_output(workdir: Path, name: str = "golden_run.jsonl",
                  jobs: int = 1) -> str:
    """Run the manifest of golden file ``name`` in ``workdir``; results
    text sans runtimes."""
    models, panels = _GOLDENS[name]
    _write_inputs(workdir, panels)
    out = workdir / "results.jsonl"
    run(RunManifest(
        datasets=[panel[0].lower() for panel in panels],
        models=models,
        train_dir=str(workdir), test_dir=str(workdir), out_path=str(out),
        jobs=jobs,
    ))
    return _RUNTIME_FIELD.sub("", out.read_text(encoding="utf-8"))


def _golden_path(name: str) -> Path:
    return Path(__file__).with_name(name)


# jobs=2 byte-checks the process-pool path against the same file
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_matches_golden_bytes(tmp_path, jobs):
    expected = _golden_path("golden_run.jsonl").read_text(encoding="utf-8")
    assert golden_output(tmp_path, "golden_run.jsonl", jobs) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_reduction_run_matches_golden_bytes(tmp_path, jobs):
    expected = _golden_path("golden_reduction.jsonl").read_text(encoding="utf-8")
    assert golden_output(tmp_path, "golden_reduction.jsonl", jobs) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_tuned_run_matches_golden_bytes(tmp_path, jobs):
    expected = _golden_path("golden_tuned.jsonl").read_text(encoding="utf-8")
    assert golden_output(tmp_path, "golden_tuned.jsonl", jobs) == expected


_FRESH = """
import json, sys, tempfile
from pathlib import Path
from tests.test_golden import _GOLDENS, golden_output
out = {}
for name in _GOLDENS:
    with tempfile.TemporaryDirectory() as tmp:
        out[name] = golden_output(Path(tmp), name)
print(json.dumps({"outputs": out,
                  "scipy.optimize": "scipy.optimize" in sys.modules}))
"""


def test_goldens_match_without_scipy_optimize(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _FRESH], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["scipy.optimize"] is False
    assert sorted(child["outputs"]) == sorted(_GOLDENS)
    for name, text in child["outputs"].items():
        assert text == _golden_path(name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    for name in sys.argv[1:] or _GOLDENS:
        with tempfile.TemporaryDirectory() as tmp:
            _golden_path(name).write_text(golden_output(Path(tmp), name),
                                          encoding="utf-8")
        print(f"wrote {_golden_path(name)}", file=sys.stderr)
