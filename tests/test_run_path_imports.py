"""Neither the run path nor the report phase loads ``scipy.stats`` or
``scipy.optimize``, and importing the CLI loads no scipy module at all.

A fresh interpreter imports ``ufcast`` and ``ufcast.m4.cli`` and runs
``run()`` on a tiny yearly panel at ``jobs=1``, so that every model is fit
and the aggregate ranks them.  It then runs the whole report phase: all
four ``stats_report`` tests (the Wilcoxon one stops at the documented
``AllZeroDifferencesError``, as Naive2 is Naive on a yearly series), the
Wilcoxon normal approximation above n = 25, ``compare_aggregate`` against
the published table, and ``ufcast-m4 stats`` with a CD diagram.  No module
in ``BANNED`` (or below it) may be loaded by then: ``scipy.stats`` costs
about a third of a second and 20 MiB of every interpreter that imports it,
``scipy.optimize`` about 0.37 s and 49 MiB, and the significance tests
take their tails from ``scipy.special``.  The child's p-values must equal
those of this process.  A second fresh interpreter only imports
``ufcast.m4.cli``: the tails import ``scipy.special`` when first called,
so no scipy module may be loaded after the import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ufcast.evaluation import wilcoxon_signed_rank
from ufcast.m4.reports import stats_report
from ufcast.m4.runner import read_results
from tests.conftest import seasonal_series, write_m4_csv

BANNED = ("scipy.stats", "scipy.optimize")

_SCRIPT = """
import contextlib
import io
import json
import os
import sys

import numpy as np

import ufcast
import ufcast.m4.cli
from ufcast.evaluation import wilcoxon_signed_rank
from ufcast.exceptions import AllZeroDifferencesError
from ufcast.m4.published import compare_aggregate, load_published
from ufcast.m4.reports import stats_report
from ufcast.m4.runner import RunManifest, read_results, run

root, out, banned = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
run(RunManifest(datasets=["yearly"], models=["Naive", "Naive2", "SES", "Theta"],
                train_dir=root, test_dir=root, out_path=out, jobs=1))
records, _, aggregate = read_results(out)
reports = {test: stats_report(records, test=test)
           for test in ("friedman", "nemenyi", "ttest")}
try:
    stats_report(records, test="wilcoxon_holm")
    wilcoxon_error = None
except AllZeroDifferencesError as exc:
    wilcoxon_error = type(exc).__name__
_, normal_p = wilcoxon_signed_rank(np.arange(1.0, 31.0), np.zeros(30))
compared = compare_aggregate(aggregate, load_published())
with contextlib.redirect_stdout(io.StringIO()):
    code = ufcast.m4.cli.main([
        "stats", "--results", out, "--test", "nemenyi",
        "--out", os.path.join(root, "stats.json"),
        "--svg", os.path.join(root, "cd.svg")])
loaded = sorted(name for name in sys.modules
                if any(name == b or name.startswith(b + ".") for b in banned))
print(json.dumps({"loaded": loaded, "reports": reports,
                  "wilcoxon_error": wilcoxon_error, "normal_p": normal_p,
                  "compared": len(compared), "cli_code": code}))
"""


def _run_child(args, cwd) -> str:
    """Standard output of ``python -c *args`` run in ``cwd``, in a fresh
    interpreter that imports ``ufcast`` from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _p_values(report):
    block = report["datasets"]["yearly"]
    if "pairs" in block:
        return [pair["p"] for pair in block["pairs"]]
    return [block.get("friedman", block)["p"]]


def test_run_loads_no_report_module(tmp_path):
    train, test = [], []
    for i in range(1, 5):
        y = seasonal_series(n=24 + 3 * i, sp=1, level=40.0 + 5 * i,
                            slope=0.4 * i, amp=0.0, noise=0.05, seed=i).values
        train.append((f"Y{i}", y[:-6]))
        test.append((f"Y{i}", y[-6:]))
    write_m4_csv(tmp_path / "Yearly-train.csv", train)
    write_m4_csv(tmp_path / "Yearly-test.csv", test)
    out = tmp_path / "results.jsonl"

    child = json.loads(_run_child(
        [_SCRIPT, str(tmp_path), str(out), json.dumps(BANNED)], tmp_path))

    assert child["loaded"] == []
    records, _, _ = read_results(out)
    assert len(records) == 4 * 4
    for test in ("friedman", "nemenyi", "ttest"):
        expected = _p_values(stats_report(records, test=test))
        assert any(p is not None for p in expected), test
        assert _p_values(child["reports"][test]) == expected, test
    assert child["wilcoxon_error"] == "AllZeroDifferencesError"
    _, normal_p = wilcoxon_signed_rank(np.arange(1.0, 31.0), np.zeros(30))
    assert child["normal_p"] == normal_p
    assert child["compared"] > 0
    assert child["cli_code"] == 0
    assert (tmp_path / "stats.json").exists() and (tmp_path / "cd.svg").exists()


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = json.loads(_run_child([
        "import json, sys, ufcast.m4.cli; print(json.dumps(sorted("
        "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    ], tmp_path))
    assert loaded == []
