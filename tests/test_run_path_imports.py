"""The run path leaves out what only the report phase needs.

A fresh interpreter imports ``ufcast`` and ``ufcast.m4.cli`` and runs
``run()`` on a tiny yearly panel at ``jobs=1``, so that every model is fit
and the aggregate ranks them.  No module in ``BANNED`` (or below it) may be
loaded by then: ``scipy.stats`` costs about half a second of every
interpreter's start-up, and only the significance tests use it.  The same
interpreter then runs the Friedman and t-test reports, which import it on
demand, and must give the same p-values as this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ufcast.m4.reports import stats_report
from ufcast.m4.runner import read_results
from tests.conftest import seasonal_series, write_m4_csv

BANNED = ("scipy.stats",)

_SCRIPT = """
import json
import sys

import ufcast
import ufcast.m4.cli
from ufcast.m4.reports import stats_report
from ufcast.m4.runner import RunManifest, read_results, run

root, out, banned = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
run(RunManifest(datasets=["yearly"], models=["Naive", "Naive2", "SES", "Theta"],
                train_dir=root, test_dir=root, out_path=out, jobs=1))
loaded = sorted(name for name in sys.modules
                if any(name == b or name.startswith(b + ".") for b in banned))
records, _, _ = read_results(out)
reports = {test: stats_report(records, test=test)
           for test in ("friedman", "ttest")}
print(json.dumps({"loaded": loaded, "reports": reports}))
"""


def _p_values(report):
    block = report["datasets"]["yearly"]
    if "pairs" in block:
        return [pair["p"] for pair in block["pairs"]]
    return [block["p"]]


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

    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path), str(out),
         json.dumps(BANNED)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)

    assert child["loaded"] == []
    records, _, _ = read_results(out)
    assert len(records) == 4 * 4
    for test in ("friedman", "ttest"):
        expected = _p_values(stats_report(records, test=test))
        assert any(p is not None for p in expected), test
        assert _p_values(child["reports"][test]) == expected, test
