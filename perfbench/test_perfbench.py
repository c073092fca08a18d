"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import scipy.optimize  # noqa: E402

import ufcast  # noqa: E402
import declared  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from generate import SeriesSpec  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = workloads.Workload(
    "tiny", "runner", ("Naive", "SES", "Theta", "LR-s", "KNN-s"),
    (SeriesSpec("yearly", 5, (13, 20)), SeriesSpec("monthly", 5, (42, 60))),
)
TINY_ROLLING = workloads.Workload(
    "tiny-rolling", "rolling", ("SES", "LR-s", "Holt-fixed"),
    (SeriesSpec("hourly", 2, (120, 144), choices=True),), test_length=60,
)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# -- generator -------------------------------------------------------------

def test_generator_is_deterministic_per_seed(tmp_path):
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / sub).mkdir()
        workloads.make_inputs(TINY, seed, tmp_path / sub)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generated_series_are_positive_and_sized(tmp_path):
    inputs = workloads.make_inputs(workloads.WORKLOADS["reduction"], 3, tmp_path)
    (data,) = inputs.values()
    assert sorted({train.size for _, train, _ in data}) == [700, 960]
    for _, train, test in data:
        assert test.size == 48
        assert (train > 0).all() and (test > 0).all()


def test_smoothing_panel_does_not_move_with_the_seed(tmp_path):
    smoothing = workloads.WORKLOADS["smoothing"]
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        workloads.make_inputs(smoothing, seed, tmp_path / str(seed))
    assert _files(tmp_path / "1") == _files(tmp_path / "2")


# -- outputs ---------------------------------------------------------------

def test_job_count_does_not_change_the_digest(tmp_path):
    inputs = workloads.make_inputs(TINY, 5, tmp_path)
    one = workloads.one_pass(TINY, inputs, tmp_path, jobs=1)
    two = workloads.one_pass(TINY, inputs, tmp_path, jobs=2)
    assert one.problems == [] and two.problems == []
    assert one.tasks == 60 and one.failed == 0
    assert one.digest == two.digest


def test_digest_ignores_runtimes_only():
    row = '{"type": "record", "smape": 1.5, "runtime_s": 0.25}\n'
    assert (workloads.stripped_digest(row)
            == workloads.stripped_digest(row.replace("0.25", "3e-05")))
    assert (workloads.stripped_digest(row)
            != workloads.stripped_digest(row.replace("1.5", "1.25")))


def test_check_reports_a_wrong_row_order(tmp_path):
    inputs = workloads.make_inputs(TINY, 5, tmp_path)
    result = workloads.one_pass(TINY, inputs, tmp_path, jobs=1)
    path = tmp_path / "results.jsonl"
    lines = path.read_text().splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    path.write_text("\n".join(lines) + "\n")
    checked = workloads.PassResult(wall=1.0)
    workloads.check_runner_output(path, TINY, inputs, checked)
    assert any("canonical order" in p for p in checked.problems)
    assert checked.digest != result.digest


def test_rolling_pass_checks_every_origin(tmp_path):
    inputs = workloads.make_inputs(TINY_ROLLING, 1, tmp_path)
    result = workloads.one_pass(TINY_ROLLING, inputs, tmp_path, jobs=1)
    assert result.problems == []
    assert result.tasks == 6
    assert set(result.model_seconds) == set(TINY_ROLLING.models)
    assert result.smape_mean > 0 and result.mase_mean > 0


# -- tracing ---------------------------------------------------------------

def _attributes():
    """Every attribute the tracer may touch, by identity."""
    owners = [scipy.optimize]
    for module in (ufcast.core, ufcast.transforms, ufcast.compose,
                   ufcast.regress, ufcast.select, ufcast.forecasters,
                   ufcast.m4.runner, ufcast.m4.reports):
        owners.append(module)
        owners += [obj for obj in vars(module).values() if inspect.isclass(obj)]
    return {(id(owner), name): value for owner in owners
            for name, value in list(vars(owner).items())}


def test_tracer_restores_every_attribute():
    before = _attributes()
    fit = ufcast.core.BaseForecaster.fit
    with Tracer():
        assert ufcast.core.BaseForecaster.fit is not fit
        assert scipy.optimize.minimize.__wrapped__ is not None
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_error():
    fit = ufcast.core.BaseForecaster.fit
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert ufcast.core.BaseForecaster.fit is fit


def test_traced_pass_gives_every_per_layer_metric(tmp_path):
    inputs = workloads.make_inputs(TINY, 2, tmp_path)
    untraced = workloads.one_pass(TINY, inputs, tmp_path, jobs=1)
    tracer = Tracer()
    with tracer:
        traced = workloads.one_pass(TINY, inputs, tmp_path, 1, call=tracer.call)
    assert traced.digest == untraced.digest
    values = metrics.layer_metrics(tracer.spans, traced, untraced, untraced, 1)
    assert set(values) == set(declared.PER_LAYER)
    assert values["core.fit.calls"] > 0
    assert values["forecasters.holt.fit.calls"] == 0
    assert values["m4.datasets.series"] == 10


# -- declarations ----------------------------------------------------------

def test_benchmark_json_matches_the_declarations():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == [
        (n, u, b, bound) for n, (u, b, bound) in declared.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        (n, u, b) for n, (u, b, _) in declared.PER_LAYER.items()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "reduction", "--seed", "1",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for name, unit in ((m["name"], m["unit"]) for m in BENCHMARK[section]):
        assert result["metrics"][name]["unit"] == unit
        assert f"  {name} " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "harness", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
