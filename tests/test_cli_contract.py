"""Every ``ufcast-m4`` command ends in exit status 0 or 2.

A property test calls ``cli.main(argv)`` in-process on generated M4 CSVs,
results files and published tables: valid ones first, then mutated (CRLF
line ends, a byte-order mark, blank lines, ragged rows, non-UTF-8 bytes,
huge and subnormal values, duplicate and missing ids, cells and quotes
running past the csv module's field limit, files cut at a random byte)
and with output paths in missing directories or naming existing
directories.  ``main`` must return 0 or 2 and raise nothing; a 2
must leave no output file and a 0 every output it names, and neither may
leave a temporary file.  Two subprocess cases check the real exit status.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ufcast.m4.cli import main
from ufcast.m4.runner import RunManifest, run
from tests.conftest import seasonal_series, write_m4_csv

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency; the property tests skip
    given = None

MODELS = "Naive,SES"
STATS_TESTS = ("friedman", "nemenyi", "wilcoxon_holm", "ttest")


def _write_yearly(root, n_series=3):
    """A valid yearly train/test pair (horizon 6) under ``root``."""
    train, test = [], []
    for i in range(1, n_series + 1):
        full = seasonal_series(n=14 + 2 * i + 6, sp=1, seed=i).values
        train.append((f"Y{i}", full[:-6]))
        test.append((f"Y{i}", full[-6:]))
    write_m4_csv(root / "Yearly-train.csv", train)
    write_m4_csv(root / "Yearly-test.csv", test)


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Bytes of a valid train CSV, test CSV, results file and published
    table that matches the results."""
    root = tmp_path_factory.mktemp("contract")
    _write_yearly(root)
    out = root / "results.jsonl"
    aggregate = run(RunManifest(
        datasets=["yearly"], models=MODELS.split(","), train_dir=str(root),
        test_dir=str(root), out_path=str(out)))
    lines = ["model,dataset,metric,value"]
    for model, entry in aggregate["datasets"]["yearly"]["models"].items():
        for metric, key in (("smape", "mean_smape"), ("mase", "mean_mase"),
                            ("owa", "owa")):
            if entry[key] is not None:
                lines.append(f"{model},yearly,{metric},{entry[key]!r}")
    return {
        "train": (root / "Yearly-train.csv").read_bytes(),
        "test": (root / "Yearly-test.csv").read_bytes(),
        "results": out.read_bytes(),
        "published": ("\n".join(lines) + "\n").encode(),
    }


def _files(root):
    """Every file and directory below ``root``, relative to it."""
    return {str(Path(d, name).relative_to(root))
            for d, dirs, files in os.walk(root) for name in dirs + files}


def _output(kind, root, name):
    """An output path: plain, in a missing directory, or a directory."""
    if kind == "dir":
        (root / name).mkdir()
        return root / name
    return root / ("nodir" if kind == "missing" else "") / name


def _call(argv):
    """``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


if given is not None:
    _HUGE = [b"1e308", b"-1.7976931348623157e308", b"1e309",
             b"123456789" * 40]
    _TINY = [b"5e-324", b"-2.2250738585072014e-308", b"1e-400"]
    _LONG = [b"1" * 131_073, b'"' + b"1.5," * 32_769]  # a cell, a quote

    @st.composite
    def mutated(draw, data: bytes) -> bytes:
        """``data`` with up to three mutations applied."""
        for _ in range(draw(st.integers(0, 3))):
            lines = data.split(b"\n")
            kind = draw(st.sampled_from([
                "crlf", "bom", "blank", "ragged", "non-utf8", "huge", "tiny",
                "duplicate", "drop", "no-id", "quote", "long-field", "cut"]))
            at = draw(st.integers(0, max(len(lines) - 2, 0)))
            if kind == "crlf":
                data = data.replace(b"\n", b"\r\n")
            elif kind == "bom":
                data = b"\xef\xbb\xbf" + data
            elif kind == "blank":
                data = b"\n".join(lines[:at] + [b""] + lines[at:])
            elif kind == "ragged":
                cells = lines[at].split(b",")
                keep = draw(st.integers(0, len(cells)))
                lines[at] = b",".join(cells[:keep] + [b""] * draw(
                    st.integers(0, 3)) + draw(st.sampled_from(
                        [[], [b"1.5"]])))
                data = b"\n".join(lines)
            elif kind == "non-utf8":
                i = draw(st.integers(0, len(data)))
                data = data[:i] + draw(st.sampled_from(
                    [b"\xff", b"\xc3", b"\x80\x80"])) + data[i:]
            elif kind in ("huge", "tiny"):
                value = draw(st.sampled_from(_HUGE if kind == "huge"
                                             else _TINY))
                numbers = [i for i, c in enumerate(data)
                           if chr(c).isdigit()
                           and (i == 0 or chr(data[i - 1]) in ",: ")]
                if numbers:
                    i = draw(st.sampled_from(numbers))
                    j = i
                    while j < len(data) and chr(data[j]) in "0123456789.e-+":
                        j += 1
                    data = data[:i] + value + data[j:]
            elif kind == "duplicate":
                data = b"\n".join(lines[:at + 1] + lines[at:])
            elif kind == "drop":
                data = b"\n".join(lines[:at] + lines[at + 1:])
            elif kind == "no-id":
                lines[at] = b"," + lines[at].partition(b",")[2]
                data = b"\n".join(lines)
            elif kind == "quote":
                i = draw(st.integers(0, len(data)))
                data = data[:i] + b'"' + data[i:]
            elif kind == "long-field":  # past the csv module's field limit
                i = draw(st.integers(0, len(data)))
                data = data[:i] + draw(st.sampled_from(_LONG)) + data[i:]
            else:  # cut
                data = data[:draw(st.integers(0, len(data)))]
        return data

    @st.composite
    def invocations(draw, inputs):
        """A function that writes the inputs of one command under a
        directory and returns its argv and the outputs it names."""
        command = draw(st.sampled_from(["run", "stats", "compare"]))
        files = {}
        if command == "run":
            files["Yearly-train.csv"] = draw(mutated(inputs["train"]))
            files["Yearly-test.csv"] = draw(mutated(inputs["test"]))
        else:
            files["results.jsonl"] = draw(mutated(inputs["results"]))
        if command == "compare" and draw(st.booleans()):
            files["published.csv"] = draw(mutated(inputs["published"]))
        kinds = st.sampled_from(["plain", "plain", "missing", "dir"])
        out_kind, svg_kind = draw(kinds), draw(kinds)
        test = draw(st.sampled_from(STATS_TESTS))
        svg = draw(st.booleans())

        def build(root):
            for name, data in files.items():
                (root / name).write_bytes(data)
            out = _output(out_kind, root, "out")
            if command == "run":
                argv = ["run", "--dataset", "yearly", "--models", MODELS,
                        "--train-dir", str(root), "--test-dir", str(root),
                        "--out", str(out)]
                return argv, [out]
            argv = [command, "--results", str(root / "results.jsonl"),
                    "--out", str(out)]
            outputs = [out]
            if "published.csv" in files:
                argv += ["--published", str(root / "published.csv")]
            if command == "stats":
                argv += ["--test", test]
                if svg:
                    outputs.append(_output(svg_kind, root, "cd.svg"))
                    argv += ["--svg", str(outputs[-1])]
            return argv, outputs

        return build


def test_every_command_ends_in_0_or_2(valid_inputs):
    if given is None:
        pytest.skip("hypothesis is not installed")

    @settings(max_examples=150)
    @given(invocations(valid_inputs))
    def check(build):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            argv, outputs = build(root)
            before = _files(root)
            code, err = _call(argv)
            assert code in (0, 2), (argv, err)
            after = _files(root)
            assert not [f for f in after if f.endswith(".tmp")], argv
            if code == 2:
                assert err and after == before, (argv, err)
            else:
                assert all(p.is_file() for p in outputs), argv
                assert after - before == {
                    str(p.relative_to(root)) for p in outputs} - before

    check()


def _module(argv, cwd):
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "ufcast.m4.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("cut", [False, True], ids=["valid", "cut"])
def test_exit_status_of_the_module(valid_inputs, tmp_path, cut):
    results = valid_inputs["results"]
    if cut:  # a line cut in two: refused with its file and line
        results = results[:results.index(b"\n") + 30]
    (tmp_path / "r.jsonl").write_bytes(results)
    proc = _module(["stats", "--results", "r.jsonl", "--test", "friedman",
                    "--out", "s.json"], tmp_path)
    if cut:
        assert proc.returncode == 2
        assert proc.stderr == ("malformed row at line 2 of r.jsonl: "
                               "not a JSON object in UTF-8\n")
        assert sorted(os.listdir(tmp_path)) == ["r.jsonl"]
    else:
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "s.json").read_text())["test"] == (
            "friedman")
        assert sorted(os.listdir(tmp_path)) == ["r.jsonl", "s.json"]
