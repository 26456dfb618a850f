import base64
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tcpci.catalog import CATALOG
import tcpci
from tcpci import cli, code_analysis, ingest, synth
from tcpci.code_analysis import source_row
from tcpci.cli import main
from tcpci.errors import DuplicateRecordError, SchemaError
from tcpci.evaluation import PipelineEvaluator
from tcpci.ingest import DatasetLayout, ingest_exec_records
from tcpci.model import MAX_BUILD_ID, ExecutionRecord, Verdict
from tcpci.ranker import Hyperparams, rank_tests
from tcpci.synth import SynthConfig, load_sources
from tcpci.trees import NODE_ARRAYS, pack_nodes

SYNTH_CFG = {
    "n_files": 30,
    "n_tests": 15,
    "n_builds": 15,
    "files_per_build": 4,
}

HP_FLAGS = ["--bags", "6", "--trees-per-bag", "2", "--max-leaves", "16"]
# every hyperparameter a model file must declare, for a one-stump model
HYPERPARAMS = {"n_bags": 1, "trees_per_bag": 1, "max_leaves": 2, "shrinkage": 0.2,
               "sample_rate": 0.5, "feature_rate": 0.3}


def model_arg(feature_idx=(0,), bag=None, model=None, trees=None, **arrays):
    """An "@" model-file argument: one bag of one stump, packed as a trained
    model is, with node ``arrays`` replaced before packing, and packed
    ``trees`` keys, ``bag`` keys and top-level ``model`` keys after it."""
    stump = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
             "right": [2, -1, -1], "value": [0.0, 0.0, 1.0], **arrays}
    nodes = pack_nodes([3], *(stump[a] for a in NODE_ARRAYS))
    nodes["trees"].update(trees or {})
    bag = {"feature_idx": list(feature_idx), "base": 0.0, **(bag or {})}
    return "@" + json.dumps({
        "catalog_fingerprint": CATALOG.fingerprint(), "seed": 0,
        "hyperparams": HYPERPARAMS, "bags": [bag], **nodes, **(model or {}),
    })


#: An argument that names a directory where a file is expected.
DIRECTORY = object()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    cfg = tmp_path_factory.mktemp("cli-cfg") / "synth.json"
    cfg.write_text(json.dumps(SYNTH_CFG))
    assert main(["synth", "--out", str(root), "--config", str(cfg), "--seed", "7"]) == 0
    return root


def history_of(dataset):
    return ingest_exec_records(DatasetLayout(dataset))


def test_synth_writes_expected_layout(dataset):
    assert (dataset / "builds.csv").is_file()
    assert (dataset / "exec_records.csv").is_file()
    assert (dataset / "commits.jsonl").is_file()
    assert (dataset / "src").is_dir()
    history = history_of(dataset)
    assert len(history.builds) == SYNTH_CFG["n_builds"]
    assert len(history.failed_builds) >= 3  # needed by the tests below


def test_extract_row_count(dataset, tmp_path, capsys):
    history = history_of(dataset)
    build = history.builds[-1]
    out = tmp_path / "m.csv"
    assert main(["extract", str(dataset), "--build", str(build.id), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(build.records)
    assert capsys.readouterr().out.strip() == str(out)


def test_unknown_build_exits_2(dataset, capsys):
    assert main(["extract", str(dataset), "--build", "9999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_train_then_prioritize(dataset, tmp_path, capsys):
    history = history_of(dataset)
    target = history.failed_builds[-1]
    model = tmp_path / "model.json"
    rc = main(
        ["train", str(dataset), "--until", str(target.id), "--out", str(model), *HP_FLAGS]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        ["prioritize", str(dataset), "--build", str(target.id), "--model", str(model)]
    )
    assert rc == 0
    ranked = capsys.readouterr().out.splitlines()
    assert sorted(ranked) == sorted(target.tests)
    # the written model ranks the build on the features it was trained on
    ev = PipelineEvaluator(history, load_sources(DatasetLayout(dataset)),
                           Hyperparams(n_bags=6, trees_per_bag=2, max_leaves=16))
    assert ranked == rank_tests(ev.model_for(target.id), ev.matrix(target.id))


def test_train_without_prior_failures_exits_3(dataset, capsys):
    history = history_of(dataset)
    first_failed = history.failed_builds[0]
    rc = main(
        ["train", str(dataset), "--until", str(first_failed.id), "--out", "/tmp/x.json"]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:")


def test_missing_model_exits_2(dataset, capsys):
    history = history_of(dataset)
    rc = main(
        [
            "prioritize",
            str(dataset),
            "--build",
            str(history.builds[-1].id),
            "--model",
            "/nonexistent/model.json",
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_deterministic(dataset, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["evaluate", str(dataset), "--max-builds", "3", "--seed", "5", *HP_FLAGS]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "apfdc.csv").read_text() == (out2 / "apfdc.csv").read_text()
    assert sorted(p.name for p in out1.iterdir()) == ["apfdc.csv", "report.json", "timing.csv"]
    out = capsys.readouterr().out
    assert "full: mean APFD_C" in out
    assert "random: mean APFD_C 0.5000 (sd 0.0000)" in out


def test_decay_writes_curve(dataset, tmp_path, capsys):
    out = tmp_path / "decay.csv"
    rc = main(
        [
            "decay",
            str(dataset),
            "--max-builds",
            "2",
            "--max-rw",
            "3",
            "--out",
            str(out),
            *HP_FLAGS,
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rw,mean_apfdc,n_pairs"
    assert len(lines) >= 2
    assert "slope over RW" in capsys.readouterr().out


def test_flag_overrides_config(dataset, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_builds": 1, "seed": 5}))
    base = [
        "evaluate", str(dataset), "--config", str(cfg), *HP_FLAGS,
    ]
    out1 = tmp_path / "from-config"
    assert main(base + ["--out", str(out1)]) == 0
    report = json.loads((out1 / "report.json").read_text())
    assert len(report["builds_evaluated"]) == 1
    assert report["config"]["max_builds"] == 1

    out2 = tmp_path / "from-flag"
    assert main(base + ["--max-builds", "2", "--out", str(out2)]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert len(report["builds_evaluated"]) == 2
    assert report["config"]["max_builds"] == 2
    capsys.readouterr()


def test_corrupt_exec_records_exits_2(dataset, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(dataset, broken)
    path = broken / "exec_records.csv"
    lines = path.read_text().splitlines()
    lines[1] = "not-an-int,job,foo.java,0,1.0"
    path.write_text("\n".join(lines) + "\n")
    assert main(["extract", str(broken), "--build", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


RISK = {"lines_added": 1, "lines_deleted": 0, "low_size": True, "low_complexity": True,
        "low_interfacing": True}


@pytest.mark.parametrize(
    "edit",
    [
        {"duration_ms": "nan"},
        {"duration_ms": "inf"},
        {"message": 5},
        {"author": None},
        {"path": 1},
        {"added": 3.7},
        {"added": True},
        {"deleted": "2"},
        {"added_chunks": [2.5]},
        {"unit_risks": [{**RISK, "lines_added": "x"}]},
        {"unit_risks": [{**RISK, "low_size": 1}]},
        {"unit_risks": [{**RISK, "lines_deleted": -1}]},
        {"commit": "repeated"},
        {"exec_records.csv": b"2,j9\n"},
        {"exec_records.csv": b"1,j9,src/test/XTest.java,0,1.0,extra\n"},
        {"exec_records.csv": b"1,j9,src/test/\xffTest.java,0,1.0\n"},
        {"builds.csv": b"99,2024-01-01T00:00:00+00:00\n"},
        {"builds.csv": b"99\n"},
        {"builds.csv": b"0,2024-01-01T00:00:00+00:00,\n"},
        {"builds.csv": b"99,2024-01-01T00:00:00\xff,\n"},
        {"builds.csv": b'99,2024-01-01T00:00:00+00:00,"' + b"a" * 40 + b'\n"\n'},
        {"commits.jsonl": b'{"hash": "\xff"}\n'},
        {"commits.jsonl": b"[" * 100_000 + b"\n"},
    ],
    ids=[
        "duration-nan", "duration-inf", "message-int", "author-null", "path-int",
        "added-fraction", "added-bool", "deleted-string", "chunk-start-fraction",
        "unit-risk-lines-string", "unit-risk-flag-int", "unit-risk-lines-negative",
        "commit-repeated",
        "record-short", "record-long", "record-not-utf8", "build-no-commits",
        "build-no-timestamp", "build-id-0", "build-not-utf8", "build-hash-final-lf", "commit-not-utf8",
        "commit-nested-deep",
    ],
)
def test_malformed_dataset_value_exits_2(dataset, tmp_path, capsys, edit):
    # one value of the first execution record, of the last commit or of its
    # first file, a second line for the last commit with another message, or
    # a line appended to a file
    broken = tmp_path / "broken"
    shutil.copytree(dataset, broken)
    ((key, value),) = edit.items()
    if key in ("exec_records.csv", "builds.csv", "commits.jsonl"):
        with open(broken / key, "ab") as f:
            f.write(value)
    elif key == "duration_ms":
        path = broken / "exec_records.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
    else:
        path = broken / "commits.jsonl"
        lines = path.read_text().splitlines()
        commit = json.loads(lines[-1])
        if key == "commit":
            lines.append(json.dumps({**commit, "message": commit["message"] + " again"}))
        else:
            (commit if key in ("author", "message") else commit["files"][0])[key] = value
            lines[-1] = json.dumps(commit)
        path.write_text("\n".join(lines) + "\n")
    build = history_of(dataset).builds[-1]
    assert main(["extract", str(broken), "--build", str(build.id)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if key in ("exec_records.csv", "builds.csv", "commits.jsonl"):
        # an appended line is reported at its own file and line
        assert re.search(rf"{re.escape(key)}:\d+: ", err), err


def _corrupt(data: bytes, row: int, how: tuple) -> bytes:
    """``data`` with one data row changed: a field dropped, added or replaced
    by text or bytes, or the file cut inside the row."""
    lines = data.split(b"\n")
    if len(lines) < 2:  # no row left after an earlier cut
        return data
    i = 1 + row % (len(lines) - 1)
    fields = lines[i].split(b",")
    if how[0] == "cut":
        return b"\n".join(lines[:i] + [lines[i][: how[1] % (len(lines[i]) + 1)]])
    if how[0] == "drop":
        del fields[how[1] % len(fields)]
    elif how[0] == "add":
        fields.append(how[1])
    else:
        fields[how[1] % len(fields)] = how[2]
    lines[i] = b",".join(fields)
    return b"\n".join(lines)


_CORRUPTIONS = st.lists(
    st.tuples(
        st.sampled_from(["builds.csv", "exec_records.csv"]),
        st.integers(0, 10**6),
        st.one_of(
            st.tuples(st.just("cut"), st.integers(0, 100)),
            st.tuples(st.just("drop"), st.integers(0, 4)),
            st.tuples(st.just("add"), st.binary(max_size=6)),
            st.tuples(st.just("set"), st.integers(0, 4), st.text(max_size=8).map(str.encode)),
            st.tuples(st.just("set"), st.integers(0, 4), st.binary(max_size=8)),
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(corruptions=_CORRUPTIONS)
def test_corrupt_dataset_rows_never_crash(dataset, corruptions):
    # extract on a dataset with corrupted CSV rows exits with a documented
    # code (0, 2, 3 or 4); an uncaught exception would fail the test
    build = history_of(dataset).builds[-1]
    with tempfile.TemporaryDirectory() as tmp:
        broken = Path(tmp)
        for name in ("builds.csv", "exec_records.csv", "commits.jsonl"):
            shutil.copy(dataset / name, broken / name)
        (broken / "src").symlink_to(dataset / "src")
        for name, row, how in corruptions:
            path = broken / name
            path.write_bytes(_corrupt(path.read_bytes(), row, how))
        assert main(["extract", str(broken), "--build", str(build.id)]) in (0, 2, 3, 4)


def _dict_rows(path: Path, required: set[str]):
    """(line, row) for each record of a dataset CSV, read with
    ``csv.DictReader``: a second CSV record reader, for the references.  A
    ``csv.Error`` names the physical line it is raised on, which is that of
    the underlying reader: the DictReader's is that of the last record."""
    with contextlib.closing(ingest._lines(path, newline="")) as lines:
        reader = csv.DictReader(lines)
        try:
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise SchemaError(f"{path}: header must contain {sorted(required)}")
            for row in reader:
                if None in row or None in row.values():
                    raise SchemaError(
                        f"{path}:{reader.line_num}: a record must have the header's "
                        f"{len(reader.fieldnames)} fields"
                    )
                yield reader.line_num, row
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.reader.line_num}: {exc}") from exc


def _id_in_range(build_id: int, where: str) -> int:
    if not 1 <= build_id <= MAX_BUILD_ID:
        raise SchemaError(f"{where}: build_id must be in [1, {MAX_BUILD_ID}], got {build_id}")
    return build_id


def rows_reference(path: Path) -> dict:
    """A row-at-a-time ``exec_records.csv`` reader:
    {build: [(test, verdict, duration)]} of each build's primary job in
    test order, or the exception of the first bad record."""
    per_build: dict[int, dict[str, list[ExecutionRecord]]] = {}
    seen: set[tuple[int, str, str]] = set()
    required = {"build_id", "job_id", "test_path", "verdict", "duration_ms"}
    for lineno, row in _dict_rows(path, required):
        try:
            build_id = _id_in_range(int(row["build_id"]), f"{path}:{lineno}")
            verdict = Verdict(int(row["verdict"]))
            duration = float(row["duration_ms"])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from exc
        test = row["test_path"]
        if not test:
            raise SchemaError(f"{path}:{lineno}: empty test_path")
        key = (build_id, row["job_id"], test)
        if key in seen:
            raise DuplicateRecordError(f"{path}:{lineno}: duplicate record {key}")
        seen.add(key)
        if not 0 <= duration < math.inf:
            raise SchemaError(
                f"{path}:{lineno}: duration_ms must be finite and >= 0, "
                f"got {row['duration_ms']!r}"
            )
        rec = ExecutionRecord(build_id, test, verdict, duration)
        per_build.setdefault(build_id, {}).setdefault(row["job_id"], []).append(rec)
    out = {}
    for build_id, jobs in per_build.items():
        primary = min(jobs, key=lambda j: (-len({r.test for r in jobs[j]}), j))
        records = sorted(jobs[primary], key=lambda r: r.test)
        out[build_id] = [(r.test, int(r.verdict), r.duration_ms.hex()) for r in records]
    return out


def builds_reference(path: Path) -> list:
    """A row-at-a-time ``builds.csv`` reader: (id, timestamp, commits) of
    each record, or the exception of the first bad record."""
    rows = []
    for lineno, row in _dict_rows(path, {"build_id", "timestamp_iso8601", "commits"}):
        try:
            build_id = int(row["build_id"])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: bad build_id {row['build_id']!r}") from exc
        _id_in_range(build_id, f"{path}:{lineno}")
        ts = ingest._parse_timestamp(row["timestamp_iso8601"], f"{path}:{lineno}")
        commits = tuple(c for c in row["commits"].split(";") if c)
        for c in commits:
            if not re.fullmatch("[0-9a-f]{40}", c):
                raise SchemaError(f"{path}:{lineno}: {c!r} is not a 40-hex commit hash")
        rows.append((build_id, ts, commits))
    if len({r[0] for r in rows}) != len(rows):
        raise SchemaError(f"{path}: duplicate build ids")
    return rows


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    corruptions=_CORRUPTIONS,
    copies=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["j0", "j1"])), max_size=3),
)
def test_exec_reader_matches_row_reference(dataset, corruptions, copies):
    # the reader gives the reference's records or raises its error; copied
    # rows, under their own job or another, add duplicate records and
    # second jobs
    def columns(path):
        return {
            build_id: [(t, v, d.hex()) for t, v, d in zip(tests, verdicts.tolist(), durations.tolist())]
            for build_id, (tests, verdicts, durations) in ingest._read_exec_records_csv(path).items()
        }

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exec_records.csv"
        lines = (dataset / "exec_records.csv").read_bytes().splitlines(keepends=True)
        for row, job in copies:
            fields = lines[1 + row % (len(lines) - 1)].split(b",")
            lines.append(b",".join([fields[0], job.encode(), *fields[2:]]))
        path.write_bytes(b"".join(lines))
        for _, row, how in corruptions:
            path.write_bytes(_corrupt(path.read_bytes(), row, how))
        assert _outcome(columns, path) == _outcome(rows_reference, path)


# per header name, (good values, bad values)
_BUILDS_VALUES = {
    "build_id": (["1", "2", "3", "9223372036854775807", " 2"],
                 ["0", "9223372036854775808", "-9223372036854775809", "x", ""]),
    "timestamp_iso8601": (["2024-01-01T00:00:00+00:00", "2024-01-01"], ["2024-13-01", ""]),
    "commits": (["", "a" * 40, "a" * 40 + ";" + "b" * 40, ";"], ["A" * 40, '"' + "a" * 40 + '\n"']),
    "other": (["", "o"], []),
}
_SPECIAL_VALUES = ['"q,\r\n"', '"\r"', "\r", '"a""b"', '"open', "x" * 131073]


@st.composite
def _builds_csvs(draw):
    """Text of a ``builds.csv``: repeated, extra and missing header names,
    short and long records, blank lines, quoted CR/LF and a field longer
    than the csv module's limit."""

    def one_in(n: int) -> bool:
        return draw(st.sampled_from(range(n))) == n - 1

    header = list(draw(st.permutations(["build_id", "timestamp_iso8601", "commits"])))
    for name in draw(st.lists(st.sampled_from(["build_id", "commits", "other"]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    if one_in(10):
        del header[draw(st.integers(0, len(header) - 1))]
    lines = []
    for _ in range(draw(st.sampled_from(range(6)))):
        if one_in(6):
            lines.append("")
            continue
        fields = [draw(st.sampled_from(_BUILDS_VALUES[name][one_in(10) and name != "other"]))
                  for name in header]
        if one_in(6):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_SPECIAL_VALUES))
        if one_in(8):
            fields.pop()
        elif one_in(8):
            fields.append("extra")
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["", "\n", "\r\n"]))
    return "\n".join([",".join(header), *lines]) + end


@settings(max_examples=500, deadline=None)
@given(text=_builds_csvs())
def test_builds_reader_matches_row_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "builds.csv"
        path.write_text(text, newline="")
        assert _outcome(ingest._read_builds_csv, path) == _outcome(builds_reference, path)


@pytest.mark.parametrize(
    "builds_id, exec_id, error",
    [(2**63, 2**63, "builds.csv:2: build_id must be in"),
     (1, -2**63 - 1, "exec_records.csv:2: build_id must be in"),
     (1, 0, "exec_records.csv:2: build_id must be in")],
    ids=["both-2**63", "exec-below-int64", "exec-0"],
)
def test_build_id_out_of_range_exits_2(tmp_path, capsys, builds_id, exec_id, error):
    # an id an int64 cannot hold once made a traceback of numpy's
    sha = "a" * 40
    root = tmp_path / "ds"
    root.mkdir()
    (root / "builds.csv").write_text(
        f"build_id,timestamp_iso8601,commits\n{builds_id},2024-01-01T00:00:00+00:00,{sha}\n")
    (root / "exec_records.csv").write_text(
        f"build_id,job_id,test_path,verdict,duration_ms\n{exec_id},j0,t.java,0,1.0\n")
    (root / "commits.jsonl").write_text(json.dumps(
        {"hash": sha, "timestamp": "2024-01-01T00:00:00+00:00", "author": "dev",
         "message": "m", "files": [{"path": "t.java", "added": 1, "deleted": 0}]}) + "\n")
    assert main(["extract", str(root), "--build", str(builds_id)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and error in err and "Traceback" not in err


def test_invalid_config_exits_2(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evaluate", str(dataset), "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_synth_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"n_tests": 5, "bogus_knob": 1}))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_null_synth_config_key_sets_nothing(tmp_path):
    # a null generator key is left out, as a null key of a flag is
    cfg = {"n_tests": 5, "n_builds": 4}
    written = []
    for name, keys in (("absent", cfg), ("null", {**cfg, "n_files": None, "seed": None})):
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(keys))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(out), "--config", str(path)]) == 0
        written.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert written[0] == written[1]



@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--max-builds", "0"],
        ["decay", "--max-builds", "-1"],
        ["decay", "--config", '{"max_builds": true}'],
        ["decay", "--max-rw", "-1"],
        ["decay", "--config", '{"max_rw": 1.5}'],
        ["evaluate", "--heuristic", "NoSuchFeature:desc"],
        ["evaluate", "--heuristic", "F_FailRate_Total:sideways"],
        ["decay", "--max-rw", "0"],
    ],
)
def test_invalid_evaluation_option_exits_2_before_feature_work(
    dataset, tmp_path, capsys, monkeypatch, argv
):
    def no_features(*args, **kwargs):
        raise AssertionError("features were computed for invalid options")

    monkeypatch.setattr("tcpci.evaluation.FeatureExtractor", no_features)
    if argv[1] == "--config":
        path = tmp_path / "config.json"
        path.write_text(argv[2])
        argv = [argv[0], "--config", str(path)]
    assert main([argv[0], str(dataset), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_decay_with_a_single_rw_cell_exits_3_before_feature_work(dataset, capsys, monkeypatch):
    # one evaluated build, the last failed one, leaves only the RW 0 cell,
    # and a curve of one cell has no slope
    def no_features(*args, **kwargs):
        raise AssertionError("features were computed for a curve of one cell")

    monkeypatch.setattr("tcpci.evaluation.FeatureExtractor", no_features)
    assert main(["decay", str(dataset), "--max-builds", "1"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_recent_window_longer_than_the_table_reads_the_whole_table(dataset, tmp_path, capsys):
    history = history_of(dataset)
    rows = sum(len(b.tests) for b in history.builds)
    outs = []
    for window in (10**20, rows):
        cfg, out = tmp_path / f"{window}.json", tmp_path / f"{window}.csv"
        cfg.write_text(json.dumps({"recent_window": window}))
        argv = ["extract", str(dataset), "--build", str(history.builds[-1].id),
                "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_directory_named_like_a_java_file_is_not_a_source(dataset, tmp_path, capsys):
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    (copy / "src" / "app" / "Dir.java").mkdir()
    build = str(history_of(dataset).builds[-1].id)
    outs = []
    for root in (dataset, copy):
        out = tmp_path / f"{root.name}-{len(outs)}.csv"
        assert main(["extract", str(root), "--build", build, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--max-builds", "0"],
        ["evaluate", "--max-builds", "-1"],
        ["decay", "--max-rw", "-1"],
        ["evaluate", "--bags", "0"],
        ["evaluate", "--recent-window", "0"],
        ["evaluate", "--config", '@{"bags": "many"}'],
        ["prioritize", "--build", "1", "--model", "@" + json.dumps(pack_nodes([], *[[]] * 5))],
        ["prioritize", "--build", "1", "--model", "@{not json"],
        ["prioritize", "--build", "1", "--model", '@{"version": 2}'],
        [
            "prioritize", "--build", "1", "--model",
            model_arg(model={"hyperparams": {**HYPERPARAMS, "n_bags": "x"}}),
        ],
        ["prioritize", "--build", "1", "--model", model_arg(model={"bags": []})],
        ["evaluate", "--impact-depth", "-1"],
        ["evaluate", "--config", '@{"impact_depth": "x"}'],
        ["evaluate", "--seed", "-1"],
        ["train", "--until", "15", "--out", "@", "--seed", "-1"],
        ["synth", "--seed", "-1"],
        ["evaluate", "--config", '@{"seed": "x"}'],
        ["evaluate", "--config", '@{"seed": 1.5}'],
        ["evaluate", "--config", '@{"heuristic": 5}'],
        ["evaluate", "--heuristic", "NoSuchFeature:desc"],
        ["evaluate", "--config", '@{"shrinkage": "0.1"}'],
        ["evaluate", "--config", '@{"shrinkage": 0}'],
        ["evaluate", "--config", '@{"shrinkage": -1}'],
        ["evaluate", "--config", '@{"bags": 2.5}'],
        ["evaluate", "--config", '@{"bags": true}'],
        ["evaluate", "--config", '@{"max_leaves": 3.5}'],
        ["evaluate", "--config", '@{"recent_window": 2.5}'],
        ["evaluate", "--config", '@{"recent_window": true}'],
        ["evaluate", "--config", '@{"impact_depth": true}'],
        ["evaluate", "--config", '@{"sample_rate": true}'],
        ["evaluate", "--config", '@{"feature_rate": true}'],
        ["prioritize", "--build", "1", "--model", model_arg(feature_idx=[999])],
        ["prioritize", "--build", "1", "--model", model_arg(feature_idx=[-1])],
        ["prioritize", "--build", "1", "--model", model_arg(feature_idx=[10**30])],
        ["prioritize", "--build", "1", "--model", model_arg(left=[7, -1, -1])],
        ["prioritize", "--build", "1", "--model", model_arg(left=[0, -1, -1])],
        ["prioritize", "--build", "1", "--model", model_arg(value=[0.0, 1.0])],
        ["prioritize", "--build", "1", "--model", model_arg(feature=[1, -1, -1])],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"feature": 0.5})],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"left": True})],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"right": 2.0})],
        ["prioritize", "--build", "1", "--model", model_arg(feature_idx=[0, 1.7])],
        ["prioritize", "--build", "1", "--model", model_arg(model={"version": True})],
        ["prioritize", "--build", "1", "--model", model_arg(model={"seed": True})],
        ["prioritize", "--build", "1", "--model", model_arg(bag={"base": True})],
        [
            "prioritize", "--build", "1", "--model",
            model_arg(model={"hyperparams": {**HYPERPARAMS, "trees_per_bag": 2}}),
        ],
        [
            "prioritize", "--build", "1", "--model",
            model_arg(model={"catalog_fingerprint": "deadbeef"}),
        ],
        ["prioritize", "--build", "1", "--model", model_arg(model={"catalog_fingerprint": ["x"]})],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"threshold": "0.5"})],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"value": True})],
        [
            "prioritize", "--build", "1", "--model",
            model_arg(model={
                "hyperparams": {k: v for k, v in HYPERPARAMS.items() if k != "shrinkage"}
            }),
        ],
        ["evaluate", "--config", '@{"max_bulds": 3}'],
        ["extract", "--build", "1", "--config", '@{"impact_dept": -5, "max_rw": -3}'],
        ["extract", "--build", "1", "--config", '@{"seed": 3}'],
        ["evaluate", "--config", '@{"max_builds": true}'],
        ["decay", "--config", '@{"max_rw": true}'],
        ["synth", "--config", '@{"n_tests": "x"}'],
        ["synth", "--config", '@{"base_failure": "x"}'],
        ["synth", "--config", '@{"files_per_build": 500}'],
        ["synth", "--config", '@{"n_builds": true}'],
        ["synth", "--config", '@{"n_builds": -1}'],
        ["synth", "--config", '@{"flaky_prob": 1.5}'],
        ["evaluate", "--config", "@" + "[" * 100_000],
        ["prioritize", "--build", "1", "--model", "@" + "[" * 100_000],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"left": "AAAA*AAAAAAAAAAA"})],
        [
            "prioritize", "--build", "1", "--model",
            model_arg(trees={"right": base64.b64encode(bytes(10)).decode()}),
        ],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"sizes": [4]})],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"sizes": [True]})],
        ["prioritize", "--build", "1", "--model", model_arg(trees={"sizes": [3.0]})],
        ["prioritize", "--build", "1", "--model", model_arg(model={"version": 1})],
        ["prioritize", "--build", "1", "--model", model_arg(model={"version": 3})],
        ["prioritize", "--build", "1", "--model", b"\xff\xfe{}"],
        ["prioritize", "--build", "1", "--model", DIRECTORY],
        ["evaluate", "--config", b'{"seed": "\xff"}'],
        ["extract", "--build", "1", "--config", DIRECTORY],
        ["evaluate", "--config", f'@{{"shrinkage": {10**400}}}'],
        [
            "prioritize", "--build", "1", "--model",
            model_arg(model={"hyperparams": {**HYPERPARAMS, "shrinkage": 10**400}}),
        ],
        ["train", "--until", "15", "--out", DIRECTORY],
        ["extract", "--build", "1", "--out", DIRECTORY],
        ["decay", "--out", DIRECTORY],
        ["evaluate", "--out", "@"],
    ],
    ids=[
        "max-builds-0", "max-builds-negative", "max-rw-negative", "bags-0",
        "recent-window-0", "config-wrong-type", "model-missing-keys", "model-bad-json",
        "model-version-2", "model-wrong-type", "model-bag-count", "impact-depth-negative",
        "impact-depth-wrong-type", "seed-negative-evaluate", "seed-negative-train",
        "seed-negative-synth", "seed-string", "seed-fraction", "heuristic-wrong-type",
        "heuristic-unknown", "shrinkage-string", "shrinkage-zero", "shrinkage-negative",
        "bags-fraction", "bags-bool", "max-leaves-fraction", "recent-window-fraction",
        "recent-window-bool", "impact-depth-bool", "sample-rate-bool", "feature-rate-bool",
        "model-feature-idx-high", "model-feature-idx-negative", "model-feature-idx-overflow",
        "model-child-past-end", "model-child-self-loop", "model-arrays-differ",
        "model-split-feature-outside-bag", "model-feature-fraction", "model-left-bool",
        "model-right-float", "model-feature-idx-fraction", "model-version-bool",
        "model-seed-bool", "model-base-bool", "model-tree-count", "model-fingerprint-other",
        "model-fingerprint-list", "model-threshold-string", "model-value-bool",
        "model-hyperparams-missing", "config-misspelt-key",
        "config-keys-of-other-flags", "config-seed-on-extract", "max-builds-bool",
        "max-rw-bool", "synth-n-tests-string", "synth-base-failure-string",
        "synth-files-per-build-above-n-files", "synth-n-builds-bool", "synth-n-builds-negative",
        "synth-probability-above-1", "config-nested-deep", "model-nested-deep",
        "model-left-not-base64", "model-right-partial-item", "model-nodes-not-sizes",
        "model-sizes-bool", "model-sizes-float", "model-version-1", "model-version-3",
        "model-not-utf8", "model-directory", "config-not-utf8", "config-directory",
        "shrinkage-above-largest-double", "model-shrinkage-above-largest-double",
        "train-out-directory", "extract-out-directory", "decay-out-directory",
        "evaluate-out-file",
    ],
)
def test_invalid_option_or_file_exits_2(dataset, tmp_path, capsys, monkeypatch, argv):
    # invalid input is rejected before any model is trained on it
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained on invalid input")

    monkeypatch.setattr("tcpci.evaluation.train_ranker", no_training)
    # an "@text" argument or a bytes one is written to a file and replaced
    # by its path
    if argv[0] == "synth":
        args = [argv[0], "--out", str(tmp_path / "d")]
    else:
        args = [argv[0], str(dataset)]
    for i, arg in enumerate(argv[1:]):
        if arg is DIRECTORY:
            arg = str(tmp_path)
        elif isinstance(arg, bytes) or arg.startswith("@"):
            path = tmp_path / f"arg{i}.json"
            path.write_bytes(arg if isinstance(arg, bytes) else arg[1:].encode())
            arg = str(path)
        args.append(arg)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(allow_nan=False),
    st.text(max_size=4), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

#: Edits of a model file: a character of a node array's base64 text
#: replaced, or the text cut; an entry of ``sizes`` set, dropped, added or
#: moved to the next tree; a top-level field replaced by a value of any JSON type.
MODEL_CORRUPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.sampled_from(NODE_ARRAYS), st.integers(0, 10**6),
                  st.one_of(st.sampled_from(B64), st.characters())),
        st.tuples(st.just("cut"), st.sampled_from(NODE_ARRAYS), st.integers(0, 10**6)),
        st.tuples(st.just("size"), st.integers(0, 10**6),
                  st.one_of(st.integers(-1, 40), st.booleans(), st.floats(0, 40), JSON_VALUES)),
        st.tuples(st.just("drop-size"), st.integers(0, 10**6)),
        st.tuples(st.just("add-size"), st.integers(-1, 40)),
        st.tuples(st.just("move-size"), st.integers(0, 10**6)),
        st.tuples(st.just("field"), st.integers(0, 10**6), JSON_VALUES),
    ),
    min_size=1,
    max_size=3,
)


def corrupt_model(text: str, corruptions: list, cut: int | None) -> str:
    """A model file with ``corruptions`` applied, then cut after ``cut``
    characters if ``cut`` is given."""
    d = json.loads(text)
    trees, keys = d["trees"], sorted(d)
    for kind, *how in corruptions:
        sizes = trees["sizes"] if isinstance(trees, dict) else None
        if kind in ("flip", "cut") and isinstance(trees, dict):
            name, at = how[0], how[1] % (len(trees[how[0]]) + 1)
            tail = trees[name][at + 1:] if kind == "flip" else ""
            trees[name] = trees[name][:at] + (how[2] if kind == "flip" else "") + tail
        elif kind == "field":
            d[keys[how[0] % len(keys)]] = how[1]
        elif isinstance(sizes, list) and sizes and kind in ("size", "drop-size", "move-size"):
            i = how[0] % len(sizes)
            if kind == "size":
                sizes[i] = how[1]
            elif kind == "drop-size":
                del sizes[i]
            elif i + 1 < len(sizes) and all(type(n) is int for n in sizes[i:i + 2]):
                sizes[i], sizes[i + 1] = sizes[i] + 1, sizes[i + 1] - 1
        elif kind == "add-size" and isinstance(sizes, list):
            sizes.append(how[0])
    text = json.dumps(d)
    return text if cut is None else text[:cut % (len(text) + 1)]


@pytest.fixture(scope="module")
def model_files(dataset, tmp_path_factory):
    """The text of a ranker file trained on the dataset, and the build it ranks."""
    target = history_of(dataset).failed_builds[-1]
    path = tmp_path_factory.mktemp("model") / "model.json"
    argv = ["train", str(dataset), "--until", str(target.id), "--out", str(path), *HP_FLAGS]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return path.read_text(), target


@settings(max_examples=200, deadline=None)
@given(corruptions=MODEL_CORRUPTIONS, cut=st.one_of(st.none(), st.integers(0, 10**7)))
def test_corrupt_model_file_never_crashes(dataset, model_files, corruptions, cut):
    # prioritize on a corrupted model file exits 0 with a permutation of the
    # build's tests or 2 with an error line, never with a traceback
    text, build = model_files
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(corrupt_model(text, corruptions, cut))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["prioritize", str(dataset), "--build", str(build.id), "--model", str(path)])
    assert code in (0, 2)
    if code == 0:
        assert sorted(out.getvalue().splitlines()) == sorted(build.tests)
    else:
        assert err.getvalue().startswith("error:")


def _outputs(root, build, model):
    """(exit code, stdout) of prioritize and of extract, with the matrix CSV
    extract writes next to ``root``."""
    out = root.parent / "out.csv"
    results = []
    for argv in (["prioritize", str(root), "--build", str(build), "--model", str(model)],
                 ["extract", str(root), "--build", str(build), "--out", str(out)]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            results.append((main(argv), stdout.getvalue()))
    return results, out.read_bytes()


@pytest.fixture(scope="module")
def table_copy(dataset, model_files, tmp_path_factory):
    """A copy of the dataset, its intact table, and the outputs of a build,
    which are the same without the table."""
    text, build = model_files
    work = tmp_path_factory.mktemp("table")
    model = work / "model.json"
    model.write_text(text)
    copy = work / "data"
    shutil.copytree(dataset, copy)
    table = DatasetLayout(copy).exec_table
    intact = table.read_bytes()
    expected = _outputs(copy, build.id, model)
    table.unlink()
    assert _outputs(copy, build.id, model) == expected
    return copy, intact, build.id, model, expected


@settings(max_examples=100, deadline=None)
@given(corruptions=st.lists(
    st.tuples(st.sampled_from(["flip", "cut", "extend"]), st.integers(0, 10**6),
              st.integers(1, 255)),
    min_size=1, max_size=3,
))
def test_corrupt_exec_table_changes_no_output(table_copy, corruptions):
    # a table with flipped, cut or extended bytes is ignored: prioritize and
    # extract exit 0 with the outputs of the intact table
    copy, data, build, model, expected = table_copy
    for kind, at, value in corruptions:
        if kind == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ value]) + data[at + 1:]
        elif kind == "cut":
            data = data[:at % (len(data) + 1)]
        elif kind == "extend":
            data += bytes([value]) * (at % 16 + 1)
    DatasetLayout(copy).exec_table.write_bytes(data)
    assert _outputs(copy, build, model) == expected


def _portable(outputs):
    """``_outputs`` less the path that extract prints, which names the copy."""
    (prioritized, (code, _)), matrix = outputs
    return prioritized, code, matrix


@pytest.fixture(scope="module")
def source_table_copy(dataset, model_files, tmp_path_factory):
    """A copy of the dataset, its intact source table, and the outputs of a
    build, which are the same without the table and with it."""
    text, build = model_files
    work = tmp_path_factory.mktemp("sources")
    model = work / "model.json"
    model.write_text(text)
    copy = work / "data"
    shutil.copytree(dataset, copy)
    table = DatasetLayout(copy).source_table
    table.unlink(missing_ok=True)
    expected = _outputs(copy, build.id, model)  # computes every row, writes the table
    intact = table.read_bytes()
    assert _outputs(copy, build.id, model) == expected
    assert table.read_bytes() == intact  # a table that served every row is not rewritten
    return copy, intact, build.id, model, expected


@settings(max_examples=100, deadline=None)
@given(corruptions=st.lists(
    st.tuples(st.sampled_from(["flip", "cut", "extend"]), st.integers(0, 10**6),
              st.integers(1, 255)),
    min_size=1, max_size=3,
))
def test_corrupt_source_table_changes_no_output(source_table_copy, corruptions):
    # a source table with flipped, cut or extended bytes is ignored:
    # prioritize and extract exit 0 with the outputs of the intact table
    copy, data, build, model, expected = source_table_copy
    for kind, at, value in corruptions:
        if kind == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ value]) + data[at + 1:]
        elif kind == "cut":
            data = data[:at % (len(data) + 1)]
        elif kind == "extend":
            data += bytes([value]) * (at % 16 + 1)
    DatasetLayout(copy).source_table.write_bytes(data)
    assert _outputs(copy, build, model) == expected


def _resealed(data: bytes, edits) -> bytes:
    """``data``, a source table, with payload bytes overwritten by ``edits``
    and the payload digest recomputed, so that only the rows can tell."""
    head = len(synth._SOURCE_MAGIC) + 2 * synth._DIGEST
    payload = bytearray(data[head:])
    for at, value in edits:
        if payload:
            payload[at % len(payload)] = value
    digest = hashlib.sha256(payload).digest()
    return data[:head - synth._DIGEST] + digest + bytes(payload)


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(
    [*range(256)] + [ord(c) for c in " \t\n-s*.AZaz"])), min_size=1, max_size=4))
def test_resealed_source_table_never_crashes(source_table_copy, edits):
    # a table whose payload was edited and its digest recomputed is taken
    # as written or left aside, but never raises
    copy, data, build, model, expected = source_table_copy
    DatasetLayout(copy).source_table.write_bytes(_resealed(data, edits))
    results, _ = _outputs(copy, build, model)
    assert [code for code, _ in results] == [0, 0]
    assert sorted(results[0][1].splitlines()) == sorted(expected[0][0][1].splitlines())


@pytest.mark.parametrize("odd", ["derived-is-a-file", "table-is-a-directory"])
def test_odd_derived_directory_changes_no_output(source_table_copy, tmp_path, odd):
    # the table can be neither read nor written: every row is computed and
    # the outputs are those of the intact table
    _, _, build, model, expected = source_table_copy
    copy = tmp_path / "data"
    shutil.copytree(source_table_copy[0], copy)
    table = DatasetLayout(copy).source_table
    if odd == "derived-is-a-file":
        shutil.rmtree(table.parent)
        table.parent.write_text("not a directory\n")
    else:
        table.unlink(missing_ok=True)
        table.mkdir()
    for _ in range(2):
        assert _portable(_outputs(copy, build, model)) == _portable(expected)
    if odd == "derived-is-a-file":
        assert table.parent.read_text() == "not a directory\n"
    else:  # and no temporary file is left behind
        assert sorted(p.name for p in table.parent.iterdir()) == ["exec_records.bin", "sources.bin"]
        assert table.is_dir()


def _counting_rows(monkeypatch) -> list[str]:
    """The texts whose rows ``load_sources`` computes from now on."""
    computed = []

    def counted(text):
        computed.append(text)
        return source_row(text)

    monkeypatch.setattr(synth, "source_row", counted)
    return computed


def test_edited_source_recomputes_only_its_own_row(source_table_copy, tmp_path, monkeypatch):
    # after one file is edited, its new text is the only row computed, and
    # the outputs are those of a fresh dataset with the edited file
    _, intact, build, model, _ = source_table_copy
    copy = tmp_path / "data"
    shutil.copytree(source_table_copy[0], copy)
    layout = DatasetLayout(copy)
    layout.source_table.write_bytes(intact)
    edited = copy / "src" / "test" / "T3Test.java"
    text = edited.read_text() + "// edited\nclass Extra { void f() { if (true) { } } }\n"
    edited.write_text(text)
    computed = _counting_rows(monkeypatch)
    with_table = _outputs(copy, build, model)
    assert computed == [text]
    assert load_sources(layout)["src/test/T3Test.java"] == text
    assert computed == [text]  # the rewritten table serves the edited file too
    fresh = tmp_path / "fresh"
    shutil.copytree(copy, fresh)
    shutil.rmtree(fresh / "derived")
    assert _portable(_outputs(fresh, build, model)) == _portable(with_table)


def test_changed_analysis_rules_ignore_the_whole_table(source_table_copy, tmp_path, monkeypatch):
    # a table written under other rules (code_analysis.py changed) serves
    # no row: every distinct text is computed again and the table rewritten
    _, intact, build, model, expected = source_table_copy
    copy = tmp_path / "data"
    shutil.copytree(source_table_copy[0], copy)
    layout = DatasetLayout(copy)
    layout.source_table.write_bytes(intact)
    texts = set(load_sources(layout).values())
    changed = tmp_path / "code_analysis.py"
    changed.write_bytes(Path(code_analysis.__file__).read_bytes() + b"# another rule\n")
    monkeypatch.setattr(code_analysis, "__file__", str(changed))
    computed = _counting_rows(monkeypatch)
    assert _portable(_outputs(copy, build, model)) == _portable(expected)
    assert sorted(computed) == sorted(texts)
    rewritten = layout.source_table.read_bytes()
    assert rewritten != intact and rewritten[len(synth._SOURCE_MAGIC) + synth._DIGEST:] == (
        intact[len(synth._SOURCE_MAGIC) + synth._DIGEST:])


def test_help_names_every_output_and_option(capsys):
    # evaluate writes report.json beside its two CSVs, and both replay
    # commands say what --out defaults to and what --keep-outliers keeps
    helps = {}
    for argv in (["-h"], ["evaluate", "-h"], ["decay", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        helps[argv[0]] = " ".join(capsys.readouterr().out.split())
    assert "emits apfdc.csv, timing.csv and report.json" in helps["-h"]
    assert "--out OUT output directory (default: DATASET/reports)" in helps["evaluate"]
    assert "--out OUT output CSV file (default: DATASET/reports/decay.csv)" in helps["decay"]
    for command in ("evaluate", "decay"):
        assert ("--keep-outliers keep the tests whose count of failed builds exceeds the mean "
                "count plus 3 standard deviations (dropped by default)") in helps[command]


def test_hand_built_model_prioritizes(dataset, tmp_path, capsys):
    # the model-file cases above each change one thing of a valid model
    path = tmp_path / "model.json"
    path.write_text(model_arg()[1:])
    build = history_of(dataset).builds[0]
    assert main(["prioritize", str(dataset), "--build", str(build.id), "--model", str(path)]) == 0
    assert sorted(capsys.readouterr().out.splitlines()) == sorted(build.tests)


def test_cold_prioritize_does_not_import_numpy_ma(dataset, tmp_path):
    # np.unique imports numpy.ma, which takes about 25 ms; a cold call in a
    # fresh process must not pay for it
    model = tmp_path / "model.json"
    model.write_text(model_arg()[1:])
    argv = ["prioritize", str(dataset), "--build", str(history_of(dataset).builds[-1].id),
            "--model", str(model)]
    code = (f"import sys; from tcpci.cli import main; assert main({argv!r}) == 0; "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'")
    src = str(Path(tcpci.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--jobs", "2"],
        ["synth", "--jobs", "2"],
        ["ingest", "--seed", "3"],
        ["ingest", "--config", "cfg.json"],
        ["ingest", "--impact-depth", "2"],
        ["ingest", "--recent-window", "2"],
        ["extract", "--build", "1", "--seed", "99"],
        ["prioritize", "--build", "1", "--model", "model.json", "--seed", "99"],
        # a model file does not record the extractor's settings, so train
        # and prioritize always use its defaults
        ["train", "--until", "1", "--out", "model.json", "--recent-window", "2"],
        ["train", "--until", "1", "--out", "model.json", "--impact-depth", "0"],
        ["prioritize", "--build", "1", "--model", "model.json", "--impact-depth", "2"],
        ["prioritize", "--build", "1", "--model", "model.json", "--config", "f.json"],
    ],
    ids=[
        "evaluate-jobs", "synth-jobs", "ingest-seed", "ingest-config", "ingest-impact-depth",
        "ingest-recent-window", "extract-seed", "prioritize-seed", "train-recent-window",
        "train-impact-depth", "prioritize-impact-depth", "prioritize-config",
    ],
)
def test_unread_option_is_rejected(dataset, tmp_path, capsys, argv):
    # a command takes only the options it reads; any other would promise an
    # effect it does not have (training is serial, so no --jobs either)
    if argv[0] == "synth":
        args = [argv[0], "--out", str(tmp_path / "d")]
    elif argv[0] == "ingest":
        args = [argv[0], str(dataset), str(tmp_path / "copy")]
    else:
        args = [argv[0], str(dataset)]
    with pytest.raises(SystemExit) as exc:
        main(args + argv[1:])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


#: The config keys of each command.  ``synth``'s are the generator settings
#: and ``seed``; the others' are their value flags.  ``prioritize`` has none.
EXTRACTOR_KEYS = ["impact_depth", "recent_window"]
TRAINING_KEYS = ["seed", "bags", "trees_per_bag", "max_leaves", "shrinkage", "sample_rate",
                 "feature_rate"]
CONFIG_KEYS = {
    "extract": EXTRACTOR_KEYS,
    "train": TRAINING_KEYS,
    "evaluate": [*TRAINING_KEYS, *EXTRACTOR_KEYS, "max_builds", "heuristic"],
    "decay": [*TRAINING_KEYS, *EXTRACTOR_KEYS, "max_builds", "max_rw"],
    "synth": [*(f.name for f in dataclasses.fields(SynthConfig)), "seed"],
}
#: Keys whose large valid values only make a long job; they get only
#: invalid or small values.
SIZE_KEYS = {"bags", "trees_per_bag", "max_leaves"} | {
    f.name for f in dataclasses.fields(SynthConfig) if f.type == "int" and f.name != "drift_period"
}
#: The flags that keep a run small, each left out when its key is under test.
SMALL_FLAGS = {"bags": "1", "trees_per_bag": "1", "max_leaves": "4", "max_builds": "2",
               "max_rw": "1"}
SMALL_SYNTH = {"n_files": 6, "n_tests": 4, "n_builds": 4, "coverage_size": 2, "pool_size": 2,
               "files_per_build": 2}
SMALL_VALUES = ["x", [1], {"a": 1}, None, True, False, -1, 0, 1, 1e-300, 1e308]
VALUES = [*SMALL_VALUES, 2**63, 10**20, 10**400]
#: Which ``--out`` each command writes, "file" or "dir".
OUT_KIND = {"extract": "file", "train": "file", "decay": "file", "evaluate": "dir",
            "synth": "dir"}

CONFIG_CASES = st.sampled_from(
    [(command, key) for command, keys in CONFIG_KEYS.items() for key in keys]
).flatmap(lambda case: st.tuples(
    st.just(case),
    st.sampled_from(SMALL_VALUES if case[1] in SIZE_KEYS else VALUES),
    st.sampled_from(["new", "file", "dir"]),
))


@settings(max_examples=150, deadline=None)
@given(case=CONFIG_CASES)
def test_any_config_value_and_output_path_exits_0_2_3_or_4(dataset, model_files, case):
    # every config key of every command, given a value of any JSON type or
    # size, and an --out that is new, a file or a directory: the command
    # runs or exits with an error line, never with a traceback
    (command, key), value, out_kind = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = {**SMALL_SYNTH, key: value} if command == "synth" else {key: value}
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        (tmp / "file").write_text("")
        (tmp / "dir").mkdir()
        build = str(model_files[1].id)
        argv = {
            "synth": ["synth"],
            "extract": ["extract", str(dataset), "--build", build],
            "train": ["train", str(dataset), "--until", build],
        }.get(command, [command, str(dataset)])
        for name, flag in SMALL_FLAGS.items():
            if name != key and name in CONFIG_KEYS[command]:
                argv += ["--" + name.replace("_", "-"), flag]
        if command in OUT_KIND:
            argv += ["--out", str(tmp / "new" / "out" if out_kind == "new" else tmp / out_kind)]
        argv += ["--config", str(tmp / "cfg.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, cfg)
    if code:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    if out_kind != "new" and OUT_KIND.get(command, out_kind) != out_kind:
        assert code == 2  # an --out of the wrong kind


def test_zero_durations_evaluate_and_decay(dataset, tmp_path, capsys):
    # zero is a valid duration: builds whose tests all take 0 ms are scored
    # with unit costs rather than divided by their total duration
    copy = tmp_path / "data"
    shutil.copytree(dataset, copy)
    path = copy / "exec_records.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *(r.rsplit(",", 1)[0] + ",0" for r in rows)]) + "\n")
    assert main(["evaluate", str(copy), "--max-builds", "2", *HP_FLAGS]) == 0
    assert main(["decay", str(copy), "--max-builds", "2", "--max-rw", "1", *HP_FLAGS]) == 0
    capsys.readouterr()


def test_synth_duration_too_large_for_a_float_exits_2_before_writing(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({**SYNTH_CFG, "duration_mu": 800}))
    out = tmp_path / "d"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "duration_mu" in err


#: A valid value of each key of the commands but ``synth``, none a default.
VALID = {"seed": 5, "impact_depth": 2, "recent_window": 3, "max_builds": 4, "max_rw": 2,
         "heuristic": "F_FailRate_Total:asc", "bags": 3, "trees_per_bag": 2, "max_leaves": 5,
         "shrinkage": 0.25, "sample_rate": 0.75, "feature_rate": 0.5}
#: The library call each command hands its options to.
CALLEE = {"extract": "FeatureExtractor", "train": "PipelineEvaluator",
          "evaluate": "run_pipeline_eval", "decay": "decay_experiment",
          "synth": "write_synthetic_dataset"}


def valid_value(key):
    """``VALID[key]``, or a valid generator setting other than its default."""
    if key in VALID:
        return VALID[key]
    default = getattr(SynthConfig(), key)
    for value in (default + 1, default - 1, default / 2):
        try:
            SynthConfig(**{key: value})
        except ValueError:
            continue
        return value


def reached(callee, arguments, key):
    """The value a call hands on as option ``key``: a field of the
    ``Hyperparams`` (``bags`` is ``n_bags``) or ``SynthConfig`` argument,
    a parameter of its own name, or an entry of ``**extractor_kwargs``."""
    field = "n_bags" if key == "bags" else key
    if field in Hyperparams.__dataclass_fields__:
        return getattr(arguments["hyperparams"], field)
    if key in SynthConfig.__dataclass_fields__:
        return getattr(arguments["config"], key)
    if key in inspect.signature(callee).parameters:
        return arguments[key]
    return arguments["extractor_kwargs"][key]


class Reached(Exception):
    """Raised by a spy in place of the call it records."""


@pytest.mark.parametrize(
    "command,key,source",
    [(command, key, source) for command, keys in CONFIG_KEYS.items() for key in keys
     for source in (("config",) if command == "synth" and key != "seed" else ("flag", "config"))],
)
def test_every_value_option_reaches_its_parameter(
    dataset, model_files, tmp_path, monkeypatch, command, key, source
):
    # a value given as a flag or as a config key arrives unchanged at the
    # library parameter it sets
    value = valid_value(key)
    callee = getattr(cli, CALLEE[command])
    calls = []

    def spy(*args, **kwargs):
        calls.append(inspect.signature(callee).bind(*args, **kwargs))
        raise Reached

    monkeypatch.setattr(cli, CALLEE[command], spy)
    build = str(model_files[1].id)
    argv = {
        "synth": ["synth", "--out", str(tmp_path / "d")],
        "extract": ["extract", str(dataset), "--build", build],
        "train": ["train", str(dataset), "--until", build, "--out", str(tmp_path / "m.json")],
    }.get(command, [command, str(dataset)])
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), str(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    with pytest.raises(Reached):
        main(argv)
    [bound] = calls
    bound.apply_defaults()
    got = reached(callee, bound.arguments, key)
    assert (got, type(got)) == (value, type(value))


def test_readme_option_table_names_every_value_key():
    # a value option of extract, train, evaluate or decay
    # cannot land without its row in the README's option table
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | kind | range |\n", 1)[1].split("\n\n", 1)[0]
    named = {name for row in table.splitlines()[1:]
             for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    assert named == {key for command, keys in CONFIG_KEYS.items() if command != "synth"
                     for key in keys}
