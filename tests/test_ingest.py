import contextlib
import io
import os
import subprocess
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpci import derived, ingest
from tcpci.cli import main
from tcpci.errors import (
    DuplicateRecordError,
    RepoNotFoundError,
    SchemaError,
    UnresolvableRefError,
)
from tcpci.ingest import (
    DatasetLayout,
    ingest_exec_records,
    ingest_git_history,
    select_primary_job,
    write_dataset,
)
from tcpci.model import Build, BuildHistory, Commit, ExecutionRecord, FileChange, UnitRisk, Verdict
from tcpci.synth import (
    SynthConfig,
    _decode,
    generate_synthetic_history,
    load_sources,
    write_synthetic_dataset,
)

SMALL_CFG = SynthConfig(n_files=10, n_tests=5, n_builds=6, files_per_build=3)


def test_select_primary_job_most_tests_then_smallest_id():
    # each job's number of distinct tests
    jobs = {"j2": 1, "j1": 2}
    assert select_primary_job(jobs) == "j1"
    jobs["j0"] = jobs["j1"]
    assert select_primary_job(jobs) == "j0"


def test_round_trip_is_lossless(tmp_path):
    history, _ = generate_synthetic_history(SMALL_CFG, seed=7)
    layout = write_dataset(history, tmp_path / "ds")
    again = ingest_exec_records(layout)
    assert again == history
    layout2 = write_dataset(again, tmp_path / "ds2")
    assert (tmp_path / "ds" / "builds.csv").read_text() == (
        tmp_path / "ds2" / "builds.csv"
    ).read_text()
    assert (tmp_path / "ds" / "commits.jsonl").read_text() == (
        tmp_path / "ds2" / "commits.jsonl"
    ).read_text()


def _write_min_dataset(root: Path, exec_rows: list[str] | None = None):
    root.mkdir(parents=True, exist_ok=True)
    sha = "a" * 40
    (root / "builds.csv").write_text(
        f"build_id,timestamp_iso8601,commits\n1,2024-01-01T00:00:00+00:00,{sha}\n"
    )
    rows = exec_rows if exec_rows is not None else ["1,j0,t.java,0,10.0"]
    (root / "exec_records.csv").write_text(
        "build_id,job_id,test_path,verdict,duration_ms\n" + "\n".join(rows) + "\n"
    )
    (root / "commits.jsonl").write_text(
        '{"hash": "' + sha + '", "timestamp": "2024-01-01T00:00:00+00:00", '
        '"author": "dev", "message": "msg", '
        '"files": [{"path": "a.java", "added": 1, "deleted": 0}]}\n'
    )


def test_schema_error_reports_line_number(tmp_path):
    _write_min_dataset(tmp_path / "ds", exec_rows=["1,j0,t.java,9,10.0"])
    with pytest.raises(SchemaError, match=":2"):
        ingest_exec_records(DatasetLayout(tmp_path / "ds"))


def test_duplicate_record_rejected(tmp_path):
    _write_min_dataset(
        tmp_path / "ds", exec_rows=["1,j0,t.java,0,10.0", "1,j0,t.java,0,11.0"]
    )
    with pytest.raises(DuplicateRecordError):
        ingest_exec_records(DatasetLayout(tmp_path / "ds"))


@pytest.mark.parametrize("files", [
    # one commit that lists a file twice would count as two touches
    '[{"path": "a.java", "added": 1, "deleted": 0}, {"path": "a.java", "added": 2, "deleted": 1}]',
    None,  # the commit's line repeated
], ids=["file-twice", "commit-twice"])
def test_repeated_commit_or_file_rejected_with_its_line(tmp_path, files):
    root = tmp_path / "ds"
    _write_min_dataset(root)
    path = root / "commits.jsonl"
    line = path.read_text()
    if files is None:
        path.write_text(line + line)
    else:
        path.write_text(line[:line.index("[")] + files + "}\n")
    with pytest.raises(DuplicateRecordError, match=f"commits.jsonl:{1 if files else 2}: "):
        ingest_exec_records(DatasetLayout(root))


def test_bad_commit_hash_rejected(tmp_path):
    root = tmp_path / "ds"
    _write_min_dataset(root)
    (root / "builds.csv").write_text(
        "build_id,timestamp_iso8601,commits\n1,2024-01-01T00:00:00+00:00,nothex\n"
    )
    with pytest.raises(SchemaError, match="40-hex"):
        ingest_exec_records(DatasetLayout(root))


def test_unknown_build_id_in_exec_records(tmp_path):
    _write_min_dataset(tmp_path / "ds", exec_rows=["7,j0,t.java,0,10.0"])
    with pytest.raises(SchemaError, match="not in builds.csv"):
        ingest_exec_records(DatasetLayout(tmp_path / "ds"))


@pytest.mark.parametrize(
    "rows",
    [["1,j0,t.java,0,10.0", "", "1,j0,u.java,9,10.0"], ['1,j0,"t\nx.java",0,10.0', "1,j0,u.java,9,10.0"]],
    ids=["blank-line", "quoted-newline"],
)
def test_exec_records_error_names_the_physical_line(tmp_path, rows):
    # the bad verdict is on line 4, after a line that starts no record
    _write_min_dataset(tmp_path / "ds", exec_rows=rows)
    with pytest.raises(SchemaError, match=r"exec_records\.csv:4: 9 is not a valid Verdict"):
        ingest_exec_records(DatasetLayout(tmp_path / "ds"))


def test_builds_error_names_the_physical_line(tmp_path):
    root = tmp_path / "ds"
    _write_min_dataset(root)
    (root / "builds.csv").write_text(
        "build_id,timestamp_iso8601,commits\n1,2024-01-01T00:00:00+00:00,\n\nx,2024-01-01,\n"
    )
    with pytest.raises(SchemaError, match=r"builds\.csv:4: bad build_id 'x'"):
        ingest_exec_records(DatasetLayout(root))


def test_primary_job_records_only(tmp_path):
    # j1 ran two tests, j0 and j2 one each; a tie would go to the smaller id
    rows = ["1,j2,c.java,1,5.0", "1,j1,b.java,0,2.0", "1,j0,a.java,2,1.0", "1,j1,a.java,3,-0.0"]
    _write_min_dataset(tmp_path / "ds", exec_rows=rows)
    (build,) = ingest_exec_records(DatasetLayout(tmp_path / "ds")).builds
    assert build.records == (
        ExecutionRecord(1, "a.java", Verdict.UNKNOWN_FAILURE, -0.0),
        ExecutionRecord(1, "b.java", Verdict.PASSED, 2.0),
    )
    _write_min_dataset(tmp_path / "ds2", exec_rows=rows[:1] + rows[2:3])
    (build,) = ingest_exec_records(DatasetLayout(tmp_path / "ds2")).builds
    assert build.tests == ("a.java",)


def test_test_path_with_a_bare_cr_reads_back(tmp_path):
    # csv.writer with an LF terminator leaves a lone CR unquoted, and the
    # reader would end the record there; the row is written quoted
    rows = ['1,j0,"t\rx.java",0,10.0', '1,j0,"u\r\ny.java",1,2.0']
    _write_min_dataset(tmp_path / "ds", exec_rows=rows)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["ingest", str(tmp_path / "ds"), str(tmp_path / "copy")]) == 0
    (build,) = ingest_exec_records(DatasetLayout(tmp_path / "copy")).builds
    assert build.tests == ("t\rx.java", "u\r\ny.java")
    assert (tmp_path / "copy" / "exec_records.csv").read_bytes().endswith(
        b'\n"1","j0","t\rx.java","0","10.0"\n"1","j0","u\r\ny.java","1","2.0"\n'
    )


# --- the execution table -------------------------------------------------


def _bits(columns):
    """Each build's columns, with the dtype and bytes of each array."""
    return [
        (build_id, tests, verdicts.dtype.str, verdicts.tobytes(), durations.dtype.str,
         durations.tobytes())
        for build_id, (tests, verdicts, durations) in columns.items()
    ]


_TEST_PATHS = st.text(
    st.one_of(st.sampled_from([",", '"', "\r", "\n", "é", "日"]),
              st.characters(blacklist_categories=("Cs",))),
    min_size=1, max_size=6,
)
_DURATIONS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310]),
    st.floats(0, 1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def _histories(draw):
    ids = draw(st.lists(st.integers(1, 40), unique=True, max_size=5))
    builds = []
    for build_id in ids:
        runs = draw(st.dictionaries(_TEST_PATHS, st.tuples(st.integers(0, 3), _DURATIONS),
                                    max_size=5))
        tests = tuple(sorted(runs))
        builds.append(Build(
            build_id, (), tests,
            np.array([runs[t][0] for t in tests], np.int8),
            np.array([runs[t][1] for t in tests], np.float64),
        ))
    return BuildHistory(builds, {})


@settings(max_examples=150, deadline=None)
@given(history=_histories())
def test_exec_table_equals_the_csv_parse(history):
    # test paths with CSV metacharacters, line breaks and non-ASCII, builds
    # without executions, zero and subnormal durations
    with tempfile.TemporaryDirectory() as tmp:
        layout = write_dataset(history, Path(tmp))
        table = ingest._read_exec_table(layout.exec_table, layout.exec_records_csv)
        parsed = ingest._read_exec_records_csv(layout.exec_records_csv)
    assert table is not None
    assert _bits(table) == _bits(parsed)


@pytest.mark.parametrize(
    "test, verdict, duration, error",
    [("", 0, 1.0, "empty test_path"), ("t.java", 7, 1.0, "7 is not a valid Verdict"),
     ("t.java", 0, float("nan"), "must be finite"), ("t.java", 0, -1.0, "must be finite"),
     ("t.java", 0, float("inf"), "must be finite")],
    ids=["empty-test", "verdict", "nan", "negative", "inf"],
)
def test_exec_table_of_a_bad_history_is_not_read(tmp_path, test, verdict, duration, error):
    # a history whose CSV breaks a rule writes a table the reader ignores, so
    # the CSV's error stands
    build = Build(1, (), (test,), np.array([verdict], np.int8),
                  np.array([duration]))
    layout = write_dataset(BuildHistory([build], {}), tmp_path / "ds")
    assert ingest._read_exec_table(layout.exec_table, layout.exec_records_csv) is None
    with pytest.raises(SchemaError, match=error):
        ingest_exec_records(layout)


@pytest.fixture(scope="module")
def small_layout(tmp_path_factory):
    history, _ = generate_synthetic_history(SMALL_CFG, seed=7)
    return write_dataset(history, tmp_path_factory.mktemp("table") / "ds")


def _payload(layout: DatasetLayout) -> bytes:
    """The payload of ``layout``'s intact execution table."""
    key = derived.file_key(layout.exec_records_csv)
    payload = derived.read(layout.exec_table, ingest._TABLE_MAGIC, key)
    assert payload is not None
    return bytes(payload)


def _redigested(layout: DatasetLayout, payload: bytes) -> bytes:
    """``layout``'s table with ``payload`` and that payload's digest."""
    key = derived.file_key(layout.exec_records_csv)
    return derived.pack(ingest._TABLE_MAGIC, key, payload)


@settings(max_examples=1000, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["set", "cut", "extend"]), st.integers(0, 10**6),
                                st.one_of(st.integers(0, 6), st.integers(0, 255))),
                      min_size=1, max_size=4))
def test_redigested_exec_table_never_raises(small_layout, edits):
    # a table edited with its payload digest made to match is ignored, or
    # read as columns that keep every rule of the CSV reader
    payload = _payload(small_layout)
    for kind, at, value in edits:
        if kind == "set" and payload:
            at %= len(payload)
            payload = payload[:at] + bytes([value]) + payload[at + 1:]
        elif kind == "cut":
            payload = payload[:at % (len(payload) + 1)]
        elif kind == "extend":
            payload += bytes([value]) * (at % 16 + 1)
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "exec_records.bin"
        table.write_bytes(_redigested(small_layout, payload))
        columns = ingest._read_exec_table(table, small_layout.exec_records_csv)
    ids = list(columns or {})
    assert ids == sorted(set(ids)) and all(i >= 1 for i in ids)
    for tests, verdicts, durations in (columns or {}).values():
        assert tests and "" not in tests and list(tests) == sorted(set(tests))
        assert verdicts.dtype == np.int8 and set(verdicts.tolist()) <= {0, 1, 2, 3}
        assert durations.dtype == np.float64 and ((durations >= 0) & (durations < np.inf)).all()


@pytest.mark.parametrize("ids", [(1, 3, 3), (0, 2, 3), (1, 3, 2)],
                         ids=["repeated", "zero", "descending"])
def test_exec_table_with_bad_build_ids_is_not_read(small_layout, tmp_path, ids):
    # a table whose ids are not strictly ascending and >= 1 once read build
    # 2's executions as build 3's, and build 2 as a build without any
    columns = derived.decode(_payload(small_layout), ingest._EXEC_COLUMNS)
    assert columns[0][:3].tolist() == [1, 2, 3]
    columns[0] = np.concatenate([ids, columns[0][3:]]).astype("<i8")
    table = tmp_path / "exec_records.bin"
    table.write_bytes(_redigested(small_layout, derived.encode(columns)))
    assert ingest._read_exec_table(table, small_layout.exec_records_csv) is None


def test_exec_records_csv_is_read_once_when_its_last_record_is_bad(tmp_path, monkeypatch):
    history, _ = generate_synthetic_history(SMALL_CFG, seed=7)
    layout = write_dataset(history, tmp_path / "ds")
    layout.exec_table.unlink()
    with open(layout.exec_records_csv, "a") as f:
        f.write("1,j0,t.java,9,1.0\n")
    last = len(layout.exec_records_csv.read_text().splitlines())
    opened = []
    lines = ingest._lines

    def counted(path, newline):
        opened.append(path)
        return lines(path, newline)

    monkeypatch.setattr(ingest, "_lines", counted)
    with pytest.raises(SchemaError, match=rf"exec_records\.csv:{last}: 9 is not a valid Verdict"):
        ingest_exec_records(layout)
    assert opened.count(layout.exec_records_csv) == 1


def test_csv_error_names_its_physical_line(tmp_path):
    # csv.Error (here a field longer than the csv module's limit) names the
    # line it is raised on, not the last record's
    root = tmp_path / "ds"
    _write_min_dataset(root)
    (root / "builds.csv").write_text(
        "build_id,timestamp_iso8601,commits\n1,2024-01-01T00:00:00+00:00,\n\n2," + "x" * 131073
        + ",\n"
    )
    with pytest.raises(SchemaError, match=r"builds\.csv:4: field larger than field limit"):
        ingest_exec_records(DatasetLayout(root))


def test_exec_table_bytes_repeat(tmp_path):
    # one history gives one table, and so does the history read back
    history, _ = generate_synthetic_history(SMALL_CFG, seed=7)
    layouts = [write_dataset(history, tmp_path / name) for name in ("a", "b")]
    layouts.append(write_dataset(ingest_exec_records(layouts[0]), tmp_path / "c"))
    tables = [layout.exec_table.read_bytes() for layout in layouts]
    assert tables[0] == tables[1] == tables[2]


def test_stale_exec_table_is_ignored(tmp_path, monkeypatch):
    history, _ = generate_synthetic_history(SMALL_CFG, seed=7)
    layout = write_dataset(history, tmp_path / "ds")
    with monkeypatch.context() as m:  # an intact table stands in for the parse
        m.setattr(ingest, "_exec_rows", None)
        assert ingest_exec_records(layout) == history
    table = layout.exec_table.read_bytes()
    # one verdict edited in place keeps the CSV's size, not its digest
    text = layout.exec_records_csv.read_text()
    head, first, rest = text.split("\n", 2)
    fields = first.split(",")
    fields[3] = str(1 - int(fields[3]))
    layout.exec_records_csv.write_text("\n".join([head, ",".join(fields), rest]))
    edited = ingest_exec_records(layout)
    assert edited != history
    layout.exec_table.unlink()
    assert edited == ingest_exec_records(layout)
    # a bad record exits 2 with the message it gives without a table
    layout.exec_records_csv.write_text("\n".join([head, "1,j0,t.java,9,1.0", rest]))
    outcomes = []
    for stale in (table, None):
        if stale is not None:
            layout.exec_table.write_bytes(stale)
        else:
            layout.exec_table.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["extract", str(layout.root), "--build", "1",
                         "--out", str(tmp_path / "f.csv")])
        outcomes.append((code, err.getvalue()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (2, f"error: {layout.exec_records_csv}:2: 9 is not a valid Verdict\n")


# --- the commit table ----------------------------------------------------


def _commits_bits(commits):
    """Each commit as its repr, with the timestamp's offset spelled out, so
    that an int read as a bool, or a naive time as another zone, differs."""
    return [(repr(c), c.timestamp.isoformat()) for c in commits]


def _read_both(layout: DatasetLayout):
    """The commits of ``layout`` from its table, and from its JSONL."""
    return (ingest._read_commit_table(layout.commit_table, layout.commits_jsonl),
            ingest.read_commits_jsonl(layout.commits_jsonl))


_TEXT = st.text(st.one_of(st.sampled_from(["\r", "\n", "\t", '"', "\\", "é", "日", "\x00"]),
                          st.characters(blacklist_categories=("Cs",))), max_size=8)
_ZONES = st.sampled_from([None, timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                          timezone(timedelta(hours=-8)), timezone(timedelta(seconds=-1))])
_RISKS = st.one_of(st.none(), st.just(()), st.lists(st.builds(
    UnitRisk, st.integers(0, 2**63 - 1), st.integers(0, 40), st.booleans(), st.booleans(),
    st.booleans()), min_size=1, max_size=3).map(tuple))
_STARTS = st.lists(st.integers(1, 2**63 - 1), max_size=3).map(tuple)


@st.composite
def _commit_histories(draw):
    hashes = draw(st.lists(st.binary(min_size=20, max_size=20).map(bytes.hex), unique=True,
                           max_size=5))
    commits = {}
    for sha in hashes:
        paths = draw(st.lists(_TEXT, unique=True, max_size=3))
        changes = tuple(
            FileChange(p, draw(st.integers(0, 2**63 - 1)), draw(st.integers(0, 99)),
                       draw(_STARTS), draw(_STARTS), draw(_RISKS))
            for p in paths
        )
        stamp = draw(st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30), timezones=_ZONES))
        commits[sha] = Commit(sha, stamp, draw(_TEXT), draw(_TEXT), changes)
    # some commits no build names, and a build that names none
    named = draw(st.lists(st.sampled_from(hashes), unique=True)) if hashes else []
    builds = [Build(i + 1, (sha,), (), np.empty(0, np.int8), np.empty(0))
              for i, sha in enumerate(named)]
    builds.append(Build(len(builds) + 1, (), (), np.empty(0, np.int8), np.empty(0)))
    return BuildHistory(builds, commits)


@settings(max_examples=150, deadline=None)
@given(history=_commit_histories())
def test_commit_table_equals_the_jsonl_parse(history):
    # naive and non-UTC times, unit risks of None, () and rows, messages with
    # line breaks, tabs and non-ASCII, empty file lists, unnamed commits
    with tempfile.TemporaryDirectory() as tmp:
        layout = write_dataset(history, Path(tmp))
        table, parsed = _read_both(layout)
        assert table is not None
        assert _commits_bits(table) == _commits_bits(parsed)
        assert _commits_bits(ingest_exec_records(layout).commit_sequence) == _commits_bits(parsed)


def _one_commit_history(**change) -> BuildHistory:
    sha = "b" * 40
    fc = FileChange(**{"path": "a.java", "lines_added": 1, "lines_deleted": 0, **change})
    commit = Commit(sha, datetime(2024, 1, 1, tzinfo=timezone.utc), "dev", "msg", (fc,))
    return BuildHistory([Build(1, (sha,), (), np.empty(0, np.int8), np.empty(0))], {sha: commit})


@pytest.mark.parametrize("change", [
    {"lines_added": 2**63}, {"added_chunks": (2**64,)}, {"path": "a\ud800.java"},
    {"unit_risks": (UnitRisk(2**70, 0, True, True, True),)},
], ids=["int-over-int64", "start-over-int64", "lone-surrogate", "risk-over-int64"])
def test_value_the_commit_table_cannot_hold_is_read_from_the_jsonl(tmp_path, change):
    history = _one_commit_history(**change)
    layout = write_dataset(history, tmp_path / "ds")
    assert not layout.commit_table.exists() and layout.exec_table.exists()
    assert _commits_bits(ingest_exec_records(layout).commit_sequence) == _commits_bits(
        history.commit_sequence)


@pytest.mark.parametrize("history, error", [
    (_one_commit_history(lines_added=True), "added must be int"),
    (_one_commit_history(added_chunks=(1.0,)), "chunk starts must be a list of integers"),
    (_one_commit_history(unit_risks=(UnitRisk(1, 0, 1, True, True),)), "low_size must be bool"),
    (BuildHistory([], {k: Commit("c" * 40, datetime(2024, 1, 1), "dev", "msg", ())
                       for k in "xy"}), "duplicate commit"),
    (BuildHistory([], {"not-a-hash": Commit("not-a-hash", datetime(2024, 1, 1), "dev", "msg",
                                            ())}), "'not-a-hash' is not a 40-hex commit hash"),
], ids=["count-bool", "start-float", "flag-int", "hash-twice", "hash-not-hex"])
def test_commits_the_jsonl_rejects_keep_its_error(tmp_path, history, error):
    # a value of a type the JSONL reader rejects writes no table, and a
    # table of a history that breaks a rule (one hash on two lines) is not
    # read, so the JSONL's error stands
    layout = write_dataset(history, tmp_path / "ds")
    assert ingest._read_commit_table(layout.commit_table, layout.commits_jsonl) is None
    with pytest.raises(SchemaError, match=error):
        ingest.read_commits_jsonl(layout.commits_jsonl)


@pytest.fixture(scope="module")
def commit_layout(tmp_path_factory):
    history, _ = generate_synthetic_history(SMALL_CFG, seed=7)
    commit = history.commit_sequence[-1]
    fc = commit.file_changes[0]
    # a file change with unit risks and deleted chunks, which synth makes none of
    risky = fc._replace(deleted_chunks=(3, 8), unit_risks=(UnitRisk(2, 1, True, False, True),))
    commits = {**history.commits, commit.id: Commit(
        commit.id, commit.timestamp, commit.author, commit.message,
        (risky, *commit.file_changes[1:]))}
    history = BuildHistory(list(history.builds), commits)
    return history, write_dataset(history, tmp_path_factory.mktemp("commits") / "ds")


def _commit_payload(layout: DatasetLayout) -> bytes:
    key = derived.file_key(layout.commits_jsonl)
    payload = derived.read(layout.commit_table, ingest._COMMIT_MAGIC, key)
    assert payload is not None
    return bytes(payload)


@settings(max_examples=100, deadline=None)
@given(corruptions=st.lists(
    st.tuples(st.sampled_from(["flip", "cut", "extend"]), st.integers(0, 10**6),
              st.integers(1, 255)),
    min_size=1, max_size=3,
))
def test_corrupt_commit_table_changes_no_output(commit_layout, corruptions):
    # a table with flipped, cut or extended bytes is ignored: ingest gives
    # the history the JSONL holds
    history, layout = commit_layout
    data = layout.commit_table.read_bytes()
    for kind, at, value in corruptions:
        if kind == "flip" and data:
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ value]) + data[at + 1:]
        elif kind == "cut":
            data = data[:at % (len(data) + 1)]
        elif kind == "extend":
            data += bytes([value]) * (at % 16 + 1)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "ds"
        copy.mkdir()
        for name in ("builds.csv", "exec_records.csv", "commits.jsonl"):
            (copy / name).write_bytes((layout.root / name).read_bytes())
        (copy / "derived").mkdir()
        DatasetLayout(copy).commit_table.write_bytes(data)
        again = ingest_exec_records(DatasetLayout(copy))
    assert _commits_bits(again.commit_sequence) == _commits_bits(history.commit_sequence)
    assert again == history


@settings(max_examples=1000, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["set", "cut", "extend"]), st.integers(0, 10**6),
                                st.one_of(st.integers(0, 6), st.integers(0, 255))),
                      min_size=1, max_size=4))
def test_resealed_commit_table_never_raises(commit_layout, edits):
    # a table edited with its payload digest made to match is ignored, or
    # read as commits made by their constructors that keep every rule of
    # the JSONL reader
    _, layout = commit_layout
    payload = _commit_payload(layout)
    for kind, at, value in edits:
        if kind == "set" and payload:
            at %= len(payload)
            payload = payload[:at] + bytes([value]) + payload[at + 1:]
        elif kind == "cut":
            payload = payload[:at % (len(payload) + 1)]
        elif kind == "extend":
            payload += bytes([value]) * (at % 16 + 1)
    key = derived.file_key(layout.commits_jsonl)
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "commits.bin"
        table.write_bytes(derived.pack(ingest._COMMIT_MAGIC, key, payload))
        commits = ingest._read_commit_table(table, layout.commits_jsonl)
    ids = [c.id for c in commits or ()]
    assert len(set(ids)) == len(ids) and all(map(ingest._HASH_RE.fullmatch, ids))
    for c in commits or ():
        assert type(c) is Commit and c.timestamp.tzinfo is not None
        paths = [fc.path for fc in c.file_changes]
        assert len(set(paths)) == len(paths)
        for fc in c.file_changes:
            assert type(fc) is FileChange and min(fc.lines_added, fc.lines_deleted) >= 0
            assert min(fc.added_chunks + fc.deleted_chunks, default=1) >= 1
            assert fc.unit_risks is None or all(
                type(r) is UnitRisk and type(r.low_size) is bool for r in fc.unit_risks)


def test_resealed_commit_table_with_a_bad_hash_is_not_read(commit_layout, tmp_path):
    # a hash the JSONL reader rejects is no commit, from a table either
    _, layout = commit_layout
    columns = derived.decode(_commit_payload(layout), ingest._COMMIT_COLUMNS)
    columns[1][0] = "not-a-hash"
    table = tmp_path / "commits.bin"
    key = derived.file_key(layout.commits_jsonl)
    table.write_bytes(derived.pack(ingest._COMMIT_MAGIC, key, derived.encode(columns)))
    assert ingest._read_commit_table(table, layout.commits_jsonl) is None
    columns[1][0] = "f" * 40  # the check above fails for the hash alone
    table.write_bytes(derived.pack(ingest._COMMIT_MAGIC, key, derived.encode(columns)))
    assert ingest._read_commit_table(table, layout.commits_jsonl) is not None


def test_commit_table_stands_in_for_the_parse(commit_layout, tmp_path, monkeypatch):
    # an intact table is read without the JSONL parser, and one history
    # gives one table, as does the history read back
    history, layout = commit_layout
    with monkeypatch.context() as m:
        m.setattr(ingest, "read_commits_jsonl", None)
        again = ingest_exec_records(layout)
    assert _commits_bits(again.commit_sequence) == _commits_bits(history.commit_sequence)
    copy = write_dataset(again, tmp_path / "copy")
    assert copy.commit_table.read_bytes() == layout.commit_table.read_bytes()


def test_stale_commit_table_is_ignored(commit_layout, tmp_path):
    history, intact = commit_layout
    layout = write_dataset(history, tmp_path / "ds")
    table = layout.commit_table.read_bytes()
    assert table == intact.commit_table.read_bytes()
    # one author edited in place keeps the JSONL's size, not its digest
    text = layout.commits_jsonl.read_text()
    assert text.count('"author": "dev1"') > 0
    layout.commits_jsonl.write_text(text.replace('"author": "dev1"', '"author": "dev9"', 1))
    assert ingest._read_commit_table(layout.commit_table, layout.commits_jsonl) is None
    edited = ingest_exec_records(layout)
    assert [c.author for c in edited.commit_sequence].count("dev9") == 1
    layout.commit_table.unlink()
    assert _commits_bits(edited.commit_sequence) == _commits_bits(
        ingest_exec_records(layout).commit_sequence)
    # a malformed line exits 2 with the message it gives without a table
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].replace('"added": ', '"added": -', 1)
    layout.commits_jsonl.write_text("".join(lines))
    outcomes = []
    for stale in (table, None):
        if stale is not None:
            layout.commit_table.write_bytes(stale)
        else:
            layout.commit_table.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["extract", str(layout.root), "--build", "1",
                         "--out", str(tmp_path / "f.csv")])
        outcomes.append((code, err.getvalue()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2
    assert outcomes[0][1].startswith(f"error: {layout.commits_jsonl}:3: negative line count")


# --- source snapshots ----------------------------------------------------


def test_load_sources_follows_file_links_only(tmp_path):
    # the snapshot is read through a symlinked src/; inside it a symlink to
    # a file counts, a broken one is skipped and a symlinked directory is
    # not entered
    real = tmp_path / "real"
    (real / "sub").mkdir(parents=True)
    (real / "A.java").write_text("class A {}\n")
    (real / "sub" / "B.java").write_text("class B {}\n")
    (real / "Link.java").symlink_to("A.java")
    (real / "Broken.java").symlink_to("Missing.java")
    (real / "linked").symlink_to("sub", target_is_directory=True)
    (tmp_path / "ds").mkdir()
    (tmp_path / "ds" / "src").symlink_to(real, target_is_directory=True)
    sources = load_sources(DatasetLayout(tmp_path / "ds"))
    assert sources == {"src/A.java": "class A {}\n", "src/Link.java": "class A {}\n",
                       "src/sub/B.java": "class B {}\n"}


def walk_reference(src: Path) -> list[str]:
    """The keys ``load_sources`` gives, by ``os.walk`` and ``os.path.isfile``."""
    top, keys = str(src), []
    for dirpath, _, names in os.walk(top):
        prefix = src.name + dirpath[len(top):]
        for name in names:
            if name.endswith(".java") and os.path.isfile(os.path.join(dirpath, name)):
                keys.append(os.path.join(prefix, name))
    return keys


def test_load_sources_lists_files_as_os_walk(tmp_path, monkeypatch):
    # the same keys in the same order as os.walk over a tree with every kind
    # of entry: links to a file, to nothing, to itself and to directories, a
    # directory named like a source, a FIFO, and a directory it cannot list
    src = tmp_path / "ds" / "src"
    for d in ("a/b/c", "D.java/e", "zz/y", "locked"):
        (src / d).mkdir(parents=True)
    for i, d in enumerate(["", "a", "a/b", "a/b/c", "D.java", "D.java/e", "zz", "zz/y",
                           "locked"] * 3):
        (src / d / f"F{i * 7 % 11}x{i}.java").write_text(f"class F{i} {{}}\n")
        (src / d / f"n{i}.txt").write_text("not a source\n")
    (src / "Link.java").symlink_to("a/F7x1.java")
    (src / "a" / "b" / "Up.java").symlink_to("../../F0x0.java")
    (src / "Broken.java").symlink_to("Missing.java")
    (src / "Loop.java").symlink_to("Loop.java")
    (src / "linked").symlink_to("a", target_is_directory=True)
    (src / "a" / "Linked.java").symlink_to("b", target_is_directory=True)
    os.mkfifo(src / "zz" / "Pipe.java")
    scandir = os.scandir

    def unlistable(path):  # as for a directory without read permission
        if os.path.basename(path) == "locked":
            raise PermissionError(13, "Permission denied", path)
        return scandir(path)

    monkeypatch.setattr(os, "scandir", unlistable)
    expected = walk_reference(src)
    assert len(expected) == 26 and "src/D.java/e/F2x5.java" in expected
    assert not any("locked" in k or "Linked" in k or "linked" in k for k in expected)
    assert list(load_sources(DatasetLayout(tmp_path / "ds"))) == expected


def test_load_sources_reads_the_bytes_open_reads(tmp_path):
    # each text is what open gives: an empty file, one larger than any single
    # read (a two-byte character straddles the first read's end), CR LF, CR,
    # bytes that are not UTF-8, and a symlink to a file
    src = tmp_path / "ds" / "src"
    src.mkdir(parents=True)
    files = {
        "Empty.java": b"",
        "Big.java": b"/*" + b"x" * 65533 + "\u00e9".encode() * (3 << 19) + b"*/\n",
        "Crlf.java": b"class Crlf {\r\n  int x;\r\n}\r\n",
        "Cr.java": b"class Cr {\r  int y;\r}\r",
        "Bad.java": b"class Bad { String s = \"\xff\xfe\xc3\"; }\n\x80",
    }
    for name, data in files.items():
        (src / name).write_bytes(data)
    (src / "Link.java").symlink_to("Crlf.java")
    assert len(files["Big.java"]) > 3 << 20
    sources = load_sources(DatasetLayout(tmp_path / "ds"))
    assert sorted(sources) == sorted(f"src/{name}" for name in [*files, "Link.java"])
    for key, text in sources.items():
        with open(tmp_path / "ds" / key, "rb") as f:
            assert text == _decode(f.read()), key


def test_unreadable_source_exits_2(tmp_path, capsys, monkeypatch):
    # a source file that cannot be opened is an input error, with an
    # error: line (os.open is patched, as the suite may run as root)
    layout = write_synthetic_dataset(tmp_path / "ds", SMALL_CFG, seed=1)
    real_open = os.open

    def denied(path, *args, **kwargs):
        if str(path).endswith(".java"):
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", denied)
    code = main(["extract", str(layout.root), "--build", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: [Errno 13] Permission denied: ") and ".java" in err
    assert "Traceback" not in err


# --- git mining ---------------------------------------------------------

GIT_ENV = {
    **os.environ,
    "GIT_AUTHOR_NAME": "dev",
    "GIT_AUTHOR_EMAIL": "dev@example.com",
    "GIT_COMMITTER_NAME": "dev",
    "GIT_COMMITTER_EMAIL": "dev@example.com",
    "GIT_AUTHOR_DATE": "2024-01-01T00:00:00+00:00",
    "GIT_COMMITTER_DATE": "2024-01-01T00:00:00+00:00",
}


def _git(repo: Path, *args):
    subprocess.run(
        ["git", "-C", str(repo), *args], check=True, env=GIT_ENV, capture_output=True
    )


@pytest.fixture
def repo(tmp_path):
    r = tmp_path / "repo"
    r.mkdir()
    _git(r, "init", "-q")
    return r


def test_mine_simple_history(repo):
    (repo / "A.java").write_text("public class A {\n    int x;\n}\n")
    _git(repo, "add", "A.java")
    _git(repo, "commit", "-q", "-m", "add A")
    (repo / "A.java").write_text("public class A {\n    int x;\n    int y;\n}\n")
    _git(repo, "add", "A.java")
    _git(repo, "commit", "-q", "-m", "fix A")
    commits = ingest_git_history(repo)
    assert len(commits) == 2
    assert commits[0].message == "add A"
    assert commits[0].changed_files == {"A.java"}
    first = commits[0].file_changes[0]
    assert first.lines_added == 3 and first.lines_deleted == 0
    second = commits[1].file_changes[0]
    assert second.lines_added == 1
    assert commits[1].author == "dev"
    assert commits[1].timestamp == datetime(2024, 1, 1, tzinfo=timezone.utc)


def test_mine_attaches_unit_risks(repo):
    (repo / "A.java").write_text(
        "public class A {\n"
        "    public int f(int x) {\n"
        "        return x;\n"
        "    }\n"
        "}\n"
    )
    _git(repo, "add", "A.java")
    _git(repo, "commit", "-q", "-m", "add A")
    (repo / "A.java").write_text(
        "public class A {\n"
        "    public int f(int x) {\n"
        "        if (x > 0) { x += 1; }\n"
        "        return x;\n"
        "    }\n"
        "}\n"
    )
    _git(repo, "add", "A.java")
    _git(repo, "commit", "-q", "-m", "change f")
    commits = ingest_git_history(repo)
    fc = commits[1].file_changes[0]
    assert fc.unit_risks, "changed chunk inside a method should carry risk data"
    assert all(r.low_size and r.low_complexity and r.low_interfacing for r in fc.unit_risks)


def test_mine_merge_against_first_parent(repo):
    def commit(path, text, message):
        (repo / path).write_text(text)
        _git(repo, "add", path)
        _git(repo, "commit", "-q", "-m", message)

    commit("A.java", "class A {}\n", "add A")
    _git(repo, "checkout", "-q", "-b", "side")
    commit("B.java", "class B {\n}\n", "add B")
    _git(repo, "checkout", "-q", "-")
    message = "fix A\n\ndiff --git a/A.java b/A.java\n+++ b/A.java\n\x1e\x1f"
    commit("A.java", "class A { int x; }\n", message)
    _git(repo, "checkout", "-q", "side")
    commit("B.java", "class B {\n  int y;\n}\n", "grow B")
    _git(repo, "checkout", "-q", "-")
    _git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side")
    commits = ingest_git_history(repo)
    by_message = {c.message: c for c in commits}
    assert len(commits) == 5 and set(by_message) == {"add A", "add B", message, "grow B", "merge side"}
    position = {c.message: i for i, c in enumerate(commits)}
    assert position["add A"] == 0 and position["merge side"] == 4
    assert position["add B"] < position["grow B"]
    assert by_message[message].changed_files == {"A.java"}
    # the merge is diffed against the branch it was made on, so it brings in B
    merge = by_message["merge side"].file_changes
    assert [(fc.path, fc.lines_added, fc.lines_deleted) for fc in merge] == [("B.java", 3, 0)]


def test_mine_counts_match_numstat(repo):
    # content lines that read as diff headers once their +/- is put in front
    # of them, a lone CR, paths git quotes in headers, a merge, a binary file
    # and an empty commit
    def commit(message, **files):
        for path, data in files.items():
            (repo / path).write_bytes(data)
            _git(repo, "add", path)
        _git(repo, "commit", "-q", "--allow-empty", "-m", message)

    commit("add", **{"A.java": b"class A {\n-- k\n++ m\n}\n", "B.txt": b"b\n",
                     "my A.java": b"class B {}\n", "\u00e9\t.txt": b"e\n"})
    commit("edit", **{"A.java": b"class A {\n++ j\n+++ b/x\n@@ -1 +1 @@\n}\n"})
    commit("empty")
    _git(repo, "checkout", "-q", "-b", "side")
    commit("side", **{"C.bin": b"\0\1\2", "B.txt": b"b\r@@ -9 +9 @@\n-- z\n"})
    _git(repo, "checkout", "-q", "-")
    commit("edit again", **{"A.java": b"--- a/q\n}\n"})
    _git(repo, "merge", "-q", "--no-ff", "-m", "merge side", "side")
    commits = ingest_git_history(repo)
    assert [c.message for c in commits][-1] == "merge side" and len(commits) == 6
    for i, c in enumerate(commits):
        against = [f"{c.id}^1", c.id] if i else ["--root", c.id]
        numstat = subprocess.run(
            ["git", "-C", str(repo), "diff-tree", "--no-commit-id", "--numstat", "-z",
             "--no-renames", "-r", *against],
            check=True, capture_output=True, text=True,
        ).stdout.split("\0")[:-1]
        expected = [
            (path, int(added), int(deleted))
            for added, deleted, path in (line.split("\t", 2) for line in numstat)
            if added != "-"  # a binary file has no line counts and is not recorded
        ]
        assert [(fc.path, fc.lines_added, fc.lines_deleted) for fc in c.file_changes] == expected


def test_file_made_a_symlink_and_back_is_listed_once(repo, tmp_path):
    # git diffs a change of file type as a deletion and a creation of one
    # path; the mined commit lists the path once, and the dataset reads back
    src = repo / "src"
    src.mkdir()
    (src / "A.java").write_text("class A {\n  int x;\n}\n")
    (src / "ATest.java").write_text("class ATest { A a; }\n")
    _git(repo, "add", "src")
    _git(repo, "commit", "-q", "-m", "add A")
    (src / "A.java").unlink()
    (src / "A.java").symlink_to("ATest.java")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "link A")
    (src / "A.java").unlink()
    (src / "A.java").write_text("class A {}\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "unlink A")
    commits = ingest_git_history(repo)
    assert [[(fc.path, fc.lines_added, fc.lines_deleted, fc.added_chunks, fc.deleted_chunks)
             for fc in c.file_changes] for c in commits] == [
        [("src/A.java", 3, 0, (1,), ()), ("src/ATest.java", 1, 0, (1,), ())],
        [("src/A.java", 1, 3, (1,), (1,))],
        [("src/A.java", 1, 1, (1,), (1,))],
    ]
    (repo / "builds.csv").write_text(
        "build_id,timestamp_iso8601,commits\n"
        + "".join(f"{i},2024-01-0{i}T00:00:00+00:00,{c.id}\n" for i, c in enumerate(commits, 1))
    )
    (repo / "exec_records.csv").write_text(
        "build_id,job_id,test_path,verdict,duration_ms\n"
        + "".join(f"{i},j0,src/ATest.java,{i % 2},1.0\n" for i in (1, 2, 3))
    )
    dest = tmp_path / "dest"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", str(repo), str(dest)]) == 0
        assert main(["extract", str(dest), "--build", "3"]) == 0
    assert [c.file_changes for c in ingest.read_commits_jsonl(dest / "commits.jsonl")] == [
        c.file_changes for c in commits]


def test_empty_repo_yields_no_commits(repo):
    assert ingest_git_history(repo) == []


def test_not_a_repo(tmp_path):
    with pytest.raises(RepoNotFoundError):
        ingest_git_history(tmp_path / "nope")


def test_unresolvable_ref(repo):
    (repo / "A.java").write_text("class A {}\n")
    _git(repo, "add", "A.java")
    _git(repo, "commit", "-q", "-m", "add A")
    with pytest.raises(UnresolvableRefError):
        ingest_git_history(repo, "no-such-branch")


def test_ingest_of_a_repository_copies_only_its_src_snapshot(repo, tmp_path):
    # the repository's tree is no source snapshot: only a top-level src/ is
    (repo / "app").mkdir()
    (repo / "app" / "A.java").write_text("class A {}\n")
    (repo / "app" / "ATest.java").write_text("class ATest { A a; }\n")
    _git(repo, "add", "app")
    _git(repo, "commit", "-q", "-m", "add A")
    sha = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    (repo / "builds.csv").write_text(
        f"build_id,timestamp_iso8601,commits\n1,2024-01-01T00:00:00+00:00,{sha}\n"
    )
    (repo / "exec_records.csv").write_text(
        "build_id,job_id,test_path,verdict,duration_ms\n1,j0,app/ATest.java,0,1.0\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", str(repo), str(tmp_path / "dest")]) == 0
    assert sorted(p.name for p in (tmp_path / "dest").iterdir()) == [
        "builds.csv", "commits.jsonl", "derived", "exec_records.csv"]
    # with a src/ snapshot, that is copied as before
    (repo / "src").mkdir()
    (repo / "src" / "B.java").write_text("class B {}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", str(repo), str(tmp_path / "dest2")]) == 0
    assert load_sources(DatasetLayout(tmp_path / "dest2")) == {"src/B.java": "class B {}\n"}
