import contextlib
import hashlib
import io
import os
import subprocess
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpci import ingest
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
from tcpci.model import Build, BuildHistory, ExecutionRecord, Verdict
from tcpci.synth import SynthConfig, generate_synthetic_history, load_sources

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


def _redigested(layout: DatasetLayout, payload: bytes) -> bytes:
    """``layout``'s table with ``payload`` and that payload's digest."""
    data = layout.exec_table.read_bytes()
    csv_size, csv_digest, _ = ingest._TABLE_HEAD.unpack_from(data, len(ingest._TABLE_MAGIC))
    head = ingest._TABLE_HEAD.pack(csv_size, csv_digest, hashlib.sha256(payload).digest())
    return ingest._TABLE_MAGIC + head + payload


@settings(max_examples=1000, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["set", "cut", "extend"]), st.integers(0, 10**6),
                                st.one_of(st.integers(0, 6), st.integers(0, 255))),
                      min_size=1, max_size=4))
def test_redigested_exec_table_never_raises(small_layout, edits):
    # a table edited with its payload digest made to match is ignored, or
    # read as columns that keep every rule of the CSV reader
    data = small_layout.exec_table.read_bytes()
    start = len(ingest._TABLE_MAGIC) + ingest._TABLE_HEAD.size
    payload = data[start:]
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
    data = small_layout.exec_table.read_bytes()
    payload = bytearray(data[len(ingest._TABLE_MAGIC) + ingest._TABLE_HEAD.size:])
    at = ingest._PAYLOAD_HEAD.size
    assert np.frombuffer(payload, "<i8", 3, at).tolist() == [1, 2, 3]
    payload[at:at + 24] = np.array(ids, "<i8").tobytes()
    table = tmp_path / "exec_records.bin"
    table.write_bytes(_redigested(small_layout, bytes(payload)))
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
