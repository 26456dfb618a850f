from datetime import datetime, timezone

import pytest

from tcpci.model import (
    AssociationScores,
    Build,
    BuildHistory,
    ChangeSet,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
    is_failed,
)

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)


def make_commit(i, files=("a.java",), author="dev", message="msg"):
    return Commit(
        id=f"{i:040x}",
        timestamp=TS,
        author=author,
        message=message,
        file_changes=tuple(FileChange(p, 1, 0) for p in files),
    )


def make_build(bid, commits=(), records=()):
    changed = frozenset(p for c in commits for p in c.changed_files)
    return Build(
        id=bid,
        change_set=ChangeSet(bid, tuple(c.id for c in commits), changed),
        records=tuple(records),
    )


def test_verdict_failed_flags():
    assert not is_failed(Verdict.PASSED)
    for v in (Verdict.ASSERTION_FAILURE, Verdict.EXCEPTION_FAILURE, Verdict.UNKNOWN_FAILURE):
        assert is_failed(v)


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        ExecutionRecord(1, "t", Verdict.PASSED, -1.0)


def test_duplicate_test_in_build_rejected():
    rec = ExecutionRecord(1, "t", Verdict.PASSED, 1.0)
    with pytest.raises(ValueError):
        make_build(1, records=(rec, rec))


def test_build_failed_flag():
    ok = make_build(1, records=(ExecutionRecord(1, "t", Verdict.PASSED, 1.0),))
    bad = make_build(2, records=(ExecutionRecord(2, "t", Verdict.EXCEPTION_FAILURE, 1.0),))
    assert not ok.failed
    assert bad.failed


def test_history_commit_prefix_ordering():
    c1, c2, c3 = make_commit(1), make_commit(2), make_commit(3)
    b1 = make_build(1, commits=(c1,))
    b2 = make_build(2, commits=(c2, c3))
    history = BuildHistory([b2, b1], {c.id: c for c in (c1, c2, c3)})
    assert [b.id for b in history.builds] == [1, 2]
    assert [c.id for c in history.commits_up_to(1)] == [c1.id]
    assert [c.id for c in history.commits_up_to(2)] == [c1.id, c2.id, c3.id]


def test_history_unknown_commit_rejected():
    c1 = make_commit(1)
    b1 = make_build(1, commits=(c1,))
    with pytest.raises(ValueError):
        BuildHistory([b1], {})


def test_association_score_ranges():
    with pytest.raises(ValueError):
        AssociationScores(1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        AssociationScores(0.5, 0.5, -0.1)
