import copy
import pickle
from datetime import datetime, timezone

import numpy as np
import pytest

from tcpci.errors import DuplicateRecordError
from tcpci.model import (
    AssociationScores,
    Build,
    BuildHistory,
    Commit,
    ExecutionRecord,
    FileChange,
    Verdict,
)
from tcpci.synth import SynthConfig, generate_synthetic_history

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
    return Build.from_records(
        id=bid,
        commits=tuple(c.id for c in commits),
        records=tuple(records),
    )


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        ExecutionRecord(1, "t", Verdict.PASSED, -1.0)


def test_duplicate_test_in_build_rejected():
    rec = ExecutionRecord(1, "t", Verdict.PASSED, 1.0)
    with pytest.raises(ValueError):
        make_build(1, records=(rec, rec))


def test_commit_listing_a_file_twice_rejected():
    # ProcessHistory would count two touches of the file, AssociationMiner one
    with pytest.raises(DuplicateRecordError, match="lists 'a.java' twice"):
        make_commit(1, files=("a.java", "b.java", "a.java"))


def test_build_failed_flag():
    ok = make_build(1, records=(ExecutionRecord(1, "t", Verdict.PASSED, 1.0),))
    bad = make_build(2, records=(ExecutionRecord(2, "t", Verdict.EXCEPTION_FAILURE, 1.0),))
    assert not ok.failed
    assert bad.failed
    # each failure kind counts as failed
    for v in (Verdict.ASSERTION_FAILURE, Verdict.EXCEPTION_FAILURE, Verdict.UNKNOWN_FAILURE):
        recs = (ExecutionRecord(3, "s", Verdict.PASSED, 1.0), ExecutionRecord(3, "t", v, 1.0))
        assert make_build(3, records=recs).failed


def test_build_stores_records_as_columns():
    recs = (
        ExecutionRecord(1, "b", Verdict.PASSED, 2.5),
        ExecutionRecord(1, "a", Verdict.UNKNOWN_FAILURE, -0.0),
    )
    b = make_build(1, records=recs)
    # test order, Verdict members, and the same values back
    assert b.tests == ("a", "b")
    assert b.records == recs[::-1]
    assert [type(r.verdict) for r in b.records] == [Verdict, Verdict]
    assert b.records[0].duration_ms == 0.0 and str(b.records[0].duration_ms) == "-0.0"
    assert b == Build(1, b.commits, b.tests, b.verdicts.copy(), b.durations.copy())
    assert b != make_build(1, records=(recs[0],))
    for other in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert other == b and hash(other) == hash(b)
        assert not (other.verdicts.flags.writeable or other.durations.flags.writeable)
    with pytest.raises(AttributeError):
        b.id = 2
    with pytest.raises(ValueError):
        b.durations[0] = 1.0


def test_build_constructor_checks_its_columns():
    verdicts, durations = np.zeros(2, np.int8), np.ones(2)
    with pytest.raises(ValueError):
        Build(0, (), ("a", "b"), verdicts, durations)
    for tests in (("b", "a"), ("a", "a")):
        with pytest.raises(ValueError):
            Build(1, (), tests, verdicts, durations)
    assert Build(1, (), ("a", "b"), verdicts, durations).failed is False
    assert not (verdicts.flags.writeable or durations.flags.writeable)


def test_build_from_records_rejects_a_record_of_another_build():
    own = ExecutionRecord(1, "a", Verdict.PASSED, 1.0)
    other = ExecutionRecord(2, "b", Verdict.PASSED, 1.0)
    assert Build.from_records(1, (), (own,)).records == (own,)
    with pytest.raises(ValueError):
        Build.from_records(1, (), (own, other))


def test_synthetic_history_constructs_no_execution_record(monkeypatch):
    # the generator fills the columns; records are made only when read
    made = []
    monkeypatch.setattr(ExecutionRecord, "__post_init__", lambda self: made.append(self))
    history, _ = generate_synthetic_history(SynthConfig(n_builds=3), seed=1)
    assert made == []
    assert len(history.builds[0].records) == len(made) == 100


def test_history_commit_prefix_ordering():
    c1, c2, c3 = make_commit(1), make_commit(2), make_commit(3)
    b1 = make_build(1, commits=(c1,))
    b2 = make_build(2, commits=(c2, c3))
    history = BuildHistory([b2, b1], {c.id: c for c in (c1, c2, c3)})
    assert [b.id for b in history.builds] == [1, 2]
    assert [c.id for c in history.commit_sequence[: history.n_commits(1)]] == [c1.id]
    assert [c.id for c in history.commit_sequence[: history.n_commits(2)]] == [c1.id, c2.id, c3.id]


def test_history_changed_files_are_the_union_of_each_builds_commits():
    c1 = make_commit(1, files=("a.java", "b.java"))
    c2 = make_commit(2, files=("b.java", "c.java"))
    c3 = make_commit(3, files=("d.java",))
    # c2 is shared by builds 1 and 2; build 3 has no commits
    b1, b2, b3 = make_build(1, (c1, c2)), make_build(2, (c2, c3)), make_build(3)
    history = BuildHistory([b3, b1, b2], {c.id: c for c in (c1, c2, c3)})
    assert history.changed_files(1) == {"a.java", "b.java", "c.java"}
    assert history.changed_files(2) == {"b.java", "c.java", "d.java"}
    assert history.changed_files(3) == frozenset()


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
