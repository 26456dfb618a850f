from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from tcpci.coverage import (
    AssociationMiner,
    PdfIndex,
    build_dependency_graph_from_sources,
    is_defect_fix_keyword,
)
from tcpci.errors import UnknownTestError
from tcpci.model import Commit, FileChange

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)


def history_of(change_sets, messages=None):
    commits = []
    for i, files in enumerate(change_sets):
        msg = messages[i] if messages else "msg"
        commits.append(
            Commit(
                id=f"{i:040x}",
                timestamp=TS,
                author="dev",
                message=msg,
                file_changes=tuple(FileChange(p, 1, 0) for p in sorted(files)),
            )
        )
    return commits


def test_association_example_from_four_change_sets():
    # CH = ({f1,f2,f3},{f1,f3},{f2},{f1,f2,f3,f4})
    commits = history_of(
        [{"f1", "f2", "f3"}, {"f1", "f3"}, {"f2"}, {"f1", "f2", "f3", "f4"}]
    )
    s = AssociationMiner(commits).scores("f1", "f3")
    assert s.support == 0.75
    assert s.confidence == 1.0
    assert s.lift == pytest.approx(1 / 3)


def test_association_pair_example():
    commits = history_of([{"A", "B"}, {"A"}, {"B"}, {"A", "B"}])
    s = AssociationMiner(commits).scores("A", "B")
    assert s.support == 0.5
    assert s.confidence == pytest.approx(2 / 3)
    assert s.lift == pytest.approx(2 / 9)


def test_never_changed_file_all_zero():
    commits = history_of([{"A"}, {"B"}])
    s = AssociationMiner(commits).scores("Z", "A")
    assert (s.support, s.confidence, s.lift) == (0.0, 0.0, 0.0)


def test_always_co_change():
    commits = history_of([{"A", "B"}] * 4)
    s = AssociationMiner(commits).scores("A", "B")
    assert s.support == 1.0
    assert s.confidence == 1.0
    assert s.lift == pytest.approx(1 / 4)


def test_support_and_lift_symmetric_confidence_not():
    commits = history_of([{"A", "B"}, {"A"}, {"A"}, {"B"}])
    ab = AssociationMiner(commits).scores("A", "B")
    ba = AssociationMiner(commits).scores("B", "A")
    assert ab.support == ba.support
    assert ab.lift == ba.lift
    assert ab.confidence != ba.confidence


def test_prefix_cutoff():
    commits = history_of([{"A", "B"}, {"A"}, {"A", "B"}])
    miner = AssociationMiner(commits)
    assert miner.scores("A", "B", 1).support == 1.0
    assert miner.scores("A", "B", 3).support == pytest.approx(2 / 3)
    assert miner.scores("A", "B", 0).support == 0.0


@given(
    st.lists(
        st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from(["a", "b", "c", "d"]),
)
def test_miner_matches_brute_force(change_sets, f, g):
    commits = history_of(change_sets)
    s = AssociationMiner(commits).scores(f, g)
    n = len(change_sets)
    p = sum(1 for ch in change_sets if f in ch and g in ch)
    cf = sum(1 for ch in change_sets if f in ch)
    cg = sum(1 for ch in change_sets if g in ch)
    assert s.support == pytest.approx(p / n)
    assert s.confidence == pytest.approx(p / cf if cf else 0.0)
    assert s.lift == pytest.approx(p / (cf * cg) if cf and cg else 0.0)


# --- graph --------------------------------------------------------------


def graph_fixture():
    return build_dependency_graph_from_sources(
        {
            "src/app/A.java": "package app;\npublic class A { B b; }\n",
            "src/app/B.java": "package app;\npublic class B { }\n",
            "src/test/ATest.java": "import app.A;\nimport app.B;\npublic class ATest { }\n",
        }
    )


def test_covered_files_filters_tests():
    g = graph_fixture()
    assert g.covered_files("src/test/ATest.java") == {"src/app/A.java", "src/app/B.java"}
    with pytest.raises(UnknownTestError):
        g.covered_files("src/test/Nope.java")


def test_impacted_files_depth_and_disjointness():
    g = graph_fixture()
    # A depends on B, so changing B impacts A (reverse edge)
    imp = g.impacted_files(frozenset({"src/app/B.java"}), depth=1)
    assert imp == {"src/app/A.java"}
    assert g.impacted_files(frozenset(), depth=1) == frozenset()
    deeper = g.impacted_files(frozenset({"src/app/B.java"}), depth=2)
    assert imp <= deeper
    assert "src/app/B.java" not in deeper


def test_pdf_counts_defect_fix_commits():
    commits = history_of(
        [{"f"}, {"f"}, {"f", "g"}],
        messages=["fix crash", "add feature", "bug in g"],
    )
    pdf = PdfIndex(commits)
    assert pdf.pdf("f") == 2
    assert pdf.pdf("g") == 1
    assert pdf.pdf("zzz") == 0
    # monotone in the prefix cutoff
    values = [pdf.pdf("f", n) for n in range(4)]
    assert values == sorted(values)


def test_keyword_fallback():
    assert is_defect_fix_keyword("Bugfix for issue 12")
    assert is_defect_fix_keyword("fix crash in parser")
    assert is_defect_fix_keyword("Patched the flaky timeout")
    assert not is_defect_fix_keyword("Add feature flags")
    assert not is_defect_fix_keyword("refactor tests")
    assert is_defect_fix_keyword("debugging the cache")
    # a URL is taken out of the message
    assert not is_defect_fix_keyword("see https://fix.example.org/bug")
