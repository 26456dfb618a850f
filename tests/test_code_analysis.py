import hashlib
import re
from dataclasses import astuple
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from tcpci.catalog import CHANGE_METRICS, COMPLEXITY_METRICS, PROCESS_METRICS
from tcpci.code_analysis import (
    FileIndex,
    ProcessHistory,
    analyze_file,
    _LEXEME_RE,
    _strip_comments,
    assess_chunk_risks,
    change_scattering,
    compute_change_metrics,
    is_test_file,
    scan_entity,
    unit_spans,
)
from tcpci.model import Commit, FileChange, UnitRisk

TS = datetime(2024, 1, 1, tzinfo=timezone.utc)


def commit(i, author, files):
    """files: list of (path, added, deleted)."""
    return Commit(
        id=f"{i:040x}",
        timestamp=TS,
        author=author,
        message="msg",
        file_changes=tuple(FileChange(p, a, d) for p, a, d in files),
    )


SIMPLE = """\
package demo;

public class Widget {
    private int count = 0;

    public int tally(int[] xs) {
        if (xs.length > 0) {
            for (int x : xs) {
                count += x;
            }
        }
        return count;
    }
}
"""


def test_empty_file_all_zero():
    m, _ = analyze_file("", "A.java")
    assert m.CountLine == 0
    assert m.SumCyclomatic == 0
    assert m.RatioCommentToCode == 0.0


def test_one_if_one_for_cyclomatic_three():
    m, _ = analyze_file(SIMPLE, "Widget.java")
    assert m.CountDeclFunction == 1
    assert m.SumCyclomatic == 3
    assert m.MaxCyclomatic == 3


def test_line_partition_invariant():
    text = "// header\n\npublic class A {\n    int x; // trailing\n    /* block */\n}\n"
    m, _ = analyze_file(text, "A.java")
    assert m.CountLine == m.CountLineBlank + m.CountLineCode + m.CountLineComment
    assert m.CountLineComment == 2  # header + block line
    assert m.CountLineBlank == 1
    # a line holding only the closer of a multi-line block is comment
    m, _ = analyze_file("class A {\n  /* a\n   * b\n   */\n}\n", "A.java")
    assert (m.CountLineCode, m.CountLineComment, m.CountLineBlank) == (2, 3, 0)


# Java-like pieces, with the characters str.splitlines() also breaks at
_JAVA_PIECES = [
    "/", "*", '"', "'", "\\", "\n", "\r\n", "\r", " ", "\t", "//", "/*", "*/", "a1", ";",
    "{", "}", "\xe9", "\x0b", "\x0c", "\x85", "\u2028",
]


@given(st.lists(st.sampled_from(_JAVA_PIECES), max_size=40).map("".join))
def test_strip_comments_keeps_layout(text):
    code, kinds = _strip_comments(text)
    assert len(code) == len(text)
    assert [i for i, c in enumerate(code) if c == "\n"] == [i for i, c in enumerate(text) if c == "\n"]
    # one kind per line, where only "\n" ends a line
    assert len(kinds) == (len(text.removesuffix("\n").split("\n")) if text else 0)
    # every code line has non-space text outside comments
    bare = _LEXEME_RE.sub(lambda m: re.sub(r"[^\n]", " ", m[1]) if m[1] else m[0], text)
    for line, kind in zip(bare.split("\n"), kinds):
        assert kind in ("blank", "code", "comment")
        if kind == "code":
            assert line.strip()


# type names of the index below, and the headers and imports that name them
_TYPE_NAMES = ["A", "Bee", "C1", "Main"]
_INDEX_FILES = {"p/A.java", "p/Bee.java", "q/C1.java", "r/Main.java", "Main.java"}
_HEADERS = st.builds(
    lambda kw, name, rel, other: f"{kw} {name}{rel}{other} ",
    st.sampled_from(["class", "interface", "enum", "record", "public class"]),
    st.sampled_from(_TYPE_NAMES + ["int", "<T>", ""]),
    st.sampled_from(["", " extends ", " implements ", " extends Bee implements "]),
    st.sampled_from(_TYPE_NAMES + ["C1, A", ""]),
)
_ENTITY_PIECES = st.one_of(
    st.sampled_from(_JAVA_PIECES + _TYPE_NAMES + ["(", ")", "<", ">", ",", "=", "new", "x"]),
    st.sampled_from(["import p.A;", "import q.C1;", "import static p.Bee;", "import q.*;",
                     "import r.Main;\n"]),
    _HEADERS,
)


@settings(max_examples=300)
@given(
    st.tuples(st.sampled_from(["", " "]), st.lists(_ENTITY_PIECES, max_size=30)).map(
        lambda t: t[0].join(t[1])
    ),
    st.sampled_from(_TYPE_NAMES + [""]),
    st.sampled_from(sorted(_INDEX_FILES) + ["s/Other.java"]),
)
def test_scan_entity_equals_analyze_file(body, last, path):
    # the import/call scan must find what the full analysis finds, also when
    # the text ends inside a type header with a capitalized token
    text = body + last
    index = FileIndex(_INDEX_FILES | {path})
    assert scan_entity(text, path, index) == analyze_file(text, path, index)[1]


def test_only_newline_ends_a_line():
    m, _ = analyze_file("int a;\x0cint b;\n", "A.java")
    assert (m.CountLine, m.CountLineCode, m.CountLineBlank) == (1, 1, 0)
    m, _ = analyze_file("int a;\rint b;\r", "A.java")
    assert m.CountLine == 1


def test_text_block_is_one_literal():
    code, kinds = _strip_comments('String s = """\n  say "hi" // x\n  """;\n')
    assert "hi" not in code and "//" not in code
    assert kinds == ["code", "code", "code"]  # the literal's text is code


def test_mixed_comment_code_line_counts_as_code():
    m, _ = analyze_file("int x; // note\n", "A.java")
    assert m.CountLineCode == 1
    assert m.CountLineComment == 0


def test_analyze_is_pure():
    a = analyze_file(SIMPLE, "Widget.java")
    b = analyze_file(SIMPLE, "Widget.java")
    assert a == b


def test_sum_cyclomatic_at_least_function_count():
    text = "class A { void f() { } void g() { if (true) { } } }"
    m, _ = analyze_file(text, "A.java")
    assert m.CountDeclFunction == 2
    assert m.SumCyclomatic >= m.CountDeclFunction


def test_method_visibility_counts():
    text = (
        "class A {\n"
        "    public void a() { }\n"
        "    private void b() { }\n"
        "    protected void c() { }\n"
        "    void d() { }\n"
        "    static void e() { }\n"
        "}\n"
    )
    m, _ = analyze_file(text, "A.java")
    assert m.CountDeclMethod == 5
    assert m.CountDeclMethodPublic == 1
    assert m.CountDeclMethodPrivate == 1
    assert m.CountDeclMethodProtected == 1
    assert m.CountDeclMethodDefault == 2  # d and e have no access modifier
    assert m.CountDeclClassMethod == 1  # static e
    assert m.CountDeclInstanceMethod == 4


def test_strict_cyclomatic_counts_logical_operators():
    text = "class A { int f(int x) { if (x > 0 && x < 9) { return x > 4 ? 1 : 0; } return 0; } }"
    m, _ = analyze_file(text, "A.java")
    assert m.MaxCyclomatic == 2  # 1 + if
    assert m.MaxCyclomaticStrict == 4  # + && and ?


def test_import_resolution():
    idx = FileIndex({"p/B.java", "A.java"})
    _, e = analyze_file("import p.B;\nclass A { }\n", "A.java", idx)
    assert e.import_targets == {"p/B.java"}


def test_ambiguous_call_target_produces_no_edge():
    idx = FileIndex({"p/B.java", "q/B.java", "A.java"})
    _, e = analyze_file("class A { B b; }", "A.java", idx)
    assert e.call_targets == set()


def test_test_file_detection():
    assert is_test_file("src/test/Foo.java")
    assert is_test_file("src/main/FooTest.java")
    assert is_test_file("TestFoo.java")
    assert not is_test_file("src/main/Foo.java")
    assert not is_test_file("protest/Foo.java")


# --- process metrics ----------------------------------------------------


def test_single_author_process_metrics():
    hist = [commit(i, "alice", [("f.java", 2, 1)]) for i in range(3)]
    pm = ProcessHistory(hist).metrics("f.java", len(hist) - 1)
    assert pm.CommitCount == 3
    assert pm.DistinctDevCount == 1
    assert pm.OwnersContribution == 100.0


def test_minor_contributor_below_five_percent():
    hist = [
        commit(1, "alice", [("f.java", 96, 0)]),
        commit(2, "bob", [("f.java", 4, 0)]),
    ]
    pm = ProcessHistory(hist).metrics("f.java", len(hist) - 1)
    assert pm.MinorContributorCount == 1
    assert pm.OwnersContribution == 96.0


def test_geometric_mean_experience():
    hist = [
        commit(1, "alice", [("f.java", 5, 0), ("g.java", 5, 0)]),
        commit(2, "bob", [("f.java", 5, 0), ("h.java", 35, 0)]),
        commit(3, "carol", [("z.java", 50, 0)]),
    ]
    pm = ProcessHistory(hist).metrics("f.java", len(hist) - 1)
    assert pm.AllCommitersExperience == pytest.approx(20.0)


def test_file_never_touched_all_zero():
    hist = [commit(1, "alice", [("f.java", 1, 0)])]
    pm = ProcessHistory(hist).metrics("other.java", 0)
    assert pm.CommitCount == 0
    assert pm.OwnersContribution == 0.0


def test_process_metrics_respect_as_of():
    hist = [
        commit(1, "alice", [("f.java", 10, 0)]),
        commit(2, "bob", [("f.java", 10, 0)]),
    ]
    pm = ProcessHistory(hist).metrics("f.java", 0)
    assert pm.DistinctDevCount == 1


# --- change metrics -----------------------------------------------------


def test_scattering_single_chunk_zero():
    assert change_scattering([10]) == 0.0
    assert change_scattering([]) == 0.0


def test_scattering_two_chunks():
    assert change_scattering([10, 30]) == 40.0


@given(st.lists(st.integers(1, 500), min_size=2, max_size=8))
def test_scattering_permutation_and_translation_invariant(chunks):
    base = change_scattering(chunks)
    assert change_scattering(list(reversed(chunks))) == pytest.approx(base)
    assert change_scattering([c + 7 for c in chunks]) == pytest.approx(base)


def test_change_metrics_aggregation():
    changes = [
        FileChange("f.java", 5, 2, added_chunks=(10,)),
        FileChange("f.java", 3, 0, added_chunks=(30,)),
        FileChange("other.java", 9, 9),
    ]
    cm = compute_change_metrics("f.java", changes)
    assert cm.LinesAdded == 8
    assert cm.LinesDeleted == 2
    assert cm.AddedChangeScattering == 40.0
    assert cm.DMMUnitSize == -1.0  # no risk data


def test_dmm_all_low_risk_is_one():
    risk = UnitRisk(lines_added=4, lines_deleted=0, low_size=True, low_complexity=True, low_interfacing=True)
    changes = [FileChange("f.java", 4, 0, added_chunks=(1,), unit_risks=(risk,))]
    cm = compute_change_metrics("f.java", changes)
    assert cm.DMMUnitSize == 1.0
    assert cm.DMMUnitComplexity == 1.0
    assert cm.DMMUnitInterfacing == 1.0


def test_dmm_removing_high_risk_is_low_risk():
    risk = UnitRisk(lines_added=0, lines_deleted=6, low_size=False, low_complexity=False, low_interfacing=False)
    changes = [FileChange("f.java", 0, 6, deleted_chunks=(1,), unit_risks=(risk,))]
    cm = compute_change_metrics("f.java", changes)
    assert cm.DMMUnitSize == 1.0


def test_unit_spans_and_chunk_risks():
    units = unit_spans(SIMPLE)
    assert len(units) == 1
    u = units[0]
    assert u.name == "tally"
    risks = assess_chunk_risks("", SIMPLE, [(u.start_line + 1, 2)], [])
    assert len(risks) == 1
    assert risks[0].lines_added == 2
    assert risks[0].low_complexity  # cyclomatic 3 <= 5
    # chunk outside any unit produces no entry
    assert assess_chunk_risks("", SIMPLE, [(1, 1)], []) == []


# --- analysis golden ----------------------------------------------------

GOLDEN_SOURCES = {
    "src/main/java/p/Shape.java": """\
package p;

import java.util.List;
import q.Util;
import q.*;

/**
 * A shape.
 *
 * @param <T> the tag type
 */
public interface Shape<T extends Comparable<T>> {
    double area();  // in square units
    default String label() { return "shape // not a comment"; }
}
""",
    "src/main/java/p/Circle.java": """\
package p;

import static q.Util.clamp;
import q.Util;

/* Circle: a block comment
   spanning lines */
public final class Circle implements Shape<String> {
    public static final double PI = 3.14159;
    private static int created;
    protected double radius = 1.0;
    String name, alias;
    private final Map<String, List<Integer>> cache = new HashMap<>();

    public Circle(double radius) throws IllegalArgumentException {
        if (radius < 0 || Double.isNaN(radius)) {
            throw new IllegalArgumentException("bad \\"radius\\" /* no */");
        }
        this.radius = radius;
        created++;
    }

    @Override
    public double area() {
        return PI * radius * radius;
    }

    private static int classify(int code) {
        switch (code) {
            case 1:
                return 10;
            case 2:
            case 3:
                break;
            default:
                return -1;
        }
        return code > 5 && code < 9 ? 1 : 0;
    }

    protected <K, V> int scan(Map<K, V> m, char sep) {
        int hits = 0;
        for (K k : m.keySet()) {
            if (k == null) {
                continue;
            }
            while (hits < 10) {
                if (sep == '\\'' || sep == '"') {
                    hits += 2;
                    break;
                } else if (sep == '/') {
                    hits++;
                }
                try {
                    hits += Util.clamp(hits, 0, 9);
                } catch (RuntimeException e) {
                    return -hits;
                }
            }
        }
        return hits;
    }

    int lambdaUser(List<String> xs) {
        xs.forEach(x -> { if (x.isEmpty()) { return; } });
        String block = \"\"\"
            text block with // and /* inside
            \"\"\";
        return xs.size();
    }

    void empty() { }
}
""",
    "src/main/java/q/Util.java": """\
package q;

public class Util {
    // line comment only
    public static int clamp(int v, int lo, int hi) {
        return v < lo ? lo : v > hi ? hi : v;
    }

    enum Mode { FAST, SLOW; int weight() { return this == FAST ? 1 : 2; } }

    record Pair(int a, int b) {
        Pair {
            if (a > b) { throw new IllegalStateException(); }
        }
        int sum() { return a + b; }
    }

    static class Inner {
        private int depth(int n) {
            if (n <= 0) return 0;
            { { int x = n; if (x > 1) { x--; } } }
            return 1 + depth(n - 1);
        }
    }
}
""",
    "src/test/java/p/CircleTest.java": """\
package p;

import org.junit.Test;

public class CircleTest {
    @Test
    public void area() {
        Circle c = new Circle(2.0);
        assert c.area() > 12.0 : "area";
    }
}
""",
    "src/main/java/p/Broken.java": "class Broken { void f( { if (x) } } /* open",
}


def test_analysis_golden():
    # Any change to this digest changes the static-analysis output: a
    # refactor of code_analysis must keep it.
    digest = hashlib.sha256()

    def put(*values):
        digest.update(repr(values).encode())

    index = FileIndex(set(GOLDEN_SOURCES))
    for path in sorted(GOLDEN_SOURCES):
        source = GOLDEN_SOURCES[path]
        m, e = analyze_file(source, path, index)
        put(path, [repr(float(getattr(m, n))) for n in COMPLEXITY_METRICS])
        put(sorted(e.import_targets), sorted(e.call_targets))
        put([(u.name, u.start_line, u.end_line) for u in unit_spans(source)])

    pre = GOLDEN_SOURCES["src/main/java/p/Circle.java"]
    post = pre.replace("        created++;\n", "        created++;\n        name = null;\n")
    spans = [(1, 2), (17, 3), (31, 1), (40, 6), (55, 2), (70, 1), (90, 4)]
    put([astuple(r) for r in assess_chunk_risks(pre, post, spans, spans[::-1])])

    hist = [
        commit(1, "alice", [("a.java", 40, 0), ("b.java", 10, 2)]),
        commit(2, "bob", [("a.java", 3, 1)]),
        commit(3, "carol", [("b.java", 0, 0)]),
        commit(4, "alice", [("a.java", 1, 1), ("c.java", 99, 0)]),
    ]
    ph = ProcessHistory(hist)
    for path in ("a.java", "b.java", "c.java", "d.java"):
        for idx in range(len(hist)):
            pm = ph.metrics(path, idx)
            put(path, idx, [repr(float(getattr(pm, n))) for n in PROCESS_METRICS])

    risk = UnitRisk(lines_added=3, lines_deleted=1, low_size=True, low_complexity=False, low_interfacing=True)
    changes = [
        FileChange("a.java", 5, 2, added_chunks=(10, 40), deleted_chunks=(12,), unit_risks=(risk,)),
        FileChange("a.java", 3, 7, added_chunks=(3,), deleted_chunks=(1, 9, 30)),
        FileChange("b.java", 1, 0, added_chunks=(5,)),
    ]
    for path in ("a.java", "b.java", "c.java"):
        cm = compute_change_metrics(path, changes)
        put(path, [repr(float(getattr(cm, n))) for n in CHANGE_METRICS])

    assert digest.hexdigest() == (
        "3dbdd8c5560abb91d75aa073d953506c90b2c6338fc17246189988e310dd75e3"
    )
