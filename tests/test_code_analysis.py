import ast
import hashlib
import re
from collections import Counter
from dataclasses import astuple, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tcpci.catalog import CHANGE_METRICS, COMPLEXITY_METRICS, PROCESS_METRICS
from tcpci import code_analysis, ingest, source_rows, synth
from tcpci.code_analysis import (
    FileIndex,
    ProcessHistory,
    SourceEntity,
    assess_chunk_risks,
    change_scattering,
    compute_change_metrics,
    is_test_file,
    scan_entity,
)
from tcpci.source_rows import (
    JAVA_KEYWORDS,
    ComplexityMetrics,
    analyze_file,
    _lex,
    _tokens,
    source_row,
    unit_spans,
)
from tcpci.model import Commit, FileChange, UnitRisk
from tcpci.synth import generate_synthetic_history

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
    m = analyze_file("")
    assert m.CountLine == 0
    assert m.SumCyclomatic == 0
    assert m.RatioCommentToCode == 0.0


def test_one_if_one_for_cyclomatic_three():
    m = analyze_file(SIMPLE)
    assert m.CountDeclFunction == 1
    assert m.SumCyclomatic == 3
    assert m.MaxCyclomatic == 3


def test_line_partition_invariant():
    text = "// header\n\npublic class A {\n    int x; // trailing\n    /* block */\n}\n"
    m = analyze_file(text)
    assert m.CountLine == m.CountLineBlank + m.CountLineCode + m.CountLineComment
    assert m.CountLineComment == 2  # header + block line
    assert m.CountLineBlank == 1
    # a line holding only the closer of a multi-line block is comment
    m = analyze_file("class A {\n  /* a\n   * b\n   */\n}\n")
    assert (m.CountLineCode, m.CountLineComment, m.CountLineBlank) == (2, 3, 0)


# Java-like pieces, with the characters str.splitlines() also breaks at
_JAVA_PIECES = [
    "/", "*", '"', "'", "\\", "\n", "\r\n", "\r", " ", "\t", "//", "/*", "*/", "a1", ";",
    "{", "}", "\xe9", "\x0b", "\x0c", "\x85", "\u2028",
]


@given(st.lists(st.sampled_from(_JAVA_PIECES), max_size=40).map("".join))
def test_strip_comments_keeps_layout(text):
    code, kinds = lexed_code_and_kinds(text)
    assert len(code) == len(text)
    assert [i for i, c in enumerate(code) if c == "\n"] == [i for i, c in enumerate(text) if c == "\n"]
    # one kind per line, where only "\n" ends a line
    assert len(kinds) == (len(text.removesuffix("\n").split("\n")) if text else 0)
    # every code line has non-space text outside comments
    bare = analysis_reference.lexeme_re.sub(
        lambda m: re.sub(r"[^\n]", " ", m[1]) if m[1] else m[0], text
    )
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
                     "import r.Main;\n", "import static p.A.m;", "import static p.Bee.*;",
                     "import static q.C1.In.x;", "import static r.*;", "import static Main.run;",
                     "import static p.A.Sub.*;"]),
    _HEADERS,
)
# entity texts, also ending inside a type header with a capitalized token
_ENTITY_TEXTS = st.builds(
    lambda sep, pieces, last: sep.join(pieces) + last,
    st.sampled_from(["", " "]),
    st.lists(_ENTITY_PIECES, max_size=30),
    st.sampled_from(_TYPE_NAMES + [""]),
)


def test_only_newline_ends_a_line():
    m = analyze_file("int a;\x0cint b;\n")
    assert (m.CountLine, m.CountLineCode, m.CountLineBlank) == (1, 1, 0)
    m = analyze_file("int a;\rint b;\r")
    assert m.CountLine == 1


def test_text_block_is_one_literal():
    code, kinds = lexed_code_and_kinds('String s = """\n  say "hi" // x\n  """;\n')
    assert "hi" not in code and "//" not in code
    assert kinds == ["code", "code", "code"]  # the literal's text is code


def test_mixed_comment_code_line_counts_as_code():
    m = analyze_file("int x; // note\n")
    assert m.CountLineCode == 1
    assert m.CountLineComment == 0


def test_analyze_is_pure():
    assert analyze_file(SIMPLE) == analyze_file(SIMPLE)


def test_sum_cyclomatic_at_least_function_count():
    text = "class A { void f() { } void g() { if (true) { } } }"
    m = analyze_file(text)
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
    m = analyze_file(text)
    assert m.CountDeclMethod == 5
    assert m.CountDeclMethodPublic == 1
    assert m.CountDeclMethodPrivate == 1
    assert m.CountDeclMethodProtected == 1
    assert m.CountDeclMethodDefault == 2  # d and e have no access modifier
    assert m.CountDeclClassMethod == 1  # static e
    assert m.CountDeclInstanceMethod == 4


def test_strict_cyclomatic_counts_logical_operators():
    text = "class A { int f(int x) { if (x > 0 && x < 9) { return x > 4 ? 1 : 0; } return 0; } }"
    m = analyze_file(text)
    assert m.MaxCyclomatic == 2  # 1 + if
    assert m.MaxCyclomaticStrict == 4  # + && and ?


def test_import_resolution():
    idx = FileIndex({"p/B.java", "A.java"})
    e = scan_entity(source_row("import p.B;\nclass A { }\n"), "A.java", idx)
    assert e.import_targets == {"p/B.java"}


def test_static_import_resolves_to_its_class_file():
    # the stem A is not unique, so only the import can link T to p/A.java
    idx = FileIndex({"p/A.java", "q/A.java", "T.java"})
    for imp in ("import p.A;", "import static p.A.m;", "import static p.A.*;",
                "import static p.A.In.m;"):
        e = scan_entity(source_row(f"{imp}\nclass T {{ }}"), "T.java", idx)
        assert (e.import_targets, e.call_targets) == ({"p/A.java"}, set()), imp
    for imp in ("import p.*;", "import static p.*;", "import static z.B.m;"):
        e = scan_entity(source_row(f"{imp}\nclass T {{ }}"), "T.java", idx)
        assert not e.import_targets, imp


def test_class_literal_declares_no_type():
    text = (
        "class A {\n"
        "    void f() {\n"
        "        String n = A.class.getName();\n"
        "        if (n != null) {\n"
        "            n = n.trim();\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    # a comment or a line break may lie between the "." and "class"
    for literal in (
        "A.class.getName()", "A.class", "A . class", "A\n        .class",
        "A./* why */class.getName()", "A.\n            class.getName()",
    ):
        m = analyze_file(text.replace("A.class.getName()", literal))
        assert (m.CountDeclClass, m.CountDeclFunction, m.MaxNesting) == (1, 1, 1)
    # the type named after a class literal is a call target
    idx = FileIndex({"p/B.java", "A.java", "Z.java"})
    e = scan_entity(source_row("class A { Object o = A.class.cast(B.X); }"), "A.java", idx)
    assert e.call_targets == {"p/B.java"}
    e = scan_entity(source_row("class Z { Object o = A./* c */class.cast(B.X); }"), "Z.java", idx)
    assert e.call_targets == {"A.java", "p/B.java"}


def test_ambiguous_call_target_produces_no_edge():
    idx = FileIndex({"p/B.java", "q/B.java", "A.java"})
    e = scan_entity(source_row("class A { B b; }"), "A.java", idx)
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
    pm = ProcessHistory(hist).metrics("f.java", len(hist))
    assert pm.CommitCount == 3
    assert pm.DistinctDevCount == 1
    assert pm.OwnersContribution == 100.0


def test_minor_contributor_below_five_percent():
    hist = [
        commit(1, "alice", [("f.java", 96, 0)]),
        commit(2, "bob", [("f.java", 4, 0)]),
    ]
    pm = ProcessHistory(hist).metrics("f.java", len(hist))
    assert pm.MinorContributorCount == 1
    assert pm.OwnersContribution == 96.0


def test_geometric_mean_experience():
    hist = [
        commit(1, "alice", [("f.java", 5, 0), ("g.java", 5, 0)]),
        commit(2, "bob", [("f.java", 5, 0), ("h.java", 35, 0)]),
        commit(3, "carol", [("z.java", 50, 0)]),
    ]
    pm = ProcessHistory(hist).metrics("f.java", len(hist))
    assert pm.AllCommitersExperience == pytest.approx(20.0)


def test_file_never_touched_all_zero():
    hist = [commit(1, "alice", [("f.java", 1, 0)])]
    pm = ProcessHistory(hist).metrics("other.java", 1)
    assert pm.CommitCount == 0
    assert pm.OwnersContribution == 0.0


def test_process_metrics_respect_as_of():
    hist = [
        commit(1, "alice", [("f.java", 10, 0)]),
        commit(2, "bob", [("f.java", 10, 0)]),
    ]
    pm = ProcessHistory(hist).metrics("f.java", 1)
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
        m = analyze_file(source)
        e = scan_entity(source_row(source), path, index)
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
            pm = ph.metrics(path, idx + 1)
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


# --- the three-pass analysis the one-pass lexer replaced -----------------
#
# A copy of the comment stripping, per-line token parse and entity scan
# that code_analysis used before each file was lexed once: the lexer and
# everything read from it must give the same results on any text.

_REF_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|&&|\|\||[{}();?,=:<>\[\].]")
_REF_IMPORT_RE = re.compile(r"\bimport\s+(static\s+)?([\w.]+?)(\.\*)?\s*;")
_REF_LEXEME_RE = re.compile(
    r"(//[^\n]*|/\*[\s\S]*?(?:\*/|\Z))"
    r"""|("{3}|["'])((?:\\[^\n]|\\|(?!\2)[^\\])*)(\2?)"""
)
_is_ident = re.compile(r"[A-Za-z_$]").match


@dataclass
class _RefUnit:
    name: str
    start_line: int
    body_depth: int
    param_count: int
    modifiers: frozenset
    end_line: int = 0
    max_depth: int = 0
    tokens: Counter = field(default_factory=Counter)
    ends_with_return: bool = False

    @property
    def cyclomatic(self):
        return 1 + sum(self.tokens[t] for t in source_rows._CONTROL)

    @property
    def cyclomatic_modified(self):
        return 1 + sum(self.tokens[t] for t in source_rows._CONTROL_MODIFIED)

    @property
    def cyclomatic_strict(self):
        return self.cyclomatic + sum(self.tokens[t] for t in source_rows._LOGICAL)

    @property
    def essential(self):
        returns = self.tokens["return"] - self.ends_with_return
        return 1 + self.tokens["break"] + self.tokens["continue"] + returns

    @property
    def nesting(self):
        return self.max_depth - self.body_depth

    @property
    def size_lines(self):
        return self.end_line - self.start_line + 1


def _ref_blank(text):
    return re.sub(r"[^\n]", " ", text)


def _ref_code_text(text):
    return _REF_LEXEME_RE.sub(
        lambda m: _ref_blank(m[1]) if m[1] else m[2] + _ref_blank(m[3]) + m[4], text
    )


def _ref_strip_comments(text):
    code = _ref_code_text(text)
    bare = _REF_LEXEME_RE.sub(lambda m: _ref_blank(m[1]) if m[1] else m[0], text)
    kinds = []
    for bare_line, line in zip(bare.split("\n"), text.split("\n")):
        rest = line.lstrip()
        if not rest:
            kinds.append("blank")
        else:
            kinds.append("comment" if bare_line[len(line) - len(rest)].isspace() else "code")
    if not text or text.endswith("\n"):
        kinds.pop()
    return code, kinds


def _ref_parse(code):
    toks = [
        (tok, ln)
        for ln, line in enumerate(code.split("\n"), start=1)
        for tok in _REF_TOKEN_RE.findall(line)
    ]
    units, unit_stack, frame_stack = [], [], []
    n_classes = n_class_vars = n_instance_vars = decl_semis = 0
    exe_lines = set()
    stmt_buf = []
    pending_class = False
    pending_unit = None
    i = 0
    depth = 0
    while i < len(toks):
        tok, ln = toks[i]
        if unit_stack:
            exe_lines.add(ln)
            u = unit_stack[-1]
            u.tokens[tok] += 1
            if tok == "return":
                u.ends_with_return = True
            elif not stmt_buf and tok not in (";", "}"):
                u.ends_with_return = False
        if tok in source_rows._TYPE_KEYWORDS and i + 1 < len(toks):
            nxt_tok = toks[i + 1][0]
            if nxt_tok not in JAVA_KEYWORDS and _is_ident(nxt_tok):
                pending_class = True
        at_class_body = bool(frame_stack) and frame_stack[-1] == "class"
        if (
            tok == "("
            and at_class_body
            and pending_unit is None
            and not pending_class
            and i > 0
            and _is_ident(toks[i - 1][0])
            and toks[i - 1][0] not in JAVA_KEYWORDS
        ):
            name = toks[i - 1][0]
            j = i + 1
            pdepth = 1
            ptoks = []
            while j < len(toks) and pdepth > 0:
                t = toks[j][0]
                if t == "(":
                    pdepth += 1
                elif t == ")":
                    pdepth -= 1
                if pdepth > 0:
                    ptoks.append(t)
                j += 1
            k = j
            confirmed = False
            while k < len(toks):
                t = toks[k][0]
                if t == "{":
                    confirmed = True
                    break
                if t in (";", "=", ")", "(", "}"):
                    break
                if t not in ("throws", ",") and t in JAVA_KEYWORDS and t != "throws":
                    break
                k += 1
            if confirmed:
                mods = frozenset(t for t in stmt_buf if t in source_rows._ACCESS or t == "static")
                pending_unit = _RefUnit(
                    name=name,
                    start_line=toks[i - 1][1],
                    body_depth=depth + 1,
                    param_count=source_rows._count_params(ptoks),
                    modifiers=mods,
                )
        if tok == "{":
            depth += 1
            if pending_class:
                frame_stack.append("class")
                n_classes += 1
                pending_class = False
            elif pending_unit is not None:
                pending_unit.body_depth = depth
                frame_stack.append("unit")
                unit_stack.append(pending_unit)
                pending_unit = None
            else:
                frame_stack.append("other")
            if unit_stack:
                unit_stack[-1].max_depth = max(unit_stack[-1].max_depth, depth)
            stmt_buf = []
        elif tok == "}":
            depth -= 1
            frame = frame_stack.pop() if frame_stack else "other"
            if frame == "unit" and unit_stack:
                u = unit_stack.pop()
                u.end_line = ln
                units.append(u)
            stmt_buf = []
        elif tok == ";":
            if frame_stack and frame_stack[-1] == "class" and not unit_stack:
                if "(" not in stmt_buf:
                    idents = [t for t in stmt_buf if _is_ident(t) and t not in JAVA_KEYWORDS]
                    if len(idents) >= 2 or ("=" in stmt_buf and idents):
                        if "static" in stmt_buf:
                            n_class_vars += 1
                        else:
                            n_instance_vars += 1
            if not unit_stack:
                decl_semis += 1
            stmt_buf = []
        else:
            stmt_buf.append(tok)
        i += 1
    return SimpleNamespace(
        units=units, n_classes=n_classes, n_class_vars=n_class_vars,
        n_instance_vars=n_instance_vars, decl_semis=decl_semis,
        exe_line_set=exe_lines,
    )


def _ref_analyze_file(source):
    code, line_kinds = _ref_strip_comments(source)
    n_lines = len(line_kinds)
    n_blank = sum(1 for k in line_kinds if k == "blank")
    n_comment = sum(1 for k in line_kinds if k == "comment")
    n_code = n_lines - n_blank - n_comment
    parsed = _ref_parse(code)
    units = parsed.units
    code_lines = {i + 1 for i, k in enumerate(line_kinds) if k == "code"}
    n_code_exe = len(code_lines & parsed.exe_line_set)
    control = (*source_rows._CONTROL, "switch")
    n_stmt_exe = sum(u.tokens[";"] for u in units) + sum(u.tokens[t] for u in units for t in control)
    n_stmt_decl = parsed.decl_semis + len(units)
    n_static = sum(1 for u in units if "static" in u.modifiers)
    access = source_rows._ACCESS
    return ComplexityMetrics(
        CountDeclFunction=len(units),
        CountLine=n_lines,
        CountLineBlank=n_blank,
        CountLineCode=n_code,
        CountLineCodeDecl=n_code - n_code_exe,
        CountLineCodeExe=n_code_exe,
        CountLineComment=n_comment,
        CountStmt=n_stmt_decl + n_stmt_exe,
        CountStmtDecl=n_stmt_decl,
        CountStmtExe=n_stmt_exe,
        RatioCommentToCode=(n_comment / n_code) if n_code else 0.0,
        MaxCyclomatic=max((u.cyclomatic for u in units), default=0),
        MaxCyclomaticModified=max((u.cyclomatic_modified for u in units), default=0),
        MaxCyclomaticStrict=max((u.cyclomatic_strict for u in units), default=0),
        MaxEssential=max((u.essential for u in units), default=0),
        MaxNesting=max((u.nesting for u in units), default=0),
        SumCyclomatic=sum(u.cyclomatic for u in units),
        SumCyclomaticModified=sum(u.cyclomatic_modified for u in units),
        SumCyclomaticStrict=sum(u.cyclomatic_strict for u in units),
        SumEssential=sum(u.essential for u in units),
        CountDeclClass=parsed.n_classes,
        CountDeclClassMethod=n_static,
        CountDeclClassVariable=parsed.n_class_vars,
        CountDeclExecutableUnit=sum(1 for u in units if u.tokens[";"]),
        CountDeclInstanceMethod=len(units) - n_static,
        CountDeclInstanceVariable=parsed.n_instance_vars,
        CountDeclMethod=len(units),
        CountDeclMethodDefault=sum(1 for u in units if not (u.modifiers & access)),
        CountDeclMethodPrivate=sum(1 for u in units if "private" in u.modifiers),
        CountDeclMethodProtected=sum(1 for u in units if "protected" in u.modifiers),
        CountDeclMethodPublic=sum(1 for u in units if "public" in u.modifiers),
    )


def _ref_scan_entity(source, path, index):
    code = _ref_code_text(source)
    declared, called = set(), set()
    toks = _REF_TOKEN_RE.findall(code)
    last = len(toks) - 1
    pending_class = False
    for i, tok in enumerate(toks):
        if "A" <= tok < "[":
            if not pending_class or i == last:
                called.add(tok)
        elif tok == "{":
            pending_class = False
        elif tok in source_rows._TYPE_KEYWORDS:
            if i < last and toks[i + 1] not in JAVA_KEYWORDS and _is_ident(toks[i + 1]):
                pending_class = True
                declared.add(toks[i + 1])
    imports, calls = set(), set()
    for m in _REF_IMPORT_RE.finditer(code):
        static, name, star = m.groups()
        if star and not static:
            continue
        # a static import: the longest prefix of the name that resolves
        parts = name.split(".")
        for n in range(len(parts), 0 if static else len(parts) - 1, -1):
            target = index.resolve_import(".".join(parts[:n]))
            if target is not None:
                break
        if target is not None and target != path:
            imports.add(target)
    own = declared | {path.replace("\\", "/").split("/")[-1].rsplit(".", 1)[0]}
    for name in called - own:
        target = index.resolve_type(name)
        if target is not None and target != path:
            calls.add(target)
    return SourceEntity(path, frozenset(imports), frozenset(calls))


def _ref_unit_spans(source):
    code, _ = _ref_strip_comments(source)
    return _ref_parse(code).units


def _ref_assess_chunk_risks(pre_source, post_source, added_spans, deleted_spans):
    risks = []
    for source, spans, added in ((post_source, added_spans, True), (pre_source, deleted_spans, False)):
        units = _ref_unit_spans(source) if spans else []
        for start, length in spans:
            u = next((u for u in units if u.start_line <= start <= u.end_line), None)
            if u is None:
                continue
            risks.append(
                UnitRisk(
                    lines_added=length if added else 0,
                    lines_deleted=0 if added else length,
                    low_size=u.size_lines <= code_analysis.DMM_SIZE_THRESHOLD,
                    low_complexity=u.cyclomatic <= code_analysis.DMM_COMPLEXITY_THRESHOLD,
                    low_interfacing=u.param_count <= code_analysis.DMM_INTERFACING_THRESHOLD,
                )
            )
    return risks


analysis_reference = SimpleNamespace(
    code_text=_ref_code_text,
    strip_comments=_ref_strip_comments,
    token_re=_REF_TOKEN_RE,
    lexeme_re=_REF_LEXEME_RE,
    analyze_file=_ref_analyze_file,
    scan_entity=_ref_scan_entity,
    unit_spans=_ref_unit_spans,
    assess_chunk_risks=_ref_assess_chunk_risks,
)


# pieces that exercise what the lexer decides: comments and literals that
# span lines or run unclosed, CR LF, comments inside import statements and
# unit headers, an "import" that a word character or "$" runs into, and
# the tokens of each rule
_LEXEME_PIECES = st.sampled_from([
    '"""', '"""\n  say "hi" // x\n  """', '"a\\"b', "'\\''", '"x\\', "'", '"', "\r\n",
    "/* a\n   b */", "/**\n * doc\n */\n", "/*\n\n*/", "/**/", "// c\n", "/* open",
])
_STATEMENT_PIECES = st.sampled_from([
    "import /* c */ p.A;", "import p./* c */A;", "import // c\nq.C1;",
    "import static /* c */ p.Bee ;", 'import "q".C1;', "$import p.A;", "\xe9import p.A;",
    "1import r.Main;", "void f(/* x */ int a) {", "int g() /* c */ {",
    "public static void h(int a, int b) throws E {", "private A k(Map<K, V> m) {", "static {",
    "if (", "for", "while", "case", "switch", "catch", "return", "return;", "break;",
    "continue;", "&&", "||", "?", "&", "|", "@Override", ".", "*", "1", "x = 1;", "int x;",
    "static int y = 2;", "class X {", "new A() {", "}", "}\n", "(", ")",
    "A.class", "x . class Bee", ".\tclass$", ".classy", "A./* c */class", "x.\n  class.y",
    "B.// c\nclass Bee", "...", ".5",
])
_LEXER_PIECES = st.one_of(_ENTITY_PIECES, _LEXEME_PIECES, _STATEMENT_PIECES)
_LEXER_TEXTS = st.lists(_LEXER_PIECES, max_size=40).map(" ".join) | st.lists(
    _LEXER_PIECES, max_size=40
).map("".join)


def lexed_code_and_kinds(text):
    """The code text (comments and literal interiors blanked) and the line
    kinds, both read from the lexer's elements."""
    elements = _lex(text)
    pieces, pos = [], 0
    for e in elements:
        if e[0] in "/\"'":
            start = text.index(e, pos)
            m = analysis_reference.lexeme_re.fullmatch(e)
            pieces += text[pos:start], _ref_blank(m[1]) if m[1] else m[2] + _ref_blank(m[3]) + m[4]
            pos = start + len(e)
    return "".join(pieces) + text[pos:], _tokens(text, elements)[2]


def _unit_rows(units):
    return [
        (u.name, u.start_line, u.end_line, u.cyclomatic, u.cyclomatic_modified,
         u.cyclomatic_strict, u.essential, u.nesting, u.param_count, u.modifiers)
        for u in units
    ]


def assert_analysis_matches_reference(text, path, index):
    metrics = analyze_file(text)
    assert [repr(v) for v in metrics] == [repr(v) for v in analysis_reference.analyze_file(text)]
    row = source_row(text)
    assert row.metrics.tolist() == [float(v) for v in metrics]
    assert scan_entity(row, path, index) == analysis_reference.scan_entity(text, path, index)
    assert _unit_rows(unit_spans(text)) == _unit_rows(analysis_reference.unit_spans(text))
    n = text.count("\n") + 2
    spans = [(line, 1 + line % 3) for line in range(n)]
    post = "class Z {\n" + text
    assert assess_chunk_risks(text, post, spans, spans[::-1]) == analysis_reference.assess_chunk_risks(
        text, post, spans, spans[::-1]
    )


@settings(max_examples=1000, deadline=None)
@given(_LEXER_TEXTS | _ENTITY_TEXTS, st.sampled_from(sorted(_INDEX_FILES) + ["s/Other.java"]))
def test_analysis_matches_the_three_pass_reference(text, path):
    assert_analysis_matches_reference(text, path, FileIndex(_INDEX_FILES | {path}))


def test_analysis_of_synth_sources_matches_the_three_pass_reference():
    _, sources = generate_synthetic_history(seed=7)
    index = FileIndex(set(sources))
    for path, text in sources.items():
        assert_analysis_matches_reference(text, path, index)
    for path, text in GOLDEN_SOURCES.items():
        assert_analysis_matches_reference(text, path, FileIndex(set(GOLDEN_SOURCES)))


@settings(max_examples=1000, deadline=None)
@given(_LEXER_TEXTS)
def test_lexer_tokens_lines_and_kinds_match_the_reference(text):
    code, kinds = analysis_reference.strip_comments(text)
    toks, lines, lexed_kinds = _tokens(text, _lex(text))
    matches = list(analysis_reference.token_re.finditer(code))
    assert toks == analysis_reference.token_re.findall(code)
    assert lines == [1 + text.count("\n", 0, m.start()) for m in matches]
    assert lexed_kinds == kinds


def test_source_rows_imports_nothing_of_the_package_but_the_catalog():
    # the source table is keyed by the bytes of source_rows.py and the
    # metric names, which is sound only while every rule a row follows is
    # inside that file
    tree = ast.parse(Path(source_rows.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported if name.startswith(".") or name.split(".")[0] == "tcpci"}
    assert package == {".catalog"}


@pytest.mark.parametrize("module", [ingest, synth], ids=["ingest", "synth"])
def test_table_owners_frame_no_payload_by_hand(module):
    # the byte layout of every derived/ table is tcpci.derived's alone: an
    # owner that packs a struct or reads an array at an offset lays out
    # its payload itself
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "struct" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "struct"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "frombuffer":
            assert len(node.args) < 4 and "offset" not in {k.arg for k in node.keywords}
