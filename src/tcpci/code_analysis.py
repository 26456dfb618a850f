"""Token-level static analysis of Java-family source files.

This is deliberately a heuristic tokenizer, not a parser: comments and
string literals are stripped first, then declarations and control-flow
constructs are recognized from token patterns.  The rules are fixed and
documented here so every metric is reproducible:

* a "unit" (function/method) is an identifier followed by a parenthesized
  parameter list and then ``{`` at class-body depth;
* cyclomatic = 1 + count of {if, for, while, case, catch} in the unit body;
  the "modified" variant counts switch once instead of per-case; the
  "strict" variant additionally counts each ``&&``, ``||``, and ``?``;
* essential complexity is approximated as 1 + count of break/continue plus
  returns that are not the unit's final statement;
* a line's kind is decided by its first non-blank content: comment text,
  the ``/*`` and ``*/`` delimiters included, makes it Comment; code or the
  opening quote of a string/char literal makes it Code; literal interiors
  and closing quotes do not count.  ``/* a */ int x;`` is therefore a
  Comment line and ``int x; // b`` a Code line; a line with neither is
  Blank, so line counts partition exactly;
* nesting is measured by brace depth inside unit bodies (braceless control
  bodies do not add a level).

Process and change metrics are computed from commit history, not from
source text.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field

from .catalog import CHANGE_METRICS, COMPLEXITY_METRICS, PROCESS_METRICS
from .model import Commit, FileChange, UnitRisk

JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while var record yield
    true false null""".split()
)

_CONTROL = ("if", "for", "while", "case", "catch")
_CONTROL_MODIFIED = ("if", "for", "while", "switch", "catch")  # switch once, not per case
_LOGICAL = ("&&", "||", "?")
_TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "record"})
_ACCESS = frozenset({"public", "private", "protected"})

# DMM low-risk thresholds per unit property.
DMM_SIZE_THRESHOLD = 15
DMM_COMPLEXITY_THRESHOLD = 5
DMM_INTERFACING_THRESHOLD = 2

_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*|&&|\|\||[{}();?,=:<>\[\]]")
# whether a token is an identifier, and one that names a type by convention
_is_ident = re.compile(r"[A-Za-z_$]").match
_is_type_name = re.compile(r"[A-Z]").match
_IMPORT_RE = re.compile(r"\bimport\s+(?:static\s+)?([\w.]+?)(\.\*)?\s*;")


# One row of each metric family, with fields named by the catalog.
ComplexityMetrics = namedtuple("ComplexityMetrics", COMPLEXITY_METRICS)
ProcessMetrics = namedtuple(
    "ProcessMetrics", PROCESS_METRICS, defaults=(0,) * len(PROCESS_METRICS)
)
ChangeMetrics = namedtuple("ChangeMetrics", CHANGE_METRICS)


@dataclass(frozen=True)
class SourceEntity:
    path: str
    import_targets: frozenset[str] = frozenset()
    call_targets: frozenset[str] = frozenset()


def is_test_file(path: str) -> bool:
    """Maven convention: a /test/ path segment or a *Test.java / Test*.java name."""
    parts = path.replace("\\", "/").split("/")
    if "test" in parts[:-1]:
        return True
    name = parts[-1]
    return bool(re.match(r"^Test\w*\.java$", name) or re.search(r"\w*Test\.java$", name))


# --- comment/string stripping -------------------------------------------

# One lexeme is a comment (group 1), or a string/char literal or text
# block: its quotes (2), interior (3) and closing quotes (4); both may run
# unclosed to the end.
_LEXEME_RE = re.compile(
    r"(//[^\n]*|/\*[\s\S]*?(?:\*/|\Z))"
    r"""|("{3}|["'])((?:\\[^\n]|\\|(?!\2)[^\\])*)(\2?)"""
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _blank(text: str) -> str:
    return _NOT_NEWLINE_RE.sub(" ", text)


def _code_text(text: str) -> str:
    """``text`` with comments and string contents blanked out, at the
    same length and offsets."""
    return _LEXEME_RE.sub(lambda m: _blank(m[1]) if m[1] else m[2] + _blank(m[3]) + m[4], text)


def _strip_comments(text: str) -> tuple[str, list[str]]:
    """Blank out comments and string contents.

    Returns the code-only text (same length/offsets as the input) and a
    per-line classification: "blank", "code", or "comment".
    """
    code = _code_text(text)
    # a line's kind is whichever comes first on it: text outside comments
    # (code or a literal's text) or a comment
    bare = _LEXEME_RE.sub(lambda m: _blank(m[1]) if m[1] else m[0], text)
    kinds = []
    for bare_line, line in zip(bare.split("\n"), text.split("\n")):
        rest = line.lstrip()
        if not rest:
            kinds.append("blank")
        else:
            kinds.append("comment" if bare_line[len(line) - len(rest)].isspace() else "code")
    if not text or text.endswith("\n"):
        kinds.pop()  # nothing follows the last newline, so it starts no line
    return code, kinds


# --- unit detection -----------------------------------------------------


@dataclass
class Unit:
    name: str
    start_line: int  # 1-based line of the declaration
    body_depth: int
    param_count: int
    modifiers: frozenset[str]
    end_line: int = 0
    max_depth: int = 0
    tokens: Counter[str] = field(default_factory=Counter)  # body tokens
    ends_with_return: bool = False  # the last statement so far is a return

    @property
    def cyclomatic(self) -> int:
        return 1 + sum(self.tokens[t] for t in _CONTROL)

    @property
    def cyclomatic_modified(self) -> int:
        return 1 + sum(self.tokens[t] for t in _CONTROL_MODIFIED)

    @property
    def cyclomatic_strict(self) -> int:
        return self.cyclomatic + sum(self.tokens[t] for t in _LOGICAL)

    @property
    def essential(self) -> int:
        returns = self.tokens["return"] - self.ends_with_return
        return 1 + self.tokens["break"] + self.tokens["continue"] + returns

    @property
    def nesting(self) -> int:
        return self.max_depth - self.body_depth

    @property
    def size_lines(self) -> int:
        return self.end_line - self.start_line + 1


def _count_params(tokens: list[str]) -> int:
    if not tokens:
        return 0
    count = 1
    depth = 0
    for t in tokens:
        if t in ("(", "<", "["):
            depth += 1
        elif t in (")", ">", "]"):
            depth -= 1
        elif t == "," and depth == 0:
            count += 1
    return count


@dataclass
class _ParseResult:
    units: list[Unit]
    n_classes: int
    n_class_vars: int
    n_instance_vars: int
    decl_semis: int
    exe_line_set: set[int]  # 1-based lines inside unit bodies
    called_types: set[str]
    declared_types: set[str]


def _parse(code: str) -> _ParseResult:
    """Single-pass token scan recognizing classes, units, and fields."""
    # (token, 1-based line); no token spans a newline
    toks: list[tuple[str, int]] = [
        (tok, ln)
        for ln, line in enumerate(code.split("\n"), start=1)
        for tok in _TOKEN_RE.findall(line)
    ]
    units: list[Unit] = []
    unit_stack: list[Unit] = []
    frame_stack: list[str] = []  # 'class' | 'unit' | 'other'
    n_classes = 0
    n_class_vars = 0
    n_instance_vars = 0
    decl_semis = 0
    exe_lines: set[int] = set()
    called: set[str] = set()
    declared: set[str] = set()

    stmt_buf: list[str] = []  # tokens since last ; { }
    pending_class = False
    pending_unit: Unit | None = None
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
                u.ends_with_return = False  # another statement follows the return

        if tok in _TYPE_KEYWORDS and i + 1 < len(toks):
            nxt_tok = toks[i + 1][0]
            if nxt_tok not in JAVA_KEYWORDS and _is_ident(nxt_tok):
                pending_class = True
                declared.add(nxt_tok)

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
            # candidate unit declaration: name ( params ) [throws ...] {
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
                mods = frozenset(t for t in stmt_buf if t in _ACCESS or t == "static")
                pending_unit = Unit(
                    name=name,
                    start_line=toks[i - 1][1],
                    body_depth=depth + 1,
                    param_count=_count_params(ptoks),
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
                    idents = [
                        t
                        for t in stmt_buf
                        if _is_ident(t) and t not in JAVA_KEYWORDS
                    ]
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
            if (
                _is_type_name(tok)
                and tok not in JAVA_KEYWORDS
                and not (i + 1 < len(toks) and pending_class)
            ):
                called.add(tok)
        i += 1

    return _ParseResult(
        units=units,
        n_classes=n_classes,
        n_class_vars=n_class_vars,
        n_instance_vars=n_instance_vars,
        decl_semis=decl_semis,
        exe_line_set=exe_lines,
        called_types=called,
        declared_types=declared,
    )


# --- file index for import/call resolution ------------------------------


class FileIndex:
    """Repository file set with class-name and package-path lookup."""

    def __init__(self, paths: list[str] | set[str]):
        self.paths = set(paths)
        self._by_stem: dict[str, list[str]] = {}
        self._components: dict[str, tuple[str, ...]] = {}
        for p in sorted(self.paths):
            comps = tuple(p.replace("\\", "/").split("/"))
            self._components[p] = comps
            stem = comps[-1].rsplit(".", 1)[0]
            self._by_stem.setdefault(stem, []).append(p)

    def resolve_import(self, dotted: str) -> str | None:
        """Resolve ``a.b.C`` to a unique file ending in ``a/b/C.java``."""
        parts = dotted.split(".")
        want = tuple(parts[:-1] + [parts[-1] + ".java"])
        hits = [
            p
            for p in self._by_stem.get(parts[-1], [])
            if self._components[p][-len(want):] == want
        ]
        return hits[0] if len(hits) == 1 else None

    def resolve_type(self, name: str) -> str | None:
        """Resolve a capitalized identifier to its unique declaring file."""
        hits = self._by_stem.get(name, [])
        return hits[0] if len(hits) == 1 else None


def analyze_file(
    source: str, path: str, index: FileIndex | None = None
) -> tuple[ComplexityMetrics, SourceEntity]:
    """Compute complexity metrics and dependency targets for one file.

    Pure function of the file text (plus the repository file set used for
    import/call resolution); unparseable regions contribute line counts only.
    """
    code, line_kinds = _strip_comments(source)
    n_lines = len(line_kinds)
    n_blank = sum(1 for k in line_kinds if k == "blank")
    n_comment = sum(1 for k in line_kinds if k == "comment")
    n_code = n_lines - n_blank - n_comment

    parsed = _parse(code)
    units = parsed.units
    code_lines = {i + 1 for i, k in enumerate(line_kinds) if k == "code"}
    exe_code_lines = code_lines & parsed.exe_line_set
    n_code_exe = len(exe_code_lines)
    n_code_decl = n_code - n_code_exe

    exe_semis = sum(u.tokens[";"] for u in units)
    exe_ctrl = sum(u.tokens[t] for u in units for t in (*_CONTROL, "switch"))
    n_stmt_exe = exe_semis + exe_ctrl
    n_stmt_decl = parsed.decl_semis + len(units)
    n_static = sum(1 for u in units if "static" in u.modifiers)

    metrics = ComplexityMetrics(
        CountDeclFunction=len(units),
        CountLine=n_lines,
        CountLineBlank=n_blank,
        CountLineCode=n_code,
        CountLineCodeDecl=n_code_decl,
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
        CountDeclMethodDefault=sum(1 for u in units if not (u.modifiers & _ACCESS)),
        CountDeclMethodPrivate=sum(1 for u in units if "private" in u.modifiers),
        CountDeclMethodProtected=sum(1 for u in units if "protected" in u.modifiers),
        CountDeclMethodPublic=sum(1 for u in units if "public" in u.modifiers),
    )

    if index is None:
        return metrics, SourceEntity(path)
    return metrics, _entity(code, path, index, parsed.declared_types, parsed.called_types)


def scan_entity(source: str, path: str, index: FileIndex) -> SourceEntity:
    """The dependency targets :func:`analyze_file` finds for one file, from
    its tokens alone: no line kinds and no unit parse."""
    code = _code_text(source)
    declared: set[str] = set()
    called: set[str] = set()
    toks = _TOKEN_RE.findall(code)
    last = len(toks) - 1
    pending_class = False  # a type name is declared and its body not yet open
    for i, tok in enumerate(toks):
        # a token is ASCII, so this is _is_type_name; no keyword is
        # capitalized, and the last token counts even after a type keyword
        if "A" <= tok < "[":
            if not pending_class or i == last:
                called.add(tok)
        elif tok == "{":
            pending_class = False
        elif tok in _TYPE_KEYWORDS:
            if i < last and toks[i + 1] not in JAVA_KEYWORDS and _is_ident(toks[i + 1]):
                pending_class = True
                declared.add(toks[i + 1])
    return _entity(code, path, index, declared, called)


def _entity(
    code: str, path: str, index: FileIndex, declared: set[str], called: set[str]
) -> SourceEntity:
    """The resolved import and call targets of a file's code text, given
    the type names it declares and the ones it names."""
    imports: set[str] = set()
    calls: set[str] = set()
    for m in _IMPORT_RE.finditer(code):
        if m.group(2):  # wildcard imports produce no edges
            continue
        target = index.resolve_import(m.group(1))
        if target is not None and target != path:
            imports.add(target)
    own = declared | {path.replace("\\", "/").split("/")[-1].rsplit(".", 1)[0]}
    for name in called - own:
        target = index.resolve_type(name)
        if target is not None and target != path:
            calls.add(target)
    return SourceEntity(path, frozenset(imports), frozenset(calls))


# --- DMM risk assessment ------------------------------------------------


def unit_spans(source: str) -> list[Unit]:
    """Detected units with their line spans, for chunk-to-unit mapping."""
    code, _ = _strip_comments(source)
    return _parse(code).units


def _risk_for_chunk(units: list[Unit], start: int) -> Unit | None:
    for u in units:
        if u.start_line <= start <= u.end_line:
            return u
    return None


def assess_chunk_risks(
    pre_source: str,
    post_source: str,
    added_spans: list[tuple[int, int]],
    deleted_spans: list[tuple[int, int]],
) -> list[UnitRisk]:
    """Map changed chunks to enclosing units and flag their risk profile.

    Added chunks are located in the post-change text, deleted chunks in the
    pre-change text.  Chunks outside any unit produce no entry.
    """
    risks: list[UnitRisk] = []
    for source, spans, added in ((post_source, added_spans, True), (pre_source, deleted_spans, False)):
        units = unit_spans(source) if spans else []
        for start, length in spans:
            u = _risk_for_chunk(units, start)
            if u is None:
                continue
            risks.append(
                UnitRisk(
                    lines_added=length if added else 0,
                    lines_deleted=0 if added else length,
                    low_size=u.size_lines <= DMM_SIZE_THRESHOLD,
                    low_complexity=u.cyclomatic <= DMM_COMPLEXITY_THRESHOLD,
                    low_interfacing=u.param_count <= DMM_INTERFACING_THRESHOLD,
                )
            )
    return risks


# --- process metrics ----------------------------------------------------


class ProcessHistory:
    """Commit-history index answering process-metric queries by prefix.

    Authored lines = added + deleted lines, following the convention that
    both count as authored.
    """

    def __init__(self, commits: list[Commit] | tuple[Commit, ...]):
        self.commits = tuple(commits)
        # per file: ordered (commit_idx, author, lines)
        self.file_touches: dict[str, list[tuple[int, str, int]]] = {}
        # per author: ordered (commit_idx, cumulative project lines)
        self.author_lines: dict[str, list[tuple[int, int]]] = {}
        self.total_lines: list[tuple[int, int]] = []
        total = 0
        for idx, c in enumerate(self.commits):
            commit_lines = 0
            for fc in c.file_changes:
                lines = fc.lines_added + fc.lines_deleted
                self.file_touches.setdefault(fc.path, []).append((idx, c.author, lines))
                commit_lines += lines
            if commit_lines:
                prev = self.author_lines.get(c.author)
                cum = (prev[-1][1] if prev else 0) + commit_lines
                self.author_lines.setdefault(c.author, []).append((idx, cum))
                total += commit_lines
                self.total_lines.append((idx, total))

    def _prefix(self, series: list[tuple[int, int]], as_of_idx: int) -> int:
        pos = bisect.bisect_right(series, (as_of_idx, float("inf")))
        return series[pos - 1][1] if pos else 0

    def experience(self, author: str, as_of_idx: int) -> float:
        """Percent of all project authored lines contributed by the author."""
        total = self._prefix(self.total_lines, as_of_idx)
        if total == 0:
            return 0.0
        return 100.0 * self._prefix(self.author_lines.get(author, []), as_of_idx) / total

    def metrics(self, path: str, as_of_idx: int) -> ProcessMetrics:
        touches = [t for t in self.file_touches.get(path, []) if t[0] <= as_of_idx]
        if not touches:
            return ProcessMetrics()
        per_author: dict[str, int] = {}
        for _, author, lines in touches:
            per_author[author] = per_author.get(author, 0) + lines
        file_total = sum(per_author.values())
        if file_total == 0:
            # commits touched the file without countable lines
            authors = sorted(per_author)
            return ProcessMetrics(
                CommitCount=len(touches),
                DistinctDevCount=len(authors),
            )
        owner = min(per_author, key=lambda a: (-per_author[a], a))
        shares = {a: 100.0 * n / file_total for a, n in per_author.items()}
        experiences = [self.experience(a, as_of_idx) for a in sorted(per_author)]
        if all(e > 0 for e in experiences):
            gm = math.exp(sum(math.log(e) for e in experiences) / len(experiences))
        else:
            gm = 0.0
        return ProcessMetrics(
            CommitCount=len(touches),
            DistinctDevCount=len(per_author),
            OwnersContribution=shares[owner],
            MinorContributorCount=sum(1 for s in shares.values() if s < 5.0),
            OwnersExperience=self.experience(owner, as_of_idx),
            AllCommitersExperience=gm,
        )


# --- change metrics -----------------------------------------------------


def change_scattering(chunk_starts: tuple[int, ...] | list[int]) -> float:
    """|CH| / C(|CH|, 2) times the summed pairwise start-line distance."""
    n = len(chunk_starts)
    if n <= 1:
        return 0.0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(chunk_starts[i] - chunk_starts[j])
    return n / math.comb(n, 2) * total


def compute_change_metrics(path: str, build_changes: list[FileChange]) -> ChangeMetrics:
    """Aggregate change metrics for one file across a build's commits."""
    relevant = [fc for fc in build_changes if fc.path == path]
    added = sum(fc.lines_added for fc in relevant)
    deleted = sum(fc.lines_deleted for fc in relevant)
    added_chunks = [s for fc in relevant for s in fc.added_chunks]
    deleted_chunks = [s for fc in relevant for s in fc.deleted_chunks]
    risks = [r for fc in relevant if fc.unit_risks for r in fc.unit_risks]

    def dmm(flag: str) -> float:
        if not risks:
            return -1.0
        lr = hr = 0
        for r in risks:
            low = getattr(r, flag)
            # adding low-risk code or removing high-risk code is low risk
            lr += r.lines_added if low else r.lines_deleted
            hr += r.lines_deleted if low else r.lines_added
        if lr + hr == 0:
            return -1.0
        return lr / (lr + hr)

    return ChangeMetrics(
        LinesAdded=added,
        LinesDeleted=deleted,
        AddedChangeScattering=change_scattering(added_chunks),
        DeletedChangeScattering=change_scattering(deleted_chunks),
        DMMUnitSize=dmm("low_size"),
        DMMUnitComplexity=dmm("low_complexity"),
        DMMUnitInterfacing=dmm("low_interfacing"),
    )
