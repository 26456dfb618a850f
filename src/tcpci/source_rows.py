"""The row of one Java-family source file: what its text alone gives.

This is deliberately a heuristic tokenizer, not a parser.  A file is lexed
in one pass, one ``findall`` of ``_LEX_RE``, which yields its tokens, its
comments and string literals, and each line's start: from these come each
token's 1-based line and each line's kind.  Import statements are matched
in the text with the lexer's comment and literal pattern blanked out, as
their word-character boundary cannot be read from tokens.  Declarations and
control-flow constructs are then recognized from token patterns.  One
pass gives a file's :class:`SourceRow`: its imports, the type names it
uses and its complexity metrics, before any resolution against the other
files (:mod:`tcpci.code_analysis` resolves them).  The rules are fixed and
documented here so every metric is reproducible:

* a token is an identifier or keyword, one of ``{ } ( ) ; ? , = : < > [ ]
  .``, ``&&`` or ``||``; any other character outside comments and
  literals (digits, operators, ``@``) only marks its line as code;
* an import is kept as written: whether it is static, its dotted name and
  whether it ends in a wildcard;
* a type keyword (class, interface, enum, record) declares the identifier
  that directly follows it, and nothing when any other token follows, so
  the ``class`` of a class literal (``A.class``) declares nothing;
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

Every rule a row follows is in this file, which imports nothing else of the
package but :mod:`tcpci.catalog`: the source table of ``derived/`` is keyed
by the bytes of this file (see :func:`tcpci.synth.load_sources`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import COMPLEXITY_METRICS

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
# the tokens a unit's metrics count
_COUNTED = frozenset((*_CONTROL_MODIFIED, "case", *_LOGICAL, "return", "break", "continue", ";"))
_TYPE_KEYWORDS = frozenset({"class", "interface", "enum", "record"})
_ACCESS = frozenset({"public", "private", "protected"})

# whether a token is an identifier
_is_ident = re.compile(r"[A-Za-z_$]").match
# an import statement; "import" must not follow a word character (as with
# a leading \b), and as the pattern's first text it is found by a fast scan
_IMPORT_RE = re.compile(r"import(?<!\wimport)\s+(static\s+)?([\w.]+?)(\.\*)?\s*;")

# One row of complexity metrics, with fields named by the catalog.
ComplexityMetrics = namedtuple("ComplexityMetrics", COMPLEXITY_METRICS)


# --- lexing -------------------------------------------------------------

# A comment or a string/char literal or text block (each but a line comment
# may run unclosed to the end); its first character is "/", '"' or "'".
_COMMENT_OR_LITERAL = (
    r"//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)"
    r'''|"""(?:\\[^\n]|\\|(?!""")[^\\])*(?:""")?'''
    r'''|"(?:\\[^\n]|\\|[^\\"])*"?|'(?:\\[^\n]|\\|[^\\'])*'?'''
)
# One element of a file's text, which is lexed with a "\n" put in front: a
# token; a line break with the next line's indent and, when that line
# starts with a character that begins no other element, that character; or
# a comment or literal.  Only a line break starts with "\n", so the first
# character tells the three apart.
_LEX_RE = re.compile(
    r"[A-Za-z_$][A-Za-z0-9_$]*|[{}();?,=:<>\[\].]|&&|\|\|"
    r"|\n[^\S\n]*(?:[^\s/\"'A-Za-z_$&|{}();?,=:<>\[\].]|/(?![/*])|&(?!&)|\|(?!\|))?|"
    + _COMMENT_OR_LITERAL
)
_COMMENT_OR_LITERAL_RE = re.compile(_COMMENT_OR_LITERAL)
_NOT_TOKEN = "\n/\"'"  # the first characters of line breaks, comments and literals


def _lex(text: str) -> list[str]:
    """The elements of ``text`` in order (see ``_LEX_RE``); the first one
    is the line break put in front."""
    return _LEX_RE.findall("\n" + text)


def _tokens(text: str, elements: list[str]) -> tuple[list[str], list[int], list[str]]:
    """The tokens of a lexed file with their 1-based lines, and each line's
    kind: "blank", "code", or "comment"."""
    toks, lines, kinds = [], [], []
    line = 0
    last = len(elements) - 1
    for i, e in enumerate(elements):
        first = e[0]
        if first not in _NOT_TOKEN:
            toks.append(e)
            lines.append(line)
        elif first == "\n":
            line += 1
            if not e[-1].isspace():  # a character that begins no element
                kinds.append("code")
            elif i == last or elements[i + 1][0] == "\n":
                kinds.append("blank")
            else:
                kinds.append("comment" if elements[i + 1][0] == "/" else "code")
        elif "\n" in e:  # a line that starts inside a comment or literal
            kind = "comment" if first == "/" else "code"
            for rest in e.split("\n")[1:]:
                line += 1
                kinds.append(kind if rest.strip() else "blank")
    if not text or text.endswith("\n"):
        kinds.pop()  # nothing follows the last newline, so it starts no line
    return toks, lines, kinds


def _imports(text: str) -> list[tuple[str, str, str]]:
    """The static keyword, dotted name and wildcard suffix of each import
    statement.  The statements are matched with each comment read as a space
    and each literal as a quote, which keeps every match of the code text
    (no match can hold a quote)."""
    if "import" not in text:
        return []
    text = _COMMENT_OR_LITERAL_RE.sub(lambda m: " " if m[0][0] == "/" else '"', text)
    return _IMPORT_RE.findall(text)


def _declares(toks: list[str], i: int) -> bool:
    """Whether the type keyword ``toks[i]`` declares the token after it."""
    return i + 1 < len(toks) and toks[i + 1] not in JAVA_KEYWORDS and _is_ident(toks[i + 1])


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
    # how often each token of _COUNTED is in the body
    tokens: dict[str, int] = field(default_factory=dict.fromkeys(_COUNTED, 0).copy)
    ends_with_return: bool = False  # the last statement so far is a return

    @property
    def cyclomatic(self) -> int:
        return 1 + sum(map(self.tokens.__getitem__, _CONTROL))

    @property
    def cyclomatic_modified(self) -> int:
        return 1 + sum(map(self.tokens.__getitem__, _CONTROL_MODIFIED))

    @property
    def cyclomatic_strict(self) -> int:
        return self.cyclomatic + sum(map(self.tokens.__getitem__, _LOGICAL))

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


# the tokens the parse acts on; every other token only joins a statement
_BOUNDARIES = frozenset("{};")
_EVENTS = _BOUNDARIES | _TYPE_KEYWORDS | _COUNTED | {"("}
# the tokens that end a unit header: "{" confirms it, the others do not
_HEADER_END = frozenset({"{", ";", "=", ")", "(", "}"})


def _parse(toks: list[str], lines: list[int]) -> tuple:
    """Single-pass token scan recognizing classes, units, and fields: the
    units, the counts of classes, class and instance variables and
    declaration semicolons, and the lines of unit bodies that hold a token.

    A statement is the tokens since the last ``;``, ``{`` or ``}``.  A
    unit's body is the tokens after its ``{`` up to its ``}``; those of a
    unit declared inside it count for the inner unit only.
    """
    units: list[Unit] = []
    unit_stack: list[Unit] = []
    opens: list[int] = []  # index of each open unit's "{"
    frame_stack: list[str] = []  # 'class' | 'unit' | 'other'
    n_classes = n_class_vars = n_instance_vars = decl_semis = 0
    exe_lines: set[int] = set()

    stmt = 0  # index of the current statement's first token
    pending_class = False
    pending_unit: Unit | None = None
    depth = 0
    n = len(toks)
    for i, tok in enumerate(toks):
        if tok not in _EVENTS:
            continue
        if tok == "(":
            name = toks[i - 1] if i else ""
            at_class_body = frame_stack and frame_stack[-1] == "class"
            if at_class_body and pending_unit is None and not pending_class and (
                _is_ident(name) and name not in JAVA_KEYWORDS
            ):
                # candidate unit declaration: name ( params ) [throws ...] {
                j, pdepth = i + 1, 1
                while j < n and pdepth > 0:
                    t = toks[j]
                    if t == "(":
                        pdepth += 1
                    elif t == ")":
                        pdepth -= 1
                    j += 1
                ptoks = toks[i + 1 : j - 1 if pdepth == 0 else j]
                while j < n and toks[j] not in _HEADER_END and (
                    toks[j] not in JAVA_KEYWORDS or toks[j] == "throws"
                ):
                    j += 1
                if j < n and toks[j] == "{":
                    modifiers = frozenset(t for t in toks[stmt:i] if t in _ACCESS or t == "static")
                    pending_unit = Unit(name, lines[i - 1], depth + 1, _count_params(ptoks), modifiers)
        elif tok in _TYPE_KEYWORDS:
            if _declares(toks, i):
                pending_class = True
        elif tok not in _BOUNDARIES:  # a counted token
            if unit_stack:
                unit_stack[-1].tokens[tok] += 1
                if tok == "return":
                    unit_stack[-1].ends_with_return = True
        else:  # a boundary ends the statement
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
                    opens.append(i)
                    pending_unit = None
                else:
                    frame_stack.append("other")
                if unit_stack:
                    unit_stack[-1].max_depth = max(unit_stack[-1].max_depth, depth)
            elif tok == "}":
                depth -= 1
                frame = frame_stack.pop() if frame_stack else "other"
                if frame == "unit" and unit_stack:
                    u = unit_stack.pop()
                    u.end_line = lines[i]
                    exe_lines.update(lines[opens.pop() + 1 : i + 1])
                    units.append(u)
            elif unit_stack:
                unit_stack[-1].tokens[";"] += 1
            else:
                decl_semis += 1
                stmt_buf = toks[stmt:i]
                if frame_stack and frame_stack[-1] == "class" and "(" not in stmt_buf:
                    idents = [t for t in stmt_buf if _is_ident(t) and t not in JAVA_KEYWORDS]
                    if len(idents) >= 2 or ("=" in stmt_buf and idents):
                        if "static" in stmt_buf:
                            n_class_vars += 1
                        else:
                            n_instance_vars += 1
            stmt = i + 1
            # a statement that follows a return is the unit's last one now
            if unit_stack and stmt < n and toks[stmt] not in (";", "}", "return"):
                unit_stack[-1].ends_with_return = False

    if opens:  # a unit left open runs to the end of the file
        exe_lines.update(lines[opens[0] + 1 :])
    return units, n_classes, n_class_vars, n_instance_vars, decl_semis, exe_lines


# --- file metrics -------------------------------------------------------


def analyze_file(source: str) -> ComplexityMetrics:
    """Compute the complexity metrics of one file.

    Pure function of the file text; unparseable regions contribute line
    counts only.
    """
    return _complexity(*_tokens(source, _lex(source)))


def _complexity(toks: list[str], lines: list[int], kinds: list[str]) -> ComplexityMetrics:
    """The complexity metrics of a file from its tokens, their lines and
    its line kinds (see :func:`_tokens`)."""
    n_lines = len(kinds)
    n_blank = kinds.count("blank")
    n_comment = kinds.count("comment")
    n_code = n_lines - n_blank - n_comment

    units, n_classes, n_class_vars, n_instance_vars, decl_semis, exe_lines = _parse(toks, lines)
    n_code_exe = sum(1 for line in exe_lines if kinds[line - 1] == "code")
    n_code_decl = n_code - n_code_exe

    # one column per unit value
    (cyclomatic, modified, strict, essential, nesting, statements, executable,
     static, default, private, protected, public) = list(zip(*(
        (u.cyclomatic, u.cyclomatic_modified, u.cyclomatic_strict, u.essential, u.nesting,
         sum(u.tokens[t] for t in (";", *_CONTROL, "switch")), u.tokens[";"] > 0,
         "static" in u.modifiers, not u.modifiers & _ACCESS, "private" in u.modifiers,
         "protected" in u.modifiers, "public" in u.modifiers)
        for u in units
    ))) or [()] * 12
    n_stmt_exe = sum(statements)
    n_stmt_decl = decl_semis + len(units)
    n_static = sum(static)

    return ComplexityMetrics(
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
        MaxCyclomatic=max(cyclomatic, default=0),
        MaxCyclomaticModified=max(modified, default=0),
        MaxCyclomaticStrict=max(strict, default=0),
        MaxEssential=max(essential, default=0),
        MaxNesting=max(nesting, default=0),
        SumCyclomatic=sum(cyclomatic),
        SumCyclomaticModified=sum(modified),
        SumCyclomaticStrict=sum(strict),
        SumEssential=sum(essential),
        CountDeclClass=n_classes,
        CountDeclClassMethod=n_static,
        CountDeclClassVariable=n_class_vars,
        CountDeclExecutableUnit=sum(executable),
        CountDeclInstanceMethod=len(units) - n_static,
        CountDeclInstanceVariable=n_instance_vars,
        CountDeclMethod=len(units),
        CountDeclMethodDefault=sum(default),
        CountDeclMethodPrivate=sum(private),
        CountDeclMethodProtected=sum(protected),
        CountDeclMethodPublic=sum(public),
    )


class SourceRow(NamedTuple):
    """What one file's text gives before it is resolved against a file
    set: its import statements as (static, dotted name, wildcard) triples,
    the type names it uses but does not declare, in order, and its
    ``COMPLEXITY_METRICS`` as float64."""

    imports: tuple[tuple[bool, str, bool], ...]
    types: tuple[str, ...]
    metrics: np.ndarray


def source_row(source: str) -> SourceRow:
    """The row of one file's text, from one lexing pass."""
    toks, lines, kinds = _tokens(source, _lex(source))
    declared, called = _type_names(toks)
    imports = tuple((bool(static), name, bool(star)) for static, name, star in _imports(source))
    metrics = np.array(_complexity(toks, lines, kinds), dtype=np.float64)
    return SourceRow(imports, tuple(sorted(called - declared)), metrics)


def _type_names(toks: list[str]) -> tuple[set[str], set[str]]:
    """The type names a file's tokens declare, and the ones they name
    outside the headers of its type declarations."""
    declared: set[str] = set()
    called: set[str] = set()
    last = len(toks) - 1
    pending_class = False  # a type name is declared and its body not yet open
    for i, t in enumerate(toks):
        # a token that names a type by convention starts with [A-Z]; no
        # other token and no keyword is capitalized, and the last token
        # counts even after a type keyword
        if "A" <= t < "[":
            if not pending_class or i == last:
                called.add(t)
        elif t == "{":
            pending_class = False
        elif t in _TYPE_KEYWORDS and _declares(toks, i):
            pending_class = True
            declared.add(toks[i + 1])
    return declared, called


def unit_spans(source: str) -> list[Unit]:
    """Detected units with their line spans, for chunk-to-unit mapping."""
    toks, lines, _ = _tokens(source, _lex(source))
    return _parse(toks, lines)[0]
