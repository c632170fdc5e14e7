"""Java method extraction.

Parses Java source trees into MethodRecords using a lexical structural
parser (brace matching over the token stream) rather than a full grammar.
That is sufficient because downstream similarity only needs method headers,
local variable declarations, comments, docs, and line spans.

Exclusions: interface/abstract declarations without bodies, constructors,
and overrides of universal base-object methods (configurable name list).
Lambda bodies and initializer blocks are not treated as methods; methods
inside anonymous class bodies are attributed to the innermost named class
with a positional "$anonN" suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .javalex import DOC_COMMENT, ID, JavaLexError, Token, lex
from .records import (
    ClassRecord,
    ExtractionSummary,
    MethodRecord,
    ProjectSnapshot,
    SourceSpan,
)

PRIMITIVES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}
)
MODIFIERS = frozenset(
    {
        "public", "protected", "private", "static", "final", "abstract",
        "default", "synchronized", "native", "strictfp", "transient",
        "volatile", "sealed",
    }
)
# keywords that can never start a local variable declaration
_STMT_KEYWORDS = frozenset(
    {
        "return", "throw", "new", "if", "else", "for", "while", "do", "switch",
        "case", "break", "continue", "try", "catch", "finally", "synchronized",
        "assert", "this", "super", "yield", "instanceof", "class", "interface",
        "enum", "void", "import", "package", "extends", "implements", "throws",
    }
) | MODIFIERS
_TYPE_KIND_KEYWORDS = frozenset({"class", "interface", "enum", "record"})
_GENERIC_INNER = frozenset({",", ".", "<", ">", "?", "extends", "super", "[", "]", "&", "@"})

DEFAULT_EXCLUDED_METHODS = ("toString", "equals", "hashCode", "clone", "finalize")
DEFAULT_TEST_ROOTS = ("src/test/",)


class JavaParseError(ValueError):
    pass


@dataclass
class ExtractConfig:
    test_roots: tuple[str, ...] = DEFAULT_TEST_ROOTS
    excluded_method_names: tuple[str, ...] = DEFAULT_EXCLUDED_METHODS


@dataclass
class _ClassCtx:
    qualified_name: str
    kind: str
    anon_count: int = 0


def _clean_doc(text: str) -> str:
    """Strip the per-line '*' gutter of javadoc/block comments."""
    lines = [re.sub(r"^\s*\*?\s?", "", ln) for ln in text.split("\n")]
    return "\n".join(lines).strip()


def _render_type(tokens: list[Token]) -> str:
    """Join type tokens compactly: space only between adjacent identifiers."""
    out: list[str] = []
    prev_kind = None
    for tok in tokens:
        if prev_kind == ID and tok.kind == ID:
            out.append(" ")
        out.append(tok.text)
        prev_kind = tok.kind
    return "".join(out)


class _FileParser:
    """Single-file structural parser over the lexed token stream."""

    def __init__(self, source: str, rel_path: str, is_test: bool, config: ExtractConfig):
        self.source = source
        self.rel_path = rel_path
        self.is_test = is_test
        self.config = config
        self.stream = lex(source)
        self.ct: list[Token] = [t for t in self.stream if not t.is_comment]
        # stream position of each code token, for comment attachment
        self.ct_pos: list[int] = [i for i, t in enumerate(self.stream) if not t.is_comment]
        self.package = ""
        self.classes: list[ClassRecord] = []
        self.methods: list[MethodRecord] = []
        self.lines = source.split("\n")

    # -- small helpers -------------------------------------------------

    def _text(self, ci: int) -> str:
        return self.ct[ci].text if 0 <= ci < len(self.ct) else ""

    def _kind(self, ci: int) -> str | None:
        return self.ct[ci].kind if 0 <= ci < len(self.ct) else None

    def _doc_before(self, ci: int) -> str:
        """Doc comment immediately preceding code token ci (trivia only between)."""
        sp = self.ct_pos[ci]
        prev_code_sp = self.ct_pos[ci - 1] if ci > 0 else -1
        for k in range(sp - 1, prev_code_sp, -1):
            tok = self.stream[k]
            if tok.kind == DOC_COMMENT:
                return _clean_doc(tok.text)
        return ""

    def _comments_between(self, open_ci: int, close_ci: int) -> list[str]:
        lo, hi = self.ct_pos[open_ci], self.ct_pos[close_ci]
        out = []
        for k in range(lo + 1, hi):
            tok = self.stream[k]
            if tok.is_comment:
                out.append(_clean_doc(tok.text) if "\n" in tok.text else tok.text.strip())
        return out

    def _close(self, ci: int, open_ch: str, close_ch: str, end: int) -> int | None:
        """Index just past the token matching ct[ci] == open_ch, or None if
        it does not close before end."""
        depth = 0
        ct = self.ct
        for k in range(ci, end):
            t = ct[k].text
            if t == open_ch:
                depth += 1
            elif t == close_ch:
                depth -= 1
                if depth == 0:
                    return k + 1
        return None

    def _skip_balanced(self, ci: int, open_ch: str, close_ch: str) -> int:
        """Index just past the token matching ct[ci] == open_ch."""
        end = self._close(ci, open_ch, close_ch, len(self.ct))
        if end is None:
            raise JavaParseError(f"unbalanced {open_ch}{close_ch} in {self.rel_path}")
        return end

    def _skip_name(self, ci: int) -> int:
        """ct[ci] is an identifier; index just past Qualified.Name."""
        ci += 1
        while self._text(ci) == "." and self._kind(ci + 1) == ID:
            ci += 2
        return ci

    def _skip_annotation(self, ci: int, end: int | None = None) -> int:
        """ct[ci] == '@'; skips @Qualified.Name and optional (...) args.

        Unclosed args raise, unless a bound is given: then they run to end."""
        ci += 1
        if self._kind(ci) == ID:
            ci = self._skip_name(ci)
            if self._text(ci) == ".":
                ci += 1
        if self._text(ci) != "(":
            return ci
        if end is None:
            return self._skip_balanced(ci, "(", ")")
        return self._close(ci, "(", ")", end) or end

    # -- top level -----------------------------------------------------

    def parse(self) -> None:
        i = 0
        n = len(self.ct)
        while i < n:
            t = self.ct[i]
            if t.text == "package":
                j = i + 1
                parts = []
                while self._text(j) != ";" and j < n:
                    if self.ct[j].kind == ID:
                        parts.append(self.ct[j].text)
                    j += 1
                self.package = ".".join(parts)
                i = j + 1
            elif t.text == "import":
                while i < n and self._text(i) != ";":
                    i += 1
                i += 1
            elif t.text == "@" and self._text(i + 1) != "interface":
                i = self._skip_annotation(i)
            elif t.text == ";":
                i += 1
            else:
                i = self._parse_type_decl(i, enclosing=None)

    def _find_kind_keyword(self, ci: int) -> tuple[int, str]:
        """Locate the type-kind keyword of a declaration starting at ci."""
        j = ci
        n = len(self.ct)
        while j < n:
            t = self._text(j)
            if t == "@":
                if self._text(j + 1) == "interface":
                    return j + 1, "interface"
                j = self._skip_annotation(j)
                continue
            if t in ("class", "interface", "enum") and self._text(j - 1) != ".":
                return j, t
            if t == "record" and self._kind(j + 1) == ID and self._text(j + 2) == "(":
                return j, "record"
            if t in MODIFIERS or self._text(j) == "non" or self._text(j) == "-":
                j += 1
                continue
            j += 1
            if j - ci > 32:
                break
        raise JavaParseError(f"expected type declaration near line {self.ct[ci].line} in {self.rel_path}")

    def _parse_type_decl(self, ci: int, enclosing: _ClassCtx | None) -> int:
        kw_i, kind = self._find_kind_keyword(ci)
        name_i = kw_i + 1
        if self._kind(name_i) != ID:
            raise JavaParseError(f"missing type name near line {self.ct[kw_i].line} in {self.rel_path}")
        simple = self.ct[name_i].text
        if enclosing is not None:
            qualified = f"{enclosing.qualified_name}.{simple}"
        else:
            qualified = f"{self.package}.{simple}" if self.package else simple
        ctx = _ClassCtx(qualified, kind)
        self.classes.append(ClassRecord(qualified, self._doc_before(ci), self.rel_path, kind))
        j = name_i + 1
        while j < len(self.ct) and self._text(j) != "{":
            if self._text(j) == "(":  # record component list
                j = self._skip_balanced(j, "(", ")")
            elif self._text(j) == "<":
                j = self._skip_balanced(j, "<", ">")
            elif self._text(j) == ";":  # degenerate decl without body
                return j + 1
            else:
                j += 1
        if j >= len(self.ct):
            raise JavaParseError(f"type {qualified} has no body in {self.rel_path}")
        return self._parse_class_body(j, ctx)

    # -- class bodies ----------------------------------------------------

    def _parse_class_body(self, open_ci: int, ctx: _ClassCtx) -> int:
        i = open_ci + 1
        if ctx.kind == "enum":
            i = self._parse_enum_constants(i, ctx)
        n = len(self.ct)
        while i < n:
            t = self._text(i)
            if t == "}":
                return i + 1
            if t == ";":
                i += 1
                continue
            i = self._parse_member(i, ctx)
        raise JavaParseError(f"unterminated body of {ctx.qualified_name} in {self.rel_path}")

    def _parse_enum_constants(self, i: int, ctx: _ClassCtx) -> int:
        while i < len(self.ct):
            t = self._text(i)
            if t == "@":
                i = self._skip_annotation(i)
                continue
            if t in (";", "}"):
                return i + 1 if t == ";" else i
            if self.ct[i].kind != ID:
                return i  # not a constant section after all
            i += 1
            if self._text(i) == "(":
                i = self._walk_expr(i, stops=(",", ";", "}", "{"), enclosing=ctx)
            if self._text(i) == "{":  # constant with a class body
                i = self._parse_anon_body(i, ctx)
            if self._text(i) == ",":
                i += 1
                continue
            if self._text(i) == ";":
                return i + 1
            if self._text(i) == "}":
                return i
        return i

    def _parse_member(self, ms: int, ctx: _ClassCtx) -> int:
        """Parse one class member starting at code index ms; return next index."""
        j = ms
        depth = 0
        n = len(self.ct)
        while j < n:
            t = self._text(j)
            if depth == 0:
                if t in _TYPE_KIND_KEYWORDS and self._text(j - 1) != ".":
                    if t != "record" or (self._kind(j + 1) == ID and self._text(j + 2) == "("):
                        return self._parse_type_decl(ms, enclosing=ctx)
                if t == "@" and self._text(j + 1) == "interface":
                    return self._parse_type_decl(ms, enclosing=ctx)
                if t == "=":
                    # field with initializer: walk to ';', harvesting anon classes
                    j = self._walk_expr(j + 1, stops=(";",), enclosing=ctx)
                    return j + 1
                if t == ";":
                    return j + 1  # field or bodyless (abstract/interface) declaration
                if t == "{":
                    return self._parse_block_member(ms, j, ctx)
            if t == "@":
                j = self._skip_annotation(j)
                continue
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            j += 1
        raise JavaParseError(f"unterminated member in {ctx.qualified_name} ({self.rel_path})")

    def _parse_block_member(self, ms: int, brace_ci: int, ctx: _ClassCtx) -> int:
        parsed = self._parse_method_header(ms, brace_ci)
        local_vars: list[tuple[str, str]] = []
        end_ci = self._scan_block(brace_ci, ctx, local_vars) - 1  # index of '}'
        if parsed is None:  # initializer block ('static {' or bare '{') or compact record ctor
            return end_ci + 1
        name, return_type, params = parsed
        if return_type == "" or name in self.config.excluded_method_names:  # ctor or excluded
            return end_ci + 1
        start_line = self.ct[ms].line
        end_line = self.ct[end_ci].end_line
        span = SourceSpan(self.rel_path, start_line, end_line)
        self.methods.append(
            MethodRecord(
                class_name=ctx.qualified_name,
                method_name=name,
                return_type=return_type,
                params=tuple(params),
                local_vars=tuple(local_vars),
                method_doc=self._doc_before(ms),
                inline_comments=tuple(self._comments_between(brace_ci, end_ci)),
                span=span,
                body_text="\n".join(self.lines[start_line - 1:end_line]),
                is_test=self.is_test,
            )
        )
        return end_ci + 1

    def _parse_method_header(
        self, ms: int, brace_ci: int
    ) -> tuple[str, str, list[tuple[str, str]]] | None:
        """(name, return type, params) of the header ct[ms:brace_ci], or None
        when it has no 'name(' after its modifiers and type parameters."""
        k = ms
        while True:
            t = self._text(k)
            if t == "@":
                k = self._skip_annotation(k, brace_ci)
            elif t in MODIFIERS:
                k += 1
            else:
                break
        if self._text(k) == "<":  # method type parameters
            k = self._close(k, "<", ">", brace_ci)
            if k is None:
                return None
        # first '(' after this point separates "return type + name" from params
        p = k
        while p < brace_ci and self.ct[p].text != "(":
            p += 1
        if p == brace_ci or p == k or self.ct[p - 1].kind != ID:
            return None
        q = self._close(p, "(", ")", brace_ci)
        params = self._parse_params(p + 1, brace_ci if q is None else q - 1)
        return self.ct[p - 1].text, _render_type(self.ct[k:p - 1]), params

    def _parse_params(self, lo: int, hi: int) -> list[tuple[str, str]]:
        """(type, name) of each parameter in ct[lo:hi]. The list is split on
        depth-0 commas before annotations and 'final' are dropped."""
        cuts = [lo - 1]
        depth = 0
        for k in range(lo, hi):
            t = self.ct[k].text
            if t in ("(", "[", "<"):
                depth += 1
            elif t in (")", "]", ">"):
                depth -= 1
            elif t == "," and depth == 0:
                cuts.append(k)
        cuts.append(hi)
        params: list[tuple[str, str]] = []
        for a, b in zip(cuts, cuts[1:]):
            toks: list[Token] = []
            g = a + 1
            while g < b:
                tok = self.ct[g]
                if tok.text == "@":
                    g = self._skip_annotation(g, b)
                    continue
                if tok.text != "final":
                    toks.append(tok)
                g += 1
            # name = last ID token; trailing [] dims attach to the type
            name_idx = max((x for x, tok in enumerate(toks) if tok.kind == ID), default=0)
            if name_idx == 0 or toks[name_idx].text == "this":  # no type, or a receiver
                continue
            params.append((_render_type(toks[:name_idx] + toks[name_idx + 1:]), toks[name_idx].text))
        return params

    # -- statement/expression walking ------------------------------------

    def _scan_block(self, open_ci: int, ctx: _ClassCtx, locals_out: list[tuple[str, str]]) -> int:
        """Walk a '{...}' region: collect local declarations, harvest anonymous
        class bodies, recurse into nested blocks. Returns index after '}'."""
        i = open_ci + 1
        n = len(self.ct)
        while i < n:
            t = self._text(i)
            if t == "}":
                return i + 1
            if t == "new" and (p := self._is_anon(i)) is not None:
                i = self._consume_anon(p, ctx)
                continue
            if t == "{":
                i = self._scan_block(i, ctx, locals_out)
                continue
            if self._at_stmt_start(i) and self._may_start_decl(i):
                consumed = self._try_local_decl(i, locals_out, ctx)
                if consumed is not None:
                    i = consumed
                    continue
            i += 1
        raise JavaParseError(f"unterminated block in {self.rel_path}")

    def _at_stmt_start(self, i: int) -> bool:
        prev = self._text(i - 1)
        if prev in ("{", "}", ";", ":", "->"):
            return True
        if prev == "(" and self._text(i - 2) in ("for", "try", "catch"):
            return True
        return False

    def _may_start_decl(self, i: int) -> bool:
        tok = self.ct[i]
        if tok.kind == ID and tok.text not in _STMT_KEYWORDS:
            return True
        return tok.text in PRIMITIVES or tok.text in ("final", "@")

    def _try_local_decl(
        self, i: int, out: list[tuple[str, str]], ctx: _ClassCtx
    ) -> int | None:
        j = i
        n = len(self.ct)
        while j < n and self._text(j) == "@":
            j = self._skip_annotation(j)
        while j < n and self._text(j) == "final":
            j += 1
        type_start = j
        j = self._try_parse_type(j)
        if j is None:
            return None
        while self._text(j) == "|":  # multi-catch alternatives
            j2 = self._try_parse_type(j + 1)
            if j2 is None:
                return None
            j = j2
        if j >= n or self.ct[j].kind != ID or self._text(j) in _STMT_KEYWORDS:
            return None
        name_i = j
        j += 1
        while self._text(j) == "[" and self._text(j + 1) == "]":
            j += 2
        if self._text(j) not in ("=", ";", ",", ":", ")"):
            return None
        type_text = _render_type(self.ct[type_start:name_i])
        out.append((type_text, self.ct[name_i].text))
        while True:
            t = self._text(j)
            if t == "=":
                j = self._walk_expr(j + 1, stops=(",", ";"), enclosing=ctx)
            elif t == ",":
                j += 1
                if j < n and self.ct[j].kind == ID:
                    out.append((type_text, self.ct[j].text))
                    j += 1
                    while self._text(j) == "[" and self._text(j + 1) == "]":
                        j += 2
                else:
                    return j
            elif t == ";":
                return j + 1
            else:  # ':' (enhanced for) or ')' (catch / resources): leave for caller
                return j

    def _try_parse_type(self, j: int) -> int | None:
        n = len(self.ct)
        if j >= n:
            return None
        tok = self.ct[j]
        if tok.text in PRIMITIVES and tok.text != "void":
            j += 1
        elif tok.kind == ID and tok.text not in _STMT_KEYWORDS:
            j = self._skip_name(j)
        else:
            return None
        if self._text(j) == "<":
            depth = 0
            k = j
            while k < n:
                t = self._text(k)
                if t == "<":
                    depth += 1
                elif t == ">":
                    depth -= 1
                    if depth == 0:
                        k += 1
                        break
                elif not (self.ct[k].kind == ID or t in _GENERIC_INNER):
                    return None  # expression, not a generic type
                k += 1
            else:
                return None
            j = k
        while self._text(j) == "[" and self._text(j + 1) == "]":
            j += 2
        if self._text(j) == "...":
            j += 1
        return j

    def _is_anon(self, i: int) -> int | None:
        """Lookahead from ct[i] == 'new': the index of the '(' of
        'new Type(...) {', or None when no class body follows."""
        if self._kind(i + 1) != ID:
            return None
        n = len(self.ct)
        j = self._skip_name(i + 1)
        if self._text(j) == "<":
            j = self._close(j, "<", ">", n) or n
        if self._text(j) != "(":
            return None
        return j if self._text(self._close(j, "(", ")", n) or n) == "{" else None

    def _consume_anon(self, j: int, ctx: _ClassCtx) -> int:
        """ct[j] is the '(' found by _is_anon; parses the arguments, which may
        themselves hold anonymous classes, then the class body."""
        depth = 1
        j += 1
        n = len(self.ct)
        while j < n and depth > 0:
            t = self._text(j)
            if t == "new" and (p := self._is_anon(j)) is not None:
                j = self._consume_anon(p, ctx)
                continue
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            j += 1
        return self._parse_anon_body(j, ctx)

    def _parse_anon_body(self, open_ci: int, ctx: _ClassCtx) -> int:
        """Parse the anonymous class body at open_ci as ctx's next $anonN."""
        ctx.anon_count += 1
        name = f"{ctx.qualified_name}$anon{ctx.anon_count}"
        self.classes.append(ClassRecord(name, "", self.rel_path, "class"))
        return self._parse_class_body(open_ci, _ClassCtx(name, "class"))

    def _walk_expr(self, i: int, stops: tuple[str, ...], enclosing: _ClassCtx) -> int:
        """Walk until a stop token at depth 0; harvests anonymous classes."""
        depth = 0
        n = len(self.ct)
        while i < n:
            t = self._text(i)
            if depth == 0 and t in stops:
                return i
            if t == "new" and (p := self._is_anon(i)) is not None:
                i = self._consume_anon(p, enclosing)
                continue
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                if depth == 0:
                    return i
                depth -= 1
            i += 1
        return i


def parse_java_file(
    source: str, rel_path: str, is_test: bool, config: ExtractConfig | None = None
) -> tuple[list[ClassRecord], list[MethodRecord]]:
    parser = _FileParser(source, rel_path, is_test, config or ExtractConfig())
    parser.parse()
    return parser.classes, parser.methods


def extract(
    root: str | Path,
    name: str | None = None,
    role: str = "original",
    config: ExtractConfig | None = None,
) -> ProjectSnapshot:
    """Parse every .java file under root into a ProjectSnapshot.

    Files that fail to parse are skipped and recorded in the summary;
    a nonexistent root is a hard error.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"source root does not exist: {root}")
    config = config or ExtractConfig()
    summary = ExtractionSummary()
    classes: list[ClassRecord] = []
    methods: list[MethodRecord] = []
    for path in sorted(root.rglob("*.java")):
        rel = path.relative_to(root).as_posix()
        summary.files_seen += 1
        is_test = any(rel.startswith(prefix) for prefix in config.test_roots)
        try:
            source = path.read_text(encoding="utf-8", errors="replace")
            cls, mth = parse_java_file(source, rel, is_test, config)
        except (JavaLexError, JavaParseError) as exc:
            summary.failed_files.append((rel, str(exc)))
            continue
        summary.files_parsed += 1
        classes.extend(cls)
        methods.extend(mth)
    summary.classes = len(classes)
    summary.methods = len(methods)
    return ProjectSnapshot(
        name=name or root.name,
        role=role,
        root_path=str(root),
        records=methods,
        classes=classes,
        summary=summary,
    )

