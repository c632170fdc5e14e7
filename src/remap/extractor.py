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
    simple_name: str
    kind: str
    doc: str
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

    def _slice_lines(self, start_line: int, end_line: int) -> str:
        return "\n".join(self.lines[start_line - 1:end_line])

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

    def _skip_balanced(self, ci: int, open_ch: str, close_ch: str) -> int:
        """Index just past the token matching ct[ci] == open_ch."""
        depth = 0
        n = len(self.ct)
        while ci < n:
            t = self._text(ci)
            if t == open_ch:
                depth += 1
            elif t == close_ch:
                depth -= 1
                if depth == 0:
                    return ci + 1
            ci += 1
        raise JavaParseError(f"unbalanced {open_ch}{close_ch} in {self.rel_path}")

    def _skip_annotation(self, ci: int) -> int:
        """ct[ci] == '@'; skips @Qualified.Name and optional (...) args."""
        ci += 1
        while ci < len(self.ct) and self.ct[ci].kind == ID:
            ci += 1
            if self._text(ci) == ".":
                ci += 1
            else:
                break
        if self._text(ci) == "(":
            ci = self._skip_balanced(ci, "(", ")")
        return ci

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
        doc = self._doc_before(ci)
        ctx = _ClassCtx(qualified, simple, kind, doc)
        self.classes.append(ClassRecord(qualified, doc, self.rel_path, kind))
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
                ctx.anon_count += 1
                sub = _ClassCtx(f"{ctx.qualified_name}$anon{ctx.anon_count}", ctx.simple_name, "class", "")
                self.classes.append(ClassRecord(sub.qualified_name, "", self.rel_path, "class"))
                i = self._parse_class_body(i, sub)
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
        header = self.ct[ms:brace_ci]
        has_parens = any(t.text == "(" for t in header)
        if not has_parens:
            # initializer block ('static {' or bare '{') or compact record ctor
            locals_sink: list[tuple[str, str]] = []
            return self._scan_block(brace_ci, ctx, locals_sink)
        parsed = self._parse_method_header(header, ctx)
        if parsed is None:
            locals_sink = []
            return self._scan_block(brace_ci, ctx, locals_sink)
        name, return_type, params = parsed
        is_ctor = return_type == "" and name == ctx.simple_name
        excluded = name in self.config.excluded_method_names
        local_vars: list[tuple[str, str]] = []
        end_ci = self._scan_block(brace_ci, ctx, local_vars) - 1  # index of '}'
        if is_ctor or excluded or return_type == "":
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
                body_text=self._slice_lines(start_line, end_line),
                is_test=self.is_test,
            )
        )
        return end_ci + 1

    def _parse_method_header(
        self, header: list[Token], ctx: _ClassCtx
    ) -> tuple[str, str, list[tuple[str, str]]] | None:
        k = 0
        n = len(header)

        def htext(idx: int) -> str:
            return header[idx].text if 0 <= idx < n else ""

        while k < n:
            if htext(k) == "@":
                # skip annotation within the header copy
                k += 1
                while k < n and header[k].kind == ID:
                    k += 1
                    if htext(k) == ".":
                        k += 1
                    else:
                        break
                if htext(k) == "(":
                    d = 0
                    while k < n:
                        if htext(k) == "(":
                            d += 1
                        elif htext(k) == ")":
                            d -= 1
                            if d == 0:
                                k += 1
                                break
                        k += 1
                continue
            if htext(k) in MODIFIERS:
                k += 1
                continue
            break
        if htext(k) == "<":  # method type parameters
            d = 0
            while k < n:
                if htext(k) == "<":
                    d += 1
                elif htext(k) == ">":
                    d -= 1
                    if d == 0:
                        k += 1
                        break
                k += 1
        # first '(' after this point separates "return type + name" from params
        p = k
        while p < n and htext(p) != "(":
            p += 1
        if p >= n or p == k:
            return None
        if header[p - 1].kind != ID:
            return None
        name = header[p - 1].text
        return_type = _render_type(header[k:p - 1])
        d = 0
        q = p
        while q < n:
            if htext(q) == "(":
                d += 1
            elif htext(q) == ")":
                d -= 1
                if d == 0:
                    break
            q += 1
        params = self._parse_params(header[p + 1:q])
        return name, return_type, params

    def _parse_params(self, tokens: list[Token]) -> list[tuple[str, str]]:
        groups: list[list[Token]] = [[]]
        depth = 0
        for tok in tokens:
            if tok.text in ("(", "[", "<"):
                depth += 1
            elif tok.text in (")", "]", ">"):
                depth -= 1
            if tok.text == "," and depth == 0:
                groups.append([])
            else:
                groups[-1].append(tok)
        params: list[tuple[str, str]] = []
        for group in groups:
            # drop annotations and 'final'
            toks: list[Token] = []
            g = 0
            while g < len(group):
                if group[g].text == "@":
                    g += 1
                    while g < len(group) and group[g].kind == ID:
                        g += 1
                        if g < len(group) and group[g].text == ".":
                            g += 1
                        else:
                            break
                    if g < len(group) and group[g].text == "(":
                        d = 0
                        while g < len(group):
                            if group[g].text == "(":
                                d += 1
                            elif group[g].text == ")":
                                d -= 1
                                if d == 0:
                                    g += 1
                                    break
                            g += 1
                    continue
                if group[g].text == "final":
                    g += 1
                    continue
                toks.append(group[g])
                g += 1
            if not toks:
                continue
            # name = last ID token; trailing [] dims attach to the type
            name_idx = None
            for idx in range(len(toks) - 1, -1, -1):
                if toks[idx].kind == ID:
                    name_idx = idx
                    break
            if name_idx is None or name_idx == 0:
                continue
            name = toks[name_idx].text
            if name == "this":  # receiver parameter
                continue
            type_toks = toks[:name_idx] + toks[name_idx + 1:]
            params.append((_render_type(type_toks), name))
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
            if t == "new" and self._is_anon(i):
                i = self._consume_anon(i, ctx, locals_out)
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
            j += 1
            while self._text(j) == "." and j + 1 < n and self.ct[j + 1].kind == ID:
                j += 2
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

    def _is_anon(self, i: int) -> bool:
        """Lookahead: ct[i]=='new' starts 'new Type(...) {'."""
        j = i + 1
        n = len(self.ct)
        if j >= n or self.ct[j].kind != ID:
            return False
        j += 1
        while self._text(j) == "." and j + 1 < n and self.ct[j + 1].kind == ID:
            j += 2
        if self._text(j) == "<":
            depth = 0
            while j < n:
                if self._text(j) == "<":
                    depth += 1
                elif self._text(j) == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        if self._text(j) != "(":
            return False
        depth = 0
        while j < n:
            t = self._text(j)
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    j += 1
                    break
            j += 1
        return self._text(j) == "{"

    def _consume_anon(self, i: int, ctx: _ClassCtx, locals_out: list[tuple[str, str]]) -> int:
        j = i + 1  # past 'new'
        j += 1  # type name
        n = len(self.ct)
        while self._text(j) == "." and j + 1 < n and self.ct[j + 1].kind == ID:
            j += 2
        if self._text(j) == "<":
            depth = 0
            while j < n:
                if self._text(j) == "<":
                    depth += 1
                elif self._text(j) == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        # constructor args may themselves contain anonymous classes
        assert self._text(j) == "("
        depth = 1
        j += 1
        while j < n and depth > 0:
            t = self._text(j)
            if t == "new" and self._is_anon(j):
                j = self._consume_anon(j, ctx, locals_out)
                continue
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            j += 1
        ctx.anon_count += 1
        sub = _ClassCtx(f"{ctx.qualified_name}$anon{ctx.anon_count}", "", "class", "")
        self.classes.append(ClassRecord(sub.qualified_name, "", self.rel_path, "class"))
        return self._parse_class_body(j, sub)

    def _walk_expr(self, i: int, stops: tuple[str, ...], enclosing: _ClassCtx) -> int:
        """Walk until a stop token at depth 0; harvests anonymous classes."""
        depth = 0
        n = len(self.ct)
        sink: list[tuple[str, str]] = []
        while i < n:
            t = self._text(i)
            if depth == 0 and t in stops:
                return i
            if t == "new" and self._is_anon(i):
                i = self._consume_anon(i, enclosing, sink)
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


def match_fragment(
    snapshot: ProjectSnapshot, frag: SourceSpan, counters: dict | None = None
) -> MethodRecord | None:
    """Bind a reported fragment to the method with maximal line-overlap Jaccard.

    Ties prefer the smaller span, then the earlier start line; returns None
    when the file is unknown or nothing overlaps.
    """
    candidates = snapshot.in_file(frag.file_path)
    if not candidates:
        if counters is not None:
            counters["file_not_in_snapshot"] = counters.get("file_not_in_snapshot", 0) + 1
        return None
    best: MethodRecord | None = None
    best_key: tuple[float, int, int] | None = None
    for rec in candidates:
        overlap = rec.span.jaccard(frag)
        if overlap <= 0.0:
            continue
        key = (-overlap, rec.span.line_count, rec.span.start_line)
        if best_key is None or key < best_key:
            best, best_key = rec, key
    return best
