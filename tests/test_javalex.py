"""The Java lexer: every token kind, line counting, errors, and the
character-at-a-time lexer it replaced, kept here as the reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remap.javalex import (
    BLOCK_COMMENT,
    DOC_COMMENT,
    ID,
    LINE_COMMENT,
    NUM,
    PUNCT,
    STR,
    JavaLexError,
    Token,
    lex,
)

# -- the reference: the earlier lexer, one character at a time ----------------

_MULTI = ("->", "...", "::")


def _is_id_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_id_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def reference_lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n:
            nxt = source[i + 1]
            if nxt == "/":
                j = source.find("\n", i)
                if j == -1:
                    j = n
                tokens.append(Token(LINE_COMMENT, source[i + 2:j], line, line, i, j))
                i = j
                continue
            if nxt == "*":
                j = source.find("*/", i + 2)
                if j == -1:
                    raise JavaLexError("unterminated block comment", line)
                body = source[i + 2:j]
                kind = DOC_COMMENT if body.startswith("*") and body != "*" else BLOCK_COMMENT
                end_line = line + source.count("\n", i, j + 2)
                tokens.append(Token(kind, body.lstrip("*"), line, end_line, i, j + 2))
                line = end_line
                i = j + 2
                continue
        if ch == '"':
            if source.startswith('"""', i):
                j = source.find('"""', i + 3)
                if j == -1:
                    raise JavaLexError("unterminated text block", line)
                end = j + 3
                end_line = line + source.count("\n", i, end)
                tokens.append(Token(STR, source[i:end], line, end_line, i, end))
                line = end_line
                i = end
                continue
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == '"':
                    break
                if source[j] == "\n":
                    raise JavaLexError("unterminated string literal", line)
                j += 1
            else:
                raise JavaLexError("unterminated string literal", line)
            tokens.append(Token(STR, source[i:j + 1], line, line, i, j + 1))
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == "'":
                    break
                if source[j] == "\n":
                    raise JavaLexError("unterminated char literal", line)
                j += 1
            else:
                raise JavaLexError("unterminated char literal", line)
            tokens.append(Token(STR, source[i:j + 1], line, line, i, j + 1))
            i = j + 1
            continue
        if _is_id_start(ch):
            j = i + 1
            while j < n and _is_id_part(source[j]):
                j += 1
            tokens.append(Token(ID, source[i:j], line, line, i, j))
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "._xXbBlLfFdDeE"):
                if source[j] == "." and not (j + 1 < n and (source[j + 1].isdigit() or source[j + 1] in "fFdDeE")):
                    break
                j += 1
            tokens.append(Token(NUM, source[i:j], line, line, i, j))
            i = j
            continue
        matched = False
        for op in _MULTI:
            if source.startswith(op, i):
                tokens.append(Token(PUNCT, op, line, line, i, i + len(op)))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        tokens.append(Token(PUNCT, ch, line, line, i, i + 1))
        i += 1
    return tokens


def outcome(lexer, source):
    """The tokens, or the error's message and line."""
    try:
        return lexer(source)
    except JavaLexError as exc:
        return ("error", str(exc), exc.line)


# Unicode whitespace that Python counts as space, a byte-order mark that it
# does not, letters, and an Arabic-Indic digit.
ALPHABET = [chr(c) for c in range(32, 127)] + list("\t\n\r\f") + list("éßλ中٣\x1c\x85\xa0\u2028\ufeff")
FRAGMENTS = [
    "/*", "*/", "/**", "/***/", "/**/", "//", '"""', '"', "'", "\\", "\\\n", "\n", "\r\n",
    "->", "...", "::", ">>", ">>>=", "1.5f", "0x1F", "1.e3", "1.", "1_000L", ".5", "a$b", "_x",
    "class A {", "int x = 1;", "@Override", "List<Map<K, V>>", 'String s = "a\\"b";', "char c = '\\'';",
]


def sources():
    text = st.text(alphabet=ALPHABET, max_size=40)
    spliced = st.lists(st.sampled_from(FRAGMENTS) | st.text(alphabet=ALPHABET, max_size=3), max_size=20)
    return text | spliced.map("".join)


@settings(max_examples=1500, deadline=None)
@given(sources())
def test_lex_equals_the_reference_lexer(source):
    assert outcome(lex, source) == outcome(reference_lex, source)


# -- worked examples ----------------------------------------------------------


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in lex(source)]


def test_token_kinds():
    source = 'x $y _1 42 0x1Fl 1.5e3f "s\\"q" \'c\' """\ntb""" -> ... :: >> ; // line\n/* b */ /** d */'
    assert kinds_and_texts(source) == [
        (ID, "x"), (ID, "$y"), (ID, "_1"), (NUM, "42"), (NUM, "0x1Fl"), (NUM, "1.5e3f"),
        (STR, '"s\\"q"'), (STR, "'c'"), (STR, '"""\ntb"""'),
        (PUNCT, "->"), (PUNCT, "..."), (PUNCT, "::"), (PUNCT, ">"), (PUNCT, ">"), (PUNCT, ";"),
        (LINE_COMMENT, " line"), (BLOCK_COMMENT, " b "), (DOC_COMMENT, " d "),
    ]
    assert [t.is_comment for t in lex("a // c\n/* b */ /** d */")] == [False, True, True, True]


def test_tokens_are_tuples_with_offsets():
    tok = lex("  foo")[0]
    assert tok == Token(ID, "foo", 1, 1, 2, 5) == (ID, "foo", 1, 1, 2, 5)
    assert tok._fields == ("kind", "text", "line", "end_line", "start", "end")


@pytest.mark.parametrize("source, kind, text", [
    ("/**/", BLOCK_COMMENT, ""),
    ("/***/", BLOCK_COMMENT, ""),  # a body of exactly '*' is not a doc comment
    ("/****/", DOC_COMMENT, ""),
    ("/** x **/", DOC_COMMENT, " x *"),
    ("/*/ x */", BLOCK_COMMENT, "/ x "),  # the closing '*/' is sought after the opening '/*'
])
def test_block_and_doc_comments(source, kind, text):
    assert kinds_and_texts(source) == [(kind, text)]


@pytest.mark.parametrize("source, texts", [
    ("1.5", ["1.5"]),
    ("1.f", ["1.f"]),
    ("1.e3", ["1.e3"]),
    ("1.x", ["1", ".", "x"]),
    ("1._", ["1", ".", "_"]),
    ("1..2", ["1", ".", ".", "2"]),
    ("a.b", ["a", ".", "b"]),
])
def test_a_number_runs_through_a_dot_only_before_a_digit_or_suffix(source, texts):
    assert [t.text for t in lex(source)] == texts


def test_end_line_across_block_comments_and_text_blocks():
    source = 'a\n/* 1\n 2\n*/ b """\nx\ny\n""" c\nd'
    got = [(t.text, t.line, t.end_line) for t in lex(source)]
    assert got == [
        ("a", 1, 1), (" 1\n 2\n", 2, 4), ("b", 4, 4), ('"""\nx\ny\n"""', 4, 7), ("c", 7, 7), ("d", 8, 8),
    ]


def test_an_escaped_newline_in_a_string_does_not_advance_the_line():
    toks = lex('"a\\\nb" x\ny')
    assert [(t.text, t.line, t.end_line) for t in toks] == [('"a\\\nb"', 1, 1), ("x", 1, 1), ("y", 2, 2)]


def test_only_newline_advances_the_line():
    assert [t.line for t in lex("a\rb c\x85d\ne")] == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("source, message, line", [
    ("a\n/* never closed", "unterminated block comment", 2),
    ("x\n\n/*/", "unterminated block comment", 3),
    ('"""\nnever closed\n""', "unterminated text block", 1),
    ('\n"never closed', "unterminated string literal", 2),
    ('"broken\n"', "unterminated string literal", 1),
    ('"ends in a backslash\\', "unterminated string literal", 1),
    ("'\n'", "unterminated char literal", 1),
    ("a\nb\n'x", "unterminated char literal", 3),
])
def test_unterminated_literals_raise_with_their_first_line(source, message, line):
    with pytest.raises(JavaLexError) as exc:
        lex(source)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_non_decimal_numerics_start_identifiers_where_the_reference_differs():
    """A character that is numeric but neither a letter nor a decimal digit
    starts an identifier. The reference lexed it as a number (superscript
    two, a digit) or as punctuation (a fraction, a Roman numeral), and ran
    a number on through '.' before one. Java allows none of these outside a
    literal or comment, except the Roman numeral as an identifier."""
    for ch in "²½Ⅻ":
        assert kinds_and_texts(ch) == [(ID, ch)]
    assert kinds_and_texts("²") != [(t.kind, t.text) for t in reference_lex("²")]
    assert [t.text for t in lex("1.²")] == ["1", ".", "²"]
    assert [t.text for t in reference_lex("1.²")] == ["1.²"]
    assert kinds_and_texts('"½" /* ² */') == [(STR, '"½"'), (BLOCK_COMMENT, " ² ")]
