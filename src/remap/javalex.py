"""Minimal Java lexer.

Produces a flat token stream with line numbers and source offsets: enough
structure for brace matching, declaration headers, and comment attachment.
This is deliberately not a full grammar; the extractor only needs lexical
shape (see extractor.py for the exclusions that make this viable).
"""

from __future__ import annotations

import re
from typing import NamedTuple

ID = "id"
NUM = "num"
STR = "str"
PUNCT = "punct"
LINE_COMMENT = "line_comment"
BLOCK_COMMENT = "block_comment"
DOC_COMMENT = "doc_comment"

COMMENT_KINDS = frozenset({LINE_COMMENT, BLOCK_COMMENT, DOC_COMMENT})

# Token kinds as alternatives, tried in order. In a string a backslash escapes
# any character, a newline too. An identifier starts at a letter, '_', '$' or a
# numeric character that is not a decimal digit, such as '²' (invalid Java
# outside literals). A number runs on through '.' only before a digit or a float
# suffix. '>>' is two tokens, so nested generics close one '>' at a time. An
# opening '/*', '"""', '"' or "'" that no earlier alternative closes is an error.
_TOKEN = re.compile(r'''
    (?P<space>\s+)
  | //(?P<line_comment>[^\n]*)
  | /\*(?P<block_comment>.*?)\*/
  | (?P<text_block>""".*?""")
  | (?P<str>(?!""")"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
  | (?P<id>(?:[^\W\d]|\$)[\w$]*)
  | (?P<num>\d(?:\w|\.(?=[\dfFdDeE]))*)
  | (?P<unterminated>/\*|"""|["'])
  | (?P<punct>->|\.\.\.|::|.)
''', re.VERBOSE | re.DOTALL)

_UNTERMINATED = {"/*": "block comment", '"""': "text block", '"': "string literal", "'": "char literal"}


class JavaLexError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Token(NamedTuple):
    kind: str
    text: str
    line: int       # 1-based line of the first character
    end_line: int   # last line (differs for block comments / text blocks)
    start: int      # offset into the source
    end: int        # offset one past the last character

    @property
    def is_comment(self) -> bool:
        return self.kind in COMMENT_KINDS


def lex(source: str) -> list[Token]:
    """Tokenize Java source; raises JavaLexError on unterminated literals.

    Only '\\n' outside string and char literals advances the line count.
    """
    tokens: list[Token] = []
    line = 1
    # The last alternative matches any character, so the matches tile the source.
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "space":
            line += m[0].count("\n")
            continue
        if kind == "unterminated":
            raise JavaLexError(f"unterminated {_UNTERMINATED[m[0]]}", line)
        text = m[kind]
        end_line = line
        if kind == "text_block":
            kind, end_line = STR, line + text.count("\n")
        elif kind == BLOCK_COMMENT:
            end_line = line + text.count("\n")
            if text.startswith("*") and text != "*":
                kind = DOC_COMMENT
            text = text.lstrip("*")
        tokens.append(Token(kind, text, line, end_line, *m.span()))
        line = end_line
    return tokens
