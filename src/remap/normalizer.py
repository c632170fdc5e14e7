"""Redesign-aware normalization: renaming rules, doc cleanup, tokenization.

Renaming rules rewrite project-specific vocabulary so that the same concept
spells the same on both sides before similarity is measured (e.g. the
original project's setters match the redesigned project's withers). Rules
are ordered; compound identifiers are rewritten before their simpler
substrings so "UnitBox" is captured by the Box rule and never mangled into
"StmtBox" by the plain Unit rule.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .records import ROLE_ORIGINAL, ROLE_REDESIGNED, ClassRecord, MethodRecord, parse_json

SCOPE_ALL = "all_details"
SCOPE_METHOD_NAME = "method_name_only"

# field kinds: a method_name_only rule rewrites FIELD_METHOD_NAME alone
FIELD_CLASS_NAME = "class_name"
FIELD_CLASS_DOC = "class_doc"
FIELD_METHOD_NAME = "method_name"
FIELD_RETURN_TYPE = "return_type"
FIELD_PARAM = "param"
FIELD_LOCAL_VAR = "local_var"
FIELD_METHOD_DOC = "method_doc"
FIELD_COMMENT = "comment"

DOC_FIELDS = frozenset({FIELD_CLASS_DOC, FIELD_METHOD_DOC, FIELD_COMMENT})

DEFAULT_CONTRACTIONS = {
    "doesn't": "does not",
    "don't": "do not",
    "can't": "can not",
    "won't": "will not",
    "isn't": "is not",
    "aren't": "are not",
    "couldn't": "could not",
    "shouldn't": "should not",
}


@dataclass(frozen=True)
class RenameRule:
    scope: str  # all_details | method_name_only
    target_project: str  # original | redesigned
    pattern: str
    replacement: str
    order: int

    def __post_init__(self):
        if self.scope not in (SCOPE_ALL, SCOPE_METHOD_NAME):
            raise ValueError(f"unknown rule scope: {self.scope!r}")
        if self.target_project not in (ROLE_ORIGINAL, ROLE_REDESIGNED):
            raise ValueError(f"unknown target project: {self.target_project!r}")
        if not isinstance(self.pattern, str) or not isinstance(self.replacement, str):
            raise ValueError(
                f"rule pattern and replacement must be strings: {self.pattern!r}, {self.replacement!r}"
            )
        if type(self.order) is not int:  # a bool or a string does not sort with ints
            raise ValueError(f"rule order must be an integer: {self.order!r}")
        try:  # fail fast on a bad pattern, or a replacement naming a missing group
            re.compile(self.pattern).sub(self.replacement, "")
        except (re.error, IndexError) as exc:  # IndexError: an unknown group name
            raise ValueError(f"bad rule {self.pattern!r} -> {self.replacement!r}: {exc}") from None


class RuleSet:
    """Ordered renaming rules for one project pair. A rule rewrites its
    target project's records: every field under scope ``all_details``, the
    method name alone under ``method_name_only``."""

    def __init__(self, name: str, rules: list[RenameRule]):
        self.name = name
        self.rules = sorted(rules, key=lambda r: r.order)

        def scoped(project: str, method_name: bool) -> list:
            return [(re.compile(r.pattern), r.replacement) for r in self.rules
                    if r.target_project == project and (r.scope == SCOPE_ALL or method_name)]

        # per project: the rules for any field but the method name, then those for the method name
        self._scoped = {p: (scoped(p, False), scoped(p, True)) for p in (ROLE_ORIGINAL, ROLE_REDESIGNED)}

    def apply(self, text: str, field: str, record_project: str) -> str:
        """Apply each rule that rewrites ``field`` of ``record_project``'s
        records once, in order, as a global substitution."""
        for rx, replacement in self._scoped[record_project][field == FIELD_METHOD_NAME]:
            text = rx.sub(replacement, text)
        return text

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rules": [
                {
                    "scope": r.scope,
                    "target": r.target_project,
                    "pattern": r.pattern,
                    "replacement": r.replacement,
                    "order": r.order,
                }
                for r in self.rules
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "RuleSet":
        if not isinstance(d, dict) or not isinstance(d.get("rules"), list):
            raise ValueError('rules must be a JSON object with a "rules" list')
        keys = ("scope", "target", "pattern", "replacement", "order")
        for r in d["rules"]:
            if not isinstance(r, dict) or not all(k in r for k in keys):
                raise ValueError(f"each rule needs the keys {', '.join(keys)}: {r!r}")
        rules = [
            RenameRule(
                scope=r["scope"],
                target_project=r["target"],
                pattern=r["pattern"],
                replacement=r["replacement"],
                order=r["order"],
            )
            for r in d["rules"]
        ]
        return RuleSet(d.get("name", "custom"), rules)

    @staticmethod
    def load(path: str | Path) -> "RuleSet":
        return RuleSet.from_dict(parse_json(Path(path).read_text(encoding="utf-8-sig")))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


EMPTY_RULESET = RuleSet("none", [])

# Bundled defaults. Box compounds come before the bare Unit rule on purpose.
SOOT_SOOTUP_RULES = RuleSet(
    "soot-sootup-default",
    [
        RenameRule(SCOPE_ALL, ROLE_ORIGINAL, r"(Unit|Use|Value|Def)Box(?:e(?=s))?", r"\1", 1),
        RenameRule(SCOPE_ALL, ROLE_ORIGINAL, r"Unit", "Stmt", 2),
        RenameRule(SCOPE_ALL, ROLE_ORIGINAL, r"BodyTransformer", "BodyInterceptor", 3),
        RenameRule(SCOPE_ALL, ROLE_REDESIGNED, r"BasicBlock", "Block", 4),
        RenameRule(SCOPE_METHOD_NAME, ROLE_ORIGINAL, r"\bset([A-Z]\w*)", r"with\1", 5),
    ],
)

FINDBUGS_SPOTBUGS_RULES = RuleSet(
    "findbugs-spotbugs-default",
    [
        RenameRule(SCOPE_ALL, ROLE_REDESIGNED, r"\bConst\b", "Constants", 1),
        RenameRule(SCOPE_ALL, ROLE_REDESIGNED, r"spotbugsTestCases", "findbugsTestCases", 2),
    ],
)

BUNDLED_RULESETS = {
    "none": EMPTY_RULESET,
    "soot-sootup": SOOT_SOOTUP_RULES,
    "findbugs-spotbugs": FINDBUGS_SPOTBUGS_RULES,
}


_INLINE_TAG = re.compile(r"\{@\w+\s*([^{}]*)\}")
_HTML_TAG = re.compile(r"</?[A-Za-z][^<>]*>")
_HTML_ENTITY = re.compile(r"&#?\w+;")
_URL = re.compile(r"(?:https?://|www\.)\S+")
# one group per contraction: the group that matched picks the expansion, as
# a case-folded match (say "doeſn't") need not lowercase to a key
_CONTRACTION = re.compile("|".join(f"({re.escape(short)})" for short in DEFAULT_CONTRACTIONS), re.IGNORECASE)
_EXPANSIONS = tuple(DEFAULT_CONTRACTIONS.values())


def normalize_doc(text: str) -> str:
    """Reduce a docstring/comment to comparable description text.

    Inline doc tags keep their payload ({@link Path} -> Path), HTML markup,
    URLs and TODO lines are dropped, and contractions are expanded.
    """
    if not text:
        return ""
    # inline tags may nest one level ({@code {@link X}}), so iterate
    prev = None
    while prev != text:
        prev = text
        text = _INLINE_TAG.sub(r"\1", text)
    text = _HTML_TAG.sub(" ", text)
    text = _HTML_ENTITY.sub(" ", text)
    lines = [ln for ln in text.split("\n") if not ln.strip().lower().startswith("todo")]
    text = "\n".join(lines)
    text = _URL.sub(" ", text)
    return _CONTRACTION.sub(lambda m: _EXPANSIONS[m.lastindex - 1], text)


_WORD_SEGMENT = re.compile(r"[A-Z]+[0-9]*(?![a-z])|[A-Za-z][a-z0-9]*|[0-9]+")


def tokenize(text: str) -> list[str]:
    """Punctuation to whitespace, camel-case split, lowercase.

    Acronym runs split before a following word ("XMLParser" -> xml, parser);
    digits stay attached to their segment ("utf8" stays one token).
    """
    return [seg.lower() for seg in _WORD_SEGMENT.findall(text)]


@dataclass(frozen=True)
class NormalizedDetails:
    """Token sequences for every method detail used by the score."""

    class_name: tuple[str, ...]
    class_doc: tuple[str, ...]
    method_name: tuple[str, ...]
    return_type: tuple[str, ...]
    params: tuple[str, ...]
    local_vars: tuple[str, ...]
    method_doc: tuple[str, ...]
    comments: tuple[str, ...]


def normalize_field(text: str, field: str, project: str, rules: RuleSet) -> list[str]:
    """One detail's tokens: ``rules`` for ``field``, doc cleanup, ``tokenize``."""
    text = rules.apply(text, field, project)
    if field in DOC_FIELDS:
        text = normalize_doc(text)
    return tokenize(text)


def normalize_record(
    record: MethodRecord,
    cls: ClassRecord,
    rules: RuleSet,
    record_project: str,
) -> NormalizedDetails:
    """Rules -> doc cleanup -> tokenization for every detail of one method.

    Params and local variables are flattened type-then-name in declaration
    order; inline comments are concatenated in source order.
    """

    def tokens(field: str, *texts: str) -> tuple[str, ...]:
        out: list[str] = []
        for text in texts:
            out += normalize_field(text, field, record_project, rules)
        return tuple(out)

    return NormalizedDetails(
        class_name=tokens(FIELD_CLASS_NAME, cls.qualified_name),
        class_doc=tokens(FIELD_CLASS_DOC, cls.class_doc),
        method_name=tokens(FIELD_METHOD_NAME, record.method_name),
        return_type=tokens(FIELD_RETURN_TYPE, record.return_type),
        params=tokens(FIELD_PARAM, *chain.from_iterable(record.params)),
        local_vars=tokens(FIELD_LOCAL_VAR, *chain.from_iterable(record.local_vars)),
        method_doc=tokens(FIELD_METHOD_DOC, record.method_doc),
        comments=tokens(FIELD_COMMENT, *record.inline_comments),
    )
