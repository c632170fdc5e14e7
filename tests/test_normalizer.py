"""Renaming rules, doc normalization, and tokenization."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remap import normalizer
from remap.normalizer import (
    DEFAULT_CONTRACTIONS,
    FIELD_CLASS_NAME,
    FIELD_METHOD_NAME,
    FINDBUGS_SPOTBUGS_RULES,
    SCOPE_ALL,
    SCOPE_METHOD_NAME,
    SOOT_SOOTUP_RULES,
    RenameRule,
    RuleSet,
    normalize_doc,
    normalize_record,
    tokenize,
)
from remap.records import ClassRecord, MethodRecord, SourceSpan


def any_detail(text, project, rules):
    return rules.apply(text, FIELD_CLASS_NAME, project)


def method_name(text, project, rules):
    return rules.apply(text, FIELD_METHOD_NAME, project)


# -- bundled rule behavior ---------------------------------------------------


def test_setter_becomes_wither():
    assert method_name("setName", "original", SOOT_SOOTUP_RULES) == "withName"
    assert method_name("setPhaseName", "original", SOOT_SOOTUP_RULES) == "withPhaseName"


def test_setter_rule_is_method_name_scoped():
    # the same text in any other detail is untouched
    assert any_detail("setName", "original", SOOT_SOOTUP_RULES) == "setName"


def test_box_compound_rewrites():
    assert any_detail("UnitBoxes", "original", SOOT_SOOTUP_RULES).endswith("s")
    # the Box rule runs before the Unit rule, so UnitBox is never StmtBox
    assert "StmtBox" not in any_detail("UnitBox", "original", SOOT_SOOTUP_RULES)
    assert any_detail("UseBox", "original", SOOT_SOOTUP_RULES) == "Use"
    assert any_detail("ValueBoxes", "original", SOOT_SOOTUP_RULES) == "Values"
    assert any_detail("DefBox", "original", SOOT_SOOTUP_RULES) == "Def"


def test_box_rule_alone_matches_documented_examples():
    box_rule = RuleSet("box", [SOOT_SOOTUP_RULES.rules[0]])
    assert any_detail("UnitBox", "original", box_rule) == "Unit"
    assert any_detail("UnitBoxes", "original", box_rule) == "Units"


def test_unit_to_stmt():
    assert any_detail("Unit", "original", SOOT_SOOTUP_RULES) == "Stmt"
    assert any_detail("Units", "original", SOOT_SOOTUP_RULES) == "Stmts"
    assert any_detail("getUnit", "original", SOOT_SOOTUP_RULES) == "getStmt"


def test_body_transformer_to_interceptor():
    assert any_detail("BodyTransformer", "original", SOOT_SOOTUP_RULES) == "BodyInterceptor"


def test_basic_block_on_redesigned_side_only():
    assert any_detail("BasicBlock", "redesigned", SOOT_SOOTUP_RULES) == "Block"
    assert any_detail("BasicBlock", "original", SOOT_SOOTUP_RULES) == "BasicBlock"


def test_findbugs_rules():
    assert any_detail("Const.GOTO", "redesigned", FINDBUGS_SPOTBUGS_RULES) == "Constants.GOTO"
    assert any_detail("Const", "redesigned", FINDBUGS_SPOTBUGS_RULES) == "Constants"
    # word boundary: Constable must not be rewritten
    assert any_detail("Constable", "redesigned", FINDBUGS_SPOTBUGS_RULES) == "Constable"
    assert (
        any_detail("spotbugsTestCases", "redesigned", FINDBUGS_SPOTBUGS_RULES)
        == "findbugsTestCases"
    )
    # FindBugs side is untouched
    assert any_detail("Const", "original", FINDBUGS_SPOTBUGS_RULES) == "Const"


IDENT_CORPUS = st.text(
    alphabet="abcdefgUSVDBoxnitSmt" + "ABCDEF", min_size=0, max_size=24
)


@given(IDENT_CORPUS)
@settings(max_examples=300)
def test_soot_rules_idempotent(text):
    once = any_detail(text, "original", SOOT_SOOTUP_RULES)
    assert any_detail(once, "original", SOOT_SOOTUP_RULES) == once
    m_once = method_name(text, "original", SOOT_SOOTUP_RULES)
    assert method_name(m_once, "original", SOOT_SOOTUP_RULES) == m_once


@given(st.text(alphabet="ConstspobugTeCas ", min_size=0, max_size=24))
@settings(max_examples=200)
def test_findbugs_rules_idempotent(text):
    once = any_detail(text, "redesigned", FINDBUGS_SPOTBUGS_RULES)
    assert any_detail(once, "redesigned", FINDBUGS_SPOTBUGS_RULES) == once


def test_rule_order_is_total():
    rs = RuleSet(
        "ordered",
        [
            RenameRule("all_details", "original", "b", "c", 2),
            RenameRule("all_details", "original", "a", "b", 1),
        ],
    )
    # order 1 runs first: a->b, then b->c maps the result again
    assert rs.apply("a", FIELD_CLASS_NAME, "original") == "c"


def reference_apply(rules: list[RenameRule], text: str, field: str, project: str) -> str:
    """The scope rule, rule by rule: in order, each rule that targets the
    record's project and whose scope is all_details or whose field is the
    method name rewrites the text once."""
    for rule in sorted(rules, key=lambda r: r.order):
        if rule.target_project == project and (rule.scope == SCOPE_ALL or field == FIELD_METHOD_NAME):
            text = re.sub(rule.pattern, rule.replacement, text)
    return text


BUNDLED_RULES = SOOT_SOOTUP_RULES.rules + FINDBUGS_SPOTBUGS_RULES.rules
FIELDS = [v for k, v in vars(normalizer).items() if k.startswith("FIELD_")]
# the words the bundled rules rewrite, whole and in parts, the words they
# write, and the separators their patterns look at
RULE_WORDS = ["UnitBox", "UnitBoxes", "ValueBoxes", "DefBox", "Unit", "Box", "es", "Use", "BodyTransformer",
              "Body", "BasicBlock", "Block", "setUnit", "setName", "set", "with", "Stmt", "Const",
              "Constants", "spotbugsTestCases", "findbugs", "x", " ", "_", "."]


@st.composite
def rule_lists(draw):
    """Every bundled pattern once, each with a drawn scope, target and order,
    listed in an order of its own."""
    orders = draw(st.permutations(range(len(BUNDLED_RULES))))
    rules = [
        RenameRule(draw(st.sampled_from([SCOPE_ALL, SCOPE_METHOD_NAME])),
                   draw(st.sampled_from(["original", "redesigned"])), r.pattern, r.replacement, order)
        for r, order in zip(BUNDLED_RULES, orders)
    ]
    return draw(st.permutations(rules))


@given(
    rules=st.one_of(st.sampled_from([[], SOOT_SOOTUP_RULES.rules, FINDBUGS_SPOTBUGS_RULES.rules]), rule_lists()),
    text=st.lists(st.sampled_from(RULE_WORDS), max_size=10).map("".join),
    field=st.sampled_from(FIELDS),
    project=st.sampled_from(["original", "redesigned"]),
)
@example(rules=SOOT_SOOTUP_RULES.rules, text="setName", field=FIELD_CLASS_NAME, project="original")
@example(rules=SOOT_SOOTUP_RULES.rules[::-1], text="UnitBox", field=FIELD_CLASS_NAME, project="original")
@settings(max_examples=400)
def test_ruleset_apply_equals_the_rule_by_rule_scope_test(rules, text, field, project):
    assert RuleSet("drawn", rules).apply(text, field, project) == reference_apply(rules, text, field, project)


def test_bad_rule_rejected():
    with pytest.raises(ValueError):
        RenameRule("all_details", "original", "(unclosed", "x", 1)
    with pytest.raises(ValueError):
        RenameRule("everything", "original", "a", "x", 1)


def test_ruleset_roundtrip(tmp_path):
    path = tmp_path / "rules.json"
    SOOT_SOOTUP_RULES.save(path)
    loaded = RuleSet.load(path)
    assert loaded.to_dict() == SOOT_SOOTUP_RULES.to_dict()
    assert loaded.name == SOOT_SOOTUP_RULES.name


def test_rules_file_with_a_byte_order_mark_loads(tmp_path):
    # some editors save hand-edited JSON with a UTF-8 BOM
    path = tmp_path / "rules.json"
    SOOT_SOOTUP_RULES.save(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert RuleSet.load(path).to_dict() == SOOT_SOOTUP_RULES.to_dict()


# -- doc normalization --------------------------------------------------------


def test_inline_tag_payload_kept():
    assert normalize_doc("{@link Path} resolves").strip() == "Path resolves"
    assert normalize_doc("{@code foo} bar").strip() == "foo bar"


def test_contractions_expanded():
    assert "does not" in normalize_doc("doesn't")
    assert "doesn" not in normalize_doc("doesn't")
    assert "will not" in normalize_doc("it won't work")
    assert normalize_doc("DOESN'T doeſn't ısn't") == "does not does not is not"


def reference_expand(text: str) -> str:
    """Contraction expansion as ``normalize_doc`` did it before one compiled
    pattern: a case-insensitive substitution per contraction, in order."""
    for short, full in DEFAULT_CONTRACTIONS.items():
        text = re.sub(re.escape(short), full, text, flags=re.IGNORECASE)
    return text


# letters that fold onto contraction letters under IGNORECASE (long s,
# dotless i) or lowercase to two characters (dotted I)
_FOLDS = {"s": "sSſ", "i": "iIıİ"}
_contraction = st.sampled_from(list(DEFAULT_CONTRACTIONS)).flatmap(
    lambda short: st.tuples(*(st.sampled_from(_FOLDS.get(c, c + c.upper())) for c in short)).map("".join))
# no markup, URL or newline, and every text starts "x ", so contraction
# expansion is the only step of normalize_doc that can change it
_doc_text = st.lists(
    _contraction | st.text(alphabet="doesntcawirhulDOESNTCAWIRHUL' ſıİ\u0307", max_size=8), max_size=8
).map(lambda parts: "x " + "".join(parts))


@given(text=_doc_text)
@settings(max_examples=500)
def test_contraction_expansion_equals_one_substitution_per_contraction(text):
    assert normalize_doc(text) == reference_expand(text)


def test_urls_removed():
    out = tokenize(normalize_doc("see https://example.org for detail"))
    assert out == ["see", "for", "detail"]


def test_todo_lines_removed():
    doc = "first line\nTODO: port this later\nlast line"
    out = normalize_doc(doc)
    assert "TODO" not in out and "port" not in out
    assert "first line" in out and "last line" in out


def test_html_stripped():
    out = normalize_doc("prints <code>'\\unnnn'</code> &amp; more")
    assert "<code>" not in out and "&amp;" not in out
    assert "'\\unnnn'" in out


# -- tokenization -------------------------------------------------------------


def test_tokenize_examples():
    assert tokenize("getEscapedStringOf") == ["get", "escaped", "string", "of"]
    assert tokenize("List<SootClass>") == ["list", "soot", "class"]
    assert tokenize("") == []
    assert tokenize("XMLParser") == ["xml", "parser"]
    assert tokenize("URLDecoder") == ["url", "decoder"]
    assert tokenize("snake_case_name") == ["snake", "case", "name"]
    assert tokenize("utf8Decoder") == ["utf8", "decoder"]


@given(st.text(max_size=60))
@settings(max_examples=300)
def test_tokenize_lowercase_no_punct(text):
    for tok in tokenize(text):
        assert tok
        assert tok == tok.lower()
        assert tok.isalnum()


def test_normalize_record_is_pure_and_flattens():
    rec = MethodRecord(
        class_name="soot.Body",
        method_name="setName",
        return_type="void",
        params=(("Body", "b"), ("String", "phaseName")),
        local_vars=(("int", "count"),),
        method_doc="",
        inline_comments=("remove the dead statements",),
        span=SourceSpan("soot/Body.java", 1, 5),
        body_text="x\nx\nx\nx\nx",
        is_test=False,
    )
    cls = ClassRecord("soot.Body", "")
    d1 = normalize_record(rec, cls, SOOT_SOOTUP_RULES, "original")
    d2 = normalize_record(rec, cls, SOOT_SOOTUP_RULES, "original")
    assert d1 == d2
    assert d1.method_name == ("with", "name")
    assert d1.params == ("body", "b", "string", "phase", "name")
    assert d1.method_doc == ()
    assert d1.comments == ("remove", "the", "dead", "statements")
