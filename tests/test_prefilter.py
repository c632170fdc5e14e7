"""Class-level pre-filtering and pair generation."""

import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remap.extractor import extract
from remap import prefilter
from remap.normalizer import (
    BUNDLED_RULESETS, EMPTY_RULESET, FIELD_CLASS_NAME, SOOT_SOOTUP_RULES, normalize_record, tokenize,
)
from remap.prefilter import (
    BagOfTokensEmbedder,
    ClassPair,
    PrefilterConfig,
    exhaustive_pairs,
    filter_classes,
    generate_pairs,
)
from remap.records import ClassRecord, MethodRecord, ProjectSnapshot, SourceSpan
from remap.simcore import masked, masked_sim

FIXTURE = Path(__file__).parent / "fixtures" / "toy"


def method(cls, name, loc, body="", file="F.java", start=1, is_test=False):
    start = max(start, 1)
    return MethodRecord(
        class_name=cls,
        method_name=name,
        return_type="void",
        params=(),
        local_vars=(),
        method_doc="",
        inline_comments=(),
        span=SourceSpan(file, start, start + loc - 1),
        body_text=body or "\n".join(["line"] * loc),
        is_test=is_test,
    )


def snapshot(role, classes, records, name="snap"):
    return ProjectSnapshot(
        name=name,
        role=role,
        root_path="/x",
        records=records,
        classes=[ClassRecord(c, "") for c in classes],
    )


def test_identical_names_retained():
    left = snapshot("original", ["p.Same"], [])
    right = snapshot("redesigned", ["p.Same"], [])
    pairs = filter_classes(left, right, EMPTY_RULESET)
    assert len(pairs) == 1
    assert pairs[0].name_sim == 1.0


def test_rule_normalized_similarity():
    # soot.Unit -> soot.Stmt under the Unit rule: [soot, stmt] vs [soot, up, stmt]
    left = snapshot("original", ["soot.Unit"], [])
    right = snapshot("redesigned", ["SootUp.Stmt"], [])
    pairs = filter_classes(left, right, SOOT_SOOTUP_RULES)
    assert len(pairs) == 1
    assert pairs[0].name_sim == pytest.approx(0.8)


def test_disjoint_names_discarded():
    left = snapshot("original", ["alpha.One"], [])
    right = snapshot("redesigned", ["beta.Two"], [])
    assert filter_classes(left, right, EMPTY_RULESET) == []


def test_raising_threshold_never_adds_pairs():
    left = snapshot("original", ["p.Alpha", "p.Beta", "p.AlphaBeta"], [])
    right = snapshot("redesigned", ["p.Alpha", "p.Gamma", "p.BetaGamma"], [])
    kept = {}
    for t in (0.0, 0.3, 0.5, 0.8, 1.0):
        cfg = PrefilterConfig(class_sim_threshold=t)
        kept[t] = {(c.left, c.right) for c in filter_classes(left, right, EMPTY_RULESET, cfg)}
    thresholds = sorted(kept)
    for lo, hi in zip(thresholds, thresholds[1:]):
        assert kept[hi] <= kept[lo]


def _full_scan(left, right, rules, t):
    """Reference: an LCS for every left x right class-name pair."""

    def names(snapshot):
        return [
            (name, masked(tuple(tokenize(rules.apply(name, FIELD_CLASS_NAME, snapshot.role)))))
            for name in sorted(snapshot.class_index)
        ]

    right_names = names(right)
    retained = []
    for lname, lm in names(left):
        for rname, rm in right_names:
            sim = masked_sim(lm, rm)
            if sim is not None and sim >= t:
                retained.append(ClassPair(lname, rname, sim))
    return retained


# few segments, so that names share and repeat tokens; "Unit" and "Box" meet
# the renaming rules, and "_" alone tokenizes to nothing
_WORD = st.lists(st.sampled_from(["Soot", "Up", "Unit", "Stmt", "Box", "A", "_"]), min_size=1, max_size=3)
_CLASS_NAMES = st.lists(
    st.lists(_WORD.map("".join), min_size=1, max_size=4).map(".".join), max_size=8, unique=True
)
# every similarity is 2k/(n+m) for some k <= (n+m)/2
_EXACT_SIMS = st.integers(1, 16).flatmap(lambda s: st.integers(0, s // 2).map(lambda k: 2 * k / s))


@given(
    left_names=_CLASS_NAMES,
    right_names=_CLASS_NAMES,
    rules=st.sampled_from([EMPTY_RULESET, SOOT_SOOTUP_RULES]),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), _EXACT_SIMS),
)
@settings(max_examples=300, deadline=None)
def test_filter_classes_matches_full_scan(left_names, right_names, rules, t):
    left = snapshot("original", left_names, [])
    right = snapshot("redesigned", right_names, [])
    counters = {}
    got = filter_classes(left, right, rules, PrefilterConfig(class_sim_threshold=t), counters)
    assert got == _full_scan(left, right, rules, t)
    assert len(got) <= counters["class_pairs_scored"] <= len(left_names) * len(right_names)


@pytest.mark.parametrize("rules", sorted(BUNDLED_RULESETS))
def test_filter_classes_sees_the_class_name_tokens_that_scoring_sees(monkeypatch, rules):
    rules = BUNDLED_RULESETS[rules]
    compared = []  # the token sequences filter_classes masks, left classes then right, each in name order
    monkeypatch.setattr(prefilter, "masked", lambda seq: compared.append(seq) or masked(seq))
    left, right = extract(FIXTURE / "left", role="original"), extract(FIXTURE / "right", role="redesigned")
    filter_classes(left, right, rules)
    # a class's name tokens do not depend on the method, so any stands in for the class's own
    expected = [normalize_record(method(name, "m", 1), snap.class_index[name], rules, snap.role).class_name
                for snap in (left, right) for name in sorted(snap.class_index)]
    assert compared == expected and len(expected) == len(left.class_index) + len(right.class_index)


def test_filter_classes_keeps_pairs_at_a_float_edge():
    # 0.56 * 25 == 14.000000000000002 in floats, yet 2*7/25 == 0.56 exactly:
    # a bound taken as ceil(t*(n+m)/2) asks for 8 shared tokens, not 7
    shared = "a.b.c.d.e.f.g"
    left = snapshot("original", ["v.w.x.y.z." + shared, shared], [])
    right = snapshot("redesigned", [shared + ".h.i.j.k.l.m", shared + ".h.i.j.k.l.m.n.o.p.q.r"], [])
    got = filter_classes(left, right, EMPTY_RULESET, PrefilterConfig(class_sim_threshold=0.56))
    assert [(c.left, c.right, c.name_sim) for c in got] == [
        (shared, shared + ".h.i.j.k.l.m", 0.7),
        (shared, shared + ".h.i.j.k.l.m.n.o.p.q.r", 0.56),  # 7 + 18 tokens
        ("v.w.x.y.z." + shared, shared + ".h.i.j.k.l.m", 0.56),  # 12 + 13 tokens
    ]


def test_line_ratio_cutoff_is_inclusive():
    left = snapshot("original", ["p.A"], [method("p.A", "f", 10, body="a b c")])
    right_discard = snapshot("redesigned", ["p.A"], [method("p.A", "g", 20, body="a b c")])
    right_keep = snapshot("redesigned", ["p.A"], [method("p.A", "g", 19, body="a b c")])
    classes = [c for c in filter_classes(left, right_keep, EMPTY_RULESET)]
    assert generate_pairs(classes, left, right_discard) == []  # ratio exactly 2.0
    assert len(generate_pairs(classes, left, right_keep)) == 1


def test_embedding_threshold_discards():
    left = snapshot("original", ["p.A"], [method("p.A", "f", 10, body="alpha beta gamma delta")])
    right = snapshot("redesigned", ["p.A"], [method("p.A", "g", 10, body="epsilon zeta eta theta")])
    classes = filter_classes(left, right, EMPTY_RULESET)
    assert generate_pairs(classes, left, right) == []  # cosine 0 < 0.5


def test_identical_bodies_retained():
    body = "int x = compute();\nreturn x;"
    left = snapshot("original", ["p.A"], [method("p.A", "f", 10, body=body)])
    right = snapshot("redesigned", ["p.A"], [method("p.A", "g", 10, body=body)])
    classes = filter_classes(left, right, EMPTY_RULESET)
    pairs = generate_pairs(classes, left, right)
    assert len(pairs) == 1
    assert pairs[0].provenance == "prefilter"


def test_embedder_properties():
    e = BagOfTokensEmbedder()
    a = method("p.A", "f", 5, body="foo bar baz qux quux")
    b = method("p.B", "g", 5, body="baz qux quux corge grault", file="G.java")
    assert e.similarity(a, a) == pytest.approx(1.0)
    assert e.similarity(a, b) == pytest.approx(e.similarity(b, a))
    assert 0.0 <= e.similarity(a, b) <= 1.0


def test_embedder_equals_uncached_cosine():
    def cosine(x, y):
        a, b = Counter(tokenize(x.body_text)), Counter(tokenize(y.body_text))
        if not a or not b:
            return 1.0 if not a and not b else 0.0
        dot = sum(cnt * b[tok] for tok, cnt in a.items())
        return dot / (math.sqrt(sum(c * c for c in a.values())) * math.sqrt(sum(c * c for c in b.values())))

    e = BagOfTokensEmbedder()
    recs = extract(FIXTURE / "left", role="original").records + \
        extract(FIXTURE / "right", role="redesigned").records
    recs.append(method("p.Empty", "f", 1, body="{}"))  # tokenizes to nothing
    for a in recs:
        for b in recs:
            assert e.similarity(a, b) == cosine(a, b)  # bit-identical, not approx


_CLASSES = ["p.A", "p.B", "p.C"]


@st.composite
def _snapshots(draw, role):
    """Records of three classes spread over two files, in no file order."""
    drawn = draw(st.lists(st.tuples(
        st.sampled_from(_CLASSES), st.sampled_from(["G.java", "F.java"]), st.integers(1, 12),
        st.sampled_from(["a b c", "a b d", "x y z", "{}"]),
    ), max_size=10))
    records = [method(cls, f"m{i}", loc, body=body, file=file, start=1 + 20 * i)
               for i, (cls, file, loc, body) in enumerate(drawn)]
    return snapshot(role, _CLASSES, records)


@given(
    left=_snapshots("original"),
    right=_snapshots("redesigned"),
    class_pairs=st.lists(st.tuples(st.sampled_from(_CLASSES), st.sampled_from(_CLASSES)), unique=True),
)
@settings(max_examples=200, deadline=None)
def test_generate_pairs_pairs_the_records_of_each_class_pair(left, right, class_pairs):
    for snap in (left, right):
        for cls in [*_CLASSES, "p.Missing"]:
            assert snap.in_class(cls) == [r for r in snap.records if r.class_name == cls]
    cfg, embedder = PrefilterConfig(), BagOfTokensEmbedder()
    classes = [ClassPair(lcls, rcls, 1.0) for lcls, rcls in class_pairs]
    scan = sorted(
        (lrec.id, rrec.id)
        for cp in classes for lrec in left.records for rrec in right.records
        if (lrec.class_name, rrec.class_name) == (cp.left, cp.right)
        and max(lrec.loc, rrec.loc) / min(lrec.loc, rrec.loc) < cfg.line_ratio_cutoff
        and embedder.similarity(lrec, rrec) >= cfg.embed_threshold
    )
    got = generate_pairs(classes, left, right, cfg)
    assert [p.key for p in got] == scan
    assert {p.provenance for p in got} <= {"prefilter"}


def test_exhaustive_cross_product_and_min_loc():
    lrecs = [method("p.A", f"f{i}", 6, start=1 + 10 * i) for i in range(3)]
    # file order (g3 first) differs from id order (g0 first)
    rrecs = [method("p.B", f"g{3 - i}", 6, start=1 + 10 * i) for i in range(4)]
    left = snapshot("original", ["p.A"], lrecs)
    right = snapshot("redesigned", ["p.B"], rrecs)
    keys = [(p.left, p.right) for p in exhaustive_pairs(left, right, min_loc=5)]
    assert len(keys) == 12 and keys == sorted(keys)
    short = snapshot("redesigned", ["p.B"], rrecs + [method("p.B", "tiny", 4, start=100)])
    assert len(exhaustive_pairs(left, short, min_loc=5)) == 12  # 4-LOC method excluded
    empty = snapshot("redesigned", ["p.B"], [])
    assert exhaustive_pairs(left, empty, min_loc=5) == []


def test_prefilter_subset_of_exhaustive(tmp_path):
    for side, pkg in (("left", "alpha"), ("right", "alpha")):
        d = tmp_path / side / "src" / "main"
        d.mkdir(parents=True)
        (d / "Tool.java").write_text(
            f"package {pkg};\n"
            "public class Tool {\n"
            "    public int run(int x) {\n"
            "        int acc = x;\n"
            "        acc += 1;\n"
            "        return acc;\n"
            "    }\n"
            "    public int other(int x) {\n"
            "        int y = x * 2;\n"
            "        y -= 1;\n"
            "        return y;\n"
            "    }\n"
            "}\n"
        )
    left = extract(tmp_path / "left", role="original")
    right = extract(tmp_path / "right", role="redesigned")
    classes = filter_classes(left, right, EMPTY_RULESET)
    pre = {(p.left, p.right) for p in generate_pairs(classes, left, right)}
    exh = {(p.left, p.right) for p in exhaustive_pairs(left, right, min_loc=1)}
    assert pre <= exh
    assert pre  # sanity: identical trees produce at least the diagonal
