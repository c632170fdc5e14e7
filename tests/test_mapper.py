"""Scoring, threshold filtering, ranking, and report accounting."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remap import ABLATION_MODES, cli, mapper
from remap.extractor import extract
from remap.ingest import load_pairs
from remap.mapper import (
    MappingResult,
    ScoreColumn,
    UnresolvedPairError,
    default_threshold,
    load_results,
    pack_fields,
    ranked,
    report,
    score_columns,
    summarize,
)
from remap.normalizer import BUNDLED_RULESETS, EMPTY_RULESET, SOOT_SOOTUP_RULES, normalize_record
from remap.prefilter import CandidatePair, exhaustive_pairs, save_pairs
from remap.records import ClassRecord, MethodRecord, ProjectSnapshot, SourceSpan, save_snapshot
from remap.simcore import (
    EPS, FIELDS, SASBreakdown, WeightConfig, aggregate, class_sims, components, measure, prepare,
)
from test_simcore import dp_lcs

FIXTURE = Path(__file__).parent / "fixtures" / "toy"

LEFT = """\
package soot;
/** Builds escape sequences. */
public class StringTools {
    /** Escapes the given text. */
    public String escape(String text) {
        // walk every char
        StringBuilder out = new StringBuilder();
        int n = text.length();
        out.append(n);
        return out.toString();
    }
    public int unrelatedThing(long ticks) {
        long acc = ticks * 31;
        acc -= 7;
        acc ^= 3;
        return (int) acc;
    }
}
"""

RIGHT = """\
package sootup;
/** Builds escape sequences. */
public class StringTools {
    /** Escapes the given text. */
    public String escape(String text) {
        // walk every char
        StringBuilder out = new StringBuilder();
        int n = text.length();
        out.append(n);
        return out.toString();
    }
    public double windowAverage(double[] values) {
        double total = 0;
        for (double v : values) {
            total += v;
        }
        return total / values.length;
    }
}
"""


@pytest.fixture
def world(tmp_path):
    for side, src in (("left", LEFT), ("right", RIGHT)):
        d = tmp_path / side / "src" / "main"
        d.mkdir(parents=True)
        (d / "StringTools.java").write_text(src)
    left = extract(tmp_path / "left", role="original")
    right = extract(tmp_path / "right", role="redesigned")
    return left, right


def all_pairs(left, right):
    return [
        CandidatePair(l.id, r.id, "test")
        for l in left.records
        for r in right.records
    ]


def score_rows(pairs, left, right, rules=EMPTY_RULESET, weights=WeightConfig(), mode="ALL", threshold=0.5):
    """Every pair's result as ``score --format jsonl`` writes it, in order."""
    [column] = score_columns(pairs, left, right, rules, weights, [mode])
    return list(ranked(pairs, column, threshold))


def test_identical_methods_score_one_and_rank_first(world):
    left, right = world
    results = score_rows(all_pairs(left, right), left, right, rules=SOOT_SOOTUP_RULES, threshold=0.5)
    by_pair = {
        (r.left.split("#")[1].split(":")[0], r.right.split("#")[1].split(":")[0]): r
        for r in results
    }
    twin = by_pair[("escape(String)", "escape(String)")]
    assert twin.sas == pytest.approx(1.0)
    assert twin.kept and twin.rank == 1


def test_threshold_boundary_is_inclusive(world):
    left, right = world
    pairs = all_pairs(left, right)
    scored = score_rows(pairs, left, right, threshold=0.0)
    distinct = sorted({r.sas for r in scored})
    assert len(distinct) >= 2
    t = distinct[-2]  # a score that separates the top pair from the rest
    at = score_rows(pairs, left, right, threshold=t)
    above = score_rows(pairs, left, right, threshold=distinct[-1])
    kept_at = {r.key for r in at if r.kept}
    kept_above = {r.key for r in above if r.kept}
    # threshold comparison is >=: pairs sitting exactly at t stay kept
    assert any(abs(r.sas - t) < 1e-12 and r.kept for r in at)
    assert kept_above < kept_at
    [column] = score_columns(pairs, left, right, EMPTY_RULESET, WeightConfig(), ["ALL"])
    assert summarize(column.scores, t)["filt"] == len(kept_at)


def test_filtering_antitone_in_threshold(world):
    left, right = world
    pairs = all_pairs(left, right)
    [column] = score_columns(pairs, left, right, EMPTY_RULESET, WeightConfig(), ["ALL"])
    previous = None
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        kept = {r.key for r in ranked(pairs, column, t) if r.kept}
        assert summarize(column.scores, t)["filt"] == len(kept)
        if previous is not None:
            assert kept <= previous
        previous = kept


def test_ranks_are_dense_and_ordered(world):
    left, right = world
    results = score_rows(all_pairs(left, right), left, right, threshold=0.0)
    kept = [r for r in results if r.kept]
    assert [r.rank for r in kept] == list(range(1, len(kept) + 1))
    for a, b in zip(kept, kept[1:]):
        assert a.sas >= b.sas


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_score_pairs_equals_components_per_pair(mode):
    # the toy fixture's exhaustive pairs share class pairs, so the class
    # similarity memo is reused; each breakdown must still be the one
    # components() gives for that pair alone
    left = extract(FIXTURE / "left", role="original")
    right = extract(FIXTURE / "right", role="redesigned")
    pairs = exhaustive_pairs(left, right)
    results = score_rows(pairs, left, right, rules=SOOT_SOOTUP_RULES, mode=mode, threshold=0.6)
    assert len(results) == len(pairs) == 756
    rules = EMPTY_RULESET if mode == "EXR1" else SOOT_SOOTUP_RULES
    for r in results:
        lrec, rrec = left.get(r.left), right.get(r.right)
        d1 = normalize_record(lrec, left.class_of(lrec), rules, "original")
        d2 = normalize_record(rrec, right.class_of(rrec), rules, "redesigned")
        assert r.breakdown == components(d1, d2, WeightConfig(), mode), r.key


def test_unresolvable_id_is_hard_error(world):
    left, right = world
    bogus = [CandidatePair("soot.Nope#f():1-2", right.records[0].id, "test")]
    with pytest.raises(UnresolvedPairError):
        next(score_columns(bogus, left, right, EMPTY_RULESET, WeightConfig(), ["ALL"]))


def test_unknown_ablation_mode_is_rejected(world):
    left, right = world
    with pytest.raises(ValueError, match="EXR9"):
        next(score_columns(all_pairs(left, right), left, right, EMPTY_RULESET, WeightConfig(), ["EXR9"]))


def test_exr1_disables_renaming(world):
    left, right = world
    pairs = all_pairs(left, right)
    with_rules = score_rows(pairs, left, right, rules=SOOT_SOOTUP_RULES, threshold=0.0)
    exr1 = score_rows(pairs, left, right, rules=SOOT_SOOTUP_RULES, mode="EXR1", threshold=0.0)
    assert {r.key for r in with_rules} == {r.key for r in exr1}
    # the fixture has no renamable identifiers, so scores should match;
    # the setting is recorded either way
    assert all(r.breakdown.ablation == "EXR1" for r in exr1)


# a few distinct values per field, so that scores and pair keys repeat
_measured_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.sampled_from(["x", "y"]),
        st.sampled_from(["p", "q"]),
        st.tuples(*[st.sampled_from([None, 0.0, 0.5, 1.0])] * 8),
    ),
    max_size=12,
)


@given(rows=_measured_rows, mode=st.sampled_from(ABLATION_MODES), data=st.data())
def test_rank_keeps_at_threshold_and_orders_kept_rows_first(rows, mode, data):
    breakdowns = [aggregate(fields, WeightConfig(), mode) for *_, fields in rows]
    sas = [b.sas for b in breakdowns]
    thresholds = st.floats(0.0, 1.0)
    threshold = data.draw(st.one_of(st.sampled_from(sas), thresholds) if sas else thresholds)
    pairs = [CandidatePair(left, right, provenance) for left, right, provenance, _ in rows]
    # packed as score_columns packs them, so each None field goes through NaN and back
    column = ScoreColumn.of(mode, WeightConfig(), pack_fields(fields for *_, fields in rows))
    assert list(column.scores) == sas
    results = list(ranked(pairs, column, threshold))
    # by score descending, then pair key, then input order: a repeated key keeps its provenances' order
    order = sorted(range(len(rows)), key=lambda i: (-sas[i], pairs[i].left, pairs[i].right))
    assert [(r.left, r.right, r.provenance, r.breakdown) for r in results] == [
        (*pairs[i], breakdowns[i]) for i in order
    ]
    assert all(r.kept == (r.sas >= threshold) for r in results)
    kept = [r for r in results if r.kept]
    dropped = [r for r in results if not r.kept]
    assert results == kept + dropped
    assert [r.rank for r in kept] == list(range(1, len(kept) + 1))
    assert all(r.rank is None for r in dropped)
    assert summarize(column.scores, threshold)["filt"] == len(kept)


# -- the reference scorer ---------------------------------------------------------
#
# Every row computed directly from the records: the DP LCS oracle, then the
# formula of the ``simcore`` docstring written out once here, with no call
# to ``aggregate``. ``score``'s three formats and the kept sets of
# ``score_columns`` (the loop ``ablate`` and ``impact`` use) must equal it.

_WORDS = ["get", "set", "Unit", "Box", "Value", "Stmt", "x"]
_names = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map("".join)
_texts = st.lists(st.sampled_from([w.lower() for w in _WORDS]), max_size=3).map(" ".join)  # "" is absent
_typed = st.lists(st.tuples(st.sampled_from(["int", "Unit", "ValueBox"]), _names), max_size=2)


@st.composite
def snapshots(draw, role):
    """A snapshot of 2-5 methods in 1-3 classes, as records: methods share
    classes, classes may share a doc or have none, and parameter lists may
    be empty. The last method repeats the first under another span, so two
    ids measure alike against any method of the other side."""
    package = "p" if role == "original" else "q"
    docs = draw(st.lists(_texts, min_size=1, max_size=3))
    classes = [ClassRecord(f"{package}.{name}", doc) for name, doc in zip(["A", "UnitBox", "Value"], docs)]
    records = []
    for i in range(draw(st.integers(1, 4))):
        cls = draw(st.sampled_from(classes))
        records.append(MethodRecord(
            class_name=cls.qualified_name,
            method_name=draw(_names),
            return_type=draw(st.sampled_from(["void", "int", "Unit", "ValueBox"])),
            params=tuple(draw(_typed)),
            local_vars=tuple(draw(_typed)),
            method_doc=draw(_texts),
            inline_comments=tuple(draw(st.lists(_texts, max_size=2))),
            span=SourceSpan(cls.qualified_name.split(".")[-1] + ".java", 10 * i + 1, 10 * i + 5),
            body_text="",
            is_test=False,
        ))
    first = records[0]
    records.append(dataclasses.replace(first, span=dataclasses.replace(first.span, start_line=91, end_line=95)))
    return ProjectSnapshot(package, role, "/src", records, classes)


def _reference_sim(a, b):
    return None if not a and not b else 2.0 * dp_lcs(a, b) / (len(a) + len(b))


def _reference_rows(pairs, left, right, rules, w, mode):
    """Every pair's row under ``mode``, unranked, in pair order."""
    rules = EMPTY_RULESET if mode == "EXR1" else rules
    rows = []
    for pair in pairs:
        lrec, rrec = left.get(pair.left), right.get(pair.right)
        d1 = normalize_record(lrec, left.class_of(lrec), rules, left.role)
        d2 = normalize_record(rrec, right.class_of(rrec), rules, right.role)
        sims = dict(zip(FIELDS, map(_reference_sim, vars(d1).values(), vars(d2).values())))
        if mode == "EXR2":
            sims["local_var"] = 0.0
        elif mode == "EXR3":
            sims["class_doc"] = sims["method_doc"] = 0.0
        elif mode == "EXR4":
            sims["comment"] = 0.0
        zero_if_absent = {f: 0.0 if v is None else v for f, v in sims.items()}
        name, doc = zero_if_absent["class_name"], zero_if_absent["class_doc"]
        sim_class = name + (1.0 - name) * doc
        param = 1.0 if sims["param"] is None else sims["param"]  # two empty lists agree on arity
        header = 0.0 if mode == "EXR2" else (
            w.delta * zero_if_absent["method_name"] + w.eta * zero_if_absent["return_type"] + w.phi * param)
        present = [v for f, v in sims.items() if f in ("local_var", "method_doc", "comment") and v is not None]
        optional = math.fsum(present) / len(present) if present else 0.0
        rows.append({
            "left": pair.left, "right": pair.right, "provenance": pair.provenance,
            **{f"sim_{f}": v for f, v in sims.items()},
            "sim_class": sim_class, "sim_method_header": header, "sim_optional": optional,
            "sas": w.alpha * sim_class + w.beta * header + w.theta * optional, "ablation": mode,
        })
    return rows


def _reference_report(rows, threshold):
    """(jsonl, csv, summary) bytes of the rows ranked at ``threshold``."""
    ordered = sorted(rows, key=lambda r: (-r["sas"], r["left"], r["right"]))
    filt = sum(1 for r in rows if r["sas"] >= threshold)
    ranked_rows = [{**r, "kept": r["sas"] >= threshold, "rank": i if r["sas"] >= threshold else None}
                   for i, r in enumerate(ordered, 1)]
    jsonl = "".join(json.dumps(r, sort_keys=True) + "\n" for r in ranked_rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(ranked_rows)
    out_pct = round(100.0 * (len(rows) - filt) / len(rows), 2) if rows else 0.0
    summary = json.dumps({"orig": len(rows), "filt": filt, "out_pct": out_pct}, sort_keys=True) + "\n"
    return jsonl.encode(), buffer.getvalue().encode(), summary.encode()


@st.composite
def any_weights(draw):
    unit = st.floats(0.0, 1.0)
    a, b, d, e = (draw(unit) for _ in range(4))
    return WeightConfig(
        alpha=min(a, b), beta=max(a, b) - min(a, b), theta=1.0 - max(a, b),
        delta=min(d, e), eta=max(d, e) - min(d, e), phi=1.0 - max(d, e),
    )


@settings(max_examples=60, deadline=None)
@given(
    left=snapshots("original"),
    right=snapshots("redesigned"),
    rules=st.sampled_from([None, "soot-sootup"]),
    weights=st.one_of(st.just(WeightConfig()), any_weights()),
    mode=st.sampled_from(ABLATION_MODES),
    data=st.data(),
)
def test_score_and_ablate_equal_the_reference_scorer(left, right, rules, weights, mode, data):
    indices = st.tuples(st.integers(0, len(left) - 1), st.integers(0, len(right) - 1), st.sampled_from("ab"))
    drawn = [CandidatePair(left.records[i].id, right.records[j].id, provenance)
             for i, j, provenance in data.draw(st.lists(indices, max_size=8))]  # repeats, any order
    # the first and last left methods are twins: two keys that measure alike, so they tie at any threshold
    twins = [CandidatePair(left.records[i].id, right.records[0].id, "a") for i in (0, -1)]
    pairs = data.draw(st.just(drawn) | st.permutations(drawn + twins))
    ruleset = EMPTY_RULESET if rules is None else BUNDLED_RULESETS[rules]
    reference = {m: _reference_rows(pairs, left, right, ruleset, weights, m) for m in ABLATION_MODES}
    scores = [r["sas"] for r in reference[mode]]
    threshold = data.draw(st.sampled_from(scores) | st.floats(0.0, 1.0) if scores else st.floats(0.0, 1.0))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_snapshot(left, tmp / "left.jsonl")
        save_snapshot(right, tmp / "right.jsonl")
        save_pairs(pairs, tmp / "pairs.jsonl")
        weights.save(tmp / "weights.json")
        argv = ["score", "--pairs", tmp / "pairs.jsonl", "--left", tmp / "left.jsonl",
                "--right", tmp / "right.jsonl", "--weights", tmp / "weights.json",
                "--ablation", mode.lower(), "--threshold", repr(threshold)]
        argv += ["--rules", rules] if rules else []
        # caps of 1 and 2 clear the intern dict within these few pairs, so a repeat gets a second table row
        for cap in (mapper.INTERN_CAP, 1, 2):
            written = []
            with mock.patch.object(mapper, "INTERN_CAP", cap):
                for fmt in ("jsonl", "csv", "summary"):
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert cli.main([str(a) for a in [*argv, "--format", fmt, "--out", tmp / fmt]]) == 0
                    written.append((tmp / fmt).read_bytes())
                columns = list(score_columns(pairs, left, right, ruleset, weights, ABLATION_MODES))
            assert tuple(written) == _reference_report(reference[mode], threshold), cap
            for column in columns:
                expected = {(r["left"], r["right"]) for r in reference[column.mode] if r["sas"] >= threshold}
                assert {p.key for p, s in zip(pairs, column.scores) if s >= threshold} == expected, (column.mode, cap)


def _packed_groups(pairs):
    """Which groups ``measure_pairs`` measures from packs, as ``(right ids,
    packed)`` per group of consecutive pairs that share a left id: a group
    of at least ``RUN_MIN`` pairs whose right ids are the previous group's."""
    groups, last = [], None
    for _, group in itertools.groupby(pairs, lambda p: p.left):
        key = tuple(p.right for p in group)
        groups.append((key, len(key) >= mapper.RUN_MIN and key == last))
        last = key
    return groups


@settings(max_examples=80, deadline=None)
@given(
    left=snapshots("original"),
    right=snapshots("redesigned"),
    rules=st.sampled_from([None, "soot-sootup"]),
    run_cap=st.sampled_from([3, 4, 5, mapper.RUN_CAP]),
    data=st.data(),
)
def test_packed_runs_measure_every_pair_as_measure_does(left, right, rules, run_cap, data):
    """Groups of 1-10 pairs that share a left record, in any order, some
    longer than the run cap, some on either side of ``RUN_MIN`` and some
    repeating the previous group's right ids:
    every pair's eight similarities equal ``measure``'s of that pair alone,
    bit for bit, whether its group was packed or not, and with packs split
    into runs of 3 to ``RUN_CAP`` pairs."""
    rights = st.lists(st.integers(0, len(right) - 1), min_size=1, max_size=10)
    runs = data.draw(st.lists(st.tuples(st.integers(1, 3), rights), max_size=4))  # a right list for 1-3 left records
    lefts = itertools.count(data.draw(st.integers(0, len(left) - 1)))  # each left record after the one before
    pairs = [CandidatePair(left.records[i % len(left)].id, right.records[j].id, "t")
             for times, js in runs for i in itertools.islice(lefts, times) for j in js]
    ruleset = EMPTY_RULESET if rules is None else BUNDLED_RULESETS[rules]

    def prepared(snapshot, rec_id):
        rec = snapshot.get(rec_id)
        return prepare(normalize_record(rec, snapshot.class_of(rec), ruleset, snapshot.role))

    expected = []
    for pair in pairs:
        p1, p2 = prepared(left, pair.left), prepared(right, pair.right)
        expected.append(measure(p1, p2, class_sims(p1, p2)))
    counters = {}
    with mock.patch.object(mapper, "RUN_CAP", run_cap):
        measured = list(mapper.measure_pairs(pairs, left, right, ruleset, counters))
    assert repr(measured) == repr(expected)  # repr tells every two doubles apart
    assert counters["packed_pairs"] == sum(len(key) for key, packed in _packed_groups(pairs) if packed)


def test_a_cross_product_builds_each_run_pack_once():
    """In a cross product every left record after the first repeats the
    right ids of the one before, so each is measured from packs: at a run
    cap of 4 the 27 right methods make 7 runs, and each run's pack is built
    once and reused by every later left record."""
    left = extract(FIXTURE / "left", role="original")
    right = extract(FIXTURE / "right", role="redesigned")
    pairs = exhaustive_pairs(left, right)
    groups = _packed_groups(pairs)
    assert {len(key) for key, _ in groups} == {27}
    counters = {}
    with mock.patch.object(mapper, "RUN_CAP", 4):
        for _ in mapper.measure_pairs(pairs, left, right, SOOT_SOOTUP_RULES, counters):
            pass
    assert counters == {"packed_pairs": (len(groups) - 1) * 27, "run_packs_built": 7}


def test_run_packs_stay_bounded_as_pairs_grow():
    """Only the packs of the group before are kept: measuring 800 left
    records of 8 pairs, each right list used by two consecutive left
    records, peaks no higher than 200 of them (0.38 and 0.34 MB, Python
    3.11), and each repeat builds one pack."""
    left = extract(FIXTURE / "left", role="original")
    right = extract(FIXTURE / "right", role="redesigned")
    lids, rids = [r.id for r in left.records], [r.id for r in right.records]
    rng = random.Random(0)
    peaks = []
    for runs in (200, 800):  # each pairs a left record, never the one before, with 8 right ones, drawn anew
        rights = [sorted(rng.sample(rids, 8)) for _ in range(runs // 2)]
        pairs = [CandidatePair(lids[r % len(lids)], rid, "exhaustive")
                 for r in range(runs) for rid in rights[r // 2]]
        tracemalloc.start()
        try:
            counters = {}
            for _ in mapper.measure_pairs(pairs, left, right, SOOT_SOOTUP_RULES, counters):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert counters["run_packs_built"] == runs // 2
    assert peaks[1] < 1.25 * peaks[0], peaks


# -- accounting ----------------------------------------------------------------


def _result(left_id, right_id, sas_value, kept, rank=None):
    b = SASBreakdown(
        sim_class_name=None, sim_class_doc=None, sim_method_name=None,
        sim_return_type=None, sim_param=None, sim_local_var=None,
        sim_method_doc=None, sim_comment=None,
        sim_class=0.0, sim_method_header=0.0, sim_optional=0.0,
        sas=sas_value, ablation="ALL",
    )
    return MappingResult(left_id, right_id, "t", b, kept, rank)


def fake_results(orig, filt):
    out = []
    for i in range(filt):
        out.append(_result(f"l{i:04d}", f"r{i:04d}", 0.9, True, i + 1))
    for i in range(filt, orig):
        out.append(_result(f"l{i:04d}", f"r{i:04d}", 0.1, False))
    return out


def test_out_percent_accounting():
    assert summarize([0.9] * 182 + [0.1] * 330, 0.5) == {"orig": 512, "filt": 182, "out_pct": 64.45}
    assert summarize([0.9] * 70, 0.5) == {"orig": 70, "filt": 70, "out_pct": 0.0}
    assert summarize([], 0.5) == {"orig": 0, "filt": 0, "out_pct": 0.0}


def test_summary_report_is_exact_partition():
    scores = [i / 99 for i in range(100)]
    for t in (0.0, scores[37], 0.5, scores[-1], 1.0):
        s = summarize(scores, t)
        assert s["filt"] == sum(1 for v in scores if v >= t)
        assert s["filt"] + (s["orig"] - s["filt"]) == s["orig"] == 100


CSV_COLUMNS = [
    "left", "right", "provenance", "kept", "rank", "sas",
    "sim_class", "sim_method_header", "sim_optional",
    "sim_class_name", "sim_class_doc", "sim_method_name",
    "sim_return_type", "sim_param", "sim_local_var",
    "sim_method_doc", "sim_comment", "ablation",
]


def test_report_formats_roundtrip(tmp_path):
    results = fake_results(5, 2)
    jsonl, csv_out = tmp_path / "s.jsonl", tmp_path / "new" / "s.csv"
    report(results, jsonl, "jsonl")
    expected = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in results)
    assert jsonl.read_bytes() == expected.encode()
    report(results, csv_out, "csv")
    data = csv_out.read_bytes()
    assert data.count(b"\r\n") == data.count(b"\n") == 6 and data.endswith(b"\r\n")
    with csv_out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 6 and all(len(row) == 18 for row in rows)
    out = tmp_path / "scores.jsonl"
    sims = dict(zip(SASBreakdown._fields[:8], (0.5, None, 1.0, 0.0, 0.25, None, 0.75, 0.125)))
    for mode in ABLATION_MODES:
        moded = [r._replace(breakdown=r.breakdown._replace(**sims, ablation=mode)) for r in results]
        report(moded, out)
        assert list(load_results(out)) == moded
    for fmt in ("yaml", "summary"):  # score writes a summary by itself, with no result rows
        with pytest.raises(ValueError):
            report(results, tmp_path / f"s.{fmt}", fmt)
        assert not (tmp_path / f"s.{fmt}").exists()


# every weight triple WeightConfig accepts from these values, its tolerance's corners among them
_EDGE_TRIPLES = [
    t for t in itertools.product([-EPS, 0.0, EPS, 0.5, 1.0, 1.0 + EPS], repeat=3)
    if all(-EPS <= v <= 1.0 + EPS for v in t) and abs(sum(t) - 1.0) <= EPS
]


# ids that JSON must escape: quotes, backslashes, control and non-ASCII characters
_ids = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    score_triple=st.sampled_from(_EDGE_TRIPLES),
    header_triple=st.sampled_from(_EDGE_TRIPLES),
    fields=st.tuples(*[st.sampled_from([None, 0.0, 0.5, 1.0])] * 8),
    mode=st.sampled_from(ABLATION_MODES),
    ids=st.lists(st.tuples(_ids, _ids, _ids), min_size=1, max_size=4),
    kept=st.booleans(),
)
def test_load_results_reads_every_row_aggregate_writes(score_triple, header_triple, fields, mode, ids, kept):
    """Rows scored under any accepted weights load back, though their
    weighted sums may leave [0,1] by a few EPS. Each line is the row's
    sort-keyed JSON, also where rows share one breakdown object or hold an
    equal one whose whole numbers are ints, which encode otherwise."""
    weights = WeightConfig(*score_triple, *header_triple)
    shared = aggregate(fields, weights, mode)
    as_ints = SASBreakdown(*(int(v) if type(v) is float and v.is_integer() else v for v in shared))
    rows = [MappingResult(*key, as_ints if n % 3 == 2 else shared, kept, n + 1 if kept else None)
            for n, key in enumerate(ids)]
    with tempfile.TemporaryDirectory() as d:
        report(rows, Path(d) / "s.jsonl")
        lines = (Path(d) / "s.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines == [json.JSONEncoder(sort_keys=True).encode(r.to_dict()) + "\n" for r in rows]
        assert list(load_results(Path(d) / "s.jsonl")) == rows


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_report_writes_rows_as_it_makes_them(tmp_path, fmt):
    """Writing 20,000 rows allocates under 1 MiB at its peak: no row list,
    string or buffer grows with the row count."""
    results = fake_results(20_000, 500)
    tracemalloc.start()
    try:
        report(results, tmp_path / f"scores.{fmt}", fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert (tmp_path / f"scores.{fmt}").read_bytes().count(b"\n") == 20_000 + (fmt == "csv")


def test_loaded_pairs_and_score_column_hold_few_bytes_per_pair(tmp_path):
    """The toy fixture's exhaustive pairs 27 times over, 20,412 pairs, hold
    114 B each once loaded and scored (Python 3.11), mostly a 64 B tuple of
    shared strings, its list slot, a 4-byte code of its measurement's table
    row and a score; the table holds each distinct measurement once. With 8
    packed doubles per pair they held 172 B each; with their own copies of
    each id and a tuple of float objects per measurement, 605 B."""
    left = extract(FIXTURE / "left", role="original")
    right = extract(FIXTURE / "right", role="redesigned")
    toy = exhaustive_pairs(left, right)
    save_pairs(toy * 27, tmp_path / "pairs.jsonl")
    tracemalloc.start()
    try:
        pairs = list(load_pairs(tmp_path / "pairs.jsonl"))
        [column] = score_columns(pairs, left, right, SOOT_SOOTUP_RULES, WeightConfig(), ["ALL"])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(pairs) == len(column.scores) == 20_412
    assert held / len(pairs) < 130, held / len(pairs)
    # one object per distinct id and detector, however many lines repeat it
    assert pairs[0].left is pairs[len(toy)].left and pairs[0].right is pairs[len(toy)].right
    assert pairs[0].provenance is pairs[-1].provenance


def test_all_distinct_measurements_hold_few_bytes_per_pair():
    """When no two pairs measure alike, the intern table is a row per pair,
    and the dict that finds repeats is capped: 80 B a pair held, 88 B at the
    peak, which comes just before a clear of that dict (Python 3.11); 74 B
    both with 8 packed doubles a pair and no table. Uncapped, the dict's
    64-byte keys took the peak to 248 B a pair, and keys that were tuples
    of eight floats to 350 B."""
    n = 27_216
    measured = ((i / n, None, 1.0 - i / n, 0.5, (i % 7) / 7, None, (i % 3) / 3, 0.25) for i in range(n))
    tracemalloc.start()
    try:
        column = ScoreColumn.of("ALL", WeightConfig(), pack_fields(measured))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(column.scores) == n
    assert held / n <= 100, held / n
    assert peak / n <= 95, peak / n


def test_default_thresholds_by_profile_and_task():
    assert default_threshold("heavy-redesign", "genuine_clone") == 0.5
    assert default_threshold("heavy-redesign", "code_mapping") == 0.6
    assert default_threshold("light-redesign", "genuine_clone") == 0.6
    assert default_threshold("light-redesign", "code_mapping") == 0.8
    with pytest.raises(ValueError):
        default_threshold("unknown", "genuine_clone")
