"""Scoring, threshold filtering, ranking, and report accounting."""

import csv
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from remap.extractor import extract
from remap.mapper import (
    MappingResult,
    UnresolvedPairError,
    default_threshold,
    load_results,
    rank,
    report,
    score_pairs,
    summarize,
)
from remap.normalizer import EMPTY_RULESET, SOOT_SOOTUP_RULES, normalize_record
from remap.prefilter import CandidatePair, exhaustive_pairs
from remap.simcore import ABLATION_MODES, SASBreakdown, WeightConfig, aggregate, components

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


def test_identical_methods_score_one_and_rank_first(world):
    left, right = world
    results = score_pairs(all_pairs(left, right), left, right, rules=SOOT_SOOTUP_RULES, threshold=0.5)
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
    scored = score_pairs(pairs, left, right, threshold=0.0)
    distinct = sorted({r.sas for r in scored})
    assert len(distinct) >= 2
    t = distinct[-2]  # a score that separates the top pair from the rest
    at = score_pairs(pairs, left, right, threshold=t)
    above = score_pairs(pairs, left, right, threshold=distinct[-1])
    kept_at = {r.key for r in at if r.kept}
    kept_above = {r.key for r in above if r.kept}
    # threshold comparison is >=: pairs sitting exactly at t stay kept
    assert any(abs(r.sas - t) < 1e-12 and r.kept for r in at)
    assert kept_above < kept_at


def test_filtering_antitone_in_threshold(world):
    left, right = world
    pairs = all_pairs(left, right)
    previous = None
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        kept = {
            r.key for r in score_pairs(pairs, left, right, threshold=t) if r.kept
        }
        if previous is not None:
            assert kept <= previous
        previous = kept


def test_ranks_are_dense_and_ordered(world):
    left, right = world
    results = score_pairs(all_pairs(left, right), left, right, threshold=0.0)
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
    results = score_pairs(pairs, left, right, rules=SOOT_SOOTUP_RULES, mode=mode, threshold=0.6)
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
        score_pairs(bogus, left, right)


def test_unknown_ablation_mode_is_rejected(world):
    left, right = world
    with pytest.raises(ValueError, match="EXR9"):
        score_pairs(all_pairs(left, right), left, right, mode="EXR9")


def test_exr1_disables_renaming(world):
    left, right = world
    pairs = all_pairs(left, right)
    with_rules = score_pairs(pairs, left, right, rules=SOOT_SOOTUP_RULES, threshold=0.0)
    exr1 = score_pairs(pairs, left, right, rules=SOOT_SOOTUP_RULES, mode="EXR1", threshold=0.0)
    assert {r.key for r in with_rules} == {r.key for r in exr1}
    # the fixture has no renamable identifiers, so scores should match;
    # the setting is recorded either way
    assert all(r.breakdown.ablation == "EXR1" for r in exr1)


# a few distinct values per field, so that scores and pair keys repeat
_measured_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.sampled_from(["x", "y"]),
        st.tuples(*[st.sampled_from([None, 0.0, 0.5, 1.0])] * 8),
    ),
    max_size=12,
)


@given(rows=_measured_rows, mode=st.sampled_from(ABLATION_MODES), data=st.data())
def test_rank_keeps_at_threshold_and_orders_kept_rows_first(rows, mode, data):
    sas = [aggregate(fields, WeightConfig(), mode).sas for _, _, fields in rows]
    thresholds = st.floats(0.0, 1.0)
    threshold = data.draw(st.one_of(st.sampled_from(sas), thresholds) if sas else thresholds)
    measured = [(CandidatePair(left, right, "t"), fields) for left, right, fields in rows]
    results = rank(measured, weights=WeightConfig(), mode=mode, threshold=threshold)
    assert sorted((r.left, r.right, r.sas) for r in results) == sorted(
        (left, right, v) for (left, right, _), v in zip(rows, sas)
    )
    assert all(r.kept == (r.sas >= threshold) for r in results)
    kept = [r for r in results if r.kept]
    dropped = [r for r in results if not r.kept]
    assert results == kept + dropped
    for group in (kept, dropped):
        order = [(-r.sas, r.left, r.right) for r in group]
        assert order == sorted(order)
    assert [r.rank for r in kept] == list(range(1, len(kept) + 1))
    assert all(r.rank is None for r in dropped)


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
    assert summarize(fake_results(512, 182)) == {"orig": 512, "filt": 182, "out_pct": 64.45}
    assert summarize(fake_results(70, 70)) == {"orig": 70, "filt": 70, "out_pct": 0.0}
    assert summarize(fake_results(0, 0)) == {"orig": 0, "filt": 0, "out_pct": 0.0}


def test_summary_report_is_exact_partition():
    results = fake_results(100, 37)
    s = summarize(results)
    assert s["filt"] + (s["orig"] - s["filt"]) == s["orig"]


CSV_COLUMNS = [
    "left", "right", "provenance", "kept", "rank", "sas",
    "sim_class", "sim_method_header", "sim_optional",
    "sim_class_name", "sim_class_doc", "sim_method_name",
    "sim_return_type", "sim_param", "sim_local_var",
    "sim_method_doc", "sim_comment", "ablation",
]


def test_report_formats_roundtrip(tmp_path):
    results = fake_results(5, 2)
    jsonl, csv_out, summary = tmp_path / "s.jsonl", tmp_path / "new" / "s.csv", tmp_path / "sum.jsonl"
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
    report(results, summary, "summary")
    assert summary.read_bytes() == b'{"filt": 2, "orig": 5, "out_pct": 60.0}\n'
    out = tmp_path / "scores.jsonl"
    sims = dict(zip(SASBreakdown._fields[:8], (0.5, None, 1.0, 0.0, 0.25, None, 0.75, 0.125)))
    for mode in ABLATION_MODES:
        moded = [r._replace(breakdown=r.breakdown._replace(**sims, ablation=mode)) for r in results]
        report(moded, out)
        assert load_results(out) == moded
    with pytest.raises(ValueError):
        report(results, tmp_path / "s.yaml", "yaml")
    assert not (tmp_path / "s.yaml").exists()


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


def test_default_thresholds_by_profile_and_task():
    assert default_threshold("heavy-redesign", "genuine_clone") == 0.5
    assert default_threshold("heavy-redesign", "code_mapping") == 0.6
    assert default_threshold("light-redesign", "genuine_clone") == 0.6
    assert default_threshold("light-redesign", "code_mapping") == 0.8
    with pytest.raises(ValueError):
        default_threshold("unknown", "genuine_clone")
