"""Metrics, sweeps, rule impact, and the weight tuner."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example as pinned
from hypothesis import given, settings
from hypothesis import strategies as st

from remap.evalkit import (
    ConfusionCounts,
    LabeledPair,
    TunerConfig,
    code_types,
    evaluate,
    load_labels,
    metrics_from_confusion,
    rule_impact,
    simplex_grid,
    sweep,
    top_k_positives,
    tune,
)
from remap.mapper import MappingResult
from remap.simcore import FIELDS, SASBreakdown, WeightConfig, aggregate


def label(i, clone_type="T1", cm=True, code_type="production"):
    return LabeledPair(f"l{i:03d}", f"r{i:03d}", clone_type, cm, code_type)


def result(i, sas_value, kept=True, fields=None):
    f = fields or {}
    b = SASBreakdown(
        sim_class_name=f.get("class_name"),
        sim_class_doc=f.get("class_doc"),
        sim_method_name=f.get("method_name"),
        sim_return_type=f.get("return_type"),
        sim_param=f.get("param"),
        sim_local_var=f.get("local_var"),
        sim_method_doc=f.get("method_doc"),
        sim_comment=f.get("comment"),
        sim_class=f.get("sim_class", 0.0),
        sim_method_header=f.get("sim_method_header", 0.0),
        sim_optional=f.get("sim_optional", 0.0),
        sas=sas_value,
        ablation="ALL",
    )
    return MappingResult(f"l{i:03d}", f"r{i:03d}", "t", b, kept, None)


def test_confusion_worked_example():
    m = metrics_from_confusion(ConfusionCounts(tp=8, fp=2, tn=85, fn=5))
    assert m.precision == pytest.approx(0.8000, abs=1e-4)
    assert m.recall == pytest.approx(0.6154, abs=1e-4)
    assert m.fpr == pytest.approx(0.0230, abs=1e-4)
    assert m.f1_pos == pytest.approx(0.6957, abs=1e-4)
    assert m.f1_neg == pytest.approx(0.9604, abs=1e-4)
    assert m.avg_f1 == pytest.approx(0.8280, abs=1e-4)


def test_all_correct():
    m = metrics_from_confusion(ConfusionCounts(tp=10, fp=0, tn=20, fn=0))
    assert m.precision == 1.0 and m.recall == 1.0
    assert m.fpr == 0.0
    assert m.avg_f1 == 1.0


def test_zero_positive_dataset_caps_at_half():
    # no positives anywhere, nothing kept: positive-class scores are 0 by
    # convention, the negative class is perfect, so the average is 0.5
    dataset = [label(i, clone_type="non_clone", cm=False) for i in range(10)]
    counts, m = evaluate(set(), dataset, "genuine_clone")
    assert (counts.tp, counts.fp, counts.fn) == (0, 0, 0)
    assert m.precision == 0.0 and m.recall == 0.0
    assert m.f1_pos == 0.0
    assert m.avg_f1 == pytest.approx(0.5)


def test_predictions_outside_dataset_ignored():
    dataset = [label(0), label(1, clone_type="non_clone", cm=False)]
    kept = {("l000", "r000"), ("outside", "outside")}
    counts1, m1 = evaluate(kept, dataset, "code_mapping")
    counts2, m2 = evaluate({("l000", "r000")}, dataset, "code_mapping")
    assert counts1 == counts2 and m1 == m2


def test_task_selects_positives():
    dataset = [
        label(0, clone_type="T3", cm=False),  # genuine clone, not a mapping
        label(1, clone_type="T1", cm=True),
        label(2, clone_type="non_clone", cm=False),
    ]
    kept = {("l000", "r000"), ("l001", "r001")}
    counts_gc, _ = evaluate(kept, dataset, "genuine_clone")
    counts_cm, _ = evaluate(kept, dataset, "code_mapping")
    assert (counts_gc.tp, counts_gc.fp) == (2, 0)
    assert (counts_cm.tp, counts_cm.fp) == (1, 1)


def test_label_invariant_enforced():
    with pytest.raises(ValueError):
        LabeledPair("a", "b", "non_clone", True)


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(
        "left_key,right_key,clone_type,is_code_mapping,code_type,tools\n"
        "l000,r000,T2,true,production,nicad;deepsim\n"
        "l001,r001,non_clone,false,test,\n"
    )
    labels = load_labels(path)
    assert labels[0].source_tools == {"nicad", "deepsim"}
    assert labels[0].is_code_mapping is True
    assert labels[1].code_type == "test"


@pytest.mark.parametrize("text, culprit", [
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T1\n", "line 2: the row has no is_code_mapping"),
    ('left_key,right_key,clone_type,is_code_mapping\na,b,T2,true\n"c\nd",e,T9,false\n',
     "line 4: unknown clone type: 'T9'"),  # a quoted field spans lines 3-4
    ("left_key,right_key,clone_type,is_code_mapping\na,b,non_clone,true\n", "line 2: a / b: code mappings"),
    ("left_key,clone_type\n", "line 1: the header lacks right_key, is_code_mapping"),
    # eval would count the pair twice, and tune keep only one of its labels
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T1,true\nc,d,T1,true\na,b,non_clone,false\n",
     "line 4: a / b is already labeled on line 2"),
    # a typo is no label, not a non-mapping
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T2,ture\n",
     "line 2: is_code_mapping 'ture' is not true, false, yes, no, 1 or 0"),
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T2,true\nc,d,T2,\n",
     "line 3: is_code_mapping '' is not true"),
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T2,y\n", "line 2: is_code_mapping 'y' is not true"),
])
def test_labels_csv_names_the_bad_line(tmp_path, text, culprit):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_labels(path)
    assert str(exc.value).startswith(culprit)


def test_code_mapping_label_takes_six_words_in_any_case(tmp_path):
    values = {"true": True, " TRUE ": True, "Yes": True, "1": True,
              "false": False, "False ": False, " no": False, "0": False}
    path = tmp_path / "labels.csv"
    path.write_text("left_key,right_key,clone_type,is_code_mapping\n"
                    + "".join(f"l{i},r{i},T1,{v}\n" for i, v in enumerate(values)))
    assert [lab.is_code_mapping for lab in load_labels(path)] == list(values.values())


def test_labels_csv_with_a_byte_order_mark_reads_its_header(tmp_path):
    # spreadsheet exports start the file with a UTF-8 BOM
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\xef\xbb\xbfleft_key,right_key,clone_type,is_code_mapping\na,b,T1,true\n")
    assert [(lab.left, lab.right, lab.is_code_mapping) for lab in load_labels(path)] == [("a", "b", True)]


def test_empty_labels_csv_holds_no_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("")
    assert load_labels(path) == []


# -- sweep ----------------------------------------------------------------------


def test_sweep_boundaries_and_argmax():
    # positives score >= 0.6, negatives <= 0.4: 0.5 separates them perfectly
    scored = [result(i, 0.6 + 0.01 * i) for i in range(5)]
    scored += [result(i + 10, 0.4 - 0.01 * i) for i in range(5)]
    dataset = [label(i) for i in range(5)]
    dataset += [label(i + 10, clone_type="non_clone", cm=False) for i in range(5)]
    thresholds = [0.0, 0.25, 0.5, 0.75, 1.0]
    points, best = sweep(scored, dataset, "code_mapping", thresholds)
    assert [p.threshold for p in points] == thresholds
    assert points[0].counts.fp == 5  # everything kept at 0
    assert points[-1].counts.tp == 0  # nothing reaches 1.0
    assert best == 0.5
    assert max(p.metrics.avg_f1 for p in points) == 1.0


def test_sweep_thresholds_must_ascend():
    with pytest.raises(ValueError):
        sweep([], [], "code_mapping", [0.5, 0.5])
    points, best = sweep([], [], "code_mapping", [])
    assert points == [] and best is None


def test_kept_sets_antitone_over_ladder():
    scored = [result(i, i / 20.0) for i in range(20)]
    ladder = [i / 10.0 for i in range(11)]
    previous = None
    for t in ladder:
        kept = {r.key for r in scored if r.sas >= t}
        if previous is not None:
            assert kept <= previous
        previous = kept


# -- rule impact ------------------------------------------------------------------


def scores(*values):
    """A score column keyed by the pairs of ``label``."""
    return {(f"l{i:03d}", f"r{i:03d}"): v for i, v in enumerate(values)}


def test_impact_noop_setting():
    runs = scores(0.5, 0.6, 0.7)
    report = rule_impact(runs, runs)
    assert report["all"] == {
        "pairs": 3, "affected": 0, "max_sas_change": 0.0, "max_rank_change": 0,
    }


def test_impact_rank_flip():
    # disabling a signal flips ranks 1 and 2
    report = rule_impact(scores(0.9, 0.8, 0.1), scores(0.7, 0.8, 0.1))
    assert report["all"]["affected"] == 1
    assert report["all"]["max_sas_change"] == pytest.approx(0.2)
    assert abs(report["all"]["max_rank_change"]) == 1


def test_impact_grouped_by_code_type():
    groups = {("l000", "r000"): "production", ("l001", "r001"): "test"}
    report = rule_impact(scores(0.9, 0.5), scores(0.4, 0.5), groups)
    assert report["production"]["affected"] == 1
    assert report["test"]["affected"] == 0
    assert report["production"]["max_sas_change"] == pytest.approx(0.5)


def test_code_types_from_each_side_is_test():
    from types import SimpleNamespace as Rec

    from remap.prefilter import CandidatePair

    left = {"a": Rec(is_test=False), "t": Rec(is_test=True)}
    right = {"b": Rec(is_test=False), "u": Rec(is_test=True)}
    pairs = [CandidatePair(lid, rid, "x") for lid, rid in (("a", "b"), ("t", "u"), ("a", "u"), ("t", "b"), ("a", "x"))]
    assert code_types(pairs, left, right) == {
        ("a", "b"): "production", ("t", "u"): "test", ("a", "u"): "mixed", ("t", "b"): "mixed",
    }


def test_impact_ranks_equal_scores_by_pair_key():
    # full run: l000 ranks 1, l001 ranks 2 on the key; the exclusion run
    # swaps them, and the first key in order holds the reported change
    report = rule_impact(scores(0.5, 0.5), scores(0.4, 0.5))
    assert report["all"]["max_rank_change"] == -1
    assert report["all"]["max_sas_change"] == pytest.approx(0.1)


# -- tuner ------------------------------------------------------------------------


def oracle_objective(examples, weights, k):
    """Independent implementation of the top-K true-positive objective."""
    a, b, t = weights.alpha, weights.beta, weights.theta
    d, e, f = weights.delta, weights.eta, weights.phi
    rows = []
    for row, positive in examples:
        fields = {name: getattr(row.breakdown, f"sim_{name}") for name in FIELDS}
        g = lambda name, absent=0.0: fields[name] if fields[name] is not None else absent
        sim_class = g("class_name") + (1 - g("class_name")) * g("class_doc")
        header = d * g("method_name") + e * g("return_type") + f * g("param", 1.0)
        present = [fields[n] for n in ("local_var", "method_doc", "comment") if fields[n] is not None]
        opt = sum(present) / len(present) if present else 0.0
        rows.append((a * sim_class + b * header + t * opt, row.key, positive))
    rows.sort(key=lambda r: (-r[0], r[1]))
    return sum(1 for r in rows[:k] if r[2])


def example(i, label_, **fields):
    base = {
        "class_name": 0.0, "class_doc": None, "method_name": 0.0,
        "return_type": 0.0, "param": None, "local_var": None,
        "method_doc": None, "comment": None,
    }
    base.update(fields)
    return result(i, 0.0, fields=base), label_  # tune reads a row's key and measured fields


def test_simplex_grid_counts():
    assert len(simplex_grid(0.25)) == 15  # compositions of 4 into 3 parts
    grid = simplex_grid(0.5)
    assert all(i + j + k == n for i, j, k, n in grid)


def test_tune_prefers_separating_component():
    # positives distinguished only by class-name similarity
    training = [example(i, True, class_name=0.9, method_name=0.1) for i in range(4)]
    training += [example(i + 10, False, class_name=0.1, method_name=0.8) for i in range(4)]
    cfg = TunerConfig(grid_step=0.25)
    best = tune(training, cfg)
    # the returned config must achieve the oracle-maximal objective
    k = 4
    best_obj = oracle_objective(training, best, k)
    for ai, bi, ti, n in simplex_grid(0.25):
        for di, ei, fi, _ in simplex_grid(0.25):
            w = WeightConfig(ai / n, bi / n, ti / n, di / n, ei / n, fi / n)
            assert oracle_objective(training, w, k) <= best_obj
    # alpha lands on the largest grid value the max-min tie-break allows:
    # many configs separate perfectly, so min-weight 0.25 wins over alpha=1
    assert best.alpha == 0.5
    assert min(best.alpha, best.beta, best.theta, best.delta, best.eta, best.phi) == 0.25


def test_tune_constant_objective_returns_most_balanced():
    # a single positive that tops every ranking: all grid points tie, so the
    # tie-break yields the max-min config, lexicographically largest
    training = [example(0, True, class_name=1.0, method_name=1.0, return_type=1.0, param=1.0)]
    training += [example(i + 1, False) for i in range(3)]
    best = tune(training, TunerConfig(grid_step=0.25))
    assert (best.alpha, best.beta, best.theta) == (0.5, 0.25, 0.25)
    assert (best.delta, best.eta, best.phi) == (0.5, 0.25, 0.25)


def test_tune_requires_positives():
    with pytest.raises(ValueError):
        tune([example(0, False)], TunerConfig(grid_step=0.25))
    with pytest.raises(ValueError):
        tune([], TunerConfig(grid_step=0.25))


def test_tune_result_is_grid_point():
    training = [example(0, True, class_name=1.0), example(1, False, class_name=0.2)]
    best = tune(training, TunerConfig(grid_step=0.25))
    for w in (best.alpha, best.beta, best.theta, best.delta, best.eta, best.phi):
        assert abs(w * 4 - round(w * 4)) < 1e-9


def brute_force_tune(training, step, k):
    """The grid WeightConfig whose ``aggregate`` ranking (score descending,
    then pair key) puts the most positives in the top K, under tune's
    documented tie-break."""
    best = None
    for a, b, c, n in simplex_grid(step):
        for d, e, f, _ in simplex_grid(step):
            w = WeightConfig(a / n, b / n, c / n, d / n, e / n, f / n)
            sas = {row.key: aggregate(tuple(getattr(row.breakdown, f"sim_{name}") for name in FIELDS), w).sas
                   for row, _ in training}
            ranked = sorted(training, key=lambda ex: (-sas[ex[0].key], ex[0].key))
            ints = (a, b, c, d, e, f)
            key = (sum(positive for _, positive in ranked[:k]), min(ints), ints)
            if best is None or key > best[0]:
                best = (key, w)
    return best[1]


LCS_RATIOS = (0.0, 1 / 3, 2 / 7, 0.4, 0.5, 4 / 7, 0.6, 2 / 3, 0.75, 0.8, 1.0, None)


@st.composite
def tuning_cases(draw):
    """(examples in any order, K, grid step): fields from a few LCS ratios,
    so scores tie often, at least one positive, and K up to two past the
    number of examples, where the top K is every example."""
    labels = draw(st.lists(st.booleans(), min_size=3, max_size=8).filter(any))
    fields = st.tuples(*[st.sampled_from(LCS_RATIOS)] * len(FIELDS))
    training = [example(i, label_, **dict(zip(FIELDS, draw(fields)))) for i, label_ in enumerate(labels)]
    return draw(st.permutations(training)), draw(st.integers(1, len(training) + 2)), draw(
        st.sampled_from((0.25, 0.2, 0.1)))


# under (0, .6, .4, .6, 0, .4), l0 and l3 tie at 0.552 by aggregate's sums,
# and key order puts l0 first; summing in integer weights over n gives l0
# 0.5519999999999999, which drops it below l3 and picks another config
TIED_AT_0_552 = [
    example(i, label_, **dict(zip(("class_name", "method_name", "return_type", "param", "local_var"), fields)))
    for i, (label_, fields) in enumerate([
        (True, (0.0, 0.2, 0.25, 1 / 3, 1.0)),
        (False, (0.6, 0.75, 4 / 7, 0.0, 0.25)),
        (False, (2 / 7, 0.5, 0.25, 1.0, 0.0)),
        (False, (0.8, 0.2, 0.6, 0.75, 0.75)),
        (False, (1 / 3, 0.4, 2 / 7, 1 / 3, 0.8)),
        (True, (0.4, 0.2, 2 / 7, 0.8, 0.75)),
    ])
]


@given(tuning_cases())
@pinned((TIED_AT_0_552, 2, 0.1))
@settings(max_examples=40, deadline=None)
def test_tune_equals_brute_force_over_aggregate(case):
    training, k, step = case
    assert tune(training, TunerConfig(grid_step=step, objective_k=k)) == brute_force_tune(training, step, k)


@st.composite
def top_k_cases(draw):
    """(G x N scores, N labels, K in 1..N+2): scores from a few values, so
    ties straddle the K-th place often."""
    g, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    row = st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=n, max_size=n)
    scores = np.array(draw(st.lists(row, min_size=g, max_size=g)))
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return scores, labels, draw(st.integers(1, n + 2))


@given(top_k_cases())
@settings(max_examples=200, deadline=None)
def test_top_k_positives_equals_stable_argsort(case):
    scores, labels, k = case
    expected = [int(labels[np.argsort(-row, kind="stable")[:k]].sum()) for row in scores]
    assert top_k_positives(scores, labels, k).tolist() == expected


def test_tune_working_set_is_bounded_by_the_block():
    # tracemalloc sees numpy's buffers. With these 760 examples the traced
    # peak measured 1.25 MB at step 0.1 (66 grid points, 4,356 configs) and
    # 1.30 MB at step 0.05 (231 grid points, 53,361 configs), with numpy 2.4:
    # a few 32 x 760 score blocks and the block's counts. Holding one
    # grid-points x examples matrix instead would add 0.4 MB at step 0.1 and
    # 1.4 MB at step 0.05, which breaks the 1.5 ratio; 3 MB is about 15
    # score blocks.
    rng = random.Random(7)
    training = [
        example(i, rng.random() < 0.4, **{name: rng.choice(LCS_RATIOS) for name in FIELDS}) for i in range(760)
    ]
    tune(training, TunerConfig(grid_step=0.25))  # numpy's first-use set-up, outside the trace
    peaks = []
    for step in (0.1, 0.05):
        tracemalloc.start()
        try:
            tune(training, TunerConfig(grid_step=step))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    assert peaks[1] < 3_000_000

