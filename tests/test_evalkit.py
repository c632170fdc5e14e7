"""Metrics, sweeps, rule impact, and the weight tuner."""

import pytest

from remap.evalkit import (
    ConfusionCounts,
    LabeledPair,
    PairSetMismatch,
    TrainingExample,
    TunerConfig,
    evaluate,
    load_labels,
    metrics_from_confusion,
    rule_impact,
    simplex_grid,
    sweep,
    tune,
)
from remap.mapper import MappingResult
from remap.simcore import SASBreakdown, WeightConfig


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
])
def test_labels_csv_names_the_bad_line(tmp_path, text, culprit):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_labels(path)
    assert str(exc.value).startswith(culprit)


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


def test_impact_noop_setting():
    runs = [result(i, 0.5 + 0.1 * i) for i in range(3)]
    report = rule_impact(runs, runs)
    assert report["all"] == {
        "pairs": 3, "affected": 0, "max_sas_change": 0.0, "max_rank_change": 0,
    }


def test_impact_rank_flip():
    # disabling a signal flips ranks 1 and 2
    before = [result(0, 0.9), result(1, 0.8), result(2, 0.1)]
    after = [result(0, 0.7), result(1, 0.8), result(2, 0.1)]
    report = rule_impact(before, after)
    assert report["all"]["affected"] == 1
    assert report["all"]["max_sas_change"] == pytest.approx(0.2)
    assert abs(report["all"]["max_rank_change"]) == 1


def test_impact_grouped_by_code_type():
    before = [result(0, 0.9), result(1, 0.5)]
    after = [result(0, 0.4), result(1, 0.5)]
    groups = {("l000", "r000"): "production", ("l001", "r001"): "test"}
    report = rule_impact(before, after, groups)
    assert report["production"]["affected"] == 1
    assert report["test"]["affected"] == 0
    assert report["production"]["max_sas_change"] == pytest.approx(0.5)


def test_impact_pair_mismatch_is_hard_error():
    with pytest.raises(PairSetMismatch):
        rule_impact([result(0, 0.5)], [result(1, 0.5)])


# -- tuner ------------------------------------------------------------------------


def oracle_objective(examples, weights, k):
    """Independent implementation of the top-K true-positive objective."""
    a, b, t = weights.alpha, weights.beta, weights.theta
    d, e, f = weights.delta, weights.eta, weights.phi
    rows = []
    for ex in examples:
        g = lambda name, absent=0.0: ex.fields[name] if ex.fields[name] is not None else absent
        sim_class = g("class_name") + (1 - g("class_name")) * g("class_doc")
        header = d * g("method_name") + e * g("return_type") + f * g("param", 1.0)
        present = [ex.fields[n] for n in ("local_var", "method_doc", "comment") if ex.fields[n] is not None]
        opt = sum(present) / len(present) if present else 0.0
        rows.append((a * sim_class + b * header + t * opt, ex.key, ex.label))
    rows.sort(key=lambda r: (-r[0], r[1]))
    return sum(1 for r in rows[:k] if r[2])


def example(i, label_, **fields):
    base = {
        "class_name": 0.0, "class_doc": None, "method_name": 0.0,
        "return_type": 0.0, "param": None, "local_var": None,
        "method_doc": None, "comment": None,
    }
    base.update(fields)
    return TrainingExample((f"l{i:03d}", f"r{i:03d}"), base, label_)


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


def test_training_example_from_result():
    r = result(0, 0.7, fields={"class_name": 0.5, "method_name": 0.25})
    ex = TrainingExample.from_result(r, True)
    assert ex.fields["class_name"] == 0.5
    assert ex.fields["param"] is None
    assert ex.label is True
