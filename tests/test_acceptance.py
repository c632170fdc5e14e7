"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Every tolerance is pinned here; the toy-fixture expectations come from
tests/fixtures/toy/DESIGN.md (hand-verified before the fixture was frozen).
"""

import itertools
import json
import random
import time
from pathlib import Path

from remap.evalkit import (
    ConfusionCounts,
    LabeledPair,
    TunerConfig,
    evaluate,
    metrics_from_confusion,
    simplex_grid,
    sweep,
    tune,
)
from remap.extractor import extract
from remap.ingest import ingest_generic
from remap.lcs import lcs_length
from remap.mapper import MappingResult, ranked, score_columns, summarize
from remap.normalizer import (
    FIELD_CLASS_NAME,
    FIELD_METHOD_NAME,
    FINDBUGS_SPOTBUGS_RULES,
    SOOT_SOOTUP_RULES,
)
from remap.normalizer import NormalizedDetails
from remap.simcore import FIELDS, SASBreakdown, WeightConfig, aggregate, components

FIXTURE = Path(__file__).parent / "fixtures" / "toy"


def details(**kwargs):
    base = {
        "class_name": (), "class_doc": (), "method_name": (), "return_type": (),
        "params": (), "local_vars": (), "method_doc": (), "comments": (),
    }
    base.update({k: tuple(v) for k, v in kwargs.items()})
    return NormalizedDetails(**base)


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def brute_force_lcs(s1, s2):
    best = 0
    for r in range(len(s1), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(s1, r):
            it = iter(s2)
            if all(tok in it for tok in combo):
                best = r
                break
    return best


def test_acceptance_lcs_oracle_equivalence():
    rng = random.Random(20240817)
    alphabet = "abcdef"
    start = time.monotonic()
    checked = 0
    for _ in range(1200):
        s1 = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        s2 = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        assert lcs_length(s1, s2) == brute_force_lcs(s1, s2), (s1, s2)
        checked += 1
    elapsed = time.monotonic() - start
    report(
        "LCS oracle equivalence",
        checked >= 1000 and elapsed < 5.0,
        f"{checked} pairs in {elapsed:.2f}s",
    )


def test_acceptance_component_and_score_arithmetic():
    ok = True
    # simClass: 0.5 + (1-0.5)*0.4 = 0.7
    d1 = details(class_name=["a", "b"], class_doc=["p", "q"])
    d2 = details(class_name=["a", "x"], class_doc=["p", "r", "s"])
    ok &= abs(components(d1, d2).sim_class - 0.7) <= 1e-9
    # saturation at simClassName = 1
    s1 = details(class_name=["a"], class_doc=["x"])
    s2 = details(class_name=["a"], class_doc=["y"])
    ok &= abs(components(s1, s2).sim_class - 1.0) <= 1e-9

    def score(c, h, o):
        # class doc 0, every header field h, one present optional field o
        return aggregate((c, 0.0, h, h, h, o, None, None), WeightConfig()).sas

    w = WeightConfig()
    ok &= abs(score(0.8, 0.6, 0.4) - 0.65) <= 1e-9
    ok &= abs(score(1, 1, 1) - 1.0) <= 1e-9
    ok &= score(0, 0, 0) == 0.0
    ok &= (w.alpha, w.beta, w.theta) == (0.5, 0.25, 0.25)
    ok &= (w.delta, w.eta, w.phi) == (0.5, 0.35, 0.15)
    for bad in (
        dict(alpha=0.9, beta=0.2, theta=0.2),
        dict(delta=0.2, eta=0.2, phi=0.2),
    ):
        try:
            WeightConfig(**bad)
            ok = False
        except ValueError:
            pass
    report("Eq-style component and score arithmetic", ok)


def test_acceptance_rename_rule_fidelity():
    soot, fb = SOOT_SOOTUP_RULES, FINDBUGS_SPOTBUGS_RULES
    checks = [
        soot.apply("setName", FIELD_METHOD_NAME, "original") == "withName",
        # row-level behavior of the compound Box rule
        soot.apply("UnitBox", FIELD_CLASS_NAME, "original") == "Stmt",
        "StmtBox" not in soot.apply("UnitBox", FIELD_CLASS_NAME, "original"),
        soot.apply("UnitBoxes", FIELD_CLASS_NAME, "original") == "Stmts",
        soot.apply("Unit", FIELD_CLASS_NAME, "original") == "Stmt",
        soot.apply("BodyTransformer", FIELD_CLASS_NAME, "original") == "BodyInterceptor",
        soot.apply("BasicBlock", FIELD_CLASS_NAME, "redesigned") == "Block",
        fb.apply("Const", FIELD_CLASS_NAME, "redesigned") == "Constants",
        fb.apply("spotbugsTestCases", FIELD_CLASS_NAME, "redesigned") == "findbugsTestCases",
        # project-role gating
        soot.apply("BasicBlock", FIELD_CLASS_NAME, "original") == "BasicBlock",
        soot.apply("Unit", FIELD_CLASS_NAME, "redesigned") == "Unit",
        fb.apply("Const", FIELD_CLASS_NAME, "original") == "Const",
        # scope gating: the wither rule only fires on method names
        soot.apply("setName", FIELD_CLASS_NAME, "original") == "setName",
    ]
    corpus = [
        "setName", "setPhaseName", "UnitBox", "UnitBoxes", "UseBox", "ValueBoxes",
        "DefBox", "Unit", "Units", "getUnit", "BodyTransformer", "BasicBlock",
        "Const", "Const.GOTO", "spotbugsTestCases", "StmtPrinter", "unitIndex",
    ]
    idempotent = True
    for text in corpus:
        for field in (FIELD_METHOD_NAME, FIELD_CLASS_NAME):
            for role in ("original", "redesigned"):
                for rules in (soot, fb):
                    once = rules.apply(text, field, role)
                    idempotent &= rules.apply(once, field, role) == once
    report("Bundled rename rule fidelity", all(checks) and idempotent)


def test_acceptance_metrics_fidelity():
    m = metrics_from_confusion(ConfusionCounts(tp=8, fp=2, tn=85, fn=5))
    ok = (
        abs(m.precision - 0.8000) <= 1e-4
        and abs(m.recall - 0.6154) <= 1e-4
        and abs(m.fpr - 0.0230) <= 1e-4
        and abs(m.avg_f1 - 0.8280) <= 1e-4
    )
    dataset = [
        LabeledPair(f"l{i}", f"r{i}", "non_clone", False, "test") for i in range(40)
    ]
    _, degenerate = evaluate(set(), dataset, "genuine_clone")
    ok &= degenerate.precision == 0.0 and degenerate.recall == 0.0
    ok &= degenerate.avg_f1 <= 0.5 + 1e-9
    report("Evaluation metric fidelity", ok, f"avg_f1 degenerate={degenerate.avg_f1}")


def _synthetic_scored(n=200, separator=0.6):
    """Deterministic 200-pair scored set whose only perfect threshold on the
    0.05 ladder is `separator`."""
    rng = random.Random(99)
    out, labels = [], []
    values = []
    for i in range(60):
        values.append((round(rng.uniform(separator + 0.02, 0.95), 4), True))
    for i in range(n - 60):
        values.append((round(rng.uniform(0.05, separator - 0.02- 1e-9), 4), False))
    # pin the boundary: a positive just above and a negative just below
    values[0] = (separator + 0.015, True)
    values[60] = (separator - 0.015, False)
    for i, (v, positive) in enumerate(values):
        b = SASBreakdown(
            sim_class_name=None, sim_class_doc=None, sim_method_name=None,
            sim_return_type=None, sim_param=None, sim_local_var=None,
            sim_method_doc=None, sim_comment=None, sim_class=v,
            sim_method_header=v, sim_optional=v, sas=v, ablation="ALL",
        )
        out.append(MappingResult(f"l{i:03d}", f"r{i:03d}", "syn", b, True, None))
        labels.append(
            LabeledPair(f"l{i:03d}", f"r{i:03d}", "T2" if positive else "non_clone", positive)
        )
    return out, labels


def test_acceptance_threshold_antitonicity_and_sweep():
    scored, labels = _synthetic_scored()
    ladder = [round(0.05 * i, 2) for i in range(21)]
    previous = None
    antitone = True
    for t in ladder:
        kept = {r.key for r in scored if r.sas >= t}
        if previous is not None:
            antitone &= kept <= previous
        previous = kept
    points, best = sweep(scored, labels, "code_mapping", ladder)
    perfect = [p.threshold for p in points if p.metrics.avg_f1 >= 1.0 - 1e-9]
    report(
        "Threshold antitonicity and sweep argmax",
        antitone and best == 0.6 and perfect == [0.6],
        f"best={best}",
    )


def _resolve_planted(left, right):
    planted = json.loads((FIXTURE / "planted.json").read_text())
    mappings, non_mappings = [], []
    for row in planted["mappings"]:
        lrec, rrec = left.resolve_key(row["left"]), right.resolve_key(row["right"])
        assert lrec is not None and rrec is not None, row
        mappings.append((lrec.id, rrec.id, row["clone_type"]))
    for row in planted["non_mappings"]:
        lrec, rrec = left.resolve_key(row["left"]), right.resolve_key(row["right"])
        assert lrec is not None and rrec is not None, row
        non_mappings.append((lrec.id, rrec.id, row["clone_type"]))
    return mappings, non_mappings


def test_acceptance_end_to_end_fixture():
    start = time.monotonic()
    left = extract(FIXTURE / "left", role="original")
    right = extract(FIXTURE / "right", role="redesigned")
    assert not left.summary.failed_files and not right.summary.failed_files
    mappings, non_mappings = _resolve_planted(left, right)

    pairs, stats = ingest_generic(FIXTURE / "pairs.jsonl", left, right)
    assert stats.unresolved == 0 and len(pairs) == 40

    [column] = score_columns(pairs, left, right, SOOT_SOOTUP_RULES, WeightConfig(), ["ALL"])
    results = list(ranked(pairs, column, 0.6))
    by_key = {r.key: r for r in results}
    mapping_sas = [by_key[(l, r)].sas for l, r, _ in mappings]
    non_mapping_sas = [by_key[(l, r)].sas for l, r, _ in non_mappings]
    ranks_ok = min(mapping_sas) > max(non_mapping_sas)

    labels = [
        LabeledPair(l, r, ct, True) for l, r, ct in mappings
    ] + [
        LabeledPair(l, r, ct, False) for l, r, ct in non_mappings
    ]
    kept = {r.key for r in results if r.kept}
    counts, metrics = evaluate(kept, labels, "code_mapping")
    elapsed = time.monotonic() - start
    report(
        "End-to-end fixture",
        ranks_ok
        and metrics.precision == 1.0
        and metrics.recall >= 0.93
        and elapsed < 10.0,
        f"precision={metrics.precision:.2f} recall={metrics.recall:.2f} "
        f"min_map={min(mapping_sas):.3f} max_non={max(non_mapping_sas):.3f} "
        f"elapsed={elapsed:.2f}s",
    )


def test_acceptance_end_to_end_exhaustive_summary():
    from remap.prefilter import exhaustive_pairs

    planted = json.loads((FIXTURE / "planted.json").read_text())
    expected = planted["expected"]
    left = extract(FIXTURE / "left", role="original")
    right = extract(FIXTURE / "right", role="redesigned")
    pairs = exhaustive_pairs(left, right, min_loc=5)
    [column] = score_columns(pairs, left, right, SOOT_SOOTUP_RULES, WeightConfig(), ["ALL"])
    summary = summarize(column.scores, 0.5)
    mappings, _ = _resolve_planted(left, right)
    kept = {p.key for p, s in zip(pairs, column.scores) if s >= 0.5}
    all_mappings_kept = all((l, r) in kept for l, r, _ in mappings)
    ok = (
        summary["orig"] == expected["exhaustive_pairs_min_loc_5"]
        and summary["filt"] == expected["kept_at_gc_threshold_0_5"]
        and summary["out_pct"] == expected["out_pct_at_0_5"]
        and all_mappings_kept
    )
    report("Exhaustive pipeline summary matches the planted design", ok, str(summary))


def scored_row(i: int, fields: dict) -> MappingResult:
    """A scored row whose breakdown holds the measured ``fields``, by name;
    the tuner reads nothing else of a row but its key."""
    b = SASBreakdown(*(fields[name] for name in FIELDS), 0.0, 0.0, 0.0, 0.0, "ALL")
    return MappingResult(f"l{i:03d}", f"r{i:03d}", "syn", b, False, None)


def test_acceptance_tuner_grid_search():
    rng = random.Random(4242)

    def example(i, positive):
        # positives carry strong class + name evidence, negatives weak
        hi = lambda: round(rng.uniform(0.7, 1.0), 3)
        lo = lambda: round(rng.uniform(0.0, 0.3), 3)
        f = hi if positive else lo
        fields = {
            "class_name": f(), "class_doc": f(), "method_name": f(),
            "return_type": f(), "param": f(), "local_var": f(),
            "method_doc": None, "comment": lo(),
        }
        return scored_row(i, fields), positive

    training = [example(i, i < 12) for i in range(40)]
    k = 12
    best = tune(training, TunerConfig(grid_step=0.25))

    def objective(weights):
        rows = []
        for row, positive in training:
            fields = {n: getattr(row.breakdown, f"sim_{n}") for n in FIELDS}
            g = lambda n, a=0.0: fields[n] if fields[n] is not None else a
            cls = g("class_name") + (1 - g("class_name")) * g("class_doc")
            hdr = (
                weights.delta * g("method_name")
                + weights.eta * g("return_type")
                + weights.phi * g("param", 1.0)
            )
            present = [
                fields[n]
                for n in ("local_var", "method_doc", "comment")
                if fields[n] is not None
            ]
            opt = sum(present) / len(present) if present else 0.0
            score = weights.alpha * cls + weights.beta * hdr + weights.theta * opt
            rows.append((score, row.key, positive))
        rows.sort(key=lambda r: (-r[0], r[1]))
        return sum(1 for r in rows[:k] if r[2])

    best_obj = objective(best)
    exhaustive_max = max(
        objective(WeightConfig(ai / n, bi / n, ti / n, di / n, ei / n, fi / n))
        for ai, bi, ti, n in simplex_grid(0.25)
        for di, ei, fi, _ in simplex_grid(0.25)
    )
    # constant-objective fixture: a single positive that tops every ranking
    const = [
        (scored_row(0, {
            "class_name": 1.0, "class_doc": None, "method_name": 1.0,
            "return_type": 1.0, "param": 1.0, "local_var": 1.0,
            "method_doc": 1.0, "comment": 1.0,
        }), True),
        (scored_row(1, {
            "class_name": 0.0, "class_doc": None, "method_name": 0.0,
            "return_type": 0.0, "param": 0.0, "local_var": 0.0,
            "method_doc": 0.0, "comment": 0.0,
        }), False),
    ]
    balanced = tune(const, TunerConfig(grid_step=0.25))
    balanced_ok = (
        min(balanced.alpha, balanced.beta, balanced.theta) == 0.25
        and min(balanced.delta, balanced.eta, balanced.phi) == 0.25
    )
    report(
        "Tuner grid-search correctness",
        best_obj == exhaustive_max and balanced_ok,
        f"objective={best_obj}/{exhaustive_max} balanced={balanced.to_dict()}",
    )
