"""Ground-truth evaluation, threshold sweeps, rule impact, weight tuning.

Metrics follow the usual confusion-matrix definitions with explicit 0/0
conventions (precision/recall/F1/FPR are 0 when their denominators are 0),
and the overall figure is the average of the positive-class and
negative-class F1 scores. Pairs outside the labeled dataset are excluded
from every calculation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .mapper import MappingResult, TASK_CODE_MAPPING, TASK_GENUINE_CLONE
from .simcore import EPS, FIELDS, WeightConfig, policy_filled

CLONE_TYPES = ("non_clone", "T1", "T2", "T3", "T4")
PairKey = tuple[str, str]


@dataclass(frozen=True)
class LabeledPair:
    left: str
    right: str
    clone_type: str
    is_code_mapping: bool
    code_type: str = "production"  # production | test
    source_tools: frozenset = frozenset()

    def __post_init__(self):
        if self.clone_type not in CLONE_TYPES:
            raise ValueError(f"unknown clone type: {self.clone_type!r}")
        if self.is_code_mapping and self.clone_type == "non_clone":
            raise ValueError(
                f"{self.left} / {self.right}: code mappings must be genuine clones"
            )

    @property
    def key(self) -> PairKey:
        return (self.left, self.right)

    def positive(self, task: str) -> bool:
        if task == TASK_GENUINE_CLONE:
            return self.clone_type != "non_clone"
        if task == TASK_CODE_MAPPING:
            return self.is_code_mapping
        raise ValueError(f"unknown task: {task!r}")


_LABEL_COLUMNS = ("left_key", "right_key", "clone_type", "is_code_mapping")


def _label_from_row(row: dict) -> LabeledPair:
    missing = [c for c in _LABEL_COLUMNS if row[c] is None]
    if missing:
        raise ValueError(f"the row has no {', '.join(missing)}")
    return LabeledPair(
        left=row["left_key"],
        right=row["right_key"],
        clone_type=row["clone_type"],
        is_code_mapping=row["is_code_mapping"].strip().lower() in ("true", "1", "yes"),
        code_type=row.get("code_type") or "production",
        source_tools=frozenset(t for t in (row.get("tools") or "").split(";") if t),
    )


def load_labels(path: str | Path) -> list[LabeledPair]:
    """Read the labeled dataset CSV
    (left_key,right_key,clone_type,is_code_mapping,code_type,tools).

    Raises ValueError naming the line of a header that lacks one of the
    first four columns, or of a row that has no value for one or holds an
    unknown clone type.
    """
    out = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in _LABEL_COLUMNS if c not in (reader.fieldnames or _LABEL_COLUMNS)]
            if missing:  # an empty file has no header, and no rows either
                raise ValueError(f"line 1: the header lacks {', '.join(missing)}")
            for row in reader:
                try:
                    out.append(_label_from_row(row))
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
        except csv.Error as exc:  # a field over the csv module's size limit, in the row after line_num
            raise ValueError(f"line {reader.line_num + 1}: {exc}") from None
    return out


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MetricsReport:
    fpr: float
    precision: float
    recall: float
    f1_pos: float
    f1_neg: float
    avg_f1: float

    def to_dict(self) -> dict:
        return asdict(self)


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return _safe_div(2.0 * p * r, p + r)


def metrics_from_confusion(c: ConfusionCounts) -> MetricsReport:
    precision = _safe_div(c.tp, c.tp + c.fp)
    recall = _safe_div(c.tp, c.tp + c.fn)
    fpr = _safe_div(c.fp, c.fp + c.tn)
    f1_pos = _f1(precision, recall)
    p_neg = _safe_div(c.tn, c.tn + c.fn)
    r_neg = _safe_div(c.tn, c.tn + c.fp)
    f1_neg = _f1(p_neg, r_neg)
    return MetricsReport(fpr, precision, recall, f1_pos, f1_neg, (f1_pos + f1_neg) / 2.0)


def evaluate(
    predicted_kept: set[PairKey], dataset: list[LabeledPair], task: str
) -> tuple[ConfusionCounts, MetricsReport]:
    """Confusion counts and metrics over the labeled dataset only."""
    tp = fp = tn = fn = 0
    for lab in dataset:
        predicted = lab.key in predicted_kept
        positive = lab.positive(task)
        if predicted and positive:
            tp += 1
        elif predicted and not positive:
            fp += 1
        elif not predicted and positive:
            fn += 1
        else:
            tn += 1
    counts = ConfusionCounts(tp, fp, tn, fn)
    return counts, metrics_from_confusion(counts)


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    counts: ConfusionCounts
    metrics: MetricsReport

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            **self.counts.to_dict(),
            **self.metrics.to_dict(),
        }


def sweep(
    scored: list[MappingResult],
    dataset: list[LabeledPair],
    task: str,
    thresholds: list[float],
) -> tuple[list[SweepPoint], float | None]:
    """Evaluate kept = {sas >= t} at each threshold; report the best one.

    Thresholds must be strictly ascending. The best threshold is the
    smallest one attaining the maximum average F1 (None for an empty sweep).
    """
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly ascending")
    points = []
    for t in thresholds:
        kept = {r.key for r in scored if r.sas >= t}
        counts, metrics = evaluate(kept, dataset, task)
        points.append(SweepPoint(t, counts, metrics))
    best = None
    if points:
        best_f1 = max(p.metrics.avg_f1 for p in points)
        best = next(p.threshold for p in points if p.metrics.avg_f1 >= best_f1 - EPS)
    return points, best


# ---------------------------------------------------------------------------
# rule impact between two ablation runs


class PairSetMismatch(RuntimeError):
    pass


def _ranks(results: list[MappingResult]) -> dict[PairKey, int]:
    ordered = sorted(results, key=lambda r: (-r.sas, r.left, r.right))
    return {r.key: i for i, r in enumerate(ordered, 1)}


def rule_impact(
    scored_all: list[MappingResult],
    scored_ex: list[MappingResult],
    code_type_of: dict[PairKey, str] | None = None,
) -> dict:
    """Compare a full run against one exclusion run over the same pairs.

    Per code-type group: how many pairs' scores changed, the signed score
    change of largest magnitude, and the signed rank change (full-run rank
    minus exclusion-run rank) of largest magnitude.
    """
    all_by_key = {r.key: r for r in scored_all}
    ex_by_key = {r.key: r for r in scored_ex}
    if set(all_by_key) != set(ex_by_key):
        raise PairSetMismatch("the two runs cover different pair sets")
    groups: dict[str, list[PairKey]] = {}
    for key in all_by_key:
        group = code_type_of.get(key, "all") if code_type_of else "all"
        groups.setdefault(group, []).append(key)
    report = {}
    for group in sorted(groups):
        keys = groups[group]
        ranks_all = _ranks([all_by_key[k] for k in keys])
        ranks_ex = _ranks([ex_by_key[k] for k in keys])
        affected = 0
        max_sas_delta = 0.0
        max_rank_delta = 0
        for key in sorted(keys):
            sas_delta = all_by_key[key].sas - ex_by_key[key].sas
            if abs(sas_delta) > EPS:
                affected += 1
            if abs(sas_delta) > abs(max_sas_delta) + EPS:
                max_sas_delta = sas_delta
            rank_delta = ranks_all[key] - ranks_ex[key]
            if abs(rank_delta) > abs(max_rank_delta):
                max_rank_delta = rank_delta
        report[group] = {
            "pairs": len(keys),
            "affected": affected,
            "max_sas_change": round(max_sas_delta, 6),
            "max_rank_change": max_rank_delta,
        }
    return report


# ---------------------------------------------------------------------------
# weight tuning


@dataclass(frozen=True)
class TunerConfig:
    grid_step: float = 0.05
    objective_k: int | None = None  # default: number of positives

    def __post_init__(self):
        if not (math.isfinite(self.grid_step) and 0.0 < self.grid_step <= 1.0):
            raise ValueError(f"grid_step={self.grid_step} outside (0,1]")
        if self.objective_k is not None and self.objective_k < 1:
            raise ValueError(f"objective_k={self.objective_k} must be at least 1")
        n = round(1.0 / self.grid_step)
        if abs(n * self.grid_step - 1.0) > EPS:
            raise ValueError(f"grid_step={self.grid_step} must divide 1 evenly")


@dataclass(frozen=True)
class TrainingExample:
    """Weight-independent per-field similarities plus the label."""

    key: PairKey
    fields: dict  # field name -> similarity or None (absent)
    label: bool

    @staticmethod
    def from_result(result: MappingResult, label: bool) -> "TrainingExample":
        b = result.breakdown
        return TrainingExample(
            key=result.key,
            fields={name: getattr(b, f"sim_{name}") for name in FIELDS},
            label=label,
        )


def simplex_grid(step: float) -> list[tuple[int, int, int, int]]:
    """Integer triples (i, j, k) with i+j+k == n where n = 1/step."""
    n = round(1.0 / step)
    return [(i, j, n - i - j, n) for i in range(n + 1) for j in range(n - i + 1)]


def tune(training: list[TrainingExample], cfg: TunerConfig | None = None) -> WeightConfig:
    """Exhaustive simplex grid search maximizing true positives in the top K.

    K defaults to the number of positive examples. Ties prefer the config
    with the largest minimum weight, then the lexicographically largest
    (alpha, beta, theta, delta, eta, phi) tuple.
    """
    import numpy as np  # only the tuner needs it; every other command starts without it

    cfg = cfg or TunerConfig()
    if not training:
        raise ValueError("training set is empty")
    positives = sum(1 for ex in training if ex.label)
    if positives == 0:
        raise ValueError("training set has no positive examples")
    k = cfg.objective_k if cfg.objective_k is not None else positives

    order = np.argsort(np.array([f"{ex.key[0]}\x00{ex.key[1]}" for ex in training]))
    examples = [training[i] for i in order]

    # the 0/0 policies of WeightConfig(), which the returned config carries
    policies = WeightConfig()
    filled = np.array(
        [policy_filled(tuple(ex.fields[name] for name in FIELDS), policies)[:5] for ex in examples]
    )
    sim_class, mn, rt, pm, sim_opt = filled.T
    labels = np.array([1 if ex.label else 0 for ex in examples])
    tiebreak = np.arange(len(examples))  # already in key order

    grid = simplex_grid(cfg.grid_step)
    best_key = None
    best_cfg = None
    for di, ei, fi, n in grid:
        header = (di * mn + ei * rt + fi * pm) / n
        for ai, bi, ti, _ in grid:
            sas = (ai * sim_class + bi * header + ti * sim_opt) / n
            # stable order: sas descending, then pair-key ascending
            top = np.lexsort((tiebreak, -sas))[:k]
            score = int(labels[top].sum())
            min_w = min(ai, bi, ti, di, ei, fi)
            key = (score, min_w, (ai, bi, ti, di, ei, fi))
            if best_key is None or key > best_key:
                best_key = key
                best_cfg = (ai / n, bi / n, ti / n, di / n, ei / n, fi / n)
    a, b, t, d, e, f = best_cfg
    return WeightConfig(alpha=a, beta=b, theta=t, delta=d, eta=e, phi=f)
