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

from . import TASK_CODE_MAPPING, TASK_GENUINE_CLONE
from .mapper import MappingResult
from .simcore import EPS, FIELDS, WeightConfig, policy_filled, weighted_sum

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
    mapping = row["is_code_mapping"].strip().lower()
    if mapping not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"is_code_mapping {row['is_code_mapping']!r} is not true, false, yes, no, 1 or 0")
    return LabeledPair(
        left=row["left_key"],
        right=row["right_key"],
        clone_type=row["clone_type"],
        is_code_mapping=mapping in ("true", "yes", "1"),
        code_type=row.get("code_type") or "production",
        source_tools=frozenset(t for t in (row.get("tools") or "").split(";") if t),
    )


def load_labels(path: str | Path) -> list[LabeledPair]:
    """Read the labeled dataset CSV
    (left_key,right_key,clone_type,is_code_mapping,code_type,tools).

    Raises ValueError naming the line of a header that lacks one of the
    first four columns, of a row that has no value for one, an unknown
    clone type or an ``is_code_mapping`` not true, false, yes, no, 1 or 0
    (in any case), or of a row whose pair an earlier row labeled.
    """
    out, lines = [], {}  # the labels, and the line that labeled each pair
    with Path(path).open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = [c for c in _LABEL_COLUMNS if c not in (reader.fieldnames or _LABEL_COLUMNS)]
            if missing:  # an empty file has no header, and no rows either
                raise ValueError(f"line 1: the header lacks {', '.join(missing)}")
            for row in reader:
                try:
                    lab = _label_from_row(row)
                    if lab.key in lines:
                        raise ValueError(f"{lab.left} / {lab.right} is already labeled on line {lines[lab.key]}")
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
                lines[lab.key] = reader.line_num
                out.append(lab)
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
# rule impact between two ablation score columns, by code type


def code_types(pairs, left, right) -> dict[PairKey, str]:
    """Each pair's code type by its records' ``is_test``: production, test,
    or mixed; a pair with an id that its snapshot lacks gets none."""
    out = {}
    for p in pairs:
        lrec, rrec = left.get(p.left), right.get(p.right)
        if lrec is not None and rrec is not None:
            out[p.key] = "mixed" if lrec.is_test != rrec.is_test else "test" if lrec.is_test else "production"
    return out


def _ranks(scores: dict[PairKey, float], keys: list[PairKey]) -> dict[PairKey, int]:
    ordered = sorted(keys, key=lambda k: (-scores[k], k))
    return {k: i for i, k in enumerate(ordered, 1)}


def rule_impact(
    scores_all: dict[PairKey, float],
    scores_ex: dict[PairKey, float],
    code_type_of: dict[PairKey, str] | None = None,
) -> dict:
    """Compare a full run's scores against one exclusion run's, both
    keyed by the same pairs.

    Per group of ``code_type_of`` (``code_types``), or in one group "all":
    how many pairs' scores changed, the signed score change of largest
    magnitude, and the signed rank change (full-run rank minus
    exclusion-run rank, ranking by score descending, then by pair key) of
    largest magnitude.
    """
    groups: dict[str, list[PairKey]] = {}
    for key in scores_all:
        group = code_type_of.get(key, "all") if code_type_of else "all"
        groups.setdefault(group, []).append(key)
    report = {}
    for group in sorted(groups):
        keys = groups[group]
        ranks_all = _ranks(scores_all, keys)
        ranks_ex = _ranks(scores_ex, keys)
        affected = 0
        max_sas_delta = 0.0
        max_rank_delta = 0
        for key in sorted(keys):
            sas_delta = scores_all[key] - scores_ex[key]
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


def simplex_grid(step: float) -> list[tuple[int, int, int, int]]:
    """Integer triples (i, j, k) with i+j+k == n where n = 1/step, in
    lexicographic order."""
    n = round(1.0 / step)
    return [(i, j, n - i - j, n) for i in range(n + 1) for j in range(n - i + 1)]


def top_k(training: list[tuple[MappingResult, bool]], cfg: TunerConfig) -> int:
    """K of ``tune``'s objective: ``cfg.objective_k``, or the number of
    positive examples, capped at the number of examples."""
    k = cfg.objective_k if cfg.objective_k is not None else sum(1 for _, label in training if label)
    return min(k, len(training))


def top_k_positives(scores, labels, k: int):
    """For each row of a G x N score matrix, how many of the N boolean
    ``labels`` are true among the row's first ``k`` entries (all N when k > N)
    in a stable sort by score descending, which keeps tied scores in column
    order."""
    import numpy as np

    n = scores.shape[1]
    k = min(k, n)
    kth = np.partition(scores, n - k, axis=1)[:, n - k, None]  # each row's K-th largest score
    top = scores >= kth
    counts = (top & labels).sum(axis=1)
    excess = top.sum(axis=1) - k
    over = np.flatnonzero(excess)
    if over.size:  # rows whose ties at the K-th score run past K: their last `excess` tied columns drop out
        tied = scores[over] == kth[over]
        late = tied & (np.cumsum(tied, axis=1) > (tied.sum(axis=1) - excess[over])[:, None])
        counts[over] -= (late & labels).sum(axis=1)
    return counts


_BLOCK_ROWS = 32  # score configs per block; the block, not the grid, sets tune's working set


def tune(training: list[tuple[MappingResult, bool]], cfg: TunerConfig | None = None) -> WeightConfig:
    """Exhaustive simplex grid search maximizing true positives in the top K.

    Each example is a scored row and its label; the row's ``key`` and the
    ``measure``d fields that open its breakdown are all the tuner reads.
    K (``top_k``) defaults to the number of positive examples and is capped
    at the number of examples. Under each config, every example scores what
    ``aggregate`` gives it under the config's ``WeightConfig``, and the
    examples rank by score descending, then by pair key. Ties prefer the
    config with the largest minimum weight, then the lexicographically
    largest (alpha, beta, theta, delta, eta, phi) tuple.

    The score configs (alpha, beta, theta) go ``_BLOCK_ROWS`` at a time;
    under each header config (delta, eta, phi) one partition per block row
    counts the positives in its top K, so no config sorts the examples.
    """
    import numpy as np  # only the tuner needs it; every other command starts without it

    cfg = cfg or TunerConfig()
    if not training:
        raise ValueError("training set is empty")
    if not any(label for _, label in training):
        raise ValueError("training set has no positive examples")
    k = top_k(training, cfg)

    examples = sorted(training, key=lambda ex: ex[0].key)
    filled = np.array([policy_filled(row.breakdown[:len(FIELDS)]) for row, _ in examples])
    sim_class, mn, rt, pm, sim_opt = filled.T
    labels = np.array([label for _, label in examples])

    grid = simplex_grid(cfg.grid_step)
    ints = np.array([g[:3] for g in grid])
    weights = ints / grid[0][3]  # the float triples i/n, as WeightConfig holds them
    mins = ints.min(axis=1)
    buffer = np.empty((_BLOCK_ROWS, len(examples)))
    best = (-1,)  # (positives, minimum weight, score config, header config)
    for lo in range(0, len(grid), _BLOCK_ROWS):
        block = weights[lo:lo + _BLOCK_ROWS]
        alpha_class, beta, theta_opt = block[:, :1] * sim_class, block[:, 1:2], block[:, 2:] * sim_opt
        sas = buffer[:len(block)]
        found = np.empty((len(block), len(grid)), dtype=np.int64)
        for h, header_weights in enumerate(weights):
            header = weighted_sum(header_weights, (mn, rt, pm))
            # weighted_sum's (a*x + b*y) + c*z for every row, so each score has aggregate's bits
            np.add(alpha_class, np.multiply(beta, header, out=sas), out=sas)
            np.add(sas, theta_opt, out=sas)
            found[:, h] = top_k_positives(sas, labels, k)
        # the grid is in lexicographic order, so the order of (score config,
        # header config) index pairs is the order of the int tuples
        for s, h in zip(*np.nonzero(found == found.max())):
            best = max(best, (int(found[s, h]), int(min(mins[lo + s], mins[h])), lo + int(s), int(h)))
    return WeightConfig(*weights[best[2]].tolist(), *weights[best[3]].tolist())
