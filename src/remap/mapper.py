"""Score candidate pairs, filter by threshold, emit ranked mapping reports."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .normalizer import EMPTY_RULESET, RuleSet, normalize_record
from .prefilter import CandidatePair
from .records import ProjectSnapshot, check_fields
from .simcore import ABLATION_MODES, SASBreakdown, WeightConfig, aggregate, class_sims, measure, prepare

TASK_GENUINE_CLONE = "genuine_clone"
TASK_CODE_MAPPING = "code_mapping"

# default thresholds per (redesign profile, task); heavy redesign pairs use
# lower cutoffs than lightly redesigned ones
DEFAULT_THRESHOLDS = {
    ("heavy-redesign", TASK_GENUINE_CLONE): 0.5,
    ("heavy-redesign", TASK_CODE_MAPPING): 0.6,
    ("light-redesign", TASK_GENUINE_CLONE): 0.6,
    ("light-redesign", TASK_CODE_MAPPING): 0.8,
}


def default_threshold(profile: str, task: str) -> float:
    try:
        return DEFAULT_THRESHOLDS[(profile, task)]
    except KeyError:
        raise ValueError(f"no default threshold for profile={profile!r} task={task!r}")


@dataclass(frozen=True)
class FilterConfig:
    thres_sas: float = 0.5
    weights: WeightConfig = field(default_factory=WeightConfig)
    ablation: str = "ALL"  # one of ABLATION_MODES
    rules: RuleSet = field(default_factory=lambda: EMPTY_RULESET, compare=False, hash=False)

    def __post_init__(self):
        if not 0.0 <= self.thres_sas <= 1.0:
            raise ValueError(f"thres_sas={self.thres_sas} outside [0,1]")
        if self.ablation not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode: {self.ablation!r}")

    @property
    def measure_rules(self) -> RuleSet:
        """The rules to measure under: none for EXR1, which disables renaming."""
        return EMPTY_RULESET if self.ablation == "EXR1" else self.rules


class MappingResult(NamedTuple):
    left: str
    right: str
    provenance: str
    breakdown: SASBreakdown
    kept: bool
    rank: int | None  # 1-based among kept pairs by descending score

    @property
    def key(self) -> tuple[str, str]:
        return (self.left, self.right)

    @property
    def sas(self) -> float:
        return self.breakdown.sas

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "provenance": self.provenance,
            "kept": self.kept,
            "rank": self.rank,
            **self.breakdown._asdict(),
        }


class UnresolvedPairError(RuntimeError):
    pass


def measure_pairs(
    pairs: Iterable[CandidatePair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    rules: RuleSet,
) -> Iterator[tuple[CandidatePair, tuple]]:
    """Yield each candidate pair with its ``measure``d fields under ``rules``.

    An id that does not resolve in its snapshot is a hard error (the pairs
    file was produced against different snapshots). Each record is
    normalized once, and the class-level similarities taken once per class
    pair.
    """
    prepared_left: dict[str, tuple] = {}
    prepared_right: dict[str, tuple] = {}
    class_pairs: dict[tuple[str, str], tuple] = {}

    def prepared(snapshot: ProjectSnapshot, cache: dict, rec_id: str) -> tuple:
        entry = cache.get(rec_id)
        if entry is None:
            rec = snapshot.get(rec_id)
            if rec is None:
                raise UnresolvedPairError(
                    f"pair id {rec_id!r} not found in snapshot {snapshot.project_id!r}"
                )
            details = normalize_record(rec, snapshot.class_of(rec), rules, snapshot.role)
            entry = cache[rec_id] = (rec.class_name, prepare(details))
        return entry

    for pair in pairs:
        lclass, p1 = prepared(left, prepared_left, pair.left)
        rclass, p2 = prepared(right, prepared_right, pair.right)
        class_pair = class_pairs.get((lclass, rclass))
        if class_pair is None:
            class_pair = class_pairs[(lclass, rclass)] = class_sims(p1, p2)
        yield pair, measure(p1, p2, class_pair)


def rank(measured: Iterable[tuple[CandidatePair, tuple]], cfg: FilterConfig) -> list[MappingResult]:
    """Aggregate measured pairs under ``cfg``'s weights and ablation,
    threshold them, and rank the kept ones.

    Results are ordered by (kept first, score descending, pair key).
    """
    weights, mode, threshold = cfg.weights, cfg.ablation, cfg.thres_sas
    scored = [(pair, aggregate(sims, weights, mode)) for pair, sims in measured]
    scored.sort(key=lambda pb: (pb[1].sas < threshold, -pb[1].sas, pb[0].left, pb[0].right))
    results = []
    for position, (p, b) in enumerate(scored, 1):
        kept = b.sas >= threshold
        # kept rows sort first, so a kept row's position is its rank
        results.append(MappingResult(p.left, p.right, p.provenance, b, kept, position if kept else None))
    return results


def score_pairs(
    pairs: list[CandidatePair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    cfg: FilterConfig,
) -> list[MappingResult]:
    """Normalize, score, threshold, and rank every candidate pair: ``rank``
    of ``measure_pairs`` under ``cfg``'s rules."""
    return rank(measure_pairs(pairs, left, right, cfg.measure_rules), cfg)


def summarize(results: list[MappingResult]) -> dict:
    """Orig/Filt/Out% accounting: Out% = 100*(Orig-Filt)/Orig, 0 when empty."""
    orig = len(results)
    filt = sum(1 for r in results if r.kept)
    out_pct = 0.0 if orig == 0 else 100.0 * (orig - filt) / orig
    return {"orig": orig, "filt": filt, "out_pct": round(out_pct, 2)}


_ROW_ENCODER = json.JSONEncoder(sort_keys=True)  # one encoder: json.dumps builds one per call


def report(results: list[MappingResult], fmt: str = "jsonl") -> str:
    """Serialize results as jsonl, csv, or a summary block."""
    if fmt == "jsonl":
        return "".join(_ROW_ENCODER.encode(r.to_dict()) + "\n" for r in results)
    if fmt == "csv":
        buf = io.StringIO()
        fieldnames = [
            "left", "right", "provenance", "kept", "rank", "sas",
            "sim_class", "sim_method_header", "sim_optional",
            "sim_class_name", "sim_class_doc", "sim_method_name",
            "sim_return_type", "sim_param", "sim_local_var",
            "sim_method_doc", "sim_comment", "ablation",
        ]
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(r.to_dict() for r in results)
        return buf.getvalue()
    if fmt == "summary":
        return json.dumps(summarize(results), sort_keys=True) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")


_RESULT_FIELDS = {
    "left": (str,), "right": (str,), "provenance": (str,), "kept": (bool,), "rank": (int, type(None)),
    **dict.fromkeys(SASBreakdown._fields[:8], (float, int, type(None))),  # per-field sims, None if absent
    **dict.fromkeys(SASBreakdown._fields[8:12], (float, int)), "ablation": (str,),
}


def load_results(path: str | Path) -> list[MappingResult]:
    """Read jsonl rows that ``report`` wrote.

    Raises ValueError naming the first line that is not JSON or lacks a
    field of ``MappingResult.to_dict`` with its JSON type.
    """
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                check_fields(d, _RESULT_FIELDS)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            breakdown = SASBreakdown(*(d[f] for f in SASBreakdown._fields))
            out.append(
                MappingResult(d["left"], d["right"], d["provenance"], breakdown, d["kept"], d["rank"])
            )
    return out


def save_results(results: list[MappingResult], out: Path, fmt: str = "jsonl") -> None:
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report(results, fmt), encoding="utf-8")
