"""Score candidate pairs, filter by threshold, and write ranked mapping
reports (jsonl, csv or a summary line), each row as it is produced; or
score them into one column per ablation mode, for ``ablate`` and ``impact``."""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

from .normalizer import EMPTY_RULESET, RuleSet, normalize_record
from .prefilter import CandidatePair
from .records import ProjectSnapshot, check_fields, open_output, read_jsonl, write_jsonl
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


def measure_rules(rules: RuleSet, mode: str) -> RuleSet:
    """The rules to measure under in ablation ``mode``: none for EXR1,
    which disables renaming; ``rules`` for every other mode."""
    if mode not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode: {mode!r}")
    return EMPTY_RULESET if mode == "EXR1" else rules


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


def rank(
    measured: Iterable[tuple[CandidatePair, tuple]], weights: WeightConfig, mode: str, threshold: float
) -> list[MappingResult]:
    """Aggregate measured pairs under ``weights`` and ablation ``mode``,
    keep those scoring at least ``threshold``, and rank the kept ones.

    Results are ordered by score descending, then pair key: kept rows first.
    """
    scored = [(pair, aggregate(sims, weights, mode)) for pair, sims in measured]
    scored.sort(key=lambda pb: (-pb[1].sas, pb[0].left, pb[0].right))
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
    rules: RuleSet = EMPTY_RULESET,
    weights: WeightConfig = WeightConfig(),
    mode: str = "ALL",
    threshold: float = 0.5,
) -> list[MappingResult]:
    """Normalize, score, threshold, and rank every candidate pair: ``rank``
    of ``measure_pairs`` under the ``measure_rules`` of ``mode``."""
    return rank(measure_pairs(pairs, left, right, measure_rules(rules, mode)), weights, mode, threshold)


def score_columns(
    pairs: list[CandidatePair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    rules: RuleSet,
    weights: WeightConfig,
    modes: Iterable[str],
) -> Iterator[tuple[str, list[float]]]:
    """Yield (mode, the score of every pair under mode, in pair order) for
    each ablation mode in turn. The pairs are measured once per rule set,
    with the rules and, for EXR1, without them; every mode aggregates one
    of those measurements."""
    measured = {}
    for mode in modes:
        mode_rules = measure_rules(rules, mode)
        if mode_rules not in measured:
            measured[mode_rules] = [sims for _, sims in measure_pairs(pairs, left, right, mode_rules)]
        yield mode, [aggregate(sims, weights, mode).sas for sims in measured[mode_rules]]


def summarize(results: list[MappingResult]) -> dict:
    """Orig/Filt/Out% accounting: Out% = 100*(Orig-Filt)/Orig, 0 when empty."""
    orig = len(results)
    filt = sum(1 for r in results if r.kept)
    out_pct = 0.0 if orig == 0 else 100.0 * (orig - filt) / orig
    return {"orig": orig, "filt": filt, "out_pct": round(out_pct, 2)}


def report(results: list[MappingResult], out: str | Path, fmt: str = "jsonl") -> None:
    """Write results to ``out`` as jsonl rows, csv (CRLF row ends) or a one-line summary."""
    if fmt == "jsonl":
        write_jsonl(out, (r.to_dict() for r in results))
    elif fmt == "csv":
        fieldnames = [
            "left", "right", "provenance", "kept", "rank", "sas",
            "sim_class", "sim_method_header", "sim_optional",
            "sim_class_name", "sim_class_doc", "sim_method_name",
            "sim_return_type", "sim_param", "sim_local_var",
            "sim_method_doc", "sim_comment", "ablation",
        ]
        with open_output(out, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(r.to_dict() for r in results)
    elif fmt == "summary":
        write_jsonl(out, [summarize(results)])
    else:
        raise ValueError(f"unknown report format: {fmt!r}")


_RESULT_FIELDS = {
    "left": (str,), "right": (str,), "provenance": (str,), "kept": (bool,), "rank": (int, type(None)),
    **dict.fromkeys(SASBreakdown._fields[:8], (float, int, type(None))),  # per-field sims, None if absent
    **dict.fromkeys(SASBreakdown._fields[8:12], (float, int)), "ablation": (str,),
}


def _result_from_json(d) -> MappingResult:
    check_fields(d, _RESULT_FIELDS)
    breakdown = SASBreakdown(*(d[f] for f in SASBreakdown._fields))
    return MappingResult(d["left"], d["right"], d["provenance"], breakdown, d["kept"], d["rank"])


def load_results(path: str | Path) -> list[MappingResult]:
    """Read jsonl rows that ``report`` wrote.

    Raises ValueError naming the first line that is not JSON or lacks a
    field of ``MappingResult.to_dict`` with its JSON type.
    """
    return read_jsonl(path, _result_from_json)
