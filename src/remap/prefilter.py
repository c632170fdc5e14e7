"""Class-level pre-filtering of the cross-project method pair space.

Cross-product class pairs are kept when their rule-normalized qualified
names are similar enough; methods are then paired only within retained
class pairs, with line-ratio and body-embedding cutoffs. This shrinks the
pair universe by orders of magnitude before any expensive detector runs.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .normalizer import FIELD_CLASS_NAME, RuleSet, tokenize
from .records import MethodRecord, ProjectSnapshot
from .simcore import masked, masked_sim


@dataclass(frozen=True)
class PrefilterConfig:
    class_sim_threshold: float = 0.5
    line_ratio_cutoff: float = 2.0
    embed_threshold: float = 0.5

    def __post_init__(self):
        for name in ("class_sim_threshold", "embed_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0,1]")
        if not self.line_ratio_cutoff >= 1.0:  # NaN too, which would disable the cutoff
            raise ValueError("line_ratio_cutoff must be >= 1")


@dataclass(frozen=True)
class ClassPair:
    left: str
    right: str
    name_sim: float


@dataclass(frozen=True)
class CandidatePair:
    """A cross-project method pair under consideration.

    left is always a record id from the original project, right from the
    redesigned one; provenance names the producer (a detector, 'prefilter',
    or 'exhaustive').
    """

    left: str
    right: str
    provenance: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.left, self.right)

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "detector": self.provenance,
            "left": {"key": self.left},
            "right": {"key": self.right},
        }


def _bag_of_tokens(body_text: str) -> Counter:
    return Counter(tokenize(body_text))


def _cosine(a: Counter, b: Counter) -> float:
    if not a or not b:
        return 1.0 if not a and not b else 0.0
    dot = sum(cnt * b[tok] for tok, cnt in a.items())
    na = math.sqrt(sum(c * c for c in a.values()))
    nb = math.sqrt(sum(c * c for c in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


class BagOfTokensEmbedder:
    """Cosine of token-count vectors over body tokens.

    No renaming is applied, so identical bodies always score 1 regardless of
    project role.
    """

    def __init__(self):
        self._cache: dict[str, Counter] = {}

    def similarity(self, left: MethodRecord, right: MethodRecord) -> float:
        a = self._cache.get(left.id)
        if a is None:
            a = self._cache[left.id] = _bag_of_tokens(left.body_text)
        b = self._cache.get(right.id)
        if b is None:
            b = self._cache[right.id] = _bag_of_tokens(right.body_text)
        return _cosine(a, b)


def filter_classes(
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    rules: RuleSet,
    cfg: PrefilterConfig | None = None,
) -> list[ClassPair]:
    """Retain cross-product class pairs whose normalized qualified names
    reach the similarity threshold."""
    cfg = cfg or PrefilterConfig()

    def names(snapshot: ProjectSnapshot) -> list[tuple[str, tuple]]:
        return [
            (name, masked(tuple(tokenize(rules.apply(name, FIELD_CLASS_NAME, snapshot.role)))))
            for name in sorted(snapshot.class_index)
        ]

    right_names = names(right)
    retained: list[ClassPair] = []
    for lname, lm in names(left):
        for rname, rm in right_names:
            sim = masked_sim(lm, rm)
            if sim is None:
                continue
            if sim >= cfg.class_sim_threshold:
                retained.append(ClassPair(lname, rname, sim))
    return retained


def generate_pairs(
    classes: list[ClassPair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    cfg: PrefilterConfig | None = None,
) -> list[CandidatePair]:
    """Pair methods within retained class pairs, dropping pairs whose line
    counts diverge (ratio >= cutoff) or whose body embeddings disagree."""
    cfg = cfg or PrefilterConfig()
    embedder = BagOfTokensEmbedder()
    by_class_left: dict[str, list[MethodRecord]] = {}
    for rec in left.records:
        by_class_left.setdefault(rec.class_name, []).append(rec)
    by_class_right: dict[str, list[MethodRecord]] = {}
    for rec in right.records:
        by_class_right.setdefault(rec.class_name, []).append(rec)
    out: list[CandidatePair] = []
    seen: set[tuple[str, str]] = set()
    for cp in classes:
        for lrec in by_class_left.get(cp.left, []):
            for rrec in by_class_right.get(cp.right, []):
                key = (lrec.id, rrec.id)
                if key in seen:
                    continue
                ratio = max(lrec.loc, rrec.loc) / min(lrec.loc, rrec.loc)
                if ratio >= cfg.line_ratio_cutoff:
                    continue
                if embedder.similarity(lrec, rrec) < cfg.embed_threshold:
                    continue
                seen.add(key)
                out.append(CandidatePair(lrec.id, rrec.id, "prefilter"))
    out.sort(key=lambda p: (p.left, p.right))
    return out


def exhaustive_pairs(
    left: ProjectSnapshot, right: ProjectSnapshot, min_loc: int = 5
) -> list[CandidatePair]:
    """Full cross product of methods at or above the minimum line count,
    in (left, right) id order."""
    lids = sorted(r.id for r in left.records if r.loc >= min_loc)
    rids = sorted(r.id for r in right.records if r.loc >= min_loc)
    return [CandidatePair(lid, rid, "exhaustive") for lid in lids for rid in rids]


def save_pairs(pairs: list[CandidatePair], out: Path) -> None:
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps(p.to_dict(), sort_keys=True) + "\n")
