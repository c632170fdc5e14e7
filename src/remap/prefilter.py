"""Class-level pre-filtering of the cross-project method pair space.

Cross-product class pairs are kept when their rule-normalized qualified
names are similar enough; methods are then paired only within retained
class pairs, with line-ratio and body-embedding cutoffs. This shrinks the
pair universe by orders of magnitude before any expensive detector runs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .normalizer import FIELD_CLASS_NAME, RuleSet, normalize_field, tokenize
from .records import MethodRecord, ProjectSnapshot, encode_string, open_output
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


FORMAT_VERSION = 1  # of the pairs JSONL that ``save_pairs`` writes and ``ingest.load_pairs`` reads
# a pair's line, ``encode_sorted(pair.to_dict())``, with the JSON encodings of its detector,
# left and right ids in place of the ``%s``: the one shape that ``save_pairs`` writes
PAIR_LINE = '{"detector": %s, "format_version": ' + str(FORMAT_VERSION) + ', "left": {"key": %s}, "right": {"key": %s}}'


class CandidatePair(NamedTuple):
    """A cross-project method pair under consideration.

    left is always a record id from the original project, right from the
    redesigned one; provenance names the producer (a detector, 'prefilter',
    or 'exhaustive'). A tuple, so a pair holds no more than its three
    references, which ``ingest.load_pairs`` shares among the pairs of a file.
    """

    left: str
    right: str
    provenance: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.left, self.right)

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "detector": self.provenance,
            "left": {"key": self.left},
            "right": {"key": self.right},
        }


def _bag_of_tokens(body_text: str) -> tuple[Counter, float]:
    """A body's token counts and their Euclidean norm."""
    counts = Counter(tokenize(body_text))
    return counts, math.sqrt(sum(c * c for c in counts.values()))


def _cosine(a: tuple[Counter, float], b: tuple[Counter, float]) -> float:
    (ca, na), (cb, nb) = a, b
    if not ca or not cb:
        return 1.0 if not ca and not cb else 0.0
    # a non-empty count vector has a norm of at least 1
    return sum(cnt * cb[tok] for tok, cnt in ca.items()) / (na * nb)


class BagOfTokensEmbedder:
    """Cosine of token-count vectors over body tokens.

    No renaming is applied, so identical bodies always score 1 regardless of
    project role.
    """

    def __init__(self):
        self._cache: dict[str, tuple[Counter, float]] = {}

    def similarity(self, left: MethodRecord, right: MethodRecord) -> float:
        a = self._cache.get(left.id)
        if a is None:
            a = self._cache[left.id] = _bag_of_tokens(left.body_text)
        b = self._cache.get(right.id)
        if b is None:
            b = self._cache[right.id] = _bag_of_tokens(right.body_text)
        return _cosine(a, b)


def _elements(tokens) -> list[tuple[str, int]]:
    """A token sequence as a set: the k-th occurrence of a token is
    ``(token, k)``, so multiset overlap is set overlap."""
    seen: Counter = Counter()
    out = []
    for tok in tokens:
        out.append((tok, seen[tok]))
        seen[tok] += 1
    return out


def filter_classes(
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    rules: RuleSet,
    cfg: PrefilterConfig | None = None,
    counters: dict | None = None,
) -> list[ClassPair]:
    """Retain cross-product class pairs whose qualified names, tokenized by
    ``normalize_field`` as ``sim_class_name`` sees them, reach the
    similarity threshold, in (left, right) name order.

    A similarity join: a pair of n and m tokens reaches t only if its LCS,
    and so its count of shared tokens, reaches the least k with
    2k/(n+m) >= t (overlap filter), and that k is at most min(n, m) (length
    filter). Right names are indexed by token; each left name probes the
    index with the prefix of its tokens, rarest first, that must hold a
    shared one, and only the candidates that pass the length filter get an
    LCS. ``counters``, when given, receives ``class_pairs_scored``.
    """
    cfg = cfg or PrefilterConfig()
    t = cfg.class_sim_threshold

    def names(snapshot: ProjectSnapshot) -> list[tuple[str, tuple]]:
        return [
            (name, masked(tuple(normalize_field(name, FIELD_CLASS_NAME, snapshot.role, rules))))
            for name in sorted(snapshot.class_index)
        ]

    left_names, right_names = names(left), names(right)
    right_lengths = sorted({len(rm[0]) for _, rm in right_names})
    # the least LCS that reaches t, in masked_sim's own arithmetic, so no
    # float edge can drop a pair; None when even min(n, m) falls short, and
    # no entry for two empty names, which masked_sim gives no similarity
    least_lcs = {
        (n, m): next((k for k in range(min(n, m) + 1) if 2.0 * k / (n + m) >= t), None)
        for n in {len(lm[0]) for _, lm in left_names}
        for m in right_lengths
        if n + m
    }
    index: dict[tuple[str, int], list[int]] = {}
    for j, (_, rm) in enumerate(right_names):
        for el in _elements(rm[0]):
            index.setdefault(el, []).append(j)

    retained: list[ClassPair] = []
    scored = 0
    for lname, lm in left_names:
        n = len(lm[0])
        # the shortest admissible right name needs the fewest shared tokens
        overlap = next((k for m in right_lengths if (k := least_lcs.get((n, m))) is not None), None)
        if overlap is None:
            continue
        if overlap == 0:  # t == 0 keeps zero-similarity pairs too
            candidates = range(len(right_names))
        else:  # any n - overlap + 1 of the n elements include one of `overlap` shared ones
            elements = sorted(_elements(lm[0]), key=lambda el: (len(index.get(el, ())), el))
            candidates = sorted({j for el in elements[: n - overlap + 1] for j in index.get(el, ())})
        for j in candidates:
            rname, rm = right_names[j]
            if least_lcs.get((n, len(rm[0]))) is None:
                continue
            scored += 1
            sim = masked_sim(lm, rm)
            if sim >= t:
                retained.append(ClassPair(lname, rname, sim))
    if counters is not None:
        counters["class_pairs_scored"] = scored
    return retained


def generate_pairs(
    classes: list[ClassPair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    cfg: PrefilterConfig | None = None,
) -> list[CandidatePair]:
    """Pair the methods of each retained class pair, as each snapshot lists
    them by class (``in_class``), dropping pairs whose line counts diverge
    (ratio >= cutoff) or whose body embeddings disagree. A snapshot
    declares each class and record id once, so no pair repeats."""
    cfg = cfg or PrefilterConfig()
    embedder = BagOfTokensEmbedder()
    out: list[CandidatePair] = []
    for cp in classes:
        for lrec in left.in_class(cp.left):
            for rrec in right.in_class(cp.right):
                ratio = max(lrec.loc, rrec.loc) / min(lrec.loc, rrec.loc)
                if ratio >= cfg.line_ratio_cutoff:
                    continue
                if embedder.similarity(lrec, rrec) < cfg.embed_threshold:
                    continue
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
    """Write each pair's ``PAIR_LINE``."""
    with open_output(out) as fh:
        fh.writelines(PAIR_LINE % (encode_string(p.provenance), encode_string(p.left), encode_string(p.right))
                      + "\n" for p in pairs)
