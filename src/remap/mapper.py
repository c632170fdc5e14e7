"""Score candidate pairs and write ranked mapping reports.

``score_columns`` is the one scoring loop, for ``score``, ``ablate`` and
``impact``: it measures the pairs once per rule set and aggregates one score
column per ablation mode. A summary only counts a column's kept scores; a
jsonl or csv report sorts the pairs and builds each row only as it is written.

``measure_pairs`` measures the pairs of a left record whose right records
are the previous left record's, as a cross product gives, by one kernel
pass per left field over those right fields packed side by side
(``simcore.pack_row``); any other left record's pairs, as most of a
detector's report and the class pre-filter's short lists give, pair by
pair.

A column holds no object per pair, and each distinct measurement once:
``pack_fields`` gives each pair a 4-byte code (``array('I')``) of a row in a
table of 8 doubles per distinct ``measure``d 8-tuple (``array('d')``,
``FIELDS`` order, NaN for absent; ``masked_sim`` never gives NaN). Rows are
found by their 64 bytes, so pairs share one only when their doubles are
equal bit for bit, and the dict that finds them is cleared at
``INTERN_CAP`` keys, so memory stays bounded when no two pairs measure alike.
Pairs may repeat measurements heavily (the ``perfbench`` ``exhaustive``
workload, copies of one toy redesign, has 857 distinct among 27,216 at
seed 1) or hardly at all. A row is decoded back to None for absent only
where it is aggregated, so the NaN rule stays in this module.

``ScoreColumn.of`` aggregates each table row once and fills the pairs'
scores through their codes; ``ranked`` shares one breakdown among the rows
of one code tied at one score, and ``report`` encodes the numeric fields of
each shared breakdown once and each distinct id once."""

from __future__ import annotations

import csv
import math
import struct
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from . import ABLATION_MODES, TASK_CODE_MAPPING, TASK_GENUINE_CLONE, PipelineError
from .normalizer import EMPTY_RULESET, RuleSet, normalize_record
from .prefilter import CandidatePair
from .records import (
    MethodRecord, ProjectSnapshot, check_fields, encode_sorted, encode_string, open_output, read_jsonl,
)
from .simcore import (
    EPS, FIELDS, SASBreakdown, WeightConfig, aggregate, class_sims, measure, pack_row, packed_sims, prepare,
)

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


class UnresolvedPairError(PipelineError):
    pass


def resolve_id(snapshot: ProjectSnapshot, rec_id: str) -> MethodRecord:
    """The record that a pair id names in ``snapshot``. An id that it lacks
    is a hard error: the pairs file was produced against other snapshots."""
    rec = snapshot.get(rec_id)
    if rec is None:
        raise UnresolvedPairError(f"pair id {rec_id!r} not found in snapshot {snapshot.project_id!r}")
    return rec


_WIDTH = len(FIELDS)  # doubles per table row of a packed measurement, and fields per measurement

# the shortest group that ``measure_pairs`` packs: a packed pass over fewer right records costs no
# less than measuring them pair by pair, however often the pack is reused
RUN_MIN = 4
RUN_CAP = 128  # pairs per packed run, so a run's kernel row stays a few thousand bits


def measure_pairs(
    pairs: Iterable[CandidatePair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    rules: RuleSet,
    counters: dict | None = None,
) -> Iterator[tuple]:
    """Yield each candidate pair's ``measure``d fields under ``rules``, in order.

    An id that its snapshot lacks is ``resolve_id``'s hard error. Each
    record is normalized once, and the class-level similarities taken once
    per class pair.

    Pairs are taken in groups of consecutive pairs that share a left record.
    A group of at least ``RUN_MIN`` pairs whose right ids are the previous
    group's, as a cross product gives, is measured from packs: its right
    records are split evenly into runs of at most ``RUN_CAP``, each run's
    six method fields are packed into one row per field (``pack_row``), and
    each left field takes one kernel pass over each row. A pack costs about
    two passes pair by pair to build, so it pays only when it is used again:
    the packs are built on the first repeat and kept while the groups keep
    repeating, and any other group is measured pair by pair. Either way each
    similarity is ``masked_sim``'s, bit for bit. ``counters``, when given,
    receives ``packed_pairs``, the pairs measured from packs, and
    ``run_packs_built`` once the pairs are exhausted.
    """
    prepared_left: dict[str, tuple] = {}
    prepared_right: dict[str, tuple] = {}
    class_pairs: dict[tuple[str, str], tuple] = {}
    last: tuple[str, ...] = ()  # the right ids of the group before
    packs: list[tuple] = []  # while groups repeat ``last``: each run's prepared records and rows
    packed_pairs = packs_built = 0

    def prepared(snapshot: ProjectSnapshot, cache: dict, rec_id: str) -> tuple:
        entry = cache.get(rec_id)
        if entry is None:
            rec = resolve_id(snapshot, rec_id)
            details = normalize_record(rec, snapshot.class_of(rec), rules, snapshot.role)
            entry = cache[rec_id] = (rec.class_name, prepare(details))
        return entry

    def class_pair(lclass: str, p1: tuple, rclass: str, p2: tuple) -> tuple:
        sims = class_pairs.get((lclass, rclass))
        if sims is None:
            sims = class_pairs[(lclass, rclass)] = class_sims(p1, p2)
        return sims

    for left_id, group in groupby(pairs, attrgetter("left")):
        key = tuple([pair.right for pair in group])
        lclass, p1 = prepared(left, prepared_left, left_id)
        if len(key) < RUN_MIN or key != last:
            last, packs = key, []
            for rec_id in key:
                rclass, p2 = prepared(right, prepared_right, rec_id)
                yield measure(p1, p2, class_pair(lclass, p1, rclass, p2))
            continue
        if not packs:
            size = -(-len(key) // -(-len(key) // RUN_CAP))  # split evenly: ceiling divisions
            for start in range(0, len(key), size):
                rights = [prepared(right, prepared_right, rec_id) for rec_id in key[start:start + size]]
                packs.append((rights, [pack_row([p2[f] for _, p2 in rights]) for f in range(2, _WIDTH)]))
            packs_built += len(packs)
        for rights, rows in packs:
            columns = [packed_sims(a, row) for a, row in zip(p1[2:], rows)]
            for (rclass, p2), sims in zip(rights, zip(*columns)):
                yield class_pair(lclass, p1, rclass, p2) + sims
        packed_pairs += len(key)
    if counters is not None:
        counters.update(packed_pairs=packed_pairs, run_packs_built=packs_built)


_PACK = struct.Struct(f"{_WIDTH}d").pack  # native doubles, as array('d') holds them

# distinct measurements ``pack_fields`` remembers at once, about 0.6 MB of
# keys; with no cap its dict would hold over 150 B per distinct pair
INTERN_CAP = 4096


def _unpacked(values) -> tuple:
    """One packed table row as ``measure`` gives it, None for absent (NaN)."""
    return tuple([None if v != v else v for v in values])  # only NaN differs from itself


def pack_fields(measured: Iterable[tuple]) -> tuple[array, array]:
    """``measure``d field tuples as ``(codes, table)``: ``table`` holds
    ``len(FIELDS)`` doubles per row, NaN for absent, and ``codes`` one 'I'
    per tuple, its row. A tuple whose doubles are, byte for byte, a row
    already found gets that row, any other a new one; so a shared row holds
    exactly each of its pairs' doubles. The dict that finds rows, keyed by
    their bytes, is cleared once it holds ``INTERN_CAP`` of them, so memory
    stays bounded when every tuple differs, and a tuple seen again after a
    clear gets a second row."""
    codes, table, seen = array("I"), array("d"), {}
    for fields in measured:
        packed = _PACK(*[math.nan if v is None else v for v in fields])
        code = seen.get(packed)
        if code is None:
            if len(seen) == INTERN_CAP:
                seen.clear()
            code = seen[packed] = len(table) // _WIDTH
            table.frombytes(packed)
        codes.append(code)
    return codes, table


class ScoreColumn(NamedTuple):
    """One ablation mode's score of each pair, with the ``measure``d fields
    and weights it aggregates.

    ``codes`` and ``table`` are the ``pack_fields`` measurement of the
    pairs: pair i's fields are table row ``codes[i]``, the doubles
    ``8*code`` to ``8*code + 7``, NaN for absent. ``scores`` holds one
    double per pair, its row's score."""

    mode: str
    weights: WeightConfig
    codes: array
    table: array
    scores: array

    @classmethod
    def of(cls, mode: str, weights: WeightConfig, fields: tuple[array, array]) -> "ScoreColumn":
        """The column that aggregates the packed ``fields`` under ``weights``
        and ``mode``: once per table row, not once per pair."""
        codes, table = fields
        rows = zip(*[iter(table)] * _WIDTH)
        row_scores = array("d", (aggregate(_unpacked(r), weights, mode).sas for r in rows))
        return cls(mode, weights, codes, table, array("d", map(row_scores.__getitem__, codes)))

    def breakdown(self, i: int) -> SASBreakdown:
        """Pair i's score breakdown under the column's weights and mode."""
        row = _WIDTH * self.codes[i]
        return aggregate(_unpacked(self.table[row:row + _WIDTH]), self.weights, self.mode)


def score_columns(
    pairs: list[CandidatePair],
    left: ProjectSnapshot,
    right: ProjectSnapshot,
    rules: RuleSet,
    weights: WeightConfig,
    modes: Iterable[str],
    counters: dict | None = None,
) -> Iterator[ScoreColumn]:
    """Yield the ``ScoreColumn`` of each ablation mode in turn. The pairs are
    measured once per rule set, with the rules and, for EXR1, which disables
    renaming, without them; every mode aggregates one of those measurements.
    ``counters``, when given, receives, by rule-set name, each measured rule
    set's ``distinct_measurements`` (its table rows) and its
    ``measure_pairs`` counts, ``packed_pairs`` and ``run_packs_built``."""
    measured = {}
    for mode in modes:
        if mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode: {mode!r}")
        mode_rules = EMPTY_RULESET if mode == "EXR1" else rules
        if mode_rules not in measured:
            runs = {}
            _, table = measured[mode_rules] = pack_fields(measure_pairs(pairs, left, right, mode_rules, runs))
            if counters is not None:
                for name, count in (("distinct_measurements", len(table) // _WIDTH), *runs.items()):
                    counters.setdefault(name, {})[mode_rules.name] = count
        yield ScoreColumn.of(mode, weights, measured[mode_rules])


def summarize(scores: Sequence[float], threshold: float) -> dict:
    """Orig/Filt/Out% of a score column: Filt counts the scores of at least
    ``threshold``; Out% = 100*(Orig-Filt)/Orig, 0 when empty."""
    orig = len(scores)
    filt = sum(1 for s in scores if s >= threshold)
    out_pct = 0.0 if orig == 0 else 100.0 * (orig - filt) / orig
    return {"orig": orig, "filt": filt, "out_pct": round(out_pct, 2)}


def ranked(pairs: list[CandidatePair], column: ScoreColumn, threshold: float) -> Iterator[MappingResult]:
    """Every pair's result, by score descending, then pair key, then input
    order: the kept rows, those scoring at least ``threshold``, come first,
    so a kept row's rank is its position. A row's breakdown, under the
    column's own weights and mode, and its result are built only as the
    row is taken, and shared by the rows of one measurement tied at one
    score."""
    scores, codes = column.scores, column.codes
    # three stable sorts, least significant key first, so no key is a new tuple
    order = sorted(range(len(scores)), key=lambda i: pairs[i].right)
    order.sort(key=lambda i: pairs[i].left)
    order.sort(key=scores.__getitem__, reverse=True)
    shared, shared_score = {}, None  # the breakdown of each code seen at shared_score
    for position, i in enumerate(order, 1):
        (left, right, provenance), score, code = pairs[i], scores[i], codes[i]
        if score != shared_score:
            shared.clear()
            shared_score = score
        breakdown = shared.get(code)
        if breakdown is None:
            breakdown = shared[code] = column.breakdown(i)
        kept = score >= threshold
        yield MappingResult(left, right, provenance, breakdown, kept, position if kept else None)


_TAIL_FIELDS = SASBreakdown._fields[:12]  # a row's numeric fields: every key from "sas" on


def _jsonl_lines(results: Iterable[MappingResult]) -> Iterator[str]:
    """Each result's ``encode_sorted(r.to_dict())`` line, built from pieces.
    Its keys sort as a head of strings, a bool and a rank, up to
    ``"right"``, and then a numeric tail, from ``"sas"`` on. The head's
    strings are ``encode_sorted``'s. The tail depends only on
    the breakdown, so a row whose breakdown object an earlier row at its
    score had reuses that row's tail."""
    # (breakdown, its line's tail) at tails_sas. An entry is found by value, so the dict holds
    # one per distinct breakdown however many equal objects a caller passes, but used only for
    # the object it holds: an equal one may encode otherwise (1 and 1.0)
    tails, tails_sas = {}, None
    for r in results:
        b = r.breakdown
        if b.sas != tails_sas:
            tails.clear()
            tails_sas = b.sas
        entry = tails.get(b)
        if entry is None or entry[0] is not b:
            entry = tails[b] = (b, encode_sorted(dict(zip(_TAIL_FIELDS, b)))[1:])
        yield (f'{{"ablation": {encode_string(b.ablation)}, "kept": {"true" if r.kept else "false"}, '
               f'"left": {encode_string(r.left)}, "provenance": {encode_string(r.provenance)}, '
               f'"rank": {"null" if r.rank is None else r.rank}, "right": {encode_string(r.right)}, {entry[1]}\n')


def report(results: Iterable[MappingResult], out: str | Path, fmt: str = "jsonl") -> None:
    """Write results to ``out`` as jsonl or csv (CRLF row ends) rows, each as it arrives."""
    if fmt == "jsonl":
        with open_output(out) as fh:
            fh.writelines(_jsonl_lines(results))
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
    else:
        raise ValueError(f"unknown report format: {fmt!r}")


# a weight may lie EPS outside [0,1] and a triple sum to 1 +- EPS, so aggregate's weighted sums
# leave [0,1] by up to 2 EPS (the header) and 4 EPS (the score over it), plus rounding
SCORE_SLACK = 5 * EPS
_RESULT_FIELDS = {
    "left": (str,), "right": (str,), "provenance": (str,), "kept": (bool,), "rank": (int, type(None)),
    **dict.fromkeys(SASBreakdown._fields[:8], (float, int, type(None))),  # per-field sims, None if absent
    **dict.fromkeys(SASBreakdown._fields[8:12], (float, int)), "ablation": (str,),
}


def _result_from_json(d) -> MappingResult:
    check_fields(d, _RESULT_FIELDS)
    for f in SASBreakdown._fields[:12]:
        if d[f] is not None and not -SCORE_SLACK <= d[f] <= 1.0 + SCORE_SLACK:  # NaN fails every comparison
            raise ValueError(f"{f} is {d[f]}, not a number in [0,1]")
    if d["kept"] != (d["rank"] is not None) or (d["kept"] and d["rank"] < 1):
        raise ValueError(f"rank is {d['rank']}: a kept row needs a rank of at least 1, a dropped row null")
    breakdown = SASBreakdown(*(d[f] for f in SASBreakdown._fields))
    return MappingResult(d["left"], d["right"], d["provenance"], breakdown, d["kept"], d["rank"])


def load_results(path: str | Path) -> Iterator[MappingResult]:
    """Yield each jsonl row that ``report`` wrote as it is read and checked.

    Raises ValueError, after the rows before it, naming the first line
    that is not JSON, lacks a field of ``MappingResult.to_dict`` with its
    JSON type, holds a similarity or score outside [0,1] by more than
    ``SCORE_SLACK``, has a rank that does not fit its ``kept``, or breaks
    ``ranked``'s order: the kept rows come first, ranked 1..k in file
    order, and each scores above every dropped row.
    """
    kept, lowest, dropped = 0, math.inf, False  # kept rows so far, their lowest score, a dropped row seen

    def parse(d) -> MappingResult:
        nonlocal kept, lowest, dropped
        r = _result_from_json(d)
        if not r.kept:
            if r.sas >= lowest:
                raise ValueError(f"a dropped row's sas {r.sas} is not below the lowest kept sas {lowest}")
            dropped = True
        elif dropped:
            raise ValueError("a kept row follows a dropped row: the kept rows come first")
        elif r.rank != kept + 1:
            raise ValueError(f"rank is {r.rank}, not {kept + 1}: the kept rows are ranked in file order")
        else:
            kept, lowest = r.rank, min(lowest, r.sas)
        return r

    return read_jsonl(path, parse)
