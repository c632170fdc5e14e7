"""Adapters that turn external clone-detector reports into candidate pairs.

Two formats ship: the generic JSONL interchange format (one pair per line,
fragments given as file/line spans or method keys) and NiCad's XML clone
report. Everything else is bridged by converting to the generic format.
Each format has a reader that yields one clone at a time; one loop binds
what both readers yield, so both formats follow one orientation rule: a
span whose path lies below exactly one snapshot root binds only on that
side, a pair binds as reported, else swapped, two fragments that bind only
within one snapshot are dropped as ``same_project``, and anything else is
``unresolved``. Spans bind with ``records.match_fragment``; this module only
reads the report formats.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .prefilter import FORMAT_VERSION, PAIR_LINE, CandidatePair
from .records import MethodRecord, ProjectSnapshot, SourceSpan, match_fragment, parse_json, read_lines


class IngestError(RuntimeError):
    pass


@dataclass
class IngestStats:
    lines: int = 0
    resolved: int = 0
    unresolved: int = 0
    malformed: int = 0
    duplicates: int = 0
    same_project: int = 0
    diagnostics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "diagnostics"}


def _detector(obj: dict) -> str:
    detector = obj.get("detector", "unknown")
    if not isinstance(detector, str):
        raise ValueError(f"detector {detector!r} is not a string")
    return detector


def _fragment(frag) -> str | SourceSpan:
    """A report fragment: a method key, or a line span on the reported path.

    Raises ValueError when the fragment is malformed.
    """
    if isinstance(frag, dict) and "key" in frag:
        if isinstance(frag["key"], str):
            return frag["key"]
    elif isinstance(frag, dict) and all(k in frag for k in ("file", "start", "end")):
        if not isinstance(frag["file"], str):
            raise ValueError(f"fragment file {frag['file']!r} is not a string")
        if not (type(frag["start"]) is int and type(frag["end"]) is int):
            raise ValueError(f"fragment lines {frag['start']!r}..{frag['end']!r} are not integers")
        return SourceSpan(frag["file"], frag["start"], frag["end"])
    raise ValueError("missing left/right fragment fields")


def _generic_clones(path: Path):
    """(``line N``, two fragments or the error, detector) per non-blank line."""
    with path.open("r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = parse_json(line)
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
                frags, detector = (_fragment(obj.get("left")), _fragment(obj.get("right"))), _detector(obj)
            except ValueError as exc:  # JSON that parse_json rejects included
                frags, detector = exc, None
            yield f"line {lineno}", frags, detector


def _nicad_clones(path: Path):
    """(``clone N``, two spans or the error, ``"nicad"``) per <clone> element."""
    try:
        tree = ET.parse(str(path))
    except ET.ParseError as exc:
        raise IngestError(f"malformed NiCad XML: {exc}") from exc
    for n, clone in enumerate(tree.getroot().iter("clone"), 1):
        sources = clone.findall("source")
        try:
            if len(sources) != 2:
                raise ValueError(f"{len(sources)} sources, not 2")
            frags = tuple(
                SourceSpan(src.attrib["file"], int(src.attrib["startline"]), int(src.attrib["endline"]))
                for src in sources
            )
        except KeyError as exc:
            frags = ValueError(f"source has no {exc} attribute")
        except ValueError as exc:  # a non-integer line or start > end
            frags = exc
        yield f"clone {n}", frags, "nicad"


def _bind(frag: str | SourceSpan, side: ProjectSnapshot, other: ProjectSnapshot) -> MethodRecord | None:
    """The method ``frag`` names on ``side``; a path below only the other root binds there alone."""
    if isinstance(frag, str):
        return side.resolve_key(frag)
    path = frag.file_path.replace("\\", "/")
    if other.below_root(path) is not None and side.below_root(path) is None:
        return None
    return match_fragment(side, frag)


def _orient(a, b, left: ProjectSnapshot, right: ProjectSnapshot):
    """The (left, right) records of a clone, or why it is dropped."""
    la, rb = _bind(a, left, right), _bind(b, right, left)
    if la is not None and rb is not None:
        return la, rb
    lb, ra = _bind(b, left, right), _bind(a, right, left)
    if lb is not None and ra is not None:
        return lb, ra
    if (la is not None and lb is not None) or (ra is not None and rb is not None):
        return "same_project"
    return "unresolved"


def _bind_report(clones, left: ProjectSnapshot, right: ProjectSnapshot):
    """Bind a reader's clones to cross-project pairs, deduplicated and sorted.

    Malformed, unresolved and same-project clones (only cross-project
    pairs are mapping candidates) are skipped with a diagnostic each; more than 50% unresolved is a hard error (the report
    likely targets other snapshots).
    """
    stats = IngestStats()
    pairs: dict[tuple[str, str], CandidatePair] = {}
    for where, frags, detector in clones:
        stats.lines += 1
        if isinstance(frags, ValueError):
            stats.malformed += 1
            stats.diagnostics.append(f"{where}: {frags}")
            continue
        bound = _orient(*frags, left, right)
        if isinstance(bound, str):
            setattr(stats, bound, getattr(stats, bound) + 1)
            stats.diagnostics.append(f"{where}: {bound.replace('_', '-')} clone")
            continue
        stats.resolved += 1
        key = (bound[0].id, bound[1].id)
        if key in pairs:
            stats.duplicates += 1
            continue
        pairs[key] = CandidatePair(*key, detector)
    if stats.unresolved > 0.5 * (stats.unresolved + stats.resolved):
        raise IngestError(
            f"{stats.unresolved} of {stats.unresolved + stats.resolved} clones "
            f"unresolved; report probably does not match these snapshots"
        )
    return sorted(pairs.values(), key=lambda p: (p.left, p.right)), stats


def ingest_generic(
    path: str | Path, left: ProjectSnapshot, right: ProjectSnapshot
) -> tuple[list[CandidatePair], IngestStats]:
    """Read a generic JSONL pair report and bind its fragments to records."""
    return _bind_report(_generic_clones(Path(path)), left, right)


def ingest_nicad_xml(
    path: str | Path, left: ProjectSnapshot, right: ProjectSnapshot
) -> tuple[list[CandidatePair], IngestStats]:
    """Read a NiCad clone-pair XML report (<clone><source .../></clone>).

    Malformed XML is a hard error.
    """
    return _bind_report(_nicad_clones(Path(path)), left, right)


def _pair_from_json(obj, strings: dict[str, str]) -> CandidatePair:
    """The pair a JSON line holds, its strings replaced by their first object in ``strings``."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    version = obj.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
        raise ValueError(f"format_version {version!r} is not {FORMAT_VERSION}")
    for side in ("left", "right"):
        fragment = obj.get(side)
        if not (isinstance(fragment, dict) and isinstance(fragment.get("key"), str)):
            raise ValueError(f"{side}.key is missing or not a string")
    values = obj["left"]["key"], obj["right"]["key"], _detector(obj)
    return CandidatePair._make(map(strings.setdefault, values, values))


# ``PAIR_LINE`` with strings that hold no quote, backslash or control character, which JSON
# decodes to themselves: the line of any such pair that ``save_pairs`` wrote
_PAIR_LINE = re.compile(re.escape(PAIR_LINE).replace("%s", r'"([^"\\\x00-\x1f]*)"'))


def load_pairs(path: str | Path) -> list[CandidatePair]:
    """Load key-based pair JSONL previously written by this tool.

    Raises ValueError naming the first line that is not a format-1 pair
    object with ``left.key`` and ``right.key`` strings and a string
    ``detector``, if any. A line of ``save_pairs``' own shape is read by one
    regex match, any other is decoded as JSON, to the same pair. A file
    repeats few ids over many pairs, so the pairs share one string object
    per distinct id and detector.
    """
    strings: dict[str, str] = {}
    match = _PAIR_LINE.fullmatch

    def parse(line: str) -> CandidatePair:
        m = match(line)
        if m is None:
            return _pair_from_json(parse_json(line), strings)
        detector, left, right = m.groups()
        return CandidatePair(strings.setdefault(left, left), strings.setdefault(right, right),
                             strings.setdefault(detector, detector))

    return read_lines(path, parse)
