"""Adapters that turn external clone-detector reports into candidate pairs.

Two formats ship: the generic JSONL interchange format (one pair per line,
fragments given as file/line spans or method keys) and NiCad's XML clone
report. Everything else is bridged by converting to the generic format.
Fragments bind to methods with ``records.match_fragment``; this module only
reads the report formats.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from .prefilter import CandidatePair
from .records import MethodRecord, ProjectSnapshot, SourceSpan, match_fragment, read_jsonl

FORMAT_VERSION = 1


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
        try:
            start, end = int(frag["start"]), int(frag["end"])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"fragment lines {frag['start']!r}..{frag['end']!r} are not integers"
            ) from None
        return SourceSpan(frag["file"], start, end)
    raise ValueError("missing left/right fragment fields")


def _resolve_fragment(frag: str | SourceSpan, snapshot: ProjectSnapshot) -> MethodRecord | None:
    if isinstance(frag, str):
        return snapshot.resolve_key(frag)
    # as in NiCad, match_fragment runs only on a path that resolves, so the
    # traced call count is the number of spans bound against a known file
    return match_fragment(snapshot, frag) if snapshot.resolve_path(frag.file_path) else None


def ingest_generic(
    path: str | Path, left: ProjectSnapshot, right: ProjectSnapshot
) -> tuple[list[CandidatePair], IngestStats]:
    """Read generic JSONL pair reports and bind fragments to records.

    Malformed lines are skipped with a diagnostic; more than 50% unresolved
    fragments is a hard error (the report likely targets other snapshots).
    """
    stats = IngestStats()
    pairs: dict[tuple[str, str], CandidatePair] = {}
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            stats.lines += 1
            try:
                obj = json.loads(line)
                lfrag, rfrag = _fragment(obj.get("left")), _fragment(obj.get("right"))
            except (json.JSONDecodeError, ValueError, AttributeError) as exc:
                stats.malformed += 1
                stats.diagnostics.append(f"line {lineno}: {exc}")
                continue
            detector = obj.get("detector", "unknown")
            lrec = _resolve_fragment(lfrag, left)
            rrec = _resolve_fragment(rfrag, right)
            if lrec is None or rrec is None:
                # reports do not always orient pairs; try the swap
                lrec2 = _resolve_fragment(rfrag, left)
                rrec2 = _resolve_fragment(lfrag, right)
                if lrec2 is not None and rrec2 is not None:
                    lrec, rrec = lrec2, rrec2
            if lrec is None or rrec is None:
                stats.unresolved += 1
                stats.diagnostics.append(f"line {lineno}: unresolved fragment")
                continue
            stats.resolved += 1
            key = (lrec.id, rrec.id)
            if key in pairs:
                stats.duplicates += 1
                continue
            pairs[key] = CandidatePair(lrec.id, rrec.id, detector)
    if stats.lines > 0 and stats.unresolved > 0.5 * (stats.unresolved + stats.resolved):
        raise IngestError(
            f"{stats.unresolved} of {stats.unresolved + stats.resolved} fragments "
            f"unresolved; report probably does not match these snapshots"
        )
    out = sorted(pairs.values(), key=lambda p: (p.left, p.right))
    return out, stats


def _which_side(path: str, left: ProjectSnapshot, right: ProjectSnapshot):
    """Resolve a path against both snapshots, trusting the root prefix first.

    The two trees often share relative layouts, so a path that sits under
    exactly one snapshot root is resolved only against that side.
    """
    p = path.replace("\\", "/")
    under_left = p.startswith(left.root_prefix)
    under_right = p.startswith(right.root_prefix)
    if under_left and not under_right:
        return left.resolve_path(p), None
    if under_right and not under_left:
        return None, right.resolve_path(p)
    return left.resolve_path(p), right.resolve_path(p)


def ingest_nicad_xml(
    path: str | Path, left: ProjectSnapshot, right: ProjectSnapshot
) -> tuple[list[CandidatePair], IngestStats]:
    """Read a NiCad clone-pair XML report (<clone><source .../></clone>).

    Pairs with both fragments inside one project are dropped (counted), as
    only cross-project pairs are mapping candidates. Malformed XML is a
    hard error.
    """
    stats = IngestStats()
    try:
        tree = ET.parse(str(path))
    except ET.ParseError as exc:
        raise IngestError(f"malformed NiCad XML: {exc}") from exc
    pairs: dict[tuple[str, str], CandidatePair] = {}
    for n, clone in enumerate(tree.getroot().iter("clone"), 1):
        stats.lines += 1
        sources = clone.findall("source")
        if len(sources) != 2:
            stats.malformed += 1
            stats.diagnostics.append(f"clone {n}: {len(sources)} sources, not 2")
            continue
        try:
            frags = [
                SourceSpan(src.attrib["file"], int(src.attrib["startline"]), int(src.attrib["endline"]))
                for src in sources
            ]
        except (KeyError, ValueError) as exc:  # a missing attribute, a non-integer or start > end
            stats.malformed += 1
            stats.diagnostics.append(f"clone {n}: bad source {exc!r}")
            continue
        (l0, r0), (l1, r1) = (_which_side(f.file_path, left, right) for f in frags)
        if l0 and r1 and not (r0 and l1):
            lrec, rrec = match_fragment(left, frags[0]), match_fragment(right, frags[1])
        elif r0 and l1 and not (l0 and r1):
            lrec, rrec = match_fragment(left, frags[1]), match_fragment(right, frags[0])
        elif (l0 and l1) or (r0 and r1):
            stats.same_project += 1
            continue
        else:
            stats.unresolved += 1
            continue
        if lrec is None or rrec is None:
            stats.unresolved += 1
            continue
        stats.resolved += 1
        key = (lrec.id, rrec.id)
        if key in pairs:
            stats.duplicates += 1
            continue
        pairs[key] = CandidatePair(lrec.id, rrec.id, "nicad")
    out = sorted(pairs.values(), key=lambda p: (p.left, p.right))
    return out, stats


def _pair_from_json(obj) -> CandidatePair:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"format_version {version!r} is not {FORMAT_VERSION}")
    for side in ("left", "right"):
        fragment = obj.get(side)
        if not (isinstance(fragment, dict) and isinstance(fragment.get("key"), str)):
            raise ValueError(f"{side}.key is missing or not a string")
    return CandidatePair(obj["left"]["key"], obj["right"]["key"], obj.get("detector", "unknown"))


def load_pairs(path: str | Path) -> list[CandidatePair]:
    """Load key-based pair JSONL previously written by this tool.

    Raises ValueError naming the first line that is not a format-1 pair
    object with ``left.key`` and ``right.key`` strings.
    """
    return read_jsonl(path, _pair_from_json)
