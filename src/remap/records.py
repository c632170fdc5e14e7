"""Core data records shared by the whole pipeline.

A ProjectSnapshot is the parsed view of one Java source tree: every concrete
method as a MethodRecord plus a ClassRecord index. Snapshots are written as
JSON Lines (one method per line) with a sidecar JSON file holding project
metadata and the class index, so every later stage can run from files alone.
Detector reports bind to methods here too: ``ProjectSnapshot.resolve_path``
maps a reported file path onto the snapshot, and ``match_fragment`` binds a
reported line span.

It also holds remap's one JSON decoder and JSONL reader and its writers:
``write_jsonl`` writes sort-keyed rows, each ``encode_sorted`` as it arrives,
and ``write_json`` one indented document, both through ``open_output``, which
makes the directory.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

ROLE_ORIGINAL = "original"
ROLE_REDESIGNED = "redesigned"


def check_fields(obj, fields: dict[str, tuple[type, ...]]) -> None:
    """Raise ValueError unless obj is a dict whose every listed key holds a
    value of exactly one of the key's types (so a bool is not an int)."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    for key, types in fields.items():
        if key not in obj or type(obj[key]) not in types:
            raise ValueError(f"{key} is missing or not {' or '.join(t.__name__ for t in types)}")


def _string_pairs(values: list) -> bool:
    """Whether every entry is a two-string JSON list."""
    return all(type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is str for v in values)


def open_output(path: str | Path, newline: str | None = None):
    """``path`` opened for writing UTF-8 text, its directory created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8", newline=newline)


# a row's sort-keyed JSON; json.dumps would build one encoder per call
encode_sorted = json.JSONEncoder(sort_keys=True).encode


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """Write each row as one line of sort-keyed JSON as soon as it arrives."""
    with open_output(path) as fh:
        fh.writelines(encode_sorted(row) + "\n" for row in rows)


def write_json(path: str | Path, obj) -> None:
    """Write one sort-keyed JSON document, indented by two spaces."""
    with open_output(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def parse_json(text: str):
    """``json.loads``, where a value nested too deeply to decode is a
    ValueError like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_jsonl(path: str | Path, parse) -> list:
    """``parse`` of each non-blank line's JSON value, in file order.

    Raises ValueError naming the first line that is not JSON or that
    ``parse`` rejects with a ValueError.
    """
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse(parse_json(line)))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return out


@dataclass(frozen=True)
class SourceSpan:
    """Inclusive 1-based line range within a file."""

    file_path: str
    start_line: int
    end_line: int

    def __post_init__(self):
        if self.start_line > self.end_line:
            raise ValueError(f"invalid span {self.start_line}..{self.end_line}")

    @property
    def line_count(self) -> int:
        return self.end_line - self.start_line + 1


@dataclass(frozen=True)
class ClassRecord:
    qualified_name: str
    class_doc: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MethodRecord:
    """All per-method details later stages need.

    ``id`` is the stable key: qualified class, method name, parameter-type
    list, and line span, e.g. ``pkg.Cls#get(String,int):12-20``.
    """

    class_name: str
    method_name: str
    return_type: str
    params: tuple[tuple[str, str], ...]  # (type text, name) in declaration order
    local_vars: tuple[tuple[str, str], ...]
    method_doc: str
    inline_comments: tuple[str, ...]
    span: SourceSpan
    body_text: str
    is_test: bool

    @cached_property
    def id(self) -> str:
        return f"{self.signature_key}:{self.span.start_line}-{self.span.end_line}"

    @property
    def signature_key(self) -> str:
        """Span-less key, usable by detector reports that do not know spans."""
        types = ",".join(t for t, _ in self.params)
        return f"{self.class_name}#{self.method_name}({types})"

    @property
    def loc(self) -> int:
        return self.span.line_count

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "class_name": self.class_name,
            "method_name": self.method_name,
            "return_type": self.return_type,
            "params": [list(p) for p in self.params],
            "local_vars": [list(v) for v in self.local_vars],
            "method_doc": self.method_doc,
            "inline_comments": list(self.inline_comments),
            "span": {
                "file_path": self.span.file_path,
                "start_line": self.span.start_line,
                "end_line": self.span.end_line,
            },
            "loc": self.loc,
            "body_text": self.body_text,
            "is_test": self.is_test,
        }

    @staticmethod
    def from_dict(d) -> "MethodRecord":
        """The record ``to_dict`` wrote; raises ValueError naming the first
        field that is missing or of the wrong JSON type."""
        check_fields(d, _RECORD_FIELDS)
        span = d["span"]
        check_fields(span, _SPAN_FIELDS)
        for key in ("params", "local_vars"):
            if not _string_pairs(d[key]):
                raise ValueError(f"{key} holds an entry that is not a [type, name] pair of strings")
        if not all(type(c) is str for c in d["inline_comments"]):
            raise ValueError("inline_comments holds an entry that is not a string")
        return MethodRecord(
            class_name=d["class_name"],
            method_name=d["method_name"],
            return_type=d["return_type"],
            params=tuple((p[0], p[1]) for p in d["params"]),
            local_vars=tuple((v[0], v[1]) for v in d["local_vars"]),
            method_doc=d["method_doc"],
            inline_comments=tuple(d["inline_comments"]),
            span=SourceSpan(span["file_path"], span["start_line"], span["end_line"]),
            body_text=d["body_text"],
            is_test=d["is_test"],
        )


_RECORD_FIELDS = {
    **dict.fromkeys(("class_name", "method_name", "return_type", "method_doc", "body_text"), (str,)),
    **dict.fromkeys(("params", "local_vars", "inline_comments"), (list,)),
    "span": (dict,), "is_test": (bool,),
}
_SPAN_FIELDS = {"file_path": (str,), "start_line": (int,), "end_line": (int,)}
_SIDECAR_FIELDS = {
    **dict.fromkeys(("name", "role", "root_path"), (str,)), "classes": (list,), "summary": (dict,),
}
_CLASS_FIELDS = dict.fromkeys(("qualified_name", "class_doc"), (str,))  # other keys are not read
_SUMMARY_FIELDS = {**dict.fromkeys(("files_seen", "files_parsed", "methods", "classes"), (int,)),
                   "failed_files": (list,)}


@dataclass
class ExtractionSummary:
    files_seen: int = 0
    files_parsed: int = 0
    failed_files: list = field(default_factory=list)  # (path, reason) pairs
    methods: int = 0
    classes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class ProjectSnapshot:
    """Immutable parsed view of one project tree.

    ``role`` must be "original" or "redesigned"; scoring resolves renaming
    rules against it. Records are kept sorted by (file path, start line) so
    repeated extraction of the same tree is byte-identical.
    """

    def __init__(
        self,
        name: str,
        role: str,
        root_path: str,
        records: list[MethodRecord],
        classes: list[ClassRecord],
        summary: ExtractionSummary | None = None,
    ):
        if role not in (ROLE_ORIGINAL, ROLE_REDESIGNED):
            raise ValueError(f"unknown project role: {role!r}")
        self.name = name
        self.role = role
        self.root_path = root_path
        self.records = sorted(records, key=lambda r: (r.span.file_path, r.span.start_line))
        self.class_index = {c.qualified_name: c for c in classes}
        for rec in self.records:
            if rec.class_name not in self.class_index:
                raise ValueError(
                    f"record {rec.id} names class {rec.class_name!r} missing from the class index"
                )
        self.summary = summary or ExtractionSummary()
        self._by_id = {r.id: r for r in self.records}
        self._by_file: dict[str, list[MethodRecord]] = {}
        self._by_sig: dict[str, list[MethodRecord]] = {}
        self._by_short: dict[str, list[MethodRecord]] = {}
        for r in self.records:
            self._by_file.setdefault(r.span.file_path, []).append(r)
            self._by_sig.setdefault(r.signature_key, []).append(r)
            self._by_short.setdefault(f"{r.class_name}#{r.method_name}", []).append(r)
        self.root_prefix = Path(root_path).as_posix().rstrip("/") + "/"
        dirs = self.root_prefix.strip("/").split("/")
        self._root_tails = ["/".join(dirs[k:]) + "/" for k in range(len(dirs))]  # longest first

    @property
    def project_id(self) -> str:
        return f"{self.role}:{self.name}"

    def __len__(self) -> int:
        return len(self.records)

    def get(self, record_id: str) -> MethodRecord | None:
        return self._by_id.get(record_id)

    def class_of(self, record: MethodRecord) -> ClassRecord:
        return self.class_index[record.class_name]

    def in_file(self, file_path: str) -> list[MethodRecord]:
        return self._by_file.get(file_path, [])

    def below_root(self, path: str) -> str | None:
        """The part of a ``/``-separated report path below the snapshot root,
        or None. A path that starts with the root lies below it; so does a
        relative path whose leading directories are the root's trailing
        ones, so ``left/src/A.java`` lies below ``/w/left``."""
        tails = (self.root_prefix,) if path.startswith("/") else self._root_tails
        return next((path[len(tail):] for tail in tails if path.startswith(tail)), None)

    def resolve_path(self, path: str) -> str | None:
        """Map a reported file path onto an indexed, root-relative file path.

        Tries the path as given, then the path ``below_root``, then the one
        indexed file the path ends with (after a ``/``). Returns None when
        no file matches or the suffix match is ambiguous.
        """
        p = path.replace("\\", "/")
        while p.startswith("./"):
            p = p[2:]
        if p in self._by_file:
            return p
        below = self.below_root(p)
        if below in self._by_file:
            return below
        suffixes = [p[i + 1:] for i, c in enumerate(p) if c == "/" and p[i + 1:] in self._by_file]
        return suffixes[0] if len(suffixes) == 1 else None

    def resolve_key(self, key: str) -> MethodRecord | None:
        """Resolve a full id, a signature key, or a class#method key.

        Returns None when absent or ambiguous.
        """
        rec = self._by_id.get(key)
        if rec is not None:
            return rec
        for index in (self._by_sig, self._by_short):
            matches = index.get(key)
            if matches is not None:
                return matches[0] if len(matches) == 1 else None
        return None

    def to_sidecar_dict(self) -> dict:
        return {
            "name": self.name,
            "role": self.role,
            "root_path": self.root_path,
            "classes": [c.to_dict() for c in sorted(self.class_index.values(), key=lambda c: c.qualified_name)],
            "summary": self.summary.to_dict(),
        }


def match_fragment(snapshot: ProjectSnapshot, frag: SourceSpan) -> MethodRecord | None:
    """Bind a reported span to the method with maximal line-overlap Jaccard.

    The span's path is resolved with ``snapshot.resolve_path``. Ties prefer
    the smaller span, then the earlier start line; returns None when the
    file is unknown or nothing overlaps.
    """
    path = snapshot.resolve_path(frag.file_path)
    if path is None:
        return None
    best: MethodRecord | None = None
    best_key: tuple[float, int, int] | None = None
    for rec in snapshot.in_file(path):
        inter = min(rec.span.end_line, frag.end_line) - max(rec.span.start_line, frag.start_line) + 1
        if inter <= 0:
            continue
        overlap = inter / (rec.span.line_count + frag.line_count - inter)
        key = (-overlap, rec.span.line_count, rec.span.start_line)
        if best_key is None or key < best_key:
            best, best_key = rec, key
    return best


def sidecar_path(records_path: Path) -> Path:
    if records_path.suffix == ".jsonl":
        return records_path.with_suffix(".classes.json")
    return records_path.with_name(records_path.name + ".classes.json")


def save_snapshot(snapshot: ProjectSnapshot, out: Path) -> None:
    write_jsonl(out, (rec.to_dict() for rec in snapshot.records))
    write_json(sidecar_path(Path(out)), snapshot.to_sidecar_dict())


def load_snapshot(records_path: Path) -> ProjectSnapshot:
    """Read a snapshot that ``save_snapshot`` wrote.

    Raises ValueError naming the first records line that is not JSON or not
    a method record, or naming the sidecar when it is not JSON or lacks a
    field of its own, of a class entry or of the summary.
    """
    records_path = Path(records_path)
    side = sidecar_path(records_path)
    if not records_path.exists():
        raise FileNotFoundError(f"snapshot not found: {records_path}")
    if not side.exists():
        raise FileNotFoundError(f"snapshot sidecar not found: {side}")
    records = read_jsonl(records_path, MethodRecord.from_dict)
    try:  # the sidecar's shape is that of ``to_sidecar_dict``
        meta = parse_json(side.read_text(encoding="utf-8"))
        check_fields(meta, _SIDECAR_FIELDS)
        for c in meta["classes"]:
            check_fields(c, _CLASS_FIELDS)
        s = meta["summary"]
        check_fields(s, _SUMMARY_FIELDS)
        if not _string_pairs(s["failed_files"]):
            raise ValueError("failed_files holds an entry that is not a [path, reason] pair of strings")
    except ValueError as exc:
        raise ValueError(f"sidecar {side}: {exc}") from None
    classes = [ClassRecord(c["qualified_name"], c["class_doc"]) for c in meta["classes"]]
    summary = ExtractionSummary(
        s["files_seen"], s["files_parsed"], [tuple(f) for f in s["failed_files"]], s["methods"], s["classes"]
    )
    return ProjectSnapshot(meta["name"], meta["role"], meta["root_path"], records, classes, summary)
