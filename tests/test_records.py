"""Fragment binding: reported paths and spans resolved against a snapshot."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remap.extractor import extract
from remap.records import (
    ClassRecord, MethodRecord, ProjectSnapshot, SourceSpan, load_snapshot, match_fragment, read_jsonl,
    save_snapshot, write_jsonl,
)

FRAG_SOURCE = """\
package p;
public class A {
    public int first(int x) {
        int a = x;
        a += 1;
        a += 2;
        a += 3;
        a += 4;
        a += 5;
        return a;
    }
    public int second(int x) {
        int b = x;
        b *= 2;
        b *= 3;
        b *= 4;
        b *= 5;
        b *= 6;
        return b;
    }
}
"""


@pytest.fixture
def frag_snapshot(tmp_path):
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text(FRAG_SOURCE)
    return extract(tmp_path)


def test_match_exact_span(frag_snapshot):
    first = frag_snapshot.records[0]
    frag = SourceSpan(first.span.file_path, first.span.start_line, first.span.end_line)
    assert match_fragment(frag_snapshot, frag).id == first.id


def test_match_prefers_dominant_overlap(frag_snapshot):
    first, second = frag_snapshot.records
    # fragment straddles both methods, 80% of it inside the first
    frag = SourceSpan(first.span.file_path, first.span.start_line + 2, second.span.start_line + 1)
    got = match_fragment(frag_snapshot, frag)
    assert got.id == first.id


def test_match_unknown_file_returns_none(frag_snapshot):
    frag = SourceSpan("p/Nope.java", 1, 3)
    assert match_fragment(frag_snapshot, frag) is None


def test_match_no_overlap_returns_none(frag_snapshot):
    frag = SourceSpan("p/A.java", 1, 2)  # class header, before any method
    assert match_fragment(frag_snapshot, frag) is None


# -- path resolution -----------------------------------------------------------


def _scan_resolve(path: str, root_path: str, files: list[str]) -> str | None:
    """Reference: the path as given, below the root, else the one file it
    ends with, found by a linear scan over every file. A relative path lies
    below the root after the longest run of leading directories that equals
    the root's last directories."""
    p = path.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    if p in files:
        return p
    root = Path(root_path).as_posix().rstrip("/")
    dirs, parts = [d for d in root.split("/") if d], p.split("/")
    if p.startswith(root + "/"):
        below = p[len(root) + 1:]
    elif not p.startswith("/"):
        below = next(("/".join(parts[k:]) for k in range(len(dirs), 0, -1)
                      if len(parts) > k and parts[:k] == dirs[-k:]), None)
    else:
        below = None
    if below in files:
        return below
    candidates = [f for f in files if p == f or p.endswith("/" + f)]
    return candidates[0] if len(candidates) == 1 else None


def _snapshot(root_path: str, files: list[str]) -> ProjectSnapshot:
    classes = [ClassRecord(f"p.C{i}", "") for i in range(len(files))]
    records = [
        MethodRecord(
            class_name=c.qualified_name, method_name="m", return_type="void", params=(),
            local_vars=(), method_doc="", inline_comments=(), span=SourceSpan(f, 1, 2),
            body_text="", is_test=False,
        )
        for c, f in zip(classes, files)
    ]
    return ProjectSnapshot("t", "original", root_path, records, classes)


# few segment names, so that files share suffixes and a reported path can end
# with several of them
_PATHS = st.lists(st.sampled_from(["a", "b", "src", "A.java", "B.java"]), min_size=1, max_size=4).map("/".join)


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_resolve_path_matches_linear_scan(data):
    root_path = data.draw(st.sampled_from(["/w/left", "/w/left/", "/w/left/left", "left", "./left", ".", "/w"]), "root")
    files = data.draw(st.lists(_PATHS, min_size=1, max_size=6, unique=True), "files")
    snapshot = _snapshot(root_path, files)
    base = data.draw(st.one_of(st.sampled_from(files), _PATHS), "base")
    prefix = data.draw(
        st.one_of(
            st.sampled_from(["", "./", "././", snapshot.root_prefix, "/w/right/", "/elsewhere/", "left/",
                             "w/left/", "w/left/left/", "right/"]),
            _PATHS.map(lambda p: p + "/"),
        ),
        "prefix",
    )
    path = prefix + base
    if data.draw(st.booleans(), "backslashed"):
        path = path.replace("/", "\\")
    assert snapshot.resolve_path(path) == _scan_resolve(path, root_path, files)


def _scan_resolve_key(snapshot: ProjectSnapshot, key: str) -> MethodRecord | None:
    """Reference: the record whose id is ``key``, else the one whose
    signature key is, else the one whose ``Class#method`` key is, each
    found by a linear scan; None when no record has the key, or several."""
    for key_of in (lambda r: r.id, lambda r: r.signature_key, lambda r: f"{r.class_name}#{r.method_name}"):
        found = [r for r in snapshot.records if key_of(r) == key]
        if found:
            return found[0] if len(found) == 1 else None
    return None


# few classes, names and parameter lists, so that records overload a name
# and repeat a signature at other lines
_METHODS = st.lists(
    st.tuples(st.sampled_from(["p.A", "p.B", "q.A"]), st.sampled_from(["m", "n"]),
              st.sampled_from([(), ("int",), ("String",), ("int", "String")]), st.integers(1, 3)),
    min_size=1, max_size=8, unique=True,
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_resolve_key_matches_linear_scan(data):
    records = [
        MethodRecord(
            class_name=cls, method_name=name, return_type="void",
            params=tuple((t, f"a{i}") for i, t in enumerate(types)), local_vars=(), method_doc="",
            inline_comments=(), span=SourceSpan(f"{cls}.java", start, start + 1), body_text="", is_test=False,
        )
        for cls, name, types, start in data.draw(_METHODS, "methods")
    ]
    classes = [ClassRecord(name, "") for name in sorted({r.class_name for r in records})]
    snapshot = ProjectSnapshot("t", "original", "/t", records, classes)
    keys = sorted({k for r in records for k in (r.id, r.signature_key, f"{r.class_name}#{r.method_name}")})
    unknown = ["", "p.A", "p.C#m", "p.A#m(", "p.A#m(long)", "p.A#m():9-10", "q.A#n(int,String):1-1"]
    key = data.draw(st.sampled_from(keys + unknown), "key")
    assert snapshot.resolve_key(key) == _scan_resolve_key(snapshot, key)


def test_snapshot_rejects_a_repeated_class_or_record_id(frag_snapshot):
    rec = frag_snapshot.records[0]
    cls = frag_snapshot.class_of(rec)
    with pytest.raises(ValueError, match="^class p.A appears twice$"):
        ProjectSnapshot("t", "original", "/t", [rec], [cls, ClassRecord("p.A", "another doc")])
    twin = MethodRecord.from_dict(rec.to_dict())
    with pytest.raises(ValueError, match=re.escape(f"record id {rec.id} appears twice")):
        ProjectSnapshot("t", "original", "/t", [rec, twin], [cls])
    with pytest.raises(ValueError, match=re.escape(f"record id {rec.id} appears twice")):
        ProjectSnapshot("t", "original", "/t", [rec, rec], [cls])


def test_match_resolves_the_reported_path(frag_snapshot):
    first = frag_snapshot.records[0]
    frag = SourceSpan(f"{frag_snapshot.root_path}/p/A.java", first.span.start_line, first.span.end_line)
    assert match_fragment(frag_snapshot, frag).id == first.id


# -- records: the cached id, and reading a record back ------------------------


def test_record_id_is_computed_once(frag_snapshot):
    rec = frag_snapshot.records[0]
    assert rec.id is rec.id
    assert rec.id == f"{rec.signature_key}:{rec.span.start_line}-{rec.span.end_line}" == "p.A#first(int):3-11"
    fresh = MethodRecord.from_dict(rec.to_dict())
    assert "id" not in vars(fresh)  # not computed yet
    assert fresh == rec and hash(fresh) == hash(rec)
    assert json.dumps(fresh.to_dict(), sort_keys=True) == json.dumps(rec.to_dict(), sort_keys=True)
    assert "id" in vars(fresh) and fresh.id == rec.id


@pytest.mark.parametrize("change, culprit", [
    (lambda d: [d], "expected a JSON object, not list"),
    (lambda d: {**d, "method_doc": 5}, "method_doc is missing or not str"),
    (lambda d: {k: v for k, v in d.items() if k != "body_text"}, "body_text is missing"),
    (lambda d: {**d, "is_test": 1}, "is_test is missing or not bool"),
    (lambda d: {**d, "span": {**d["span"], "end_line": True}}, "end_line is missing or not int"),
    (lambda d: {**d, "span": {**d["span"], "start_line": 99}}, "invalid span 99..11"),
    (lambda d: {**d, "params": [["int"]]}, "params holds an entry that is not a [type, name] pair"),
    (lambda d: {**d, "local_vars": "ab"}, "local_vars is missing or not list"),
    (lambda d: {**d, "inline_comments": [None]}, "inline_comments holds an entry that is not a string"),
])
def test_from_dict_rejects_what_to_dict_never_writes(frag_snapshot, change, culprit):
    with pytest.raises(ValueError, match=re.escape(culprit)):
        MethodRecord.from_dict(change(frag_snapshot.records[0].to_dict()))


def test_load_snapshot_names_the_bad_line(frag_snapshot, tmp_path):
    out = tmp_path / "snap.jsonl"
    save_snapshot(frag_snapshot, out)
    out.write_text(out.read_text() + "\n{}\n")
    with pytest.raises(ValueError, match="^line 4: class_name is missing"):
        load_snapshot(out)


def test_sidecar_with_the_old_class_fields_loads(frag_snapshot, tmp_path):
    out = tmp_path / "snap.jsonl"
    save_snapshot(frag_snapshot, out)
    side = tmp_path / "snap.classes.json"
    meta = json.loads(side.read_text())
    meta["classes"] = [{**c, "file_path": "p/A.java", "kind": "class"} for c in meta["classes"]]
    side.write_text(json.dumps(meta))
    loaded = load_snapshot(out)
    assert loaded.class_index == frag_snapshot.class_index
    assert [r.to_dict() for r in loaded.records] == [r.to_dict() for r in frag_snapshot.records]


# JSON values that survive a round trip: no NaN (it is not equal to itself)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@given(rows=st.lists(st.dictionaries(st.text(), _JSON, max_size=4), max_size=8))
@settings(max_examples=200, deadline=None)
def test_write_jsonl_writes_each_row_as_sort_keyed_json(rows):
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "new" / "rows.jsonl"  # a directory write_jsonl creates
        write_jsonl(out, (row for row in rows))  # a one-shot generator
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines == [json.dumps(row, sort_keys=True) for row in rows] + [""]
        assert read_jsonl(out, lambda v: v) == rows
