"""Fragment binding: reported paths and spans resolved against a snapshot."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remap.extractor import extract
from remap.records import (
    ClassRecord, MethodRecord, ProjectSnapshot, SourceSpan, load_snapshot, match_fragment, save_snapshot,
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
    ends with, found by a linear scan over every file."""
    p = path.replace("\\", "/")
    while p.startswith("./"):
        p = p[2:]
    if p in files:
        return p
    root = Path(root_path).as_posix().rstrip("/") + "/"
    if p.startswith(root) and p[len(root):] in files:
        return p[len(root):]
    candidates = [f for f in files if p == f or p.endswith("/" + f)]
    return candidates[0] if len(candidates) == 1 else None


def _snapshot(root_path: str, files: list[str]) -> ProjectSnapshot:
    classes = [ClassRecord(f"p.C{i}", "", f, "class") for i, f in enumerate(files)]
    records = [
        MethodRecord(
            class_name=c.qualified_name, method_name="m", return_type="void", params=(),
            local_vars=(), method_doc="", inline_comments=(), span=SourceSpan(c.file_path, 1, 2),
            body_text="", is_test=False,
        )
        for c in classes
    ]
    return ProjectSnapshot("t", "original", root_path, records, classes)


# few segment names, so that files share suffixes and a reported path can end
# with several of them
_PATHS = st.lists(st.sampled_from(["a", "b", "src", "A.java", "B.java"]), min_size=1, max_size=4).map("/".join)


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_resolve_path_matches_linear_scan(data):
    root_path = data.draw(st.sampled_from(["/w/left", "/w/left/", "left", "./left", ".", "/w"]), "root")
    files = data.draw(st.lists(_PATHS, min_size=1, max_size=6, unique=True), "files")
    snapshot = _snapshot(root_path, files)
    base = data.draw(st.one_of(st.sampled_from(files), _PATHS), "base")
    prefix = data.draw(
        st.one_of(
            st.sampled_from(["", "./", "././", snapshot.root_prefix, "/w/right/", "/elsewhere/"]),
            _PATHS.map(lambda p: p + "/"),
        ),
        "prefix",
    )
    path = prefix + base
    if data.draw(st.booleans(), "backslashed"):
        path = path.replace("/", "\\")
    assert snapshot.resolve_path(path) == _scan_resolve(path, root_path, files)


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
