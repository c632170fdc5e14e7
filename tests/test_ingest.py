"""Detector report ingestion: generic JSONL and NiCad XML adapters."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remap import ingest
from remap.extractor import extract
from remap.ingest import IngestError, ingest_generic, ingest_nicad_xml, load_pairs
from remap.prefilter import CandidatePair, save_pairs
from remap.records import encode_sorted

LEFT_SOURCE = """\
package soot;
public class Worker {
    public int first(int x) {
        int a = x;
        a += 1;
        a += 2;
        return a;
    }
    public int second(int x) {
        int b = x;
        b *= 2;
        b *= 3;
        return b;
    }
}
"""

RIGHT_SOURCE = """\
package sootup;
public class Worker {
    public int primary(int x) {
        int a = x;
        a += 1;
        a += 2;
        return a;
    }
    public int secondary(int x) {
        int b = x;
        b *= 2;
        b *= 3;
        return b;
    }
}
"""


def _two_trees(base):
    """Extract two trees with one layout: ``<base>/{left,right}/src/main/Worker.java``."""
    for side, src in (("left", LEFT_SOURCE), ("right", RIGHT_SOURCE)):
        d = base / side / "src" / "main"
        d.mkdir(parents=True)
        (d / "Worker.java").write_text(src)
    return base, extract(base / "left", role="original"), extract(base / "right", role="redesigned")


@pytest.fixture
def snapshots(tmp_path):
    return _two_trees(tmp_path)


@pytest.fixture(scope="module")
def shared_layout(tmp_path_factory):
    return _two_trees(tmp_path_factory.mktemp("shared_layout"))


def _rec(snapshot, name):
    return next(r for r in snapshot.records if r.method_name == name)


def write_jsonl(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))


def span_frag(rec):
    return {"file": rec.span.file_path, "start": rec.span.start_line, "end": rec.span.end_line}


def test_generic_span_resolution(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    write_jsonl(report, [{"detector": "nicad", "left": span_frag(lrec), "right": span_frag(rrec)}])
    pairs, stats = ingest_generic(report, left, right)
    assert [(q.left, q.right, q.provenance) for q in pairs] == [(lrec.id, rrec.id, "nicad")]
    assert stats.resolved == 1 and stats.unresolved == 0


def test_generic_key_resolution_and_dedup(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    write_jsonl(
        report,
        [
            {"detector": "d", "left": {"key": lrec.id}, "right": {"key": rrec.id}},
            {"detector": "d", "left": {"key": lrec.signature_key}, "right": {"key": rrec.signature_key}},
            {"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)},
        ],
    )
    pairs, stats = ingest_generic(report, left, right)
    assert len(pairs) == 1
    assert stats.duplicates == 2


def test_generic_swapped_orientation(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "second"), _rec(right, "secondary")
    report = tmp_path / "report.jsonl"
    # report emitted the redesigned method in the 'left' slot; keys make the
    # orientation unambiguous (class names differ across projects)
    write_jsonl(report, [{"detector": "d", "left": {"key": rrec.id}, "right": {"key": lrec.id}}])
    pairs, _ = ingest_generic(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(lrec.id, rrec.id)]


def test_generic_line_nested_too_deeply_is_malformed(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    good = json.dumps({"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)})
    report.write_text(good + "\n" + "[" * 100_000 + "\n")
    pairs, stats = ingest_generic(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(lrec.id, rrec.id)]
    assert (stats.lines, stats.resolved, stats.malformed) == (2, 1, 1)
    assert stats.diagnostics == ["line 2: JSON nested too deeply"]


def test_generic_report_with_a_byte_order_mark_reads_its_first_line(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    line = json.dumps({"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)})
    report.write_bytes(b"\xef\xbb\xbf" + line.encode() + b"\n")
    pairs, stats = ingest_generic(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(lrec.id, rrec.id)]
    assert (stats.lines, stats.resolved, stats.malformed) == (1, 1, 0)


def test_generic_malformed_and_unknown_file(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    bad_fragments = [
        {"oops": 1},
        {**span_frag(lrec), "start": "x"},
        {**span_frag(lrec), "start": 12, "end": 5},
        {**span_frag(lrec), "start": None},
        {**span_frag(lrec), "file": 7},
        {**span_frag(lrec), "start": 3.9},
        {**span_frag(lrec), "start": True},
        {**span_frag(lrec), "start": "3"},
    ]
    report.write_text(
        json.dumps({"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)})
        + "\n"
        + "not json at all\n"
        + "".join(
            json.dumps({"detector": "d", "left": frag, "right": span_frag(rrec)}) + "\n"
            for frag in bad_fragments
        )
    )
    pairs, stats = ingest_generic(report, left, right)
    assert len(pairs) == 1
    assert stats.malformed == 9
    assert [d.split(":")[0] for d in stats.diagnostics] == [f"line {n}" for n in range(2, 11)]
    assert "invalid span 12..5" in stats.diagnostics[3]


def test_generic_swapped_line_with_rooted_paths_binds_by_root(snapshots, tmp_path):
    base, left, right = snapshots
    first, second = _rec(left, "first"), _rec(left, "second")
    primary, secondary = _rec(right, "primary"), _rec(right, "secondary")
    rel = primary.span.file_path  # both trees share this layout
    # the redesigned method sits in the 'left' slot; each rooted path also
    # ends with the other side's file, where its lines overlap the mirror
    # method, so read as reported the line would bind to (first, secondary)
    assert left.resolve_path(f"{base}/right/{rel}") == right.resolve_path(f"{base}/left/{rel}") == rel
    report = tmp_path / "report.jsonl"
    write_jsonl(report, [{
        "detector": "d",
        "left": {"file": f"{base}/right/{rel}", "start": primary.span.start_line, "end": primary.span.end_line},
        "right": {"file": f"{base}/left/{rel}", "start": second.span.start_line, "end": second.span.end_line},
    }])
    pairs, stats = ingest_generic(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(second.id, primary.id)]
    assert (first.id, secondary.id) not in {q.key for q in pairs}
    assert (stats.resolved, stats.unresolved, stats.same_project) == (1, 0, 0)


@pytest.mark.parametrize("root_style", ["absolute", "relative"])
@pytest.mark.parametrize("path_style", ["absolute", "relative"])
def test_swapped_line_binds_alike_for_any_root_and_path_style(tmp_path, monkeypatch, root_style, path_style):
    """The line above binds to (second, primary) whether the snapshots were
    extracted with ``--root <base>/left`` or, from ``<base>``, ``--root
    left``, and whether the report names ``<base>/right/...`` or ``right/...``."""
    base, left, right = _two_trees(tmp_path)
    if root_style == "relative":
        monkeypatch.chdir(base)
        left, right = extract("left", role="original"), extract("right", role="redesigned")
    first, second = _rec(left, "first"), _rec(left, "second")
    primary, secondary = _rec(right, "primary"), _rec(right, "secondary")
    rel = primary.span.file_path
    prefix = f"{base}/" if path_style == "absolute" else ""
    report = tmp_path / "report.jsonl"
    write_jsonl(report, [{
        "detector": "d",
        "left": {"file": f"{prefix}right/{rel}", "start": primary.span.start_line, "end": primary.span.end_line},
        "right": {"file": f"{prefix}left/{rel}", "start": second.span.start_line, "end": second.span.end_line},
    }])
    pairs, stats = ingest_generic(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(second.id, primary.id)]
    assert (stats.resolved, stats.unresolved, stats.same_project) == (1, 0, 0)


def test_generic_line_bound_within_one_snapshot_is_same_project(snapshots, tmp_path):
    base, left, right = snapshots
    first, second, primary = _rec(left, "first"), _rec(left, "second"), _rec(right, "primary")
    rooted = {
        name: {"file": f"{base}/left/{rec.span.file_path}", "start": rec.span.start_line, "end": rec.span.end_line}
        for name, rec in (("first", first), ("second", second))
    }
    report = tmp_path / "report.jsonl"
    write_jsonl(report, [
        {"detector": "d", "left": span_frag(first), "right": span_frag(primary)},
        {"detector": "d", "left": {"key": first.id}, "right": {"key": second.id}},
        {"detector": "d", "left": rooted["first"], "right": rooted["second"]},
    ])
    pairs, stats = ingest_generic(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(first.id, primary.id)]
    assert (stats.resolved, stats.same_project, stats.unresolved) == (1, 2, 0)
    assert stats.diagnostics == ["line 2: same-project clone", "line 3: same-project clone"]


def test_generic_unresolved_fragment_counted(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    write_jsonl(
        report,
        [
            {"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)},
            {"detector": "d", "left": span_frag(lrec), "right": {"file": "x/Unknown.java", "start": 1, "end": 4}},
        ],
    )
    pairs, stats = ingest_generic(report, left, right)
    assert len(pairs) == 1
    assert stats.unresolved == 1


def test_generic_mostly_unresolved_is_hard_error(snapshots, tmp_path):
    _, left, right = snapshots
    report = tmp_path / "report.jsonl"
    write_jsonl(
        report,
        [
            {"detector": "d", "left": {"file": "a/No.java", "start": 1, "end": 3},
             "right": {"file": "b/No.java", "start": 1, "end": 3}}
            for _ in range(4)
        ],
    )
    with pytest.raises(IngestError):
        ingest_generic(report, left, right)


def test_ingest_idempotent(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    rows = [{"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)}]
    write_jsonl(report, rows + rows)
    once, _ = ingest_generic(report, left, right)
    write_jsonl(report, rows)
    twice, _ = ingest_generic(report, left, right)
    assert [(p.left, p.right) for p in once] == [(p.left, p.right) for p in twice]


def test_pairs_roundtrip(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    report = tmp_path / "report.jsonl"
    write_jsonl(report, [{"detector": "d", "left": span_frag(lrec), "right": span_frag(rrec)}])
    pairs, _ = ingest_generic(report, left, right)
    out = tmp_path / "pairs.jsonl"
    save_pairs(pairs, out)
    loaded = list(load_pairs(out))
    assert [(p.left, p.right) for p in loaded] == [(p.left, p.right) for p in pairs]


# strings that JSON escapes: quotes, backslashes, control, non-ASCII and line-separator characters
_awkward = st.text(st.sampled_from('ab#:() "\\/\x00\x1f\x7f\x85\u00e9\u2028\U0001f600') | st.characters(),
                   max_size=8)


def _lone_surrogate(strings) -> bool:
    return any("\ud800" <= c <= "\udfff" for s in strings for c in s)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_awkward, _awkward, _awkward), max_size=5), st.booleans())
@example(triples=[("", "", "\ud800")], ascii_only=True)
def test_pair_lines_are_sorted_json_and_load_as_json_decodes_them(triples, ascii_only):
    """``save_pairs`` writes each pair's ``encode_sorted`` line. ``load_pairs``
    reads such a line, and one whose non-ASCII characters are left raw, to
    the pair that decoding the line as JSON gives: the regex path where the
    strings need no escape, the JSON path elsewhere. A lone surrogate has no
    UTF-8 form, so it is only ever written escaped."""
    pairs = [CandidatePair(*t) for t in triples]
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "pairs.jsonl"
        save_pairs(pairs, out)
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines == [encode_sorted(p.to_dict()) for p in pairs] + [""]
        if not ascii_only and not _lone_surrogate(s for t in triples for s in t):
            lines = [json.dumps(p.to_dict(), sort_keys=True, ensure_ascii=False) for p in pairs]
            out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert list(load_pairs(out)) == pairs
        assert pairs == [ingest._pair_from_json(json.loads(line), {}) for line in lines if line]


def test_other_pair_line_shapes_are_read_as_json(tmp_path):
    """The regex takes only the canonical line; reordered keys and other
    spacing decode as JSON to the same pair, and a format version of 1.0
    or true is rejected there, naming the line."""
    pair = CandidatePair("p.A#f():1-2", "q.B#g():3-4", "d")
    canonical = encode_sorted(pair.to_dict())
    assert ingest._PAIR_LINE.fullmatch(canonical)
    variants = [
        json.dumps(dict(reversed(pair.to_dict().items()))),
        json.dumps(pair.to_dict(), sort_keys=True, separators=(",", ":")),
        canonical.replace(": ", ":  "),
        canonical.replace("{", "{ "),
    ]
    path = tmp_path / "pairs.jsonl"
    for line in variants:
        assert not ingest._PAIR_LINE.fullmatch(line), line
        path.write_text(f"{canonical}\n  {line}\t\n")
        assert list(load_pairs(path)) == [pair, pair]
    for version in ("1.0", "true"):
        path.write_text(canonical + "\n\n" + canonical.replace('"format_version": 1', f'"format_version": {version}'))
        with pytest.raises(ValueError, match=f"^line 3: format_version {version.title()} is not 1$"):
            list(load_pairs(path))


NICAD_TEMPLATE = """<?xml version="1.0" encoding="utf-8"?>
<clones>
{body}
</clones>
"""


def nicad_clone(f1, s1, e1, f2, s2, e2):
    return (
        f'<clone nlines="5" similarity="95">\n'
        f'  <source file="{f1}" startline="{s1}" endline="{e1}" pcid="1"/>\n'
        f'  <source file="{f2}" startline="{s2}" endline="{e2}" pcid="2"/>\n'
        f"</clone>"
    )


def test_nicad_cross_project_pair(snapshots, tmp_path):
    base, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    xml = NICAD_TEMPLATE.format(
        body=nicad_clone(
            f"{base}/left/{lrec.span.file_path}", lrec.span.start_line, lrec.span.end_line,
            f"{base}/right/{rrec.span.file_path}", rrec.span.start_line, rrec.span.end_line,
        )
    )
    report = tmp_path / "nicad.xml"
    report.write_text(xml)
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert [(q.left, q.right, q.provenance) for q in pairs] == [(lrec.id, rrec.id, "nicad")]
    assert stats.same_project == 0


def test_nicad_path_below_one_root_binds_only_on_that_side(snapshots, tmp_path):
    base, left, right = snapshots
    first, second = _rec(left, "first"), _rec(left, "second")
    primary, secondary = _rec(right, "primary"), _rec(right, "secondary")
    rel = first.span.file_path  # both trees share this layout
    lpath, rpath = f"{base}/left/{rel}", f"{base}/right/{rel}"
    # each rooted path also ends with the other side's file, and the
    # relative path names a file on both sides
    assert right.resolve_path(lpath) == left.resolve_path(rpath) == rel
    assert left.resolve_path(rel) == right.resolve_path(rel) == rel
    xml = NICAD_TEMPLATE.format(
        body=nicad_clone(
            lpath, first.span.start_line, first.span.end_line,
            rel, secondary.span.start_line, secondary.span.end_line,
        )
        + nicad_clone(
            rpath, primary.span.start_line, primary.span.end_line,
            rel, second.span.start_line, second.span.end_line,
        )
    )
    report = tmp_path / "nicad.xml"
    report.write_text(xml)
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert sorted((q.left, q.right) for q in pairs) == sorted(
        [(first.id, secondary.id), (second.id, primary.id)]
    )
    assert (stats.resolved, stats.same_project, stats.unresolved) == (2, 0, 0)


def test_nicad_relative_paths_naming_files_on_both_sides_bind_as_reported(snapshots, tmp_path):
    _, left, right = snapshots
    first, secondary = _rec(left, "first"), _rec(right, "secondary")
    rel = first.span.file_path
    assert left.resolve_path(rel) == right.resolve_path(rel) == rel
    report = tmp_path / "nicad.xml"
    report.write_text(NICAD_TEMPLATE.format(body=nicad_clone(
        rel, first.span.start_line, first.span.end_line,
        rel, secondary.span.start_line, secondary.span.end_line,
    )))
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(first.id, secondary.id)]
    assert (stats.resolved, stats.same_project) == (1, 0)


def test_nicad_mostly_unresolved_is_hard_error(snapshots, tmp_path):
    _, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    good = nicad_clone(lrec.span.file_path, lrec.span.start_line, lrec.span.end_line,
                       rrec.span.file_path, rrec.span.start_line, rrec.span.end_line)
    gone = nicad_clone("a/No.java", 1, 3, "b/No.java", 1, 3)
    report = tmp_path / "nicad.xml"
    report.write_text(NICAD_TEMPLATE.format(body="\n".join([good, gone])))
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert (len(pairs), stats.unresolved, stats.diagnostics) == (1, 1, ["clone 2: unresolved clone"])
    report.write_text(NICAD_TEMPLATE.format(body="\n".join([good, gone, gone])))
    with pytest.raises(IngestError, match="2 of 3 clones unresolved"):
        ingest_nicad_xml(report, left, right)


def test_nicad_same_project_dropped(snapshots, tmp_path):
    base, left, right = snapshots
    a, b = _rec(left, "first"), _rec(left, "second")
    xml = NICAD_TEMPLATE.format(
        body=nicad_clone(
            f"{base}/left/{a.span.file_path}", a.span.start_line, a.span.end_line,
            f"{base}/left/{b.span.file_path}", b.span.start_line, b.span.end_line,
        )
    )
    report = tmp_path / "nicad.xml"
    report.write_text(xml)
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert pairs == []
    assert stats.same_project == 1


def test_nicad_malformed_source_is_counted(snapshots, tmp_path):
    base, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    lfile, rfile = f"{base}/left/{lrec.span.file_path}", f"{base}/right/{rrec.span.file_path}"
    good = nicad_clone(lfile, lrec.span.start_line, lrec.span.end_line,
                       rfile, rrec.span.start_line, rrec.span.end_line)
    body = "\n".join([
        nicad_clone(lfile, lrec.span.end_line, lrec.span.start_line,
                    rfile, rrec.span.start_line, rrec.span.end_line),
        nicad_clone(lfile, "x", lrec.span.end_line, rfile, rrec.span.start_line, rrec.span.end_line),
        good,
    ])
    report = tmp_path / "nicad.xml"
    report.write_text(NICAD_TEMPLATE.format(body=body))
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert [(q.left, q.right) for q in pairs] == [(lrec.id, rrec.id)]
    assert stats.malformed == 2 and stats.resolved == 1


def test_nicad_malformed_clones_are_counted_as_lines_and_located(snapshots, tmp_path):
    base, left, right = snapshots
    lrec, rrec = _rec(left, "first"), _rec(right, "primary")
    lfile, rfile = f"{base}/left/{lrec.span.file_path}", f"{base}/right/{rrec.span.file_path}"
    reversed_span = nicad_clone(lfile, lrec.span.end_line, lrec.span.start_line,
                                rfile, rrec.span.start_line, rrec.span.end_line)
    one_source = (
        f'<clone nlines="5" similarity="95">\n'
        f'  <source file="{lfile}" startline="{lrec.span.start_line}" '
        f'endline="{lrec.span.end_line}" pcid="1"/>\n'
        f"</clone>"
    )
    report = tmp_path / "nicad.xml"
    report.write_text(NICAD_TEMPLATE.format(body=reversed_span + "\n" + one_source))
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert pairs == []
    assert (stats.lines, stats.malformed) == (2, 2)
    assert [d.split(":")[0] for d in stats.diagnostics] == ["clone 1", "clone 2"]


def test_nicad_empty_report(snapshots, tmp_path):
    _, left, right = snapshots
    report = tmp_path / "nicad.xml"
    report.write_text(NICAD_TEMPLATE.format(body=""))
    pairs, stats = ingest_nicad_xml(report, left, right)
    assert pairs == []


def test_nicad_malformed_xml_is_hard_error(snapshots, tmp_path):
    _, left, right = snapshots
    report = tmp_path / "nicad.xml"
    report.write_text("<clones><clone></clones>")
    with pytest.raises(IngestError):
        ingest_nicad_xml(report, left, right)


METHODS = {"left": ("first", "second"), "right": ("primary", "secondary")}
# relative, below the fragment's own root, below a root that is neither
# snapshot's, or naming a file neither tree has
PATH_STYLES = ("relative", "rooted", "foreign", "missing")
FRAGMENTS = st.tuples(st.sampled_from(sorted(METHODS)), st.integers(0, 1), st.sampled_from(PATH_STYLES))


def _report_span(base, snapshots, fragment):
    side, index, style = fragment
    rec = _rec(snapshots[side], METHODS[side][index])
    rel = rec.span.file_path
    path = {"relative": rel, "rooted": f"{base}/{side}/{rel}", "foreign": f"/elsewhere/checkout/{rel}",
            "missing": "src/main/Missing.java"}[style]
    return path, rec.span.start_line, rec.span.end_line


@settings(max_examples=300, deadline=None)
@given(clones=st.lists(st.tuples(FRAGMENTS, FRAGMENTS), min_size=1, max_size=8))
def test_generic_and_nicad_readings_of_one_clone_list_agree(shared_layout, clones):
    base, left, right = shared_layout
    snapshots = {"left": left, "right": right}
    spans = [tuple(_report_span(base, snapshots, frag) for frag in clone) for clone in clones]
    with tempfile.TemporaryDirectory() as tmp:
        generic, nicad = Path(tmp) / "report.jsonl", Path(tmp) / "report.xml"
        write_jsonl(generic, [
            {"detector": "d", **{slot: {"file": f, "start": s, "end": e} for slot, (f, s, e) in zip(("left", "right"), pair)}}
            for pair in spans
        ])
        nicad.write_text(NICAD_TEMPLATE.format(body="\n".join(nicad_clone(*a, *b) for a, b in spans)))
        outcomes = []
        for ingest, report in ((ingest_generic, generic), (ingest_nicad_xml, nicad)):
            try:
                pairs, stats = ingest(report, left, right)
                outcomes.append(([q.key for q in pairs], stats.to_dict()))
            except IngestError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], str):
        return
    keys = set(outcomes[0][0])
    for clone in clones:
        sides = {frag[0]: frag for frag in clone}
        styles = {frag[2] for frag in clone}
        if len(sides) == 2 and "rooted" in styles and "missing" not in styles:
            intended = tuple(_rec(snapshots[side], METHODS[side][sides[side][1]]).id for side in ("left", "right"))
            assert intended in keys, (clone, outcomes[0])
