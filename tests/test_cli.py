"""End-to-end CLI behavior: exit codes, manifests, reproducibility."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

FIXTURE = Path(__file__).parent / "fixtures" / "toy"


def remap(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "remap", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_version():
    proc = remap("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("remap ")


def test_unknown_flag_is_usage_error():
    proc = remap("extract", "--no-such-flag")
    assert proc.returncode == 2


def test_missing_input_is_usage_error(tmp_path):
    proc = remap("extract", "--root", tmp_path / "nope", "--out", tmp_path / "o.jsonl")
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip().split("\n")[-1])
    assert err["error"] == "usage"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once: extract both trees, ingest planted pairs."""
    work = tmp_path_factory.mktemp("pipeline")
    left, right = work / "left.jsonl", work / "right.jsonl"
    p = remap("extract", "--root", FIXTURE / "left", "--role", "original", "--out", left)
    assert p.returncode == 0, p.stderr
    p = remap("extract", "--root", FIXTURE / "right", "--role", "redesigned", "--out", right)
    assert p.returncode == 0, p.stderr
    pairs = work / "pairs.jsonl"
    p = remap(
        "ingest", "--format", "generic", "--report", FIXTURE / "pairs.jsonl",
        "--left", left, "--right", right, "--out", pairs,
    )
    assert p.returncode == 0, p.stderr
    return work, left, right, pairs


def test_extract_writes_manifest_and_sidecar(pipeline):
    work, left, right, pairs = pipeline
    assert (work / "left.classes.json").exists()
    manifest = json.loads((work / "left.jsonl.manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["counters"]["files_parsed"] > 0


def test_identical_runs_have_equal_config_hashes(tmp_path):
    out = tmp_path / "left.jsonl"
    hashes = []
    for _ in range(2):
        p = remap("extract", "--root", FIXTURE / "left", "--out", out)
        assert p.returncode == 0, p.stderr
        hashes.append(json.loads(Path(str(out) + ".manifest.json").read_text())["config_hashes"])
    assert hashes[0] == hashes[1]


def test_file_cut_after_class_keyword_is_skipped(tmp_path):
    src = tmp_path / "src" / "main" / "p"
    src.mkdir(parents=True)
    (src / "A.java").write_text("package p;\npublic class A { public int f() { return 1; } }\n")
    (src / "B.java").write_text("package p;\npublic class")
    out = tmp_path / "snap.jsonl"
    p = remap("extract", "--root", tmp_path, "--out", out)
    assert p.returncode == 0, p.stderr
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert [path for path, _ in manifest["counters"]["failed_files"]] == ["src/main/p/B.java"]
    assert manifest["counters"]["methods"] == 1


def test_role_mismatch_is_runtime_error(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    p = remap(
        "score", "--pairs", pairs, "--left", right, "--right", left,
        "--out", tmp_path / "x.jsonl",
    )
    assert p.returncode == 2  # role validation is a usage problem
    err = json.loads(p.stderr.strip().split("\n")[-1])
    assert "role" in err["message"]


def test_score_and_summary(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    out = tmp_path / "scores.jsonl"
    p = remap(
        "score", "--pairs", pairs, "--left", left, "--right", right,
        "--task", "cm", "--threshold", "0.6", "--rules", "soot-sootup",
        "--out", out,
    )
    assert p.returncode == 0, p.stderr
    summary = json.loads(p.stdout.strip().split("\n")[-1])
    assert summary == {"orig": 40, "filt": 15, "out_pct": 62.5}
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert len(lines) == 40
    kept = [l for l in lines if l["kept"]]
    assert len(kept) == 15
    assert [l["rank"] for l in kept] == list(range(1, 16))


def test_score_with_stale_pairs_is_runtime_error(pipeline, tmp_path):
    work, left, right, _ = pipeline
    stale = tmp_path / "stale.jsonl"
    stale.write_text(json.dumps({
        "detector": "x",
        "left": {"key": "soot.Gone#f():1-5"},
        "right": {"key": "sootup.Gone#g():1-5"},
    }) + "\n")
    # unresolvable fragments: ingest-time hard error (likely wrong snapshot)
    p = remap(
        "ingest", "--format", "generic", "--report", stale,
        "--left", left, "--right", right, "--out", tmp_path / "o.jsonl",
    )
    assert p.returncode == 1
    # a pairs file with ids that no longer exist: score-time hard error
    stale_pairs = tmp_path / "stale_pairs.jsonl"
    stale_pairs.write_text(json.dumps({
        "detector": "x",
        "format_version": 1,
        "left": {"key": "soot.Gone#f():1-5"},
        "right": {"key": "sootup.Gone#g():1-5"},
    }) + "\n")
    p = remap(
        "score", "--pairs", stale_pairs, "--left", left, "--right", right,
        "--out", tmp_path / "s.jsonl",
    )
    assert p.returncode == 1
    err = json.loads(p.stderr.strip().split("\n")[-1])
    assert "soot.Gone#f():1-5" in err["message"]


def test_ingest_skips_a_line_whose_detector_is_not_a_string(pipeline, tmp_path):
    work, left, right, _ = pipeline
    rows = [json.loads(line) for line in (FIXTURE / "pairs.jsonl").read_text().split("\n")[:3]]
    del rows[0]["detector"]
    rows[1]["detector"], rows[2]["detector"] = None, 7
    report, out = tmp_path / "report.jsonl", tmp_path / "pairs.jsonl"
    report.write_text("".join(json.dumps(row) + "\n" for row in rows))
    p = remap("ingest", "--format", "generic", "--report", report,
              "--left", left, "--right", right, "--out", out)
    assert p.returncode == 0, p.stderr
    counters = json.loads(Path(f"{out}.manifest.json").read_text())["counters"]
    assert (counters["resolved"], counters["malformed"]) == (1, 2)
    assert "line 2: detector None is not a string" in p.stderr
    assert [json.loads(line)["detector"] for line in out.read_text().splitlines()] == ["unknown"]


def test_mostly_unresolved_nicad_report_is_runtime_error(pipeline, tmp_path, capsys):
    work, left, right, _ = pipeline
    clone = ('<clone><source file="gone/A.java" startline="1" endline="3"/>'
             '<source file="gone/B.java" startline="1" endline="3"/></clone>')
    report, out = tmp_path / "nicad.xml", tmp_path / "pairs.jsonl"
    report.write_text(f"<clones>{clone * 3}</clones>")
    code, err = _main_error(capsys, "ingest", "--format", "nicad-xml", "--report", report,
                            "--left", left, "--right", right, "--out", out)
    assert code == 1
    assert err["error"] == "IngestError" and "3 of 3 clones unresolved" in err["message"]
    assert not out.exists()


def test_reruns_are_byte_identical(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        p = remap(
            "score", "--pairs", pairs, "--left", left, "--right", right,
            "--task", "cm", "--threshold", "0.6", "--rules", "soot-sootup", "--out", out,
        )
        assert p.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _write_labels(path, left_snap, right_snap):
    import csv

    from remap.records import load_snapshot

    left = load_snapshot(left_snap)
    right = load_snapshot(right_snap)
    planted = json.loads((FIXTURE / "planted.json").read_text())
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["left_key", "right_key", "clone_type", "is_code_mapping", "code_type", "tools"])
        for row in planted["mappings"]:
            w.writerow([
                left.resolve_key(row["left"]).id, right.resolve_key(row["right"]).id,
                row["clone_type"], "true", "production", "fixture",
            ])
        for row in planted["non_mappings"]:
            w.writerow([
                left.resolve_key(row["left"]).id, right.resolve_key(row["right"]).id,
                row["clone_type"], "false", "production", "fixture",
            ])


def test_committed_toy_labels_are_the_planted_pairs(pipeline, tmp_path):
    """``tests/fixtures/toy/labels.csv``, which the console-script CI step
    evaluates and tunes on, holds what ``_write_labels`` writes."""
    work, left, right, _ = pipeline
    _write_labels(tmp_path / "labels.csv", left, right)
    assert (FIXTURE / "labels.csv").read_bytes() == (tmp_path / "labels.csv").read_bytes()


def test_eval_sweep_tune_ablate_impact(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    labels = tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    scores = tmp_path / "scores.jsonl"
    p = remap(
        "score", "--pairs", pairs, "--left", left, "--right", right,
        "--task", "cm", "--threshold", "0.6", "--rules", "soot-sootup", "--out", scores,
    )
    assert p.returncode == 0

    p = remap("eval", "--scored", scores, "--labels", labels, "--task", "cm",
              "--out", tmp_path / "metrics.json")
    assert p.returncode == 0, p.stderr
    metrics = json.loads(p.stdout.strip().split("\n")[-1])
    assert metrics["precision"] == 1.0 and metrics["recall"] == 1.0

    p = remap("sweep", "--scored", scores, "--labels", labels, "--task", "cm",
              "--thresholds", "0.0:1.0:0.05", "--csv", tmp_path / "plots" / "sweep.csv",
              "--out", tmp_path / "sweep.json")
    assert p.returncode == 0, p.stderr
    sweep_out = json.loads((tmp_path / "sweep.json").read_text())
    assert 0.55 <= sweep_out["best_threshold"] <= 0.8
    assert (tmp_path / "plots" / "sweep.csv").read_text().startswith("threshold,")
    assert (tmp_path / "sweep.json.manifest.json").is_file()

    p = remap("tune", "--scored", scores, "--labels", labels, "--task", "cm",
              "--grid-step", "0.25", "--out", tmp_path / "weights.json")
    assert p.returncode == 0, p.stderr
    weights = json.loads((tmp_path / "weights.json").read_text())
    assert set(weights) == {"alpha", "beta", "theta", "delta", "eta", "phi"}
    assert abs(weights["alpha"] + weights["beta"] + weights["theta"] - 1.0) < 1e-9
    counters = json.loads((tmp_path / "weights.json.manifest.json").read_text())["counters"]
    assert counters["grid_points"] == 15 and counters["weight_configs"] == 225  # step 1/4
    assert counters["k"] == 15  # the planted mappings

    p = remap("ablate", "--pairs", pairs, "--left", left, "--right", right,
              "--labels", labels, "--task", "cm", "--threshold", "0.6",
              "--rules", "soot-sootup", "--out", tmp_path / "ablate.json")
    assert p.returncode == 0, p.stderr
    ablate = json.loads((tmp_path / "ablate.json").read_text())
    assert set(ablate) == {"ALL", "EXR1", "EXR2", "EXR3", "EXR4"}
    assert ablate["ALL"]["metrics"]["avg_f1"] >= ablate["EXR2"]["metrics"]["avg_f1"]

    p = remap("impact", "--pairs", pairs, "--left", left, "--right", right,
              "--setting", "exr2", "--rules", "soot-sootup",
              "--out", tmp_path / "impact.json")
    assert p.returncode == 0, p.stderr
    impact = json.loads((tmp_path / "impact.json").read_text())
    assert impact["EXR2"]["production"]["affected"] > 0


def test_tune_trains_a_repeated_pair_once(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    labels = tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    # the repeated file is what score writes for a pairs file that lists its first pair twice
    twice = tmp_path / "twice.jsonl"
    lines = pairs.read_text().splitlines(keepends=True)
    twice.write_text("".join(lines + lines[:1]))
    scores, repeated = tmp_path / "scores.jsonl", tmp_path / "repeated.jsonl"
    for pairs_file, out in ((pairs, scores), (twice, repeated)):
        p = remap(
            "score", "--pairs", pairs_file, "--left", left, "--right", right,
            "--task", "cm", "--threshold", "0.6", "--rules", "soot-sootup", "--out", out,
        )
        assert p.returncode == 0, p.stderr
    assert len(repeated.read_text().splitlines()) == len(scores.read_text().splitlines()) + 1
    runs = []
    for scored, k in ((scores, []), (repeated, []), (scores, ["--k", "41"]), (repeated, ["--k", "41"])):
        out = tmp_path / f"{scored.stem}{len(k)}.weights.json"
        p = remap("tune", "--scored", scored, "--labels", labels, "--task", "cm",
                  "--grid-step", "0.25", *k, "--out", out)
        assert p.returncode == 0, p.stderr
        counters = json.loads(Path(f"{out}.manifest.json").read_text())["counters"]
        runs.append((out.read_bytes(), counters["training"], counters["k"]))
    assert runs[0] == runs[1] and runs[0][1:] == (40, 15)
    assert runs[2] == runs[3] and runs[2][1:] == (40, 40)  # a K past the 40 labeled pairs counts them all


def test_pairs_command_exhaustive(pipeline, tmp_path):
    work, left, right, _ = pipeline
    out = tmp_path / "exhaustive.jsonl"
    p = remap("pairs", "--mode", "exhaustive", "--left", left, "--right", right,
              "--min-loc", "5", "--out", out)
    assert p.returncode == 0, p.stderr
    assert len(out.read_text().strip().split("\n")) == 756


def test_prefilter_manifest_counts_scored_class_pairs(pipeline, tmp_path):
    from remap import cli
    from remap.records import load_snapshot

    work, left, right, _ = pipeline
    product = len(load_snapshot(left).class_index) * len(load_snapshot(right).class_index)
    counters = {}
    for class_sim in ("0.5", "0"):
        out = tmp_path / f"pairs.{class_sim}.jsonl"
        argv = ["pairs", "--mode", "prefilter", "--left", str(left), "--right", str(right),
                "--rules", "soot-sootup", "--class-sim", class_sim, "--out", str(out)]
        assert cli.main(argv) == 0
        counters[class_sim] = json.loads(Path(f"{out}.manifest.json").read_text())["counters"]
    assert counters["0.5"]["class_pairs"] <= counters["0.5"]["class_pairs_scored"] <= product
    assert counters["0"]["class_pairs_scored"] == counters["0"]["class_pairs"] == product


def _java_class(package: str, name: str, methods: list[str]) -> str:
    """A class whose every method spans six lines."""
    bodies = "".join(
        f"    public int {m}(int x) {{\n        int acc = x;\n        acc += {i};\n        acc *= 2;\n"
        f"        return acc;\n    }}\n"
        for i, m in enumerate(methods)
    )
    return f"package {package};\npublic class {name} {{\n{bodies}}}\n"


def test_extract_marks_test_sources_and_impact_groups_every_pair_by_code_type(tmp_path):
    """Test code on both sides: extract marks what lies under src/test/, and
    impact's production, test and mixed groups share out all the pairs."""
    from remap import cli
    from remap.records import load_snapshot

    trees = {
        "left": ("soot", {"main": ["add", "sub"], "test": ["checkAdd"]}),
        "right": ("sootup", {"main": ["add"], "test": ["checkAdd", "checkSub"]}),
    }
    for side, (package, kinds) in trees.items():
        for kind, methods in kinds.items():
            name = "Calc" if kind == "main" else "CalcTest"
            d = tmp_path / side / "src" / kind / "java" / package
            d.mkdir(parents=True)
            (d / f"{name}.java").write_text(_java_class(package, name, methods))
    snaps = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for side, role in (("left", "original"), ("right", "redesigned")):
            snaps[side] = tmp_path / f"{side}.jsonl"
            assert cli.main(["extract", "--root", str(tmp_path / side), "--role", role,
                             "--out", str(snaps[side])]) == 0
        for side, (_, kinds) in trees.items():
            marked = {(r.method_name, r.is_test) for r in load_snapshot(snaps[side]).records}
            assert marked == {(m, kind == "test") for kind, methods in kinds.items() for m in methods}, side
        pairs, impact = tmp_path / "pairs.jsonl", tmp_path / "impact.json"
        both = ["--left", str(snaps["left"]), "--right", str(snaps["right"])]
        assert cli.main(["pairs", "--mode", "exhaustive", *both, "--out", str(pairs)]) == 0
        assert cli.main(["impact", "--pairs", str(pairs), *both, "--rules", "soot-sootup",
                         "--out", str(impact)]) == 0
    report = json.loads(impact.read_text())
    assert list(report) == ["EXR1", "EXR2", "EXR3", "EXR4"]
    for setting, groups in report.items():
        # production 2 x 1, test 1 x 2, mixed 2 x 2 + 1 x 1: all 3 x 3 pairs
        assert {g: groups[g]["pairs"] for g in groups} == {"mixed": 5, "production": 2, "test": 2}, setting


def test_normalize_command(pipeline, tmp_path):
    work, left, right, _ = pipeline
    out = tmp_path / "norm.jsonl"
    p = remap("normalize", "--snapshot", left, "--rules", "soot-sootup", "--out", out)
    assert p.returncode == 0, p.stderr
    first = json.loads(out.read_text().split("\n")[0])
    assert "method_name" in first and "class_doc" in first


def test_rules_resolve_by_bundled_name_and_by_path(pipeline, tmp_path):
    from remap import cli
    from remap.normalizer import SOOT_SOOTUP_RULES

    work, left, right, _ = pipeline
    SOOT_SOOTUP_RULES.save(tmp_path / "rules.json")
    outputs = {}
    for name, rules in (("bundled", ["--rules", "soot-sootup"]),
                        ("file", ["--rules", str(tmp_path / "rules.json")]),
                        ("none", [])):
        out = tmp_path / f"{name}.jsonl"
        assert cli.main(["normalize", "--snapshot", str(left), *rules, "--out", str(out)]) == 0
        outputs[name] = out.read_text()
    assert outputs["bundled"] == outputs["file"] != outputs["none"]


def _main_error(capsys, *argv):
    """Run remap.cli.main in-process; return its exit code and the one
    JSON error line it printed to stderr."""
    from remap import cli

    code = cli.main([str(a) for a in argv])
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])


@pytest.mark.parametrize("weights, culprit", [
    ({"alpha": 0.5, "beta": 0.25, "theta": 0.25, "gamma": 1.0}, "gamma"),
    ({"alpha": "0.5", "beta": 0.25, "theta": 0.25}, "alpha"),
    ([0.5, 0.25, 0.25], "list"),
    # the former 0/0 policy keys are not weights: one alone, or all four as in
    # the ten-key file that tune wrote before the 0/0 rules were fixed
    ({"absent_param": 5}, "absent_param"),
    ({"alpha": 0, "beta": 0, "theta": 1, "renormalize_missing_optional": True}, "renormalize"),
    ({"renormalize_missing_optional": "false"}, "renormalize_missing_optional"),
    ({"drop_absent_optional": 0}, "drop_absent_optional"),
    ({"alpha": 0.4, "beta": 0.3, "theta": 0.3, "delta": 0.4, "eta": 0.3, "phi": 0.3,
      "renormalize_missing_optional": False, "absent_class_doc": 0.0, "absent_param": 1.0,
      "drop_absent_optional": True},
     "unknown weight keys: absent_class_doc, absent_param, drop_absent_optional, "
     "renormalize_missing_optional"),
])
def test_bad_weights_file_is_usage_error(pipeline, tmp_path, capsys, weights, culprit):
    work, left, right, pairs = pipeline
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights))
    code, err = _main_error(
        capsys, "score", "--pairs", pairs, "--left", left, "--right", right,
        "--weights", path, "--out", tmp_path / "s.jsonl",
    )
    assert code == 2
    assert err["error"] == "usage" and culprit in err["message"]
    assert not (tmp_path / "s.jsonl").exists()


def _rule(**overrides):
    rule = {"scope": "all_details", "target": "original", "pattern": "Unit", "replacement": "Stmt",
            "order": 1}
    return {**rule, **overrides}


@pytest.mark.parametrize("body, culprit", [
    ([], '"rules" list'),
    ({"rules": [_rule(pattern="(")]}, "missing )"),
    ({"rules": [_rule(order="1"), _rule(order=2)]}, "order must be an integer"),
    ({"rules": [_rule(replacement="\\9")]}, "invalid group reference 9"),
    ({"rules": [{k: v for k, v in _rule().items() if k != "target"}]}, "keys scope, target"),
])
def test_bad_rules_file_is_usage_error(pipeline, tmp_path, capsys, body, culprit):
    work, left, right, pairs = pipeline
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(body))
    code, err = _main_error(
        capsys, "pairs", "--mode", "prefilter", "--left", left, "--right", right,
        "--rules", path, "--out", tmp_path / "p.jsonl",
    )
    assert code == 2
    assert err["error"] == "usage" and culprit in err["message"]
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("line, culprit", [
    ("[1]", "expected a JSON object"),
    ('{"format_version": 1, "left": {"key": "a"}}', "right.key"),
    ('{"format_version": 2, "left": {"key": "a"}, "right": {"key": "b"}}', "format_version 2"),
    ('{"detector": "d", "format_version": true, "left": {"key": "a"}, "right": {"key": "b"}}',
     "format_version True is not 1"),
    ('{"detector": "d", "format_version": 1.0, "left": {"key": "a"}, "right": {"key": "b"}}',
     "format_version 1.0 is not 1"),
    ('{"format_version": 1, "detector": null, "left": {"key": "a"}, "right": {"key": "b"}}',
     "detector None is not a string"),
])
def test_bad_pairs_file_is_usage_error(pipeline, tmp_path, capsys, line, culprit):
    work, left, right, pairs = pipeline
    bad = tmp_path / "pairs.jsonl"
    bad.write_text(pairs.read_text().split("\n")[0] + "\n" + line + "\n")
    code, err = _main_error(
        capsys, "score", "--pairs", bad, "--left", left, "--right", right,
        "--out", tmp_path / "s.jsonl",
    )
    assert code == 2
    assert err["error"] == "usage" and f"line 2: {culprit}" in err["message"]
    assert not (tmp_path / "s.jsonl").exists()


@pytest.fixture(scope="module")
def scored(pipeline, tmp_path_factory):
    """A scored file and a labels file of the fixture pipeline."""
    from remap import cli

    work, left, right, pairs = pipeline
    d = tmp_path_factory.mktemp("scored")
    scores, labels = d / "scores.jsonl", d / "labels.csv"
    _write_labels(labels, left, right)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                         "--out", str(scores)]) == 0
    return scores, labels


@pytest.mark.parametrize("line, culprit", [
    ("[1]", "expected a JSON object, not list"),
    ('{"left": "a"}', "right is missing"),
    ("not json", "Expecting value"),
    # the first row with these fields replaced: rows that no score run writes
    ({"sas": float("nan")}, "sas is nan, not a number in [0,1]"),
    ({"sas": float("inf")}, "sas is inf, not a number in [0,1]"),
    ({"sas": -3.0}, "sas is -3.0, not a number in [0,1]"),
    ({"sim_param": 7.5}, "sim_param is 7.5, not a number in [0,1]"),
    ({"kept": True, "rank": None}, "rank is None: a kept row needs a rank of at least 1"),
    ({"kept": True, "rank": 0}, "rank is 0: a kept row needs a rank of at least 1"),
    ({"kept": False, "rank": 3}, "rank is 3: a kept row needs a rank of at least 1, a dropped row null"),
])
def test_bad_scored_file_is_usage_error(scored, tmp_path, capsys, line, culprit):
    scores, labels = scored
    first = scores.read_text().split("\n")[0]
    if isinstance(line, dict):
        line = json.dumps({**json.loads(first), **line})
    bad = tmp_path / "scores.jsonl"
    bad.write_text(first + "\n" + line + "\n")
    evaluated = ["--scored", bad, "--labels", labels, "--task", "cm"]
    for command in ("eval", "sweep", "tune"):
        code, err = _main_error(capsys, command, *evaluated, "--out", tmp_path / f"{command}.json")
        assert code == 2, command
        assert err["error"] == "usage" and f"line 2: {culprit}" in err["message"], command
        assert not (tmp_path / f"{command}.json").exists()


def _reordered(rows: list[dict], edit: str) -> list[dict]:
    """A scored file's rows with the order ``ranked`` writes broken."""
    k = sum(r["kept"] for r in rows)
    if edit == "top row dropped":
        return [{**rows[0], "kept": False, "rank": None}, *rows[1:]]
    if edit == "kept row after a dropped one":
        return [*rows[:k - 1], rows[k], rows[k - 1], *rows[k + 1:]]
    if edit == "ranks swapped":
        return [{**rows[0], "rank": 2}, {**rows[1], "rank": 1}, *rows[2:]]
    return [*rows[:k], {**rows[k], "sas": rows[k - 1]["sas"]}, *rows[k + 1:]]  # a dropped row ties a kept one


@pytest.mark.parametrize("edit, culprit", [
    ("top row dropped", "line 2: a kept row follows a dropped row"),
    ("ranks swapped", "line 1: rank is 2, not 1"),
    ("kept row after a dropped one", "line 16: a kept row follows a dropped row"),
    ("dropped row scores as a kept one", "line 16: a dropped row's sas"),
])
def test_scored_rows_out_of_rank_order_are_usage_error(pipeline, tmp_path, capsys, edit, culprit):
    """The toy pairs scored at cm 0.6 keep 15 rows; a file whose kept rows are
    not first, ranked 1..k, and above every dropped row is not one score wrote."""
    from remap import cli

    work, left, right, pairs = pipeline
    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in ["score", "--pairs", pairs, "--left", left, "--right", right, "--task", "cm",
                                          "--threshold", "0.6", "--rules", "soot-sootup", "--out", scores]]) == 0
    rows = [json.loads(line) for line in scores.read_text().splitlines()]
    assert sum(r["kept"] for r in rows) == 15
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in _reordered(rows, edit)))
    capsys.readouterr()
    for command in ("eval", "sweep", "tune"):
        code, err = _main_error(capsys, command, "--scored", bad, "--labels", labels, "--task", "cm",
                                "--out", tmp_path / f"{command}.json")
        assert code == 2, command
        assert err["error"] == "usage" and culprit in err["message"], (command, err)
        assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("weights", [
    dict.fromkeys(["alpha", "beta", "theta", "delta", "eta", "phi"], 0.3333333334),
    # WeightConfig's own tolerance: a weight EPS outside [0,1], a triple summing to 1 + EPS
    {"alpha": 1 + 1e-9, "beta": -1e-9, "theta": 5e-10, "delta": 1 + 1e-9, "eta": -1e-9, "phi": 5e-10},
    {"alpha": -1e-9, "beta": 1 + 1e-9, "theta": -1e-9, "delta": -1e-9, "eta": -1e-9, "phi": 1 + 1e-9},
])
def test_eval_sweep_tune_read_what_score_writes_under_any_accepted_weights(pipeline, tmp_path, weights):
    from remap import cli

    work, left, right, pairs = pipeline
    scores, labels, wfile = tmp_path / "scores.jsonl", tmp_path / "labels.csv", tmp_path / "w.json"
    _write_labels(labels, left, right)
    wfile.write_text(json.dumps(weights))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                         "--weights", str(wfile), "--out", str(scores)]) == 0
        rows = [json.loads(line) for line in scores.read_text().splitlines()]
        # the weighted sums leave [0,1] by a few EPS, as aggregate computes them
        assert any(not 0.0 <= r[f] <= 1.0 for r in rows for f in ("sas", "sim_method_header"))
        evaluated = ["--scored", str(scores), "--labels", str(labels), "--task", "cm"]
        for command in ("eval", "sweep", "tune"):
            assert cli.main([command, *evaluated, "--out", str(tmp_path / f"{command}.json")]) == 0, command


def test_scored_row_fields_keep_their_json_types(scored, tmp_path, capsys):
    scores, labels = scored
    row = json.loads(scores.read_text().split("\n")[0])
    for field, value in [("kept", 1), ("rank", 1.0), ("sas", None), ("sim_param", "0.5"), ("ablation", None)]:
        (tmp_path / "s.jsonl").write_text(json.dumps({**row, field: value}) + "\n")
        code, err = _main_error(capsys, "eval", "--scored", tmp_path / "s.jsonl", "--labels", labels,
                                "--task", "cm", "--out", tmp_path / "e.json")
        assert code == 2 and f"line 1: {field} is missing or not" in err["message"], field


@pytest.mark.parametrize("text, culprit", [
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T1\n", "line 2: the row has no is_code_mapping"),
    ("left_key,right_key,clone_type,is_code_mapping,code_type\na,b,T1,true\nx\n",
     "line 3: the row has no right_key, clone_type, is_code_mapping"),
    ("left_key,right_key,is_code_mapping\na,b,true\n", "line 1: the header lacks clone_type"),
    ('left_key,right_key,clone_type,is_code_mapping\n"' + "x" * 200_000 + '",b,T1,true\n',
     "line 2: field larger than field limit"),
    ("left_key,right_key,clone_type,is_code_mapping\na,b,T1,true\na,b,non_clone,false\n",
     "line 3: a / b is already labeled on line 2"),
])
def test_bad_labels_file_is_usage_error(scored, tmp_path, capsys, text, culprit):
    scores, labels = scored
    bad = tmp_path / "labels.csv"
    bad.write_text(text)
    code, err = _main_error(capsys, "eval", "--scored", scores, "--labels", bad, "--task", "cm",
                            "--out", tmp_path / "e.json")
    assert code == 2
    assert err["error"] == "usage" and culprit in err["message"]


def test_a_mistyped_code_mapping_label_is_usage_error_wherever_labels_are_read(pipeline, scored, tmp_path,
                                                                                capsys):
    """A planted mapping labeled ``ture`` is no label at all, not a
    non-mapping that eval would count as a false positive."""
    work, left, right, pairs = pipeline
    scores, labels = scored
    header, row = labels.read_text().splitlines()[:2]
    assert ",T2,true," in row
    bad = tmp_path / "labels.csv"
    bad.write_text(f"{header}\n{row.replace(',true,', ',ture,')}\n")
    evaluated = ["--scored", scores, "--labels", bad, "--task", "cm"]
    for argv in (["eval", *evaluated], ["sweep", *evaluated], ["tune", *evaluated, "--grid-step", "0.5"],
                 ["ablate", "--pairs", pairs, "--left", left, "--right", right, "--labels", bad,
                  "--task", "cm"]):
        code, err = _main_error(capsys, *argv, "--out", tmp_path / "out.json")
        assert code == 2 and err["error"] == "usage", argv[0]
        assert f"invalid labels file {bad}: line 2: is_code_mapping 'ture'" in err["message"], argv[0]
        assert not (tmp_path / "out.json").exists()


def test_bad_snapshot_line_is_usage_error(pipeline, tmp_path, capsys):
    work, left, right, pairs = pipeline
    bad = tmp_path / "left.jsonl"
    lines = left.read_text().splitlines()
    bad.write_text("\n".join(lines) + "\n[1]\n")
    (tmp_path / "left.classes.json").write_bytes(left.with_suffix(".classes.json").read_bytes())
    code, err = _main_error(capsys, "pairs", "--mode", "exhaustive", "--left", bad, "--right", right,
                            "--out", tmp_path / "p.jsonl")
    assert code == 2
    assert err["error"] == "usage"
    assert f"invalid left snapshot {bad}: line {len(lines) + 1}: expected a JSON object" in err["message"]


@pytest.mark.parametrize("edit, culprit", [
    (lambda meta: [1], "expected a JSON object, not list"),
    (lambda meta: {k: v for k, v in meta.items() if k != "classes"}, "classes is missing or not list"),
    (lambda meta: {**meta, "summary": {**meta["summary"], "failed_files": [["a.java", 3]]}},
     "failed_files holds an entry that is not a [path, reason] pair of strings"),
    (lambda meta: {**meta, "classes": [{**meta["classes"][0], "class_doc": None}, *meta["classes"][1:]]},
     "class_doc is missing or not str"),
])
def test_bad_snapshot_sidecar_is_usage_error(pipeline, tmp_path, capsys, edit, culprit):
    work, left, right, pairs = pipeline
    bad = tmp_path / "left.jsonl"
    bad.write_bytes(left.read_bytes())
    meta = json.loads(left.with_suffix(".classes.json").read_text())
    (tmp_path / "left.classes.json").write_text(json.dumps(edit(meta)))
    code, err = _main_error(capsys, "pairs", "--mode", "exhaustive", "--left", bad, "--right", right,
                            "--out", tmp_path / "p.jsonl")
    assert code == 2
    assert err["error"] == "usage"
    assert f"invalid left snapshot {bad}: sidecar {tmp_path / 'left.classes.json'}: {culprit}" in err["message"]


def test_snapshot_without_its_sidecar_is_usage_error(pipeline, tmp_path, capsys):
    work, left, right, pairs = pipeline
    lonely = tmp_path / "lonely.jsonl"
    lonely.write_bytes(left.read_bytes())
    for argv in (["score", "--pairs", pairs, "--left", lonely, "--right", right],
                 ["normalize", "--snapshot", lonely]):
        code, err = _main_error(capsys, *argv, "--out", tmp_path / "out.jsonl")
        assert code == 2 and err["error"] == "usage", argv[0]
        assert str(tmp_path / "lonely.classes.json") in err["message"], argv[0]
        assert err["message"].endswith("sidecar not found: " + str(tmp_path / "lonely.classes.json"))


@pytest.mark.parametrize("repeat", ["class", "record"])
def test_snapshot_that_repeats_a_class_or_record_is_usage_error(pipeline, tmp_path, capsys, repeat):
    work, left, right, pairs = pipeline
    lines = left.read_text().splitlines(keepends=True)
    meta = json.loads(left.with_suffix(".classes.json").read_text())
    if repeat == "class":
        meta["classes"].append({**meta["classes"][0], "class_doc": "a second doc"})
        culprit = f"class {meta['classes'][0]['qualified_name']}"
    else:
        lines.append(lines[0])
        culprit = f"record id {json.loads(lines[0])['id']}"
    bad = tmp_path / "left.jsonl"
    bad.write_text("".join(lines))
    (tmp_path / "left.classes.json").write_text(json.dumps(meta))
    code, err = _main_error(capsys, "pairs", "--mode", "exhaustive", "--left", bad, "--right", right,
                            "--out", tmp_path / "p.jsonl")
    assert code == 2
    assert err["error"] == "usage"
    assert err["message"] == f"invalid left snapshot {bad}: {culprit} appears twice"


def test_sweep_zero_step_is_usage_error(pipeline, tmp_path, capsys):
    work, left, right, pairs = pipeline
    from remap import cli

    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                     "--out", str(scores)]) == 0
    capsys.readouterr()
    for spec in ("0:1:0", "1:0:0.1", "0:1:x", "0.5,1.5", "0:1:1e-9", "0.5,0.2", "0.5,0.5"):
        code, err = _main_error(
            capsys, "sweep", "--scored", scores, "--labels", labels, "--task", "cm",
            "--thresholds", spec, "--out", tmp_path / "sweep.json",
        )
        assert code == 2, spec
        assert err["error"] == "usage" and spec in err["message"]


def test_sweep_failed_csv_leaves_no_out(pipeline, tmp_path, capsys):
    work, left, right, pairs = pipeline
    from remap import cli

    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                     "--out", str(scores)]) == 0
    capsys.readouterr()
    (tmp_path / "adir").mkdir()
    code, err = _main_error(
        capsys, "sweep", "--scored", scores, "--labels", labels, "--task", "cm",
        "--csv", tmp_path / "adir", "--out", tmp_path / "sw.json",
    )
    assert code == 1 and set(err) == {"error", "message"}
    assert not (tmp_path / "sw.json").exists()
    assert not (tmp_path / "sw.json.manifest.json").exists()


def test_sweep_manifest_lists_its_csv_among_the_outputs(scored, tmp_path):
    from remap import cli

    scores, labels = scored
    out, csv_path = tmp_path / "sweep.json", tmp_path / "plots" / "sweep.csv"
    argv = ["sweep", "--scored", str(scores), "--labels", str(labels), "--task", "cm", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["outputs"] == [str(out)]
        assert cli.main([*argv, "--csv", str(csv_path)]) == 0
    assert json.loads(Path(f"{out}.manifest.json").read_text())["outputs"] == [str(out), str(csv_path)]
    assert csv_path.is_file()


def test_sweep_range_stops_at_hi(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    from remap import cli

    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                     "--out", str(scores)]) == 0
    for spec, expected in [
        ("0:0.5:0.3", [0.0, 0.3]),  # a second step would pass hi
        ("0.5:1:0.3", [0.5, 0.8]),
        ("0:1:0.05", [i / 20 for i in range(21)]),  # 1/0.05 is a hair over 20
        ("0.1:0.7:0.2", [0.1, 0.3, 0.5, 0.7]),  # 0.6/0.2 is a hair under 3
    ]:
        assert cli.main(["sweep", "--scored", str(scores), "--labels", str(labels), "--task", "cm",
                         "--thresholds", spec, "--out", str(tmp_path / "sweep.json")]) == 0
        points = json.loads((tmp_path / "sweep.json").read_text())["points"]
        assert [p["threshold"] for p in points] == expected, spec


def test_in_process_manifest_records_the_argv_passed_to_main(pipeline, tmp_path):
    from remap import cli

    work, left, right, pairs = pipeline
    argv = ["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
            "--out", str(tmp_path / "s.jsonl")]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "s.jsonl.manifest.json").read_text())
    assert manifest["command"] == argv


def test_importing_the_cli_leaves_numpy_out():
    code = "import sys, remap.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_manifest_starts_before_the_work(pipeline, tmp_path, monkeypatch):
    work, left, right, pairs = pipeline
    import time

    from remap import cli, mapper

    called_at = []
    measure_pairs = mapper.measure_pairs

    def timed(*args, **kwargs):
        called_at.append(time.time())
        return measure_pairs(*args, **kwargs)

    monkeypatch.setattr(mapper, "measure_pairs", timed)
    out = tmp_path / "s.jsonl"
    assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                     "--out", str(out)]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["started_at"] < called_at[0] < manifest["finished_at"]
    assert manifest["counters"]["pairs_in"] == 40
    assert manifest["outputs"] == [str(out)]


INPUT_FLAGS = {"--root", "--left", "--right", "--pairs", "--report", "--scored", "--labels",
               "--rules", "--weights", "--snapshot"}


def test_every_manifest_lists_the_inputs_it_read(pipeline, tmp_path):
    import hashlib

    from remap import cli
    from remap.normalizer import SOOT_SOOTUP_RULES
    from remap.simcore import WeightConfig

    work, left, right, pairs = pipeline
    labels, rules, weights = tmp_path / "labels.csv", tmp_path / "rules.json", tmp_path / "weights.json"
    _write_labels(labels, left, right)
    SOOT_SOOTUP_RULES.save(rules)
    WeightConfig().save(weights)
    scored = tmp_path / "scored.jsonl"
    snaps = ["--left", left, "--right", right]
    scoring = ["--pairs", pairs, *snaps, "--rules", rules, "--weights", weights]
    evaluated = ["--scored", scored, "--labels", labels, "--task", "cm"]
    commands = [
        ["extract", "--root", FIXTURE / "left", "--out", tmp_path / "left.jsonl"],
        ["pairs", "--mode", "prefilter", *snaps, "--rules", rules, "--out", tmp_path / "pairs.jsonl"],
        ["ingest", "--format", "generic", "--report", FIXTURE / "pairs.jsonl", *snaps,
         "--out", tmp_path / "ingested.jsonl"],
        ["score", *scoring, "--out", scored],
        ["eval", *evaluated, "--out", tmp_path / "eval.json"],
        ["sweep", *evaluated, "--out", tmp_path / "sweep.json"],
        ["tune", *evaluated, "--grid-step", "0.25", "--out", tmp_path / "tuned.json"],
        ["ablate", *scoring, "--labels", labels, "--task", "cm", "--out", tmp_path / "ablate.json"],
        ["impact", *scoring, "--out", tmp_path / "impact.json"],
        ["normalize", "--snapshot", left, "--rules", rules, "--out", tmp_path / "norm.jsonl"],
    ]
    manifests, missing = {}, {}
    for argv in commands:
        argv = [str(a) for a in argv]
        assert cli.main(argv) == 0, argv
        manifest = manifests[argv[0]] = json.loads(Path(argv[-1] + ".manifest.json").read_text())
        passed = {value for flag, value in zip(argv, argv[1:]) if flag in INPUT_FLAGS}
        if passed - set(manifest["inputs"]):
            missing[argv[0]] = sorted(passed - set(manifest["inputs"]))
    assert missing == {}
    for command, manifest in manifests.items():
        files = [p for p in manifest["inputs"] if Path(p).is_file()]
        assert manifest["input_sha256"] == {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in files
        }, command
        assert list(manifest["config_hashes"]) == [command]


def test_input_sha256_follows_the_bytes_read(pipeline, tmp_path):
    from remap import cli

    work, left, right, pairs = pipeline
    copy = tmp_path / "pairs.jsonl"
    copy.write_bytes(pairs.read_bytes())
    out = tmp_path / "s.jsonl"

    def digests():
        assert cli.main(["score", "--pairs", str(copy), "--left", str(left), "--right", str(right),
                         "--out", str(out)]) == 0
        return json.loads(Path(str(out) + ".manifest.json").read_text())["input_sha256"]

    first, second = digests(), digests()
    assert first == second and str(copy) in first
    copy.write_bytes(copy.read_bytes()[:-1] + b" ")  # the last newline becomes a space
    edited = digests()
    assert edited[str(copy)] != first[str(copy)]
    assert {k: v for k, v in edited.items() if k != str(copy)} == {
        k: v for k, v in first.items() if k != str(copy)
    }


def _ablation_argv(pipeline, tmp_path):
    work, left, right, pairs = pipeline
    labels = tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    common = ["--pairs", pairs, "--left", left, "--right", right, "--rules", "soot-sootup"]
    ablate = ["ablate", *common, "--labels", labels, "--task", "cm", "--threshold", "0.6",
              "--out", tmp_path / "ablate.json"]
    impact = ["impact", *common, "--out", tmp_path / "impact.json"]
    return [str(a) for a in ablate], [str(a) for a in impact]


def test_ablate_and_impact_measure_each_record_at_most_twice(pipeline, tmp_path, monkeypatch):
    from collections import Counter

    from remap import cli, mapper

    work, left, right, pairs = pipeline
    ablate, impact = _ablation_argv(pipeline, tmp_path)
    calls = Counter()
    normalize_record = mapper.normalize_record

    def counted(rec, *args, **kwargs):
        calls[rec.id] += 1
        return normalize_record(rec, *args, **kwargs)

    monkeypatch.setattr(mapper, "normalize_record", counted)
    loaded = [json.loads(line) for line in pairs.read_text().splitlines()]
    records = {d[side]["key"] for d in loaded for side in ("left", "right")}
    # EXR1 measures without the renaming rules; every other mode reuses
    # the measurement with them
    for argv, per_record in ((ablate, 2), (impact, 2), (impact + ["--setting", "exr2"], 1)):
        calls.clear()
        assert cli.main(argv) == 0
        assert set(calls) == records and set(calls.values()) == {per_record}, argv[0]


def test_ablate_and_impact_equal_one_score_pairs_run_per_mode(pipeline, tmp_path):
    from remap import cli, evalkit, ingest, mapper
    from remap.records import load_snapshot
    from remap.simcore import ABLATION_MODES

    work, left, right, pairs = pipeline
    lsnap, rsnap = load_snapshot(left), load_snapshot(right)
    lines = pairs.read_text().splitlines(keepends=True)
    repeated = tmp_path / "repeated.jsonl"  # one pair twice in a row, another at the end too
    repeated.write_text("".join([lines[0], *lines[:3], *lines[3:], lines[2]]))
    for pairs_file, settings in ((pairs, []), (repeated, []), (pairs, ["--setting", "exr2"])):
        ablate, impact = _ablation_argv((work, left, right, pairs_file), tmp_path)
        assert cli.main(ablate) == 0
        assert cli.main(impact + settings) == 0

        loaded = ingest.load_pairs(pairs_file)
        labels = evalkit.load_labels(tmp_path / "labels.csv")

        def score(mode):
            """The rows of one ``score`` run under ``mode``, kept at 0.6."""
            out = tmp_path / f"{mode}.jsonl"
            argv = ["score", "--pairs", pairs_file, "--left", left, "--right", right,
                    "--rules", "soot-sootup", "--ablation", mode.lower(), "--threshold", "0.6", "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([str(a) for a in argv]) == 0
            return mapper.load_results(out)

        rows = {mode: score(mode) for mode in ABLATION_MODES}
        expected = {}
        for mode in ABLATION_MODES:
            kept = {r.key for r in rows[mode] if r.kept}
            counts, metrics = evalkit.evaluate(kept, labels, mapper.TASK_CODE_MAPPING)
            expected[mode] = {"confusion": counts.to_dict(), "metrics": metrics.to_dict()}
        assert json.loads((tmp_path / "ablate.json").read_text()) == expected, pairs_file

        code_types = evalkit.code_types(loaded, lsnap, rsnap)
        baseline = {r.key: r.sas for r in rows["ALL"]}
        expected = {
            mode: evalkit.rule_impact(baseline, {r.key: r.sas for r in rows[mode]}, code_types)
            for mode in (["EXR2"] if settings else ["EXR1", "EXR2", "EXR3", "EXR4"])
        }
        assert json.loads((tmp_path / "impact.json").read_text()) == expected, (pairs_file, settings)


def test_manifests_count_distinct_measurements(pipeline, tmp_path):
    """``score``, ``ablate`` and ``impact`` record the distinct ``measure``
    tuples of each rule set they measure, ``none`` for EXR1's, and how many
    pairs each measured in packed runs from how many run packs: the toy's
    cross product pairs every left method with the same 27 right ones, so
    every left method after the first reuses one pack."""
    from remap import cli, mapper
    from remap.ingest import load_pairs
    from remap.normalizer import EMPTY_RULESET, SOOT_SOOTUP_RULES
    from remap.records import load_snapshot

    work, left, right, _ = pipeline
    pairs = tmp_path / "exhaustive.jsonl"
    assert cli.main(["pairs", "--mode", "exhaustive", "--left", str(left), "--right", str(right),
                     "--out", str(pairs)]) == 0
    lsnap, rsnap, loaded = load_snapshot(left), load_snapshot(right), load_pairs(pairs)
    distinct = {rules.name: len(set(mapper.measure_pairs(loaded, lsnap, rsnap, rules)))
                for rules in (SOOT_SOOTUP_RULES, EMPTY_RULESET)}
    assert distinct[SOOT_SOOTUP_RULES.name] < len(loaded) == 756
    with_rules = {SOOT_SOOTUP_RULES.name: distinct[SOOT_SOOTUP_RULES.name]}
    ablate, impact = _ablation_argv((work, left, right, pairs), tmp_path)
    score = ["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
             "--rules", "soot-sootup", "--out", str(tmp_path / "scored.jsonl")]
    for argv, expected in ((score, with_rules), (score + ["--ablation", "exr1"], {"none": distinct["none"]}),
                           (ablate, distinct), (impact, distinct), (impact + ["--setting", "exr2"], with_rules)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        out = argv[argv.index("--out") + 1]
        counters = json.loads(Path(f"{out}.manifest.json").read_text())["counters"]
        assert counters["distinct_measurements"] == expected, argv[0]
        assert counters["packed_pairs"] == dict.fromkeys(expected, 756 - 27), argv[0]
        assert counters["run_packs_built"] == dict.fromkeys(expected, 1), argv[0]


def test_manifests_count_labels_that_match_no_row(pipeline, tmp_path):
    """``eval``, ``sweep``, ``ablate`` and ``tune`` record how many labels
    name no scored row or pair: the toy labels keyed by signatures, their
    line spans dropped, match nothing. ``tune`` trains on matched labels
    alone, so they do not change its weights."""
    import csv
    import re

    from remap import cli

    work, left, right, pairs = pipeline
    with (FIXTURE / "labels.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, labels = rows[0], rows[1:]
    signatures = [[re.sub(r":\d+-\d+$", "", key) for key in row[:2]] + row[2:] for row in labels]
    assert all(sig[:2] != row[:2] for sig, row in zip(signatures, labels))

    def labels_file(name, body):
        path = tmp_path / name
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *body])
        return path

    full, mixed, signed = (labels_file("full.csv", labels), labels_file("mixed.csv", labels + signatures),
                           labels_file("signed.csv", signatures))
    scored = tmp_path / "scored.jsonl"
    common = ["--left", str(left), "--right", str(right), "--rules", "soot-sootup", "--task", "cm"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["score", "--pairs", str(pairs), *common, "--threshold", "0.6", "--out", str(scored)]) == 0

    def run(command, labels_path, out, *extra):
        inputs = ["--pairs", str(pairs), *common] if command == "ablate" else ["--scored", str(scored), "--task", "cm"]
        argv = [command, *inputs, "--labels", str(labels_path), *extra, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        return out.read_bytes(), json.loads(Path(f"{out}.manifest.json").read_text())["counters"]

    for command, extra in (("eval", []), ("sweep", []), ("ablate", ["--threshold", "0.6"]),
                           ("tune", ["--grid-step", "0.25"])):
        out_full, counters_full = run(command, full, tmp_path / f"{command}.full.json", *extra)
        out_mixed, counters_mixed = run(command, mixed, tmp_path / f"{command}.mixed.json", *extra)
        assert counters_full["labels_unmatched"] == 0, command
        assert counters_mixed["labels_unmatched"] == len(signatures), command
        if command == "tune":  # with no label matched, tune has nothing to train on
            assert out_mixed == out_full
        else:
            _, counters_signed = run(command, signed, tmp_path / f"{command}.signed.json", *extra)
            assert counters_signed["labels_unmatched"] == len(labels), command


def test_ablate_and_impact_neither_rank_nor_build_results(pipeline, tmp_path, monkeypatch):
    from remap import cli, mapper

    def refuse(*args, **kwargs):
        raise AssertionError("ablate and impact aggregate score columns")

    ablate, impact = _ablation_argv(pipeline, tmp_path)
    monkeypatch.setattr(mapper, "ranked", refuse)
    monkeypatch.setattr(mapper, "MappingResult", refuse)
    assert cli.main(ablate) == 0
    assert cli.main(impact) == 0
    assert set(json.loads((tmp_path / "impact.json").read_text())) == {"EXR1", "EXR2", "EXR3", "EXR4"}


def test_score_summary_only_counts(pipeline, tmp_path, monkeypatch, capsys):
    from remap import cli, mapper

    def refuse(*args, **kwargs):
        raise AssertionError("a summary counts the score column")

    work, left, right, pairs = pipeline
    monkeypatch.setattr(mapper, "ranked", refuse)
    monkeypatch.setattr(mapper, "MappingResult", refuse)
    out = tmp_path / "summary.jsonl"
    assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                     "--task", "cm", "--threshold", "0.6", "--rules", "soot-sootup",
                     "--format", "summary", "--out", str(out)]) == 0
    assert out.read_bytes() == b'{"filt": 15, "orig": 40, "out_pct": 62.5}\n'
    assert json.loads(capsys.readouterr().out) == {"filt": 15, "orig": 40, "out_pct": 62.5}


def test_ablate_takes_the_threshold_that_score_takes(pipeline, tmp_path):
    from remap import cli

    work, left, right, pairs = pipeline
    labels = tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    common = ["--pairs", pairs, "--left", left, "--right", right, "--rules", "soot-sootup", "--task", "cm"]
    for flags in ([], ["--profile", "light-redesign"], ["--threshold", "0.35"]):
        scored, metrics, ablate = tmp_path / "scored.jsonl", tmp_path / "eval.json", tmp_path / "ablate.json"
        for argv in (["score", *common, *flags, "--out", scored],
                     ["eval", "--scored", scored, "--labels", labels, "--task", "cm", "--out", metrics],
                     ["ablate", *common, *flags, "--labels", labels, "--out", ablate]):
            assert cli.main([str(a) for a in argv]) == 0, argv
        evaluated = json.loads(metrics.read_text())["confusion"]
        assert json.loads(ablate.read_text())["ALL"]["confusion"] == evaluated, flags


# -- the error contract under generated bad invocations -----------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
NOT_STR = JSON.filter(lambda v: not isinstance(v, str))
NOT_A_PAIR = JSON.filter(lambda v: not (isinstance(v, list) and len(v) == 2 and all(
    isinstance(x, str) for x in v)))
DELETE = object()


def _corrupted(text: str):
    """A JSON text cut short (never empty: an empty pairs file is valid), or
    with a byte that is never valid UTF-8."""
    cut = st.integers(1, len(text) - 1).map(lambda i: text[:i].encode())
    junk = st.integers(0, len(text)).map(lambda i: text[:i].encode() + b"\xff" + text[i:].encode())
    return cut | junk


def _set(base: dict, path: tuple, value) -> bytes:
    body = json.loads(json.dumps(base))
    *parents, last = path
    target = body
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return json.dumps(body).encode()


def _bad_rules():
    from remap.normalizer import SOOT_SOOTUP_RULES

    base = SOOT_SOOTUP_RULES.to_dict()
    bad_values = {
        "scope": JSON.filter(lambda v: v not in ("all_details", "method_name_only")),
        "target": JSON.filter(lambda v: v not in ("original", "redesigned")),
        "pattern": NOT_STR | st.sampled_from(["(", "[a", "*", "a{2,1}", "\\"]),
        "replacement": NOT_STR | st.sampled_from(["\\9", "\\g<x>", "\\"]),
        "order": JSON.filter(lambda v: type(v) is not int),
    }
    index = st.integers(0, len(base["rules"]) - 1)
    field = st.one_of(*(
        st.tuples(index, st.just(key), values | st.just(DELETE)) for key, values in bad_values.items()
    ))
    return st.one_of(
        field.map(lambda f: _set(base, ("rules", f[0], f[1]), f[2])),
        st.tuples(index, JSON.filter(lambda v: not isinstance(v, dict))).map(
            lambda f: _set(base, ("rules", f[0]), f[1])),
        JSON.filter(lambda v: not (isinstance(v, dict) and isinstance(v.get("rules"), list))).map(
            lambda v: json.dumps(v).encode()),
        _corrupted(json.dumps(base)),
    )


def _bad_weights():
    from remap.simcore import WeightConfig

    base = WeightConfig().to_dict()
    numeric = ["alpha", "beta", "theta", "delta", "eta", "phi"]
    not_number = JSON.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
    out_of_range = st.floats(min_value=1.01) | st.floats(max_value=-0.01) | st.just(float("nan"))
    return st.one_of(
        st.tuples(st.sampled_from(numeric), not_number | out_of_range).map(
            lambda f: _set(base, (f[0],), f[1])),
        st.tuples(st.text(min_size=1, max_size=6).filter(lambda k: k not in base), JSON).map(
            lambda f: _set(base, (f[0],), f[1])),
        JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        _corrupted(json.dumps(base)),
    )


def _bad_pairs(line: str):
    base = json.loads(line)
    return st.one_of(
        JSON.filter(lambda v: v != 1).map(lambda v: _set(base, ("format_version",), v)),
        st.tuples(st.sampled_from(["left", "right"]), JSON.filter(lambda v: not isinstance(v, dict))
                  | st.just(DELETE)).map(lambda f: _set(base, (f[0],), f[1])),
        st.tuples(st.sampled_from(["left", "right"]), JSON.filter(lambda v: not isinstance(v, str))
                  | st.just(DELETE)).map(lambda f: _set(base, (f[0], "key"), f[1])),
        st.sampled_from(["left", "right"]).map(lambda side: _set(base, (side, "key"), "no.Such#m():1-2")),
        JSON.filter(lambda v: not isinstance(v, str)).map(lambda v: _set(base, ("detector",), v)),
        JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        _corrupted(line),
    )


def _not_of(*types):
    """A JSON value whose type is none of the given ones."""
    return JSON.filter(lambda v: type(v) not in types)


def _bad_scored(line: str):
    """A good scored row, then a row that is not one."""
    base = json.loads(line)
    text, number = (str,), (float, int)
    types = {"left": text, "right": text, "provenance": text, "ablation": text, "kept": (bool,),
             "rank": (int, type(None)), "sim_class": number, "sim_method_header": number,
             "sim_optional": number, "sas": number}
    types.update({f: (*number, type(None)) for f in base if f.startswith("sim_") and f not in types})
    bad = st.one_of(
        st.sampled_from(sorted(types)).flatmap(
            lambda f: (_not_of(*types[f]) | st.just(DELETE)).map(lambda v: _set(base, (f,), v))),
        JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        _corrupted(line),
    )
    return bad.map(lambda b: line.encode() + b"\n" + b + b"\n")


def _bad_labels(text: str):
    """The labels file with a row of too few fields, under a header of four or
    more columns; a header without one of the first four columns; or a byte
    that is not UTF-8."""
    header, *rows = text.splitlines()
    columns = header.split(",")
    short_row = st.lists(st.text(alphabet="abT1 ", min_size=1, max_size=4), min_size=1, max_size=3).map(",".join)
    return st.one_of(
        st.tuples(st.integers(4, len(columns)), st.integers(0, len(rows)), short_row).map(
            lambda t: "\n".join([",".join(columns[:t[0]]), *rows[:t[1]], t[2], *rows[t[1]:]]).encode()),
        st.integers(0, 3).map(lambda i: "\n".join([",".join(columns[:i] + columns[i + 1:]), *rows]).encode()),
        st.integers(0, len(text)).map(lambda i: text[:i].encode() + b"\xff" + text[i:].encode()),
    )


def _bad_snapshot(lines: list[str]):
    """The snapshot's records with one line replaced by one that is not a
    method record."""
    base = json.loads(lines[0])
    text = (str,)
    types = {"class_name": text, "method_name": text, "return_type": text, "method_doc": text,
             "body_text": text, "params": (list,), "local_vars": (list,), "inline_comments": (list,),
             "span": (dict,), "is_test": (bool,)}
    span_types = {"file_path": text, "start_line": (int,), "end_line": (int,)}
    bad = st.one_of(
        st.sampled_from(sorted(types)).flatmap(
            lambda f: (_not_of(*types[f]) | st.just(DELETE)).map(lambda v: _set(base, (f,), v))),
        st.sampled_from(sorted(span_types)).flatmap(
            lambda f: (_not_of(*span_types[f]) | st.just(DELETE)).map(lambda v: _set(base, ("span", f), v))),
        st.integers(1, 5).map(lambda k: _set(base, ("span", "start_line"), base["span"]["end_line"] + k)),
        st.tuples(st.sampled_from(["params", "local_vars"]), NOT_A_PAIR).map(
            lambda f: _set(base, (f[0],), [*base[f[0]], f[1]])),
        NOT_STR.map(lambda v: _set(base, ("inline_comments",), [*base["inline_comments"], v])),
        JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        _corrupted(lines[0]),
    )
    return st.tuples(st.integers(0, len(lines) - 1), bad).map(
        lambda t: "\n".join(lines[:t[0]]).encode() + b"\n" + t[1] + b"\n" + "\n".join(lines[t[0] + 1:]).encode())


def _bad_sidecar(text: str):
    """The snapshot's sidecar with one field, class entry field or summary
    field of the wrong JSON type or left out."""
    base = json.loads(text)
    top = {"name": (str,), "role": (str,), "root_path": (str,), "classes": (list,), "summary": (dict,)}
    counts = ("files_seen", "files_parsed", "methods", "classes")
    summary = {**dict.fromkeys(counts, (int,)), "failed_files": (list,)}
    entries = [(i, f) for i in range(len(base["classes"])) for f in ("qualified_name", "class_doc")]
    return st.one_of(
        st.sampled_from(sorted(top)).flatmap(
            lambda f: (_not_of(*top[f]) | st.just(DELETE)).map(lambda v: _set(base, (f,), v))),
        st.sampled_from(sorted(summary)).flatmap(
            lambda f: (_not_of(*summary[f]) | st.just(DELETE)).map(lambda v: _set(base, ("summary", f), v))),
        st.sampled_from(entries).flatmap(
            lambda e: (_not_of(str) | st.just(DELETE)).map(lambda v: _set(base, ("classes", *e), v))),
        st.tuples(st.integers(0, len(base["classes"]) - 1), JSON.filter(lambda v: not isinstance(v, dict))).map(
            lambda t: _set(base, ("classes", t[0]), t[1])),
        NOT_A_PAIR.map(lambda v: _set(base, ("summary", "failed_files"), [v])),
        JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        _corrupted(text.strip()),
    )


def _bad_thresholds():
    number = st.floats(allow_nan=False, allow_infinity=False)
    outside = st.floats().filter(lambda x: not 0.0 <= x <= 1.0).map(repr)
    word = st.text(alphabet="abcdxyz:,_ ", min_size=1, max_size=6)
    return st.one_of(
        st.tuples(number, number, st.floats(max_value=0.0)).map(lambda t: "%r:%r:%r" % t),
        st.tuples(number, number, st.floats(min_value=1e-3, max_value=1.0)).filter(
            lambda t: t[1] < t[0]).map(lambda t: "%r:%r:%r" % t),
        st.lists(st.sampled_from(["0.5", "0.25"]), max_size=2).flatmap(
            lambda ok: st.one_of(outside, word).map(lambda bad: ",".join([*ok, bad]))),
        st.sampled_from(["0:inf:0.1", "0:1:1e-320"]),  # step counts that overflow
        st.lists(st.sampled_from(["0", "0.25", "0.5", "1"]), min_size=2, max_size=4).filter(
            lambda ts: any(float(b) <= float(a) for a, b in zip(ts, ts[1:]))).map(",".join),
    )


@pytest.fixture(scope="module")
def contract(pipeline, tmp_path_factory):
    """Base argv of every command and the files they read, made once."""
    from remap import cli

    work, left, right, pairs = pipeline
    d = tmp_path_factory.mktemp("contract")
    labels, scored = d / "labels.csv", d / "scored.jsonl"
    _write_labels(labels, left, right)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                         "--out", str(scored)]) == 0
    (d / "lonely.jsonl").write_bytes(left.read_bytes())  # a snapshot without its sidecar
    (d / "adir").mkdir()  # an output path that names a directory
    snaps = ["--left", left, "--right", right]
    evaluated = ["--scored", scored, "--labels", labels, "--task", "cm"]
    argvs = {
        "extract": ["--root", FIXTURE / "left"],
        "pairs": ["--mode", "prefilter", *snaps],
        "ingest": ["--format", "generic", "--report", FIXTURE / "pairs.jsonl", *snaps],
        "score": ["--pairs", pairs, *snaps],
        "eval": evaluated,
        "sweep": evaluated,
        "tune": [*evaluated, "--grid-step", "0.25"],
        "ablate": ["--pairs", pairs, *snaps, "--labels", labels, "--task", "cm"],
        "impact": ["--pairs", pairs, *snaps],
        "normalize": ["--snapshot", left],
    }
    argvs = {cmd: [cmd, *map(str, argv), "--out", str(d / "out")] for cmd, argv in argvs.items()}
    bases = {"pairs": pairs.read_text().split("\n")[0], "scored": scored.read_text().split("\n")[0],
             "labels": labels.read_text(), "snapshot": left.read_text().splitlines(),
             "sidecar": left.with_suffix(".classes.json").read_text()}
    return d, argvs, bases


def _with(argv: list, flag: str, value: str | None) -> list:
    """argv with the flag set to value, or left out when value is None."""
    if flag in argv:
        i = argv.index(flag)
        return [*argv[:i], *([] if value is None else [flag, value]), *argv[i + 2:]]
    return [*argv, f"{flag}={value}"]  # a value such as "-inf" is not taken for a flag


NUMERIC_FLAGS = ("--threshold", "--thresholds", "--grid-step", "--k", "--line-ratio")
DEEP = b"[" * 100_000 + b"\n"  # a JSON line nested too deeply to decode
OUTPUT_FLAGS = ("--out", "--csv")
SNAPSHOT_FLAGS = ("--left", "--right", "--snapshot")


def _bad_invocations(bases: dict):
    """(command, flag, file bytes or None, value): the flag is set to a file
    holding the bytes, to a file name under the test directory, or, for the
    numeric flags, to the value itself. A value of None leaves a required
    flag out. For a snapshot flag the bytes may be a (records, sidecar)
    pair; otherwise the snapshot's own sidecar goes next to them. An output
    flag may name an existing directory."""
    file_flags = {
        "extract": ["--root"], "pairs": ["--left", "--right"],
        "ingest": ["--report", "--left", "--right"], "score": ["--pairs", "--left", "--right"],
        "eval": ["--scored", "--labels"], "sweep": ["--scored", "--labels"],
        "tune": ["--scored", "--labels"], "ablate": ["--pairs", "--left", "--right", "--labels"],
        "impact": ["--pairs", "--left", "--right"], "normalize": ["--snapshot"],
    }
    missing = st.sampled_from([(c, f) for c, flags in file_flags.items() for f in flags]).flatmap(
        lambda cf: st.sampled_from(["missing/nope.json", "lonely.jsonl"] if cf[1] in (
            "--left", "--snapshot") else ["missing/nope.json"]).map(lambda name: (*cf, None, name)))
    return st.one_of(
        st.tuples(st.sampled_from(["pairs", "score", "ablate", "impact", "normalize"]), st.just("--rules"),
                  _bad_rules(), st.just(None)),
        st.tuples(st.sampled_from(["score", "ablate", "impact"]), st.just("--weights"), _bad_weights(),
                  st.just(None)),
        st.tuples(st.sampled_from(["score", "ablate", "impact"]), st.just("--pairs"),
                  _bad_pairs(bases["pairs"]), st.just(None)),
        st.tuples(st.sampled_from(["eval", "sweep", "tune"]), st.just("--scored"), _bad_scored(bases["scored"]),
                  st.just(None)),
        st.tuples(st.sampled_from(["eval", "sweep", "tune", "ablate"]), st.just("--labels"),
                  _bad_labels(bases["labels"]), st.just(None)),
        st.tuples(st.sampled_from([(c, f) for c, flags in file_flags.items() for f in flags
                                   if f in SNAPSHOT_FLAGS]), _bad_snapshot(bases["snapshot"])).map(
            lambda t: (*t[0], t[1], None)),
        st.tuples(st.sampled_from([(c, f) for c, flags in file_flags.items() for f in flags
                                   if f in SNAPSHOT_FLAGS]), _bad_sidecar(bases["sidecar"])).map(
            lambda t: (*t[0], ("\n".join(bases["snapshot"]).encode(), t[1]), None)),
        st.sampled_from([("score", "--pairs"), ("impact", "--pairs"), ("tune", "--scored"), ("eval", "--scored"),
                         ("ablate", "--weights"), ("pairs", "--rules"), ("normalize", "--snapshot"),
                         ("pairs", "--right")]).flatmap(
            lambda cf: st.sampled_from([DEEP, ("\n".join(bases["snapshot"]).encode(), DEEP)] if cf[1] in
                                       SNAPSHOT_FLAGS else [DEEP]).map(lambda body: (*cf, body, None))),
        missing,
        _bad_thresholds().map(lambda spec: ("sweep", "--thresholds", None, spec)),
        st.tuples(st.sampled_from(["score", "ablate"]), st.floats().filter(lambda x: not 0.0 <= x <= 1.0)).map(
            lambda t: (t[0], "--threshold", None, repr(t[1]))),
        st.sampled_from(["0", "inf", "nan", "-0.05", "2"]).map(lambda v: ("tune", "--grid-step", None, v)),
        st.sampled_from(["0", "-5"]).map(lambda v: ("tune", "--k", None, v)),
        st.sampled_from(["nan", "0.5"]).map(lambda v: ("pairs", "--line-ratio", None, v)),
        st.sampled_from([(c, f) for c, flags in file_flags.items() for f in flags]).map(
            lambda cf: (*cf, None, None)),
        st.sampled_from(list(file_flags)).map(lambda c: (c, "--bogus", None, "x")),
        st.sampled_from([*((c, "--out") for c in file_flags), ("sweep", "--csv")]).map(
            lambda cf: (*cf, None, "adir")),
        st.just(("score", "--threshold", None, "abc")),
    )


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_bad_invocations_exit_with_one_json_line(contract, data):
    from remap import cli

    d, argvs, bases = contract
    command, flag, body, value = data.draw(_bad_invocations(bases))
    if body is not None:
        value = str(d / "bad.input")
        records, sidecar = body if isinstance(body, tuple) else (body, bases["sidecar"].encode())
        Path(value).write_bytes(records)
        Path(value + ".classes.json").write_bytes(sidecar)
    elif value is not None and flag not in NUMERIC_FLAGS:
        value = str(d / value)
    argv = _with(argvs[command], flag, value)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    usage = flag in NUMERIC_FLAGS or flag == "--bogus" or value is None  # a bad flag, not a bad file
    bad_line = body is not None and flag in ("--scored", "--labels", *SNAPSHOT_FLAGS)  # a malformed line
    assert code == 2 if usage or bad_line else code == 1 if flag in OUTPUT_FLAGS else code in (1, 2), argv
    assert len(lines) == 1 and "Traceback" not in err.getvalue(), lines
    assert set(json.loads(lines[0])) == {"error", "message"}
