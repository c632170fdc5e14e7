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
              "--thresholds", "0.0:1.0:0.05", "--csv", tmp_path / "sweep.csv",
              "--out", tmp_path / "sweep.json")
    assert p.returncode == 0, p.stderr
    sweep_out = json.loads((tmp_path / "sweep.json").read_text())
    assert 0.55 <= sweep_out["best_threshold"] <= 0.8
    assert (tmp_path / "sweep.csv").read_text().startswith("threshold,")

    p = remap("tune", "--scored", scores, "--labels", labels, "--task", "cm",
              "--grid-step", "0.25", "--out", tmp_path / "weights.json")
    assert p.returncode == 0, p.stderr
    weights = json.loads((tmp_path / "weights.json").read_text())
    assert abs(weights["alpha"] + weights["beta"] + weights["theta"] - 1.0) < 1e-9
    counters = json.loads((tmp_path / "weights.json.manifest.json").read_text())["counters"]
    assert counters["grid_points"] == 15 and counters["weight_configs"] == 225  # step 1/4

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


def test_config_dir_env_var(pipeline, tmp_path, monkeypatch):
    import os
    import subprocess

    work, left, right, pairs = pipeline
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    from remap.normalizer import SOOT_SOOTUP_RULES

    SOOT_SOOTUP_RULES.save(config_dir / "myrules.json")
    env = dict(os.environ, REMAP_CONFIG_DIR=str(config_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "remap", "score", "--pairs", str(pairs),
         "--left", str(left), "--right", str(right), "--task", "cm",
         "--threshold", "0.6", "--rules", "myrules.json",
         "--out", str(tmp_path / "s.jsonl")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().split("\n")[-1])
    assert summary["filt"] == 15


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
    ({"absent_param": 5}, "absent_param"),
    ({"alpha": 0, "beta": 0, "theta": 1, "renormalize_missing_optional": True}, "renormalize"),
    ({"renormalize_missing_optional": "false"}, "renormalize_missing_optional"),
    ({"drop_absent_optional": 0}, "drop_absent_optional"),
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
])
def test_bad_scored_file_is_usage_error(scored, tmp_path, capsys, line, culprit):
    scores, labels = scored
    bad = tmp_path / "scores.jsonl"
    bad.write_text(scores.read_text().split("\n")[0] + "\n" + line + "\n")
    code, err = _main_error(capsys, "eval", "--scored", bad, "--labels", labels, "--task", "cm",
                            "--out", tmp_path / "e.json")
    assert code == 2
    assert err["error"] == "usage" and f"line 2: {culprit}" in err["message"]


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
])
def test_bad_labels_file_is_usage_error(scored, tmp_path, capsys, text, culprit):
    scores, labels = scored
    bad = tmp_path / "labels.csv"
    bad.write_text(text)
    code, err = _main_error(capsys, "eval", "--scored", scores, "--labels", bad, "--task", "cm",
                            "--out", tmp_path / "e.json")
    assert code == 2
    assert err["error"] == "usage" and culprit in err["message"]


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


def test_sweep_zero_step_is_usage_error(pipeline, tmp_path, capsys):
    work, left, right, pairs = pipeline
    from remap import cli

    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    _write_labels(labels, left, right)
    assert cli.main(["score", "--pairs", str(pairs), "--left", str(left), "--right", str(right),
                     "--out", str(scores)]) == 0
    capsys.readouterr()
    for spec in ("0:1:0", "1:0:0.1", "0:1:x", "0.5,1.5", "0:1:1e-9"):
        code, err = _main_error(
            capsys, "sweep", "--scored", scores, "--labels", labels, "--task", "cm",
            "--thresholds", spec, "--out", tmp_path / "sweep.json",
        )
        assert code == 2, spec
        assert err["error"] == "usage" and spec in err["message"]


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
    score_pairs = mapper.score_pairs

    def timed(*args, **kwargs):
        called_at.append(time.time())
        return score_pairs(*args, **kwargs)

    monkeypatch.setattr(mapper, "score_pairs", timed)
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
    from remap.normalizer import SOOT_SOOTUP_RULES
    from remap.records import load_snapshot
    from remap.simcore import ABLATION_MODES

    work, left, right, pairs = pipeline
    ablate, impact = _ablation_argv(pipeline, tmp_path)
    assert cli.main(ablate) == 0
    assert cli.main(impact) == 0

    lsnap, rsnap = load_snapshot(left), load_snapshot(right)
    loaded = ingest.load_pairs(pairs)
    labels = evalkit.load_labels(tmp_path / "labels.csv")

    def score(mode, threshold):
        cfg = mapper.FilterConfig(thres_sas=threshold, ablation=mode, rules=SOOT_SOOTUP_RULES)
        return mapper.score_pairs(loaded, lsnap, rsnap, cfg)

    expected = {}
    for mode in ABLATION_MODES:
        kept = {r.key for r in score(mode, 0.6) if r.kept}
        counts, metrics = evalkit.evaluate(kept, labels, mapper.TASK_CODE_MAPPING)
        expected[mode] = {"confusion": counts.to_dict(), "metrics": metrics.to_dict()}
    assert json.loads((tmp_path / "ablate.json").read_text()) == expected

    code_types = cli._pair_code_type(loaded, lsnap, rsnap)
    baseline = score("ALL", 0.5)
    expected = {
        mode: evalkit.rule_impact(baseline, score(mode, 0.5), code_types)
        for mode in ("EXR1", "EXR2", "EXR3", "EXR4")
    }
    assert json.loads((tmp_path / "impact.json").read_text()) == expected


# -- the error contract under generated bad invocations -----------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
NOT_STR = JSON.filter(lambda v: not isinstance(v, str))
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
    numeric = ["alpha", "beta", "theta", "delta", "eta", "phi", "absent_class_doc", "absent_param"]
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
    not_a_pair = JSON.filter(lambda v: not (isinstance(v, list) and len(v) == 2 and all(
        isinstance(x, str) for x in v)))
    bad = st.one_of(
        st.sampled_from(sorted(types)).flatmap(
            lambda f: (_not_of(*types[f]) | st.just(DELETE)).map(lambda v: _set(base, (f,), v))),
        st.sampled_from(sorted(span_types)).flatmap(
            lambda f: (_not_of(*span_types[f]) | st.just(DELETE)).map(lambda v: _set(base, ("span", f), v))),
        st.integers(1, 5).map(lambda k: _set(base, ("span", "start_line"), base["span"]["end_line"] + k)),
        st.tuples(st.sampled_from(["params", "local_vars"]), not_a_pair).map(
            lambda f: _set(base, (f[0],), [*base[f[0]], f[1]])),
        NOT_STR.map(lambda v: _set(base, ("inline_comments",), [*base["inline_comments"], v])),
        JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode()),
        _corrupted(lines[0]),
    )
    return st.tuples(st.integers(0, len(lines) - 1), bad).map(
        lambda t: "\n".join(lines[:t[0]]).encode() + b"\n" + t[1] + b"\n" + "\n".join(lines[t[0] + 1:]).encode())


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
    (d / "bad.input.classes.json").write_bytes(left.with_suffix(".classes.json").read_bytes())
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
             "labels": labels.read_text(), "snapshot": left.read_text().splitlines()}
    return d, argvs, bases


def _with(argv: list, flag: str, value: str | None) -> list:
    """argv with the flag set to value, or left out when value is None."""
    if flag in argv:
        i = argv.index(flag)
        return [*argv[:i], *([] if value is None else [flag, value]), *argv[i + 2:]]
    return [*argv, f"{flag}={value}"]  # a value such as "-inf" is not taken for a flag


NUMERIC_FLAGS = ("--threshold", "--thresholds", "--grid-step", "--k", "--line-ratio")
SNAPSHOT_FLAGS = ("--left", "--right", "--snapshot")


def _bad_invocations(bases: dict):
    """(command, flag, file bytes or None, value): the flag is set to a file
    holding the bytes, to a file name under the test directory, or, for the
    numeric flags, to the value itself. A value of None leaves a required
    flag out."""
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
        missing,
        _bad_thresholds().map(lambda spec: ("sweep", "--thresholds", None, spec)),
        st.floats().filter(lambda x: not 0.0 <= x <= 1.0).map(
            lambda x: ("score", "--threshold", None, repr(x))),
        st.sampled_from(["0", "inf", "nan", "-0.05", "2"]).map(lambda v: ("tune", "--grid-step", None, v)),
        st.sampled_from(["0", "-5"]).map(lambda v: ("tune", "--k", None, v)),
        st.sampled_from(["nan", "0.5"]).map(lambda v: ("pairs", "--line-ratio", None, v)),
        st.sampled_from([(c, f) for c, flags in file_flags.items() for f in flags]).map(
            lambda cf: (*cf, None, None)),
        st.sampled_from(list(file_flags)).map(lambda c: (c, "--bogus", None, "x")),
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
        Path(value).write_bytes(body)
    elif value is not None and flag not in NUMERIC_FLAGS:
        value = str(d / value)
    argv = _with(argvs[command], flag, value)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    usage = flag in NUMERIC_FLAGS or flag == "--bogus" or value is None  # a bad flag, not a bad file
    bad_line = body is not None and flag in ("--scored", "--labels", *SNAPSHOT_FLAGS)  # a malformed line
    assert code == 2 if usage or bad_line else code in (1, 2), argv
    assert len(lines) == 1 and "Traceback" not in err.getvalue(), lines
    assert set(json.loads(lines[0])) == {"error", "message"}
