#!/usr/bin/env python3
"""Benchmark of the remap pipeline, run through its real command line.

    python3 perfbench/run.py --workload {exhaustive,prefilter,labeled,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a remap checkout: it uses the package under
``src/`` there (``PYTHONPATH=src``; nothing needs building) and writes only
under ``.perfbench_work/``. For a workload it

1. generates the inputs from the seed (``gen.py``);
2. with ``--trace 0``, runs the workload's commands one after another as
   child processes, with the CLI's defaults, again and again for S seconds,
   each repetition after a fresh ``python -m remap --version`` (``setup_s``,
   its CPU seconds),
   and reports every end-to-end metric from the per-command medians over
   those repetitions;
3. with ``--trace 1``, alternates untraced repetitions with traced ones, in
   which every command runs under ``tracer.py``, and reports the per-layer
   metrics (medians over the traced repetitions), the tracing overhead and
   the LCS kernel microbenchmark;
4. checks the outputs (``checks.py``): reruns are byte-identical, the
   generated facts hold, a sample of scores matches an LCS oracle.

The metric names, units and bounds are those of ``BENCHMARK.json`` at the
checkout root. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric with its unit, the generated workload's
properties, the checks, the outputs' sha256 and the run environment. The
exit code is 0 only when every command succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_RUNS = 2          # timed `--version` runs before the first repetition
MIN_REPS = 3            # untraced repetitions per --trace 0 run, at least
KERNEL_PAIRS = 2000

SNAPS = ["--left", "left.jsonl", "--right", "right.jsonl"]
EXTRACT = [
    ("extract", ["extract", "--root", "left", "--role", "original", "--out", "left.jsonl"]),
    ("extract", ["extract", "--root", "right", "--role", "redesigned", "--out", "right.jsonl"]),
]
RULES = ["--rules", "soot-sootup"]
# (stage, arguments); the stage groups commands into end-to-end metrics.
# `ablate` and `impact` re-score the pairs (5 + 5 times), so they belong to
# the score stage.
COMMANDS = {
    "exhaustive": EXTRACT + [
        ("pairs", ["pairs", "--mode", "exhaustive", *SNAPS, "--out", "pairs.jsonl"]),
        ("score", ["score", "--pairs", "pairs.jsonl", *SNAPS, "--task", "cm", *RULES,
                   "--format", "jsonl", "--out", "scored.jsonl"]),
    ],
    "prefilter": EXTRACT + [
        ("pairs", ["pairs", "--mode", "prefilter", *RULES, *SNAPS, "--out", "pairs.jsonl"]),
        ("score", ["score", "--pairs", "pairs.jsonl", *SNAPS, "--task", "gc", *RULES,
                   "--format", "summary", "--out", "summary.json"]),
    ],
    "labeled": EXTRACT + [
        ("pairs", ["ingest", "--format", "generic", "--report", "report.jsonl", *SNAPS,
                   "--out", "pairs.generic.jsonl"]),
        ("pairs", ["ingest", "--format", "nicad-xml", "--report", "report.nicad.xml", *SNAPS,
                   "--out", "pairs.nicad.jsonl"]),
        ("score", ["score", "--pairs", "pairs.generic.jsonl", *SNAPS, "--task", "cm", *RULES,
                   "--out", "scored.jsonl"]),
        ("eval", ["eval", "--scored", "scored.jsonl", "--labels", "labels.csv", "--task", "cm",
                  "--out", "eval.json"]),
        ("sweep", ["sweep", "--scored", "scored.jsonl", "--labels", "labels.csv", "--task", "cm",
                   "--out", "sweep.json"]),
        ("score", ["ablate", "--pairs", "pairs.generic.jsonl", *SNAPS, "--labels", "labels.csv",
                   "--task", "cm", *RULES, "--out", "ablate.json"]),
        ("score", ["impact", "--pairs", "pairs.generic.jsonl", *SNAPS, "--task", "cm", *RULES,
                   "--out", "impact.json"]),
        ("tune", ["tune", "--scored", "scored.jsonl", "--labels", "labels.csv", "--task", "cm",
                  "--out", "weights.json"]),
    ],
}
SCORED_PAIRS = {"exhaustive": "pairs.jsonl", "prefilter": "pairs.jsonl", "labeled": "pairs.generic.jsonl"}
# times the score stage scores each pair: on labeled, `score` once, `ablate`
# under 5 modes and `impact` a baseline plus 4 exclusions (checks.evaluation
# requires exactly these reports)
SCORINGS = {"exhaustive": 1, "prefilter": 1, "labeled": 1 + 5 + 5}
SCORE_OUT = {"exhaustive": "scored.jsonl", "prefilter": "summary.json", "labeled": "scored.jsonl"}


@dataclass
class Child:
    argv: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    error: str = ""


@dataclass
class Rep:
    traced: bool
    children: list = field(default_factory=list)
    commands: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    elapsed: float = 0.0
    setup_s: float | None = None

    @property
    def ok(self) -> bool:
        return all(c.code == 0 for c in self.children)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def run_child(argv: list, cwd: Path, env: dict, log: Path) -> Child:
    """Run one process to completion; wall, CPU and peak RSS from wait4."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)
    if child.code != 0:
        child.error = error_type(Path(f"{log}.err").read_text(encoding="utf-8", errors="replace"))
    return child


def error_type(stderr: str) -> str:
    """The exception type from a JSON error line or a traceback's last line."""
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if not lines:
        return "no stderr"
    try:
        return json.loads(lines[-1]).get("error", "error")
    except (json.JSONDecodeError, AttributeError):
        return lines[-1].split(":", 1)[0]


def outputs(workload: str) -> list[str]:
    names = []
    for _, argv in COMMANDS[workload]:
        out = argv[argv.index("--out") + 1]
        names.append(out)
        if argv[0] == "extract":
            names.append(out.replace(".jsonl", ".classes.json"))
    return names


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Workload:
    def __init__(self, name: str, seed: int, root: Path):
        self.name, self.seed, self.root = name, seed, root
        self.work = root / WORK_DIR / name
        self.logs = self.work / "logs"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.remap = [sys.executable, "-m", "remap"]
        self.children = 0
        self.failures: list[str] = []

    def child(self, argv: list, log: str) -> Child:
        c = run_child(argv, self.work, self.env, self.logs / log)
        self.children += 1
        if c.code != 0:
            self.failures.append(f"{log}: {' '.join(argv[1:])}: exit {c.code} ({c.error})")
        return c

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.logs.mkdir(parents=True)
        self.expected = gen.build(self.name, self.seed, self.work)

    def version(self) -> Child:
        """A fresh `python -m remap --version`: start-up, imports and
        module-level work. Its CPU seconds are the set-up sample; its wall
        time drifts with the host's load (see ``end_to_end``)."""
        return self.child([*self.remap, "--version"], "version")

    def rep(self, traced: bool, index: int) -> Rep:
        for name in outputs(self.name):
            (self.work / name).unlink(missing_ok=True)
        rep = Rep(traced)
        if not traced:
            # one set-up sample per repetition spreads them over the run
            rep.setup_s = self.version().cpu_s
        for i, (stage, argv) in enumerate(COMMANDS[self.name]):
            rep.commands.append(argv[0])
            if traced:
                spans = self.logs / f"spans-{i}.json"
                spans.unlink(missing_ok=True)
                child = self.child([sys.executable, str(HERE / "tracer.py"), str(spans), "--", *argv],
                                   f"t{index}-{i}")
                if spans.exists():
                    rep.spans.append(json.loads(spans.read_text(encoding="utf-8")))
            else:
                child = self.child([*self.remap, *argv], f"r{index}-{i}")
            rep.children.append(child)
            if child.code != 0:
                break
        rep.digest = {n: sha256(self.work / n) for n in outputs(self.name) if (self.work / n).exists()}
        return rep

    def measure(self, seconds: float, traced: bool) -> list[Rep]:
        """Repetitions until the next one would overrun ``seconds``; with
        tracing, untraced and traced repetitions alternate."""
        reps: list[Rep] = []
        deadline = time.perf_counter() + seconds
        while True:
            for kind in ((False, True) if traced else (False,)):
                start = time.perf_counter()
                reps.append(self.rep(kind, len(reps)))
                if not reps[-1].ok:
                    return reps
                reps[-1].elapsed = time.perf_counter() - start
            done = sum(1 for r in reps if not r.traced)
            cycle = statistics.median(r.elapsed for r in reps) * (2 if traced else 1)
            if time.perf_counter() + cycle > deadline and (traced or done >= MIN_REPS):
                return reps


# ---------------------------------------------------------------------------
# metrics


def failed_frac(work: Path, workload: str) -> float:
    """(files that failed to parse + unresolved or malformed fragments) /
    (files + fragments), from the manifests. A command that exits nonzero
    fails the whole run instead (see ``run_workload``)."""
    attempted = failed = 0
    for _, argv in COMMANDS[workload]:
        path = Path(str(work / argv[argv.index("--out") + 1]) + ".manifest.json")
        if not path.exists():
            continue
        counters = json.loads(path.read_text(encoding="utf-8"))["counters"]
        if argv[0] == "extract":
            attempted += counters["files_seen"]
            failed += len(counters["failed_files"])
        elif argv[0] == "ingest":
            attempted += sum(counters[k] for k in ("resolved", "unresolved", "malformed", "same_project"))
            failed += counters["unresolved"] + counters["malformed"]
    return failed / attempted


def end_to_end(w: Workload, runs: list[Rep], setup: list[float], scorings: int) -> tuple[dict, dict]:
    """Each command's median over the untraced repetitions, summed per
    metric. The machine slows in bursts of a few seconds; a median per
    command sheds a burst that hit one command of a repetition.

    The stage metrics are CPU seconds (user+sys of the stage's commands).
    On a shared host, the wall time of a run drifts with the host's load
    for minutes at a time while its CPU time stays put; ``wall_s`` keeps
    the wall time users wait for. ``scorings`` is the number of pairs
    scored, counting every re-scoring. Returns the metrics and the wall and
    CPU seconds per command, the CPU seconds per stage and the share of
    those that the commands' start-up (``setup_s`` each) takes."""
    stages = [s for s, _ in COMMANDS[w.name]]
    commands = [argv[0] for _, argv in COMMANDS[w.name]]

    def per_command(attr: str) -> list[float]:
        return [statistics.median(getattr(r.children[i], attr) for r in runs) for i in range(len(stages))]

    def total(values: list[float], keys: list[str]) -> dict[str, float]:
        out: dict[str, float] = {}
        for v, k in zip(values, keys):
            out[k] = out.get(k, 0.0) + v
        return out

    wall, cpu, rss = per_command("wall_s"), per_command("cpu_s"), per_command("rss_mb")
    stage_cpu = total(cpu, stages)
    setup_s = statistics.median(setup)
    startup = {s: stages.count(s) * setup_s / stage_cpu[s] for s in stage_cpu}
    startup["all"] = len(stages) * setup_s / sum(cpu)
    return {
        "setup_s": setup_s,
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(rss),
        "failed_frac": failed_frac(w.work, w.name),
        "extract_cpu_s": stage_cpu["extract"],
        "pairs_cpu_s": stage_cpu["pairs"],
        "score_cpu_s": stage_cpu["score"],
        "score_pairs_per_cpu_s": scorings / stage_cpu["score"],
    }, {"command_wall_s": total(wall, commands), "command_cpu_s": total(cpu, commands),
        "stage_cpu_s": stage_cpu, "startup_share": startup}


class Merged:
    """One traced repetition: the spans of all its commands together."""

    def __init__(self, rep: Rep):
        self.total: dict[str, float] = {}
        self.self_: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        records: set[str] = set()
        self.missing: set[str] = set()
        for dump in rep.spans:
            for a in dump["aggregate"]:
                n = a["name"]
                self.total[n] = self.total.get(n, 0.0) + a["total_s"]
                self.self_[n] = self.self_.get(n, 0.0) + a["self_s"]
                self.calls[n] = self.calls.get(n, 0) + a["calls"]
            for k, v in dump["counters"].items():
                self.counters[k] = max(self.counters.get(k, 0), v) if k == "cli.jobs" else self.counters.get(k, 0) + v
            records.update(dump["records"])
            self.missing.update(dump["missing"])
        self.distinct_records = len(records)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(m: Merged, rep: Rep, facts: dict) -> dict:
    T, S, C, K = m.total.get, m.self_.get, m.calls.get, m.count
    v = {
        "javalex.lex_s": T("javalex.lex", 0.0),
        "javalex.tokens": K("javalex.tokens"),
        "extractor.parse_self_s": S("extractor.parse_java_file", 0.0),
        "extractor.files": K("extractor.files"),
        "extractor.failed_files": K("extractor.failed_files"),
        "extractor.methods": K("extractor.methods"),
        "extractor.match_fragment_s": T("extractor.match_fragment", 0.0),
        "extractor.match_fragment_calls": C("extractor.match_fragment", 0),
        "records.save_snapshot_s": T("records.save_snapshot", 0.0),
        "records.load_snapshot_s": T("records.load_snapshot", 0.0),
        "records.snapshot_mb": facts["snapshot_mb"],
        "prefilter.exhaustive_pairs_s": T("prefilter.exhaustive_pairs", 0.0),
        "prefilter.save_pairs_s": T("prefilter.save_pairs", 0.0),
        "prefilter.pairs": K("prefilter.pairs"),
        "prefilter.filter_classes_s": T("prefilter.filter_classes", 0.0),
        "prefilter.class_pairs_compared": K("prefilter.class_pairs_compared"),
        "prefilter.class_keep_ratio": ratio(K("prefilter.class_pairs_retained"), K("prefilter.class_pairs_compared")),
        "prefilter.generate_pairs_s": T("prefilter.generate_pairs", 0.0),
        "prefilter.embed_calls": C("prefilter.embed", 0),
        "ingest.generic_s": T("ingest.generic", 0.0),
        "ingest.nicad_s": T("ingest.nicad", 0.0),
        "ingest.lines": K("ingest.lines"),
        "ingest.resolve_ratio": ratio(K("ingest.resolved"), K("ingest.resolved") + K("ingest.unresolved")),
        "ingest.malformed": K("ingest.malformed"),
        "ingest.unresolved": K("ingest.unresolved"),
        "ingest.duplicates": K("ingest.duplicates"),
        "ingest.load_pairs_s": T("ingest.load_pairs", 0.0),
        "normalizer.normalize_record_s": T("normalizer.normalize_record", 0.0),
        "normalizer.calls": C("normalizer.normalize_record", 0),
        "normalizer.calls_per_record": ratio(C("normalizer.normalize_record", 0), m.distinct_records),
        "normalizer.tokens": K("normalizer.tokens"),
        "simcore.components_s": T("simcore.components", 0.0),
        "simcore.components_calls": C("simcore.components", 0),
        "simcore.lcs_s": T("simcore.lcs_length", 0.0),
        "simcore.lcs_calls": C("simcore.lcs_length", 0),
        "simcore.lcs_cells": K("simcore.lcs_cells"),
        "simcore.aggregate_self_s": S("simcore.components", 0.0),
        "simcore.class_pair_reuse": facts["class_pair_reuse"],
        "mapper.score_pairs_self_s": S("mapper.score_pairs", 0.0),
        "mapper.report_s": T("mapper.report", 0.0),
        "mapper.output_mb": facts["output_mb"],
        "mapper.kept_frac": facts["kept_frac"],
        "mapper.score_rss_mb": max(c.rss_mb for c, n in zip(rep.children, rep.commands) if n == "score"),
        "evalkit.load_labels_s": T("evalkit.load_labels", 0.0),
        "mapper.load_results_s": T("mapper.load_results", 0.0),
        "evalkit.evaluate_s": T("evalkit.evaluate", 0.0),
        "evalkit.sweep_s": T("evalkit.sweep", 0.0),
        "evalkit.rule_impact_s": T("evalkit.rule_impact", 0.0),
        "evalkit.tune_s": T("evalkit.tune", 0.0),
        "evalkit.tune_grid_points": K("evalkit.tune_grid_points"),
        "evalkit.tune_examples": K("evalkit.tune_examples"),
        "cli.jobs": K("cli.jobs"),
    }
    for cmd in ("extract", "pairs", "ingest", "score", "eval", "sweep", "ablate", "impact", "tune"):
        v[f"cli.{cmd}.self_s"] = S(f"cli.{cmd}", 0.0)
    return v


# ---------------------------------------------------------------------------
# checks and workload properties


def verify(w: Workload) -> tuple[list[str], dict]:
    """Run the workload's correctness checks on the last outputs. Returns
    the checks passed and the generated workload's properties."""
    work, expected, name = w.work, w.expected, w.name
    passed, props = [], {}
    norm = {}
    for side in ("left", "right"):
        c = w.child([*w.remap, "normalize", "--snapshot", f"{side}.jsonl", *RULES, "--out", f"{side}.tokens.jsonl"],
                    f"normalize-{side}")
        checks.require(c.code == 0, f"normalize {side} failed: {c.error}")
        norm[side] = checks.load_tokens(work / f"{side}.tokens.jsonl")
    checks.snapshots(work, expected)
    passed.append("snapshots hold exactly the generated methods; exactly the broken files failed")

    pairs = checks.pair_keys(work / SCORED_PAIRS[name])
    class_pairs = {(checks.class_of(a), checks.class_of(b)) for a, b in pairs}
    fields = [len(d[f]) for side in norm.values() for d in side.values() for f in checks.FIELDS.values()]
    props.update({
        "pairs": len(pairs),
        "pair_scorings": len(pairs) * SCORINGS[name],
        "distinct_class_pairs": len(class_pairs),
        "class_pair_reuse": ratio(len(pairs), len(class_pairs)),
        "mean_tokens_per_field": sum(fields) / len(fields),
        "broken_files": expected["broken"]["left"] + expected["broken"]["right"],
    })

    if name in ("exhaustive", "labeled"):
        rows = checks.read_jsonl(work / "scored.jsonl")
        threshold = checks.CM_THRESHOLD
        checks.scored_rows(rows, threshold)
        passed.append(f"score output ranked and thresholded at {threshold}")
        margins = checks.planted(rows, expected)
        passed.append("planted margins in {copies} copies: every mapping >= {min_mapping_sas:.3f} > "
                      "every non-mapping <= {max_non_mapping_sas:.3f}".format(**margins))
        n = checks.field_oracle(rows, norm["left"], norm["right"], w.seed)
        passed.append(f"{n} sampled pairs x 8 field similarities equal the LCS oracle")
        props["kept_frac"] = sum(r["kept"] for r in rows) / len(rows)
    if name == "exhaustive":
        checks.exhaustive_pairs(pairs, expected)
        passed.append("pairs are the sorted cross product of methods with LOC >= 5")
    if name == "prefilter":
        info = checks.class_filter(pairs, norm["left"], norm["right"], w.seed)
        passed.append("every pair's class names reach the cutoff under the LCS oracle; "
                      f"{info['sampled_below_cutoff']} sampled class pairs below it yield none")
        summary = json.loads((work / "summary.json").read_text(encoding="utf-8"))
        checks.require(summary["orig"] == len(pairs) and 0 <= summary["filt"] <= summary["orig"],
                       f"summary {summary} does not match {len(pairs)} pairs")
        passed.append("summary counts match the pairs file")
        counters = checks.manifest(work / "pairs.jsonl")["counters"]
        compared = len(json.loads((work / "left.classes.json").read_text())["classes"]) * \
            len(json.loads((work / "right.classes.json").read_text())["classes"])
        props.update({"kept_frac": summary["filt"] / summary["orig"] if summary["orig"] else 0.0,
                      "class_pairs_compared": compared, "class_pairs_retained": counters["class_pairs"],
                      "class_pairs_pruned_share": 1 - counters["class_pairs"] / compared})
    if name == "labeled":
        for report in ("generic", "nicad"):
            checks.ingested(work, report, expected["reports"][report])
        passed.append("both ingests bind exactly the intended pairs with the expected counters")
        checks.evaluation(work, rows)
        passed.append("eval confusion matches a recount; sweep/ablate/impact/tune reports complete")
        g = expected["reports"]["generic"]
        props.update({"labeled_pairs": len(expected["planted"]),
                      "foreign_path_share": g["foreign"] / g["lines"],
                      "key_fragment_share": g["key"] / g["lines"],
                      "malformed_share": g["malformed"] / g["lines"],
                      "unresolved_share": g["unresolved"] / g["lines"]})
    return passed, props


# ---------------------------------------------------------------------------


def environment(w: Workload) -> dict:
    c = w.child([sys.executable, str(HERE / "tracer.py"), "--probe"], "probe")
    probe = json.loads(Path(f"{w.logs / 'probe'}.out").read_text()) if c.code == 0 else {}
    src = hashlib.sha256()
    for path in sorted((w.root / "src").rglob("*.py")):
        src.update(path.relative_to(w.root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (w.root / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=w.root, capture_output=True, text=True)
            commit = r.stdout.strip() or None
        except OSError:
            pass
    return {"git_commit": commit, "src_sha256": src.hexdigest(), "seed": w.seed, "nproc": os.cpu_count(),
            **probe}


def fmt(v: float) -> str:
    return f"{v:.6g}"


def traced_values(w: Workload, reps: list[Rep], facts: dict, lines: list[str]) -> tuple[dict, bool]:
    """Per-layer medians over the traced repetitions, the tracing overhead
    and the kernel microbenchmark."""
    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    merged = [Merged(r) for r in traced]
    layers = [per_layer(m, r, facts) for m, r in zip(merged, traced)]
    values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    values["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                     / statistics.median(r.wall_s for r in untraced) - 1)
    c = w.child([sys.executable, str(HERE / "tracer.py"), "--kernel", str(KERNEL_PAIRS), "--seed", str(w.seed)],
                "kernel")
    kernel = json.loads(Path(f"{w.logs / 'kernel'}.out").read_text()) if c.code == 0 else {}
    values["lcs.kernel_pairs_per_s"] = kernel.get("pairs_per_s", 0.0)
    ok = bool(kernel.get("correct"))
    if not ok:
        lines.append("CHECK FAILED: remap.lcs.lcs_length disagrees with the LCS oracle")
    missing = set().union(*(m.missing for m in merged))
    if missing:
        lines.append(f"  not traced (absent in this version): {', '.join(sorted(missing))}")
    (w.work / "trace.json").write_text(json.dumps(
        [{"argv": c.argv[3:], "wall_s": c.wall_s, "rss_mb": c.rss_mb, **dump}
         for c, dump in zip(traced[-1].children, traced[-1].spans)]) + "\n")
    return values, ok


def run_workload(name: str, args, root: Path, bench: dict) -> dict:
    w = Workload(name, args.seed, root)
    w.prepare()
    env = environment(w)
    setup = [] if args.trace else [w.version().cpu_s for _ in range(SETUP_RUNS + 1)][1:]
    reps = w.measure(args.seconds, traced=bool(args.trace))
    untraced = [r for r in reps if not r.traced]
    setup += [r.setup_s for r in untraced]
    lines = [f"== {name} (seed {args.seed}, trace {args.trace}): "
             f"{len(untraced)} untraced / {len(reps) - len(untraced)} traced repetitions"]
    ok = all(r.ok for r in reps)
    passed, props, values = [], {}, {}
    if ok:
        try:
            passed, props = verify(w)
            digests = {json.dumps(r.digest, sort_keys=True) for r in reps}
            checks.require(len(digests) == 1, f"outputs differ across {len(reps)} repetitions")
            passed.append(f"outputs byte-identical across {len(reps)} repetitions")
        except checks.CheckFailed as exc:
            ok = False
            lines.append(f"CHECK FAILED: {exc}")
    lines += [f"COMMAND FAILED: {f}" for f in w.failures]
    result = {"workload": name, "env": env}
    if ok and args.trace:
        facts = {
            "snapshot_mb": sum((w.work / n).stat().st_size for n in
                               ("left.jsonl", "left.classes.json", "right.jsonl", "right.classes.json")) / 2**20,
            "output_mb": (w.work / SCORE_OUT[name]).stat().st_size / 2**20,
            "class_pair_reuse": props["class_pair_reuse"],
            "kept_frac": props["kept_frac"],
        }
        values, ok = traced_values(w, reps, facts, lines)
        env["cli.jobs"] = values["cli.jobs"]
        env["trace.overhead_frac"] = values["trace.overhead_frac"]
    elif ok:
        values, result["stages"] = end_to_end(w, untraced, setup, props["pair_scorings"])
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted} if ok else {}
    for m in wanted if ok else ():
        lines.append(f"  {m['name']:<32} {fmt(values[m['name']]):>12} {m['unit']}")
    # wall time, and span times of stages only some workloads run, are
    # reported but not JSON metrics (see README.md)
    result["reported_only_s"] = {k: v for k, v in sorted(values.items()) if k not in {m["name"] for m in wanted}}
    if result["reported_only_s"]:
        lines.append("  reported only (seconds):")
        lines += [f"  {k:<32} {fmt(v):>12} s" for k, v in result["reported_only_s"].items()]
    if ok and not args.trace:
        for kind, per_stage in result["stages"].items():
            lines.append(f"  {kind}: " + ", ".join(f"{k}={fmt(v)}" for k, v in per_stage.items()))
        lines.append(f"  setup_s samples ({len(setup)}): " + ", ".join(fmt(t) for t in setup))
        lines.append(f"  wall_s per repetition ({len(untraced)}): " + ", ".join(fmt(r.wall_s) for r in untraced))
    result.update({
        "correct": ok, "properties": props, "checks": passed,
        "sha256": reps[-1].digest,
        "reps": [{"traced": r.traced, "setup_s": r.setup_s,
                  "children": [{"argv": c.argv, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
                                "code": c.code, "error": c.error} for c in r.children]}
                 for r in reps],
    })
    lines.append("  properties: " + ", ".join(f"{k}={fmt(v) if isinstance(v, float) else v}"
                                              for k, v in props.items()))
    lines += [f"  check: {p}" for p in passed]
    lines += [f"  sha256 {n} {d}" for n, d in sorted(result["sha256"].items())]
    lines.append("  env: " + json.dumps(env, sort_keys=True))
    (w.work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines), flush=True)
    result["attempted"], result["failed"] = w.children, len(w.failures)
    return result


def main() -> int:
    names = list(COMMANDS)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "remap" / "__init__.py").is_file():
        print(f"no remap source tree at {root / 'src' / 'remap'}; run from a remap checkout", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = [run_workload(n, args, root, bench) for n in (names if args.workload == "all" else [args.workload])]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
