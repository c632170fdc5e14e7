"""Command-line pipeline: extract -> (pairs | ingest) -> score -> eval/tune.

Every command that succeeds gets a manifest JSON next to its output (tool
version, argv, config hash, the inputs it read with their sha256,
counters), so any artifact can be traced back to the exact invocation
and inputs that produced it. ``main`` writes it from the counters the
command returns; inputs are recorded as the command resolves them.

Exit codes: 0 success, 2 usage error (bad flags, missing inputs, schema
violations), 1 runtime failure (with a machine-readable JSON error line on
stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from . import evalkit, ingest, mapper, prefilter
from .extractor import DEFAULT_TEST_ROOTS, extract
from .normalizer import BUNDLED_RULESETS, EMPTY_RULESET, RuleSet, normalize_record
from .records import load_snapshot, open_output, save_snapshot, sidecar_path, write_json, write_jsonl
from .simcore import ABLATION_MODES, WeightConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TASKS = {"gc": mapper.TASK_GENUINE_CLONE, "cm": mapper.TASK_CODE_MAPPING}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage text and exit 2,
    so that ``main`` reports it as one JSON line. Subparsers inherit it."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _config(cls, **values):
    """``cls(**values)`` from flag values; a value it rejects is a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:  # a value out of range
        raise UsageError(str(exc)) from None


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _args_hash(args) -> str:
    """Hash of a command's parsed arguments, without the handler function,
    whose repr holds a memory address that differs between runs, and
    without the inputs the run recorded."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "inputs")}
    data = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _record_input(args, path: Path) -> Path:
    """Note ``path`` as read by this run, with the sha256 of its bytes as
    they are when the command resolves it (directories by path only)."""
    args.inputs[str(path)] = _sha256(path) if path.is_file() else None
    return path


def _write_manifest(args, argv: list[str], started_at: float, counters: dict) -> None:
    out = Path(args.out)
    write_json(
        f"{out}.manifest.json",
        {
            "tool_version": __version__,
            "command": argv,
            "inputs": list(args.inputs),
            "input_sha256": {path: digest for path, digest in args.inputs.items() if digest},
            "outputs": [str(out), *([args.csv] if getattr(args, "csv", None) else [])],
            "config_hashes": {args.command: _args_hash(args)},
            "started_at": started_at,
            "finished_at": time.time(),
            "counters": counters,
        },
    )


def _require_file(args, dest: str, what: str) -> Path:
    name = getattr(args, dest)
    p = Path(name)
    if not p.is_file():
        raise UsageError(f"{what} not found: {name}")
    return _record_input(args, p)


def _read_file(args, dest: str, what: str, read):
    """``read`` the file that ``dest`` names. A ValueError (bad JSON, a bad
    field, value or line) is a usage error that names the file."""
    path = _require_file(args, dest, what)
    try:
        return read(path)
    except ValueError as exc:
        raise UsageError(f"invalid {what} {path}: {exc}") from None


def _snapshot_arg(args, dest: str, what: str):
    def read(path: Path):
        side = _record_input(args, sidecar_path(path))
        if not side.is_file():
            raise UsageError(f"{what} sidecar not found: {side}")
        return load_snapshot(path)  # a ValueError: a bad records line, role or class index

    return _read_file(args, dest, what, read)


def _load_two_snapshots(args):
    left = _snapshot_arg(args, "left", "left snapshot")
    right = _snapshot_arg(args, "right", "right snapshot")
    if left.role != "original" or right.role != "redesigned":
        raise UsageError(
            f"--left must be an original-role snapshot and --right a redesigned-role one "
            f"(got {left.role!r} / {right.role!r}); re-run extract with --role"
        )
    return left, right


def _rules_arg(args) -> RuleSet:
    if args.rules is None:
        return EMPTY_RULESET
    if args.rules in BUNDLED_RULESETS:
        return BUNDLED_RULESETS[args.rules]
    return _read_file(args, "rules", "rules file", RuleSet.load)


def _weights_arg(args) -> WeightConfig:
    if args.weights:
        return _read_file(args, "weights", "weights file", WeightConfig.load)
    return WeightConfig()


def _pairs_arg(args) -> list:
    return _read_file(args, "pairs", "pairs file", ingest.load_pairs)


def _labels_arg(args) -> list:
    return _read_file(args, "labels", "labels file", evalkit.load_labels)


def _scored_arg(args) -> list:
    return _read_file(args, "scored", "scored file", mapper.load_results)


def _labels_unmatched(labels: list, rows) -> int:
    """The labels whose key names none of the scored rows or pairs ``rows``:
    a label keyed otherwise than by the two record ids matches nothing."""
    keys = {r.key for r in rows}
    return sum(lab.key not in keys for lab in labels)


MAX_THRESHOLDS = 10_000


def _parse_thresholds(spec: str) -> list[float]:
    """``lo:hi:step`` or a comma-separated list: strictly ascending, every
    value in [0,1]. A range holds lo plus every whole step that fits below
    hi (a last step short of hi by under 1e-9 steps still counts)."""
    try:
        if ":" in spec:
            lo, hi, step = (float(x) for x in spec.split(":"))
            if not step > 0 or not hi >= lo:
                raise ValueError("need step > 0 and hi >= lo")
            n = math.floor((hi - lo) / step + 1e-9)
            if n >= MAX_THRESHOLDS:
                raise ValueError(f"more than {MAX_THRESHOLDS} thresholds")
            thresholds = [round(lo + i * step, 10) for i in range(n + 1)]
        else:
            thresholds = [float(x) for x in spec.split(",")]
    except (ValueError, OverflowError) as exc:  # OverflowError: an infinite or huge step count
        raise UsageError(f"invalid --thresholds {spec!r}: {exc}") from None
    if not all(0.0 <= t <= 1.0 for t in thresholds):
        raise UsageError(f"invalid --thresholds {spec!r}: values must lie in [0,1]")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise UsageError(f"invalid --thresholds {spec!r}: values must be strictly ascending")
    return thresholds


# ---------------------------------------------------------------------------
# subcommands: each returns the counters of its manifest


def cmd_extract(args) -> dict:
    root = Path(args.root)
    if not root.is_dir():
        raise UsageError(f"source root not found: {args.root}")
    _record_input(args, root)
    snapshot = extract(root, role=args.role, test_roots=tuple(args.test_root or DEFAULT_TEST_ROOTS))
    save_snapshot(snapshot, args.out)
    print(
        f"extracted {len(snapshot)} methods / {len(snapshot.class_index)} classes "
        f"from {snapshot.summary.files_parsed} files ({len(snapshot.summary.failed_files)} failed)"
    )
    for path, reason in snapshot.summary.failed_files:
        print(f"  skipped {path}: {reason}", file=sys.stderr)
    return snapshot.summary.to_dict()


def cmd_pairs(args) -> dict:
    left, right = _load_two_snapshots(args)
    if args.mode == "exhaustive":
        pairs = prefilter.exhaustive_pairs(left, right, min_loc=args.min_loc)
        counters = {"pairs": len(pairs), "min_loc": args.min_loc}
    else:
        rules = _rules_arg(args)
        cfg = _config(
            prefilter.PrefilterConfig,
            class_sim_threshold=args.class_sim,
            line_ratio_cutoff=args.line_ratio,
            embed_threshold=args.embed_threshold,
        )
        counters = {}
        classes = prefilter.filter_classes(left, right, rules, cfg, counters)
        pairs = prefilter.generate_pairs(classes, left, right, cfg)
        counters.update(class_pairs=len(classes), pairs=len(pairs))
    prefilter.save_pairs(pairs, args.out)
    print(f"wrote {len(pairs)} candidate pairs to {args.out}")
    return counters


def cmd_ingest(args) -> dict:
    left, right = _load_two_snapshots(args)
    report_path = _require_file(args, "report", "detector report")
    if args.format == "generic":
        pairs, stats = ingest.ingest_generic(report_path, left, right)
    else:
        pairs, stats = ingest.ingest_nicad_xml(report_path, left, right)
    prefilter.save_pairs(pairs, args.out)
    print(f"ingested {len(pairs)} pairs ({stats.unresolved} unresolved, {stats.duplicates} duplicates)")
    for diag in stats.diagnostics[:20]:
        print(f"  {diag}", file=sys.stderr)
    return stats.to_dict()


def _threshold(args) -> float:
    """``--threshold``, or the default of ``--profile`` for ``--task``."""
    if args.threshold is None:
        return mapper.default_threshold(args.profile, TASKS[args.task])
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError(f"--threshold {args.threshold} outside [0,1]")
    return args.threshold


def cmd_score(args) -> dict:
    left, right = _load_two_snapshots(args)
    pairs = _pairs_arg(args)
    threshold, weights, rules = _threshold(args), _weights_arg(args), _rules_arg(args)
    counters = {"pairs_in": len(pairs)}
    [column] = mapper.score_columns(pairs, left, right, rules, weights, [args.ablation.upper()], counters)
    summary = mapper.summarize(column.scores, threshold)
    if args.format == "summary":
        write_jsonl(args.out, [summary])
    else:
        mapper.report(mapper.ranked(pairs, column, threshold), args.out, args.format)
    print(json.dumps(summary, sort_keys=True))
    return {**counters, **summary}


def cmd_eval(args) -> dict:
    scored = _scored_arg(args)
    labels = _labels_arg(args)
    kept = {r.key for r in scored if r.kept}
    counts, metrics = evalkit.evaluate(kept, labels, TASKS[args.task])
    write_json(
        args.out,
        {"task": TASKS[args.task], "confusion": counts.to_dict(), "metrics": metrics.to_dict()},
    )
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return {"labeled": len(labels), "labels_unmatched": _labels_unmatched(labels, scored), "kept": len(kept),
            **counts.to_dict()}


def cmd_sweep(args) -> dict:
    scored = _scored_arg(args)
    labels = _labels_arg(args)
    thresholds = _parse_thresholds(args.thresholds)
    points, best = evalkit.sweep(scored, labels, TASKS[args.task], thresholds)
    if args.csv:  # before --out, so a failed --csv leaves no --out without its manifest
        with open_output(args.csv) as fh:
            fh.write("threshold,fpr,precision,recall,f1_pos,f1_neg,avg_f1\n")
            for p in points:
                m = p.metrics
                fh.write(
                    f"{p.threshold},{m.fpr:.6f},{m.precision:.6f},{m.recall:.6f},"
                    f"{m.f1_pos:.6f},{m.f1_neg:.6f},{m.avg_f1:.6f}\n"
                )
    payload = {
        "task": TASKS[args.task],
        "best_threshold": best,
        "points": [p.to_dict() for p in points],
    }
    write_json(args.out, payload)
    print(json.dumps({"best_threshold": best}, sort_keys=True))
    return {"points": len(points), "labels_unmatched": _labels_unmatched(labels, scored)}


def cmd_ablate(args) -> dict:
    left, right = _load_two_snapshots(args)
    pairs = _pairs_arg(args)
    labels = _labels_arg(args)
    threshold, weights, rules = _threshold(args), _weights_arg(args), _rules_arg(args)
    report, counters = {}, {"pairs": len(pairs)}
    for column in mapper.score_columns(pairs, left, right, rules, weights, ABLATION_MODES, counters):
        kept = {pair.key for pair, s in zip(pairs, column.scores) if s >= threshold}
        counts, metrics = evalkit.evaluate(kept, labels, TASKS[args.task])
        report[column.mode] = {"confusion": counts.to_dict(), "metrics": metrics.to_dict()}
    write_json(args.out, report)
    print(json.dumps({m: report[m]["metrics"]["avg_f1"] for m in report}, sort_keys=True))
    return {**counters, "settings": len(report), "labels_unmatched": _labels_unmatched(labels, pairs)}


def cmd_impact(args) -> dict:
    left, right = _load_two_snapshots(args)
    pairs = _pairs_arg(args)
    code_types = evalkit.code_types(pairs, left, right)
    settings = [args.setting.upper()] if args.setting else list(ABLATION_MODES[1:])
    keys = [p.key for p in pairs]
    weights, rules = _weights_arg(args), _rules_arg(args)
    counters = {"pairs": len(pairs)}
    columns = mapper.score_columns(pairs, left, right, rules, weights, ["ALL", *settings], counters)
    baseline = dict(zip(keys, next(columns).scores))  # a repeated pair collapses to one key
    report = {
        c.mode: evalkit.rule_impact(baseline, dict(zip(keys, c.scores)), code_types) for c in columns
    }
    write_json(args.out, report)
    print(f"wrote impact report for {', '.join(settings)} to {args.out}")
    return counters


def cmd_tune(args) -> dict:
    scored = _scored_arg(args)
    labels = _labels_arg(args)
    task = TASKS[args.task]
    label_by_key = {lab.key: lab.positive(task) for lab in labels}
    # a pair repeated in the scored file is one example, as eval and sweep count it once
    training = list({r.key: (r, label_by_key[r.key]) for r in scored if r.key in label_by_key}.values())
    cfg = _config(evalkit.TunerConfig, grid_step=args.grid_step, objective_k=args.k)
    weights = evalkit.tune(training, cfg)
    weights.save(args.out)
    print(json.dumps(weights.to_dict(), sort_keys=True))
    grid_points = len(evalkit.simplex_grid(cfg.grid_step))
    return {
        "training": len(training),
        "labels_unmatched": _labels_unmatched(labels, scored),
        "k": evalkit.top_k(training, cfg),
        "grid_points": grid_points,
        "weight_configs": grid_points ** 2,
    }


def cmd_normalize(args) -> dict:
    snapshot = _snapshot_arg(args, "snapshot", "snapshot")
    rules = _rules_arg(args)
    rows = ({"id": rec.id, **vars(normalize_record(rec, snapshot.class_of(rec), rules, snapshot.role))}
            for rec in snapshot.records)
    write_jsonl(args.out, rows)
    print(f"wrote normalized details for {len(snapshot)} records to {args.out}")
    return {"records": len(snapshot)}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="remap",
        description="Identify and rank method-level code mappings between an "
        "original and a redesigned codebase.",
    )
    parser.add_argument("--version", action="version", version=f"remap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
        return p

    # options that several commands share, declared once as parent parsers
    snapshots = argparse.ArgumentParser(add_help=False)
    snapshots.add_argument("--left", required=True)
    snapshots.add_argument("--right", required=True)
    rules = argparse.ArgumentParser(add_help=False)
    rules.add_argument("--rules", default=None, help="bundled ruleset name or JSON file")
    scoring = argparse.ArgumentParser(add_help=False, parents=[snapshots, rules])
    scoring.add_argument("--pairs", required=True)
    scoring.add_argument("--weights", default=None)
    thresholded = argparse.ArgumentParser(add_help=False)
    thresholded.add_argument("--threshold", type=float, default=None)
    thresholded.add_argument("--profile", choices=["heavy-redesign", "light-redesign"],
                             default="heavy-redesign",
                             help="selects the default threshold when --threshold is not given")
    evaluated = argparse.ArgumentParser(add_help=False)
    evaluated.add_argument("--scored", required=True)
    evaluated.add_argument("--labels", required=True)

    p = command("extract", cmd_extract, "parse a Java tree into a method snapshot")
    p.add_argument("--root", required=True)
    p.add_argument("--test-root", action="append", default=None,
                   help="path prefix marking test sources (repeatable; default src/test/)")
    p.add_argument("--role", choices=["original", "redesigned"], default="original")

    p = command("pairs", cmd_pairs, "generate candidate pairs (prefilter or exhaustive)",
                snapshots, rules)
    p.add_argument("--mode", choices=["prefilter", "exhaustive"], required=True)
    p.add_argument("--class-sim", type=float, default=0.5)
    p.add_argument("--line-ratio", type=float, default=2.0)
    p.add_argument("--embed-threshold", type=float, default=0.5)
    p.add_argument("--min-loc", type=int, default=5)

    p = command("ingest", cmd_ingest, "convert a detector report into candidate pairs", snapshots)
    p.add_argument("--format", choices=["generic", "nicad-xml"], required=True)
    p.add_argument("--report", required=True)

    p = command("score", cmd_score, "score pairs and filter by threshold", scoring, thresholded)
    p.add_argument("--task", choices=["gc", "cm"], default="gc")
    p.add_argument("--ablation", choices=[m.lower() for m in ABLATION_MODES], default="all")
    p.add_argument("--format", choices=["jsonl", "csv", "summary"], default="jsonl")

    p = command("eval", cmd_eval, "metrics against a labeled dataset", evaluated)
    p.add_argument("--task", choices=["gc", "cm"], required=True)

    p = command("sweep", cmd_sweep, "metrics across a threshold ladder", evaluated)
    p.add_argument("--task", choices=["gc", "cm"], required=True)
    p.add_argument("--thresholds", default="0.0:1.0:0.05",
                   help="lo:hi:step (lo, lo+step, ... while <= hi) or a strictly "
                        "ascending comma-separated list; values in [0,1]")
    p.add_argument("--csv", default=None, help="also write plottable CSV")

    p = command("ablate", cmd_ablate, "metrics per ablation setting", scoring, thresholded)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=["gc", "cm"], required=True)

    p = command("impact", cmd_impact, "per-rule impact of ablation on scores and ranks", scoring)
    p.add_argument("--setting", choices=[m.lower() for m in ABLATION_MODES[1:]], default=None,
                   help="one exclusion setting (default: all four)")
    p.add_argument("--task", choices=["gc", "cm"], default="gc")

    p = command("tune", cmd_tune, "grid-search component weights on labeled pairs", evaluated)
    p.add_argument("--task", choices=["gc", "cm"], required=True)
    p.add_argument("--grid-step", type=float, default=0.05,
                   help="simplex grid spacing; tune scores every pair of grid points, so its cost "
                        "grows with (1/grid-step)^4: 53,361 weight configs at 0.05, 26.5M at 0.01")
    p.add_argument("--k", type=int, default=None,
                   help="top-K objective size (default: number of positives); a K above the "
                        "number of labeled pairs counts them all, and the manifest records the K used")

    p = command("normalize", cmd_normalize, "dump normalized token details for a snapshot", rules)
    p.add_argument("--snapshot", required=True)

    return parser


def _error_line(error: str, exc: Exception) -> None:
    print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        _error_line("usage", exc)
        return EXIT_USAGE
    started_at = time.time()
    args.inputs = {}
    try:
        _write_manifest(args, argv, started_at, args.func(args))
    except UsageError as exc:
        _error_line("usage", exc)
        return EXIT_USAGE
    except (
        OSError,  # from the file system: an --out that names a directory, say
        ValueError,
        KeyError,
        ingest.IngestError,
        mapper.UnresolvedPairError,
    ) as exc:
        _error_line(type(exc).__name__, exc)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
