"""Command-line pipeline: extract -> (pairs | ingest) -> score -> eval/tune.

Every pipeline command writes a RunManifest JSON next to its output
(tool version, argv, config hashes, input/output paths, counters), so any
artifact can be traced back to the exact invocation that produced it.

Exit codes: 0 success, 2 usage error (bad flags, missing inputs, schema
violations), 1 runtime failure (with a machine-readable JSON error line on
stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import evalkit, ingest, mapper, prefilter
from .extractor import DEFAULT_EXCLUDED_METHODS, DEFAULT_TEST_ROOTS, ExtractConfig, extract
from .normalizer import BUNDLED_RULESETS, normalize_record, resolve_ruleset
from .records import load_snapshot, save_snapshot
from .simcore import ABLATION_MODES, AblationSetting, WeightConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

TASKS = {"gc": mapper.TASK_GENUINE_CLONE, "cm": mapper.TASK_CODE_MAPPING}


class UsageError(Exception):
    pass


@dataclass
class RunManifest:
    """Created when a command starts; ``write`` records the rest once the
    command's output exists."""

    started_at: float = field(default_factory=time.time)

    def write(self, out_path: Path, inputs: list, config_hashes: dict, counters: dict) -> None:
        manifest_path = Path(str(out_path) + ".manifest.json")
        manifest_path.write_text(
            json.dumps(
                {
                    "tool_version": __version__,
                    "command": sys.argv[1:],
                    "inputs": [str(p) for p in inputs],
                    "outputs": [str(out_path)],
                    "config_hashes": config_hashes,
                    "started_at": self.started_at,
                    "finished_at": time.time(),
                    "counters": counters,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )


def _hash_config(obj) -> str:
    if isinstance(obj, (str, Path)) and Path(obj).is_file():
        data = Path(obj).read_bytes()
    else:
        data = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _args_hash(args) -> str:
    """Hash of a command's parsed arguments, without the handler function,
    whose repr holds a memory address that differs between runs."""
    return _hash_config({k: v for k, v in vars(args).items() if k != "func"})


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _load_two_snapshots(args):
    left = load_snapshot(_require_file(args.left, "left snapshot"))
    right = load_snapshot(_require_file(args.right, "right snapshot"))
    if left.role != "original" or right.role != "redesigned":
        raise UsageError(
            f"--left must be an original-role snapshot and --right a redesigned-role one "
            f"(got {left.role!r} / {right.role!r}); re-run extract with --role"
        )
    return left, right


def _config_path(name: str, what: str) -> Path:
    """Resolve a config file name: as given, then under $REMAP_CONFIG_DIR."""
    p = Path(name)
    if p.is_file():
        return p
    config_dir = os.environ.get("REMAP_CONFIG_DIR")
    if config_dir:
        candidate = Path(config_dir) / name
        if candidate.is_file():
            return candidate
    raise UsageError(f"{what} not found: {name}")


def _resolve_rules_arg(spec: str | None):
    if spec is None:
        return resolve_ruleset(None)
    if spec in BUNDLED_RULESETS:
        return BUNDLED_RULESETS[spec]
    return resolve_ruleset(_config_path(spec, "rules file"))


def _weights_arg(args) -> WeightConfig:
    if getattr(args, "weights", None):
        path = _config_path(args.weights, "weights file")
        try:
            return WeightConfig.load(path)
        except ValueError as exc:  # bad JSON, unknown keys, off-simplex weights
            raise UsageError(f"invalid weights file {path}: {exc}") from None
    return WeightConfig()


def _pairs_arg(args) -> list:
    path = _require_file(args.pairs, "pairs file")
    try:
        return ingest.load_pairs(path)
    except ValueError as exc:  # bad JSON, or a line that is not a format-1 pair
        raise UsageError(f"invalid pairs file {path}: {exc}") from None


MAX_THRESHOLDS = 10_000


def _parse_thresholds(spec: str) -> list[float]:
    """``lo:hi:step`` or a comma-separated list, every value in [0,1]."""
    try:
        if ":" in spec:
            lo, hi, step = (float(x) for x in spec.split(":"))
            if not step > 0 or not hi >= lo:
                raise ValueError("need step > 0 and hi >= lo")
            n = round((hi - lo) / step)
            if n >= MAX_THRESHOLDS:
                raise ValueError(f"more than {MAX_THRESHOLDS} thresholds")
            thresholds = [round(lo + i * step, 10) for i in range(n + 1)]
        else:
            thresholds = [float(x) for x in spec.split(",")]
    except ValueError as exc:
        raise UsageError(f"invalid --thresholds {spec!r}: {exc}") from None
    if not all(0.0 <= t <= 1.0 for t in thresholds):
        raise UsageError(f"invalid --thresholds {spec!r}: values must lie in [0,1]")
    return thresholds


# ---------------------------------------------------------------------------
# subcommands


def cmd_extract(args) -> int:
    manifest = RunManifest()
    root = Path(args.root)
    if not root.is_dir():
        raise UsageError(f"source root not found: {args.root}")
    test_roots = tuple(args.test_root or DEFAULT_TEST_ROOTS)
    config = ExtractConfig(
        test_roots=test_roots,
        excluded_method_names=tuple(args.exclude_method or DEFAULT_EXCLUDED_METHODS),
    )
    snapshot = extract(
        root,
        test_roots=test_roots,
        name=args.name or root.name,
        role=args.role,
        config=config,
    )
    out = Path(args.out)
    save_snapshot(snapshot, out)
    manifest.write(out, [root], {"extract": _args_hash(args)}, snapshot.summary.to_dict())
    print(
        f"extracted {len(snapshot)} methods / {len(snapshot.class_index)} classes "
        f"from {snapshot.summary.files_parsed} files ({len(snapshot.summary.failed_files)} failed)"
    )
    for path, reason in snapshot.summary.failed_files:
        print(f"  skipped {path}: {reason}", file=sys.stderr)
    return EXIT_OK


def cmd_pairs(args) -> int:
    manifest = RunManifest()
    left, right = _load_two_snapshots(args)
    out = Path(args.out)
    if args.mode == "exhaustive":
        pairs = prefilter.exhaustive_pairs(left, right, min_loc=args.min_loc)
        counters = {"pairs": len(pairs), "min_loc": args.min_loc}
    else:
        rules = _resolve_rules_arg(args.rules)
        cfg = prefilter.PrefilterConfig(
            class_sim_threshold=args.class_sim,
            line_ratio_cutoff=args.line_ratio,
            embed_threshold=args.embed_threshold,
            embedding_provider=args.embedder,
        )
        classes = prefilter.filter_classes(left, right, rules, cfg)
        pairs = prefilter.generate_pairs(classes, left, right, cfg)
        counters = {"class_pairs": len(classes), "pairs": len(pairs)}
    prefilter.save_pairs(pairs, out)
    manifest.write(out, [args.left, args.right], {"pairs": _args_hash(args)}, counters)
    print(f"wrote {len(pairs)} candidate pairs to {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    manifest = RunManifest()
    left, right = _load_two_snapshots(args)
    report_path = _require_file(args.report, "detector report")
    if args.format == "generic":
        pairs, stats = ingest.ingest_generic(report_path, left, right)
    else:
        pairs, stats = ingest.ingest_nicad_xml(report_path, left, right)
    out = Path(args.out)
    prefilter.save_pairs(pairs, out)
    manifest.write(
        out, [args.left, args.right, report_path], {"ingest": _args_hash(args)}, stats.to_dict()
    )
    print(f"ingested {len(pairs)} pairs ({stats.unresolved} unresolved, {stats.duplicates} duplicates)")
    for diag in stats.diagnostics[:20]:
        print(f"  {diag}", file=sys.stderr)
    return EXIT_OK


def _filter_config(args) -> mapper.FilterConfig:
    task = TASKS[args.task]
    if args.threshold is not None:
        threshold = args.threshold
    else:
        threshold = mapper.default_threshold(args.profile, task)
    return mapper.FilterConfig(
        thres_sas=threshold,
        task=task,
        weights=_weights_arg(args),
        ablation=AblationSetting(args.ablation.upper()),
        rules=_resolve_rules_arg(args.rules),
    )


def cmd_score(args) -> int:
    manifest = RunManifest()
    left, right = _load_two_snapshots(args)
    pairs = _pairs_arg(args)
    cfg = _filter_config(args)
    results = mapper.score_pairs(pairs, left, right, cfg)
    out = Path(args.out)
    mapper.save_results(results, out, fmt=args.format)
    summary = mapper.summarize(results)
    manifest.write(
        out,
        [args.pairs, args.left, args.right],
        {
            "weights": _hash_config(cfg.weights.to_dict()),
            "rules": _hash_config(cfg.rules.to_dict()),
            "score": _hash_config({"threshold": cfg.thres_sas, "task": cfg.task, "ablation": cfg.ablation.mode}),
        },
        {"pairs_in": len(pairs), **summary},
    )
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = RunManifest()
    scored = mapper.load_results(_require_file(args.scored, "scored file"))
    labels = evalkit.load_labels(_require_file(args.labels, "labels file"))
    kept = {r.key for r in scored if r.kept}
    counts, metrics = evalkit.evaluate(kept, labels, TASKS[args.task])
    out = Path(args.out)
    evalkit.save_metrics(counts, metrics, out, extra={"task": TASKS[args.task]})
    manifest.write(
        out,
        [args.scored, args.labels],
        {"eval": _args_hash(args)},
        {"labeled": len(labels), "kept": len(kept), **counts.to_dict()},
    )
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    manifest = RunManifest()
    scored = mapper.load_results(_require_file(args.scored, "scored file"))
    labels = evalkit.load_labels(_require_file(args.labels, "labels file"))
    thresholds = _parse_thresholds(args.thresholds)
    points, best = evalkit.sweep(scored, labels, TASKS[args.task], thresholds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "task": TASKS[args.task],
        "best_threshold": best,
        "points": [p.to_dict() for p in points],
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.csv:
        csv_path = Path(args.csv)
        rows = ["threshold,fpr,precision,recall,f1_pos,f1_neg,avg_f1"]
        for p in points:
            m = p.metrics
            rows.append(
                f"{p.threshold},{m.fpr:.6f},{m.precision:.6f},{m.recall:.6f},"
                f"{m.f1_pos:.6f},{m.f1_neg:.6f},{m.avg_f1:.6f}"
            )
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    manifest.write(
        out, [args.scored, args.labels], {"sweep": _args_hash(args)}, {"points": len(points)}
    )
    print(json.dumps({"best_threshold": best}, sort_keys=True))
    return EXIT_OK


def _ranked_under(args, left, right, pairs, modes):
    """Yield (mode, results) for each ablation mode in turn. The pairs are
    measured at most twice, with the rules and, for EXR1, without them;
    every mode ranks one of those measurements."""
    weights, rules = _weights_arg(args), _resolve_rules_arg(args.rules)
    threshold = args.threshold if args.threshold is not None else 0.5
    measured = {}
    for mode in modes:
        cfg = mapper.FilterConfig(
            thres_sas=threshold,
            task=TASKS[args.task],
            weights=weights,
            ablation=AblationSetting(mode),
            rules=rules,
        )
        renaming = not cfg.ablation.disables_renaming
        if renaming not in measured:
            measured[renaming] = list(mapper.measure_pairs(pairs, left, right, cfg.measure_rules))
        yield mode, mapper.rank(measured[renaming], cfg)


def cmd_ablate(args) -> int:
    manifest = RunManifest()
    left, right = _load_two_snapshots(args)
    pairs = _pairs_arg(args)
    labels = evalkit.load_labels(_require_file(args.labels, "labels file"))
    report = {}
    for mode, results in _ranked_under(args, left, right, pairs, ABLATION_MODES):
        kept = {r.key for r in results if r.kept}
        counts, metrics = evalkit.evaluate(kept, labels, TASKS[args.task])
        report[mode] = {"confusion": counts.to_dict(), "metrics": metrics.to_dict()}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.write(
        out,
        [args.pairs, args.labels],
        {"ablate": _args_hash(args)},
        {"pairs": len(pairs), "settings": len(report)},
    )
    print(json.dumps({m: report[m]["metrics"]["avg_f1"] for m in report}, sort_keys=True))
    return EXIT_OK


def _pair_code_type(pairs, left, right) -> dict:
    out = {}
    for p in pairs:
        lrec, rrec = left.get(p.left), right.get(p.right)
        if lrec is None or rrec is None:
            continue
        if lrec.is_test and rrec.is_test:
            out[(p.left, p.right)] = "test"
        elif not lrec.is_test and not rrec.is_test:
            out[(p.left, p.right)] = "production"
        else:
            out[(p.left, p.right)] = "mixed"
    return out


def cmd_impact(args) -> int:
    manifest = RunManifest()
    left, right = _load_two_snapshots(args)
    pairs = _pairs_arg(args)
    code_types = _pair_code_type(pairs, left, right)
    settings = [args.setting.upper()] if args.setting else ["EXR1", "EXR2", "EXR3", "EXR4"]
    ranked = _ranked_under(args, left, right, pairs, ["ALL", *settings])
    _, baseline = next(ranked)
    report = {mode: evalkit.rule_impact(baseline, excluded, code_types) for mode, excluded in ranked}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest.write(out, [args.pairs], {"impact": _args_hash(args)}, {"pairs": len(pairs)})
    print(f"wrote impact report for {', '.join(settings)} to {out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    manifest = RunManifest()
    scored = mapper.load_results(_require_file(args.scored, "scored file"))
    labels = evalkit.load_labels(_require_file(args.labels, "labels file"))
    task = TASKS[args.task]
    label_by_key = {lab.key: lab.positive(task) for lab in labels}
    training = [
        evalkit.TrainingExample.from_result(r, label_by_key[r.key])
        for r in scored
        if r.key in label_by_key
    ]
    cfg = evalkit.TunerConfig(grid_step=args.grid_step, objective_k=args.k)
    weights = evalkit.tune(training, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    weights.save(out)
    manifest.write(
        out, [args.scored, args.labels], {"tune": _args_hash(args)}, {"training": len(training)}
    )
    print(json.dumps(weights.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_normalize(args) -> int:
    manifest = RunManifest()
    snapshot = load_snapshot(_require_file(args.snapshot, "snapshot"))
    rules = _resolve_rules_arg(args.rules)
    role = args.role or snapshot.role
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for rec in snapshot.records:
            details = normalize_record(rec, snapshot.class_of(rec), rules, role)
            fh.write(
                json.dumps(
                    {
                        "id": rec.id,
                        "class_name": list(details.class_name),
                        "class_doc": list(details.class_doc),
                        "method_name": list(details.method_name),
                        "return_type": list(details.return_type),
                        "params": list(details.params),
                        "local_vars": list(details.local_vars),
                        "method_doc": list(details.method_doc),
                        "comments": list(details.comments),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    manifest.write(
        out, [args.snapshot], {"normalize": _args_hash(args)}, {"records": len(snapshot)}
    )
    print(f"wrote normalized details for {len(snapshot)} records to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remap",
        description="Identify and rank method-level code mappings between an "
        "original and a redesigned codebase.",
    )
    parser.add_argument("--version", action="version", version=f"remap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="parse a Java tree into a method snapshot")
    p.add_argument("--root", required=True)
    p.add_argument("--test-root", action="append", default=None,
                   help="path prefix marking test sources (repeatable; default src/test/)")
    p.add_argument("--role", choices=["original", "redesigned"], default="original")
    p.add_argument("--name", default=None)
    p.add_argument("--exclude-method", action="append", default=None,
                   help="method names never extracted (default: universal base-object methods)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pairs", help="generate candidate pairs (prefilter or exhaustive)")
    p.add_argument("--mode", choices=["prefilter", "exhaustive"], required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--class-sim", type=float, default=0.5)
    p.add_argument("--line-ratio", type=float, default=2.0)
    p.add_argument("--embed-threshold", type=float, default=0.5)
    p.add_argument("--embedder", default="bag-of-tokens")
    p.add_argument("--min-loc", type=int, default=5)
    p.add_argument("--rules", default=None, help="bundled ruleset name or JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("ingest", help="convert a detector report into candidate pairs")
    p.add_argument("--format", choices=["generic", "nicad-xml"], required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("score", help="score pairs and filter by threshold")
    p.add_argument("--pairs", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--task", choices=["gc", "cm"], default="gc")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--profile", choices=["heavy-redesign", "light-redesign"],
                   default="heavy-redesign",
                   help="selects the default threshold when --threshold is not given")
    p.add_argument("--weights", default=None)
    p.add_argument("--ablation", choices=[m.lower() for m in ABLATION_MODES], default="all")
    p.add_argument("--rules", default=None)
    p.add_argument("--format", choices=["jsonl", "csv", "summary"], default="jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="metrics against a labeled dataset")
    p.add_argument("--scored", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=["gc", "cm"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="metrics across a threshold ladder")
    p.add_argument("--scored", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=["gc", "cm"], required=True)
    p.add_argument("--thresholds", default="0.0:1.0:0.05",
                   help="lo:hi:step or comma-separated list")
    p.add_argument("--csv", default=None, help="also write plottable CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="metrics per ablation setting")
    p.add_argument("--pairs", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=["gc", "cm"], required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("impact", help="per-rule impact of ablation on scores and ranks")
    p.add_argument("--pairs", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--setting", choices=["exr1", "exr2", "exr3", "exr4"], default=None,
                   help="one exclusion setting (default: all four)")
    p.add_argument("--task", choices=["gc", "cm"], default="gc")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_impact)

    p = sub.add_parser("tune", help="grid-search component weights on labeled pairs")
    p.add_argument("--scored", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", choices=["gc", "cm"], required=True)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--k", type=int, default=None,
                   help="top-K objective size (default: number of positives)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("normalize", help="dump normalized token details for a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--rules", default=None)
    p.add_argument("--role", choices=["original", "redesigned"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_normalize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (
        FileNotFoundError,
        ValueError,
        KeyError,
        ingest.IngestError,
        mapper.UnresolvedPairError,
        prefilter.EmbeddingError,
        evalkit.PairSetMismatch,
    ) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
