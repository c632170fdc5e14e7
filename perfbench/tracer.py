"""Span recorders around remap's public functions, for the traced run.

Run as a child process in place of ``python -m remap``::

    python perfbench/tracer.py SPANS.json -- <remap arguments>

It wraps functions as the module that calls them sees them (for example
``remap.mapper.components`` and ``remap.simcore.lcs_length``), runs
``remap.cli.main`` in this process, and writes the spans to SPANS.json when
the command ends. Per-call spans (the kernel, per-pair and per-fragment
functions) are kept as a count and a time per (name, parent); the other
spans are kept one by one. A span's self time is its duration minus the
part of it that its child spans cover, which stays right when ``score``
runs its children in worker threads.

Two more modes serve the benchmark:

    python perfbench/tracer.py --probe              # environment facts
    python perfbench/tracer.py --kernel N --seed S  # LCS kernel pairs/s
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
import threading
import time

PER_CALL = frozenset({
    "javalex.lex", "extractor.parse_java_file", "extractor.match_fragment",
    "prefilter.embed", "normalizer.normalize_record", "simcore.components",
    "simcore.lcs_length",
})
CLI_COMMANDS = ("extract", "pairs", "ingest", "score", "eval", "sweep", "ablate", "impact", "tune")


class Frame:
    __slots__ = ("name", "parent", "start", "active", "cover_start", "covered")

    def __init__(self, name: str, parent: "Frame | None", start: float):
        self.name, self.parent, self.start = name, parent, start
        self.active, self.cover_start, self.covered = 0, 0.0, 0.0


class Recorder:
    """Spans and counters of one process. Each thread keeps its own stack,
    aggregates and counters; only the coverage of a parent span, which
    worker threads share, is updated under the lock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_stack: list[Frame] = []
        self.threads: list[tuple[list, dict, dict]] = []
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.records: set[str] = set()
        self.missing: list[str] = []

    def _state(self) -> tuple[list, dict, dict]:
        state = getattr(self.local, "state", None)
        if state is None:
            main = threading.current_thread() is threading.main_thread()
            state = self.local.state = (self.main_stack if main else [], {}, {})
            with self.lock:
                self.threads.append(state)
        return state

    def enter(self, name: str) -> Frame:
        stack = self._state()[0]
        # a worker thread's first span belongs to the span that started it
        parent = stack[-1] if stack else (self.main_stack[-1] if self.main_stack else None)
        now = time.perf_counter()
        frame = Frame(name, parent, now)
        if parent is not None:
            with self.lock:
                if parent.active == 0:
                    parent.cover_start = now
                parent.active += 1
        stack.append(frame)
        return frame

    def exit(self, frame: Frame) -> None:
        now = time.perf_counter()
        stack, agg, _ = self._state()
        stack.pop()
        parent = frame.parent
        duration = now - frame.start
        if parent is not None:
            with self.lock:
                parent.active -= 1
                if parent.active == 0:
                    parent.covered += now - parent.cover_start
        key = (frame.name, parent.name if parent else None)
        entry = agg.get(key)
        if entry is None:
            entry = agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.covered
        if frame.name not in PER_CALL:
            self.spans.append({
                "name": frame.name, "parent": key[1],
                "start_s": frame.start - self.t0, "end_s": now - self.t0,
                "self_s": duration - frame.covered,
            })

    def add(self, counter: str, value: float) -> None:
        counters = self._state()[2]
        counters[counter] = counters.get(counter, 0) + value

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if count is not None:
                try:
                    count(result, *args, **kwargs)
                except Exception as exc:  # a changed signature must not fail the command
                    self.missing.append(f"{name} counters ({type(exc).__name__}: {exc})")
            return result

        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        agg: dict[tuple[str, str | None], list] = {}
        counters: dict[str, float] = {}
        for _, thread_agg, thread_counters in self.threads:
            for key, (calls, total, self_s) in thread_agg.items():
                entry = agg.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for k, v in thread_counters.items():
                counters[k] = counters.get(k, 0) + v
        return {
            "spans": self.spans,
            "aggregate": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "counters": counters,
            "records": sorted(self.records),
            "missing": sorted(set(self.missing)),
        }


def install(rec: Recorder) -> None:
    from remap import cli, evalkit, extractor, ingest, mapper, prefilter, simcore

    def on_command(result, args, *_):
        if getattr(args, "jobs", None) is not None:
            rec.add("cli.jobs", args.jobs)

    for cmd in CLI_COMMANDS:
        rec.wrap(cli, f"cmd_{cmd}", f"cli.{cmd}", on_command)

    def on_extract(snapshot, *_a, **_k):
        rec.add("extractor.files", snapshot.summary.files_seen)
        rec.add("extractor.failed_files", len(snapshot.summary.failed_files))
        rec.add("extractor.methods", len(snapshot.records))

    rec.wrap(cli, "extract", "extractor.extract", on_extract)
    rec.wrap(extractor, "parse_java_file", "extractor.parse_java_file")
    rec.wrap(extractor, "lex", "javalex.lex", lambda toks, *a, **k: rec.add("javalex.tokens", len(toks)))
    rec.wrap(ingest, "match_fragment", "extractor.match_fragment")
    rec.wrap(cli, "save_snapshot", "records.save_snapshot")
    rec.wrap(cli, "load_snapshot", "records.load_snapshot")

    def on_pairs(pairs, *_a, **_k):
        rec.add("prefilter.pairs", len(pairs))

    def on_filter(classes, left, right, *_a, **_k):
        rec.add("prefilter.class_pairs_compared", len(left.class_index) * len(right.class_index))
        rec.add("prefilter.class_pairs_retained", len(classes))

    rec.wrap(prefilter, "exhaustive_pairs", "prefilter.exhaustive_pairs", on_pairs)
    rec.wrap(prefilter, "generate_pairs", "prefilter.generate_pairs", on_pairs)
    rec.wrap(prefilter, "filter_classes", "prefilter.filter_classes", on_filter)
    rec.wrap(prefilter, "save_pairs", "prefilter.save_pairs")
    if hasattr(prefilter, "BagOfTokensEmbedder"):
        rec.wrap(prefilter.BagOfTokensEmbedder, "similarity", "prefilter.embed")
    else:
        rec.missing.append("remap.prefilter.BagOfTokensEmbedder")

    def on_ingest(result, *_a, **_k):
        stats = result[1]
        for key in ("lines", "resolved", "unresolved", "malformed", "duplicates"):
            rec.add(f"ingest.{key}", getattr(stats, key))

    rec.wrap(ingest, "ingest_generic", "ingest.generic", on_ingest)
    rec.wrap(ingest, "ingest_nicad_xml", "ingest.nicad", on_ingest)
    rec.wrap(ingest, "load_pairs", "ingest.load_pairs")

    def on_normalize(details, record, cls, rules, role, *_a, **_k):
        rec.add("normalizer.tokens", sum(len(getattr(details, f)) for f in details.__dataclass_fields__))
        rec.records.add(f"{role}:{record.id}")

    def on_lcs(_length, s1, s2, *_a, **_k):
        rec.add("simcore.lcs_cells", len(s1) * len(s2))

    rec.wrap(mapper, "normalize_record", "normalizer.normalize_record", on_normalize)
    rec.wrap(mapper, "components", "simcore.components")
    rec.wrap(simcore, "lcs_length", "simcore.lcs_length", on_lcs)
    rec.wrap(mapper, "score_pairs", "mapper.score_pairs")
    rec.wrap(mapper, "report", "mapper.report")
    rec.wrap(mapper, "load_results", "mapper.load_results")

    def on_tune(_weights, training, cfg=None, *_a, **_k):
        n = round(1.0 / cfg.grid_step) if cfg is not None else 20
        rec.add("evalkit.tune_grid_points", ((n + 1) * (n + 2) // 2) ** 2)
        rec.add("evalkit.tune_examples", len(training))

    for fn in ("load_labels", "evaluate", "sweep", "rule_impact"):
        rec.wrap(evalkit, fn, f"evalkit.{fn}")
    rec.wrap(evalkit, "tune", "evalkit.tune", on_tune)


def run_traced(out_path: str, argv: list[str]) -> int:
    rec = Recorder()
    install(rec)
    from remap import cli

    sys.argv = ["remap", *argv]
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    return code


# ---------------------------------------------------------------------------
# environment probe and kernel microbenchmark

# the workload of the former benchmarks/bench_lcs.py: mostly short
# identifier sequences, some long doc/comment sequences
VOCAB = (
    "get set with name stmt unit body class method value box type list "
    "string builder index count local trap graph pred succ phase option "
    "validate load resolve escape replace append iterator next"
).split()


def kernel_workload(n_pairs: int, seed: int) -> list[tuple[list[str], list[str]]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        if rng.random() < 0.7:
            n, m = rng.randint(1, 8), rng.randint(1, 8)
        else:
            n, m = rng.randint(20, 120), rng.randint(20, 120)
        pairs.append(([rng.choice(VOCAB) for _ in range(n)], [rng.choice(VOCAB) for _ in range(m)]))
    return pairs


def kernel(n_pairs: int, seed: int, repeats: int = 3) -> dict:
    """Pairs per second of the public ``remap.lcs.lcs_length``, checked
    against the benchmark's own oracle."""
    from checks import lcs_oracle
    from remap.lcs import lcs_length

    pairs = kernel_workload(n_pairs, seed)
    rates, checksum = [], 0
    for _ in range(repeats):
        start = time.perf_counter()
        checksum = sum(lcs_length(a, b) for a, b in pairs)
        rates.append(n_pairs / (time.perf_counter() - start))
    want = sum(lcs_oracle(a, b) for a, b in pairs)
    return {"pairs_per_s": statistics.median(rates), "pairs": n_pairs, "correct": checksum == want}


def probe() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import remap
    from remap import cli, lcs

    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    try:  # the --jobs default `score` resolves to here
        jobs = cli.build_parser().parse_args(["score", "--pairs", "p", "--left", "l", "--right", "r",
                                              "--out", "o"]).jobs
    except (AttributeError, SystemExit):
        jobs = None
    return {
        "remap_version": getattr(remap, "__version__", None),
        "lcs_backend": getattr(lcs, "BACKEND", None),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "cli.jobs": jobs,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--probe"]:
        print(json.dumps(probe()))
        return 0
    if argv[:1] == ["--kernel"]:
        print(json.dumps(kernel(int(argv[1]), int(argv[3]))))
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    return run_traced(argv[0], argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
