"""Correctness checks on a workload's outputs.

Each check reads only files: the generator's ``expected.json``, the CLI's
outputs and manifests, and token dumps written by ``remap normalize``. The
LCS oracle below is a plain full-table dynamic program kept here on
purpose, so that the checks stay independent of ``remap.lcs``.
"""

from __future__ import annotations

import csv
import json
import random
from collections import defaultdict
from pathlib import Path

# output field -> normalize-dump field
FIELDS = {
    "sim_class_name": "class_name",
    "sim_class_doc": "class_doc",
    "sim_method_name": "method_name",
    "sim_return_type": "return_type",
    "sim_param": "params",
    "sim_local_var": "local_vars",
    "sim_method_doc": "method_doc",
    "sim_comment": "comments",
}
CM_THRESHOLD = 0.6      # the code-mapping default of the heavy-redesign profile
CLASS_SIM = 0.5         # the default class-name cutoff of `pairs --mode prefilter`
ORACLE_SAMPLE = 200     # scored pairs re-derived per run


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def lcs_oracle(a, b) -> int:
    """Length of the longest common subsequence, full (n+1)x(m+1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def sim_oracle(a, b) -> float | None:
    if not a and not b:
        return None
    return 2.0 * lcs_oracle(a, b) / (len(a) + len(b))


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def manifest(path: Path) -> dict:
    return json.loads(Path(str(path) + ".manifest.json").read_text(encoding="utf-8"))


def pair_keys(path: Path) -> list[tuple[str, str]]:
    return [(p["left"]["key"], p["right"]["key"]) for p in read_jsonl(path)]


def class_of(record_id: str) -> str:
    return record_id.split("#", 1)[0]


def loc_of(record_id: str) -> int:
    start, end = record_id.rsplit(":", 1)[1].split("-")
    return int(end) - int(start) + 1


# ---------------------------------------------------------------------------


def snapshots(work: Path, expected: dict) -> None:
    """Both snapshots hold exactly the generated methods; exactly the broken
    files failed to parse."""
    for side in ("left", "right"):
        ids = [r["id"] for r in read_jsonl(work / f"{side}.jsonl")]
        require(sorted(ids) == sorted(expected["methods"][side]),
                f"{side} snapshot: {len(ids)} methods, expected {len(expected['methods'][side])}")
        counters = manifest(work / f"{side}.jsonl")["counters"]
        require(counters["files_seen"] == expected["files"][side],
                f"{side}: {counters['files_seen']} files seen, expected {expected['files'][side]}")
        require(len(counters["failed_files"]) == expected["broken"][side],
                f"{side}: {len(counters['failed_files'])} files failed, expected {expected['broken'][side]}")


def scored_rows(rows: list[dict], threshold: float) -> None:
    """Ranking contract: kept rows first, each group by (-sas, left, right),
    ranks 1..k, kept exactly when sas >= threshold, scores in [0, 1]."""
    kept = [r for r in rows if r["kept"]]
    require(rows[: len(kept)] == kept, "kept rows are not listed first")
    require([r["rank"] for r in kept] == list(range(1, len(kept) + 1)), "ranks are not 1..k")
    for r in rows:
        require(0.0 <= r["sas"] <= 1.0, f"score {r['sas']} outside [0,1]")
        require(r["kept"] == (r["sas"] >= threshold), f"kept flag wrong for {r['left']} ~ {r['right']}")
    for group in (kept, rows[len(kept):]):
        keys = [(-r["sas"], r["left"], r["right"]) for r in group]
        require(keys == sorted(keys), "rows are not ordered by (-sas, left, right)")


def planted(rows: list[dict], expected: dict) -> dict:
    """Per copy, every planted mapping scores at least every planted
    non-mapping, and at the code-mapping threshold the kept planted set is
    exactly the 15 mappings."""
    sas = {(r["left"], r["right"]): r["sas"] for r in rows}
    by_copy = defaultdict(list)
    for p in expected["planted"]:
        by_copy[p["copy"]].append(p)
    lowest_mapping, highest_other = 1.0, 0.0
    for copy, items in sorted(by_copy.items()):
        mapping = [sas[(p["left"], p["right"])] for p in items if p["mapping"]]
        other = [sas[(p["left"], p["right"])] for p in items if not p["mapping"]]
        require(len(mapping) == 15 and len(other) == 25, f"copy {copy}: planted pairs missing")
        require(min(mapping) >= max(other),
                f"copy {copy}: a non-mapping ({max(other):.3f}) outscores a mapping ({min(mapping):.3f})")
        kept = {(p["left"], p["right"]) for p in items if sas[(p["left"], p["right"])] >= CM_THRESHOLD}
        require(kept == {(p["left"], p["right"]) for p in items if p["mapping"]},
                f"copy {copy}: kept planted set at {CM_THRESHOLD} is not the 15 mappings")
        lowest_mapping = min(lowest_mapping, min(mapping))
        highest_other = max(highest_other, max(other))
    return {"copies": len(by_copy), "min_mapping_sas": lowest_mapping, "max_non_mapping_sas": highest_other}


def load_tokens(path: Path) -> dict[str, dict]:
    return {d["id"]: d for d in read_jsonl(path)}


def field_oracle(rows: list[dict], left: dict, right: dict, seed: int) -> int:
    """A seeded sample of scored pairs has every field similarity equal to
    the oracle's, computed on the normalized tokens."""
    rng = random.Random(f"oracle:{seed}")
    sample = rng.sample(rows, min(ORACLE_SAMPLE, len(rows)))
    for r in sample:
        a, b = left[r["left"]], right[r["right"]]
        for out_field, tok_field in FIELDS.items():
            want = sim_oracle(a[tok_field], b[tok_field])
            require(r[out_field] == want,
                    f"{r['left']} ~ {r['right']}: {out_field}={r[out_field]}, oracle {want}")
    return len(sample)


def class_filter(pairs: list[tuple[str, str]], left: dict, right: dict, seed: int) -> dict:
    """Every prefilter pair lies in a class pair whose normalized names reach
    the cutoff, and a seeded sample of class pairs below it yields no pair."""
    ltok = {class_of(i): tuple(d["class_name"]) for i, d in left.items()}
    rtok = {class_of(i): tuple(d["class_name"]) for i, d in right.items()}
    seen = {(class_of(a), class_of(b)) for a, b in pairs}
    for lc, rc in seen:
        sim = sim_oracle(ltok[lc], rtok[rc])
        require(sim is not None and sim >= CLASS_SIM, f"pair in class pair {lc} ~ {rc} with name sim {sim}")
    rng = random.Random(f"classes:{seed}")
    lnames, rnames = sorted(ltok), sorted(rtok)
    below = 0
    for _ in range(2000):
        lc, rc = rng.choice(lnames), rng.choice(rnames)
        sim = sim_oracle(ltok[lc], rtok[rc])
        if sim is None or sim < CLASS_SIM:
            below += 1
            require((lc, rc) not in seen, f"class pair {lc} ~ {rc} below the cutoff produced pairs")
    return {"class_pairs_with_pairs": len(seen), "sampled_below_cutoff": below}


def exhaustive_pairs(pairs: list[tuple[str, str]], expected: dict) -> None:
    lefts = sorted(i for i in expected["methods"]["left"] if loc_of(i) >= 5)
    rights = sorted(i for i in expected["methods"]["right"] if loc_of(i) >= 5)
    require(pairs == [(a, b) for a in lefts for b in rights], "exhaustive pairs are not the sorted cross product")


def ingested(work: Path, name: str, expected: dict) -> None:
    """The ingested pair set and the ingest counters are exactly what the
    generated report implies."""
    got = sorted(pair_keys(work / f"pairs.{name}.jsonl"))
    want = sorted(tuple(p) for p in expected["pairs"])
    require(got == want, f"{name} ingest: {len(got)} pairs, expected {len(want)} ({len(set(got) ^ set(want))} differ)")
    counters = manifest(work / f"pairs.{name}.jsonl")["counters"]
    for key in ("resolved", "unresolved", "malformed", "duplicates"):
        require(counters[key] == expected[key], f"{name} ingest: {key}={counters[key]}, expected {expected[key]}")


def evaluation(work: Path, rows: list[dict]) -> None:
    """eval's confusion counts match a recount; the other reports are whole."""
    with (work / "labels.csv").open(encoding="utf-8", newline="") as fh:
        labels = {(r["left_key"], r["right_key"]): r["is_code_mapping"] == "true" for r in csv.DictReader(fh)}
    kept = {(r["left"], r["right"]) for r in rows if r["kept"]}
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for key, positive in labels.items():
        counts[("t" if (key in kept) == positive else "f") + ("p" if key in kept else "n")] += 1
    got = json.loads((work / "eval.json").read_text(encoding="utf-8"))["confusion"]
    require(got == counts, f"eval confusion {got}, recount {counts}")
    sweep = json.loads((work / "sweep.json").read_text(encoding="utf-8"))
    require(len(sweep["points"]) == 21 and sweep["best_threshold"] is not None, "sweep report incomplete")
    ablate = json.loads((work / "ablate.json").read_text(encoding="utf-8"))
    require(sorted(ablate) == ["ALL", "EXR1", "EXR2", "EXR3", "EXR4"], "ablate report incomplete")
    impact = json.loads((work / "impact.json").read_text(encoding="utf-8"))
    require(sorted(impact) == ["EXR1", "EXR2", "EXR3", "EXR4"], "impact report incomplete")
    w = json.loads((work / "weights.json").read_text(encoding="utf-8"))
    require(abs(w["alpha"] + w["beta"] + w["theta"] - 1) < 1e-9 and abs(w["delta"] + w["eta"] + w["phi"] - 1) < 1e-9,
            "tuned weights are off the simplex")
