"""Seeded input generator for the benchmark workloads.

Every workload is built from the toy redesign pair in ``toy/`` (a copy of
the test fixture, kept here so that the benchmark's inputs do not change
when the tests' fixture does). A workload holds many *copies* of the toy
trees. Each copy gets

- its own package tag (``soot.a07`` on the left, ``sootup.b07`` on the
  right), so its classes are distinct from every other copy's, and
- its own vocabulary: every identifier segment and every comment word is
  replaced by a seeded pseudoword, the same way on both sides of the copy.

The replacement is a bijection on tokens that keeps every token count, so
inside one copy the token-equality structure (and so every LCS length,
except the class names' that the package tags lengthen) of the toy pair
survives, while pairs across copies share little more than Java keywords
and the words the bundled ``soot-sootup`` renaming rules act on. Those
words are kept as they are so that the rules still fire.

The same seed always gives byte-identical files. The program under test
sees only the written files; the facts the checks need (planted pairs,
expected ingest outcomes, broken-file counts) go to ``expected.json``.
"""

from __future__ import annotations

import csv
import functools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

TOY = Path(__file__).resolve().parent / "toy"
SIDES = {"left": "soot", "right": "sootup"}

JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null var
    record yield sealed permits""".split()
)
# words the soot-sootup rules match; perturbing them would stop the rules
RULE_WORDS = frozenset(
    """unit units use uses value values def box boxes body bodies transformer
    interceptor basic block stmt stmts set with""".split()
)
# tokens kept everywhere: keywords must stay valid Java, rule words must fire
KEEP_SEGMENTS = JAVA_KEYWORDS | RULE_WORDS
# whole identifiers kept: the package roots, and the method names the
# extractor excludes by default
KEEP_IDENTIFIERS = frozenset(SIDES.values()) | {"toString", "equals", "hashCode", "clone", "finalize"}
# substrings a pseudoword must not contain: no renaming rule may fire on it,
# and doc cleanup drops lines that start with "todo"
FORBIDDEN = ("unit", "use", "value", "def", "box", "body", "stmt", "block",
             "basic", "set", "with", "const", "transformer", "interceptor", "soot", "todo")

# the segmentation remap's tokenizer uses; a pseudoword replaces one segment
SEGMENT = re.compile(r"[A-Z]+[0-9]*(?![a-z])|[A-Za-z][a-z0-9]*|[0-9]+")
IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
# Java lexical elements whose words are perturbed differently
LEXEME = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])'|[A-Za-z_$][A-Za-z0-9_$]*",
    re.S,
)
ESCAPE_OR_WORD = re.compile(r"\\.|[A-Za-z_$][A-Za-z0-9_$]*")

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aeiou"

# Workload sizes. Each copy has 14 left and 13 right files, 28 x 27 methods,
# 14 x 13 classes, and 15 planted mappings plus 25 planted non-mappings.
# Each size is the traffic it stands for, trimmed until one 30 s run on 2
# cores holds at least three repetitions (medians over them steady the
# figures on a shared host), while the named work, not the interpreter
# start-up of every command, still takes most of its stage.
# exhaustive: 10 copies give 75,600 pairs, whose `score` alone takes about
# 17 s at the default --jobs; 6 copies give 168 x 162 methods and 27,216 pairs.
EXHAUSTIVE = {"copies": 6, "broken_share": 0.05}
# prefilter: 80 copies (1,120 x 1,040 classes) take about 11 s in `pairs`
# alone; 60 copies give 840 x 780 classes.
PREFILTER = {"copies": 60, "broken_share": 0.05}
# labeled: 19 copies give 760 labeled pairs, the nearest multiple of 40 to
# the paper's labeled set of 748 pairs.
LABELED = {
    "copies": 19,
    "noise_per_copy": 20,      # unlabeled detector pairs across random copies
    "foreign_share": 0.25,     # fragments under a foreign absolute path prefix
    "key_share": 0.10,         # fragments given as signature keys
    "swap_share": 0.10,        # lines reported right-to-left
    "duplicate_share": 0.05,   # lines repeated in another spelling
    "malformed_share": 0.05,   # lines that are not valid pair records
    "unresolved_share": 0.05,  # lines whose fragments match no method
    "nicad_copy_share": 0.5,   # copies whose planted pairs NiCad also reports
    # NiCad reports every clone pair it finds, many more than are labeled and
    # scored, so that fragment binding, not start-up, takes most of `ingest`
    "nicad_noise_per_copy": 300,
}


@dataclass(frozen=True)
class ToyMethod:
    key: str    # span-less signature key in toy vocabulary
    file: str   # path relative to the side's root
    start: int
    end: int


@dataclass(frozen=True)
class Method:
    """A method of one generated copy, with the id remap should give it."""

    key: str
    file: str
    start: int
    end: int

    @property
    def id(self) -> str:
        return f"{self.key}:{self.start}-{self.end}"


# ---------------------------------------------------------------------------
# the toy fixture


_HEADER = re.compile(
    r"^    (?=\S)(?:(?:public|protected|private|static|final|default|synchronized)\s+)*"
    r"([\w.<>\[\], ?]+?)\s+(\w+)\s*\(([^)]*)\)\s*(?:throws\s+[\w., ]+)?\{\s*$"
)
_PACKAGE = re.compile(r"^package\s+([\w.]+);", re.M)
_TYPE_DECL = re.compile(r"^(?:public\s+)?(?:abstract\s+|final\s+)*(?:class|interface|enum)\s+(\w+)", re.M)


def _param_types(params: str) -> list[str]:
    out, depth, cur = [], 0, ""
    for ch in params + ",":
        if ch == "," and depth == 0:
            if cur.strip():
                out.append("".join(cur.strip().rsplit(None, 1)[0].split()))
            cur = ""
            continue
        depth += ch == "<"
        depth -= ch == ">"
        cur += ch
    return out


def toy_files(side: str) -> list[str]:
    root = TOY / side
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.java"))


def toy_methods(side: str) -> list[ToyMethod]:
    """Methods of the toy tree, found by header lines and brace indentation.

    This is independent of remap's extractor: the toy sources put every
    member header on one line, indented four spaces, and close it with a
    four-space-indented brace.
    """
    out = []
    for rel in toy_files(side):
        text = (TOY / side / rel).read_text(encoding="utf-8")
        package = _PACKAGE.search(text).group(1)
        cls = _TYPE_DECL.search(text).group(1)
        lines = text.split("\n")
        for i, line in enumerate(lines):
            m = _HEADER.match(line)
            if not m or m.group(2) in (cls,) or m.group(2) in KEEP_IDENTIFIERS:
                continue
            end = next(j for j in range(i + 1, len(lines)) if lines[j] == "    }")
            types = ",".join(_param_types(m.group(3)))
            out.append(ToyMethod(f"{package}.{cls}#{m.group(2)}({types})", rel, i + 1, end + 1))
    return out


def toy_planted() -> dict:
    return json.loads((TOY / "planted.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# per-copy vocabulary


@functools.cache
def _segment_keys() -> tuple[str, ...]:
    keys = set()
    for side in SIDES:
        for rel in toy_files(side):
            text = (TOY / side / rel).read_text(encoding="utf-8")
            for ident in IDENT.findall(text + " " + rel.replace("/", " ").replace(".java", "")):
                for seg in SEGMENT.findall(ident):
                    key = seg.rstrip("0123456789").lower()
                    if key and key not in KEEP_SEGMENTS:
                        keys.add(key)
    return tuple(sorted(keys))


class Vocabulary:
    """A seeded, injective segment -> pseudoword map for one copy."""

    def __init__(self, seed: int, copy: int):
        rng = random.Random(f"vocab:{seed}:{copy}")
        used: set[str] = set()
        self.words: dict[str, str] = {}
        for key in _segment_keys():
            while True:
                n = max(3, len(key))
                start = rng.randrange(2)
                word = "".join(
                    rng.choice(CONSONANTS if (i + start) % 2 == 0 else VOWELS) for i in range(n)
                )
                if word in used or word in KEEP_SEGMENTS or any(f in word for f in FORBIDDEN):
                    continue
                used.add(word)
                self.words[key] = word
                break

    def _segment(self, m: re.Match) -> str:
        seg = m.group(0)
        letters = seg.rstrip("0123456789")
        key = letters.lower()
        if not letters or key in KEEP_SEGMENTS:
            return seg
        word = self.words[key]
        if letters.isupper():
            word = word.upper()
        elif letters[0].isupper():
            word = word.capitalize()
        return word + seg[len(letters):]

    def identifier(self, ident: str) -> str:
        if ident in KEEP_IDENTIFIERS:
            return ident
        out = SEGMENT.sub(self._segment, ident)
        if len(SEGMENT.findall(out)) != len(SEGMENT.findall(ident)):
            raise AssertionError(f"perturbing {ident!r} -> {out!r} changed its token count")
        return out

    def _words(self, text: str) -> str:
        return ESCAPE_OR_WORD.sub(
            lambda m: m.group(0) if m.group(0).startswith("\\") else self.identifier(m.group(0)), text
        )

    def source(self, text: str) -> str:
        def lexeme(m: re.Match) -> str:
            tok = m.group(0)
            if tok.startswith("'"):
                return tok
            if tok.startswith(('"', "/")):
                return self._words(tok)
            return self.identifier(tok)

        return LEXEME.sub(lexeme, text)


class Copy:
    """One perturbed copy of the toy pair: vocabulary, package tags, paths."""

    def __init__(self, seed: int, index: int):
        self.index = index
        self.vocab = Vocabulary(seed, index)
        self.tags = {"left": f"a{index:02d}", "right": f"b{index:02d}"}

    def _tag(self, side: str, text: str, sep: str) -> str:
        root = SIDES[side]
        return re.sub(rf"\b{root}\b(?={re.escape(sep)}|;)", f"{root}{sep}{self.tags[side]}", text)

    def source(self, side: str, text: str) -> str:
        return self._tag(side, self.vocab.source(text), ".")

    def key(self, side: str, key: str) -> str:
        return self._tag(side, self.vocab.source(key), ".")

    def path(self, side: str, rel: str) -> str:
        stem = rel[: -len(".java")]
        parts = [self.vocab.identifier(p) for p in stem.split("/")]
        return self._tag(side, "/".join(parts), "/") + ".java"

    def method(self, side: str, m: ToyMethod) -> Method:
        return Method(self.key(side, m.key), self.path(side, m.file), m.start, m.end)


# ---------------------------------------------------------------------------
# trees


def _truncate(text: str, rng: random.Random) -> str:
    """Cut a file after a seeded line strictly inside its type body, the way
    an interrupted write leaves it."""
    lines = text.split("\n")
    decl = next(i for i, ln in enumerate(lines) if _TYPE_DECL.match(ln))
    last = max(i for i, ln in enumerate(lines) if ln == "}")
    cut = rng.randrange(decl + 1, last)
    return "\n".join(lines[:cut]) + "\n"


def write_trees(out: Path, seed: int, copies: int, broken_share: float) -> dict:
    """Write ``left/`` and ``right/`` for ``copies`` copies plus broken files.

    Broken files come from extra copies whose classes appear nowhere else,
    so a parser that salvaged them would add classes, never clash.
    """
    methods = {side: toy_methods(side) for side in SIDES}
    planted = toy_planted()
    facts = {"copies": copies, "files": {}, "broken": {}, "planted": [], "methods": {}}
    rng = random.Random(f"broken:{seed}")
    for side in SIDES:
        files = toy_files(side)
        sources = {rel: (TOY / side / rel).read_text(encoding="utf-8") for rel in files}
        side_methods = []
        for c in range(copies):
            cp = Copy(seed, c)
            for rel in files:
                dst = out / side / cp.path(side, rel)
                dst.parent.mkdir(parents=True, exist_ok=True)
                dst.write_text(cp.source(side, sources[rel]), encoding="utf-8")
            side_methods.extend(cp.method(side, m).id for m in methods[side])
        n_broken = max(1, round(broken_share * copies * len(files))) if broken_share else 0
        for i in range(n_broken):
            cp = Copy(seed, copies + i)
            rel = files[rng.randrange(len(files))]
            dst = out / side / cp.path(side, rel)
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_text(_truncate(cp.source(side, sources[rel]), rng), encoding="utf-8")
        facts["files"][side] = copies * len(files) + n_broken
        facts["broken"][side] = n_broken
        facts["methods"][side] = side_methods
    by_key = {side: {m.key: m for m in methods[side]} for side in SIDES}
    for c in range(copies):
        cp = Copy(seed, c)
        for kind in ("mappings", "non_mappings"):
            for p in planted[kind]:
                facts["planted"].append({
                    "copy": c,
                    "left": cp.method("left", by_key["left"][p["left"]]).id,
                    "right": cp.method("right", by_key["right"][p["right"]]).id,
                    "clone_type": p["clone_type"],
                    "mapping": kind == "mappings",
                })
    return facts


# ---------------------------------------------------------------------------
# detector reports for the labeled workload


FOREIGN_PREFIX = "/var/ci/workspace/checkout-7/"


def _fragment(side: str, m: Method, style: str, rng: random.Random) -> dict:
    if style == "key":
        return {"key": m.key}
    start = m.start + rng.randint(0, 1)
    end = m.end - rng.randint(0, 1)
    path = m.file if style == "relative" else f"{FOREIGN_PREFIX}{side}/{m.file}"
    return {"file": path, "start": start, "end": end}


def _style(rng: random.Random, cfg: dict) -> str:
    r = rng.random()
    if r < cfg["key_share"]:
        return "key"
    if r < cfg["key_share"] + cfg["foreign_share"]:
        return "foreign"
    return "relative"


def write_reports(out: Path, seed: int, facts: dict, cfg: dict) -> dict:
    """Write the generic JSONL report, the NiCad XML report and labels.csv.

    Returns the outcome each report should have after ingest: the exact
    pair set and the malformed / unresolved / duplicate counts.
    """
    rng = random.Random(f"reports:{seed}")
    copies = facts["copies"]
    toy = {side: toy_methods(side) for side in SIDES}
    cps = [Copy(seed, c) for c in range(copies)]
    meth = {
        side: {(c, tm.key): cps[c].method(side, tm) for c in range(copies) for tm in toy[side]}
        for side in SIDES
    }
    by_id = {side: {m.id: m for m in meth[side].values()} for side in SIDES}

    intended: list[tuple[Method, Method]] = [
        (by_id["left"][p["left"]], by_id["right"][p["right"]]) for p in facts["planted"]
    ]
    for _ in range(cfg["noise_per_copy"] * copies):
        lc, rc = rng.randrange(copies), rng.randrange(copies)
        intended.append((
            meth["left"][(lc, rng.choice(toy["left"]).key)],
            meth["right"][(rc, rng.choice(toy["right"]).key)],
        ))

    # generic JSONL
    lines: list[str] = []
    pairs: set[tuple[str, str]] = set()
    stats = {"lines": 0, "resolved": 0, "unresolved": 0, "malformed": 0, "duplicates": 0,
             "foreign": 0, "key": 0, "swapped": 0}

    def emit(lm: Method, rm: Method, style: str | None = None) -> None:
        style = style or _style(rng, cfg)
        lf, rf = _fragment("left", lm, style, rng), _fragment("right", rm, style, rng)
        if style != "key" and rng.random() < cfg["swap_share"]:
            lf, rf = rf, lf
            stats["swapped"] += 1
        if style != "relative":
            stats[style] += 1
        lines.append(json.dumps({"detector": "synthetic", "format_version": 1, "left": lf, "right": rf},
                                sort_keys=True))
        stats["lines"] += 1
        stats["resolved"] += 1
        if (lm.id, rm.id) in pairs:
            stats["duplicates"] += 1
        pairs.add((lm.id, rm.id))

    for lm, rm in intended:
        emit(lm, rm)
    for lm, rm in rng.sample(intended, round(cfg["duplicate_share"] * len(intended))):
        emit(lm, rm, "relative" if rng.random() < 0.5 else "foreign")
    n_bad = round(cfg["malformed_share"] * len(intended))
    for i in range(n_bad):
        lm, rm = rng.choice(intended)
        good = {"detector": "synthetic", "left": _fragment("left", lm, "relative", rng),
                "right": _fragment("right", rm, "relative", rng)}
        kind = i % 3
        if kind == 0:
            text = json.dumps(good, sort_keys=True)[: -rng.randint(2, 12)]
        elif kind == 1:
            del good["right"]
            text = json.dumps(good, sort_keys=True)
        else:
            del good["left"]["end"]
            text = json.dumps(good, sort_keys=True)
        lines.append(text)
        stats["lines"] += 1
        stats["malformed"] += 1
    for i in range(round(cfg["unresolved_share"] * len(intended))):
        lm, rm = rng.choice(intended)
        lf = _fragment("left", lm, "relative", rng)
        if i % 2 == 0:
            lf["file"] = lf["file"].replace(".java", "Gone.java")
        else:
            lf["start"], lf["end"] = 1, 2  # package and import lines
        rf = _fragment("right", rm, "relative", rng)
        lines.append(json.dumps({"detector": "synthetic", "left": lf, "right": rf}, sort_keys=True))
        stats["lines"] += 1
        stats["unresolved"] += 1
    rng.shuffle(lines)
    (out / "report.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # NiCad XML: the planted pairs of some copies plus its own noise
    nicad_copies = sorted(rng.sample(range(copies), max(1, round(cfg["nicad_copy_share"] * copies))))
    chosen = [(by_id["left"][p["left"]], by_id["right"][p["right"]])
              for p in facts["planted"] if p["copy"] in nicad_copies]
    for _ in range(cfg["nicad_noise_per_copy"] * copies):
        lc, rc = rng.randrange(copies), rng.randrange(copies)
        chosen.append((meth["left"][(lc, rng.choice(toy["left"]).key)],
                       meth["right"][(rc, rng.choice(toy["right"]).key)]))
    nicad = {"clones": 0, "resolved": 0, "unresolved": 0, "malformed": 0, "same_project": 0,
             "duplicates": 0}
    nicad_pairs: set[tuple[str, str]] = set()
    clones = []

    def src(side: str, m: Method, foreign: bool) -> str:
        path = f"{FOREIGN_PREFIX}nicad/{side}/{m.file}" if foreign else f"{side}/{m.file}"
        return f'    <source file="{path}" startline="{m.start}" endline="{m.end}" pcid="{rng.randrange(10**6)}"/>'

    for lm, rm in chosen:
        foreign = rng.random() < cfg["foreign_share"]
        a, b = src("left", lm, foreign), src("right", rm, foreign)
        if rng.random() < cfg["swap_share"]:
            a, b = b, a
        clones.append(f'  <clone nlines="{lm.end - lm.start + 1}" similarity="80">\n{a}\n{b}\n  </clone>')
        nicad["resolved"] += 1
        if (lm.id, rm.id) in nicad_pairs:
            nicad["duplicates"] += 1
        nicad_pairs.add((lm.id, rm.id))
    for i in range(max(3, round(cfg["malformed_share"] * len(chosen)))):
        lm, rm = rng.choice(chosen)
        if i % 2 == 0:
            body = src("left", lm, False)
        else:
            body = src("left", lm, False) + "\n" + src("right", rm, False).replace(
                f'startline="{rm.start}"', 'startline="?"')
        clones.append(f'  <clone nlines="5" similarity="80">\n{body}\n  </clone>')
        nicad["malformed"] += 1
    for i in range(max(2, round(cfg["unresolved_share"] * len(chosen)))):
        lm, rm = rng.choice(chosen)
        a = src("left", lm, False).replace(".java", "Gone.java")
        clones.append(f'  <clone nlines="5" similarity="80">\n{a}\n{src("right", rm, False)}\n  </clone>')
        nicad["unresolved"] += 1
    for _ in range(2):
        lm, lm2 = rng.choice(chosen)[0], rng.choice(chosen)[0]
        clones.append(f'  <clone nlines="5" similarity="80">\n{src("left", lm, False)}\n'
                      f'{src("left", lm2, False)}\n  </clone>')
        nicad["same_project"] += 1
    rng.shuffle(clones)
    nicad["clones"] = len(clones)
    (out / "report.nicad.xml").write_text(
        '<?xml version="1.0"?>\n<clones>\n' + "\n".join(clones) + "\n</clones>\n", encoding="utf-8"
    )

    # labels: every copy's planted pairs
    with (out / "labels.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["left_key", "right_key", "clone_type", "is_code_mapping", "code_type", "tools"])
        for p in facts["planted"]:
            tools = "generic;nicad" if p["copy"] in nicad_copies else "generic"
            writer.writerow([p["left"], p["right"], p["clone_type"], str(p["mapping"]).lower(),
                             "production", tools])

    return {
        "generic": {**stats, "pairs": sorted(pairs)},
        "nicad": {**nicad, "pairs": sorted(nicad_pairs)},
    }


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "exhaustive":
        facts = write_trees(out, seed, **EXHAUSTIVE)
    elif workload == "prefilter":
        facts = write_trees(out, seed, **PREFILTER)
    elif workload == "labeled":
        facts = write_trees(out, seed, LABELED["copies"], 0.0)
        facts["reports"] = write_reports(out, seed, facts, LABELED)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    facts["workload"] = workload
    facts["seed"] = seed
    (out / "expected.json").write_text(json.dumps(facts, sort_keys=True) + "\n", encoding="utf-8")
    return facts
