"""Semantic alignment scoring for a method pair.

Per-field similarity is LCS-based: sim = 2*|LCS| / (n+m). Field scores
aggregate into three components,

    simClass        = simClassName + (1 - simClassName) * simClassDoc
    simMethodHeader = delta*simMethodName + eta*simReturnType + phi*simParam
    simOptional     = mean of the present members of
                      {simLocalVar, simMethodDoc, simComment}

and the final score is the weighted sum

    score = alpha*simClass + beta*simMethodHeader + theta*simOptional.

Scoring is two steps. ``measure`` takes a pair's eight field similarities
(``FIELDS`` order), None marking an "absent" field, one whose token
sequences are both empty (0/0). ``aggregate`` turns them into the score
breakdown under given weights and ablation mode. It applies the fixed
0/0 rules (``policy_filled``, shared with the weight tuner) and the
ablation overrides; no other module does. An absent class name, class doc,
method name or return type counts as 0; two empty parameter lists agree on
zero arity and score 1; absent optional fields drop out of the mean (all
absent -> 0). EXR2-EXR4 override field values after measurement, uniformly
for every pair, so pairs differing only in an ablated field score
identically. EXR1 instead measures without the renaming rules.

Both weighted sums, the header and the score, are ``weighted_sum``. The
weight tuner sums numpy columns of ``policy_filled`` fields by it, so every
score it ranks by has the bits ``aggregate`` gives under the same weights.

To score many pairs, ``prepare`` each record's fields (token sequences with
their LCS match masks) once, take ``class_sims`` once per class pair, and
``measure`` each pair once; one measurement serves every weight config and
every ablation mode but EXR1. ``components`` does it all for one pair. To
compare one field with the same field of many records, ``pack_row`` those
fields once and take ``packed_sims``: one kernel pass for them all, with
``masked_sim``'s similarities, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields as dataclass_fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .lcs import lcs_bits, lcs_masked, match_masks, pack_masks
from .normalizer import NormalizedDetails
from .records import open_output, parse_json

EPS = 1e-9

# ALL keeps every signal; EXR1 disables renaming during normalization;
# EXR2 zeroes simLocalVar and simMethodHeader; EXR3 zeroes simMethodDoc and
# simClassDoc; EXR4 zeroes simComment
ABLATION_MODES = ("ALL", "EXR1", "EXR2", "EXR3", "EXR4")

# the eight measured fields; ``SASBreakdown`` names each ``sim_<field>``
FIELDS = (
    "class_name", "class_doc", "method_name", "return_type",
    "param", "local_var", "method_doc", "comment",
)


@dataclass(frozen=True)
class WeightConfig:
    """Component weights; each triple must lie on the unit simplex."""

    alpha: float = 0.5
    beta: float = 0.25
    theta: float = 0.25
    delta: float = 0.5
    eta: float = 0.35
    phi: float = 0.15

    def __post_init__(self):
        for name in ("alpha", "beta", "theta", "delta", "eta", "phi"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"weight {name}={v!r} is not a number")
            if not (0.0 - EPS <= v <= 1.0 + EPS):
                raise ValueError(f"weight {name}={v} outside [0,1]")
        if abs(self.alpha + self.beta + self.theta - 1.0) > EPS:
            raise ValueError("alpha+beta+theta must equal 1")
        if abs(self.delta + self.eta + self.phi - 1.0) > EPS:
            raise ValueError("delta+eta+phi must equal 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "WeightConfig":
        if not isinstance(d, dict):
            raise ValueError(f"weights must be a JSON object, not {type(d).__name__}")
        unknown = sorted(set(d) - set(WeightConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown weight keys: {', '.join(unknown)}")
        return WeightConfig(**d)

    @staticmethod
    def load(path: str | Path) -> "WeightConfig":
        return WeightConfig.from_dict(parse_json(Path(path).read_text(encoding="utf-8")))

    def save(self, path: str | Path) -> None:
        with open_output(path) as fh:
            fh.write(json.dumps(self.to_dict(), indent=2) + "\n")


class SASBreakdown(NamedTuple):
    """Every per-field similarity, the three components, and the score.

    Per-field values are None when the field is absent on both sides.
    """

    sim_class_name: float | None
    sim_class_doc: float | None
    sim_method_name: float | None
    sim_return_type: float | None
    sim_param: float | None
    sim_local_var: float | None
    sim_method_doc: float | None
    sim_comment: float | None
    sim_class: float
    sim_method_header: float
    sim_optional: float
    sas: float
    ablation: str


def masked(seq) -> tuple:
    """A token sequence with its LCS match masks, for ``masked_sim``.

    Build it once per sequence that takes part in many comparisons.
    """
    return (seq, match_masks(seq))


def masked_sim(a: tuple, b: tuple) -> float | None:
    """2*|LCS|/(n+m) of two ``masked`` sequences, or None when both are empty."""
    s1, s2 = a[0], b[0]
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        return None if n + m == 0 else 0.0
    # walk the shorter sequence over the longer one's masks
    lcs = lcs_masked(s2, a[1], n) if m <= n else lcs_masked(s1, b[1], m)
    return 2.0 * lcs / (n + m)


def pack_row(seqs: list[tuple]) -> tuple:
    """Several ``masked`` sequences side by side in one kernel row, for
    ``packed_sims``. Build it once per list of sequences that one sequence
    after another is compared with."""
    lengths = [len(s[0]) for s in seqs]
    masks, offsets, keep = pack_masks([s[1] for s in seqs], lengths)
    top = sum(lengths) + len(lengths)  # the row's width, guards included
    # with bit ``top`` set, a row prints as top + 1 binary digits, bit k at index top - k
    spans = [(top - o - m + 1, top - o + 1, m) for o, m in zip(offsets, lengths)]
    return masks, keep, 1 << top, spans


def packed_sims(a: tuple, row: tuple) -> list:
    """``masked_sim`` of ``a`` and each sequence of a ``pack_row`` row, in
    order, by one kernel pass of ``a`` over the row."""
    n = len(a[0])
    masks, keep, top, spans = row
    if n == 0:
        return [None if m == 0 else 0.0 for _, _, m in spans]
    bits = f"{lcs_bits(a[0], masks, keep) | top:b}"
    return [2.0 * (m - bits.count("1", i, j)) / (n + m) if m else 0.0 for i, j, m in spans]


# a record's eight token sequences, in the order ``NormalizedDetails`` declares them: ``FIELDS`` order
_details = attrgetter(*(f.name for f in dataclass_fields(NormalizedDetails)))


def prepare(d: NormalizedDetails) -> tuple:
    """The eight scored fields of one record as ``masked`` sequences, in
    ``SASBreakdown`` order; the first two are the class fields."""
    return tuple(map(masked, _details(d)))


def class_sims(p1: tuple, p2: tuple) -> tuple[float | None, float | None]:
    """(simClassName, simClassDoc) of two ``prepare``d records. They depend
    only on the class pair, so a caller may reuse them across its methods."""
    return masked_sim(p1[0], p2[0]), masked_sim(p1[1], p2[1])


def measure(p1: tuple, p2: tuple, class_pair: tuple[float | None, float | None]) -> tuple:
    """The eight field similarities of two ``prepare``d records whose
    ``class_sims`` are ``class_pair``, in ``FIELDS`` order (None: absent)."""
    return class_pair + tuple(map(masked_sim, p1[2:], p2[2:]))


def policy_filled(fields: tuple) -> tuple:
    """(simClass, simMethodName, simReturnType, simParam, simOptional) of
    ``measure``d fields under the 0/0 rules."""
    cls_name, cls_doc, m_name, r_type, param, local_var, method_doc, comment = fields
    cn = cls_name if cls_name is not None else 0.0
    cd = cls_doc if cls_doc is not None else 0.0
    optional = [v for v in (local_var, method_doc, comment) if v is not None]
    return (
        cn + (1.0 - cn) * cd,
        m_name if m_name is not None else 0.0,
        r_type if r_type is not None else 0.0,
        param if param is not None else 1.0,  # zero-arity agreement
        math.fsum(optional) / len(optional) if optional else 0.0,
    )


def weighted_sum(weights: tuple, values: tuple):
    """``a*x + b*y + c*z`` for weights (a, b, c) and values (x, y, z), summed
    left to right; values may be floats or numpy arrays."""
    (a, b, c), (x, y, z) = weights, values
    return a * x + b * y + c * z


def aggregate(fields: tuple, w: WeightConfig, mode: str = "ALL") -> SASBreakdown:
    """The score breakdown of ``measure``d fields under weights ``w`` and
    ablation ``mode`` (EXR1 needs fields measured without renaming rules)."""
    cls_name, cls_doc, m_name, r_type, param, local_var, method_doc, comment = fields
    if mode == "EXR3":
        cls_doc = method_doc = 0.0
    elif mode == "EXR4":
        comment = 0.0
    elif mode == "EXR2":
        local_var = 0.0
    fields = (cls_name, cls_doc, m_name, r_type, param, local_var, method_doc, comment)
    sim_class, m, r, p, sim_optional = policy_filled(fields)
    sim_header = 0.0 if mode == "EXR2" else weighted_sum((w.delta, w.eta, w.phi), (m, r, p))
    score = weighted_sum((w.alpha, w.beta, w.theta), (sim_class, sim_header, sim_optional))
    return SASBreakdown(*fields, sim_class, sim_header, sim_optional, score, mode)


def components(
    d1: NormalizedDetails,
    d2: NormalizedDetails,
    w: WeightConfig | None = None,
    mode: str = "ALL",
) -> SASBreakdown:
    """Per-field LCS similarities aggregated into the score breakdown under
    ablation ``mode``, one of ``ABLATION_MODES``."""
    p1, p2 = prepare(d1), prepare(d2)
    return aggregate(measure(p1, p2, class_sims(p1, p2)), w or WeightConfig(), mode)

