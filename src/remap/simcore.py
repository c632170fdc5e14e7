"""Semantic alignment scoring for a method pair.

Per-field similarity is LCS-based: sim = 2*|LCS| / (n+m). Field scores
aggregate into three components,

    simClass        = simClassName + (1 - simClassName) * simClassDoc
    simMethodHeader = delta*simMethodName + eta*simReturnType + phi*simParam
    simOptional     = mean of the present members of
                      {simLocalVar, simMethodDoc, simComment}

and the final score is the weighted sum

    score = alpha*simClass + beta*simMethodHeader + theta*simOptional.

A field is "absent" when both token sequences are empty (0/0). Absent class
doc contributes 0; two empty parameter lists agree on zero arity and score
1; absent optional fields drop out of the mean (all absent -> 0). Ablation
settings override field values after measurement, uniformly for every pair,
so pairs differing only in an ablated field score identically.

To score many pairs, ``prepare`` each record's fields (token sequences with
their LCS match masks) once, take ``class_sims`` once per class pair, and
call ``score_prepared``; ``components`` does all three for a single pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .lcs import lcs_length, lcs_masked, match_masks
from .normalizer import NormalizedDetails

EPS = 1e-9

ABLATION_MODES = ("ALL", "EXR1", "EXR2", "EXR3", "EXR4")


@dataclass(frozen=True)
class AblationSetting:
    """ALL keeps every signal; EXR1 disables renaming during normalization;
    EXR2 zeroes simLocalVar and simMethodHeader; EXR3 zeroes simMethodDoc
    and simClassDoc; EXR4 zeroes simComment."""

    mode: str = "ALL"

    def __post_init__(self):
        if self.mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode: {self.mode!r}")

    @property
    def disables_renaming(self) -> bool:
        return self.mode == "EXR1"


@dataclass(frozen=True)
class WeightConfig:
    """Component weights; each triple must lie on the unit simplex."""

    alpha: float = 0.5
    beta: float = 0.25
    theta: float = 0.25
    delta: float = 0.5
    eta: float = 0.35
    phi: float = 0.15
    # optional alternative when no optional evidence exists:
    # score = (alpha*simClass + beta*simMethodHeader) / (alpha + beta)
    renormalize_missing_optional: bool = False
    # 0/0 policies: absent class doc contributes this value; two empty
    # parameter lists score this value; absent optional fields either drop
    # out of the mean or count as zero
    absent_class_doc: float = 0.0
    absent_param: float = 1.0
    drop_absent_optional: bool = True

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
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "theta": self.theta,
            "delta": self.delta,
            "eta": self.eta,
            "phi": self.phi,
            "renormalize_missing_optional": self.renormalize_missing_optional,
            "absent_class_doc": self.absent_class_doc,
            "absent_param": self.absent_param,
            "drop_absent_optional": self.drop_absent_optional,
        }

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
        return WeightConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SASBreakdown:
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

    def to_dict(self) -> dict:
        return {
            "sim_class_name": self.sim_class_name,
            "sim_class_doc": self.sim_class_doc,
            "sim_method_name": self.sim_method_name,
            "sim_return_type": self.sim_return_type,
            "sim_param": self.sim_param,
            "sim_local_var": self.sim_local_var,
            "sim_method_doc": self.sim_method_doc,
            "sim_comment": self.sim_comment,
            "sim_class": self.sim_class,
            "sim_method_header": self.sim_method_header,
            "sim_optional": self.sim_optional,
            "sas": self.sas,
            "ablation": self.ablation,
        }

    @staticmethod
    def from_dict(d: dict) -> "SASBreakdown":
        return SASBreakdown(**d)


def lcs_sim(s1, s2) -> float | None:
    """2*|LCS|/(n+m), or None when both sequences are empty."""
    n, m = len(s1), len(s2)
    if n + m == 0:
        return None
    return 2.0 * lcs_length(s1, s2) / (n + m)


def masked(seq) -> tuple:
    """A token sequence with its LCS match masks, for ``masked_sim``.

    Build it once per sequence that takes part in many comparisons.
    """
    return (seq, match_masks(seq))


def masked_sim(a: tuple, b: tuple) -> float | None:
    """``lcs_sim`` of two ``masked`` sequences."""
    s1, s2 = a[0], b[0]
    n, m = len(s1), len(s2)
    if n == 0 or m == 0:
        return None if n + m == 0 else 0.0
    # walk the shorter sequence over the longer one's masks
    lcs = lcs_masked(s2, a[1], n) if m <= n else lcs_masked(s1, b[1], m)
    return 2.0 * lcs / (n + m)


def prepare(d: NormalizedDetails) -> tuple:
    """The eight scored fields of one record as ``masked`` sequences, in
    ``SASBreakdown`` order; the first two are the class fields."""
    return (
        masked(d.class_name),
        masked(d.class_doc),
        masked(d.method_name),
        masked(d.return_type),
        masked(d.params),
        masked(d.local_vars),
        masked(d.method_doc),
        masked(d.comments),
    )


def class_sims(p1: tuple, p2: tuple) -> tuple[float | None, float | None]:
    """(simClassName, simClassDoc) of two ``prepare``d records. They depend
    only on the class pair, so a caller may reuse them across its methods."""
    return masked_sim(p1[0], p2[0]), masked_sim(p1[1], p2[1])


def _weighted_sum(
    sim_class: float, sim_header: float, sim_optional: float, has_optional: bool, w: WeightConfig
) -> float:
    if w.renormalize_missing_optional and not has_optional:
        return (w.alpha * sim_class + w.beta * sim_header) / (w.alpha + w.beta)
    return w.alpha * sim_class + w.beta * sim_header + w.theta * sim_optional


def score_prepared(
    p1: tuple,
    p2: tuple,
    class_pair: tuple[float | None, float | None],
    w: WeightConfig,
    ablation: AblationSetting,
) -> SASBreakdown:
    """The score breakdown of two ``prepare``d records whose ``class_sims``
    are ``class_pair``."""
    cls_name, cls_doc = class_pair
    m_name = masked_sim(p1[2], p2[2])
    r_type = masked_sim(p1[3], p2[3])
    param = masked_sim(p1[4], p2[4])
    local_var = masked_sim(p1[5], p2[5])
    method_doc = masked_sim(p1[6], p2[6])
    comment = masked_sim(p1[7], p2[7])

    mode = ablation.mode
    if mode == "EXR3":
        cls_doc = 0.0
        method_doc = 0.0
    elif mode == "EXR4":
        comment = 0.0
    elif mode == "EXR2":
        local_var = 0.0

    cn = cls_name if cls_name is not None else 0.0
    cd = cls_doc if cls_doc is not None else w.absent_class_doc
    sim_class = cn + (1.0 - cn) * cd

    if mode == "EXR2":
        sim_header = 0.0
    else:
        sim_header = (
            w.delta * (m_name if m_name is not None else 0.0)
            + w.eta * (r_type if r_type is not None else 0.0)
            + w.phi * (param if param is not None else w.absent_param)  # zero-arity agreement
        )

    if w.drop_absent_optional:
        optional = [v for v in (local_var, method_doc, comment) if v is not None]
    else:
        optional = [v if v is not None else 0.0 for v in (local_var, method_doc, comment)]
    sim_optional = math.fsum(optional) / len(optional) if optional else 0.0

    return SASBreakdown(
        sim_class_name=cls_name,
        sim_class_doc=cls_doc,
        sim_method_name=m_name,
        sim_return_type=r_type,
        sim_param=param,
        sim_local_var=local_var,
        sim_method_doc=method_doc,
        sim_comment=comment,
        sim_class=sim_class,
        sim_method_header=sim_header,
        sim_optional=sim_optional,
        sas=_weighted_sum(sim_class, sim_header, sim_optional, bool(optional), w),
        ablation=mode,
    )


def components(
    d1: NormalizedDetails,
    d2: NormalizedDetails,
    w: WeightConfig | None = None,
    ablation: AblationSetting | None = None,
) -> SASBreakdown:
    """Per-field LCS similarities aggregated into the score breakdown."""
    p1, p2 = prepare(d1), prepare(d2)
    return score_prepared(p1, p2, class_sims(p1, p2), w or WeightConfig(), ablation or AblationSetting())


def sas(breakdown: SASBreakdown, w: WeightConfig | None = None) -> float:
    """Recompute the weighted sum from an existing breakdown's components."""
    w = w or WeightConfig()
    optional = (breakdown.sim_local_var, breakdown.sim_method_doc, breakdown.sim_comment)
    has_optional = not w.drop_absent_optional or any(v is not None for v in optional)
    return _weighted_sum(
        breakdown.sim_class, breakdown.sim_method_header, breakdown.sim_optional, has_optional, w
    )
