"""Similarity component tests, anchored on an independent LCS oracle."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remap import ABLATION_MODES
from remap.lcs import lcs_bits, lcs_length, match_masks, pack_masks
from remap.normalizer import NormalizedDetails
from remap.simcore import (
    FIELDS,
    WeightConfig,
    aggregate,
    components,
    masked,
    masked_sim,
    pack_row,
    packed_sims,
    policy_filled,
    prepare,
    weighted_sum,
)


def oracle_lcs(s1, s2):
    """Brute force: longest subsequence of s1 that is a subsequence of s2."""
    best = 0
    for r in range(len(s1), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(s1, r):
            it = iter(s2)
            if all(tok in it for tok in combo):
                best = r
                break
    return best


def dp_lcs(s1, s2):
    """Second oracle for sequences too long for brute force: the O(n*m)
    rolling-row dynamic program."""
    prev = [0] * (len(s2) + 1)
    for a in s1:
        curr = [0]
        for j, b in enumerate(s2):
            curr.append(prev[j] + 1 if a == b else max(prev[j + 1], curr[j]))
        prev = curr
    return prev[-1]


def details(**kwargs):
    base = {
        "class_name": (),
        "class_doc": (),
        "method_name": (),
        "return_type": (),
        "params": (),
        "local_vars": (),
        "method_doc": (),
        "comments": (),
    }
    base.update({k: tuple(v) for k, v in kwargs.items()})
    return NormalizedDetails(**base)


def test_prepare_masks_every_detail_in_fields_order():
    names = [f.name for f in dataclasses.fields(NormalizedDetails)]
    # a detail is named for its field, in the plural where it joins several values
    assert tuple(name.removesuffix("s") for name in names) == FIELDS
    d = details(**{name: [name, str(i)] for i, name in enumerate(names)})
    assert prepare(d) == tuple(masked((name, str(i))) for i, name in enumerate(names))


def lcs_sim(s1, s2):
    return masked_sim(masked(tuple(s1)), masked(tuple(s2)))


def test_lcs_examples():
    assert lcs_sim(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert lcs_sim(["a"], ["b"]) == 0.0
    assert lcs_sim(["get", "name"], ["get", "id", "name"]) == pytest.approx(0.8)
    assert lcs_sim([], []) is None
    assert lcs_sim([], ["a"]) == 0.0


def test_lcs_against_oracle_small():
    seqs = [
        [], ["a"], ["a", "b"], ["b", "a", "b"], ["a", "a", "a"],
        ["x", "y", "z", "x"], ["a", "b", "a", "c", "b"],
    ]
    for s1 in seqs:
        for s2 in seqs:
            assert lcs_length(s1, s2) == oracle_lcs(s1, s2), (s1, s2)


@given(
    st.lists(st.sampled_from("abcdef"), max_size=12),
    st.lists(st.sampled_from("abcdef"), max_size=12),
)
@settings(max_examples=300)
def test_lcs_matches_oracle_property(s1, s2):
    assert lcs_length(s1, s2) == oracle_lcs(s1, s2)


@given(
    st.lists(st.sampled_from("abcd"), max_size=10),
    st.lists(st.sampled_from("abcd"), max_size=10),
)
def test_lcs_sim_symmetric_and_bounded(s1, s2):
    a = lcs_sim(s1, s2)
    b = lcs_sim(s2, s1)
    assert a == b
    if a is not None:
        assert 0.0 <= a <= 1.0
    if s1:
        assert lcs_sim(s1, s1) == 1.0


@st.composite
def sequence_pairs(draw):
    # alphabets of 1-5 tokens give long runs and many repeats; up to 200
    # tokens spans several machine words of match mask
    alphabet = "abcde"[: draw(st.integers(1, 5))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=200)
    return draw(tokens), draw(tokens)


@given(sequence_pairs())
@example((list("a" * 150 + "b" * 50), list("b" * 120 + "a" * 80)))
@example((list("ab" * 100), list("ba" * 100)))
@example(([], list("abc" * 60)))
@settings(max_examples=200, deadline=None)
def test_lcs_length_matches_dp_oracle(pair):
    s1, s2 = pair
    expected = dp_lcs(s1, s2)
    assert lcs_length(s1, s2) == expected
    assert lcs_length(s2, s1) == expected
    sim = lcs_sim(s1, s2)
    assert sim == (None if not s1 and not s2 else 2.0 * expected / (len(s1) + len(s2)))


@st.composite
def packed_rows(draw):
    # 1-20 segments of 0-70 tokens over 1-3 tokens, so segments cross 64-bit words and carries
    # run up to the guards; the query also holds tokens that no mask holds
    alphabet = "abc"[: draw(st.integers(1, 3))]
    segments = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=70), min_size=1, max_size=20))
    return draw(st.lists(st.sampled_from(alphabet + "xy"), max_size=10)), segments


@given(packed_rows())
@example((list("aaaaaaaaaa"), [list("a" * 63), [], list("a" * 64), list("a" * 70), ["a"]]))
@example((list("xyxyxyxyxy"), [list("abc" * 20), []]))
@settings(max_examples=150, deadline=None)
def test_packed_segments_match_the_oracle_one_by_one(row):
    """One kernel pass over segments side by side gives each segment's LCS
    as that segment alone would, and ``packed_sims`` gives each segment's
    ``masked_sim`` bit for bit."""
    query, segments = row
    masks, offsets, keep = pack_masks([match_masks(seg) for seg in segments], [len(seg) for seg in segments])
    v = lcs_bits(query, masks, keep)
    assert v & ~keep == 0  # no guard bit survives a step
    for seg, offset in zip(segments, offsets):
        bits = (v >> offset) & ((1 << len(seg)) - 1)
        assert len(seg) - bits.bit_count() == oracle_lcs(query, seg), (query, seg)
    a, row = masked(tuple(query)), pack_row([masked(tuple(seg)) for seg in segments])
    assert repr(packed_sims(a, row)) == repr([masked_sim(a, masked(tuple(seg))) for seg in segments])


def test_default_weights():
    w = WeightConfig()
    assert (w.alpha, w.beta, w.theta) == (0.5, 0.25, 0.25)
    assert (w.delta, w.eta, w.phi) == (0.5, 0.35, 0.15)


def test_weights_file_with_a_byte_order_mark_loads(tmp_path):
    # some editors save hand-edited JSON with a UTF-8 BOM
    w = WeightConfig(alpha=0.4, beta=0.3, theta=0.3)
    path = tmp_path / "weights.json"
    w.save(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert WeightConfig.load(path) == w


def test_weight_simplex_enforced():
    with pytest.raises(ValueError):
        WeightConfig(alpha=0.9, beta=0.2, theta=0.2)
    with pytest.raises(ValueError):
        WeightConfig(delta=0.1, eta=0.1, phi=0.1)
    with pytest.raises(ValueError):
        WeightConfig(alpha=-0.1, beta=0.85, theta=0.25)


@st.composite
def weight_configs(draw):
    a, b = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    d, e = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    return WeightConfig(
        alpha=min(a, b) / 20, beta=(max(a, b) - min(a, b)) / 20, theta=(20 - max(a, b)) / 20,
        delta=min(d, e) / 20, eta=(max(d, e) - min(d, e)) / 20, phi=(20 - max(d, e)) / 20,
    )


@given(
    weight_configs(),
    st.tuples(*[st.none() | st.floats(0.0, 1.0) for _ in range(8)]),
    st.sampled_from(("ALL", "EXR1", "EXR2", "EXR3", "EXR4")),
)
def test_aggregate_stays_in_unit_range(w, fields, mode):
    b = aggregate(fields, w, mode)
    for value in (b.sim_class, b.sim_method_header, b.sim_optional, b.sas):
        assert 0.0 <= value <= 1.0 + 1e-12


@given(weight_configs(), st.lists(st.tuples(*[st.none() | st.floats(0.0, 1.0)] * 8), min_size=1, max_size=20))
def test_weighted_sum_on_columns_equals_aggregate_bit_for_bit(w, rows):
    # the tuner sums numpy columns; every entry must be the float aggregate gives
    import numpy as np

    sim_class, mn, rt, pm, sim_opt = np.array([policy_filled(fields) for fields in rows]).T
    header = weighted_sum((w.delta, w.eta, w.phi), (mn, rt, pm))
    sas = weighted_sum((w.alpha, w.beta, w.theta), (sim_class, header, sim_opt))
    for fields, h, s in zip(rows, header.tolist(), sas.tolist()):
        b = aggregate(fields, w)
        assert (b.sim_method_header.hex(), b.sas.hex()) == (h.hex(), s.hex())


def test_sim_class_formula():
    d1 = details(class_name=["a", "b"], class_doc=["x", "y", "z", "w", "v"])
    d2 = details(class_name=["a", "c", "d"], class_doc=["x", "y", "q", "r", "s"])
    b = components(d1, d2)
    assert b.sim_class == pytest.approx(
        b.sim_class_name + (1 - b.sim_class_name) * b.sim_class_doc
    )


def test_sim_class_worked_values():
    # simClassName=0.5 and simClassDoc=0.4 must combine to 0.7
    d1 = details(class_name=["a", "b"], class_doc=["p", "q"])
    d2 = details(class_name=["a", "x"], class_doc=["p", "r", "s"])
    b = components(d1, d2)
    assert b.sim_class_name == pytest.approx(0.5)
    assert b.sim_class_doc == pytest.approx(0.4)
    assert b.sim_class == pytest.approx(0.7, abs=1e-9)


def test_sim_class_saturates():
    d1 = details(class_name=["a"], class_doc=["x"])
    d2 = details(class_name=["a"], class_doc=["y"])
    b = components(d1, d2)
    assert b.sim_class_name == 1.0
    assert b.sim_class == pytest.approx(1.0, abs=1e-9)


def test_sim_class_absent_doc_contributes_zero():
    d1 = details(class_name=["a", "b"])
    d2 = details(class_name=["a", "x"])
    b = components(d1, d2)
    assert b.sim_class_doc is None
    assert b.sim_class == pytest.approx(0.5)


def test_param_absent_means_zero_arity_agreement():
    d1 = details(class_name=["a"], method_name=["f"], return_type=["void"])
    d2 = details(class_name=["a"], method_name=["f"], return_type=["void"])
    b = components(d1, d2)
    # the field is reported absent, but the header treats it as agreement
    assert b.sim_param is None
    assert b.sim_method_header == pytest.approx(1.0)


def test_one_sided_empty_scores_zero():
    d1 = details(class_name=["a"], method_name=["f"], return_type=["void"], method_doc=["x"])
    d2 = details(class_name=["a"], method_name=["f"], return_type=["void"])
    b = components(d1, d2)
    assert b.sim_method_doc == 0.0


def test_sim_optional_mean_over_present():
    # local vars absent on both sides; doc sim 0.6; comment sim 0.2
    d1 = details(
        class_name=["a"], method_name=["f"], return_type=["void"],
        method_doc=["a", "b", "c", "d", "e"], comments=["p", "q", "r", "s", "t"],
    )
    d2 = details(
        class_name=["a"], method_name=["f"], return_type=["void"],
        method_doc=["a", "b", "c", "x", "y"], comments=["p", "x", "y", "z", "w"],
    )
    b = components(d1, d2)
    assert b.sim_local_var is None
    assert b.sim_method_doc == pytest.approx(0.6)
    assert b.sim_comment == pytest.approx(0.2)
    assert b.sim_optional == pytest.approx(0.4, abs=1e-9)


def test_sim_optional_all_absent_is_zero():
    d1 = details(class_name=["a"], method_name=["f"], return_type=["void"])
    d2 = details(class_name=["a"], method_name=["f"], return_type=["void"])
    b = components(d1, d2)
    assert b.sim_optional == 0.0


def _score(sim_class, sim_header, sim_optional):
    """The score of fields whose components are the given three: class doc
    0, every header field sim_header, one present optional field."""
    fields = (sim_class, 0.0, sim_header, sim_header, sim_header, sim_optional, None, None)
    b = aggregate(fields, WeightConfig())
    assert (b.sim_class, b.sim_optional) == (sim_class, sim_optional)
    assert b.sim_method_header == pytest.approx(sim_header, abs=1e-12)
    return b.sas


def test_sas_worked_values():
    assert _score(1, 1, 1) == pytest.approx(1.0, abs=1e-9)
    assert _score(0.8, 0.6, 0.4) == pytest.approx(0.65, abs=1e-9)
    assert _score(0, 0, 0) == 0.0


def test_sas_monotone_in_components():
    base = _score(0.3, 0.4, 0.5)
    assert _score(0.4, 0.4, 0.5) >= base
    assert _score(0.3, 0.5, 0.5) >= base
    assert _score(0.3, 0.4, 0.6) >= base


@given(st.floats(0, 1), st.floats(0, 1))
def test_sim_class_dominates_class_name(cn, cd):
    sim_class = cn + (1 - cn) * cd
    assert sim_class >= cn - 1e-12
    assert sim_class <= 1.0 + 1e-12


def test_ablation_exr4_ignores_comments():
    common = dict(
        class_name=["a"], method_name=["f"], return_type=["void"],
        local_vars=["x"], method_doc=["d"],
    )
    d1 = details(**common, comments=["alpha", "beta"])
    d2 = details(**common, comments=["gamma"])
    d3 = details(**common)  # no comments at all
    b12 = components(d1, d2, mode="EXR4")
    b13 = components(d1, d3, mode="EXR4")
    b11 = components(d1, d1, mode="EXR4")
    assert b12.sas == pytest.approx(b13.sas, abs=1e-9)
    assert b11.sas == pytest.approx(b12.sas, abs=1e-9)
    assert b12.sim_comment == 0.0


def test_ablation_exr2_zeroes_header_and_locals():
    d1 = details(
        class_name=["a"], method_name=["f"], return_type=["void"],
        local_vars=["x", "y"], method_doc=["d"],
    )
    b = components(d1, d1, mode="EXR2")
    assert b.sim_method_header == 0.0
    assert b.sim_local_var == 0.0
    # optional mean now includes the forced zero: (0 + 1) / 2
    assert b.sim_optional == pytest.approx(0.5)


def test_ablation_exr3_zeroes_docs():
    d1 = details(
        class_name=["a"], class_doc=["c"], method_name=["f"],
        return_type=["void"], method_doc=["d"],
    )
    b = components(d1, d1, mode="EXR3")
    assert b.sim_class_doc == 0.0
    assert b.sim_method_doc == 0.0
    assert b.sim_class == b.sim_class_name


def test_all_scores_bounded():
    d1 = details(
        class_name=["a", "b"], class_doc=["c"], method_name=["f", "g"],
        return_type=["int"], params=["int", "x"], local_vars=["y"],
        method_doc=["doc"], comments=["note"],
    )
    d2 = details(
        class_name=["a"], class_doc=["z"], method_name=["f"],
        return_type=["long"], params=["int", "q"], local_vars=["w"],
        method_doc=["other"], comments=["note", "more"],
    )
    b = components(d1, d2)
    for value in (b.sim_class, b.sim_method_header, b.sim_optional, b.sas):
        assert 0.0 <= value <= 1.0
    assert not math.isnan(b.sas)


@given(
    st.lists(st.sampled_from("abc"), max_size=4),
    st.lists(st.sampled_from("abc"), max_size=4),
    weight_configs(),
)
def test_sas_recomputes_the_breakdown_score(doc1, doc2, w):
    d1 = details(class_name=["a"], method_name=["f"], return_type=["int"], method_doc=doc1)
    d2 = details(class_name=["a", "b"], method_name=["f"], return_type=["long"], method_doc=doc2)
    for mode in ABLATION_MODES:
        b = components(d1, d2, w, mode)
        assert b.sas == w.alpha * b.sim_class + w.beta * b.sim_method_header + w.theta * b.sim_optional
