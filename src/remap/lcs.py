"""Bit-parallel longest-common-subsequence length.

One row of the LCS dynamic-programming table is held as the bits of a
Python int, so each token of the first sequence costs a few big-int
operations instead of a pass over the second sequence (Allison & Dix 1986;
Hyyrö 2004, "Bit-parallel LCS-length computation revisited").

The second sequence enters as its match masks: for every distinct token,
an int with bit j set where the token sits at position j. Callers that
compare one sequence against many build its masks once with
``match_masks`` and call ``lcs_masked``.
"""

from __future__ import annotations


def match_masks(seq) -> dict:
    """Token -> int with bit j set for every position j holding the token."""
    masks: dict = {}
    bit = 1
    for tok in seq:
        masks[tok] = masks.get(tok, 0) | bit
        bit <<= 1
    return masks


def lcs_masked(s1, masks: dict, m: int) -> int:
    """LCS length of ``s1`` and the length-``m`` sequence behind ``masks``.

    A zero bit in ``v`` marks a column where the current DP row steps up;
    carries beyond bit m-1 never reach the low bits, so ``v`` is masked once
    at the end.
    """
    full = (1 << m) - 1
    v = full
    get = masks.get
    for tok in s1:
        u = v & get(tok, 0)
        if u:
            v = (v + u) | (v - u)
    return m - (v & full).bit_count()


def lcs_length(s1, s2) -> int:
    """Length of the LCS of two token sequences."""
    if not s1 or not s2:
        return 0
    return lcs_masked(s1, match_masks(s2), len(s2))
