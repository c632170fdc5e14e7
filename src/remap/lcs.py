"""Bit-parallel longest-common-subsequence length.

One row of the LCS dynamic-programming table is held as the bits of a
Python int, so each token of the first sequence costs a few big-int
operations instead of a pass over the second sequence (Allison & Dix 1986;
Hyyrö 2004, "Bit-parallel LCS-length computation revisited").

The second sequence enters as its match masks: for every distinct token,
an int with bit j set where the token sits at position j. Callers that
compare one sequence against many build its masks once with
``match_masks`` and call ``lcs_bits``.

A row may also hold several second sequences side by side, each in a
segment of bits followed by one guard bit that is 0 in every mask
(``pack_masks``). ``lcs_bits`` clears the guards after each step, so a
carry out of a segment stops at its guard; and since ``u`` is a subset of
``v``, ``v - u`` never borrows. Each segment then steps exactly as it would
alone, and one pass of the first sequence gives every segment's LCS:
its length minus the set bits of its part of the row. One sequence alone
is the one-segment case, ``lcs_masked``.
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


def pack_masks(masks_list, lengths) -> tuple[dict, list[int], int]:
    """The match masks of several sequences, each given as ``match_masks``
    and its length, side by side in one row: ``(masks, offsets, keep)``.
    Sequence j takes bits ``offsets[j]`` to ``offsets[j] + lengths[j] - 1``,
    and the bit after them is its guard; ``keep`` sets the bits of every
    sequence and no guard."""
    packed: dict = {}
    offsets, offset, keep = [], 0, 0
    for masks, m in zip(masks_list, lengths):
        offsets.append(offset)
        for tok, bits in masks.items():
            packed[tok] = packed.get(tok, 0) | bits << offset
        keep |= ((1 << m) - 1) << offset
        offset += m + 1
    return packed, offsets, keep


def lcs_bits(s1, masks: dict, keep: int) -> int:
    """The final row of ``s1`` against the segments behind ``masks``: a set
    bit marks a column of its segment where the LCS does not step up, so a
    segment's LCS is its length minus its set bits. ``keep`` holds the
    segments' bits, with a 0 guard bit after each that no mask sets."""
    v = keep
    get = masks.get
    for tok in s1:
        u = v & get(tok, 0)
        if u:
            v = ((v + u) | (v - u)) & keep
    return v


def lcs_masked(s1, masks: dict, m: int) -> int:
    """LCS length of ``s1`` and the length-``m`` sequence behind ``masks``:
    ``lcs_bits`` with one segment."""
    return m - lcs_bits(s1, masks, (1 << m) - 1).bit_count()


def lcs_length(s1, s2) -> int:
    """Length of the LCS of two token sequences."""
    if not s1 or not s2:
        return 0
    return lcs_masked(s1, match_masks(s2), len(s2))
