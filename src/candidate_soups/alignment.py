"""Common-subsequence anchoring of candidate sets.

Candidates are traversed with one pointer each.  Tokens on which every
candidate agrees (in order) become anchors; the stretches between anchors
become divergence regions holding one segment per candidate.  The anchor
search is greedy: all frontiers advance in lockstep, one position per round,
until some token has been seen in every candidate's window.  This keeps the
regions small, which preserves as many anchors as possible.

The search is deliberately greedy, not an optimal longest-common-subsequence
computation.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from operator import add, getitem

from .candidates import CandidateSet, _new, record

PointerVector = tuple[int, ...]

_END = object()  # stands past the last token of a candidate

# (token sequences, partition) of the last set partitioned; replaced whole
_last_partition: tuple[tuple[tuple[str, ...], ...], AlignedPartition] | None = None


class Anchor(record("Anchor", "token positions")):
    """A token every candidate predicts, with its position in each candidate."""

    __slots__ = ()


class DivergenceRegion(record("DivergenceRegion", "start end segments")):
    """A span between anchors on which candidates disagree.

    ``segments[j]`` holds candidate j's tokens over the half-open window
    ``[start[j], end[j])``; it may be empty.
    """

    __slots__ = ()


PartitionElement = Anchor | DivergenceRegion


class AlignedPartition(record("AlignedPartition", "elements")):
    """Ordered alternation of anchors and divergence regions.

    Consecutive anchors may occur; consecutive regions never do.  For every
    candidate, concatenating anchor tokens and that candidate's segments in
    element order reproduces the candidate exactly.
    """

    __slots__ = ()

    def anchors(self) -> Iterator[Anchor]:
        return (el for el in self.elements if isinstance(el, Anchor))

    def regions(self) -> Iterator[DivergenceRegion]:
        return (el for el in self.elements if isinstance(el, DivergenceRegion))


def find_next_anchor(cset: CandidateSet, start: PointerVector) -> Anchor | None:
    """Find the next token common to every candidate at or after ``start``, or None.

    Specified as lockstep rounds: all frontiers advance one position per
    round, and any token then in every candidate's window so far qualifies,
    at its earliest position in each.  Ties within a round go to the least
    total advance, then the earliest in candidate 0.  A frontier at its
    candidate's end stops, but its window stays live.

    The rounds are not run: a token qualifies in the round of its largest
    advance, so the winner is the common token with the least (largest
    advance, total advance, advance in candidate 0).  Tokens in every window
    ``s[p:p + w]`` beat all others, so only they are ranked; ``w`` starts at
    the candidate count and doubles while none is common, so the cost
    follows the distance to the anchor, not the length of the tails.
    """
    seqs = [c.tokens for c in cset.candidates]
    width = len(seqs)
    while width:  # a set without candidates has no common token
        windows = [s[p:p + width] for s, p in zip(seqs, start)]
        common = set(windows[-1]).intersection(*windows[:-1])
        if len(common) == 1:
            token = common.pop()
            return _new(Anchor, (token, tuple(map(tuple.index, seqs, repeat(token), start))))
        if common:
            # window offsets are advances, and candidate 0's differ between tokens, so keys never
            # tie; taken in candidate 0's order, past the best largest advance no token can win
            first = windows[0]
            best = (width,)  # every advance is below the width
            for offset in sorted(map(first.index, common)):
                if offset > best[0]:
                    break
                advances = tuple(map(tuple.index, windows, repeat(first[offset])))
                key = (max(advances), sum(advances), advances)
                if key < best:
                    best = key
            advances = best[2]
            return _new(Anchor, (first[advances[0]], tuple(map(add, start, advances))))
        # an empty tail shares no token; windows shorter than the width are whole tails
        if not all(windows) or max(map(len, windows)) < width:
            break
        width *= 2
    return None


def partition(cset: CandidateSet) -> AlignedPartition:
    """Split a (deduped) candidate set into anchors and divergence regions.

    While all pointers sit on the same token, anchors are emitted and every
    pointer advances by one.  Otherwise the region up to the next common
    token (or to the candidate ends when none exists) is emitted and the
    pointers jump there.  Terminates after at most the total token count of
    all candidates.

    The tokens are partition's only input, so the last set's token
    sequences and partition are kept in one slot: a set whose sequences
    equal them (compared, not hashed) gets the same partition back.  Within
    one record that is the repeat work: ``compare --sweep-k`` fuses the full
    set again for every k past its size, and ``fuse --oracle-check``
    partitions each set once for fusion and once in ``build_lattice``.
    Distinct records rarely share their tokens, so one slot catches these
    repeats, and a miss costs one tuple comparison.  The slot is one
    ``(tokens, partition)`` tuple, replaced whole, so a concurrent caller
    never reads the tokens of one set with the partition of another.
    """
    global _last_partition
    seqs = tuple([c.tokens for c in cset.candidates])
    last = _last_partition
    if last is not None and last[0] == seqs:
        return last[1]
    k = len(seqs)
    lens = tuple(len(s) for s in seqs)
    # a sentinel past each end is the head of an exhausted candidate
    padded = [s + (_END,) for s in seqs]
    pointers = (0,) * k
    elements: list[PartitionElement] = []
    append = elements.append

    while k:  # a set without candidates has no elements
        heads = list(map(getitem, padded, pointers))
        head = heads[0]
        if heads.count(head) == k:
            if head is _END:  # every pointer is at its candidate's end
                break
            append(_new(Anchor, (head, pointers)))
            pointers = tuple([p + 1 for p in pointers])
            continue
        nxt = find_next_anchor(cset, pointers)
        end = nxt.positions if nxt is not None else lens
        segments = tuple([s[a:b] for s, a, b in zip(seqs, pointers, end)])
        append(_new(DivergenceRegion, (pointers, end, segments)))
        pointers = end

    part = _new(AlignedPartition, (tuple(elements),))
    _last_partition = (seqs, part)
    return part
