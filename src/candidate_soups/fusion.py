"""Candidate fusion: assemble one output from the best parts of k candidates.

The pipeline dedups each candidate, re-scores it, partitions the set into
anchors and divergence regions, and then keeps, per region, the segment
whose score window has the highest mean.  A score window spans the segment
plus one bounding anchor token on each side (clamped at the sequence
edges), so segment quality is judged in context.  Regions are scored
independently of one another.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import fsum

from .alignment import Anchor, DivergenceRegion, partition
from .candidates import DEFAULT_SCORE_FLOOR, CandidateSet, _new, record, validate
from .scoring import Scorer, SelfScorer, rescore_set


class RegionChoice(record("RegionChoice", "chosen segment_scores chosen_tokens")):
    """The decision made for one divergence region."""

    __slots__ = ()


class FusionResult(record("FusionResult", "tokens trace")):
    """Fused token sequence plus the per-region decision trace."""

    __slots__ = ()


def select_segment(region: DivergenceRegion, scores: Sequence[Sequence[float]]) -> RegionChoice:
    """Pick the candidate whose window mean is highest; ties go to the lowest index.

    A window is the segment plus one bounding anchor token on each side,
    clamped at the sequence edges (slicing clamps the upper bound); it is
    never empty.
    """
    means = []
    for s, a, b in zip(scores, region.start, region.end):
        window = s[a - 1 if a else 0 : b + 1]
        means.append(fsum(window) / len(window))
    segment_scores = tuple(means)
    chosen = segment_scores.index(max(segment_scores))  # index() finds the first of any tie
    return _new(RegionChoice, (chosen, segment_scores, region.segments[chosen]))


def candidate_soups(
    cset: CandidateSet,
    scorer: Scorer | None = None,
    score_floor: float = DEFAULT_SCORE_FLOOR,
) -> FusionResult:
    """Fuse a candidate set into a single token sequence.

    Validates the set, dedups and re-scores each candidate (``rescore_set``),
    partitions, and interleaves anchor tokens with the winning segment of
    every divergence region.  Deterministic given the set and scorer.
    """
    scorer = scorer if scorer is not None else SelfScorer()
    cset = validate(cset, score_floor)
    prepared = rescore_set(cset, scorer)
    part = partition(prepared)
    scores = [c.scores for c in prepared.candidates]

    tokens: list[str] = []
    trace: list[RegionChoice] = []
    for element in part.elements:
        if isinstance(element, Anchor):
            tokens.append(element.token)
        else:
            choice = select_segment(element, scores)
            trace.append(choice)
            tokens.extend(choice.chosen_tokens)
    return _new(FusionResult, (tuple(tokens), tuple(trace)))
