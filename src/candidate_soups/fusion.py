"""Candidate fusion: assemble one output from the best parts of k candidates.

The pipeline dedups each candidate, re-scores it, partitions the set into
anchors and divergence regions, and then keeps, per region, the segment
whose score window has the highest mean.  A score window spans the segment
plus one bounding anchor token on each side (clamped at the sequence
edges), so segment quality is judged in context.  Regions are scored
independently of one another.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .alignment import Anchor, DivergenceRegion, partition
from .candidates import DEFAULT_SCORE_FLOOR, CandidateSet, record, validate
from .scoring import Scorer, SelfScorer, rescore_set


class RegionChoice(record("RegionChoice", "region_index chosen segment_scores chosen_tokens")):
    """The decision made for one divergence region."""

    __slots__ = ()


class FusionResult(record("FusionResult", "tokens trace anchors_used")):
    """Fused token sequence plus the per-region decision trace."""

    __slots__ = ()


def _window(cand_scores: Sequence[float], start: int, end: int) -> Sequence[float]:
    # the segment plus one bounding anchor token on each side, clamped at the
    # sequence edges (slicing clamps the upper bound); never empty
    return cand_scores[start - 1 if start else 0 : end + 1]


def select_segment(
    region: DivergenceRegion,
    scores: Sequence[Sequence[float]],
    region_index: int = 0,
) -> RegionChoice:
    """Pick the candidate whose window mean is highest; ties go to the lowest index."""
    windows = map(_window, scores, region.start, region.end)
    segment_scores = tuple([math.fsum(w) / len(w) for w in windows])
    chosen = segment_scores.index(max(segment_scores))  # index() finds the first of any tie
    return RegionChoice(region_index, chosen, segment_scores, region.segments[chosen])


def candidate_soups(
    cset: CandidateSet,
    scorer: Scorer | None = None,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    dedup: bool = True,
) -> FusionResult:
    """Fuse a candidate set into a single token sequence.

    Validates the set, dedups and re-scores each candidate, partitions, and
    interleaves anchor tokens with the winning segment of every divergence
    region.  Deterministic given the set and scorer.  ``dedup=False`` skips
    duplicate removal (diagnostic only).
    """
    scorer = scorer if scorer is not None else SelfScorer()
    cset = validate(cset, score_floor)
    prepared = rescore_set(cset, scorer, dedup=dedup)
    part = partition(prepared)
    scores = [c.scores for c in prepared.candidates]

    tokens: list[str] = []
    trace: list[RegionChoice] = []
    anchors = 0
    for element in part.elements:
        if isinstance(element, Anchor):
            tokens.append(element.token)
            anchors += 1
        else:
            choice = select_segment(element, scores, region_index=len(trace))
            trace.append(choice)
            tokens.extend(choice.chosen_tokens)
    return FusionResult(tuple(tokens), tuple(trace), anchors)
