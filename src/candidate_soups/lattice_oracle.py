"""Simplified lattice construction and an independent best-path oracle.

The lattice is the exhaustive view of the same search space the greedy
fusion walks: anchor nodes joined by groups of per-candidate segment
branches.  A path's score is the sum of its branches' window means, and
each mean depends only on the branch taken in its own region.  The
objective is separable, so the Viterbi recursion over the lattice
collapses to an argmax per region group: ``oracle_best`` costs
O(regions x k) however many paths there are, and since no totals are
summed, comparing two float means is exact.  Window means are computed
here from scratch rather than shared with the fusion module, so a slicing
bug on either side shows up as a mismatch.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Union

from .alignment import Anchor, partition
from .candidates import CandidateSet, record


class AnchorNode(record("AnchorNode", "token")):
    __slots__ = ()


class LatticeBranch(record("LatticeBranch", "candidate tokens score")):
    """One candidate's segment through a region, with its window-mean score."""

    __slots__ = ()


class RegionGroup(record("RegionGroup", "branches")):
    """All candidate branches spanning one divergence region."""

    __slots__ = ()


LatticeElement = Union[AnchorNode, RegionGroup]


class SimplifiedLattice(record("SimplifiedLattice", "elements")):
    """Anchor nodes alternating with region groups; every path is a fusion."""

    __slots__ = ()

    def region_groups(self) -> list[RegionGroup]:
        return [el for el in self.elements if isinstance(el, RegionGroup)]


def _window_mean(scores: tuple[float, ...], start: int, end: int) -> float:
    # fsum keeps the mean bit-identical to the fusion side for equal windows,
    # so exact ties break the same way in both searches.
    lo = start - 1 if start > 0 else 0
    hi = end + 1 if end + 1 < len(scores) else len(scores)
    return math.fsum(scores[lo:hi]) / (hi - lo)


def build_lattice(cset: CandidateSet) -> SimplifiedLattice:
    """Build the node-fused lattice of a validated, deduped candidate set.

    Elements mirror the partition one-to-one; branch j of each region group
    carries candidate j's segment and its window-mean score under the set's
    stored scores.
    """
    part = partition(cset)
    scores = [c.scores for c in cset.candidates]
    elements: list[LatticeElement] = []
    for element in part.elements:
        if isinstance(element, Anchor):
            elements.append(AnchorNode(element.token))
        else:
            branches = tuple(
                LatticeBranch(
                    j,
                    element.segments[j],
                    _window_mean(scores[j], element.start[j], element.end[j]),
                )
                for j in range(len(element.segments))
            )
            elements.append(RegionGroup(branches))
    return SimplifiedLattice(tuple(elements))


def path_count(lattice: SimplifiedLattice) -> int:
    """Number of distinct paths: the product of per-region distinct branch counts."""
    return math.prod(
        len({b.tokens for b in group.branches}) for group in lattice.region_groups()
    )


def oracle_best(lattice: SimplifiedLattice) -> tuple[str, ...]:
    """The path maximizing the sum of branch scores, found region by region.

    Each region keeps its highest-scoring branch, and ``max`` keeps the
    first of equal maxima: the lowest candidate index, which is the greedy
    fusion's tie rule and the lexicographically first optimal path.
    """
    best = attrgetter("score")
    out: list[str] = []
    for element in lattice.elements:
        if isinstance(element, AnchorNode):
            out.append(element.token)
        else:
            out.extend(max(element.branches, key=best).tokens)
    return tuple(out)
