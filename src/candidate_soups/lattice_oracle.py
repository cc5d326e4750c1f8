"""Simplified lattice construction and an independent best-path oracle.

The lattice is the exhaustive view of the same search space the greedy
fusion walks: the set's partition, whose anchors are the lattice's nodes
and whose divergence regions each hold one branch per candidate, plus one
row of window means per region, ``means[r][j]`` being the score of
candidate j's branch through region r.  ``build_lattice`` makes one pass
over the partition's elements and builds each region's row inline.  A
path's score is the sum of its branches' means, and each mean depends only
on the branch taken in its own region.  The objective is separable, so the
Viterbi recursion over the lattice collapses to an argmax per region:
``oracle_best`` costs O(regions x k) however many paths there are, and
since no totals are summed, comparing two float means is exact.  Window
means are computed here from scratch rather than shared with the fusion
module, with their own clamped bounds, so a slicing bug on either side
shows up as a mismatch.
"""

from __future__ import annotations

import math

from .alignment import Anchor, DivergenceRegion, partition
from .candidates import CandidateSet, _new, record


class SimplifiedLattice(record("SimplifiedLattice", "partition means")):
    """A partition plus, per divergence region, each candidate's window mean."""

    __slots__ = ()


def build_lattice(cset: CandidateSet) -> SimplifiedLattice:
    """Build the node-fused lattice of a validated, deduped candidate set.

    One pass over the partition's elements: for each divergence region r,
    ``means[r][j]`` is candidate j's window mean under the set's stored
    scores, its window being the segment plus one bounding anchor token on
    each side, both bounds clamped to the candidate's length.
    """
    part = partition(cset)
    scores = [c.scores for c in cset.candidates]
    means = []
    for element in part.elements:
        if type(element) is DivergenceRegion:
            row = []
            for s, a, b in zip(scores, element.start, element.end):
                lo = a - 1 if a > 0 else 0
                hi = b + 1 if b + 1 < len(s) else len(s)
                # fsum keeps the mean bit-identical to the fusion side for equal
                # windows, so exact ties break the same way in both searches.
                row.append(math.fsum(s[lo:hi]) / (hi - lo))
            means.append(tuple(row))
    return _new(SimplifiedLattice, (part, tuple(means)))


def path_count(lattice: SimplifiedLattice) -> int:
    """Number of distinct paths: the product of per-region distinct branch counts."""
    return math.prod(len(set(region.segments)) for region in lattice.partition.regions())


def oracle_best(lattice: SimplifiedLattice) -> tuple[str, ...]:
    """The path maximizing the sum of branch scores, found region by region.

    Each region keeps its highest-scoring branch, and ``index`` finds the
    first of equal maxima: the lowest candidate index, which is the greedy
    fusion's tie rule and the lexicographically first optimal path.
    """
    rows = iter(lattice.means)
    out: list[str] = []
    for element in lattice.partition.elements:
        if type(element) is Anchor:
            out.append(element.token)
        else:
            row = next(rows)
            out.extend(element.segments[row.index(max(row))])
    return tuple(out)
