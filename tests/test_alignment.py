import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from candidate_soups import CandidateSet, ScoredCandidate, alignment
from candidate_soups.alignment import Anchor, DivergenceRegion, find_next_anchor, partition
from candidate_soups.candidates import remove_adjacent_duplicates
from helpers import (
    is_subsequence,
    lcs_length,
    random_candidate_set,
    three_way_set,
    cross_error_set,
)


def toks_only_set(*token_lists):
    return CandidateSet(
        "t",
        tuple(
            ScoredCandidate(tuple(toks), tuple(-0.1 for _ in toks)) for toks in token_lists
        ),
    )


def reconstruct(part, j):
    """Interleave anchor tokens and candidate j's segments in element order."""
    out = []
    for el in part.elements:
        if isinstance(el, Anchor):
            out.append(el.token)
        else:
            out.extend(el.segments[j])
    return tuple(out)


class TestFindNextAnchor:
    def test_three_way_anchor_after_shared_prefix(self):
        anchor = find_next_anchor(three_way_set(), (2, 2, 2))
        assert anchor is not None
        assert anchor.token == "extend"
        assert anchor.positions == (5, 6, 5)

    def test_identical_candidates_anchor_at_origin(self):
        cset = toks_only_set(["x", "y"], ["x", "y"], ["x", "y"])
        anchor = find_next_anchor(cset, (0, 0, 0))
        assert anchor == Anchor("x", (0, 0, 0))

    def test_disjoint_vocabularies_have_no_anchor(self):
        assert find_next_anchor(toks_only_set(["a", "b"], ["c", "d"]), (0, 0)) is None

    def test_minimal_total_advance_breaks_ties(self):
        # both "b" and "c" become common in the same round; "b" costs
        # 1+0 pointer steps against "c" at 0+1 is a tie on total, so the
        # earliest occurrence in candidate 0 decides
        cset = toks_only_set(["c", "b"], ["b", "c"])
        anchor = find_next_anchor(cset, (0, 0))
        assert anchor is not None
        assert anchor.token == "c"
        assert anchor.positions == (0, 1)

    def test_earliest_occurrence_within_window(self):
        cset = toks_only_set(["z", "a", "a"], ["q", "a", "a"])
        anchor = find_next_anchor(cset, (0, 0))
        assert anchor == Anchor("a", (1, 1))

    def test_total_advance_outranks_position_in_candidate_zero(self):
        # "x" and "y" both become common in round three; "x" costs 2+0
        # pointer steps against "y" at 1+2, so "x" wins even though "y"
        # occurs earlier in candidate 0
        cset = toks_only_set(["q", "y", "x"], ["x", "r", "y"])
        anchor = find_next_anchor(cset, (0, 0))
        assert anchor == Anchor("x", (2, 0))

    def test_anchor_can_sit_on_start_position(self):
        cset = toks_only_set(["a", "b"], ["b", "c"])
        anchor = find_next_anchor(cset, (0, 0))
        assert anchor == Anchor("b", (1, 0))

    def test_window_survives_candidate_exhaustion(self):
        # candidate 0 runs out while its window still holds "a"
        cset = toks_only_set(["a"], ["x", "y", "a"])
        anchor = find_next_anchor(cset, (0, 0))
        assert anchor == Anchor("a", (0, 2))


class TestPartition:
    def test_single_candidate_is_all_anchors(self):
        part = partition(toks_only_set(["a", "b", "c"]))
        assert [el.token for el in part.anchors()] == ["a", "b", "c"]
        assert list(part.regions()) == []

    def test_simple_middle_region(self):
        part = partition(toks_only_set(["a", "x", "b"], ["a", "y", "z", "b"]))
        assert [el.token for el in part.anchors()] == ["a", "b"]
        regions = list(part.regions())
        assert len(regions) == 1
        assert regions[0].segments == (("x",), ("y", "z"))
        # the greedy anchor chain here is also the optimal one
        assert lcs_length(("a", "x", "b"), ("a", "y", "z", "b")) == 2

    def test_cross_error_pair_partition(self):
        part = partition(cross_error_set())
        anchor_tokens = [el.token for el in part.anchors()]
        assert anchor_tokens == (
            "It often over a hundred dollars to obtain the identity card .".split()
        )
        regions = list(part.regions())
        assert [r.segments for r in regions] == [
            (("costs",), ("cost",)),
            (("require",), ("required",)),
        ]

    def test_three_way_anchor_sequence(self):
        part = partition(three_way_set())
        assert [el.token for el in part.anchors()] == [
            "The",
            "Republican",
            "extend",
            "States",
            ".",
        ]
        regions = list(part.regions())
        assert regions[0].segments == (
            ("authorities", "were", "quick"),
            ("authorities", "were", "quick", "to"),
            ("and", "the", "authority"),
        )
        assert regions[1].segments == (
            ("to", "other"),
            ("this", "practice"),
            ("this", "practice", "to", "other"),
        )

    def test_no_common_token_gives_one_terminal_region(self):
        part = partition(toks_only_set(["a", "b"], ["c", "d"]))
        assert list(part.anchors()) == []
        regions = list(part.regions())
        assert len(regions) == 1
        assert regions[0].segments == (("a", "b"), ("c", "d"))
        assert regions[0].end == (2, 2)

    def test_trailing_region_after_last_anchor(self):
        part = partition(toks_only_set(["a", "x"], ["a", "y", "z"]))
        regions = list(part.regions())
        assert len(regions) == 1
        assert regions[0].segments == (("x",), ("y", "z"))


def check_partition_invariants(cset):
    deduped = CandidateSet(
        cset.id, tuple(remove_adjacent_duplicates(c) for c in cset.candidates)
    )
    searches = []

    def counting(cset, start):
        searches.append(start)
        return find_next_anchor(cset, start)

    # a cleared memo slot, so that this call aligns the set and searches for its anchors
    with mock.patch.object(alignment, "find_next_anchor", counting), \
            mock.patch.object(alignment, "_last_partition", None):
        part = partition(deduped)
    k = len(deduped.candidates)
    lens = tuple(len(c) for c in deduped.candidates)

    assert len(part.elements) <= sum(lens)

    # the pointers are contiguous: each anchor sits at them, each region
    # starts at them, and the walk ends at the candidate lengths
    pointers = (0,) * k
    for el in part.elements:
        if isinstance(el, Anchor):
            assert el.positions == pointers
            pointers = tuple(p + 1 for p in pointers)
        else:
            assert el.start == pointers
            assert tuple(map(len, el.segments)) == tuple(
                e - s for s, e in zip(el.start, el.end)
            )
            pointers = el.end
    assert pointers == lens

    # the anchor search runs once per region, from where the region starts
    assert searches == [region.start for region in part.regions()]

    # reconstruction: anchors plus per-candidate segments reproduce each candidate
    for j in range(k):
        assert reconstruct(part, j) == deduped.candidates[j].tokens

    # anchors form a common subsequence, occur at the recorded positions,
    # and their positions strictly increase per candidate
    anchors = list(part.anchors())
    anchor_tokens = tuple(a.token for a in anchors)
    for j in range(k):
        assert is_subsequence(anchor_tokens, deduped.candidates[j].tokens)
        positions = [a.positions[j] for a in anchors]
        assert positions == sorted(set(positions))
        for a in anchors:
            assert deduped.candidates[j].tokens[a.positions[j]] == a.token

    # no two regions are adjacent; each region differs in at least two segments
    for left, right in zip(part.elements, part.elements[1:]):
        assert not (
            isinstance(left, DivergenceRegion) and isinstance(right, DivergenceRegion)
        )
    for region in part.regions():
        assert all(s <= e for s, e in zip(region.start, region.end))
        assert len(set(region.segments)) > 1
    return part


def test_partition_invariants_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        check_partition_invariants(random_candidate_set(rng))


@st.composite
def candidate_sets(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    cands = []
    for _ in range(k):
        tokens = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=10))
        cands.append(ScoredCandidate(tuple(tokens), tuple(-0.5 for _ in tokens)))
    return CandidateSet("h", tuple(cands))


@settings(max_examples=200)
@given(candidate_sets())
def test_partition_invariants_hypothesis(cset):
    check_partition_invariants(cset)


@settings(max_examples=100)
@given(candidate_sets(), st.randoms(use_true_random=False))
def test_candidate_order_only_permutes_segments(cset, rng):
    """Permuting candidates permutes segments; anchors move with tie-breaks only."""
    deduped = tuple(remove_adjacent_duplicates(c) for c in cset.candidates)
    base = partition(CandidateSet("p", deduped))
    order = list(range(len(deduped)))
    rng.shuffle(order)
    permuted = partition(CandidateSet("p", tuple(deduped[j] for j in order)))
    base_anchors = [a.token for a in base.anchors()]
    permuted_anchors = [a.token for a in permuted.anchors()]
    # anchor choice can differ only through tie-breaking; when the anchor
    # streams agree, every region's segments must be the base segments
    # re-ordered by the permutation
    if base_anchors == permuted_anchors:
        for base_region, permuted_region in zip(base.regions(), permuted.regions()):
            assert permuted_region.segments == tuple(
                base_region.segments[j] for j in order
            )
