"""The fusion kernel's entry points against the frozen copies in ``helpers``.

Each check here complements one in ``test_reference_equivalence``, whose
strategies, examples and comparisons it shares, so that no input shape is
checked twice: the anchor search from the zero start (the reference test
draws other starts), the partition of raw sets (the reference test takes
deduped ones), ``validate`` on sets whose tokens include Unicode
whitespace, empty and non-string tokens, where a candidate now and then has
one score too many (the reference test draws valid tokens), and
``candidate_soups`` against the pipeline composed of the function copies
(the reference test compares it with the seed's whole-pipeline copy).  The
copies are earlier versions of the kernel, hence the tests' names.

One relation needs no copy: renaming the tokens by a bijection renames the
fused output and leaves every region's choice and window means as they
were.  The new names hash differently, so the sets that the anchor search
ranks iterate in another order, and a result that hangs on that order
shows here in one process, whatever ``PYTHONHASHSEED`` is.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from candidate_soups import CandidateSet, ScoredCandidate, candidate_soups, validate
from candidate_soups.alignment import Anchor, find_next_anchor, partition
from candidate_soups.candidates import DEFAULT_SCORE_FLOOR
from candidate_soups.scoring import SelfScorer
from helpers import (
    reference_find_next_anchor,
    reference_partition,
    reference_rescore_set,
    reference_select_segment,
    reference_validate,
)
from test_reference_equivalence import (
    ANY_SCORES,
    ANY_TOKENS,
    EXHAUSTED_FRONTIER,
    FLOORS,
    SAME_ROUND_ADVANCE,
    SAME_ROUND_TIE,
    _set,
    candidate_sets,
    ident,
    many_common_cases,
    validate_outcome,
)

FLOOR = DEFAULT_SCORE_FLOOR


@settings(max_examples=400, deadline=None)
@given(candidate_sets())
@example(SAME_ROUND_TIE)
@example(SAME_ROUND_ADVANCE)
@example(EXHAUSTED_FRONTIER)
def test_find_next_anchor_matches_previous(cset):
    start = (0,) * len(cset)
    assert ident(find_next_anchor(cset, start)) == ident(reference_find_next_anchor(cset, start))


@settings(max_examples=400, deadline=None)
@given(candidate_sets())
@example(SAME_ROUND_TIE)
@example(SAME_ROUND_ADVANCE)
@example(EXHAUSTED_FRONTIER)
def test_partition_matches_previous(cset):
    got = partition(cset)
    assert ident(got) == ident(reference_partition(cset))
    assert partition(cset) is got  # the one-slot memo still answers a repeat


@settings(max_examples=500, deadline=None)
@given(candidate_sets(tokens=ANY_TOKENS, scores=ANY_SCORES, sources=True), FLOORS, st.booleans())
@example(_set("ab", "c "), FLOOR, True)
@example(_set("ab", "\x1c"), FLOOR, False)
def test_validate_matches_previous(cset, floor, with_callback):
    got = validate_outcome(validate, cset, floor, with_callback)
    assert got == validate_outcome(reference_validate, cset, floor, with_callback)


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_fusion_matches_previous_kernel(cset):
    prepared = reference_rescore_set(reference_validate(cset), SelfScorer())
    scores = [c.scores for c in prepared.candidates]
    tokens, trace = [], []
    for element in reference_partition(prepared).elements:
        if isinstance(element, Anchor):
            tokens.append(element.token)
        else:
            trace.append(reference_select_segment(element, scores))
            tokens.extend(trace[-1].chosen_tokens)
    got = candidate_soups(cset)
    assert got.tokens == tuple(tokens)
    assert ident(got.trace) == ident(tuple(trace))


@st.composite
def renamings(draw):
    """A set, from ``candidate_sets`` or ``many_common_cases``, and a bijection
    on its tokens: a permutation of them, each with one suffix appended."""
    cset = draw(candidate_sets() | many_common_cases().map(lambda case: case[0]))
    tokens = sorted({t for c in cset.candidates for t in c.tokens})
    suffix = draw(st.sampled_from(["", "'", "\u00e9", "0"]))
    return cset, dict(zip(tokens, [t + suffix for t in draw(st.permutations(tokens))]))


@settings(max_examples=300, deadline=None)
@given(renamings())
@example((SAME_ROUND_TIE, {"a": "b", "b": "a", "x": "x", "y": "y"}))
@example((SAME_ROUND_ADVANCE, {"a": "z'", "b": "y'", "x": "x'", "y": "b'", "z": "a'"}))
def test_fusion_commutes_with_token_renaming(case):
    cset, names = case
    rename = names.__getitem__
    renamed = CandidateSet(cset.id, tuple(
        ScoredCandidate(tuple(map(rename, c.tokens)), c.scores) for c in cset.candidates
    ))
    want, got = candidate_soups(cset), candidate_soups(renamed)
    assert got.tokens == tuple(map(rename, want.tokens))
    assert [(c.chosen, c.segment_scores) for c in got.trace] == [
        (c.chosen, c.segment_scores) for c in want.trace
    ]
