"""The fusion kernel against verbatim copies of its previous version.

``find_next_anchor`` ranks only the tokens common to windows that double
until one is found, and ``partition``, ``validate``, ``rescore_set`` and
``select_segment`` build their records without the record constructors.
These tests check that each returns equal records (compared by ``repr`` as
well, so an int where a float was shows), raises the same exception class
with the same message, and makes the same ``warn`` calls as the
``previous_*`` copies in ``helpers``.

Sets are small and repetitive: k 1-6, a vocabulary of 2-7 tokens and
lengths 1-30, so anchors, adjacent duplicates, frontiers that run out
before others, and rounds in which several tokens qualify at once are all
common.  Score values come from a short list, so equal window means (and
with them the lowest-index tie rule) occur too.  Such sets rarely need more
than the anchor search's first window, so one more test gives each of up to
10 candidates a run of its own tokens, up to 60 long, before the tokens they
share, and checks the search there against the seed's copy as well.
"""

from __future__ import annotations

import logging
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from candidate_soups import CandidateSet, ScoredCandidate, candidate_soups, train_ngram, validate
from candidate_soups.alignment import Anchor, find_next_anchor, partition
from candidate_soups.candidates import DEFAULT_SCORE_FLOOR
from candidate_soups.fusion import select_segment
from candidate_soups.scoring import NGramScorer, Scorer, SelfScorer, rescore_set
from helpers import (
    previous_find_next_anchor,
    previous_partition,
    previous_rescore_set,
    previous_select_segment,
    previous_validate,
    reference_find_next_anchor,
)

FLOOR = DEFAULT_SCORE_FLOOR
VOCAB = "abcdefg"
# few distinct values, so equal window means are common
TIED_SCORES = st.sampled_from([-0.5, -1.0, -2.0, -0.25, 0.0])
# NaN and positive scores are errors; -inf and values below a floor are clamped
ANY_SCORES = st.one_of(
    st.floats(min_value=-40.0, max_value=0.0),
    st.sampled_from([0.0, -0.0, FLOOR, -math.inf, math.nan, math.inf, 0.5, 1e-300, -31.0]),
)
# mostly valid tokens; Unicode whitespace, empty and non-string tokens are errors
ANY_TOKENS = st.sampled_from(
    ["a", "b", "c", "a", "b", "\u00e9", "", " ", "\u00a0", "\u2003", "\x1c", "x\ty", 7, None]
)


def ident(record) -> tuple:
    """A record's value and its repr, which tells a float from an equal int."""
    return record, repr(record)


@st.composite
def candidate_sets(draw, tokens=None, scores=TIED_SCORES, sources=False):
    vocab_size = draw(st.integers(min_value=2, max_value=7))
    token = tokens if tokens is not None else st.sampled_from(VOCAB[:vocab_size])
    k = draw(st.integers(min_value=1, max_value=6))
    cands = []
    for _ in range(k):
        n = draw(st.integers(min_value=1, max_value=30))
        toks = draw(st.lists(token, min_size=n, max_size=n))
        # with free tokens, now and then one score too many
        m = n + (tokens is not None and draw(st.integers(0, 15)) == 0)
        vals = draw(st.lists(scores, min_size=m, max_size=m))
        cands.append(ScoredCandidate(tuple(toks), tuple(vals)))
    source = None
    if sources and draw(st.booleans()):
        source = tuple(draw(st.lists(token, max_size=4)))
    return CandidateSet(draw(st.sampled_from(["p", "q r"])), tuple(cands), source)


def _set(*token_lists: str) -> CandidateSet:
    return CandidateSet(
        "e", tuple(ScoredCandidate(tuple(t), (-1.0,) * len(t)) for t in token_lists)
    )


# "a" and "b" qualify in the same round with the same total advance; the tie
# goes to "a", earlier in candidate 0
SAME_ROUND_TIE = _set("abx", "bay")
# "a" then "b" qualify in the same round; "b" advances less in total and wins
SAME_ROUND_ADVANCE = _set("xba", "yab", "baz")
# candidate 1 runs out after one token; its window stays live
EXHAUSTED_FRONTIER = _set("xyza", "a", "qqqqa")
# the only common token lies past four times the first window (the candidate
# count, 3), so the window doubles three times
FAR_ONLY_COMMON = _set("pqpqpqpqpqpqpqa", "rsrsrsrsrsrsrsa", "tutututututututa")
# "a" and "b" qualify in the same round, past twice the first window, with
# the same total advance; the tie goes to "a", earlier in candidate 0
FAR_SAME_ROUND_TIE = _set("xyzab", "uvwba")


@settings(max_examples=400, deadline=None)
@given(candidate_sets(), st.data())
@example(SAME_ROUND_TIE, None)
@example(SAME_ROUND_ADVANCE, None)
@example(EXHAUSTED_FRONTIER, None)
def test_find_next_anchor_matches_previous(cset, data):
    starts = [(0,) * len(cset)]
    if data is not None:
        # start vectors include pointers at (and only at) a candidate's end
        starts.append(tuple(
            data.draw(st.integers(min_value=0, max_value=len(c.tokens))) for c in cset.candidates
        ))
    for start in starts:
        want = previous_find_next_anchor(cset, start)
        assert ident(find_next_anchor(cset, start)) == ident(want)


def test_same_round_examples_pick_by_advance_then_candidate_zero():
    assert find_next_anchor(SAME_ROUND_TIE, (0, 0)).token == "a"
    assert tuple(find_next_anchor(SAME_ROUND_ADVANCE, (0, 0, 0))) == ("b", (1, 2, 0))
    assert find_next_anchor(EXHAUSTED_FRONTIER, (0, 0, 0)).positions == (3, 0, 4)
    assert tuple(find_next_anchor(FAR_ONLY_COMMON, (0, 0, 0))) == ("a", (14, 14, 15))
    assert tuple(find_next_anchor(FAR_SAME_ROUND_TIE, (0, 0))) == ("a", (3, 4))


@st.composite
def far_anchor_cases(draw):
    """A set whose common tokens lie past twice the first window, and a start.

    Candidate j opens with a run of its own tokens ("j0", "j1", "j2"), one
    candidate's run at least twice the candidate count, then draws from a
    few shared tokens; mostly one of them, "e", is in every candidate.
    Starts lie within the runs, so the anchor stays far; now and then one
    lies anywhere, up to the candidate's end.
    """
    k = draw(st.integers(min_value=1, max_value=10))
    far = draw(st.integers(min_value=0, max_value=k - 1))
    meet = draw(st.integers(0, 3)) > 0
    candidates, runs = [], []
    for j in range(k):
        run = draw(st.integers(min_value=2 * k if j == far else 0, max_value=58))
        shared = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=59 - run))
        if meet:
            shared.insert(draw(st.integers(min_value=0, max_value=len(shared))), "e")
        candidates.append([f"{j}{i % 3}" for i in range(run)] + shared)
        runs.append(run)
    ends = runs if draw(st.integers(0, 4)) else [len(c) for c in candidates]
    start = tuple(draw(st.integers(min_value=0, max_value=end)) for end in ends)
    if draw(st.booleans()):
        start = (0,) * k
    return _set(*candidates), start


@settings(max_examples=300, deadline=None)
@given(far_anchor_cases())
@example((_set(), ()))
@example((_set("ab", "ba"), (2, 0)))
@example((FAR_ONLY_COMMON, (0, 0, 0)))
@example((FAR_SAME_ROUND_TIE, (0, 0)))
def test_find_next_anchor_past_the_first_window_matches_previous_and_reference(case):
    cset, start = case
    got = ident(find_next_anchor(cset, start))
    assert got == ident(previous_find_next_anchor(cset, start))
    assert got == ident(reference_find_next_anchor(cset, start))


@settings(max_examples=400, deadline=None)
@given(candidate_sets())
@example(SAME_ROUND_TIE)
@example(SAME_ROUND_ADVANCE)
@example(EXHAUSTED_FRONTIER)
def test_partition_matches_previous(cset):
    got = partition(cset)
    assert ident(got) == ident(previous_partition(cset))
    assert partition(cset) is got  # the one-slot memo still answers a repeat


def outcome(fn, cset, floor, with_callback):
    """The result's repr, whether it is the input set itself, the exception
    class and message (or None), the ``warn`` calls and the logged warnings."""
    calls: list[str] = []
    records: list[logging.LogRecord] = []

    class Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    logger = logging.getLogger("candidate_soups")
    handler = Collect(level=logging.WARNING)
    logger.addHandler(handler)
    try:
        result = fn(cset, floor, calls.append if with_callback else None)
        error = None
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        result, error = None, (type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return repr(result), result is cset, error, calls, [r.getMessage() for r in records]


@settings(max_examples=500, deadline=None)
@given(
    candidate_sets(tokens=ANY_TOKENS, scores=ANY_SCORES, sources=True),
    st.sampled_from([FLOOR, -5.0, -5, -math.inf]),
    st.booleans(),
)
@example(_set("ab", "c "), FLOOR, True)
@example(_set("ab", "\x1c"), FLOOR, False)
def test_validate_matches_previous(cset, floor, with_callback):
    got = outcome(validate, cset, floor, with_callback)
    assert got == outcome(previous_validate, cset, floor, with_callback)


class ListScorer(Scorer):
    def rescore(self, source, candidate):
        return [s / 2 for s in candidate.scores]


class IntScorer(Scorer):
    def rescore(self, source, candidate):
        return [-(i % 3) for i in range(len(candidate.tokens))]


class IntTupleScorer(Scorer):
    def rescore(self, source, candidate):
        return tuple(-1 for _ in candidate.tokens)


class ShortScorer(Scorer):
    def rescore(self, source, candidate):
        return candidate.scores[1:]


NGRAM = NGramScorer(train_ngram([list("abcab"), list("bcd"), list("aab")], n=2, alpha=0.5))
SCORERS = [SelfScorer(), ListScorer(), IntScorer(), IntTupleScorer(), ShortScorer(), NGRAM]


@settings(max_examples=300, deadline=None)
@given(candidate_sets(), st.sampled_from(SCORERS))
def test_rescore_set_matches_previous(cset, scorer):
    results = []
    for fn in (rescore_set, previous_rescore_set):
        try:
            results.append((ident(fn(cset, scorer)), None))
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            results.append((None, (type(exc), str(exc))))
    assert results[0] == results[1]


@settings(max_examples=300, deadline=None)
@given(candidate_sets(), st.booleans())
def test_select_segment_matches_previous(cset, as_lists):
    prepared = rescore_set(cset, SelfScorer())
    scores = [list(c.scores) if as_lists else c.scores for c in prepared.candidates]
    for region in partition(prepared).regions():
        got = select_segment(region, scores)
        assert ident(got) == ident(previous_select_segment(region, scores))


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_fusion_matches_previous_kernel(cset):
    prepared = previous_rescore_set(previous_validate(cset), SelfScorer())
    scores = [c.scores for c in prepared.candidates]
    tokens, trace = [], []
    for element in previous_partition(prepared).elements:
        if isinstance(element, Anchor):
            tokens.append(element.token)
        else:
            trace.append(previous_select_segment(element, scores))
            tokens.extend(trace[-1].chosen_tokens)
    got = candidate_soups(cset)
    assert got.tokens == tuple(tokens)
    assert ident(got.trace) == ident(tuple(trace))
