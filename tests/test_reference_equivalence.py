"""The optimized kernel against one frozen reference copy per function.

Each test checks that the library returns equal records (compared by
``repr`` as well, so an int where a float was shows), raises the same
exception class with the same message, makes the same ``warn`` calls, logs
the same warnings, and returns its input itself exactly when the
``reference_*`` copy in ``helpers`` does.

``candidate_sets`` draws small, repetitive sets: a vocabulary of 2-7 tokens,
k 1-7 and lengths 1-30, so anchors, adjacent duplicates, frontiers that run
out before others, and rounds in which several tokens qualify at once are
all common.  Each set takes its scores either from a short list, so equal
window means (and with them the lowest-index tie rule) occur, or from
[-40, 0] plus 0.0, -0.0, the floor and -inf, so clamping occurs.  Ids are
"p" and "q r".  ``validate`` gets two kinds of set: these, and these with
NaN and positive scores too; either may have a source.  Such sets rarely
need more than the anchor search's first window, so ``far_anchor_cases``
gives each of up to 10 candidates a run of its own tokens, up to 60 long,
before the tokens they share, and ``many_common_cases`` gives 2-4
candidates the same 17-64 distinct tokens in different orders, so the
search ranks more than 16 common tokens (an ``event`` counts how often).

The n-gram scorer and BLEU counting are checked the same way: small
vocabularies, so that contexts repeat and clipping is common, plus tokens
and contexts never seen.  The partition memo is checked with call sequences
that repeat inputs among near misses (equal tokens under other ids and
scores), and under threads; BLEU counting with one hypothesis against other
references and into other accumulators, and through one ``Reference`` per
record as ``cds compare`` uses it.

``test_kernel_equivalence`` shares these strategies and checks what this
module leaves to it: the anchor search from the zero start, the partition
of raw sets, ``validate`` on sets with invalid tokens, and the pipeline
composed of the function copies.
"""

from __future__ import annotations

import logging
import math
import os
import random
import sys
import tempfile
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import helpers
from candidate_soups import (
    BleuAccumulator,
    CandidateSet,
    ScoredCandidate,
    candidate_soups,
    train_ngram,
    validate,
)
from candidate_soups.alignment import find_next_anchor, partition
from candidate_soups.bleu import Reference
from candidate_soups.candidates import DEFAULT_SCORE_FLOOR, remove_adjacent_duplicates
from candidate_soups.cli import _truncated
from candidate_soups.errors import EmptyCandidate, InvalidToken, LengthMismatch, PositiveScore
from candidate_soups.fusion import select_segment
from candidate_soups.ngram import (
    END_SYMBOL,
    START_SYMBOL,
    NGramScorer,
    load_ngram,
    ngram_score,
    save_ngram,
)
from candidate_soups.scoring import Scorer, SelfScorer, rescore_set
from helpers import (
    random_candidate_set,
    reference_bleu_add,
    reference_candidate_soups,
    reference_find_next_anchor,
    reference_ngram_score,
    reference_partition,
    reference_remove_adjacent_duplicates,
    reference_rescore_set,
    reference_select_segment,
    reference_validate,
)
from test_bleu import CLIP_CASES

FLOOR = DEFAULT_SCORE_FLOOR
VOCAB = "abcdefg"
# few distinct values, so equal window means are common
TIED_SCORES = st.sampled_from([-0.5, -1.0, -2.0, -0.25, 0.0])
# valid scores; -inf and values below a floor are clamped
SCORES = st.one_of(
    st.floats(min_value=-40.0, max_value=0.0),
    st.sampled_from([0.0, -0.0, FLOOR, -math.inf]),
)
# NaN and positive scores are errors
ANY_SCORES = st.one_of(
    st.floats(min_value=-40.0, max_value=0.0),
    st.sampled_from([0.0, -0.0, FLOOR, -math.inf, math.nan, math.inf, 0.5, 1e-300, -31.0]),
)
# mostly valid tokens; whitespace (Unicode included), empty and non-string tokens are errors
ANY_TOKENS = st.sampled_from([
    "a", "b", "c", "a", "b", "\u00e9", "", " ", "\u00a0", "\u2003", "\x1c", "x\ty", 7, None,
    "a b", "c\td", "e ",
])


def ident(record) -> tuple:
    """A record's value and its repr, which tells a float from an equal int."""
    return record, repr(record)


@st.composite
def candidate_sets(draw, tokens=None, scores=None, sources=False):
    vocab = VOCAB[: draw(st.integers(min_value=2, max_value=7))]

    def token_seq(min_size, max_size):
        if tokens is None:  # one-character tokens: a string draws faster than a list
            return tuple(draw(st.text(vocab, min_size=min_size, max_size=max_size)))
        return tuple(draw(st.lists(tokens, min_size=min_size, max_size=max_size)))

    if scores is None:
        scores = draw(st.sampled_from([TIED_SCORES, SCORES]))
    k = draw(st.integers(min_value=1, max_value=7))
    cands = []
    for _ in range(k):
        n = draw(st.integers(min_value=1, max_value=30))
        toks = token_seq(n, n)
        # with free tokens, now and then one score too many
        m = n + (tokens is not None and draw(st.integers(0, 15)) == 0)
        vals = draw(st.lists(scores, min_size=m, max_size=m))
        cands.append(ScoredCandidate(toks, vals))
    source = token_seq(0, 4) if sources and draw(st.booleans()) else None
    return CandidateSet(draw(st.sampled_from(["p", "q r"])), tuple(cands), source)


@contextmanager
def captured_warnings():
    records: list[logging.LogRecord] = []

    class Collect(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            records.append(record)

    logger = logging.getLogger("candidate_soups")
    handler = Collect(level=logging.WARNING)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def outcome(fn, *args):
    """The result's ``ident`` (None's after an exception), whether the result
    is the first argument itself, the exception class and message (or None),
    and the logged warnings."""
    with captured_warnings() as records:
        try:
            result, error = fn(*args), None
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            result, error = None, (type(exc), str(exc))
    return ident(result), result is args[0], error, [r.getMessage() for r in records]


def test_one_frozen_reference_per_kernel_function():
    kernel = (
        "find_next_anchor",
        "partition",
        "remove_adjacent_duplicates",
        "validate",
        "rescore_set",
        "select_segment",
        "candidate_soups",
        "oracle_best",
        "ngram_score",
        "bleu_add",
    )
    names = vars(helpers)
    assert {n for n in names if n.startswith("reference_")} == {f"reference_{f}" for f in kernel}
    assert [n for n in names if "previous" in n.lower()] == []


# --- the anchor search and the partition ------------------------------------------


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
def test_find_next_anchor_matches_reference(cset, data):
    # start vectors include pointers at (and only at) a candidate's end; the
    # zero start is test_kernel_equivalence's
    start = tuple(
        data.draw(st.integers(min_value=0, max_value=len(c.tokens))) for c in cset.candidates
    )
    assert ident(find_next_anchor(cset, start)) == ident(reference_find_next_anchor(cset, start))


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
def test_find_next_anchor_past_the_first_window_matches_reference(case):
    cset, start = case
    assert ident(find_next_anchor(cset, start)) == ident(reference_find_next_anchor(cset, start))


@st.composite
def many_common_cases(draw):
    """A set of 2-4 orders of the same 17-64 distinct tokens, and a start.

    Candidate 0 holds the tokens in order; each other candidate holds them
    reversed, with its halves swapped, or shuffled.  The first windows that
    share a token then often share more than 16, far apart: the shape whose
    ranking costs O(k * w^2).  Starts lie in the first eighth.
    """
    n = draw(st.integers(min_value=17, max_value=64))
    tokens = [f"t{i}" for i in range(n)]
    orders = st.sampled_from([tokens[::-1], tokens[n // 2:] + tokens[: n // 2]])
    orders |= st.permutations(tokens)
    k = draw(st.integers(min_value=2, max_value=4))
    candidates = [tokens] + [draw(orders) for _ in range(k - 1)]
    start = tuple(draw(st.integers(min_value=0, max_value=n // 8)) for _ in range(k))
    return _set(*candidates), start


def _ranked_tokens(cset: CandidateSet, start: tuple[int, ...]) -> set[str]:
    """The common tokens of the first windows ``s[p:p + w]`` (``w`` doubling from
    the candidate count) that share one: the tokens ``find_next_anchor`` ranks."""
    seqs = [c.tokens for c in cset.candidates]
    width = len(seqs)
    while True:
        common = set.intersection(*(set(s[p:p + width]) for s, p in zip(seqs, start)))
        if common or width >= max(map(len, seqs)):
            return common
        width *= 2


@settings(max_examples=200, deadline=None)
@given(many_common_cases())
@example((_set([f"t{i}" for i in range(40)], [f"t{i}" for i in range(40)][::-1]), (0, 0)))
def test_find_next_anchor_with_many_common_tokens_matches_reference(case):
    cset, start = case
    if len(_ranked_tokens(cset, start)) > 16:
        event("more than 16 common tokens ranked")
    assert ident(find_next_anchor(cset, start)) == ident(reference_find_next_anchor(cset, start))


@settings(max_examples=400, deadline=None)
@given(candidate_sets())
def test_partition_matches_reference(cset):
    # the deduped set, as fusion partitions it; the raw set is test_kernel_equivalence's
    deduped = CandidateSet(cset.id, tuple(map(remove_adjacent_duplicates, cset.candidates)))
    got = partition(deduped)
    assert ident(got) == ident(reference_partition(deduped))
    assert partition(deduped) is got  # the one-slot memo still answers a repeat


# --- dedup, validation and rescoring -------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_dedup_matches_reference(cset):
    for cand in cset.candidates:
        got = outcome(remove_adjacent_duplicates, cand)
        assert got == outcome(reference_remove_adjacent_duplicates, cand)


# almost every set with invalid tokens fails on one, so valid sets, clamped or
# passed through, and sets that fail only on a score are drawn apart; sets with
# invalid tokens are test_kernel_equivalence's
VALID_TOKEN_SETS = st.one_of(
    candidate_sets(sources=True),
    candidate_sets(scores=ANY_SCORES, sources=True),
)
FLOORS = st.sampled_from([FLOOR, -5.0, -5, -math.inf])


def validate_outcome(fn, cset, floor, with_callback):
    """``outcome`` of ``fn(cset, floor, warn)`` and the ``warn`` calls."""
    calls: list[str] = []
    return outcome(fn, cset, floor, calls.append if with_callback else None), calls


@settings(max_examples=500, deadline=None)
@given(VALID_TOKEN_SETS, FLOORS, st.booleans())
def test_validate_matches_reference(cset, floor, with_callback):
    got = validate_outcome(validate, cset, floor, with_callback)
    assert got == validate_outcome(reference_validate, cset, floor, with_callback)


def _single(tokens, scores, source=None):
    return CandidateSet("e", (ScoredCandidate(tuple(tokens), tuple(scores)),), source)


@pytest.mark.parametrize(
    "cset, error",
    [
        (_single(["a", ""], [-1.0, -1.0]), InvalidToken),
        (_single(["a", "x y"], [-1.0, -1.0]), InvalidToken),
        (_single(["a", "x\ty"], [-1.0, -1.0]), InvalidToken),
        (_single(["a", "x\u00a0y"], [-1.0, -1.0]), InvalidToken),
        (_single(["a", "x\u2003y"], [-1.0, -1.0]), InvalidToken),
        (_single(["a", "x\x1cy"], [-1.0, -1.0]), InvalidToken),
        (_single(["", "a b"], [-1.0, -1.0]), InvalidToken),  # joins and splits to ["a", "b"]
        (_single(["a", 3], [-1.0, -1.0]), InvalidToken),
        (_single(["a", None], [-1.0, -1.0]), InvalidToken),
        (_single(["a"], [-1.0], source=["s", "t u"]), InvalidToken),
        (_single(["a", "b"], [-1.0, math.nan]), PositiveScore),
        (_single(["a", "b"], [-1.0, math.inf]), PositiveScore),
        (_single(["a", "b"], [-1.0, 1e-300]), PositiveScore),
        (_single([], []), EmptyCandidate),
        (_single(["a", "b"], [-1.0]), LengthMismatch),
    ],
)
def test_validate_rejects_like_reference(cset, error):
    with pytest.raises(error) as got:
        validate(cset)
    with pytest.raises(error) as want:
        reference_validate(cset)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "scores, clamped",
    [([-math.inf, -1.0], 1), ([-31.0, -45.0, -1.0], 2), ([-math.inf, -30.5, -math.inf], 3)],
)
def test_validate_clamps_with_one_counted_warning(scores, clamped):
    cset = _single("abc"[: len(scores)], scores)
    with captured_warnings() as records:
        out = validate(cset)
    assert [r.getMessage() for r in records] == [
        f"clamped {clamped} score(s) below {FLOOR} in candidate set 'e'"
    ]
    assert all(s >= FLOOR for s in out.candidates[0].scores)
    assert out == reference_validate(cset)


@pytest.mark.parametrize("scores", [[-0.0, -1.0], [FLOOR, -0.0], [FLOOR, FLOOR]])
def test_validate_passes_boundary_scores_without_warning(scores):
    cset = _single(["a", "b"], scores)
    with captured_warnings() as records:
        out = validate(cset)
    assert records == []
    assert out is cset


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
@given(candidate_sets(sources=True), st.sampled_from(SCORERS))
def test_rescore_set_matches_reference(cset, scorer):
    assert outcome(rescore_set, cset, scorer) == outcome(reference_rescore_set, cset, scorer)


@settings(max_examples=300, deadline=None)
@given(candidate_sets(sources=True), st.sampled_from([SelfScorer(), NGRAM]), st.integers(1, 9))
def test_rescoring_a_prefix_gives_the_prefix_of_the_rescored_set(cset, scorer, k):
    # dedup and rescoring act on each candidate alone, so cds compare rescores
    # a record once and cuts that set for every --sweep-k row
    cset = validate(cset, FLOOR, lambda message: None)
    got = rescore_set(_truncated(cset, k), scorer)
    assert ident(got) == ident(_truncated(rescore_set(cset, scorer), k))


# --- region selection and the whole pipeline ---------------------------------------


@settings(max_examples=300, deadline=None)
@given(candidate_sets(), st.booleans())
def test_select_segment_matches_reference(cset, as_lists):
    prepared = rescore_set(cset, SelfScorer())
    scores = [list(c.scores) if as_lists else c.scores for c in prepared.candidates]
    for region in partition(prepared).regions():
        got = select_segment(region, scores)
        assert ident(got) == ident(reference_select_segment(region, scores))


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_candidate_soups_matches_reference_pipeline(cset):
    got = outcome(candidate_soups, cset)
    assert got == outcome(reference_candidate_soups, cset)
    fused = got[0][0]
    deduped = CandidateSet(
        cset.id, tuple(map(reference_remove_adjacent_duplicates, cset.candidates))
    )
    anchors = len(list(reference_partition(deduped).anchors()))
    assert len(fused.tokens) == anchors + sum(len(choice.chosen_tokens) for choice in fused.trace)


# --- n-gram scoring and BLEU counting ------------------------------------------

TRAIN_TOKENS = st.sampled_from("abcd")
# "e" and "f" are never trained; boundary symbols may appear as plain tokens
QUERY_TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "f", START_SYMBOL, END_SYMBOL])


@settings(max_examples=300, deadline=None)
@given(
    corpus=st.lists(st.lists(TRAIN_TOKENS, max_size=8), min_size=1, max_size=6),
    order=st.integers(min_value=1, max_value=4),
    alpha=st.sampled_from([1e-6, 0.01, 0.1, 1.0, 7.5]),
    queries=st.lists(st.lists(QUERY_TOKENS, max_size=12), min_size=1, max_size=5),
    floor=st.sampled_from([FLOOR, -8.0, -2.0, -0.5]),
)
def test_ngram_score_matches_reference(corpus, order, alpha, queries, floor):
    # a tiny alpha pushes unseen events below every floor tried, so clamping occurs
    model = train_ngram(corpus, n=order, alpha=alpha)
    for tokens in queries:
        want = reference_ngram_score(model, tokens, floor)
        assert ngram_score(model, tokens, floor) == want  # bit-identical floats
        assert ngram_score(model, tuple(tokens), floor) == want


@settings(max_examples=300, deadline=None)
@given(
    corpus=st.lists(st.lists(TRAIN_TOKENS, max_size=8), min_size=1, max_size=6),
    order=st.integers(min_value=1, max_value=4),
    alpha=st.sampled_from([1e-6, 0.01, 0.1, 1.0, 7.5]),
)
def test_ngram_log_table_matches_probability(corpus, order, alpha):
    # the whole table, not only the entries that queries reach; floats compare
    # with ==, which for these finite, nonzero logs is bit-identity
    model = train_ngram(corpus, n=order, alpha=alpha)
    assert model.log_probs.keys() == model.counts.keys()
    for context, (by_token, unknown) in model.log_probs.items():
        assert by_token.keys() == model.counts[context].keys()
        for token, logp in by_token.items():
            assert logp == math.log(model.probability(context, token))
        assert unknown == math.log(model.probability(context, "<unk>"))
    if order >= 2:
        never = ("never",) * (order - 1)
        assert model.unseen == ({}, math.log(model.probability(never, "<unk>")))
        for token in ["a", "e", START_SYMBOL, END_SYMBOL]:
            *_, score = ngram_score(model, [*never, token], score_floor=-math.inf)
            assert score == math.log(model.probability(never, token))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "m.ngram")
        save_ngram(model, path)
        assert load_ngram(path) == model


def test_ngram_score_floor_clamp_case_is_covered():
    # unseen token in a seen context: log(1e-6 / ...) is clamped; the unseen
    # context that follows spreads its mass evenly, log(1/4), and is kept
    model = train_ngram([["a", "b"]], n=3, alpha=1e-6)
    got = ngram_score(model, ["z", "a"], score_floor=-2.0)
    assert got[0] == -2.0 and got[1] == math.log(1 / 4)
    assert got == reference_ngram_score(model, ["z", "a"], score_floor=-2.0)


BLEU_TOKENS = st.sampled_from("xyz")  # three types: repeated n-grams, frequent clipping


def clip_case_examples(test):
    """``test_bleu``'s hand-computed clip cases, one example each."""
    for case in CLIP_CASES:
        hypothesis, reference, _ = case.values
        test = example(pairs=[(hypothesis.split(), reference.split(), 1, True)])(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.lists(BLEU_TOKENS, max_size=9),  # empty and shorter than n included
            st.lists(BLEU_TOKENS, min_size=1, max_size=9),
            st.integers(min_value=1, max_value=3),  # consecutive adds of one reference
            st.booleans(),  # reference passed as a list or a tuple
        ),
        min_size=1,
        max_size=8,
    ),
)
@clip_case_examples
def test_bleu_accumulator_matches_reference(pairs):
    got, want = BleuAccumulator(), BleuAccumulator()
    other, other_want = BleuAccumulator(), BleuAccumulator()
    for hyp, ref, repeats, as_tuple in pairs:
        reference = tuple(ref) if as_tuple else list(ref)
        for i in range(repeats):
            hypothesis = hyp[i:]
            got.add(hypothesis, Reference(reference))
            reference_bleu_add(want, hypothesis, reference)
            # another accumulator, and the pair as other sequence types, between adds
            other.add(tuple(hypothesis), Reference(list(reference)))
            reference_bleu_add(other_want, tuple(hypothesis), list(reference))
    for acc, ref_acc in ((got, want), (other, other_want)):
        assert acc.matched == ref_acc.matched
        assert acc.total == ref_acc.total
        assert (acc.hyp_length, acc.ref_length, acc.pairs) == (
            ref_acc.hyp_length, ref_acc.ref_length, ref_acc.pairs
        )
        if acc.hyp_length:
            assert acc.report() == ref_acc.report()


# --- the partition memo, and BLEU under repeats ----------------------------------
# The partition memo is module state, so it carries over from one call (and
# one example) to the next; each test runs a mixed sequence in which the same
# input recurs, next to inputs that share every other key part.


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(candidate_sets(), min_size=1, max_size=4),
    calls=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["p", "q r"]),  # the ids candidate_sets draws
            st.none() | st.floats(min_value=-9.0, max_value=0.0),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_partition_memo_matches_reference(pool, calls):
    for index, ident, score in calls:
        cset = pool[index % len(pool)]
        if ident != cset.id or score is not None:
            # the same tokens under another id and other scores
            cset = CandidateSet(ident, tuple(
                ScoredCandidate(c.tokens, (score or 0.0,) * len(c.tokens))
                for c in cset.candidates
            ))
        assert partition(cset).elements == reference_partition(cset).elements


BLEU_WORDS = st.lists(BLEU_TOKENS, max_size=7)


@settings(max_examples=200, deadline=None)
@given(
    hyps=st.lists(BLEU_WORDS, min_size=1, max_size=4),
    refs=st.lists(st.lists(BLEU_TOKENS, min_size=1, max_size=7), min_size=1, max_size=3),
    accumulators=st.integers(min_value=1, max_value=3),
    adds=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
                  min_size=1, max_size=20),
)
def test_bleu_memo_matches_reference(hyps, refs, accumulators, adds):
    # one hypothesis against several references, one pair into several
    # accumulators, in any order and with repeats
    accs = [(BleuAccumulator(), BleuAccumulator()) for _ in range(accumulators)]
    for h, r, a in adds:
        hypothesis, reference = hyps[h % len(hyps)], refs[r % len(refs)]
        got, want = accs[a % len(accs)]
        got.add(hypothesis, Reference(reference))
        reference_bleu_add(want, hypothesis, reference)
        assert (got.matched, got.total) == (want.matched, want.total)
    for got, want in accs:
        assert (got.hyp_length, got.ref_length, got.pairs) == (
            want.hyp_length, want.ref_length, want.pairs
        )


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.lists(BLEU_TOKENS, min_size=1, max_size=7),  # the record's reference
            st.lists(BLEU_WORDS, min_size=1, max_size=4),  # its hypotheses
            # (hypothesis, accumulator) per add: repeats, interleaved accumulators
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=17),
        ),
        min_size=1,
        max_size=4,
    ),
    accumulators=st.integers(min_value=1, max_value=3),
)
def test_one_reference_per_record_matches_reference(records, accumulators):
    # as in ``cds compare``: every accumulator adds against the record's one Reference
    accs = [(BleuAccumulator(), BleuAccumulator()) for _ in range(accumulators)]
    for ref_tokens, hyps, adds in records:
        reference = Reference(ref_tokens)
        for h, a in adds:
            hypothesis = hyps[h % len(hyps)]
            got, want = accs[a % len(accs)]
            got.add(hypothesis, reference)
            reference_bleu_add(want, hypothesis, ref_tokens)
            assert (got.matched, got.total) == (want.matched, want.total)
    for got, want in accs:
        assert (got.hyp_length, got.ref_length, got.pairs) == (
            want.hyp_length, want.ref_length, want.pairs
        )
        if want.hyp_length:
            assert got.report() == want.report()


def test_memos_under_threads():
    """16 threads (more than the cores of a test machine) switching every
    microsecond share the partition memo; every result must equal the
    reference's."""
    rng = random.Random(5)
    sets = [random_candidate_set(rng, max_k=5, vocab=tuple("abcd"), ident="t") for _ in range(6)]
    want_parts = [reference_partition(s).elements for s in sets]

    errors: list[str] = []
    rounds = [0] * 16  # per thread, so no update is lost
    deadline = time.monotonic() + 2.0

    def worker(seed: int) -> None:
        local = random.Random(seed)
        while time.monotonic() < deadline and not errors:
            rounds[seed] += 1
            i = local.randrange(len(sets))
            if partition(sets[i]).elements != want_parts[i]:
                errors.append(f"partition of set {i}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(len(rounds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert min(rounds) > 0 and sum(rounds) > 1000
