"""The optimized hot path against frozen per-token reference implementations.

Sets are small and repetitive on purpose: a vocabulary of 2-6 tokens makes
repeated and adjacent duplicate tokens common, k runs from 1 to 7 and
candidate lengths differ (down to a single token), so anchors, exhausted
candidates and multi-token ties all occur.  The n-gram scorer and BLEU
counting are checked the same way: small vocabularies, so that contexts
repeat and clipping is common, plus tokens and contexts never seen.  The
partition memo is checked with call sequences that repeat inputs among near
misses (equal tokens under other ids and scores), and under threads; BLEU
counting with one hypothesis against other references and other orders,
and through one ``Reference`` per record as ``cds compare`` uses it.
"""

from __future__ import annotations

import logging
import math
import random
import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from candidate_soups.errors import EmptyCandidate, InvalidToken, LengthMismatch, PositiveScore
from candidate_soups.scoring import END_SYMBOL, START_SYMBOL, ngram_score
from helpers import (
    random_candidate_set,
    reference_bleu_add,
    reference_candidate_soups,
    reference_find_next_anchor,
    reference_ngram_score,
    reference_partition,
    reference_remove_adjacent_duplicates,
    reference_validate,
)

FLOOR = DEFAULT_SCORE_FLOOR
SCORES = st.one_of(
    st.floats(min_value=-40.0, max_value=0.0),
    st.sampled_from([0.0, -0.0, FLOOR, -math.inf]),
)


@st.composite
def candidate_sets(draw, scores=SCORES, tokens=None):
    vocab_size = draw(st.integers(min_value=2, max_value=6))
    token = tokens if tokens is not None else st.sampled_from("abcdef"[:vocab_size])
    k = draw(st.integers(min_value=1, max_value=7))
    cands = []
    for _ in range(k):
        length = draw(st.integers(min_value=1, max_value=12))
        toks = draw(st.lists(token, min_size=length, max_size=length))
        vals = draw(st.lists(scores, min_size=length, max_size=length))
        cands.append(ScoredCandidate(tuple(toks), tuple(vals)))
    return CandidateSet("p", tuple(cands))


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
    """(result, None) or (None, (exception class, message)), plus warning texts."""
    with captured_warnings() as records:
        try:
            result, error = fn(*args), None
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            result, error = None, (type(exc), str(exc))
    return result, error, [r.getMessage() for r in records]


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_partition_matches_reference(cset):
    assert partition(cset).elements == reference_partition(cset).elements
    deduped = CandidateSet(cset.id, tuple(map(remove_adjacent_duplicates, cset.candidates)))
    assert partition(deduped).elements == reference_partition(deduped).elements


@settings(max_examples=300, deadline=None)
@given(candidate_sets(), st.data())
def test_find_next_anchor_matches_reference(cset, data):
    # start vectors include pointers at (and only at) a candidate's end
    start = tuple(
        data.draw(st.integers(min_value=0, max_value=len(c.tokens))) for c in cset.candidates
    )
    assert find_next_anchor(cset, start) == reference_find_next_anchor(cset, start)


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_dedup_matches_reference(cset):
    for cand in cset.candidates:
        got = remove_adjacent_duplicates(cand)
        want = reference_remove_adjacent_duplicates(cand)
        assert got == want
        assert (got is cand) == (want is cand)


@settings(max_examples=300, deadline=None)
@given(candidate_sets())
def test_candidate_soups_matches_reference_pipeline(cset):
    got = candidate_soups(cset)
    want = reference_candidate_soups(cset)
    assert got.tokens == want.tokens
    deduped = CandidateSet(
        cset.id, tuple(map(reference_remove_adjacent_duplicates, cset.candidates))
    )
    anchors = len(list(reference_partition(deduped).anchors()))
    assert len(got.tokens) == anchors + sum(len(choice.chosen_tokens) for choice in got.trace)
    assert got.trace == want.trace  # float scores compared with ==


BAD_TOKENS = st.sampled_from(["a", "b", "", "a b", "c\td", " ", "e ", "\x1c", 7])
BAD_SCORES = st.one_of(SCORES, st.sampled_from([math.nan, math.inf, 1e-300, 0.5]))


@settings(max_examples=300, deadline=None)
@given(candidate_sets(scores=BAD_SCORES, tokens=BAD_TOKENS), st.sampled_from([FLOOR, -5.0]))
def test_validate_matches_reference(cset, floor):
    got, got_error, got_warnings = outcome(validate, cset, floor)
    want, want_error, want_warnings = outcome(reference_validate, cset, floor)
    assert got_error == want_error
    assert got_warnings == want_warnings
    assert got == want
    assert (got is cset) == (want is cset)


def _set(tokens, scores, source=None):
    return CandidateSet("e", (ScoredCandidate(tuple(tokens), tuple(scores)),), source)


@pytest.mark.parametrize(
    "cset, error",
    [
        (_set(["a", ""], [-1.0, -1.0]), InvalidToken),
        (_set(["a", "x y"], [-1.0, -1.0]), InvalidToken),
        (_set(["a", "x\ty"], [-1.0, -1.0]), InvalidToken),
        (_set(["a", "x\u00a0y"], [-1.0, -1.0]), InvalidToken),
        (_set(["a", "x\u2003y"], [-1.0, -1.0]), InvalidToken),
        (_set(["a", "x\x1cy"], [-1.0, -1.0]), InvalidToken),
        (_set(["", "a b"], [-1.0, -1.0]), InvalidToken),  # joins and splits to ["a", "b"]
        (_set(["a", 3], [-1.0, -1.0]), InvalidToken),
        (_set(["a", None], [-1.0, -1.0]), InvalidToken),
        (_set(["a"], [-1.0], source=["s", "t u"]), InvalidToken),
        (_set(["a", "b"], [-1.0, math.nan]), PositiveScore),
        (_set(["a", "b"], [-1.0, math.inf]), PositiveScore),
        (_set(["a", "b"], [-1.0, 1e-300]), PositiveScore),
        (_set([], []), EmptyCandidate),
        (_set(["a", "b"], [-1.0]), LengthMismatch),
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
    cset = _set("abc"[: len(scores)], scores)
    with captured_warnings() as records:
        out = validate(cset)
    assert [r.getMessage() for r in records] == [
        f"clamped {clamped} score(s) below {FLOOR} in candidate set e"
    ]
    assert all(s >= FLOOR for s in out.candidates[0].scores)
    assert out == reference_validate(cset)


@pytest.mark.parametrize("scores", [[-0.0, -1.0], [FLOOR, -0.0], [FLOOR, FLOOR]])
def test_validate_passes_boundary_scores_without_warning(scores):
    cset = _set(["a", "b"], scores)
    with captured_warnings() as records:
        out = validate(cset)
    assert records == []
    assert out is cset


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


def test_ngram_score_floor_clamp_case_is_covered():
    # unseen token in a seen context: log(1e-6 / ...) is clamped; the unseen
    # context that follows spreads its mass evenly, log(1/4), and is kept
    model = train_ngram([["a", "b"]], n=3, alpha=1e-6)
    got = ngram_score(model, ["z", "a"], score_floor=-2.0)
    assert got[0] == -2.0 and got[1] == math.log(1 / 4)
    assert got == reference_ngram_score(model, ["z", "a"], score_floor=-2.0)


BLEU_TOKENS = st.sampled_from("xyz")  # three types: repeated n-grams, frequent clipping


@settings(max_examples=300, deadline=None)
@given(
    max_n=st.integers(min_value=1, max_value=6),
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
def test_bleu_accumulator_matches_reference(max_n, pairs):
    got, want = BleuAccumulator(max_n), BleuAccumulator(max_n)
    other, other_want = BleuAccumulator(max_n % 6 + 1), BleuAccumulator(max_n % 6 + 1)
    for hyp, ref, repeats, as_tuple in pairs:
        reference = tuple(ref) if as_tuple else list(ref)
        for i in range(repeats):
            hypothesis = hyp[i:]
            got.add(hypothesis, Reference(reference, max_n))
            reference_bleu_add(want, hypothesis, reference)
            # another order on the same reference between adds
            other.add(tuple(hypothesis), Reference(list(reference), other.max_n))
            reference_bleu_add(other_want, tuple(hypothesis), list(reference))
    for acc, ref_acc in ((got, want), (other, other_want)):
        assert acc.matched == ref_acc.matched
        assert acc.total == ref_acc.total
        assert (acc.hyp_length, acc.ref_length, acc.pairs) == (
            ref_acc.hyp_length, ref_acc.ref_length, ref_acc.pairs
        )
        if acc.hyp_length:
            assert acc.report() == ref_acc.report()
            assert acc.report(smoothing_epsilon=0.1) == ref_acc.report(smoothing_epsilon=0.1)


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
            st.sampled_from(["p", "q"]),  # every pool set has id "p"
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
    orders=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    adds=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
                  min_size=1, max_size=20),
)
def test_bleu_memo_matches_reference(hyps, refs, orders, adds):
    # one hypothesis against several references, one pair under several max_n,
    # in any order and with repeats
    accs = [(BleuAccumulator(n), BleuAccumulator(n)) for n in orders]
    for h, r, a in adds:
        hypothesis, reference = hyps[h % len(hyps)], refs[r % len(refs)]
        got, want = accs[a % len(accs)]
        got.add(hypothesis, Reference(reference, got.max_n))
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
    orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
)
def test_one_reference_per_record_matches_reference(records, orders):
    # as in ``cds compare``: every accumulator adds against the record's one
    # Reference, built at the highest order any accumulator needs
    accs = [(BleuAccumulator(n), BleuAccumulator(n)) for n in orders]
    for ref_tokens, hyps, adds in records:
        reference = Reference(ref_tokens, max(orders))
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
            assert got.report(smoothing_epsilon=0.1) == want.report(smoothing_epsilon=0.1)


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
