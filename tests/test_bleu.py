import math
import random

import pytest

from candidate_soups import BleuAccumulator, Reference, corpus_bleu
from candidate_soups.errors import EmptyInput, LengthMismatch
from helpers import random_references, word_vocab


def test_identity_scores_100():
    corpus = [["a", "b", "c", "d", "e"], ["f", "g", "h", "i"]]
    report = corpus_bleu(corpus, corpus)
    assert report.bleu == 100.0
    assert report.brevity_penalty == 1.0
    assert report.ngram_precisions == (1.0, 1.0, 1.0, 1.0)


def test_four_versus_five_token_hand_check():
    # p1..p4 are all perfect; only the brevity penalty bites
    report = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert report.ngram_precisions == (1.0, 1.0, 1.0, 1.0)
    assert report.brevity_penalty == pytest.approx(math.exp(-0.25), abs=1e-12)
    assert report.bleu == pytest.approx(100.0 * math.exp(-0.25), abs=1e-6)
    assert report.hyp_length == 4 and report.ref_length == 5


def test_no_shared_four_gram_scores_zero():
    report = corpus_bleu([["a", "b", "c", "x"]], [["a", "b", "c", "d"]])
    assert report.ngram_precisions[3] == 0.0
    assert report.bleu == 0.0


def test_clipping_counts_against_reference():
    # hypothesis repeats 'the' three times; reference contains it twice
    report = corpus_bleu([["the", "the", "the"]], [["the", "cat", "the"]])
    assert report.ngram_precisions[0] == pytest.approx(2 / 3)


# (hypothesis, reference, max_n, clipped matches of orders 1..): one row per
# branch of Reference's clip, sum of min(h, r) = |H & R| + sum of (min(h, r) - 1)
# over the n-grams that repeat on both sides
CLIP_CASES = [
    pytest.param("x x x y", "x x y z", 2, (3, 2), id="repeats-in-both-more-in-hypothesis"),
    pytest.param("x y x", "x x x y", 2, (3, 1), id="repeats-in-both-more-in-reference"),
    pytest.param("x x x", "x y", 2, (1, 0), id="repeats-only-in-hypothesis"),
    pytest.param("x x", "x y y", 2, (1, 0), id="repeats-only-in-hypothesis-reference-repeats"),
    pytest.param("x y", "x x y", 2, (2, 1), id="repeats-only-in-reference"),
    pytest.param("x z z", "x x y", 2, (1, 0), id="repeats-only-in-reference-hypothesis-repeats"),
    pytest.param("x y", "x y z x", 4, (2, 1), id="hypothesis-shorter-than-max-n"),
    pytest.param("x y z", "x y", 3, (2, 1, 0), id="reference-shorter-than-n"),
]


@pytest.mark.parametrize("hypothesis, reference, max_n, want", CLIP_CASES)
def test_clipped_matches_by_hand(hypothesis, reference, max_n, want):
    assert Reference(reference.split(), max_n).clipped_matches(hypothesis.split()) == want


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_empty_corpus():
    with pytest.raises(EmptyInput):
        corpus_bleu([], [])
    with pytest.raises(EmptyInput, match="no sentence pairs were scored"):
        BleuAccumulator().report()


@pytest.mark.parametrize(
    "make",
    [lambda: Reference(["a"], max_n=0), lambda: BleuAccumulator(0)],
    ids=["Reference", "BleuAccumulator"],
)
def test_max_n_must_be_positive(make):
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        make()


def test_empty_reference_sentence():
    with pytest.raises(EmptyInput):
        corpus_bleu([["a"]], [[]])
    with pytest.raises(EmptyInput):
        Reference([])


def test_reference_serves_accumulators_up_to_its_order():
    reference = Reference(["a", "b", "c"], max_n=2)
    low, plain = BleuAccumulator(1), BleuAccumulator(1)
    low.add(["a", "b"], reference)
    plain.add(["a", "b"], Reference(["a", "b", "c"], max_n=1))
    assert (low.matched, low.total) == (plain.matched, plain.total) == ([2], [2])
    with pytest.raises(ValueError, match="up to 2"):
        BleuAccumulator(3).add(["a", "b"], reference)


def test_smoothing_inactive_when_all_precisions_positive():
    hyps = [["a", "b", "c", "d", "e"]]
    refs = [["a", "b", "c", "d", "x"]]
    plain = corpus_bleu(hyps, refs)
    smoothed = corpus_bleu(hyps, refs, epsilon=0.1)
    assert all(p > 0 for p in plain.ngram_precisions)
    assert abs(plain.bleu - smoothed.bleu) < 1e-12


def test_smoothing_rescues_short_sentence():
    hyps = [["a", "b", "c", "x", "y"]]
    refs = [["a", "b", "c", "d", "e"]]
    assert corpus_bleu(hyps, refs).bleu == 0.0
    assert corpus_bleu(hyps, refs, epsilon=0.1).bleu > 0.0


def test_smoothed_score_monotone_in_epsilon():
    hyps = [["a", "b", "q", "r"]]
    refs = [["a", "b", "c", "d"]]
    scores = [
        corpus_bleu(hyps, refs, epsilon=eps).bleu
        for eps in (0.01, 0.05, 0.1, 0.5, 1.0, 5.0)
    ]
    assert scores == sorted(scores)
    assert all(0.0 <= s <= 100.0 for s in scores)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_epsilon_must_be_finite_and_positive(epsilon):
    # NaN used to pass and score nan; inf made every zero precision perfect
    with pytest.raises(ValueError, match="epsilon must be a finite number > 0"):
        corpus_bleu([["a"]], [["a"]], epsilon=epsilon)


def test_permutation_invariance():
    rng = random.Random(17)
    vocab = word_vocab(12)
    refs = random_references(rng, 30, vocab, min_len=3, max_len=10)
    hyps = [
        tuple(tok if rng.random() > 0.2 else rng.choice(vocab) for tok in ref)
        for ref in refs
    ]
    base = corpus_bleu(hyps, refs)
    order = list(range(len(refs)))
    rng.shuffle(order)
    shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
    assert shuffled.bleu == pytest.approx(base.bleu, abs=1e-12)


def test_score_always_in_range():
    rng = random.Random(18)
    vocab = word_vocab(6)
    for _ in range(200):
        refs = random_references(rng, rng.randint(1, 5), vocab, min_len=1, max_len=8)
        hyps = [
            tuple(rng.choice(vocab) for _ in range(rng.randint(1, 8))) for _ in refs
        ]
        report = corpus_bleu(hyps, refs)
        assert 0.0 <= report.bleu <= 100.0
        assert 0.0 < report.brevity_penalty <= 1.0


def test_identity_holds_for_short_sentences():
    # sentences shorter than the n-gram order must still score perfectly
    corpus = [["hi"], ["a", "b"]]
    assert corpus_bleu(corpus, corpus).bleu == 100.0


def test_report_json_keys():
    report = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d"]])
    payload = report.to_json()
    assert set(payload) == {"bleu", "precisions", "bp", "hyp_len", "ref_len"}
    assert payload["bleu"] == 100.0
    assert payload["precisions"] == (1.0, 1.0, 1.0, 1.0)
