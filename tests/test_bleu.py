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


# (hypothesis, reference, clipped matches of orders 1..4): one row per branch of
# Reference's clip, sum of min(h, r) = |H & R| + sum of (min(h, r) - 1) over the
# n-grams that repeat on both sides; orders longer than the hypothesis are left out
CLIP_CASES = [
    pytest.param("x x x y", "x x y z", (3, 2, 1, 0), id="repeats-in-both-more-in-hypothesis"),
    pytest.param("x y x", "x x x y", (3, 1, 0), id="repeats-in-both-more-in-reference"),
    pytest.param("x x x", "x y", (1, 0, 0), id="repeats-only-in-hypothesis"),
    pytest.param("x x", "x y y", (1, 0), id="repeats-only-in-hypothesis-reference-repeats"),
    pytest.param("x y", "x x y", (2, 1), id="repeats-only-in-reference"),
    pytest.param("x z z", "x x y", (1, 0, 0), id="repeats-only-in-reference-hypothesis-repeats"),
    pytest.param("x y", "x y z x", (2, 1), id="hypothesis-shorter-than-max-n"),
    pytest.param("x y z", "x y", (2, 1, 0), id="reference-shorter-than-n"),
]


@pytest.mark.parametrize("hypothesis, reference, want", CLIP_CASES)
def test_clipped_matches_by_hand(hypothesis, reference, want):
    assert Reference(reference.split()).clipped_matches(hypothesis.split()) == want


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_empty_corpus():
    with pytest.raises(EmptyInput):
        corpus_bleu([], [])
    with pytest.raises(EmptyInput, match="no sentence pairs were scored"):
        BleuAccumulator().report()


def test_empty_reference_sentence():
    with pytest.raises(EmptyInput):
        corpus_bleu([["a"]], [[]])
    with pytest.raises(EmptyInput):
        Reference([])


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
