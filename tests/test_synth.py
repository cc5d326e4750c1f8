import random

import pytest

from candidate_soups.errors import EmptyInput
from candidate_soups.synth import NoiseConfig, Vocabulary, generate_candidates, generate_corpus
from helpers import QUIET, random_references, word_vocab


class TestNoiseConfig:
    def test_defaults_are_valid(self):
        config = NoiseConfig()
        assert config.substitution_rate == 0.15
        assert config.error_score_mean < config.correct_score_mean

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"substitution_rate": -0.1},
            {"insertion_rate": 1.5},
            {"correct_score_mean": 0.2},
            {"error_score_std": -1.0},
            {"correct_score_mean": float("nan")},
            {"error_score_mean": float("-inf")},
            {"correct_score_std": float("nan")},
            {"error_score_std": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NoiseConfig(**kwargs)


class TestGenerateCandidates:
    def test_zero_noise_reproduces_reference(self):
        reference = ("the", "cat", "sat")
        cset = generate_candidates(reference, 4, QUIET, vocab=Vocabulary(reference))
        for cand in cset.candidates:
            assert cand.tokens == reference
            assert all(-1.0 < s <= 0.0 for s in cand.scores)

    def test_full_substitution_with_disjoint_replacements(self):
        reference = ("r1", "r2", "r3", "r4")
        config = NoiseConfig(
            substitution_rate=1.0,
            insertion_rate=0.0,
            deletion_rate=0.0,
            duplication_rate=0.0,
        )
        vocab = Vocabulary(("s1", "s2", "s3"))
        cset = generate_candidates(reference, 3, config, vocab)
        for cand in cset.candidates:
            assert len(cand.tokens) == len(reference)
            assert all(tok != ref for tok, ref in zip(cand.tokens, reference))

    def test_substitution_never_reuses_reference_token(self):
        # even when the reference token is in the vocabulary
        reference = ("a",) * 30
        config = NoiseConfig(substitution_rate=1.0, insertion_rate=0.0,
                             deletion_rate=0.0, duplication_rate=0.0)
        cset = generate_candidates(reference, 2, config, vocab=Vocabulary(("a", "b", "c")))
        for cand in cset.candidates:
            assert "a" not in cand.tokens

    def test_deterministic_given_seed(self):
        reference = tuple("abcdefgh")
        config = NoiseConfig(rng_seed=99)
        first = generate_candidates(reference, 5, config, Vocabulary(reference))
        second = generate_candidates(reference, 5, config, Vocabulary(reference))
        assert first == second

    def test_different_seeds_differ(self):
        reference = tuple("abcdefgh")
        a = generate_candidates(reference, 5, NoiseConfig(rng_seed=1), Vocabulary(reference))
        b = generate_candidates(reference, 5, NoiseConfig(rng_seed=2), Vocabulary(reference))
        assert a != b

    def test_empty_reference(self):
        with pytest.raises(EmptyInput):
            generate_candidates((), 3, QUIET, vocab=Vocabulary(("a",)))

    @pytest.mark.parametrize(
        "k, vocab",
        [(0, Vocabulary(("a",))), (3, Vocabulary(()))],
        ids=["k-0", "empty-vocabulary"],
    )
    def test_rejects_bad_count_or_vocabulary(self, k, vocab):
        with pytest.raises(ValueError):
            generate_candidates(("a", "b"), k, QUIET, vocab=vocab)

    def test_duplication_produces_adjacent_repeats(self):
        reference = tuple(f"t{i}" for i in range(200))
        config = NoiseConfig(
            substitution_rate=0.0,
            insertion_rate=0.0,
            deletion_rate=0.0,
            duplication_rate=0.5,
        )
        cset = generate_candidates(reference, 1, config, Vocabulary(reference))
        tokens = cset.candidates[0].tokens
        assert any(a == b for a, b in zip(tokens, tokens[1:]))
        assert len(tokens) > len(reference)

    def test_every_token_deleted_leaves_one_vocabulary_token(self):
        config = NoiseConfig(deletion_rate=1.0, insertion_rate=0.0, duplication_rate=0.0)
        vocab = Vocabulary(("x", "y", "z"))
        cset = generate_candidates(tuple(f"t{i}" for i in range(20)), 8, config, vocab)
        for cand in cset.candidates:
            (token,) = cand.tokens
            (score,) = cand.scores
            assert token in vocab.tokens
            assert -30.0 <= score <= 0.0

    def test_scores_respect_floor(self):
        config = NoiseConfig(error_score_mean=-29.0, error_score_std=10.0,
                             substitution_rate=1.0)
        reference = tuple(f"t{i}" for i in range(100))
        cset = generate_candidates(reference, 1, config, Vocabulary(("x", "y")))
        assert all(-30.0 <= s <= 0.0 for s in cset.candidates[0].scores)


class TestGenerateCorpus:
    def test_ids_follow_reference_order(self):
        refs = [("a", "b"), ("c",), ("d", "e", "f")]
        sets = generate_corpus(refs, 2, QUIET)
        assert [s.id for s in sets] == ["0", "1", "2"]
        assert [s.candidates[0].tokens for s in sets] == refs

    def test_empty_reference_list(self):
        assert generate_corpus([], 3, QUIET) == []

    def test_vocabulary_is_prepared_once(self):
        # it used to be deduplicated and indexed again for every reference
        iterations = []

        class CountingVocab(tuple):
            def __iter__(self):
                iterations.append(1)
                return super().__iter__()

        refs = [("a", "b"), ("c",), ("b", "a", "c")]
        sets = generate_corpus(refs, 2, NoiseConfig(rng_seed=4), vocab=CountingVocab("abc"))
        assert len(iterations) == 1
        assert sets == generate_corpus(refs, 2, NoiseConfig(rng_seed=4), vocab=("a", "b", "c"))

    def test_candidate_streams_independent_of_k(self):
        refs = [tuple("abcdef"), tuple("ghij")]
        config = NoiseConfig(rng_seed=7)
        small = generate_corpus(refs, 2, config)
        large = generate_corpus(refs, 5, config)
        for s, l in zip(small, large):
            assert s.candidates == l.candidates[: len(s.candidates)]

    def test_identical_inputs_identical_output(self):
        rng = random.Random(3)
        refs = random_references(rng, 20, word_vocab(30))
        config = NoiseConfig(rng_seed=123)
        assert generate_corpus(refs, 3, config) == generate_corpus(refs, 3, config)


def test_corruption_positions_are_independent_across_candidates():
    """Pairwise overlap of substituted positions approaches rate squared."""
    rate = 0.15
    config = NoiseConfig(
        substitution_rate=rate,
        insertion_rate=0.0,
        deletion_rate=0.0,
        duplication_rate=0.0,
        rng_seed=42,
    )
    rng = random.Random(8)
    vocab = word_vocab(40)
    refs = random_references(rng, 1500, vocab, min_len=20, max_len=20)
    overlap = 0
    positions = 0
    for cset in generate_corpus(refs, 2, config, vocab=vocab):
        ref = refs[int(cset.id)]
        first, second = (c.tokens for c in cset.candidates)
        for i, tok in enumerate(ref):
            positions += 1
            if first[i] != tok and second[i] != tok:
                overlap += 1
    observed = overlap / positions
    # 1500 * 20 = 30000 positions at p = 0.0225: three sigma is ~0.0026
    assert abs(observed - rate * rate) < 0.004
