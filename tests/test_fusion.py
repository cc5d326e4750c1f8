import math
import random

import pytest

from candidate_soups import CandidateSet, ScoredCandidate, Scorer, candidate_soups, validate
from candidate_soups.alignment import DivergenceRegion, partition
from candidate_soups.candidates import remove_adjacent_duplicates
from candidate_soups.errors import ScorerFailure
from candidate_soups.fusion import select_segment
from candidate_soups.scoring import SelfScorer, rescore_set
from helpers import (
    CROSS_ERROR_FUSED,
    THREE_WAY_ANCHORS,
    THREE_WAY_FUSED,
    cross_error_set,
    random_candidate_set,
    region_score,
    three_way_set,
)


def region(start, end, segments):
    return DivergenceRegion(tuple(start), tuple(end), tuple(map(tuple, segments)))


class TestRegionScore:
    def test_window_includes_both_bounding_anchors(self):
        # anchor -0.1 | segment -0.2 -0.4 | anchor -0.3
        scores = [(-0.1, -0.2, -0.4, -0.3)]
        reg = region([1], [3], [["p", "q"]])
        assert region_score(0, reg, scores) == pytest.approx(-0.25)

    def test_window_clamps_at_sequence_start(self):
        scores = [(-0.2, -0.4, -0.1)]
        reg = region([0], [2], [["p", "q"]])
        # no preceding anchor exists; window is segment plus following anchor
        assert region_score(0, reg, scores) == pytest.approx((-0.2 - 0.4 - 0.1) / 3)

    def test_window_clamps_at_sequence_end(self):
        scores = [(-0.1, -0.2, -0.4)]
        reg = region([1], [3], [["p", "q"]])
        assert region_score(0, reg, scores) == pytest.approx((-0.1 - 0.2 - 0.4) / 3)

    def test_empty_segment_scores_bounding_anchors(self):
        scores = [(-0.1, -0.3)]
        reg = region([1], [1], [[]])
        assert region_score(0, reg, scores) == pytest.approx(-0.2)


class TestSelectSegment:
    def test_highest_mean_wins(self):
        scores = [(-0.5, -0.5, -0.5), (-0.3, -0.3, -0.3)]
        reg = region([1, 1], [2, 2], [["x"], ["y"]])
        choice = select_segment(reg, scores)
        assert choice.chosen == 1
        assert choice.chosen_tokens == ("y",)

    def test_exact_tie_goes_to_lowest_index(self):
        scores = [(-0.4, -0.4, -0.4), (-0.4, -0.4, -0.4)]
        reg = region([1, 1], [2, 2], [["x"], ["y"]])
        choice = select_segment(reg, scores)
        assert choice.chosen == 0
        assert choice.chosen_tokens == ("x",)

    def test_segment_scores_cover_every_candidate(self):
        scores = [(-0.5, -0.1, -0.5), (-0.2, -0.9, -0.2)]
        reg = region([1, 1], [2, 2], [["x"], ["y"]])
        choice = select_segment(reg, scores)
        assert len(choice.segment_scores) == 2
        assert choice.chosen == max(
            range(2), key=lambda j: (choice.segment_scores[j], -j)
        )


class TestCandidateSoups:
    def test_cross_error_pair_fuses_clean(self):
        result = candidate_soups(cross_error_set())
        assert list(result.tokens) == CROSS_ERROR_FUSED

    def test_three_way_fusion_output_and_trace(self):
        result = candidate_soups(three_way_set())
        assert list(result.tokens) == THREE_WAY_FUSED
        assert [c.chosen for c in result.trace] == [1, 2]
        prepared = rescore_set(validate(three_way_set()), SelfScorer())
        anchors = len(list(partition(prepared).anchors()))
        assert anchors == len(THREE_WAY_ANCHORS)
        chosen_total = sum(len(choice.chosen_tokens) for choice in result.trace)
        assert len(result.tokens) == anchors + chosen_total

    def test_identical_candidates_fuse_to_themselves(self):
        cand = ScoredCandidate(("a", "a", "b"), (-0.1, -0.2, -0.3))
        cset = CandidateSet("same", (cand, cand, cand))
        result = candidate_soups(cset)
        assert result.tokens == ("a", "b")
        assert result.trace == ()

    def test_single_candidate(self):
        cset = CandidateSet("one", (ScoredCandidate(("x", "x", "y"), (-0.1, -0.2, -0.3)),))
        result = candidate_soups(cset)
        assert result.tokens == ("x", "y")

    def test_output_interleaves_anchors_and_chosen_segments(self):
        rng = random.Random(7)
        for _ in range(100):
            cset = random_candidate_set(rng)
            result = candidate_soups(cset)
            deduped = [remove_adjacent_duplicates(c).tokens for c in cset.candidates]
            # every output token must appear in some candidate
            pool = set().union(*map(set, deduped))
            assert set(result.tokens) <= pool
            chosen_total = sum(len(choice.chosen_tokens) for choice in result.trace)
            anchors = len(list(partition(rescore_set(validate(cset), SelfScorer())).anchors()))
            assert len(result.tokens) == anchors + chosen_total

    def test_misaligned_scorer_raises(self):
        class Broken(Scorer):
            def rescore(self, source, candidate):
                return [-0.1] * (len(candidate.tokens) + 1)

        with pytest.raises(ScorerFailure):
            candidate_soups(cross_error_set(), Broken())


def shift_scores(cset, delta):
    return CandidateSet(
        cset.id,
        tuple(
            ScoredCandidate(c.tokens, tuple(s + delta for s in c.scores))
            for c in cset.candidates
        ),
    )


def scale_scores(cset, factor):
    return CandidateSet(
        cset.id,
        tuple(
            ScoredCandidate(c.tokens, tuple(s * factor for s in c.scores))
            for c in cset.candidates
        ),
    )


def test_uniform_shift_leaves_output_unchanged():
    rng = random.Random(11)
    for _ in range(200):
        cset = random_candidate_set(rng)
        delta = rng.uniform(-5.0, 0.0)
        assert candidate_soups(cset).tokens == candidate_soups(shift_scores(cset, delta)).tokens


def argmax_unique(choice):
    top = max(choice.segment_scores)
    return sum(1 for s in choice.segment_scores if s == top) == 1


def test_positive_scaling_leaves_output_unchanged_when_argmax_unique():
    rng = random.Random(12)
    checked = 0
    for _ in range(200):
        cset = random_candidate_set(rng, max_len=8)
        base = candidate_soups(cset)
        if not all(argmax_unique(choice) for choice in base.trace):
            continue
        checked += 1
        for factor in (0.25, 0.5, 2.0, 4.0):
            assert candidate_soups(scale_scores(cset, factor)).tokens == base.tokens
    assert checked > 100


def test_dominant_candidate_wins_every_region():
    rng = random.Random(13)
    for _ in range(100):
        cset = random_candidate_set(rng, max_k=4)
        k = len(cset.candidates)
        winner = rng.randrange(k)
        cands = []
        for j, cand in enumerate(cset.candidates):
            level = -0.05 if j == winner else rng.uniform(-4.0, -1.0)
            cands.append(ScoredCandidate(cand.tokens, tuple(level for _ in cand.tokens)))
        dominated = CandidateSet(cset.id, tuple(cands))
        result = candidate_soups(dominated)
        assert result.tokens == remove_adjacent_duplicates(cands[winner]).tokens
        assert all(choice.chosen == winner for choice in result.trace)


def test_fusion_can_leave_the_candidate_set():
    """Unlike whole-candidate selection, fused output is often a new sequence."""
    from candidate_soups import npd_select
    from candidate_soups.synth import NoiseConfig, generate_corpus
    from helpers import random_references, word_vocab

    rng = random.Random(40)
    vocab = word_vocab(30)
    refs = random_references(rng, 200, vocab)
    novel = 0
    for cset in generate_corpus(refs, 4, NoiseConfig(rng_seed=6), vocab=vocab):
        deduped = [remove_adjacent_duplicates(c).tokens for c in cset.candidates]
        fused = candidate_soups(cset).tokens
        _, winner = npd_select(cset)
        assert winner.tokens in deduped
        if fused not in deduped:
            novel += 1
    assert novel > 0


def test_window_means_are_plain_arithmetic_means():
    # cross-check region_score against a from-scratch slice mean
    rng = random.Random(14)
    for _ in range(100):
        cset = random_candidate_set(rng)
        deduped = CandidateSet(
            cset.id, tuple(remove_adjacent_duplicates(c) for c in cset.candidates)
        )
        from candidate_soups.alignment import partition

        scores = [c.scores for c in deduped.candidates]
        for reg in partition(deduped).regions():
            for j in range(len(scores)):
                lo = max(0, reg.start[j] - 1)
                hi = min(len(scores[j]), reg.end[j] + 1)
                window = scores[j][lo:hi]
                assert window, "window must never be empty"
                expected = math.fsum(window) / len(window)
                assert region_score(j, reg, scores) == pytest.approx(expected, abs=1e-15)
