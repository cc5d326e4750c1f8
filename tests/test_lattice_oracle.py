import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from candidate_soups import CandidateSet, ScoredCandidate, SelfScorer, candidate_soups, validate
from candidate_soups.alignment import partition
from candidate_soups.lattice_oracle import build_lattice, oracle_best, path_count
from candidate_soups.scoring import rescore_set
from candidate_soups.synth import NoiseConfig, generate_corpus
from helpers import (
    DEFAULT_PATH_CAP,
    PathExplosion,
    enumerate_paths,
    lattice_branches,
    random_candidate_set,
    random_references,
    reference_oracle_best,
    word_vocab,
)


def prepared(cset):
    return rescore_set(validate(cset), SelfScorer())


def flat_set(*token_lists, score=-0.5):
    return CandidateSet(
        "lat",
        tuple(
            ScoredCandidate(tuple(toks), tuple(score for _ in toks))
            for toks in token_lists
        ),
    )


class TestBuildLattice:
    def test_mirrors_partition_structure(self):
        cset = flat_set(
            ["A", "x1", "B", "C", "y1", "D"],
            ["A", "x2", "B", "C", "y2", "D"],
            ["A", "x3", "B", "C", "y3", "D"],
        )
        lattice = build_lattice(cset)
        part = partition(cset)
        assert lattice.partition == part
        assert [a.token for a in lattice.partition.anchors()] == ["A", "B", "C", "D"]
        groups = lattice_branches(lattice)
        assert len(groups) == len(lattice.means) == 2
        for group, region in zip(groups, part.regions()):
            assert tuple(b.tokens for b in group) == region.segments
            assert tuple(b.candidate for b in group) == (0, 1, 2)

    def test_single_candidate_single_path(self):
        lattice = build_lattice(flat_set(["a", "b", "c"]))
        assert path_count(lattice) == 1
        assert enumerate_paths(lattice) == [("a", "b", "c")]

    def test_identical_candidates_single_path(self):
        cset = prepared(
            CandidateSet(
                "same",
                tuple(ScoredCandidate(("a", "a", "b"), (-0.1, -0.1, -0.1)) for _ in range(3)),
            )
        )
        lattice = build_lattice(cset)
        assert enumerate_paths(lattice) == [("a", "b")]


class TestEnumeratePaths:
    def test_product_of_distinct_branches(self):
        lattice = build_lattice(
            flat_set(["A", "x", "B", "p", "C"], ["A", "y", "B", "q", "C"])
        )
        paths = enumerate_paths(lattice)
        assert len(paths) == 4
        assert set(paths) == {
            ("A", "x", "B", "p", "C"),
            ("A", "x", "B", "q", "C"),
            ("A", "y", "B", "p", "C"),
            ("A", "y", "B", "q", "C"),
        }

    def test_no_regions_single_path(self):
        lattice = build_lattice(flat_set(["a", "b"], ["a", "b"]))
        assert enumerate_paths(lattice) == [("a", "b")]

    def test_identical_branches_emitted_once(self):
        lattice = build_lattice(
            flat_set(["A", "x", "B"], ["A", "x", "B"], ["A", "y", "B"])
        )
        assert path_count(lattice) == 2
        assert sorted(enumerate_paths(lattice)) == [("A", "x", "B"), ("A", "y", "B")]

    def test_cap_overflow_raises(self):
        cset = flat_set(
            ["A", "x1", "B", "y1", "C", "z1", "D"],
            ["A", "x2", "B", "y2", "C", "z2", "D"],
        )
        lattice = build_lattice(cset)
        assert path_count(lattice) == 8
        with pytest.raises(PathExplosion):
            enumerate_paths(lattice, cap=7)

    def test_count_matches_brute_force_combinations(self):
        rng = random.Random(31)
        for _ in range(200):
            cset = prepared(random_candidate_set(rng, max_len=8))
            lattice = build_lattice(cset)
            part = partition(cset)
            k = len(cset.candidates)
            regions = list(part.regions())
            combos = {
                tuple(region.segments[j] for region, j in zip(regions, pick))
                for pick in itertools.product(range(k), repeat=len(regions))
            }
            paths = enumerate_paths(lattice)
            assert len(paths) == len(combos) == path_count(lattice)


class TestOracleBest:
    def test_single_region_picks_best_window(self):
        cset = CandidateSet(
            "single-region",
            (
                ScoredCandidate(("A", "x", "B"), (-0.1, -2.0, -0.1)),
                ScoredCandidate(("A", "y", "B"), (-0.1, -0.2, -0.1)),
            ),
        )
        assert oracle_best(build_lattice(cset)) == ("A", "y", "B")

    def test_equal_branch_scores_pick_candidate_zero(self):
        # same-length segments with identical scores: exact window tie
        cset = flat_set(["A", "x", "B"], ["A", "y", "B"], score=-0.7)
        assert oracle_best(build_lattice(cset)) == ("A", "x", "B")

    def test_constant_scores_with_unequal_window_lengths(self):
        # all scores equal: window means differ only in their last ulp
        # across window lengths.  A float total over regions would absorb
        # that gap and pick a shorter path; the exact total must not.
        cset = CandidateSet(
            "ulp",
            (
                ScoredCandidate(("b", "d", "c"), (-0.7,) * 3),
                ScoredCandidate(("d", "a", "b", "a"), (-0.7,) * 4),
                ScoredCandidate(
                    ("d", "c", "c", "d", "b", "b", "a", "b", "b", "b"), (-0.7,) * 10
                ),
            ),
        )
        fused = candidate_soups(cset)
        lattice = build_lattice(prepared(cset))
        assert oracle_best(lattice) == fused.tokens

    def test_matches_greedy_fusion_on_random_sets(self):
        rng = random.Random(32)
        for _ in range(300):
            cset = random_candidate_set(rng)
            fused = candidate_soups(cset)
            lattice = build_lattice(prepared(cset))
            assert oracle_best(lattice) == fused.tokens
            assert fused.tokens in enumerate_paths(lattice)

    def test_every_deduped_candidate_is_a_path(self):
        rng = random.Random(33)
        for _ in range(100):
            cset = prepared(random_candidate_set(rng, max_len=8))
            paths = set(enumerate_paths(build_lattice(cset)))
            for cand in cset.candidates:
                assert cand.tokens in paths


# Random sets are small and repetitive (1-8 token types) so that repeated
# segments and tied window means are common.  Constant-score sets tie every
# pair of equal-length windows exactly, while windows of different lengths
# differ only in the last ulp of their mean.
SCORE_SOURCES = st.sampled_from(["random", "palette", "constant"])


@st.composite
def oracle_sets(draw):
    vocab = "abcdefgh"[: draw(st.integers(min_value=1, max_value=8))]
    source = draw(SCORE_SOURCES)
    if source == "random":
        score = st.floats(min_value=-5.0, max_value=0.0)
    elif source == "palette":
        score = st.sampled_from([-0.1, -0.5, -0.7, -1.0])
    else:
        score = st.just(draw(st.sampled_from([-0.7, -0.1, -1 / 3, -2.5, -30.0])))
    cands = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        tokens = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=12))
        scores = draw(st.lists(score, min_size=len(tokens), max_size=len(tokens)))
        cands.append(ScoredCandidate(tuple(tokens), tuple(scores)))
    return CandidateSet("h", tuple(cands))


@settings(max_examples=400, deadline=None)
@given(oracle_sets())
def test_linear_oracle_matches_exhaustive_reference(cset):
    lattice = build_lattice(prepared(cset))
    assume(path_count(lattice) <= 10**4)
    best = oracle_best(lattice)
    assert best == reference_oracle_best(lattice)
    assert best == candidate_soups(cset).tokens


def exact(rows):
    """Rows of floats as their bit patterns: float.hex tells -0.0 from 0.0."""
    return tuple(tuple(map(float.hex, row)) for row in rows)


def assert_means_are_fusion_scores(cset):
    # the module's stated invariant: the lattice's window means, computed
    # apart from the fusion module, equal fusion's trace bit for bit
    means = build_lattice(prepared(cset)).means
    fusion_scores = tuple(c.segment_scores for c in candidate_soups(cset).trace)
    assert means == fusion_scores
    assert exact(means) == exact(fusion_scores)


@settings(max_examples=400, deadline=None)
@given(oracle_sets())
def test_lattice_means_equal_fusion_segment_scores(cset):
    assert_means_are_fusion_scores(cset)


def test_lattice_means_equal_fusion_segment_scores_on_random_sets():
    rng = random.Random(34)
    for _ in range(500):
        assert_means_are_fusion_scores(random_candidate_set(rng))


def test_oracle_runs_far_beyond_the_enumeration_cap():
    # one criterion-7-shaped sentence: 60 tokens, k=5, vocabulary of 80
    rng = random.Random(99)
    vocab = word_vocab(80)
    references = random_references(rng, 1, vocab, min_len=60, max_len=60)
    (cset,) = generate_corpus(references, 5, NoiseConfig(rng_seed=1), vocab=vocab)
    lattice = build_lattice(prepared(cset))
    assert path_count(lattice) > DEFAULT_PATH_CAP
    assert oracle_best(lattice) == candidate_soups(cset).tokens
