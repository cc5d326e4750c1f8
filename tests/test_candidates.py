import logging
import math

import pytest
from hypothesis import given, strategies as st

from candidate_soups import CandidateSet, ScoredCandidate, validate
from candidate_soups.candidates import remove_adjacent_duplicates
from candidate_soups.errors import EmptyCandidate, InvalidToken, LengthMismatch, PositiveScore
from helpers import reference_remove_adjacent_duplicates


def cand(tokens, scores):
    return ScoredCandidate(tuple(tokens), tuple(scores))


class TestRemoveAdjacentDuplicates:
    def test_single_run_keeps_last_score(self):
        out = remove_adjacent_duplicates(cand(["a", "a", "b"], [-1.0, -0.5, -0.2]))
        assert out.tokens == ("a", "b")
        assert out.scores == (-0.5, -0.2)

    def test_no_repeats_is_identity(self):
        original = cand(["a", "b", "c"], [-0.3, -0.2, -0.1])
        assert remove_adjacent_duplicates(original) is original

    def test_run_collapse_matches_run_scanner(self):
        tokens = ["x", "x", "x", "y", "x"]
        scores = [-1.0, -2.0, -3.0, -4.0, -5.0]
        out = remove_adjacent_duplicates(cand(tokens, scores))
        assert out == reference_remove_adjacent_duplicates(cand(tokens, scores))
        assert out.tokens == ("x", "y", "x")
        assert out.scores == (-3.0, -4.0, -5.0)

    def test_final_token_always_retained(self):
        out = remove_adjacent_duplicates(cand(["a", "b", "b"], [-1.0, -2.0, -3.0]))
        assert out.tokens == ("a", "b")
        assert out.scores == (-1.0, -3.0)


@st.composite
def scored_candidates(draw, max_len=12):
    tokens = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=max_len))
    scores = draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=0.0, allow_nan=False),
            min_size=len(tokens),
            max_size=len(tokens),
        )
    )
    return cand(tokens, scores)


@given(scored_candidates())
def test_dedup_idempotent(candidate):
    once = remove_adjacent_duplicates(candidate)
    assert remove_adjacent_duplicates(once) == once


@given(scored_candidates())
def test_dedup_no_adjacent_equal_and_token_set_preserved(candidate):
    out = remove_adjacent_duplicates(candidate)
    assert all(a != b for a, b in zip(out.tokens, out.tokens[1:]))
    assert set(out.tokens) == set(candidate.tokens)
    assert len(out) <= len(candidate)
    assert len(out.tokens) == len(out.scores)


class TestValidate:
    def test_well_formed_set_passes_through(self):
        cset = CandidateSet("s", (cand(["a", "b"], [-0.1, -0.2]), cand(["c"], [-0.3])))
        assert validate(cset) is cset

    def test_length_mismatch(self):
        cset = CandidateSet("s", (cand(["a", "b", "c"], [-0.1, -0.2]),))
        with pytest.raises(LengthMismatch):
            validate(cset)

    def test_clamps_below_floor_and_warns(self, caplog):
        cset = CandidateSet("s", (cand(["a"], [-45.0]),))
        with caplog.at_level(logging.WARNING):
            out = validate(cset, score_floor=-30.0)
        assert out.candidates[0].scores == (-30.0,)
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_clamp_without_callback_logs_to_the_candidates_logger(self, caplog):
        cset = CandidateSet("s", (cand(["a", "b"], [-45.0, -31.0]),))
        with caplog.at_level(logging.WARNING, logger="candidate_soups"):
            validate(cset, score_floor=-30.0)
        (rec,) = caplog.records
        assert rec.name == "candidate_soups.candidates"
        assert rec.levelno == logging.WARNING
        assert rec.getMessage() == "clamped 2 score(s) below -30.0 in candidate set s"

    def test_clamp_with_callback_calls_it_instead_of_logging(self, caplog):
        cset = CandidateSet("s", (cand(["a"], [-45.0]),))
        messages = []
        with caplog.at_level(logging.DEBUG):
            out = validate(cset, -30.0, messages.append)
        assert out.candidates[0].scores == (-30.0,)
        assert messages == ["clamped 1 score(s) below -30.0 in candidate set s"]
        assert caplog.records == []

    def test_callback_not_called_without_clamping(self):
        cset = CandidateSet("s", (cand(["a"], [-1.0]),))
        messages = []
        assert validate(cset, -30.0, messages.append) is cset
        assert messages == []

    def test_positive_score(self):
        cset = CandidateSet("s", (cand(["a"], [0.5]),))
        with pytest.raises(PositiveScore):
            validate(cset)

    def test_nan_score_rejected(self):
        cset = CandidateSet("s", (cand(["a"], [float("nan")]),))
        with pytest.raises(PositiveScore):
            validate(cset)

    def test_zero_score_allowed(self):
        cset = CandidateSet("s", (cand(["a"], [0.0]),))
        assert validate(cset) is cset

    def test_empty_candidate(self):
        cset = CandidateSet("s", (ScoredCandidate((), ()),))
        with pytest.raises(EmptyCandidate):
            validate(cset)

    def test_empty_set(self):
        with pytest.raises(EmptyCandidate):
            validate(CandidateSet("s", ()))

    def test_whitespace_token_rejected(self):
        cset = CandidateSet("s", (cand(["a b"], [-0.1]),))
        with pytest.raises(InvalidToken):
            validate(cset)

    def test_empty_token_rejected(self):
        cset = CandidateSet("s", (cand([""], [-0.1]),))
        with pytest.raises(InvalidToken):
            validate(cset)

    def test_custom_floor(self):
        cset = CandidateSet("s", (cand(["a"], [-45.0]),))
        assert validate(cset, score_floor=-50.0) is cset

    @pytest.mark.parametrize("floor", [1.0, 0.5, math.nan])
    def test_floor_above_zero_or_nan_is_rejected(self, floor):
        # a floor of 1.0 used to "clamp" (-0.5, -1.0) to (1.0, 1.0)
        cset = CandidateSet("s", (cand(["a", "b"], [-0.5, -1.0]),))
        with pytest.raises(ValueError, match="score_floor must be <= 0"):
            validate(cset, floor)

    def test_negative_infinity_clamped(self):
        cset = CandidateSet("s", (cand(["a"], [float("-inf")]),))
        assert validate(cset).candidates[0].scores == (-30.0,)

    def test_clamp_keeps_and_does_not_count_scores_at_or_above_the_floor(self):
        cset = CandidateSet("s", (cand(["a", "b", "c"], [-45.0, -30.0, -1.0]), cand(["d"], [-2.0])))
        messages = []
        out = validate(cset, -30.0, messages.append)
        assert [c.scores for c in out.candidates] == [(-30.0, -30.0, -1.0), (-2.0,)]
        assert messages == ["clamped 1 score(s) below -30.0 in candidate set s"]
