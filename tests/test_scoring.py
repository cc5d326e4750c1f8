import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from candidate_soups import (
    CandidateSet,
    NGramScorer,
    ScoredCandidate,
    Scorer,
    SelfScorer,
    load_ngram,
    npd_select,
    train_ngram,
)
from candidate_soups.candidates import remove_adjacent_duplicates
from candidate_soups.errors import EmptyInput, ScorerFailure
from candidate_soups.fusion import candidate_soups
from candidate_soups.scoring import (
    END_SYMBOL,
    MAX_ORDER,
    START_SYMBOL,
    ngram_score,
    rescore_set,
    save_ngram,
)
from helpers import cross_error_set, random_candidate_set

ALPHA = 0.1


def rescore_tokens(scorer, source, tokens):
    """``scorer.rescore`` of a candidate with these tokens and arbitrary stored scores."""
    return scorer.rescore(source, ScoredCandidate(tokens, (-1.0,) * len(tokens)))


class TestSelfScorer:
    def test_passes_stored_scores_through(self):
        cand = ScoredCandidate(("a", "b"), (-0.4, -0.9))
        assert SelfScorer().rescore(None, cand) == (-0.4, -0.9)

    def test_deduped_candidate_keeps_deduped_scores(self):
        cand = remove_adjacent_duplicates(
            ScoredCandidate(("a", "a", "b"), (-1.0, -0.5, -0.2))
        )
        assert SelfScorer().rescore(None, cand) == (-0.5, -0.2)

    def test_rescore_set_is_identity_after_dedup(self):
        cset = cross_error_set()
        prepared = rescore_set(cset, SelfScorer())
        assert prepared.candidates == tuple(
            remove_adjacent_duplicates(c) for c in cset.candidates
        )


class TestTrainNgram:
    def test_bigram_hand_count(self):
        # vocabulary {a, b, end}; one extra unknown class makes 4 events
        model = train_ngram([["a", "b"], ["a", "b"]], n=2, alpha=ALPHA)
        assert model.vocabulary == frozenset({"a", "b", END_SYMBOL})
        expected = (2 + ALPHA) / (2 + ALPHA * 4)
        assert model.probability(("a",), "b") == pytest.approx(expected, abs=1e-15)
        assert model.probability((START_SYMBOL,), "a") == pytest.approx(expected, abs=1e-15)

    def test_unigram_counts_end_symbol(self):
        # events seen: 'a' and the end symbol; vocabulary {a, end} -> 3 events
        model = train_ngram([["a"]], n=1, alpha=ALPHA)
        expected = (1 + ALPHA) / (2 + ALPHA * 3)
        assert model.probability((), "a") == pytest.approx(expected, abs=1e-15)

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput):
            train_ngram([], n=2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            train_ngram([["a"]], n=0)
        with pytest.raises(ValueError):
            train_ngram([["a"]], alpha=0.0)
        # a NaN alpha used to pass, since nan <= 0 is false
        for settings in ({"n": 2.0}, {"n": MAX_ORDER + 1}, {"alpha": float("nan")},
                         {"alpha": float("inf")}):
            with pytest.raises(ValueError):
                train_ngram([["a"]], **settings)


class TestNgramScore:
    def test_hand_computed_bigram_scores(self):
        model = train_ngram([["a", "b"], ["a", "b"]], n=2, alpha=ALPHA)
        p = (2 + ALPHA) / (2 + ALPHA * 4)
        scores = ngram_score(model, ["a", "b"])
        assert scores == pytest.approx([math.log(p), math.log(p)], abs=1e-12)

    def test_score_length_matches_token_length(self):
        model = train_ngram([["a", "b", "c"]], n=3)
        for tokens in (["a"], ["a", "b"], ["q", "r", "s", "t"]):
            assert len(ngram_score(model, tokens)) == len(tokens)

    def test_known_tokens_beat_unknown_tokens_per_token(self):
        sentence = ["alpha", "beta", "gamma", "delta"]
        model = train_ngram([sentence], n=3, alpha=ALPHA)
        known = ngram_score(model, sentence)
        unknown = ngram_score(model, ["u1", "u2", "u3", "u4"])
        for k_score, u_score in zip(known, unknown):
            assert k_score > u_score

    def test_scores_are_nonpositive_and_floored(self):
        model = train_ngram([["a", "b"]], n=2)
        scores = ngram_score(model, ["z"] * 5, score_floor=-3.0)
        assert all(-3.0 <= s <= 0.0 for s in scores)

    def test_per_context_normalization(self):
        rng = random.Random(5)
        vocab = ["a", "b", "c", "d"]
        corpus = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 6))] for _ in range(20)
        ]
        model = train_ngram(corpus, n=2, alpha=0.25)
        events = sorted(model.vocabulary)
        contexts = list(model.counts) + [("never-seen",)]
        for context in contexts:
            total = math.fsum(model.probability(context, tok) for tok in events)
            total += model.probability(context, "<unk-probe>")
            assert abs(total - 1.0) < 1e-9


class TestPersistence:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        corpus = [["a", "b", "a"], ["b", "c"], ["a"]]
        model = train_ngram(corpus, n=3, alpha=0.1)
        first = tmp_path / "m1.ngram"
        second = tmp_path / "m2.ngram"
        save_ngram(model, str(first))
        loaded = load_ngram(str(first))
        save_ngram(loaded, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_scores_identically(self, tmp_path):
        corpus = [["x", "y", "z"], ["x", "z"]]
        model = train_ngram(corpus, n=2, alpha=0.3)
        path = tmp_path / "m.ngram"
        save_ngram(model, str(path))
        loaded = load_ngram(str(path))
        assert loaded.order == model.order
        assert loaded.alpha == model.alpha
        assert loaded.vocabulary == model.vocabulary
        query = ["x", "y", "q", "z"]
        assert ngram_score(loaded, query) == ngram_score(model, query)

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus"
        named = re.escape(f"{path}: line 1: ")
        path.write_text("not a model\n")
        with pytest.raises(ValueError, match=named + "not an n-gram model file"):
            load_ngram(str(path))
        # headers train_ngram would never write used to load; a NaN alpha
        # scored every token at the floor
        for header in ["ngram 3 nan", "ngram 3 inf", "ngram 3 -1", "ngram 0 0.1",
                       f"ngram {MAX_ORDER + 1} 0.1", "ngram 3.0 0.1", "ngram 40 0.1",
                       # a full-width digit used to load as order 1
                       "ngram \uff11 0.1"]:
            path.write_text(header + "\na\tb\t1\n", encoding="utf-8")
            with pytest.raises(ValueError, match=named + "(n-gram order|smoothing)"):
                load_ngram(str(path))
        # a header error used to name neither the file nor its line
        for header in ["ngram 3 abc", "ngram 3", "ngram", "ngram 3 0.1 x", ""]:
            path.write_text(header + "\na\tb\t1\n")
            with pytest.raises(ValueError, match=named):
                load_ngram(str(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            # the count -1 used to load, and scoring hit log of a negative number
            ("ngram 2 0.1\n<s>\ta\t-1\na\tb\t1\n", 2),
            ("ngram 2 0.1\n<s>\ta\t1\na\tb\t0\n", 3),
            ("ngram 2 0.1\n<s>\ta\t1\n\na\tb\t1.0\n", 4),
            # a context of 3 tokens used to load into an order-2 model
            ("ngram 2 0.1\n<s> a b\tc\t1\n", 2),
            ("ngram 2 0.1\n\ta\t1\n", 2),
            ("ngram 1 0.1\na\t1\n", 2),
            ("ngram 1 0.1\n\ta\t1\t2\n", 2),
            ("ngram 1 0.1\n\ta b\t1\n", 2),
            ("ngram 1 0.1\n\ta\u2028\t1\n", 2),
            ("ngram 3 0.1\n<s>  \ta\t1\n", 2),
            ("ngram 2 0.1\n<s>\ta\t1\na\tb\t1\n<s>\ta\t1\n", 4),
            # a full-width digit used to load as the count 2
            ("ngram 1 0.1\n\ta\t\uff12\n", 2),
        ],
    )
    def test_bad_count_line_is_named(self, tmp_path, text, line):
        path = tmp_path / "bad.ngram"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line {line}: "):
            load_ngram(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "ngram 1 1e-300\n\ta\t" + "9" * 300 + "\n",  # a probability underflows to 0
            "ngram 1 0.1\n\ta\t" + "9" * 400 + "\n",  # a total beyond the float range
            "ngram 2 5e-324\n<s>\ta\t1\n<s>\tb\t1\n",
        ],
    )
    def test_counts_too_large_for_alpha_are_rejected(self, tmp_path, text):
        path = tmp_path / "big.ngram"
        path.write_text(text)
        with pytest.raises(ValueError, match="too large"):
            load_ngram(str(path))

    def test_training_rejects_a_model_it_could_not_load(self):
        with pytest.raises(ValueError, match="too large"):
            train_ngram([["a", "b"]], n=1, alpha=5e-324)


MODEL_TOKENS = ["a", "b", "ą", "日", START_SYMBOL, END_SYMBOL]
# mostly tokens that validate accepts
ANY_TOKEN = st.sampled_from([*MODEL_TOKENS * 4, "", "a b", "a\x0bb", "\x85"])
COUNT_TEXT = st.one_of(
    st.integers(min_value=-2, max_value=5).map(str),
    st.integers(min_value=1, max_value=10**400).map(str),
    st.sampled_from(["9" * 300, "9" * 400, "1.5", "", "x", "01", "+1", " 1", "\u0661"]),
)
ALPHA_TEXT = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr) | (
    st.sampled_from(["nan", "inf", "0", "-1", "5e-324", "1e308"])
)


@st.composite
def model_texts(draw):
    """Model files that are mostly well formed, with some fields that are not."""
    order = draw(st.integers(min_value=1, max_value=3))
    lines = [f"ngram {order} {draw(ALPHA_TEXT)}"]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        width = draw(st.sampled_from([order - 1] * 4 + [0, 1, 2, 3]))
        context = draw(st.lists(ANY_TOKEN, min_size=width, max_size=width))
        fields = [" ".join(context), draw(ANY_TOKEN), draw(COUNT_TEXT)]
        arity = draw(st.sampled_from([3] * 6 + [2, 4]))
        lines.append("\t".join((fields + ["1"])[:arity]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("models") / "model.ngram"


@settings(max_examples=300, deadline=None)
@given(text=model_texts())
@example(text="ngram 1 0.1\n\ta\t" + "9" * 400 + "\n")
@example(text="ngram 2 1e-300\n<s>\ta\t" + "9" * 300 + "\n")
@example(text="ngram 2 1e308\n<s>\ta\t1\na\tb\t1\n")
def test_every_model_that_loads_scores_finite_and_nonpositive(model_path, text):
    model_path.write_bytes(text.encode("utf-8"))
    try:
        model = load_ngram(str(model_path))
    except ValueError:
        return
    # every seen context, then every known token and an unknown one after it;
    # no floor, so a NaN or an infinite score would show
    for context in [*model.counts, ()]:
        for token in [*model.vocabulary, "<unseen>"]:
            scores = ngram_score(model, (*context, token), score_floor=-math.inf)
            assert all(-math.inf < score <= 0 for score in scores), (context, token)


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(st.lists(st.sampled_from(MODEL_TOKENS), max_size=6), min_size=1, max_size=5),
    order=st.integers(min_value=1, max_value=4),
    alpha=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(corpus=[[], [START_SYMBOL, END_SYMBOL, "a"], []], order=3, alpha=0.1)
def test_save_load_save_is_byte_identical(model_path, corpus, order, alpha):
    try:
        model = train_ngram(corpus, n=order, alpha=alpha)
    except ValueError:
        return  # nothing is saved: alpha is too small for the counts
    save_ngram(model, str(model_path))
    written = model_path.read_bytes()
    loaded = load_ngram(str(model_path))
    # the loaded model rebuilds the trained one field by field, totals and vocabulary too
    assert loaded._asdict() == model._asdict()
    save_ngram(loaded, str(model_path))
    assert model_path.read_bytes() == written


def two_candidate_set(mean_a, mean_b):
    return CandidateSet(
        "pair",
        (
            ScoredCandidate(("a", "b"), (mean_a, mean_a)),
            ScoredCandidate(("c", "d"), (mean_b, mean_b)),
        ),
    )


class TestNpdSelect:
    def test_picks_higher_mean(self):
        idx, winner = npd_select(two_candidate_set(-0.5, -0.3))
        assert idx == 1
        assert winner.tokens == ("c", "d")

    def test_single_candidate(self):
        cset = CandidateSet("one", (ScoredCandidate(("a",), (-0.2,)),))
        idx, winner = npd_select(cset)
        assert idx == 0
        assert winner.tokens == ("a",)

    def test_tie_goes_to_lowest_index(self):
        idx, _ = npd_select(two_candidate_set(-0.4, -0.4))
        assert idx == 0

    def test_cross_error_pair_keeps_milder_error_whole(self):
        idx, winner = npd_select(cross_error_set())
        assert idx == 1
        assert "cost" in winner.tokens and "costs" not in winner.tokens

    def test_output_is_member_of_deduped_set(self):
        rng = random.Random(21)
        for _ in range(200):
            cset = random_candidate_set(rng)
            _, winner = npd_select(cset)
            deduped = [remove_adjacent_duplicates(c) for c in cset.candidates]
            assert winner in deduped

    def test_shift_invariance_of_selected_index(self):
        rng = random.Random(22)
        for _ in range(200):
            cset = random_candidate_set(rng)
            delta = rng.uniform(-4.0, 0.0)
            shifted = CandidateSet(
                cset.id,
                tuple(
                    ScoredCandidate(c.tokens, tuple(s + delta for s in c.scores))
                    for c in cset.candidates
                ),
            )
            assert npd_select(cset)[0] == npd_select(shifted)[0]


class _FaultyScorer(Scorer):
    def __init__(self, error):
        self.error = error

    def rescore(self, source, candidate):
        raise self.error


@pytest.mark.parametrize("error", [KeyError("bug"), ScorerFailure("no scores")])
def test_scorer_exceptions_propagate_unchanged(error):
    # a CdsError fails one set; any other exception is a fault in the scorer
    cset = cross_error_set()
    for call in (rescore_set, npd_select, candidate_soups):
        with pytest.raises(type(error)) as raised:
            call(cset, _FaultyScorer(error))
        assert raised.value is error


def test_scorer_determinism():
    model = train_ngram([["a", "b", "c"], ["a", "c"]], n=2)
    scorer = NGramScorer(model)
    tokens = ["a", "q", "c"]
    assert rescore_tokens(scorer, None, tokens) == rescore_tokens(scorer, None, tokens)
    self_s = SelfScorer()
    cand = ScoredCandidate(("a", "b"), (-0.1, -0.2))
    assert self_s.rescore(None, cand) == self_s.rescore(None, cand)


@pytest.mark.parametrize("floor", [1.0, 0.5, math.nan])
def test_ngram_scorer_rejects_a_floor_above_zero_or_nan(floor):
    # a floor of 3.0 used to score every token 3.0, and NaN scored nan
    with pytest.raises(ValueError, match="score_floor must be <= 0"):
        NGramScorer(train_ngram([["a", "b"]], n=2), floor)


@pytest.mark.parametrize("floor", [3.0, math.nan])
def test_ngram_score_rejects_a_floor_above_zero_or_nan(floor):
    # a floor of 3.0 used to return [3.0, 3.0] here, and NaN [nan, nan]
    with pytest.raises(ValueError, match="score_floor must be <= 0"):
        ngram_score(train_ngram([["a", "b"]], n=2), ["a", "q"], floor)


def test_ngram_score_takes_a_floor_of_minus_infinity_and_of_zero():
    model = train_ngram([["a", "b"]], n=2)
    assert ngram_score(model, ["a", "q"], -math.inf) == ngram_score(model, ["a", "q"], -1e300)
    assert ngram_score(model, ["a", "q"], 0.0) == [0.0, 0.0]


class TestNGramScorerScores:
    def test_returned_scores_are_immutable(self):
        scorer = NGramScorer(train_ngram([["a", "b", "c"]], n=2))
        scores = rescore_tokens(scorer, None, ["a", "c"])
        assert isinstance(scores, tuple)
        with pytest.raises(TypeError):
            scores[0] = 0.0  # type: ignore[index]
        want = tuple(ngram_score(scorer.model, ["a", "c"]))
        assert rescore_tokens(scorer, None, ["a", "c"]) == want

    def test_scorers_keep_their_own_model(self):
        one = NGramScorer(train_ngram([["a", "b"]], n=2))
        other = NGramScorer(train_ngram([["b", "a"]], n=2))
        assert rescore_tokens(one, None, ["a", "b"]) != rescore_tokens(other, None, ["a", "b"])
        want = tuple(ngram_score(other.model, ["a", "b"]))
        assert rescore_tokens(other, None, ["a", "b"]) == want
