"""Fixtures shared by several test modules."""

import random
import warnings

import pytest
from hypothesis import Phase, settings

from candidate_soups import ngram
from candidate_soups.synth import NoiseConfig, generate_corpus
from helpers import random_references, word_vocab

# The hypothesis plugin imports this module (and libcst through it) to report a
# failing test, and libcst's import warns of a deprecation, which ``-W error``
# turns into an INTERNALERROR that hides the falsifying example.  Importing it
# once here, with that warning ignored, leaves the plugin the loaded module.
# Without libcst there is nothing to load.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


# ``tests/mutants.py`` runs its tests under this profile (``--hypothesis-profile
# mutants``).  A kill needs only a failing example, not a shrunk one; with no
# database and a fixed seed, every run of the catalogue draws the same examples.
settings.register_profile(
    "mutants",
    phases=(Phase.explicit, Phase.generate),
    database=None,
    derandomize=True,
    deadline=None,
)


@pytest.fixture(scope="session")
def quality_corpus():
    """The criterion-5 corpus: 2000 references of 8-20 tokens, k=5, default noise."""
    rng = random.Random(20260810)
    vocab = word_vocab(50)
    references = random_references(rng, 2000, vocab, min_len=8, max_len=20)
    sets = generate_corpus(references, 5, NoiseConfig(rng_seed=0), vocab=vocab)
    return references, sets


@pytest.fixture
def ngram_score_calls(monkeypatch):
    """The token tuples ``ngram.ngram_score`` is called with, in call order."""
    calls = []
    original = ngram.ngram_score

    def counting(model, tokens, score_floor):
        calls.append(tuple(tokens))
        return original(model, tokens, score_floor)

    monkeypatch.setattr(ngram, "ngram_score", counting)
    return calls
