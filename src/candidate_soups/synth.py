"""Synthetic candidate sets from reference sentences under a noisy channel.

Each candidate independently corrupts the reference token by token:
substitution, deletion, duplication of the emitted token, and insertion of
random vocabulary tokens.  Correct tokens get scores drawn near the
correct-score mean and corrupted tokens near the (much lower) error-score
mean, encoding a model that is less confident where it errs.  Generation is
fully deterministic: candidate i of sentence s uses an RNG stream derived
from (seed, s, i), so regenerating with a different candidate count leaves
the shared prefix of candidates unchanged.  Scores are clamped to
[``DEFAULT_SCORE_FLOOR``, 0], the range the CLI reads without a warning.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence

from .candidates import DEFAULT_SCORE_FLOOR, CandidateSet, ScoredCandidate, record
from .errors import EmptyInput


class NoiseConfig(record(
    "NoiseConfig",
    "substitution_rate insertion_rate deletion_rate duplication_rate"
    " correct_score_mean correct_score_std error_score_mean error_score_std rng_seed",
    defaults=(0.15, 0.03, 0.03, 0.05, -0.15, 0.05, -2.0, 0.5, 0),
)):
    """The channel's rates, score distributions and seed; ValueError when one is out of range."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> NoiseConfig:
        config = super().__new__(cls, *args, **kwargs)
        for name in ("substitution_rate", "insertion_rate", "deletion_rate", "duplication_rate"):
            rate = getattr(config, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("correct_score_mean", "error_score_mean"):
            mean = getattr(config, name)
            if not -math.inf < mean <= 0:
                raise ValueError(f"{name} must be a finite number <= 0, got {mean}")
        for name in ("correct_score_std", "error_score_std"):
            std = getattr(config, name)
            if not 0 <= std < math.inf:
                raise ValueError(f"{name} must be a finite number >= 0, got {std}")
        return config


class Vocabulary(tuple):
    """Distinct tokens in first-appearance order; ``positions`` maps each to its index.

    ``generate_candidates`` takes one; build it once for many calls.
    """

    def __new__(cls, tokens: Iterable[str]) -> Vocabulary:
        positions = {tok: i for i, tok in enumerate(dict.fromkeys(tokens))}
        self = super().__new__(cls, positions)
        self.positions = positions
        return self


def _clamp(score: float) -> float:
    return min(0.0, max(DEFAULT_SCORE_FLOOR, score))


def _corrupt(
    reference: Sequence[str], rng: random.Random, config: NoiseConfig, vocab: Vocabulary
) -> ScoredCandidate:
    def correct() -> float:
        return _clamp(rng.gauss(config.correct_score_mean, config.correct_score_std))

    def error() -> float:
        return _clamp(rng.gauss(config.error_score_mean, config.error_score_std))

    tokens: list[str] = []
    scores: list[float] = []
    for tok in reference:
        if rng.random() < config.insertion_rate:
            tokens.append(vocab[rng.randrange(len(vocab))])
            scores.append(error())
        if rng.random() < config.deletion_rate:
            continue
        substituted = rng.random() < config.substitution_rate
        if substituted:
            # draw from the vocabulary excluding the reference token itself
            pos = vocab.positions.get(tok, -1)
            if pos >= 0 and len(vocab) > 1:
                idx = rng.randrange(len(vocab) - 1)
                if idx >= pos:
                    idx += 1
            else:
                idx = rng.randrange(len(vocab))
            emitted = vocab[idx]
            substituted = emitted != tok
        else:
            emitted = tok
        tokens.append(emitted)
        scores.append(error() if substituted else correct())
        if rng.random() < config.duplication_rate:
            # a length artifact, not a content error: same score class
            tokens.append(emitted)
            scores.append(error() if substituted else correct())
    if not tokens:
        tokens.append(vocab[rng.randrange(len(vocab))])
        scores.append(error())
    return ScoredCandidate(tuple(tokens), tuple(scores))


def generate_candidates(
    reference: Sequence[str],
    k: int,
    config: NoiseConfig,
    vocab: Vocabulary,
    ident: str = "0",
) -> CandidateSet:
    """Generate k independent corruptions of one reference sentence.

    ``vocab`` is the ``Vocabulary`` that insertions and substitutions draw
    from.  Raises EmptyInput when the reference has no tokens, then
    ValueError when k < 1 or the vocabulary is empty.
    """
    if not reference:
        raise EmptyInput(f"reference {ident!r} is empty")
    if k < 1:
        raise ValueError(f"candidate count must be >= 1, got {k}")
    if not vocab:
        raise ValueError("vocabulary is empty")
    candidates = tuple(
        _corrupt(reference, random.Random(f"{config.rng_seed}:{ident}:{i}"), config, vocab)
        for i in range(k)
    )
    return CandidateSet(ident, candidates)


def generate_corpus(
    references: Sequence[Sequence[str]],
    k: int,
    config: NoiseConfig,
    vocab: Sequence[str] | None = None,
) -> list[CandidateSet]:
    """Generate one candidate set per reference; ids are the 0-based indices.

    When no vocabulary is given, the union of all reference tokens is used
    (in first-appearance order, so generation stays deterministic).  The
    vocabulary is prepared once for the whole corpus.
    """
    vocab = Vocabulary(vocab if vocab is not None else (tok for ref in references for tok in ref))
    return [
        generate_candidates(ref, k, config, vocab, ident=str(i))
        for i, ref in enumerate(references)
    ]
