"""Core data types for scored candidates, validation, and duplicate removal.

A candidate is a token sequence paired with aligned per-token
log-probabilities (natural log, each <= 0).  Tokens are plain strings;
segmentation (BPE, words, ...) is the caller's concern.  All types are
immutable after construction and all operations are pure, so values can be
shared freely between concurrent workers.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from itertools import compress
from operator import ne

from .errors import EmptyCandidate, InvalidToken, LengthMismatch, PositiveScore

logger = logging.getLogger(__name__)

# Scores below this are clamped during validation; prevents -inf from
# poisoning segment means.  Overridable per call (CLI: CDS_SCORE_FLOOR).
DEFAULT_SCORE_FLOOR = -30.0


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate token sequence with aligned per-token log-probabilities."""

    tokens: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "scores", tuple(map(float, self.scores)))

    def __len__(self) -> int:
        return len(self.tokens)

    def mean_score(self) -> float:
        return math.fsum(self.scores) / len(self.scores)


@dataclass(frozen=True)
class CandidateSet:
    """All candidate translations for one source sentence."""

    id: str
    candidates: tuple[ScoredCandidate, ...]
    source: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.source is not None:
            object.__setattr__(self, "source", tuple(self.source))

    def __len__(self) -> int:
        return len(self.candidates)


def remove_adjacent_duplicates(cand: ScoredCandidate) -> ScoredCandidate:
    """Collapse every run of equal adjacent tokens to a single occurrence.

    The retained score for a collapsed run is the score of the run's last
    element.  Relative order is preserved and the output never contains two
    adjacent equal tokens.  Idempotent.
    """
    tokens = cand.tokens
    # keep[i]: token i ends its run (the next token differs, or there is none)
    keep = list(map(ne, tokens, tokens[1:]))
    if all(keep):
        return cand
    keep.append(True)
    return ScoredCandidate(tuple(compress(tokens, keep)), tuple(compress(cand.scores, keep)))


_WHITESPACE = re.compile(r"\s")


def _check_token(tok: str, where: str) -> None:
    if not isinstance(tok, str) or not tok or _WHITESPACE.search(tok):
        raise InvalidToken(f"{where}: token {tok!r} must be a non-empty string without whitespace")


def _check_tokens(tokens: tuple[str, ...], where: str) -> None:
    # Fast path: str.split() and re's \s agree on what whitespace is, and
    # splitting yields only non-empty, whitespace-free pieces, so the round
    # trip is lossless exactly when every token is valid.
    try:
        if " ".join(tokens).split() == list(tokens):
            return
    except TypeError:  # a token that is not a string
        pass
    for tok in tokens:
        _check_token(tok, where)


def validate(cset: CandidateSet, score_floor: float = DEFAULT_SCORE_FLOOR) -> CandidateSet:
    """Check all type invariants, clamping scores below ``score_floor``.

    Returns the set unchanged when every invariant holds.  Scores below the
    floor are clamped to it and a warning is logged; scores above zero (or
    NaN) are an error.

    Raises:
        EmptyCandidate: the set has no candidates, or a candidate no tokens.
        LengthMismatch: a candidate's token and score counts differ.
        PositiveScore: a score is greater than zero or not a real number.
        InvalidToken: a token is empty or contains whitespace.
    """
    if not cset.candidates:
        raise EmptyCandidate(f"candidate set {cset.id!r} has no candidates")
    if cset.source is not None:
        _check_tokens(cset.source, f"set {cset.id!r} source")

    clamped = 0
    out: list[ScoredCandidate] = []
    for idx, cand in enumerate(cset.candidates):
        where = f"set {cset.id!r} candidate {idx}"
        if not cand.tokens:
            raise EmptyCandidate(f"{where} has no tokens")
        if len(cand.tokens) != len(cand.scores):
            raise LengthMismatch(
                f"{where}: {len(cand.tokens)} tokens vs {len(cand.scores)} scores"
            )
        _check_tokens(cand.tokens, where)
        scores = cand.scores
        if max(scores) <= 0 and min(scores) >= score_floor and not any(map(math.isnan, scores)):
            out.append(cand)
            continue
        fixed: list[float] = []
        touched = False
        for score in cand.scores:
            if math.isnan(score) or score > 0:
                raise PositiveScore(f"{where}: score {score!r} must be <= 0")
            if score < score_floor:
                fixed.append(score_floor)
                touched = True
                clamped += 1
            else:
                fixed.append(score)
        out.append(ScoredCandidate(cand.tokens, tuple(fixed)) if touched else cand)

    if clamped:
        logger.warning(
            "clamped %d score(s) below %s in candidate set %s", clamped, score_floor, cset.id
        )
        return CandidateSet(cset.id, tuple(out), cset.source)
    return cset

