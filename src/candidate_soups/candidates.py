"""Core data types for scored candidates, validation, and duplicate removal.

A candidate is a token sequence paired with aligned per-token
log-probabilities (natural log, each <= 0).  Tokens are plain strings;
segmentation (BPE, words, ...) is the caller's concern.  All types are
immutable after construction and all operations are pure, so values can be
shared freely between concurrent workers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import compress
from math import isnan
from operator import ne

from .errors import EmptyCandidate, InvalidToken, LengthMismatch, PositiveScore

# Scores below this are clamped during validation; prevents -inf from
# poisoning segment means.  Library calls take a ``score_floor``; the CLI uses this.
DEFAULT_SCORE_FLOOR = -30.0

_CLAMP_WARNING = "clamped %d score(s) below %s in candidate set %s"

_new = tuple.__new__  # builds a record from fields that are already tuples


def _record_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def record(name: str, fields: str, defaults: Iterable | None = None) -> type:
    """Base class of an immutable record type: a named tuple of ``fields``.

    This is the package's one way to define an immutable value.  A record
    equals only a record of its own type with equal fields, as a frozen
    dataclass does; its hash is the hash of the field tuple and its repr
    ``Name(field=value, ...)``.  ``defaults``, as for ``namedtuple``, are
    the values of the last fields when a constructor call leaves them out.
    Subclasses set ``__slots__ = ()``, so assigning any attribute raises
    AttributeError.  Building one is a ``tuple.__new__`` call (``_new``),
    far cheaper than a frozen dataclass's ``object.__setattr__`` per field,
    and defining the class needs no ``dataclasses`` import.  Build records
    through their class: the named tuple's ``_make`` and ``_replace`` check
    ``len``, which ``ScoredCandidate`` and ``CandidateSet`` redefine.
    """
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__ = _record_eq
    base.__ne__ = lambda self, other: not _record_eq(self, other)
    base.__hash__ = tuple.__hash__
    return base


def _decimal(text: str) -> int | None:
    """``text`` as an integer if it is ASCII digits alone, else None.

    The one parser of every count, order and bound read from outside.
    """
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts: the caller's own message follows
        return None


class ScoredCandidate(record("ScoredCandidate", "tokens scores")):
    """One candidate token sequence with aligned per-token log-probabilities."""

    __slots__ = ()

    def __new__(cls, tokens: Iterable[str], scores: Iterable[float]) -> ScoredCandidate:
        return _new(cls, (tuple(tokens), tuple(map(float, scores))))

    def __len__(self) -> int:
        return len(self.tokens)

    def mean_score(self) -> float:
        return math.fsum(self.scores) / len(self.scores)


class CandidateSet(record("CandidateSet", "id candidates source")):
    """All candidate translations for one source sentence."""

    __slots__ = ()

    def __new__(
        cls,
        id: str,
        candidates: Iterable[ScoredCandidate],
        source: Iterable[str] | None = None,
    ) -> CandidateSet:
        source = tuple(source) if source is not None else None
        return _new(cls, (id, tuple(candidates), source))

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
    kept = (tuple(compress(tokens, keep)), tuple(compress(cand.scores, keep)))
    return _new(ScoredCandidate, kept)


def _tokens_valid(tokens: tuple[str, ...]) -> bool:
    """True when every token is a non-empty string without whitespace.

    Joined with no separator, the tokens hold whitespace only where a token
    does, and a string without whitespace splits into itself alone.
    """
    try:
        joined = "".join(tokens)
    except TypeError:  # a token that is not a string
        return False
    return "" not in tokens and joined.split(None, 1) == [joined]


def _check_tokens(tokens: tuple[str, ...], where: str) -> None:
    """Raise InvalidToken naming the first token that ``_tokens_valid`` rejects."""
    tok = next(t for t in tokens if not _tokens_valid((t,)))
    raise InvalidToken(f"{where}: token {tok!r} must be a non-empty string without whitespace")


def validate(
    cset: CandidateSet,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    warn: Callable[[str], object] | None = None,
) -> CandidateSet:
    """Check all type invariants, clamping scores below ``score_floor``.

    Returns the set unchanged when every invariant holds.  Scores below the
    floor are clamped to it, and one warning per set says how many were:
    ``warn(message)`` when a callback is given (the CLI writes it as a
    diagnostic line), else a ``logging`` warning on the
    ``candidate_soups.candidates`` logger.  ``logging`` is imported only
    then, so a caller with a callback never loads it.  Scores above zero
    (or NaN) are an error.

    Raises:
        EmptyCandidate: the set has no candidates, or a candidate no tokens.
        LengthMismatch: a candidate's token and score counts differ.
        PositiveScore: a score is greater than zero or not a real number.
        InvalidToken: a token is empty or contains whitespace.
        ValueError: ``score_floor`` is above zero or NaN.
    """
    if not score_floor <= 0:
        raise ValueError(f"score_floor must be <= 0, got {score_floor!r}")
    if not cset.candidates:
        raise EmptyCandidate(f"candidate set {cset.id!r} has no candidates")
    # an empty source is valid, though _tokens_valid(()) is False
    if cset.source and not _tokens_valid(cset.source):
        _check_tokens(cset.source, f"set {cset.id!r} source")

    clamped = 0
    out: list[ScoredCandidate] = []
    for idx, cand in enumerate(cset.candidates):
        tokens, scores = cand.tokens, cand.scores
        # a valid candidate whose scores lie in [score_floor, 0]: with no NaN
        # present max and min are exact, and the sum of such scores is never NaN
        if (
            tokens
            and len(tokens) == len(scores)
            and _tokens_valid(tokens)
            and max(scores) <= 0
            and min(scores) >= score_floor
            and not isnan(sum(scores))
        ):
            out.append(cand)
            continue
        where = f"set {cset.id!r} candidate {idx}"
        if not tokens:
            raise EmptyCandidate(f"{where} has no tokens")
        if len(tokens) != len(scores):
            raise LengthMismatch(f"{where}: {len(tokens)} tokens vs {len(scores)} scores")
        if not _tokens_valid(tokens):
            _check_tokens(tokens, where)
        # here some score lies outside [score_floor, 0]: either one is NaN or
        # positive, or the candidate has a score to clamp
        bad = next((s for s in scores if not s <= 0), None)
        if bad is not None:
            raise PositiveScore(f"{where}: score {bad!r} must be <= 0")
        clamped += sum(s < score_floor for s in scores)
        # the constructor makes an int floor a float
        out.append(ScoredCandidate(tokens, [max(s, score_floor) for s in scores]))

    if clamped:
        if warn is not None:
            warn(_CLAMP_WARNING % (clamped, score_floor, cset.id))
        else:
            import logging

            logging.getLogger(__name__).warning(_CLAMP_WARNING, clamped, score_floor, cset.id)
        return _new(CandidateSet, (cset.id, tuple(out), cset.source))
    return cset
