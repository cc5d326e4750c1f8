"""Exception types shared across the package."""


class CdsError(Exception):
    """Base class for all candidate-fusion errors."""


class EmptyCandidate(CdsError):
    """A candidate (or a whole candidate set) contains no tokens."""


class LengthMismatch(CdsError):
    """Two sequences that must be aligned have different lengths."""


class PositiveScore(CdsError):
    """A log-probability score is above zero (or not a real number)."""


class InvalidToken(CdsError):
    """A token is empty or contains whitespace."""


class ScorerFailure(CdsError):
    """A scorer returned a score sequence misaligned with its input."""


class EmptyInput(CdsError):
    """An input that must hold content is empty: a training corpus, a reference, a BLEU input."""
