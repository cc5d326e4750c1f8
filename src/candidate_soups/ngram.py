"""The n-gram language model and its scorer.

``NGramScorer`` wraps an add-alpha-smoothed n-gram language model trained
on a reference corpus and stands in for a heavier sequence model; it scores
target tokens only and ignores the source side (the interface carries the
source so a conditional scorer can be plugged in later).  ``train_ngram``
counts a corpus, ``save_ngram`` writes a model and ``load_ngram`` reads one
back.  Only a run that trains or scores with a model loads this module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import repeat

from .candidates import DEFAULT_SCORE_FLOOR, ScoredCandidate, _decimal, _tokens_valid, record
from .errors import EmptyInput
from .scoring import Scorer

# Sentence-boundary symbols.  Corpus tokens that collide with these literals
# are treated as boundaries; callers control tokenization.
START_SYMBOL = "<s>"
END_SYMBOL = "</s>"

# The highest n-gram order a model or ``ngram-train --order`` takes.  Scoring
# builds order - 1 shifted slices per candidate, so the cost of an order grows
# with its square.
MAX_ORDER = 32


class NGramModel(record("NGramModel", "order alpha counts log_probs vocabulary unseen")):
    """Add-alpha-smoothed n-gram counts; immutable once trained.

    ``counts`` maps a context tuple to its continuations' counts and
    ``vocabulary`` (a frozenset) holds every observed target, including the
    end symbol.  ``log_probs`` maps each trained context to a pair: a dict
    from each of its continuations to log p(token | context), and the log
    probability of any other token after it.  ``unseen`` is that pair for
    every context the model never saw: an empty dict and log(alpha /
    smoothing), where the smoothing is alpha times the event count.
    Probabilities normalize over the vocabulary plus one unknown class, so
    for every context the probabilities of all events sum to one.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"NGramModel(order={self.order!r}, alpha={self.alpha!r})"

    def probability(self, context: tuple[str, ...], token: str) -> float:
        """p(token | context) under add-alpha smoothing.

        Unknown tokens (and tokens in unseen contexts) fall into a single
        unknown class sharing the same smoothed mass.
        """
        by_token = self.counts.get(context, {})
        count = by_token.get(token, 0)
        total = sum(by_token.values())
        event_count = len(self.vocabulary) + 1  # one extra unknown class
        return (count + self.alpha) / (total + self.alpha * event_count)


def _check_settings(order: int, alpha: float) -> None:
    """The settings every model holds: an integer order in 1..MAX_ORDER and a finite alpha > 0."""
    if not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"n-gram order must be an integer in 1..{MAX_ORDER}, got {order!r}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"smoothing constant must be a finite number > 0, got {alpha!r}")


def _model(order: int, alpha: float, counts: dict[tuple[str, ...], dict[str, int]]) -> NGramModel:
    """The model of these counts; ValueError if some probability is 0, which has no log.

    The vocabulary, the log-probability table and the unseen-context pair
    are derived from the counts, once per model: every context occurrence
    has exactly one continuation, so a context's total is the sum of its
    counts, and every trained token (the end symbol too) occurs as some
    n-gram's target.  Each table entry, and the unseen pair's log, is the
    log of ``NGramModel.probability``'s arithmetic, in the same order.
    """
    totals = {context: sum(by_token.values()) for context, by_token in counts.items()}
    vocab = frozenset(token for by_token in counts.values() for token in by_token)
    smoothing = alpha * (len(vocab) + 1)  # one extra unknown class
    # the least probability of any event: an unknown token after the commonest context
    try:
        least = alpha / (max(totals.values(), default=0) + smoothing)
    except OverflowError:  # a total beyond the float range
        least = 0.0
    if not least > 0:
        raise ValueError(f"n-gram counts too large for smoothing constant {alpha!r}")
    log = math.log
    log_probs = {}
    for context, by_token in counts.items():
        denominator = totals[context] + smoothing
        # a loop, not a dict comprehension: twice as fast here
        table = {}
        for token, count in by_token.items():
            table[token] = log((count + alpha) / denominator)
        log_probs[context] = (table, log(alpha / denominator))
    return NGramModel(order, alpha, counts, log_probs, vocab, ({}, log(alpha / smoothing)))


def train_ngram(corpus: Iterable[Sequence[str]], n: int = 3, alpha: float = 0.1) -> NGramModel:
    """Count n-grams over a corpus with start padding and one end symbol.

    Each sentence is padded with ``n - 1`` start symbols and closed with one
    end symbol, so the end symbol is a predictable event while the start
    symbols appear only in contexts.

    Raises EmptyInput when the corpus has no sentences, and ValueError on
    settings that ``_check_settings`` rejects or counts that ``_model`` does.
    """
    _check_settings(n, alpha)

    counts: dict[tuple[str, ...], dict[str, int]] = {}
    seen_any = False
    for sentence in corpus:
        seen_any = True
        padded = [START_SYMBOL] * (n - 1) + list(sentence) + [END_SYMBOL]
        for i in range(len(sentence) + 1):
            context = tuple(padded[i : i + n - 1])
            target = padded[i + n - 1]
            counts.setdefault(context, {})
            counts[context][target] = counts[context].get(target, 0) + 1
    if not seen_any:
        raise EmptyInput("n-gram training corpus has no sentences")
    return _model(n, alpha, counts)


def ngram_score(
    model: NGramModel,
    tokens: Sequence[str],
    score_floor: float = DEFAULT_SCORE_FLOOR,
) -> list[float]:
    """Per-token log p(token | previous n-1 tokens), clamped to the floor.

    Reads each token's log-probability from ``model.log_probs``; a context
    the model never saw reads ``model.unseen``, which gives every token
    log(alpha / smoothing).  These are the logs of
    ``NGramModel.probability``'s arithmetic, in the same order, so the
    scores are bit-identical to taking the log of it token by token.
    Raises ValueError when ``score_floor`` is above zero or NaN.
    """
    if not score_floor <= 0:
        raise ValueError(f"score_floor must be <= 0, got {score_floor!r}")
    n = model.order
    padded = (START_SYMBOL,) * (n - 1) + tuple(tokens)
    # contexts[i] is padded[i : i + n - 1]; an order-1 model has empty contexts
    contexts = zip(*[padded[i:] for i in range(n - 1)]) if n > 1 else repeat(())
    table, unseen = model.log_probs, model.unseen
    # max(score_floor, score) without the call: the floor unless score is above it
    return [
        score if score > score_floor else score_floor
        for ctx, tok in zip(contexts, tokens)
        for by_token, unknown in (table.get(ctx, unseen),)
        for score in (by_token.get(tok, unknown),)
    ]


class NGramScorer(Scorer):
    """Scorer backed by a trained ``NGramModel``; target-side only.

    Keeps nothing between calls, since ``cds`` rescores a record's set once.
    The model and floor are fixed after construction, so it stays
    deterministic and safe for concurrent use.
    """

    def __init__(self, model: NGramModel, score_floor: float = DEFAULT_SCORE_FLOOR):
        if not score_floor <= 0:
            raise ValueError(f"score_floor must be <= 0, got {score_floor!r}")
        self.model = model
        self.score_floor = score_floor

    def rescore(
        self, source: Sequence[str] | None, candidate: ScoredCandidate
    ) -> tuple[float, ...]:
        """Scores of ``candidate.tokens``; its stored scores play no part."""
        return tuple(ngram_score(self.model, candidate.tokens, self.score_floor))


def save_ngram(model: NGramModel, path: str) -> None:
    """Write a model as ``ngram <n> <alpha>`` plus one count line per n-gram.

    Lines are ``<context tokens>\\t<token>\\t<count>`` in sorted order, so
    save -> load -> save is byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f"ngram {model.order} {model.alpha!r}\n")
        for context in sorted(model.counts):
            by_token = model.counts[context]
            for token in sorted(by_token):
                fp.write(f"{' '.join(context)}\t{token}\t{by_token[token]}\n")


def load_ngram(path: str) -> NGramModel:
    """Load a model written by ``save_ngram``, or raise ValueError.

    A count line that ``save_ngram`` would not write is an error that names
    the line (the order and every count are ASCII decimal digits), and
    ``_model`` checks the counts, so every ``ngram_score`` of a model that
    loads is a finite log-probability.
    """
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fp:
        header = fp.readline().split()
        try:  # a header error names line 1, as a count line's error names its line
            if len(header) != 3 or header[0] != "ngram":
                raise ValueError("not an n-gram model file")
            order = _decimal(header[1])
            alpha = float(header[2])
            _check_settings(header[1] if order is None else order, alpha)
        except ValueError as exc:
            raise ValueError(f"{path}: line 1: {exc}") from None
        for line_no, line in enumerate(fp, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:  # every ValueError of the line (a bad field count too) names it
                context_part, token, count_text = line.split("\t")
                context = tuple(context_part.split(" ")) if context_part else ()
                count = _decimal(count_text) or 0
                by_token = counts.setdefault(context, {})
                if (
                    count < 1
                    or len(context) != order - 1
                    or token in by_token
                    or not _tokens_valid((*context, token))
                ):
                    raise ValueError(
                        f"expected {order - 1} context token(s), a token and a count >= 1, "
                        "tab-separated, no whitespace within a token, each n-gram once"
                    )
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            by_token[token] = count
    return _model(order, alpha, counts)
