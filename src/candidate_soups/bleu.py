"""Corpus-level BLEU with brevity penalty and per-sentence n-gram clipping.

Clipped n-gram counts are summed across the corpus first and divided last
(no per-sentence averaging), matching the original metric.  One reference
per hypothesis.  Token streams are compared as-is; callers control
tokenization.

A ``Reference`` collects one reference sentence's n-grams once, as a set
per order plus a count for only the n-grams that occur twice or more, and
keeps the clipped matches of each distinct hypothesis scored against it.
An order with a repeat is counted once, with a ``Counter`` whose keys are
its set; an order without one (and every order above it, since a repeated
n-gram holds a repeated shorter one) is a plain set.
The clipped count of an order, the sum of min(h, r) over the n-grams both
sides hold (h times in the hypothesis, r in the reference), is the size of
the intersection of the two sets plus min(h, r) - 1 for each n-gram that
repeats on both sides; so a hypothesis is counted with a ``Counter`` only
at an order where both sides repeat some n-gram, and otherwise the sets
do the work in C.  N-grams come from ``zip`` over shifted slices, and no
list of them is built.

``BleuAccumulator.add`` takes a hypothesis and a ``Reference``.
``corpus_bleu`` builds one per sentence pair.  ``cds compare`` builds one
per record and adds every method's output (and each k of its sweep) against
it, so the hypotheses that coincide within a record are clipped once;
nothing is kept between records.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence, Set as AbstractSet

from .candidates import record
from .errors import EmptyInput, LengthMismatch

TokenSeq = Sequence[str]


class BleuReport(
    record("BleuReport", "bleu ngram_precisions brevity_penalty hyp_length ref_length")
):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "bleu": self.bleu,
            "precisions": self.ngram_precisions,
            "bp": self.brevity_penalty,
            "hyp_len": self.hyp_length,
            "ref_len": self.ref_length,
        }


def _ngrams(tokens: tuple[str, ...], n: int):
    """The n-grams of ``tokens``: the tokens themselves for n = 1, else tuples."""
    return tokens if n == 1 else zip(*[tokens[i:] for i in range(n)])


class Reference:
    """One non-empty reference sentence, with its n-grams of orders 1..max_n.

    For each order it keeps the set of its n-grams (the keys of its
    ``Counter`` at an order with a repeat) and a count for only those that
    occur twice or more; unigrams are the tokens themselves, longer n-grams
    tuples.  ``clipped_matches`` remembers its result for
    each distinct hypothesis in a dict that lives as long as this object,
    so build one per reference sentence and let it go with that sentence.
    It serves any ``BleuAccumulator`` whose ``max_n`` is at most its own.
    Not meant to be shared between threads.

    Raises EmptyInput for an empty reference.
    """

    __slots__ = ("tokens", "max_n", "_grams", "_matches")

    def __init__(self, tokens: TokenSeq, max_n: int = 4):
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        if not tokens:
            raise EmptyInput("reference sentence is empty")
        self.tokens = tokens = tuple(tokens)
        self.max_n = max_n
        self._grams: list[tuple[AbstractSet, dict]] = []
        repeating = True  # an order without a repeated n-gram has none above it
        for n in range(1, max_n + 1):
            grams = _ngrams(tokens, n)
            if repeating:
                grams = Counter(grams)
                repeating = len(grams) < len(tokens) - n + 1  # some n-gram occurs twice
            if repeating:
                self._grams.append((grams.keys(), {g: c for g, c in grams.items() if c > 1}))
            else:
                self._grams.append((set(grams), {}))
        self._matches: dict[tuple[str, ...], tuple[int, ...]] = {}

    def clipped_matches(self, hypothesis: TokenSeq) -> tuple[int, ...]:
        """Clipped matches of orders 1..min(max_n, len(hypothesis)).

        Each hypothesis n-gram counts at most as often as in the reference.
        Orders longer than the hypothesis have no n-grams and are left out.
        """
        hypothesis = tuple(hypothesis)
        matches = self._matches.get(hypothesis)
        if matches is None:
            matches = self._matches[hypothesis] = self._clip(hypothesis)
        return matches

    def _clip(self, hypothesis: tuple[str, ...]) -> tuple[int, ...]:
        # sum of min(h, r) over shared n-grams = |H & R| + sum of (min(h, r) - 1)
        # over the n-grams that both sides hold twice or more
        matches = []
        for n, (ref_grams, ref_repeats) in enumerate(self._grams, start=1):
            if n > len(hypothesis):
                break  # no n-gram of this order or longer fits
            if not ref_repeats:
                matches.append(len(ref_grams.intersection(_ngrams(hypothesis, n))))
                continue
            grams = set(_ngrams(hypothesis, n))
            matched = len(grams & ref_grams)
            if len(grams) < len(hypothesis) - n + 1:
                hyp_counts = Counter(_ngrams(hypothesis, n))
                for gram, r in ref_repeats.items():
                    h = hyp_counts.get(gram, 0)
                    if h > 1:
                        matched += min(h, r) - 1
            matches.append(matched)
        return tuple(matches)


class BleuAccumulator:
    """Streaming clipped-count accumulator, one sentence pair at a time."""

    def __init__(self, max_n: int = 4):
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        self.max_n = max_n
        self.matched = [0] * max_n
        self.total = [0] * max_n
        self.hyp_length = 0
        self.ref_length = 0
        self.pairs = 0

    def add(self, hypothesis: TokenSeq, reference: Reference) -> None:
        """Count one sentence pair.

        ``reference`` is a ``Reference`` of order at least ``max_n``; a
        caller that scores several hypotheses against one sentence builds
        it once and passes it to every add.  Raises ValueError for a
        reference of a lower order.
        """
        if reference.max_n < self.max_n:
            raise ValueError(
                f"reference counts n-grams up to {reference.max_n}, accumulator needs {self.max_n}"
            )
        matches = reference.clipped_matches(hypothesis)
        self.pairs += 1
        self.hyp_length += len(hypothesis)
        self.ref_length += len(reference.tokens)
        for n, matched in enumerate(matches[: self.max_n], start=1):
            self.matched[n - 1] += matched
            self.total[n - 1] += len(hypothesis) - n + 1

    def report(self, smoothing_epsilon: float | None = None) -> BleuReport:
        if self.pairs == 0:
            raise EmptyInput("no sentence pairs were scored")
        if self.hyp_length == 0:
            raise EmptyInput("hypotheses contain no tokens")
        precisions: list[float] = []
        for matched, total in zip(self.matched, self.total):
            if total == 0:
                # no n-grams of this order exist at all: vacuously perfect
                precisions.append(1.0)
            elif matched == 0 and smoothing_epsilon is not None:
                precisions.append(min(smoothing_epsilon, total) / total)
            else:
                precisions.append(matched / total)
        if self.hyp_length < self.ref_length:
            bp = math.exp(1.0 - self.ref_length / self.hyp_length)
        else:
            bp = 1.0
        if any(p == 0.0 for p in precisions):
            score = 0.0
        else:
            score = 100.0 * bp * math.exp(
                math.fsum(math.log(p) for p in precisions) / self.max_n
            )
        return BleuReport(score, tuple(precisions), bp, self.hyp_length, self.ref_length)


def corpus_bleu(
    hypotheses: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    max_n: int = 4,
    epsilon: float | None = None,
) -> BleuReport:
    """Corpus BLEU; without ``epsilon``, any precision of zero yields a score of zero.

    With ``epsilon``, a finite number > 0, a zero numerator counts as
    ``epsilon`` instead.  The score is then identical whenever every
    precision is positive; meant for sentence-level diagnostics where zero
    counts are routine.
    """
    if epsilon is not None and not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon!r}")
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyInput("empty corpus")
    acc = BleuAccumulator(max_n)
    for hyp, ref in zip(hypotheses, references):
        acc.add(hyp, Reference(ref, max_n))
    return acc.report(smoothing_epsilon=epsilon)
