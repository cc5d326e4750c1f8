"""Corpus-level BLEU with brevity penalty and per-sentence n-gram clipping.

Clipped n-gram counts are summed across the corpus first and divided last
(no per-sentence averaging), matching the original metric.  One reference
per hypothesis.  Token streams are compared as-is; callers control
tokenization.

N-grams are counted with ``Counter(zip(...))`` over shifted slices, so the
counting runs in C.  ``add`` takes a pair's clipped-match counts from a memo
of the last ``BLEU_MEMO_SIZE`` (hypothesis, reference, max_n) triples, and a
reference's counts for every order are computed once and reused while
consecutive misses pass the same reference.  ``cds compare`` adds one
reference per record for each method and each k of its sweep, and most of
those hypotheses coincide.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat

from .candidates import record
from .errors import EmptyInput, LengthMismatch

TokenSeq = Sequence[str]

# Distinct (hypothesis, reference, max_n) triples whose clipped matches are
# kept.  One record of ``compare --sweep-k`` adds at most 2k distinct
# hypotheses for a set of k candidates (every deduped candidate, and one
# fusion per subset size of 2..k plus the full set), all against one
# reference, so 16 holds a whole record for k <= 8.  Records do not share
# references, so more entries would only hold dead pairs.
BLEU_MEMO_SIZE = 16


class BleuReport(
    record("BleuReport", "bleu ngram_precisions brevity_penalty hyp_length ref_length")
):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "bleu": self.bleu,
            "precisions": list(self.ngram_precisions),
            "bp": self.brevity_penalty,
            "hyp_len": self.hyp_length,
            "ref_len": self.ref_length,
        }


def _ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


@lru_cache(maxsize=1)
def _reference_counts(reference: tuple[str, ...], max_n: int) -> tuple[Counter, ...]:
    """N-gram counts of orders 1..max_n; callers only read them."""
    return tuple(_ngram_counts(reference, n) for n in range(1, max_n + 1))


@lru_cache(maxsize=BLEU_MEMO_SIZE)
def _clipped_matches(
    hypothesis: tuple[str, ...], reference: tuple[str, ...], max_n: int
) -> tuple[int, ...]:
    """Clipped matches of orders 1..min(max_n, len(hypothesis)).

    Each hypothesis n-gram counts at most as often as in the reference.
    Orders longer than the hypothesis have no n-grams and are left out.
    """
    matches = []
    for n, ref_counts in enumerate(_reference_counts(reference, max_n), start=1):
        hyp_counts = _ngram_counts(hypothesis, n)
        if not hyp_counts:
            break  # no longer n-gram fits either
        matches.append(
            sum(map(min, hyp_counts.values(), map(ref_counts.get, hyp_counts, repeat(0))))
        )
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

    def add(self, hypothesis: TokenSeq, reference: TokenSeq) -> None:
        if not reference:
            raise EmptyInput("reference sentence is empty")
        self.pairs += 1
        self.hyp_length += len(hypothesis)
        self.ref_length += len(reference)
        matches = _clipped_matches(tuple(hypothesis), tuple(reference), self.max_n)
        for n, matched in enumerate(matches, start=1):
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


def _accumulate(
    hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq], max_n: int
) -> BleuAccumulator:
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyInput("empty corpus")
    acc = BleuAccumulator(max_n)
    for hyp, ref in zip(hypotheses, references):
        acc.add(hyp, ref)
    return acc


def corpus_bleu(
    hypotheses: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    max_n: int = 4,
) -> BleuReport:
    """Corpus BLEU; any precision of zero yields a score of zero."""
    return _accumulate(hypotheses, references, max_n).report()


def bleu_with_smoothing(
    hypotheses: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    max_n: int = 4,
    epsilon: float = 0.1,
) -> BleuReport:
    """Corpus BLEU with zero numerators replaced by ``epsilon``.

    Identical to ``corpus_bleu`` whenever every precision is positive; meant
    for sentence-level diagnostics where zero counts are routine.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    return _accumulate(hypotheses, references, max_n).report(smoothing_epsilon=epsilon)
