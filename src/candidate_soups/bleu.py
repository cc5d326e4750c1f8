"""Corpus-level BLEU with brevity penalty and per-sentence n-gram clipping.

BLEU here has one definition, Papineni et al.'s: the clipped precisions of
orders 1 to ``ORDER`` (4), their geometric mean times the brevity penalty,
and no smoothing, so a precision of zero scores 0.  Clipped n-gram counts
are summed across the corpus first and divided last (no per-sentence
averaging), matching the original metric.  One reference per hypothesis.
Token streams are compared as-is; callers control tokenization.

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

ORDER = 4  # the longest n-gram counted


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
    """One non-empty reference sentence, with its n-grams of orders 1..ORDER.

    For each order it keeps the set of its n-grams (the keys of its
    ``Counter`` at an order with a repeat) and a count for only those that
    occur twice or more; unigrams are the tokens themselves, longer n-grams
    tuples.  ``clipped_matches`` remembers its result for
    each distinct hypothesis in a dict that lives as long as this object,
    so build one per reference sentence and let it go with that sentence.
    Not meant to be shared between threads.

    Raises EmptyInput for an empty reference.
    """

    __slots__ = ("tokens", "_grams", "_matches")

    def __init__(self, tokens: TokenSeq):
        if not tokens:
            raise EmptyInput("reference sentence is empty")
        self.tokens = tokens = tuple(tokens)
        self._grams: list[tuple[AbstractSet, dict]] = []
        repeating = True  # an order without a repeated n-gram has none above it
        for n in range(1, ORDER + 1):
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
        """Clipped matches of orders 1..min(ORDER, len(hypothesis)).

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

    def __init__(self):
        self.matched = [0] * ORDER
        self.total = [0] * ORDER
        self.hyp_length = 0
        self.ref_length = 0
        self.pairs = 0

    def add(self, hypothesis: TokenSeq, reference: Reference) -> None:
        """Count one sentence pair.

        A caller that scores several hypotheses against one sentence builds
        its ``Reference`` once and passes it to every add.
        """
        matches = reference.clipped_matches(hypothesis)
        self.pairs += 1
        self.hyp_length += len(hypothesis)
        self.ref_length += len(reference.tokens)
        for i, matched in enumerate(matches):  # order i + 1
            self.matched[i] += matched
            self.total[i] += len(hypothesis) - i

    def report(self) -> BleuReport:
        if self.pairs == 0:
            raise EmptyInput("no sentence pairs were scored")
        if self.hyp_length == 0:
            raise EmptyInput("hypotheses contain no tokens")
        precisions: list[float] = []
        for matched, total in zip(self.matched, self.total):
            if total == 0:
                # no n-grams of this order exist at all: vacuously perfect
                precisions.append(1.0)
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
                math.fsum(math.log(p) for p in precisions) / ORDER
            )
        return BleuReport(score, tuple(precisions), bp, self.hyp_length, self.ref_length)


def corpus_bleu(hypotheses: Sequence[TokenSeq], references: Sequence[TokenSeq]) -> BleuReport:
    """Corpus BLEU of one hypothesis per reference; any precision of zero scores 0."""
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyInput("empty corpus")
    acc = BleuAccumulator()
    for hyp, ref in zip(hypotheses, references):
        acc.add(hyp, Reference(ref))
    return acc.report()
