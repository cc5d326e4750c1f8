"""Scorers: the re-scoring contract, the self scorer, and the NPD baseline.

``SelfScorer`` keeps the per-token log-probabilities the candidates arrived
with.  The other built-in scorer, ``NGramScorer``, lives in ``ngram`` with
the model it wraps, so a run that does not score with a model never loads it.

``npd_select`` is the single-candidate baseline: it keeps the one candidate
with the highest mean log-probability and discards the rest.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .candidates import CandidateSet, ScoredCandidate, _new, remove_adjacent_duplicates
from .errors import ScorerFailure


class Scorer:
    """Assigns per-token log-probabilities (each <= 0) to a candidate's tokens.

    ``rescore`` is the one method a scorer defines.  Implementations must be
    deterministic and safe for concurrent read-only use after construction.
    To fail one candidate set, raise a ``CdsError`` such as ``ScorerFailure``:
    ``cds fuse`` and ``cds npd`` report it on that record's line and go on.
    Any other exception is a fault in the scorer: it propagates unchanged out
    of ``rescore_set``, ``npd_select`` and ``candidate_soups``, and ends a run.
    """

    def rescore(self, source: Sequence[str] | None, candidate: ScoredCandidate) -> Sequence[float]:
        """Return one log-probability per token of ``candidate``.

        A scorer may read the candidate's stored scores, its tokens, or the
        source.  The sequence may be an immutable tuple shared with other
        callers; returning ``candidate.scores`` itself keeps the candidate.
        """
        raise NotImplementedError


class SelfScorer(Scorer):
    """Passes each candidate's stored scores through unchanged."""

    def rescore(self, source: Sequence[str] | None, candidate: ScoredCandidate) -> Sequence[float]:
        return candidate.scores


def rescore_set(cset: CandidateSet, scorer: Scorer) -> CandidateSet:
    """Dedup every candidate, then replace its scores with the scorer's.

    Both fusion and the NPD baseline work on deduped candidates, so the
    dedup is not optional.  It happens first so the new scores stay aligned
    with the traversed tokens.  Raises ScorerFailure when a scorer returns a
    score sequence whose length differs from the token count.
    """
    source, rescore = cset.source, scorer.rescore
    out: list[ScoredCandidate] = []
    for cand in cset.candidates:
        cand = remove_adjacent_duplicates(cand)
        scores = rescore(source, cand)
        tokens = cand.tokens
        if len(scores) != len(tokens):
            raise ScorerFailure(
                f"set {cset.id!r} candidate {len(out)}: scorer returned {len(scores)} "
                f"scores for {len(tokens)} tokens"
            )
        # a scorer that hands back the stored scores leaves the candidate as is
        if scores is not cand.scores:
            cand = _new(ScoredCandidate, (tokens, tuple(map(float, scores))))
        out.append(cand)
    return _new(CandidateSet, (cset.id, tuple(out), source))


def npd_index(prepared: CandidateSet) -> int:
    """The index of a rescored set's highest-mean candidate; ties go to the lowest index."""
    best_idx = 0
    best_mean = -math.inf
    for idx, cand in enumerate(prepared.candidates):
        mean = cand.mean_score()
        if mean > best_mean:
            best_idx, best_mean = idx, mean
    return best_idx


def npd_select(
    cset: CandidateSet,
    scorer: Scorer | None = None,
) -> tuple[int, ScoredCandidate]:
    """Keep the single candidate with the highest mean log-probability.

    ``cset`` must have passed ``validate``, as ``cds npd`` gives it; unlike
    ``candidate_soups``, this does not validate.  Candidates are deduped
    before scoring (as fusion does, so the two are comparable) and ranked
    by ``npd_index``.  Returns the winning index and the deduped candidate
    with its stored scores; the scorer influences selection only.
    """
    scorer = scorer if scorer is not None else SelfScorer()
    best_idx = npd_index(rescore_set(cset, scorer))
    return best_idx, remove_adjacent_duplicates(cset.candidates[best_idx])


# ``perfbench/run.py`` imports ``NGramScorer`` and ``load_ngram`` from this
# module.  They live in ``ngram`` and resolve here on first use (PEP 562), so
# importing ``scoring`` loads no model code.
_FROM_NGRAM = ("NGramScorer", "load_ngram")


def __getattr__(name: str):
    if name not in _FROM_NGRAM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ngram

    value = getattr(ngram, name)
    globals()[name] = value  # later lookups skip this function
    return value
