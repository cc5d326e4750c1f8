"""Shared fixtures: worked examples, random set generators, and oracles."""

from __future__ import annotations

import itertools
import logging
import math
import random
import re
from collections import Counter, namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction

from candidate_soups import BleuAccumulator, CandidateSet, CdsError, FusionResult, ScoredCandidate
from candidate_soups.alignment import AlignedPartition, Anchor, DivergenceRegion, PointerVector
from candidate_soups.candidates import DEFAULT_SCORE_FLOOR
from candidate_soups.errors import (
    EmptyCandidate,
    EmptyInput,
    InvalidToken,
    LengthMismatch,
    PositiveScore,
    ScorerFailure,
)
from candidate_soups.fusion import RegionChoice, select_segment
from candidate_soups.lattice_oracle import SimplifiedLattice, path_count
from candidate_soups.scoring import START_SYMBOL, NGramModel
from candidate_soups.synth import NoiseConfig

# the channel with every rate at 0: each candidate is its reference, scores aside
QUIET = NoiseConfig(
    substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.0, duplication_rate=0.0
)

# --- two candidates whose errors sit in opposite halves -------------------
# Candidate 0 garbles "required"; candidate 1 garbles "costs".  Error tokens
# score lower, and candidate 1's error is milder so whole-sequence selection
# keeps it (error and all) while region-wise fusion repairs both.

CROSS_ERROR_TOKENS = [
    "It often costs over a hundred dollars to obtain the require identity card .".split(),
    "It often cost over a hundred dollars to obtain the required identity card .".split(),
]
CROSS_ERROR_SCORES = [
    [-0.1] * 10 + [-2.5] + [-0.1] * 3,
    [-0.1] * 2 + [-2.0] + [-0.1] * 11,
]
CROSS_ERROR_FUSED = "It often costs over a hundred dollars to obtain the required identity card .".split()


def cross_error_set() -> CandidateSet:
    return CandidateSet(
        "cross",
        tuple(
            ScoredCandidate(tuple(t), tuple(s))
            for t, s in zip(CROSS_ERROR_TOKENS, CROSS_ERROR_SCORES)
        ),
    )


# --- three candidates with two divergence regions -------------------------
# On-path tokens score -0.1, discarded tokens -2.5; region one belongs to
# candidate 1 and region two to candidate 2.

THREE_WAY_TOKENS = [
    "The Republican authorities were quick extend to other States .".split(),
    "The Republican authorities were quick to extend this practice States .".split(),
    "The Republican and the authority extend this practice to other States .".split(),
]
THREE_WAY_FUSED = "The Republican authorities were quick to extend this practice to other States .".split()
THREE_WAY_ANCHORS = ["The", "Republican", "extend", "States", "."]

_THREE_WAY_OFF_PATH = [
    {2, 3, 4, 6, 7},  # authorities were quick / to other
    {7, 8},  # this practice
    {2, 3, 4},  # and the authority
]


def three_way_set() -> CandidateSet:
    cands = []
    for tokens, off in zip(THREE_WAY_TOKENS, _THREE_WAY_OFF_PATH):
        scores = [-2.5 if i in off else -0.1 for i in range(len(tokens))]
        cands.append(ScoredCandidate(tuple(tokens), tuple(scores)))
    return CandidateSet("threeway", tuple(cands))


# --- random candidate sets -------------------------------------------------

DEFAULT_VOCAB = tuple("abcdefgh")


def random_candidate(
    rng: random.Random,
    vocab: tuple[str, ...] = DEFAULT_VOCAB,
    max_len: int = 12,
    low: float = -5.0,
    high: float = 0.0,
) -> ScoredCandidate:
    length = rng.randint(1, max_len)
    tokens = tuple(rng.choice(vocab) for _ in range(length))
    scores = tuple(rng.uniform(low, high) for _ in range(length))
    return ScoredCandidate(tokens, scores)


def random_candidate_set(
    rng: random.Random,
    max_k: int = 4,
    vocab: tuple[str, ...] = DEFAULT_VOCAB,
    max_len: int = 12,
    ident: str = "r",
) -> CandidateSet:
    k = rng.randint(1, max_k)
    return CandidateSet(
        ident, tuple(random_candidate(rng, vocab, max_len) for _ in range(k))
    )


def random_references(
    rng: random.Random, count: int, vocab: tuple[str, ...], min_len: int = 8, max_len: int = 20
) -> list[tuple[str, ...]]:
    return [
        tuple(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))
        for _ in range(count)
    ]


def word_vocab(size: int) -> tuple[str, ...]:
    return tuple(f"w{i:03d}" for i in range(size))


# --- independent oracles ----------------------------------------------------


def is_subsequence(needle: tuple[str, ...], haystack: tuple[str, ...]) -> bool:
    it = iter(haystack)
    return all(tok in it for tok in needle)


def lcs_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Classic dynamic-programming longest-common-subsequence length."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(cur[j - 1], prev[j]))
        prev = cur
    return prev[-1]


# --- frozen reference implementations --------------------------------------
# One copy per kernel function; property tests check that the library's
# optimized version gives equal results, so these must not be "improved".
# From the seed, the straightforward per-token versions:
# remove_adjacent_duplicates, find_next_anchor (the lockstep rounds that
# specify the anchor search), partition and candidate_soups.  From the kernel
# as it stood before the bitmask anchor search: validate (the only copy that
# takes ``warn``), rescore_set and select_segment.  Verbatim, except that the
# copies call each other and the clamp warning goes to the library's logger
# by name.


def reference_remove_adjacent_duplicates(cand: ScoredCandidate) -> ScoredCandidate:
    tokens: list[str] = []
    scores: list[float] = []
    for tok, score in zip(cand.tokens, cand.scores):
        if tokens and tokens[-1] == tok:
            scores[-1] = score
        else:
            tokens.append(tok)
            scores.append(score)
    if len(tokens) == len(cand.tokens):
        return cand
    return ScoredCandidate(tuple(tokens), tuple(scores))


_WHITESPACE = re.compile(r"\s")

_REFERENCE_CLAMP_WARNING = "clamped %d score(s) below %s in candidate set %s"


def _reference_check_token(tok: str, where: str) -> None:
    if not isinstance(tok, str) or not tok or _WHITESPACE.search(tok):
        raise InvalidToken(f"{where}: token {tok!r} must be a non-empty string without whitespace")


def _reference_check_tokens(tokens: tuple[str, ...], where: str) -> None:
    # Fast path: str.split() and re's \s agree on what whitespace is, and
    # splitting yields only non-empty, whitespace-free pieces, so the round
    # trip is lossless exactly when every token is valid.
    try:
        if " ".join(tokens).split() == list(tokens):
            return
    except TypeError:  # a token that is not a string
        pass
    for tok in tokens:
        _reference_check_token(tok, where)


def reference_validate(
    cset: CandidateSet,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    warn: Callable[[str], object] | None = None,
) -> CandidateSet:
    if not cset.candidates:
        raise EmptyCandidate(f"candidate set {cset.id!r} has no candidates")
    if cset.source is not None:
        _reference_check_tokens(cset.source, f"set {cset.id!r} source")

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
        _reference_check_tokens(cand.tokens, where)
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
        if warn is not None:
            warn(_REFERENCE_CLAMP_WARNING % (clamped, score_floor, cset.id))
        else:
            logging.getLogger("candidate_soups.candidates").warning(
                _REFERENCE_CLAMP_WARNING, clamped, score_floor, cset.id
            )
        return CandidateSet(cset.id, tuple(out), cset.source)
    return cset


def reference_rescore_set(cset: CandidateSet, scorer, dedup: bool = True) -> CandidateSet:
    out: list[ScoredCandidate] = []
    for idx, cand in enumerate(cset.candidates):
        if dedup:
            cand = reference_remove_adjacent_duplicates(cand)
        scores = scorer.rescore(cset.source, cand)
        if len(scores) != len(cand.tokens):
            raise ScorerFailure(
                f"set {cset.id!r} candidate {idx}: scorer returned {len(scores)} "
                f"scores for {len(cand.tokens)} tokens"
            )
        # a scorer that hands back the stored scores leaves the candidate as is
        out.append(cand if scores is cand.scores else ScoredCandidate(cand.tokens, tuple(scores)))
    return CandidateSet(cset.id, tuple(out), cset.source)


def reference_find_next_anchor(cset: CandidateSet, start: PointerVector) -> Anchor | None:
    seqs = [c.tokens for c in cset.candidates]
    k = len(seqs)
    lens = [len(s) for s in seqs]
    # first_seen[j] maps token -> earliest absolute index in candidate j's window
    first_seen: list[dict[str, int]] = [{} for _ in range(k)]
    window_count: dict[str, int] = {}
    frontier = list(start)

    grew = True
    while grew:
        grew = False
        qualified: list[str] = []
        for j in range(k):
            if frontier[j] >= lens[j]:
                continue
            tok = seqs[j][frontier[j]]
            seen = first_seen[j]
            if tok not in seen:
                seen[tok] = frontier[j]
                count = window_count.get(tok, 0) + 1
                window_count[tok] = count
                if count == k:
                    qualified.append(tok)
            frontier[j] += 1
            grew = True
        if qualified:
            best = min(
                qualified,
                key=lambda t: (
                    sum(first_seen[j][t] - start[j] for j in range(k)),
                    first_seen[0][t],
                ),
            )
            return Anchor(best, tuple(first_seen[j][best] for j in range(k)))
    return None


def reference_partition(cset: CandidateSet) -> AlignedPartition:
    seqs = [c.tokens for c in cset.candidates]
    k = len(seqs)
    lens = [len(s) for s in seqs]
    pointers = [0] * k
    elements: list = []

    while any(pointers[j] < lens[j] for j in range(k)):
        in_bounds = all(pointers[j] < lens[j] for j in range(k))
        if in_bounds:
            head = seqs[0][pointers[0]]
            if all(seqs[j][pointers[j]] == head for j in range(1, k)):
                elements.append(Anchor(head, tuple(pointers)))
                pointers = [p + 1 for p in pointers]
                continue
        nxt = reference_find_next_anchor(cset, tuple(pointers))
        end = nxt.positions if nxt is not None else tuple(lens)
        segments = tuple(tuple(seqs[j][pointers[j] : end[j]]) for j in range(k))
        elements.append(DivergenceRegion(tuple(pointers), end, segments))
        pointers = list(end)

    return AlignedPartition(tuple(elements))


def _reference_window(cand_scores: Sequence[float], start: int, end: int) -> Sequence[float]:
    # the segment plus one bounding anchor token on each side, clamped at the
    # sequence edges (slicing clamps the upper bound); never empty
    return cand_scores[start - 1 if start else 0 : end + 1]


def reference_select_segment(
    region: DivergenceRegion, scores: Sequence[Sequence[float]]
) -> RegionChoice:
    windows = map(_reference_window, scores, region.start, region.end)
    segment_scores = tuple([math.fsum(w) / len(w) for w in windows])
    chosen = segment_scores.index(max(segment_scores))  # index() finds the first of any tie
    return RegionChoice(chosen, segment_scores, region.segments[chosen])


def reference_candidate_soups(
    cset: CandidateSet, score_floor: float = DEFAULT_SCORE_FLOOR
) -> FusionResult:
    """Validate, dedup, keep the stored scores, partition and select, one token at a time."""
    cset = reference_validate(cset, score_floor)
    prepared = CandidateSet(
        cset.id, tuple(reference_remove_adjacent_duplicates(c) for c in cset.candidates)
    )
    scores = [c.scores for c in prepared.candidates]

    tokens: list[str] = []
    trace: list[RegionChoice] = []
    for element in reference_partition(prepared).elements:
        if isinstance(element, Anchor):
            tokens.append(element.token)
            continue
        segment_scores = []
        for j in range(len(element.segments)):
            lo = max(0, element.start[j] - 1)
            hi = min(len(scores[j]), element.end[j] + 1)
            window = scores[j][lo:hi]
            segment_scores.append(math.fsum(window) / len(window))
        chosen = max(range(len(segment_scores)), key=lambda j: (segment_scores[j], -j))
        trace.append(RegionChoice(chosen, tuple(segment_scores), element.segments[chosen]))
        tokens.extend(element.segments[chosen])
    return FusionResult(tuple(tokens), tuple(trace))


# --- window means and lattice paths, as tests read them ------------------------


def region_score(cand_index: int, region: DivergenceRegion, scores) -> float:
    """Candidate ``cand_index``'s window mean over ``region``, as fusion computes it."""
    return select_segment(region, scores).segment_scores[cand_index]


DEFAULT_PATH_CAP = 10**6


class PathExplosion(CdsError):
    """A lattice has more paths than the enumeration cap allows."""


Branch = namedtuple("Branch", "candidate tokens score")


def lattice_branches(lattice: SimplifiedLattice) -> list[tuple[Branch, ...]]:
    """Each region's branches: candidate j's segment with its window mean."""
    return [
        tuple(map(Branch, range(len(row)), region.segments, row))
        for region, row in zip(lattice.partition.regions(), lattice.means)
    ]


def enumerate_paths(
    lattice: SimplifiedLattice, cap: int = DEFAULT_PATH_CAP
) -> list[tuple[str, ...]]:
    """All token sequences obtainable by picking one distinct branch per region.

    Branches with identical tokens within a region are emitted once, in
    order of first appearance.  Raises PathExplosion when the path count
    exceeds ``cap``.
    """
    count = path_count(lattice)
    if count > cap:
        raise PathExplosion(f"lattice has {count} paths, cap is {cap}")
    groups = [dict.fromkeys(b.tokens for b in g) for g in lattice_branches(lattice)]
    return [_reference_assemble(lattice, combo) for combo in itertools.product(*groups)]


# --- the exhaustive lattice oracle, frozen ------------------------------------
# Brute-force best-path search with exact rational totals, as it stood before
# oracle_best became a per-region argmax.  Kept verbatim as the reference the
# linear oracle is checked against; only usable on lattices with few paths.


def _reference_distinct_branches(group) -> list[Branch]:
    best: dict[tuple[str, ...], Branch] = {}
    for branch in group:
        kept = best.get(branch.tokens)
        if kept is None or branch.score > kept.score:
            best[branch.tokens] = branch
    return sorted(best.values(), key=lambda b: b.candidate)


def _reference_assemble(
    lattice: SimplifiedLattice, segments: tuple[tuple[str, ...], ...]
) -> tuple[str, ...]:
    out: list[str] = []
    region = 0
    for element in lattice.partition.elements:
        if isinstance(element, Anchor):
            out.append(element.token)
        else:
            out.extend(segments[region])
            region += 1
    return tuple(out)


def reference_oracle_best(
    lattice: SimplifiedLattice, cap: int = DEFAULT_PATH_CAP
) -> tuple[str, ...]:
    """Scan every branch combination; keep the first whose exact total is strictly best."""
    count = path_count(lattice)
    if count > cap:
        raise PathExplosion(f"lattice has {count} paths, cap is {cap}")
    groups = [_reference_distinct_branches(g) for g in lattice_branches(lattice)]
    best_combo: tuple[Branch, ...] | None = None
    best_total: Fraction | None = None
    for combo in itertools.product(*groups):
        total = sum((Fraction(b.score) for b in combo), Fraction(0))
        if best_total is None or total > best_total:
            best_total = total
            best_combo = combo
    assert best_combo is not None
    return _reference_assemble(lattice, tuple(b.tokens for b in best_combo))


# --- the per-token n-gram scorer and BLEU counting, frozen ---------------------
# As they stood before ngram_score built its contexts with zip and BLEU counted
# with Counter(zip(...)) and a cached reference: one tuple slice per token, one
# generator per n-gram order.  The n-gram reference reads ``model.counts``
# alone, not the log-probability table and vocabulary the model derives from
# them, so a wrong derivation shows.  References for the equivalence tests.


def reference_ngram_score(
    model: NGramModel,
    tokens,
    score_floor: float = DEFAULT_SCORE_FLOOR,
) -> list[float]:
    """Per-token log p(token | previous n-1 tokens), clamped to the floor."""
    n, alpha, counts = model.order, model.alpha, model.counts
    vocabulary = {token for by_token in counts.values() for token in by_token}
    event_count = len(vocabulary) + 1  # one extra unknown class
    padded = [START_SYMBOL] * (n - 1) + list(tokens)
    out: list[float] = []
    for i, tok in enumerate(tokens):
        by_token = counts.get(tuple(padded[i : i + n - 1]), {})
        total = sum(by_token.values())
        logp = math.log((by_token.get(tok, 0) + alpha) / (total + alpha * event_count))
        out.append(max(score_floor, logp))
    return out


def _reference_ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu_add(acc: BleuAccumulator, hypothesis, reference) -> None:
    """``BleuAccumulator.add`` as it stood, applied to ``acc``."""
    if not reference:
        raise EmptyInput("reference sentence is empty")
    acc.pairs += 1
    acc.hyp_length += len(hypothesis)
    acc.ref_length += len(reference)
    for n in range(1, acc.max_n + 1):
        hyp_counts = _reference_ngram_counts(hypothesis, n)
        if not hyp_counts:
            continue
        ref_counts = _reference_ngram_counts(reference, n)
        acc.matched[n - 1] += sum(
            min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
        )
        acc.total[n - 1] += len(hypothesis) - n + 1
