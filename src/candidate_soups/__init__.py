"""Fusion of scored candidate token sequences.

Given k candidate sequences with per-token log-probabilities, find the
tokens all candidates agree on (anchors), and assemble one output by
keeping, in each stretch of disagreement, the candidate segment whose
score window has the highest mean.  Includes the keep-one-candidate
baseline, a best-path lattice oracle, a synthetic candidate generator,
and a corpus BLEU evaluator.
"""

from .alignment import (
    AlignedPartition,
    Anchor,
    DivergenceRegion,
    PointerVector,
    find_next_anchor,
    partition,
)
from .bleu import BleuAccumulator, BleuReport, bleu_with_smoothing, corpus_bleu
from .candidates import (
    DEFAULT_SCORE_FLOOR,
    CandidateSet,
    ScoredCandidate,
    remove_adjacent_duplicates,
    validate,
)
from .errors import (
    CdsError,
    EmptyCandidate,
    EmptyCorpus,
    EmptyInput,
    EmptyReference,
    InvalidToken,
    LengthMismatch,
    PathExplosion,
    PositiveScore,
    ScorerFailure,
)
from .fusion import FusionResult, RegionChoice, candidate_soups, region_score, select_segment
from .lattice_oracle import (
    AnchorNode,
    LatticeBranch,
    RegionGroup,
    SimplifiedLattice,
    build_lattice,
    enumerate_paths,
    oracle_best,
    path_count,
)
from .scoring import (
    NGramModel,
    NGramScorer,
    Scorer,
    SelfScorer,
    load_ngram,
    ngram_score,
    npd_select,
    rescore_set,
    save_ngram,
    train_ngram,
)
from .synth import NoiseConfig, generate_candidates, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AlignedPartition",
    "Anchor",
    "AnchorNode",
    "BleuAccumulator",
    "BleuReport",
    "CandidateSet",
    "CdsError",
    "DEFAULT_SCORE_FLOOR",
    "DivergenceRegion",
    "EmptyCandidate",
    "EmptyCorpus",
    "EmptyInput",
    "EmptyReference",
    "FusionResult",
    "InvalidToken",
    "LatticeBranch",
    "LengthMismatch",
    "NGramModel",
    "NGramScorer",
    "NoiseConfig",
    "PathExplosion",
    "PointerVector",
    "PositiveScore",
    "RegionChoice",
    "RegionGroup",
    "ScoredCandidate",
    "Scorer",
    "ScorerFailure",
    "SelfScorer",
    "SimplifiedLattice",
    "bleu_with_smoothing",
    "build_lattice",
    "candidate_soups",
    "corpus_bleu",
    "enumerate_paths",
    "find_next_anchor",
    "generate_candidates",
    "generate_corpus",
    "load_ngram",
    "ngram_score",
    "npd_select",
    "oracle_best",
    "partition",
    "path_count",
    "region_score",
    "rescore_set",
    "remove_adjacent_duplicates",
    "save_ngram",
    "select_segment",
    "train_ngram",
    "validate",
]
