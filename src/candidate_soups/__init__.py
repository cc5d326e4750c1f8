"""Fusion of scored candidate token sequences.

Given k candidate sequences with per-token log-probabilities, find the
tokens all candidates agree on (anchors), and assemble one output by
keeping, in each stretch of disagreement, the candidate segment whose
score window has the highest mean.  Includes the keep-one-candidate
baseline, a best-path lattice oracle, a synthetic candidate generator,
and a corpus BLEU evaluator.

The names below are loaded on first use (PEP 562): ``import
candidate_soups`` imports no submodule, and ``candidate_soups.X`` or
``from candidate_soups import X`` imports only the module that defines
``X``.  A ``cds`` command thus compiles and runs only the code it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "alignment": (
        "AlignedPartition", "Anchor", "DivergenceRegion", "PointerVector",
        "find_next_anchor", "partition",
    ),
    "bleu": ("BleuAccumulator", "BleuReport", "bleu_with_smoothing", "corpus_bleu"),
    "candidates": (
        "DEFAULT_SCORE_FLOOR", "CandidateSet", "ScoredCandidate",
        "remove_adjacent_duplicates", "validate",
    ),
    "errors": (
        "CdsError", "EmptyCandidate", "EmptyCorpus", "EmptyInput", "EmptyReference",
        "InvalidToken", "LengthMismatch", "PathExplosion", "PositiveScore", "ScorerFailure",
    ),
    "fusion": ("FusionResult", "RegionChoice", "candidate_soups", "region_score", "select_segment"),
    "lattice_oracle": (
        "AnchorNode", "LatticeBranch", "RegionGroup", "SimplifiedLattice",
        "build_lattice", "enumerate_paths", "oracle_best", "path_count",
    ),
    "scoring": (
        "NGramModel", "NGramScorer", "Scorer", "SelfScorer", "load_ngram", "ngram_score",
        "npd_select", "rescore_set", "save_ngram", "train_ngram",
    ),
    "synth": ("NoiseConfig", "generate_candidates", "generate_corpus"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
