"""Fusion of scored candidate token sequences.

Given k candidate sequences with per-token log-probabilities, find the
tokens all candidates agree on (anchors), and assemble one output by
keeping, in each stretch of disagreement, the candidate segment whose
score window has the highest mean.  Includes the keep-one-candidate
baseline, a best-path lattice oracle, a synthetic candidate generator,
and a corpus BLEU evaluator.

The names below are the library API that README's "Library usage" lists;
everything else is imported from its submodule (``candidate_soups.alignment``
and so on).  They are loaded on first use (PEP 562): ``import
candidate_soups`` imports no submodule, and ``from candidate_soups import X``
imports only the module that defines ``X``.  A ``cds`` command imports
``bleu``, ``lattice_oracle`` and ``synth`` only when it runs them.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bleu": ("BleuAccumulator", "Reference", "corpus_bleu"),
    "candidates": ("CandidateSet", "ScoredCandidate", "validate"),
    "errors": ("CdsError",),
    "fusion": ("FusionResult", "candidate_soups"),
    "scoring": ("NGramScorer", "Scorer", "SelfScorer", "load_ngram", "npd_select", "train_ngram"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # submodules are not listed: ``from candidate_soups import alignment``
    # imports the submodule when this raises
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
