"""The package root exports exactly the names README's "Library usage" lists."""

import re
from pathlib import Path

import candidate_soups

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    listing = section.split("The package root exports exactly these names:", 1)[1]
    bullets = listing.split("\n\n", 2)[1]  # the list after the sentence
    assert all(line.startswith("- ") for line in bullets.splitlines())
    return set(re.findall(r"`(\w+)`", bullets))


def test_root_exports_exactly_the_documented_names():
    names = documented_names()
    assert names == set(candidate_soups.__all__)
    for name in names:
        assert getattr(candidate_soups, name).__name__ == name


def test_other_names_are_not_exported():
    for name in ("region_score", "enumerate_paths", "partition", "BleuReport", "NoiseConfig"):
        assert not hasattr(candidate_soups, name)


def test_submodules_import_from_the_root():
    from candidate_soups import alignment, bleu, cli, fusion, lattice_oracle, scoring

    assert bleu.Reference is candidate_soups.Reference
    assert fusion.candidate_soups is candidate_soups.candidate_soups
    assert scoring.Scorer is candidate_soups.Scorer
    assert callable(alignment.partition) and callable(lattice_oracle.oracle_best)
    assert callable(cli.main)
