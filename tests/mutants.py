"""The mutation catalogue: small faults in ``src/`` that named tests must catch.

Run from anywhere, with pytest and hypothesis installed::

    python3 tests/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/``, an exact text that
occurs once in it, the text that replaces it, and the tests that must then
fail.  The script first runs every entry's tests together on an unmutated
copy, where they must pass.  Then, for each entry, it copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, applies the
replacement and runs the entry's tests there with ``-x`` under the
``mutants`` Hypothesis profile (``tests/conftest.py``: no shrinking, no
database, a fixed seed).  The mutant is killed when they fail; one that
keeps pytest from running them (say, a syntax error) is a catalogue error.

An entry that no test kills yet is an expected survivor: its ``survives``
says which ROADMAP item will kill it.  The script exits 1 when a mutant
survives that should be killed, when an expected survivor is killed (its
``survives`` is then stale), or when an entry's text does not occur
exactly once; otherwise it exits 0.

The file's name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# survives: None, or why no test kills the mutant yet and which item will
Mutant = namedtuple("Mutant", "name path old new tests survives", defaults=(None,))

_CANDIDATES = "src/candidate_soups/candidates.py"
_ALIGNMENT = "src/candidate_soups/alignment.py"
_BLEU = "src/candidate_soups/bleu.py"
_LENGTH_CHECK = """\
        if len(tokens) != len(scores):
            raise LengthMismatch(
                f"set {cset.id!r} candidate {idx}: {len(tokens)} tokens vs {len(scores)} scores"
            )
"""
_TOKEN_CHECK = """\
        if not _tokens_valid(tokens):
            _check_tokens(tokens, f"set {cset.id!r} candidate {idx}")
"""
_TOTAL_ADVANCE = "key = (max(advances), sum(advances), advances)"
_NEGATED_TOTAL_ADVANCE = "key = (max(advances), -sum(advances), advances)"

MUTANTS = (
    Mutant(
        "validate lets a NaN after a real score through",
        _CANDIDATES,
        "if not (max(scores) <= 0 and not isnan(sum(scores))):",
        "if not max(scores) <= 0:",
        (
            "tests/test_reference_equivalence.py::test_validate_rejects_like_reference",
            "tests/test_kernel_equivalence.py::test_validate_matches_previous",
        ),
    ),
    Mutant(
        "validate rebuilds a candidate whose lowest score is the floor",
        _CANDIDATES,
        "if min(scores) < score_floor:",
        "if min(scores) <= score_floor:",
        (
            "tests/test_candidates.py::TestValidate"
            "::test_clamp_rebuilds_only_the_candidates_it_changes",
        ),
    ),
    Mutant(
        "validate checks tokens before the token and score counts",
        _CANDIDATES,
        _LENGTH_CHECK + _TOKEN_CHECK,
        _TOKEN_CHECK + _LENGTH_CHECK,
        (
            "tests/test_candidates.py::TestValidate::test_checks_run_in_the_documented_order",
            "tests/test_kernel_equivalence.py::test_validate_matches_previous",
        ),
    ),
    Mutant(
        "validate counts clamped candidates, not clamped scores",
        _CANDIDATES,
        "clamped += sum(s < score_floor for s in scores)",
        "clamped += 1",
        (
            "tests/test_candidates.py::TestValidate"
            "::test_clamp_without_callback_logs_to_the_candidates_logger",
            "tests/test_reference_equivalence.py::test_validate_clamps_with_one_counted_warning",
        ),
    ),
    Mutant(
        "the clamp warning writes its set's id unescaped",
        _CANDIDATES,
        'in candidate set %r"',
        'in candidate set %s"',
        (
            "tests/test_cli.py::test_every_validate_diagnostic_and_clamp_warning_names_its_record",
            "tests/test_candidates.py::TestValidate"
            "::test_clamp_with_callback_calls_it_instead_of_logging",
        ),
    ),
    Mutant(
        "the anchor search prefers the larger total advance",
        _ALIGNMENT,
        _TOTAL_ADVANCE,
        _NEGATED_TOTAL_ADVANCE,
        (
            "tests/test_alignment.py::TestFindNextAnchor",
            "tests/test_reference_equivalence.py"
            "::test_find_next_anchor_with_many_common_tokens_matches_reference",
        ),
    ),
    Mutant(
        "the anchor search prefers the larger total advance, against the oracle check",
        _ALIGNMENT,
        _TOTAL_ADVANCE,
        _NEGATED_TOTAL_ADVANCE,
        (
            "tests/test_lattice_oracle.py",
            "tests/test_acceptance.py::test_criterion_3_oracle_equivalence",
            "tests/test_cli.py::TestFuse::test_oracle_check_passes_on_1000_synthetic_lines",
            "tests/test_cli.py::TestOracleCheckAtRealLengths",
        ),
        survives="the oracle's lattice is built on fusion's own partition (ROADMAP item 3)",
    ),
    Mutant(
        "the anchor search stops ranking at an offset equal to the best largest advance",
        _ALIGNMENT,
        "if offset > best[0]:",
        "if offset >= best[0]:",
        (
            "tests/test_alignment.py::TestFindNextAnchor"
            "::test_total_advance_outranks_position_in_candidate_zero",
            "tests/test_reference_equivalence.py"
            "::test_find_next_anchor_with_many_common_tokens_matches_reference",
        ),
    ),
    Mutant(
        "the anchor search ranks by total advance before largest advance",
        _ALIGNMENT,
        _TOTAL_ADVANCE,
        "key = (sum(advances), max(advances), advances)",
        (
            "tests/test_alignment.py::TestPartition::test_three_way_anchor_sequence",
            "tests/test_kernel_equivalence.py::test_find_next_anchor_matches_previous",
        ),
    ),
    Mutant(
        "the anchor search ranks common tokens in set order, not candidate 0's",
        _ALIGNMENT,
        "for offset in sorted(map(first.index, common)):",
        "for offset in map(first.index, common):",
        (
            "tests/test_kernel_equivalence.py::test_fusion_commutes_with_token_renaming",
            "tests/test_reference_equivalence.py"
            "::test_find_next_anchor_with_many_common_tokens_matches_reference",
        ),
    ),
    Mutant(
        "the anchor search stops doubling once the shortest window is short",
        _ALIGNMENT,
        "max(map(len, windows)) < width",
        "min(map(len, windows)) < width",
        (
            "tests/test_alignment.py::TestFindNextAnchor"
            "::test_window_survives_candidate_exhaustion",
            "tests/test_kernel_equivalence.py::test_find_next_anchor_matches_previous",
        ),
    ),
    Mutant(
        "the BLEU clip counts a repeat on both sides once too often",
        _BLEU,
        "matched += min(h, r) - 1",
        "matched += min(h, r)",
        (
            "tests/test_bleu.py::test_clipped_matches_by_hand",
            "tests/test_reference_equivalence.py::test_bleu_accumulator_matches_reference",
        ),
    ),
)

_IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def copy_tree(target: Path) -> None:
    """Copy ``src/``, ``tests/`` and ``pyproject.toml`` into ``target``."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=_IGNORE)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def run_tests(tree: Path, tests: tuple[str, ...], stop_first: bool) -> int:
    """pytest's exit code for ``tests`` run in ``tree`` under the ``mutants`` profile.

    The end of pytest's output is printed when it did not run the tests to a
    pass or a failure, and when ``stop_first`` is false and a test failed.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile", "mutants", *(["-x"] if stop_first else []), *tests]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode not in ((0, 1, 2) if stop_first else (0,)):
        sys.stdout.write(proc.stdout[-3000:] + proc.stderr[-3000:])
    return proc.returncode


def main() -> int:
    faults = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if not m.path.startswith("src/") or count != 1:
            faults.append(f"{m.name}: its text occurs {count} times in {m.path}")
    if faults:
        print("\n".join(faults))
        return 1

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cds-mutants-") as work:
        work = Path(work)
        copy_tree(work / "unmutated")
        selection = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = run_tests(work / "unmutated", selection, stop_first=False)
        if code != 0:
            print(f"the unmutated tree fails its tests (pytest exit {code})")
            return 1
        for i, m in enumerate(MUTANTS):
            tree = work / f"mutant{i}"
            copy_tree(tree)  # from the checkout: the unmutated copy now holds bytecode
            path = tree / m.path
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                            encoding="utf-8")
            code = run_tests(tree, m.tests, stop_first=True)
            # 1: a test failed; 2: a test module no longer imports
            outcome = {0: "survived", 1: "killed", 2: "killed"}.get(code, f"pytest exit {code}")
            expected = "killed" if m.survives is None else "survived"
            if outcome != expected:
                faults.append(m.name)
                outcome += f" (EXPECTED {expected.upper()})"
            print(f"{outcome:<10} {m.name}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants, {len(faults)} wrong, in {time.perf_counter() - started:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
