"""A ``cds`` process loads only the modules its command runs.

Each case starts a fresh ``python -v -m candidate_soups`` and reads the
modules it imported from the ``import '<name>'`` lines on stderr.
(``-X importtime`` would miss the lazy imports: it times only the
``import`` statement's C path, not ``importlib.import_module`` or
``from . import name``.)  Modules the bare interpreter already imports
(``site`` may pull in some) are not charged to the command.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import CROSS_ERROR_FUSED, CROSS_ERROR_SCORES, CROSS_ERROR_TOKENS

SRC = Path(__file__).resolve().parents[1] / "src"
NEVER = {"logging", "dataclasses", "candidate_soups.synth"}
IMPORT_LINE = re.compile(r"^import '([^']+)'", re.MULTILINE)


def imported(args, stdin=b"", cwd=None):
    """Modules imported by ``python -v <args>``, and the exit code."""
    proc = subprocess.run(
        [sys.executable, "-v", *args],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=cwd,
        timeout=60,
    )
    return set(IMPORT_LINE.findall(proc.stderr.decode("utf-8", "replace"))), proc.returncode


@pytest.fixture(scope="module")
def bare():
    names, code = imported(["-c", "pass"])
    assert code == 0
    return names


def one_record(tmp_path):
    record = {
        "id": "r",
        "candidates": [
            {"tokens": t, "scores": s} for t, s in zip(CROSS_ERROR_TOKENS, CROSS_ERROR_SCORES)
        ],
    }
    (tmp_path / "refs.txt").write_text(" ".join(CROSS_ERROR_FUSED) + "\n")
    return (json.dumps(record) + "\n").encode()


@pytest.mark.parametrize(
    "argv, uses",
    [
        (["fuse"], set()),
        (["npd"], set()),
        (["fuse", "--oracle-check"], {"candidate_soups.lattice_oracle"}),
        (["compare", "--refs", "refs.txt"], {"candidate_soups.bleu"}),
    ],
    ids=["fuse", "npd", "fuse-oracle-check", "compare"],
)
def test_command_loads_only_what_it_runs(bare, tmp_path, argv, uses):
    # compare fails without a record; --oracle-check loads the oracle at its first record
    stdin = one_record(tmp_path) if argv[0] == "compare" or "--oracle-check" in argv else b""
    names, code = imported(["-m", "candidate_soups", *argv], stdin, cwd=tmp_path)
    assert code == 0
    loaded = names - bare
    assert "candidate_soups.cli" in loaded  # the run was seen at all
    assert not loaded & NEVER
    optional = {"candidate_soups.lattice_oracle", "candidate_soups.bleu"}
    assert loaded & optional == uses


def test_synth_loads_only_what_it_runs(bare, tmp_path):
    # NoiseConfig was a frozen dataclass, and synth loaded dataclasses and inspect
    (tmp_path / "refs.txt").write_text("a b c\n")
    names, code = imported(["-m", "candidate_soups", "synth", "refs.txt"], cwd=tmp_path)
    assert code == 0
    loaded = names - bare
    assert "candidate_soups.synth" in loaded
    never = NEVER - {"candidate_soups.synth"} | {"inspect"}
    assert not loaded & never
    assert not loaded & {"candidate_soups.bleu", "candidate_soups.lattice_oracle"}


def test_package_import_loads_no_submodule(bare):
    names, code = imported(["-c", "import candidate_soups"])
    assert code == 0
    assert {n for n in names - bare if n.startswith("candidate_soups.")} == set()
