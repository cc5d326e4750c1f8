"""A ``cds`` process loads only the modules its command runs.

Each case starts a fresh ``python -S -v -m candidate_soups`` and reads the
modules it imported from the ``import '<name>'`` lines on stderr.
(``-X importtime`` would miss the lazy imports: it times only the
``import`` statement's C path, not ``importlib.import_module`` or
``from . import name``.)  Modules the bare interpreter already imports are
not charged to the command.  ``-S`` keeps ``site`` and the ``.pth`` files
it runs from loading modules (``typing``, say) that would hide a command's
own import of them.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from candidate_soups import cli
from candidate_soups.ngram import save_ngram, train_ngram
from helpers import CROSS_ERROR_FUSED, CROSS_ERROR_SCORES, CROSS_ERROR_TOKENS

SRC = Path(__file__).resolve().parents[1] / "src"
NEVER = {"logging", "dataclasses", "typing", "candidate_soups.synth"}
NGRAM, CORPUS = "candidate_soups.ngram", "candidate_soups.cli_corpus"
IMPORT_LINE = re.compile(r"^import '([^']+)'", re.MULTILINE)


def imported(args, stdin=b"", cwd=None):
    """Modules imported by ``python -S -v <args>``, and the exit code."""
    proc = subprocess.run(
        [sys.executable, "-S", "-v", *args],
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
    optional = {"candidate_soups.lattice_oracle", "candidate_soups.bleu", NGRAM, CORPUS}
    assert loaded & optional == uses


def test_fuse_with_a_model_loads_the_model_code(bare, tmp_path):
    save_ngram(train_ngram([CROSS_ERROR_FUSED], n=2), str(tmp_path / "m.ngram"))
    fuse = ["fuse", "--scorer", "ngram:m.ngram"]
    names, code = imported(["-m", "candidate_soups", *fuse], one_record(tmp_path), cwd=tmp_path)
    assert code == 0
    assert (names - bare) & {NGRAM, CORPUS} == {NGRAM}


@pytest.mark.parametrize(
    "argv",
    [["synth", "refs.txt"], ["bleu", "hyp.jsonl", "refs.txt"], ["ngram-train", "refs.txt", "-o", "m"]],
    ids=["synth", "bleu", "ngram-train"],
)
def test_corpus_commands_load_their_module(bare, tmp_path, argv):
    (tmp_path / "refs.txt").write_text("a b c\n")
    (tmp_path / "hyp.jsonl").write_text(json.dumps({"output": ["a", "b"]}) + "\n")
    names, code = imported(["-m", "candidate_soups", *argv], cwd=tmp_path)
    assert code == 0
    loaded = names - bare
    assert CORPUS in loaded
    assert (NGRAM in loaded) == (argv[0] == "ngram-train")


def help_text(parse, argv):
    """What ``parse(argv)`` writes to stdout before argparse's help exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
        parse(argv)
    assert stop.value.code == 0
    return out.getvalue()


def main_help(argv):
    return help_text(lambda a: cli.main(a, io.StringIO(), io.StringIO(), io.StringIO()), argv)


@pytest.mark.parametrize("command", ["fuse", "npd", "synth", "bleu", "compare", "ngram-train"])
def test_command_help_equals_the_full_parsers(command):
    # main builds only the named command's parser; its help must not change
    alone = main_help([command, "--help"])
    assert alone.startswith(f"usage: cds {command} ")
    assert alone == help_text(cli.build_parser().parse_args, [command, "--help"])


def test_top_level_help_lists_every_command():
    assert "{fuse,npd,synth,bleu,compare,ngram-train}" in main_help(["-h"])


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
