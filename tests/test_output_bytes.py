"""Every ``cds`` command's stdout, byte for byte, on one seeded corpus.

The corpus is built in-process: seeded references, ``generate_corpus`` and
``candidate_record`` give the records, and ``ngram-train`` gives a model for
the ``ngram:`` scorer.  Each command's stdout is pinned by its sha256, so a
refactor that moves one token, one trace score's float repr or one byte of
JSON layout fails here.  ``compare``'s ``mean_fusion_ms`` is a wall-clock
time and is replaced by ``null`` before hashing, in its JSON and its text
form.
"""

import hashlib
import io
import json
import random
import re

import pytest

from candidate_soups.cli import candidate_record, main
from candidate_soups.synth import NoiseConfig, generate_corpus
from helpers import random_references, word_vocab

# command (with {records}, {refs}, {model} and {fused} as file names) -> sha256 of stdout
PINNED = {
    "fuse --trace {records}":
        "2e77758616515ee4acb6fcf37e8f35e2f7ba41273af993a61f9da74f4c5a0df8",
    "fuse --trace --scorer ngram:{model} {records}":
        "cb6c422ea1e4bd3352ecf2bbac7951855918c350959dea395124565d97b8b615",
    "fuse --oracle-check {records}":
        "0b750a2d96aaca477cbdb7d61551a2e4111abcd4fb982487a3ea0f97956fa893",
    "npd {records}":
        "b69d44acfbb871ea93a9185092a1a376991e0bc206959edf82a003947fb62331",
    "compare --json --sweep-k 1..7 --refs {refs} {records}":
        "142720db80589c0b765a5716aa22903bfa192d7b54b4ce76562184e9d9b0db2a",
    "compare --sweep-k 1..7 --refs {refs} {records}":
        "ce9d0cca4399243d12b789f6042ebb34a1b30a61f9209858c3393f79e8f7837d",
    "bleu {fused} {refs}":
        "5b8d013883277288d0a0d129078b3a6281f27b12dd478425c5a20a7c4aa1d568",
    "synth {refs} --k 7 --seed 0":
        "4b2559d5af790a11c50541bb77a5b3bf778331dc7df8198477368cf3bf97ca21",
}

# the JSON form ("mean_fusion_ms": <time>) and the text form (mean_fusion_ms\t<time>)
_FUSION_TIME = re.compile(r'(mean_fusion_ms(?:": |\t))[^,}\n]+')


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    rng = random.Random(20261019)
    vocab = word_vocab(40)
    references = random_references(rng, 60, vocab, min_len=6, max_len=24)
    sets = generate_corpus(references, 7, NoiseConfig(rng_seed=0), vocab=vocab)
    base = tmp_path_factory.mktemp("bytes")
    names = {name: str(base / name) for name in ("records", "refs", "model", "fused")}
    with open(names["refs"], "w", encoding="utf-8") as fp:
        fp.writelines(" ".join(ref) + "\n" for ref in references)
    with open(names["records"], "w", encoding="utf-8") as fp:
        fp.writelines(json.dumps(candidate_record(cset)) + "\n" for cset in sets)
    run(["ngram-train", names["refs"], "-o", names["model"], "--order", "3"])
    with open(names["fused"], "w", encoding="utf-8") as fp:
        fp.write(run(["fuse", names["records"]]))
    return names


@pytest.mark.parametrize("command", PINNED)
def test_stdout_bytes_are_pinned(files, command):
    stdout = run(command.format(**files).split())
    if command.startswith("compare"):
        stdout = _FUSION_TIME.sub(r"\1null", stdout)
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == PINNED[command]
