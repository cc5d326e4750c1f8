"""Seeded workloads: reference generator, workload table and input preparation.

Every input the command-line program sees is a file written here from
``--seed``: reference sentences (``refs.txt``), candidate records built with
``synth.generate_corpus`` (``records.jsonl``), an empty record file for
set-up timing, and for the n-gram workload a model trained with
``cds ngram-train`` (``lm.ngram``).  The same seed gives byte-identical
files.  The in-process latency set holds ``latency_set`` candidate sets from
the same generator; the command records are its first ``records``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    records: int  # candidate records per run
    min_len: int  # reference length range, tokens
    max_len: int
    vocab: int  # reference vocabulary size
    k: int  # candidates per record
    ngram: bool  # rescore with an order-3 n-gram model trained on the refs
    fuse_flags: tuple[str, ...]
    compare_flags: tuple[str, ...]
    latency_set: int  # sets timed in-process through the library call path (>= 1000)
    latency_passes: int  # timings of each set, in different rounds (>= 3)


# why each workload exists: the "why" entries of BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c7",
            records=200, min_len=60, max_len=60, vocab=80, k=5, ngram=False,
            fuse_flags=("--trace",), compare_flags=(), latency_set=1000, latency_passes=5,
        ),
        Workload(
            "long",
            records=40, min_len=200, max_len=200, vocab=200, k=10, ngram=False,
            fuse_flags=("--trace",), compare_flags=(), latency_set=1000, latency_passes=3,
        ),
        Workload(
            "ngram-sweep",
            records=150, min_len=8, max_len=20, vocab=50, k=5, ngram=True,
            fuse_flags=("--trace",), compare_flags=("--sweep-k", "1..7"),
            latency_set=1000, latency_passes=5,
        ),
        Workload(
            "oracle",
            records=600, min_len=8, max_len=12, vocab=50, k=5, ngram=False,
            fuse_flags=("--trace", "--oracle-check"), compare_flags=(),
            latency_set=2000, latency_passes=3,
        ),
    )
}


def word_vocab(size: int) -> tuple[str, ...]:
    return tuple(f"w{i:03d}" for i in range(size))


def generate_references(
    seed: int, count: int, vocab_size: int, min_len: int, max_len: int
) -> list[tuple[str, ...]]:
    """Seeded reference sentences with light bigram structure.

    Each word has three preferred successors, taken half of the time, so an
    n-gram model trained on the references has something to learn; the rest
    of the time the next word is uniform over the vocabulary.
    """
    rng = random.Random(f"perfbench-refs:{seed}")
    vocab = word_vocab(vocab_size)
    successors = {w: tuple(rng.choice(vocab) for _ in range(3)) for w in vocab}
    refs = []
    for _ in range(count):
        length = rng.randint(min_len, max_len)
        sentence = [rng.choice(vocab)]
        while len(sentence) < length:
            prev = sentence[-1]
            sentence.append(rng.choice(successors[prev]) if rng.random() < 0.5 else rng.choice(vocab))
        refs.append(tuple(sentence))
    return refs


@dataclass(frozen=True)
class Prepared:
    workload: Workload
    directory: Path
    refs: Path
    records: Path
    empty: Path
    lm: Path | None
    count: int  # command records
    latency_sets: list  # CandidateSets for the in-process latency passes
    synth_seconds: float  # generate_corpus wall time for the latency set

    @property
    def scorer(self) -> str:
        return f"ngram:{self.lm}" if self.lm is not None else "self"

    def fuse_argv(self, path: Path | None = None) -> list[str]:
        return ["fuse", str(path or self.records), "--scorer", self.scorer,
                *self.workload.fuse_flags]

    def npd_argv(self) -> list[str]:
        return ["npd", str(self.records), "--scorer", self.scorer]

    def compare_argv(self) -> list[str]:
        return ["compare", str(self.records), "--refs", str(self.refs), "--scorer",
                self.scorer, "--json", *self.workload.compare_flags]


def child_env() -> dict[str, str]:
    """Environment for ``python -m candidate_soups`` run from the working tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CDS_SCORE_FLOOR", None)
    return env


def prepare(workload: Workload, seed: int, directory: Path, records: int | None = None,
            latency: int | None = None) -> Prepared:
    """Write the workload's inputs for ``seed`` into ``directory``.

    ``records`` and ``latency`` override the command record count and the
    latency set size (tests use small ones).
    """
    from candidate_soups.cli import candidate_record
    from candidate_soups.synth import NoiseConfig, generate_corpus

    count = records if records is not None else workload.records
    latency = latency if latency is not None else workload.latency_set
    directory.mkdir(parents=True, exist_ok=True)
    refs = generate_references(seed, max(count, latency), workload.vocab, workload.min_len,
                               workload.max_len)
    refs_path = directory / "refs.txt"
    refs_path.write_text("".join(" ".join(r) + "\n" for r in refs[:count]), encoding="utf-8")

    started = time.perf_counter()
    sets = generate_corpus(refs, workload.k, NoiseConfig(rng_seed=seed),
                           vocab=word_vocab(workload.vocab))
    synth_seconds = time.perf_counter() - started
    records_path = directory / "records.jsonl"
    records_path.write_text(
        "".join(json.dumps(candidate_record(s)) + "\n" for s in sets[:count]), encoding="utf-8"
    )
    empty = directory / "empty.jsonl"
    empty.write_text("", encoding="utf-8")

    lm = None
    if workload.ngram:
        lm = directory / "lm.ngram"
        subprocess.run(
            [sys.executable, "-m", "candidate_soups", "ngram-train", str(refs_path),
             "-o", str(lm), "--order", "3", "--alpha", "0.1"],
            env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
    return Prepared(workload, directory, refs_path, records_path, empty, lm, count, sets,
                    synth_seconds)
