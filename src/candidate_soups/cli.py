"""Batch command-line interface over line-delimited JSON.

Commands: fuse | npd | synth | bleu | compare | ngram-train.  Input records
are processed one line at a time (no whole-file buffering) and output order
matches input order.  Per-line failures (malformed JSON or UTF-8, a record
of the wrong shape or types, an invalid candidate set) are reported to
stderr as JSON lines ``{"line": N, "error": "..."}`` and the next line is
processed; the process exits 0 on success, 1 when any line failed, 2 on
usage errors.  A usage error is reported as one line-0 diagnostic before
any input is read:

- an argument argparse rejects (unknown, missing or not of its type);
- an unknown ``--scorer``;
- ``--max-candidates`` below 1;
- a ``--sweep-k`` that is not ``A..B`` with 1 <= A <= B;
- a ``CDS_SCORE_FLOOR`` (which overrides the default score floor) that is
  not a finite number <= 0;
- ``bleu --max-n`` below 1, or a ``bleu --smooth`` that is not a finite
  number > 0;
- ``ngram-train --order`` below 1, or an ``ngram-train --alpha`` that is
  not a finite number > 0;
- ``synth --k`` below 1, or a ``synth`` noise setting, from a flag or a
  ``--config`` line, that does not parse or that ``NoiseConfig`` rejects.

Clamped scores are reported as line-0 ``"warning: ..."`` diagnostics.
Output is strict JSON (no NaN or Infinity) in valid UTF-8.  Each command
imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import IO, TYPE_CHECKING

from .candidates import (
    DEFAULT_SCORE_FLOOR,
    CandidateSet,
    ScoredCandidate,
    remove_adjacent_duplicates,
    validate,
)
from .errors import CdsError, EmptyReference
from .fusion import FusionResult, candidate_soups
from .scoring import (
    NGramScorer,
    Scorer,
    SelfScorer,
    load_ngram,
    npd_select,
    rescore_set,
    save_ngram,
    train_ngram,
)

if TYPE_CHECKING:
    from .synth import NoiseConfig

# Only ``fuse --oracle-check`` calls these; see ``__getattr__``.
_ORACLE_NAMES = ("build_lattice", "oracle_best")


def _bind_oracle() -> None:
    """Import the lattice oracle and bind its names here, keeping any already bound."""
    from . import lattice_oracle

    for name in _ORACLE_NAMES:
        globals().setdefault(name, getattr(lattice_oracle, name))


def __getattr__(name: str):
    # ``cli.build_lattice`` resolves on first use; ``cmd_fuse`` then calls it
    # through the module globals, as it calls every other name
    if name in _ORACLE_NAMES:
        _bind_oracle()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Bad configuration: reported once, before any input is read, with exit 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (an unknown, missing or malformed argument)
    as ``UsageError``, so they reach stderr as a JSON diagnostic too."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _score_floor() -> float:
    raw = os.environ.get("CDS_SCORE_FLOOR")
    if not raw:
        return DEFAULT_SCORE_FLOOR
    try:
        floor = float(raw)
    except ValueError:
        floor = math.nan
    if not (-math.inf < floor <= 0):
        raise UsageError(f"CDS_SCORE_FLOOR must be a finite number <= 0, got {raw!r}")
    return floor


def _make_scorer(selector: str, score_floor: float) -> Scorer:
    if selector == "self":
        return SelfScorer()
    if selector.startswith("ngram:"):
        return NGramScorer(load_ngram(selector[len("ngram:") :]), score_floor)
    raise UsageError(f"unknown scorer {selector!r}; expected 'self' or 'ngram:<model-path>'")


def _record_settings(args: argparse.Namespace) -> tuple[float, Scorer]:
    """The score floor and scorer of ``fuse`` or ``npd``; bad values are usage errors."""
    if args.max_candidates is not None and args.max_candidates < 1:
        raise UsageError(f"--max-candidates must be >= 1, got {args.max_candidates}")
    floor = _score_floor()
    return floor, _make_scorer(args.scorer, floor)


_NUMBER_TYPES = {int, float}  # exact types: bool is an int subclass, not a score


def parse_candidate_record(
    obj: dict, score_floor: float, warn: Callable[[str], object] | None = None
) -> CandidateSet:
    """Turn one wire-format record into a validated CandidateSet.

    ``id`` is a string, ``source`` a string, null or absent, ``candidates`` a
    list of objects whose ``tokens`` is a list and ``scores`` a list of
    numbers (not booleans or strings).  Token values are checked by
    ``validate``, which reports clamped scores to ``warn``.
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    try:
        ident = obj["id"]
        raw_candidates = obj["candidates"]
    except KeyError as exc:
        raise ValueError(f"record is missing key {exc}") from None
    if not isinstance(ident, str):
        raise ValueError("'id' must be a string")
    source_text = obj.get("source")
    if source_text is not None and not isinstance(source_text, str):
        raise ValueError("'source' must be a string or null")
    if not isinstance(raw_candidates, list):
        raise ValueError("'candidates' must be a list")
    candidates = []
    for idx, cand in enumerate(raw_candidates):
        if not isinstance(cand, dict):
            raise ValueError(f"set {ident!r} candidate {idx} must be a JSON object")
        try:
            tokens, scores = cand["tokens"], cand["scores"]
        except KeyError as exc:
            raise ValueError(f"set {ident!r} candidate {idx} is missing key {exc}") from None
        if not isinstance(tokens, list):
            raise ValueError(f"set {ident!r} candidate {idx}: 'tokens' must be a list")
        if not isinstance(scores, list) or not set(map(type, scores)) <= _NUMBER_TYPES:
            raise ValueError(f"set {ident!r} candidate {idx}: 'scores' must be a list of numbers")
        candidates.append(ScoredCandidate(tuple(tokens), tuple(scores)))
    source = tuple(source_text.split()) if source_text is not None else None
    return validate(CandidateSet(ident, tuple(candidates), source), score_floor, warn)


def candidate_record(cset: CandidateSet) -> dict:
    record: dict = {"id": cset.id}
    if cset.source is not None:
        record["source"] = " ".join(cset.source)
    record["candidates"] = [
        {"tokens": list(c.tokens), "scores": list(c.scores)} for c in cset.candidates
    ]
    return record


def fusion_record(ident: str, result: FusionResult, method: str, with_trace: bool) -> dict:
    record: dict = {"id": ident, "output": list(result.tokens), "method": method}
    if with_trace:
        record["trace"] = [
            {
                "region": choice.region_index,
                "chosen": choice.chosen,
                "scores": list(choice.segment_scores),
            }
            for choice in result.trace
        ]
    return record


# Input bytes that are not UTF-8 decode to lone surrogates (surrogateescape),
# and a "\ud800" escape parses to one; neither has a UTF-8 encoding.
_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")
# json.dumps escapes every other line break; str.splitlines() also splits on these
_LINE_BREAK_ESCAPES = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})


def _dump(obj: dict, out: IO[str]) -> None:
    text = json.dumps(obj, ensure_ascii=False, allow_nan=False)
    if not text.isascii():
        if _LONE_SURROGATE.search(text):
            raise CdsError("output would hold a lone surrogate, which is not valid UTF-8")
        text = text.translate(_LINE_BREAK_ESCAPES)
    out.write(text)
    out.write("\n")


def _diagnostic(err: IO[str], line_no: int, message: str) -> None:
    _dump({"line": line_no, "error": message}, err)


@contextmanager
def _open_input(path: str, stdin: IO[str]):
    # invalid UTF-8 must fail its own line, not the whole stream
    if path == "-":
        if isinstance(stdin, io.TextIOWrapper):
            stdin.reconfigure(errors="surrogateescape")
        yield stdin
    else:
        with _open_text(path) as fp:
            yield fp


def _open_text(path: str) -> IO[str]:
    # a line with invalid UTF-8 is found by _is_invalid_utf8
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _is_invalid_utf8(line: str) -> bool:
    return not line.isascii() and _LONE_SURROGATE.search(line) is not None


def _truncated(cset: CandidateSet, max_candidates: int | None) -> CandidateSet:
    if max_candidates is None or len(cset.candidates) <= max_candidates:
        return cset
    return CandidateSet(cset.id, cset.candidates[:max_candidates], cset.source)


def _iter_records(
    stream: IO[str], err: IO[str], score_floor: float
) -> Iterator[tuple[int, CandidateSet | None]]:
    """Yield (line number, parsed set) pairs; parse failures yield None."""

    def warn(message: str) -> None:
        _diagnostic(err, 0, f"warning: {message}")

    for line_no, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if _is_invalid_utf8(line):
                raise ValueError("line is not valid UTF-8")
            cset = parse_candidate_record(json.loads(line), score_floor, warn)
        except (CdsError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            # OverflowError: an int score beyond float range;
            # RecursionError: nesting too deep for the json decoder
            _diagnostic(err, line_no, str(exc))
            yield line_no, None
            continue
        yield line_no, cset


def cmd_fuse(args: argparse.Namespace, stdin: IO[str], stdout: IO[str], stderr: IO[str]) -> int:
    floor, scorer = _record_settings(args)
    if args.oracle_check:
        _bind_oracle()  # build_lattice and oracle_best, called below
    failed = False
    with _open_input(args.input, stdin) as stream:
        for line_no, cset in _iter_records(stream, stderr, floor):
            if cset is None:
                failed = True
                continue
            cset = _truncated(cset, args.max_candidates)
            try:
                result = candidate_soups(cset, scorer, floor, dedup=not args.no_dedup)
                if args.oracle_check:
                    prepared = rescore_set(cset, scorer, dedup=not args.no_dedup)
                    best = oracle_best(build_lattice(prepared))
                    if best != result.tokens:
                        raise CdsError(
                            f"oracle mismatch: fusion {' '.join(result.tokens)!r} "
                            f"vs best path {' '.join(best)!r}"
                        )
                _dump(fusion_record(cset.id, result, "cds", args.trace), stdout)
            except CdsError as exc:
                _diagnostic(stderr, line_no, str(exc))
                failed = True
    return 1 if failed else 0


def cmd_npd(args: argparse.Namespace, stdin: IO[str], stdout: IO[str], stderr: IO[str]) -> int:
    floor, scorer = _record_settings(args)
    failed = False
    with _open_input(args.input, stdin) as stream:
        for line_no, cset in _iter_records(stream, stderr, floor):
            if cset is None:
                failed = True
                continue
            cset = _truncated(cset, args.max_candidates)
            try:
                _, winner = npd_select(cset, scorer)
                _dump({"id": cset.id, "output": list(winner.tokens), "method": "npd"}, stdout)
            except CdsError as exc:
                _diagnostic(stderr, line_no, str(exc))
                failed = True
    return 1 if failed else 0


def _load_noise_config(args: argparse.Namespace) -> NoiseConfig:
    """``synth``'s noise settings: the ``--config`` file, then the flags.

    A line that does not parse, an unknown key, or a value ``NoiseConfig``
    rejects is a usage error.
    """
    from .synth import NoiseConfig

    values: dict = {}
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fp:
                for raw in fp:
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    key, _, value = line.partition("=")
                    key = key.strip()
                    if key not in NoiseConfig.field_names():
                        raise ValueError(f"unknown config key {key!r}")
                    values[key] = int(value) if key == "rng_seed" else float(value)
        for name in NoiseConfig.field_names():
            flag = getattr(args, name, None)
            if flag is not None:
                values[name] = flag
        return NoiseConfig(**values)
    except ValueError as exc:
        raise UsageError(f"synth: {exc}") from None


def cmd_synth(args: argparse.Namespace, stdin: IO[str], stdout: IO[str], stderr: IO[str]) -> int:
    from .synth import generate_candidates

    floor = _score_floor()
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    config = _load_noise_config(args)
    # read once (the file may be a pipe): the corruption vocabulary needs
    # every line before the first record is generated
    with _open_text(args.refs) as fp:
        lines = fp.readlines()
    vocab_seen: dict[str, None] = {}
    for line in lines:
        if _is_invalid_utf8(line):
            continue  # reported below
        for tok in line.split():
            vocab_seen.setdefault(tok)
    vocab = tuple(vocab_seen)
    failed = False
    for index, line in enumerate(lines):
        line_no = index + 1
        if _is_invalid_utf8(line):
            _diagnostic(stderr, line_no, "reference line is not valid UTF-8")
            failed = True
            continue
        reference = tuple(line.split())
        try:
            cset = generate_candidates(
                reference, args.k, config, vocab, ident=str(index), score_floor=floor
            )
        except EmptyReference:
            _diagnostic(stderr, line_no, "reference sentence is empty")
            failed = True
            continue
        _dump(candidate_record(cset), stdout)
    return 1 if failed else 0


class _BadInputLine(Exception):
    """A line that stops a command which needs its whole input file."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}: {message}")
        self.line_no = line_no


def _checked_lines(path: str, fp: IO[str]) -> Iterator[tuple[int, str]]:
    for line_no, line in enumerate(fp, start=1):
        if _is_invalid_utf8(line):
            raise _BadInputLine(path, line_no, "line is not valid UTF-8")
        yield line_no, line


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    with _open_text(path) as fp:
        yield from _checked_lines(path, fp)


def _read_token_lines(path: str) -> list[tuple[str, ...]]:
    return [tuple(line.split()) for _, line in _read_lines(path)]


def _read_jsonl_outputs(path: str) -> list[tuple[str, ...]]:
    out = []
    for line_no, line in _read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            output = json.loads(line)["output"]
        except json.JSONDecodeError as exc:
            raise _BadInputLine(path, line_no, f"invalid JSON: {exc.msg}") from None
        except (KeyError, TypeError, RecursionError):
            raise _BadInputLine(path, line_no, "record must be an object with 'output'") from None
        if not isinstance(output, list) or not set(map(type, output)) <= {str}:
            raise _BadInputLine(path, line_no, "'output' must be a list of strings")
        out.append(tuple(output))
    return out


def cmd_bleu(args: argparse.Namespace, stdin: IO[str], stdout: IO[str], stderr: IO[str]) -> int:
    from .bleu import bleu_with_smoothing, corpus_bleu

    if args.max_n < 1:
        raise UsageError(f"--max-n must be >= 1, got {args.max_n}")
    if args.smooth is not None and not 0 < args.smooth < math.inf:
        raise UsageError(f"--smooth must be a finite number > 0, got {args.smooth!r}")
    try:
        hyps = _read_jsonl_outputs(args.hyp) if args.hyp_jsonl else _read_token_lines(args.hyp)
        refs = _read_token_lines(args.ref)
        if len(hyps) == len(refs):  # a count mismatch is reported first, as corpus_bleu does
            for line_no, ref in enumerate(refs, start=1):
                if not ref:
                    raise _BadInputLine(args.ref, line_no, "reference sentence is empty")
    except _BadInputLine as exc:
        _diagnostic(stderr, exc.line_no, str(exc))
        return 1
    if args.smooth is not None:
        report = bleu_with_smoothing(hyps, refs, max_n=args.max_n, epsilon=args.smooth)
    else:
        report = corpus_bleu(hyps, refs, max_n=args.max_n)
    _dump(report.to_json(), stdout)
    return 0


def _parse_sweep(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        start = stop = 0
    if start < 1 or stop < start:
        raise UsageError(f"--sweep-k must be A..B with 1 <= A <= B, got {text!r}")
    return start, stop


def cmd_compare(args: argparse.Namespace, stdin: IO[str], stdout: IO[str], stderr: IO[str]) -> int:
    from .bleu import BleuAccumulator, Reference

    sweep = _parse_sweep(args.sweep_k) if args.sweep_k else None
    floor = _score_floor()
    scorer = _make_scorer(args.scorer, floor)

    accumulators = {name: BleuAccumulator() for name in ("single", "npd", "cds")}
    sweep_acc: dict[int, dict[str, BleuAccumulator]] = {}
    if sweep:
        for k in range(sweep[0], sweep[1] + 1):
            sweep_acc[k] = {"cds": BleuAccumulator(), "npd": BleuAccumulator()}

    fusion_seconds = 0.0
    sentences = 0
    seen_ids: set[str] = set()
    with (
        _open_text(args.refs) as ref_fp,
        _open_input(args.input, stdin) as stream,
    ):
        records = _iter_records(stream, stderr, floor)
        for line_no, cset in records:
            if cset is None:
                return 1  # diagnostic already emitted
            if cset.id in seen_ids:
                return _compare_fail(stderr, line_no, f"duplicate record id {cset.id!r}")
            seen_ids.add(cset.id)
            ref_line = ref_fp.readline()
            if not ref_line:
                return _compare_fail(stderr, line_no, "more records than references")
            if _is_invalid_utf8(ref_line):
                return _compare_fail(
                    stderr, line_no, f"reference line {sentences + 1} is not valid UTF-8"
                )
            ref_tokens = ref_line.split()
            if not ref_tokens:
                return _compare_fail(stderr, line_no, f"reference line {sentences + 1} is empty")
            # every method and sweep step below is scored against this one record's
            # n-gram counts, and each distinct output is clipped once
            reference = Reference(ref_tokens)
            sentences += 1

            single = remove_adjacent_duplicates(cset.candidates[0])
            accumulators["single"].add(single.tokens, reference)
            _, npd_winner = npd_select(cset, scorer)
            accumulators["npd"].add(npd_winner.tokens, reference)
            started = time.perf_counter()
            fused = candidate_soups(cset, scorer, floor)
            fusion_seconds += time.perf_counter() - started
            accumulators["cds"].add(fused.tokens, reference)

            for k, accs in sweep_acc.items():
                subset = _truncated(cset, k)
                accs["cds"].add(candidate_soups(subset, scorer, floor).tokens, reference)
                accs["npd"].add(npd_select(subset, scorer)[1].tokens, reference)
        if ref_fp.readline():
            return _compare_fail(stderr, 0, "more references than records")

    if sentences == 0:
        return _compare_fail(stderr, 0, "no records to compare")

    summary = {
        "sentences": sentences,
        "methods": {name: acc.report().bleu for name, acc in accumulators.items()},
        "mean_fusion_ms": 1000.0 * fusion_seconds / sentences,
        "sweep": [
            {"k": k, "cds": accs["cds"].report().bleu, "npd": accs["npd"].report().bleu}
            for k, accs in sorted(sweep_acc.items())
        ],
    }
    if args.json:
        _dump(summary, stdout)
    else:
        stdout.write(f"sentences\t{sentences}\n")
        for name in ("single", "npd", "cds"):
            stdout.write(f"{name}\t{summary['methods'][name]:.2f}\n")
        stdout.write(f"mean_fusion_ms\t{summary['mean_fusion_ms']:.4f}\n")
        if sweep_acc:
            stdout.write("k\tcds\tnpd\n")
            for row in summary["sweep"]:
                stdout.write(f"{row['k']}\t{row['cds']:.2f}\t{row['npd']:.2f}\n")
    return 0


def _compare_fail(stderr: IO[str], line_no: int, message: str) -> int:
    _diagnostic(stderr, line_no, message)
    return 1


def cmd_ngram_train(
    args: argparse.Namespace, stdin: IO[str], stdout: IO[str], stderr: IO[str]
) -> int:
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    if not 0 < args.alpha < math.inf:
        raise UsageError(f"--alpha must be a finite number > 0, got {args.alpha!r}")
    try:
        with _open_input(args.corpus, stdin) as stream:
            lines = _checked_lines(args.corpus, stream)
            corpus = [line.split() for _, line in lines if line.strip()]
    except _BadInputLine as exc:
        _diagnostic(stderr, exc.line_no, str(exc))
        return 1
    model = train_ngram(corpus, n=args.order, alpha=args.alpha)
    save_ngram(model, args.output)
    stdout.write(
        f"trained order-{model.order} model on {len(corpus)} sentences "
        f"({len(model.vocabulary)} vocabulary entries) -> {args.output}\n"
    )
    return 0


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scorer",
        default="self",
        help="'self' (keep stored scores) or 'ngram:<model-path>'",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        metavar="N",
        help="truncate each record to its first N candidates",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cds",
        description="Fuse scored candidate token sequences (and baselines) over JSON lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse each candidate record into one sequence")
    fuse.add_argument("input", nargs="?", default="-", help="JSONL records ('-' for stdin)")
    _add_scorer_flags(fuse)
    fuse.add_argument("--trace", action="store_true", help="emit per-region decisions")
    fuse.add_argument(
        "--oracle-check",
        action="store_true",
        help="verify each fusion against the lattice's best path (per-region argmax)",
    )
    fuse.add_argument(
        "--no-dedup", action="store_true", help="skip adjacent-duplicate removal (diagnostic)"
    )
    fuse.set_defaults(handler=cmd_fuse)

    npd = sub.add_parser("npd", help="keep the best whole candidate per record")
    npd.add_argument("input", nargs="?", default="-")
    _add_scorer_flags(npd)
    npd.set_defaults(handler=cmd_npd)

    synth = sub.add_parser("synth", help="generate candidate records from reference sentences")
    synth.add_argument("refs", help="one whitespace-tokenized sentence per line")
    synth.add_argument("--k", type=int, default=5, help="candidates per sentence")
    synth.add_argument("--seed", dest="rng_seed", type=int, default=None)
    for rate in ("substitution-rate", "insertion-rate", "deletion-rate", "duplication-rate"):
        synth.add_argument(f"--{rate}", type=float, default=None)
    for stat in (
        "correct-score-mean",
        "correct-score-std",
        "error-score-mean",
        "error-score-std",
    ):
        synth.add_argument(f"--{stat}", type=float, default=None)
    synth.add_argument("--config", default=None, help="key=value noise settings file")
    synth.set_defaults(handler=cmd_synth)

    bleu = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against references")
    bleu.add_argument("hyp", help="hypotheses: tokenized text, or JSONL with --hyp-jsonl")
    bleu.add_argument("ref", help="references: one tokenized sentence per line")
    bleu.add_argument(
        "--hyp-jsonl",
        action="store_true",
        help="read hypotheses from fusion records' 'output' fields",
    )
    bleu.add_argument("--smooth", type=float, default=None, metavar="EPS")
    bleu.add_argument("--max-n", type=int, default=4)
    bleu.set_defaults(handler=cmd_bleu)

    compare = sub.add_parser(
        "compare", help="per-method corpus BLEU (single / npd / cds) plus fusion timing"
    )
    compare.add_argument("input", nargs="?", default="-")
    compare.add_argument("--refs", required=True, help="reference sentences aligned with records")
    compare.add_argument("--scorer", default="self")
    compare.add_argument(
        "--sweep-k", default=None, metavar="A..B", help="also report one row per candidate count"
    )
    compare.add_argument("--json", action="store_true", help="emit the summary as one JSON object")
    compare.set_defaults(handler=cmd_compare)

    train = sub.add_parser("ngram-train", help="train and persist an n-gram scorer model")
    train.add_argument("corpus", help="tokenized text, one sentence per line ('-' for stdin)")
    train.add_argument("-o", "--output", required=True)
    train.add_argument("--order", type=int, default=3)
    train.add_argument("--alpha", type=float, default=0.1)
    train.set_defaults(handler=cmd_ngram_train)

    return parser


def main(
    argv: Sequence[str] | None = None,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
    stderr: IO[str] | None = None,
) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, stdin, stdout, stderr)
    except UsageError as exc:
        _diagnostic(stderr, 0, str(exc))
        return 2
    except (CdsError, OSError, ValueError) as exc:
        _diagnostic(stderr, 0, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
