"""Batch command-line interface over line-delimited JSON.

Commands: fuse | npd | synth | bleu | compare | ngram-train.  Every input
is read by ``_input_lines``, one numbered line at a time, and output order
matches input order.  The streaming commands (fuse, npd, synth) report a
bad line (malformed JSON or UTF-8, a record of the wrong shape or types, an
invalid candidate set, an empty reference) to stderr as a JSON line
``{"line": N, "error": "..."}`` and go on with the next line.  The commands
that need a whole input (compare, bleu, ngram-train) stop at the first bad
line with one such diagnostic (``_Stop``).  The process exits 0 on success,
1 when any line failed, 2 on usage errors.  A usage error is reported as one
line-0 diagnostic before any input is read: an argument that argparse or its
type (``_int_in``, ``_positive_float``, ``_k_range``) rejects, or a
``--scorer`` that is unknown or names a model that ``load_ngram`` rejects.
A count, order or bound is ASCII decimal digits alone
(``candidates._decimal``); ``--seed`` and ``--alpha`` take what ``int()``
and ``float()`` take.  ``synth`` draws with ``NoiseConfig``'s default rates
and ``bleu`` scores plain 4-gram BLEU; the library reaches the rest.

Scores are clamped to ``DEFAULT_SCORE_FLOOR``, and a clamp is reported as a
``"warning: ..."`` diagnostic on its record's line.  The process's own
stdin, stdout and stderr are UTF-8 whatever the locale, so a run depends
only on its arguments and input bytes.  Output is strict JSON (no NaN or
Infinity) in valid UTF-8.  Only the commands that run ``bleu``,
``lattice_oracle`` or ``synth`` import them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext

from .candidates import (
    DEFAULT_SCORE_FLOOR,
    CandidateSet,
    ScoredCandidate,
    _decimal,
    _tokens_valid,
    validate,
)
from .errors import CdsError, EmptyInput
from .fusion import FusionResult, candidate_soups
from .scoring import (
    MAX_ORDER,
    NGramScorer,
    Scorer,
    SelfScorer,
    load_ngram,
    npd_index,
    npd_select,
    rescore_set,
    save_ngram,
    train_ngram,
)

IO = io.TextIOBase  # the text stream the annotations name; typing.IO would load typing

_PREPARED = SelfScorer()  # reads the scores of a set that rescore_set has prepared

# Only ``fuse --oracle-check`` calls these two, so no other command loads
# ``lattice_oracle``.  ``cmd_fuse`` calls them through the module globals,
# where ``perfbench``'s tracer patches them.


def build_lattice(cset: CandidateSet):
    from . import lattice_oracle

    return lattice_oracle.build_lattice(cset)


def oracle_best(lattice) -> tuple[str, ...]:
    from . import lattice_oracle

    return lattice_oracle.oracle_best(lattice)


class UsageError(Exception):
    """Bad configuration: reported once, before any input is read, with exit 2."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (an unknown, missing or malformed argument)
    as ``UsageError``, so they reach stderr as a JSON diagnostic too."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _make_scorer(selector: str) -> Scorer:
    """The scorer ``--scorer`` names; bad values are usage errors."""
    if selector == "self":
        return SelfScorer()
    if selector.startswith("ngram:"):
        try:
            model = load_ngram(selector[len("ngram:") :])
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load --scorer model: {exc}") from None
        return NGramScorer(model)
    raise UsageError(f"unknown scorer {selector!r}; expected 'self' or 'ngram:<model-path>'")


def _int_in(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer of ASCII digits in lo..hi (no bound above when hi is None)."""
    bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def parse(text: str) -> int:
        value = _decimal(text)
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be an integer {bounds}, got {text!r}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


# ``compare`` sets up two BLEU accumulators per swept count before it reads
# any input, and fuses every record once per count: B bounds memory and time.
MAX_SWEEP_K = 1000


def _k_range(text: str) -> range:
    """An argparse type: ``A..B`` with 1 <= A <= B <= MAX_SWEEP_K, as the counts A to B."""
    lo, _, hi = text.partition("..")
    start, stop = _decimal(lo) or 0, _decimal(hi) or 0
    if not 1 <= start <= stop <= MAX_SWEEP_K:
        raise argparse.ArgumentTypeError(f"{text!r} is not A..B with 1 <= A <= B <= {MAX_SWEEP_K}")
    return range(start, stop + 1)


_NUMBER_TYPES = {int, float}  # exact types: bool is an int subclass, not a score


def parse_candidate_record(obj: dict, warn: Callable[[str], object] | None = None) -> CandidateSet:
    """Turn one wire-format record into a validated CandidateSet.

    ``id`` is a string, ``source`` a string, null or absent, ``candidates`` a
    list of objects whose ``tokens`` is a list and ``scores`` a list of
    numbers (not booleans or strings).  Token values are checked by
    ``validate``, which clamps scores to ``DEFAULT_SCORE_FLOOR`` and reports
    each clamp to ``warn``.
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
        candidates.append(ScoredCandidate(tokens, scores))
    source = tuple(source_text.split()) if source_text is not None else None
    return validate(CandidateSet(ident, tuple(candidates), source), DEFAULT_SCORE_FLOOR, warn)


def candidate_record(cset: CandidateSet) -> dict:
    record: dict = {"id": cset.id}
    if cset.source is not None:
        record["source"] = " ".join(cset.source)
    record["candidates"] = [{"tokens": c.tokens, "scores": c.scores} for c in cset.candidates]
    return record


def fusion_record(ident: str, result: FusionResult, with_trace: bool) -> dict:
    record: dict = {"id": ident, "output": result.tokens, "method": "cds"}
    if with_trace:
        record["trace"] = [
            {"region": region, "chosen": choice.chosen, "scores": choice.segment_scores}
            for region, choice in enumerate(result.trace)
        ]
    return record


# Input bytes that are not UTF-8 decode to lone surrogates (surrogateescape),
# and a "\ud800" escape parses to one; neither has a UTF-8 encoding.
_LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")
# the encoder escapes every other line break; str.splitlines() also splits on these
_LINE_BREAK_ESCAPES = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)  # writes a tuple as a list


def _dump(obj: dict, out: IO) -> None:
    text = _ENCODER.encode(obj)
    if not text.isascii():
        if _LONE_SURROGATE.search(text):
            raise CdsError("output would hold a lone surrogate, which is not valid UTF-8")
        text = text.translate(_LINE_BREAK_ESCAPES)
    out.write(text)
    out.write("\n")


def _diagnostic(err: IO, line_no: int, message: str) -> None:
    _dump({"line": line_no, "error": message}, err)


@contextmanager
def _input_lines(path: str, stdin: IO | None = None):
    """Open ``path`` (``-``: ``stdin``, when given) and yield its numbered lines.

    Each item is ``(line_no, line)``, counted from 1, with ``line`` None
    where the line is not valid UTF-8: that fails its own line, or stops a
    command that needs the whole input, never the read itself.
    """
    if path == "-" and stdin is not None:
        source = nullcontext(stdin)
    else:
        source = open(path, "r", encoding="utf-8", errors="surrogateescape")
    with source as fp:
        yield (
            (line_no, None if not line.isascii() and _LONE_SURROGATE.search(line) else line)
            for line_no, line in enumerate(fp, start=1)
        )


class _Stop(Exception):
    """Stops a command at an input line: ``main`` reports it there and exits 1."""

    def __init__(self, line_no: int, message: str):
        super().__init__(message)
        self.line_no = line_no


def _iter_records(
    lines: Iterator[tuple[int, str | None]], err: IO
) -> Iterator[tuple[int, CandidateSet | None]]:
    """Yield (line number, parsed set) pairs from ``_input_lines``; parse failures yield None."""

    def warn(message: str) -> None:
        _diagnostic(err, line_no, f"warning: {message}")  # the line being parsed

    for line_no, line in lines:
        try:
            if line is None:
                raise ValueError("line is not valid UTF-8")
            line = line.strip()
            if not line:
                continue
            cset = parse_candidate_record(json.loads(line), warn)
        except (CdsError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            # OverflowError: an int score beyond float range;
            # RecursionError: nesting too deep for the json decoder
            _diagnostic(err, line_no, str(exc))
            yield line_no, None
            continue
        yield line_no, cset


def _stream(
    args: argparse.Namespace,
    stdin: IO,
    stdout: IO,
    stderr: IO,
    output: Callable[[CandidateSet], dict],
) -> int:
    """Write ``output`` of every record; a ``CdsError`` fails only its record's line."""
    failed = False
    with _input_lines(args.input, stdin) as lines:
        for line_no, cset in _iter_records(lines, stderr):
            if cset is None:
                failed = True
                continue
            try:
                record = output(cset)
                try:
                    _dump(record, stdout)
                except CdsError as exc:  # _dump knows no record; !r escapes a surrogate in the id
                    raise CdsError(f"set {cset.id!r}: {exc}") from None
            except CdsError as exc:
                _diagnostic(stderr, line_no, str(exc))
                failed = True
    return 1 if failed else 0


def cmd_fuse(args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO) -> int:
    scorer = _make_scorer(args.scorer)

    def output(cset: CandidateSet) -> dict:
        if not args.oracle_check:
            return fusion_record(cset.id, candidate_soups(cset, scorer), args.trace)
        prepared = rescore_set(cset, scorer)  # fusion and the lattice read one rescored set
        result = candidate_soups(prepared, _PREPARED)
        best = oracle_best(build_lattice(prepared))
        if best != result.tokens:
            raise CdsError(
                f"oracle mismatch: set {cset.id!r}: fusion {' '.join(result.tokens)!r} "
                f"vs best path {' '.join(best)!r}"
            )
        return fusion_record(cset.id, result, args.trace)

    return _stream(args, stdin, stdout, stderr, output)


def cmd_npd(args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO) -> int:
    scorer = _make_scorer(args.scorer)

    def output(cset: CandidateSet) -> dict:
        _, winner = npd_select(cset, scorer)
        return {"id": cset.id, "output": winner.tokens, "method": "npd"}

    return _stream(args, stdin, stdout, stderr, output)


def cmd_synth(args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO) -> int:
    from .synth import NoiseConfig, Vocabulary, generate_candidates

    config = NoiseConfig(rng_seed=args.rng_seed)

    # read once (the file may be a pipe): the corruption vocabulary needs
    # every line before the first record is generated
    with _input_lines(args.refs) as refs:
        lines = list(refs)
    texts = [line for _, line in lines if line is not None]  # None lines are reported below
    vocab = Vocabulary(tok for text in texts for tok in text.split())  # prepared once
    failed = False
    for line_no, line in lines:
        if line is None:
            _diagnostic(stderr, line_no, "reference line is not valid UTF-8")
            failed = True
            continue
        reference = tuple(line.split())
        try:
            cset = generate_candidates(reference, args.k, config, vocab, ident=str(line_no - 1))
        except EmptyInput:
            _diagnostic(stderr, line_no, "reference sentence is empty")
            failed = True
            continue
        _dump(candidate_record(cset), stdout)
    return 1 if failed else 0


def _read_token_lines(path: str, stdin: IO | None = None) -> list[tuple[str, ...]]:
    """Every line of ``path`` split into tokens; an invalid UTF-8 line stops the command."""
    out = []
    with _input_lines(path, stdin) as lines:
        for line_no, line in lines:
            if line is None:
                raise _Stop(line_no, f"{path}: line is not valid UTF-8")
            out.append(tuple(line.split()))
    return out


def _read_jsonl_outputs(path: str) -> list[tuple[str, ...]]:
    """The ``output`` of every record in ``path``; a bad line stops the command."""
    out = []
    with _input_lines(path) as lines:
        for line_no, line in lines:
            if line is None:
                raise _Stop(line_no, f"{path}: line is not valid UTF-8")
            line = line.strip()
            if not line:
                continue
            try:
                output = json.loads(line)["output"]
            except json.JSONDecodeError as exc:
                raise _Stop(line_no, f"{path}: invalid JSON: {exc.msg}") from None
            except (ValueError, RecursionError) as exc:
                # an integer with more digits than int() converts, or nesting
                # too deep for the decoder
                raise _Stop(line_no, f"{path}: invalid JSON: {exc}") from None
            except (KeyError, TypeError):
                raise _Stop(line_no, f"{path}: record must be an object with 'output'") from None
            if not isinstance(output, list) or not set(map(type, output)) <= {str}:
                raise _Stop(line_no, f"{path}: 'output' must be a list of strings")
            output = tuple(output)
            # a token the text form could not hold would score as something else
            if output and not _tokens_valid(output):
                tok = next(t for t in output if not _tokens_valid((t,)))
                raise _Stop(line_no, f"{path}: 'output' token {tok!r} must be a non-empty "
                                     "string without whitespace")
            out.append(output)
    return out


def cmd_bleu(args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO) -> int:
    from .bleu import corpus_bleu

    hyps = _read_jsonl_outputs(args.hyp) if args.hyp_jsonl else _read_token_lines(args.hyp)
    refs = _read_token_lines(args.ref)
    if len(hyps) == len(refs):  # a count mismatch is reported first, as corpus_bleu does
        for line_no, ref in enumerate(refs, start=1):
            if not ref:
                raise _Stop(line_no, f"{args.ref}: reference sentence is empty")
    _dump(corpus_bleu(hyps, refs).to_json(), stdout)
    return 0


def _truncated(cset: CandidateSet, k: int) -> CandidateSet:
    """``cset`` cut to its first ``k`` candidates, for one ``--sweep-k`` row.

    Dedup and rescoring act on each candidate alone, so a cut of a rescored
    set is the rescored cut.
    """
    if len(cset.candidates) <= k:
        return cset
    return CandidateSet(cset.id, cset.candidates[:k], cset.source)


def cmd_compare(args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO) -> int:
    from .bleu import BleuAccumulator, Reference

    scorer = _make_scorer(args.scorer)
    accumulators = {name: BleuAccumulator() for name in ("single", "npd", "cds")}
    sweep_acc = {k: {"cds": BleuAccumulator(), "npd": BleuAccumulator()}
                 for k in args.sweep_k or ()}

    fusion_seconds = 0.0
    sentences = 0
    seen_ids: set[str] = set()
    with (
        _input_lines(args.refs) as ref_lines,
        _input_lines(args.input, stdin) as lines,
    ):
        for line_no, cset in _iter_records(lines, stderr):
            if cset is None:
                return 1  # diagnostic already emitted
            if cset.id in seen_ids:
                raise _Stop(line_no, f"duplicate record id {cset.id!r}")
            seen_ids.add(cset.id)
            ref = next(ref_lines, None)
            if ref is None:
                raise _Stop(line_no, "more records than references")
            ref_no, ref_line = ref
            if ref_line is None:
                raise _Stop(line_no, f"reference line {ref_no} is not valid UTF-8")
            ref_tokens = ref_line.split()
            if not ref_tokens:
                raise _Stop(line_no, f"reference line {ref_no} is empty")
            # every method and sweep step below is scored against this one record's
            # n-gram counts, and each distinct output is clipped once
            reference = Reference(ref_tokens)
            sentences += 1

            started = time.perf_counter()  # the fusion time covers the scoring
            prepared = rescore_set(cset, scorer)  # every method and sweep step reads this set
            fused = candidate_soups(prepared, _PREPARED)
            fusion_seconds += time.perf_counter() - started
            accumulators["single"].add(prepared.candidates[0].tokens, reference)
            accumulators["npd"].add(prepared.candidates[npd_index(prepared)].tokens, reference)
            accumulators["cds"].add(fused.tokens, reference)

            # largest k first: the rows at or past the set's size then reuse the
            # partition of the full fusion above (alignment.partition's memo)
            for k, accs in reversed(sweep_acc.items()):
                subset = _truncated(prepared, k)
                accs["cds"].add(candidate_soups(subset, _PREPARED).tokens, reference)
                accs["npd"].add(npd_select(subset, _PREPARED)[1].tokens, reference)
        unread = next(ref_lines, None)
        if unread is not None:
            ref_no, _ = unread
            raise _Stop(0, f"more references than records: reference line {ref_no} has no record")

    if sentences == 0:
        raise _Stop(0, "no records to compare")

    summary = {
        "sentences": sentences,
        "methods": {name: acc.report().bleu for name, acc in accumulators.items()},
        "mean_fusion_ms": 1000.0 * fusion_seconds / sentences,
        "sweep": [
            {"k": k, "cds": accs["cds"].report().bleu, "npd": accs["npd"].report().bleu}
            for k, accs in sweep_acc.items()
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


def cmd_ngram_train(
    args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO
) -> int:
    corpus = [tokens for tokens in _read_token_lines(args.corpus, stdin) if tokens]
    model = train_ngram(corpus, n=args.order, alpha=args.alpha)
    save_ngram(model, args.output)
    stdout.write(
        f"trained order-{model.order} model on {len(corpus)} sentences "
        f"({len(model.vocabulary)} vocabulary entries) -> {args.output}\n"
    )
    return 0


_SCORER_HELP = "'self' (keep stored scores) or 'ngram:<model-path>'"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cds",
        description="Fuse scored candidate token sequences (and baselines) over JSON lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse each candidate record into one sequence")
    fuse.add_argument("input", nargs="?", default="-", help="JSONL records ('-' for stdin)")
    fuse.add_argument("--scorer", default="self", help=_SCORER_HELP)
    fuse.add_argument("--trace", action="store_true", help="emit per-region decisions")
    fuse.add_argument(
        "--oracle-check",
        action="store_true",
        help="verify each fusion against the lattice's best path (per-region argmax)",
    )
    fuse.set_defaults(handler=cmd_fuse)

    npd = sub.add_parser("npd", help="keep the best whole candidate per record")
    npd.add_argument("input", nargs="?", default="-")
    npd.add_argument("--scorer", default="self", help=_SCORER_HELP)
    npd.set_defaults(handler=cmd_npd)

    synth = sub.add_parser("synth", help="generate candidate records from reference sentences")
    synth.add_argument("refs", help="one whitespace-tokenized sentence per line")
    synth.add_argument("--k", type=_int_in(1), default=5, help="candidates per sentence")
    synth.add_argument("--seed", dest="rng_seed", type=int, default=0)
    synth.set_defaults(handler=cmd_synth)

    bleu = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against references")
    bleu.add_argument("hyp", help="hypotheses: tokenized text, or JSONL with --hyp-jsonl")
    bleu.add_argument("ref", help="references: one tokenized sentence per line")
    bleu.add_argument(
        "--hyp-jsonl",
        action="store_true",
        help="read hypotheses from fusion records' 'output' fields",
    )
    bleu.set_defaults(handler=cmd_bleu)

    compare = sub.add_parser(
        "compare", help="per-method corpus BLEU (single / npd / cds) plus fusion timing"
    )
    compare.add_argument("input", nargs="?", default="-")
    compare.add_argument("--refs", required=True, help="reference sentences aligned with records")
    compare.add_argument("--scorer", default="self", help=_SCORER_HELP)
    compare.add_argument(
        "--sweep-k",
        type=_k_range,
        default=None,
        metavar="A..B",
        help="also report one row per candidate count",
    )
    compare.add_argument("--json", action="store_true", help="emit the summary as one JSON object")
    compare.set_defaults(handler=cmd_compare)

    train = sub.add_parser("ngram-train", help="train and persist an n-gram scorer model")
    train.add_argument("corpus", help="tokenized text, one sentence per line ('-' for stdin)")
    train.add_argument("-o", "--output", required=True)
    train.add_argument("--order", type=_int_in(1, MAX_ORDER), default=3)
    train.add_argument("--alpha", type=_positive_float, default=0.1)
    train.set_defaults(handler=cmd_ngram_train)

    return parser


def _utf8(stream: IO, errors: str) -> IO:
    """``stream`` set to UTF-8 whatever the locale, with the handler of Python's UTF-8 mode."""
    if isinstance(stream, io.TextIOWrapper):
        stream.reconfigure(encoding="utf-8", errors=errors)
    return stream


def main(
    argv: Sequence[str] | None = None,
    stdin: IO | None = None,
    stdout: IO | None = None,
    stderr: IO | None = None,
) -> int:
    stdin = stdin if stdin is not None else _utf8(sys.stdin, "surrogateescape")
    stdout = stdout if stdout is not None else _utf8(sys.stdout, "surrogateescape")
    stderr = stderr if stderr is not None else _utf8(sys.stderr, "backslashreplace")
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, stdin, stdout, stderr)
    except UsageError as exc:
        _diagnostic(stderr, 0, str(exc))
        return 2
    except _Stop as exc:
        _diagnostic(stderr, exc.line_no, str(exc))
        return 1
    except (CdsError, OSError, ValueError) as exc:
        _diagnostic(stderr, 0, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
