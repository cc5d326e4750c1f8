"""The corpus commands of ``cds``: synth, bleu and ngram-train.

``cli`` loads this module only to build or run one of these commands, so
``fuse``, ``npd`` and ``compare`` never compile it.  The commands read and
write by ``cli``'s rules (``cli._input_lines``, ``cli._dump``, ``cli._Stop``),
and each loads the module it runs (``synth``, ``bleu`` or ``ngram``) only
when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
from collections.abc import Callable

from .candidates import _decimal, _tokens_valid
from .cli import IO, UsageError, _diagnostic, _dump, _input_lines, _Stop, candidate_record
from .errors import EmptyInput


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


def cmd_synth(args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO) -> int:
    from .synth import NoiseConfig, Vocabulary, generate_candidates

    config = NoiseConfig(rng_seed=args.rng_seed)

    # read once (the file may be a pipe): the corruption vocabulary needs
    # every line before the first record is generated
    with _input_lines(args.refs, stdin) as refs:
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


def _read_token_lines(path: str, stdin: IO) -> list[tuple[str, ...]]:
    """Every line of ``path`` split into tokens; an invalid UTF-8 line stops the command."""
    out = []
    with _input_lines(path, stdin) as lines:
        for line_no, line in lines:
            if line is None:
                raise _Stop(line_no, f"{path}: line is not valid UTF-8")
            out.append(tuple(line.split()))
    return out


def _read_jsonl_outputs(path: str, stdin: IO) -> list[tuple[str, ...]]:
    """The ``output`` of every record in ``path``; a bad line stops the command."""
    out = []
    with _input_lines(path, stdin) as lines:
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
    if args.hyp == args.ref == "-":
        raise UsageError("cds bleu: hyp and ref cannot both be '-' (stdin)")
    from .bleu import corpus_bleu

    hyps = _read_jsonl_outputs(args.hyp, stdin)
    refs = _read_token_lines(args.ref, stdin)
    if len(hyps) == len(refs):  # a count mismatch is reported first, as corpus_bleu does
        for line_no, ref in enumerate(refs, start=1):
            if not ref:
                raise _Stop(line_no, f"{args.ref}: reference sentence is empty")
    _dump(corpus_bleu(hyps, refs).to_json(), stdout)
    return 0


def cmd_ngram_train(
    args: argparse.Namespace, stdin: IO, stdout: IO, stderr: IO
) -> int:
    from .ngram import save_ngram, train_ngram

    corpus = [tokens for tokens in _read_token_lines(args.corpus, stdin) if tokens]
    model = train_ngram(corpus, n=args.order, alpha=args.alpha)
    save_ngram(model, args.output)
    stdout.write(
        f"trained order-{model.order} model on {len(corpus)} sentences "
        f"({len(model.vocabulary)} vocabulary entries) -> {args.output}\n"
    )
    return 0


def _synth_parser(sub: argparse._SubParsersAction) -> None:
    synth = sub.add_parser("synth", help="generate candidate records from reference sentences")
    synth.add_argument("refs", help="one whitespace-tokenized sentence per line")
    synth.add_argument("--k", type=_int_in(1), default=5, help="candidates per sentence")
    synth.add_argument("--seed", dest="rng_seed", type=int, default=0)
    synth.set_defaults(handler=cmd_synth)


def _bleu_parser(sub: argparse._SubParsersAction) -> None:
    bleu = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against references")
    bleu.add_argument("hyp", help="hypotheses: JSONL records' 'output' lists, as fuse writes")
    bleu.add_argument("ref", help="references: one tokenized sentence per line")
    bleu.set_defaults(handler=cmd_bleu)


def _ngram_train_parser(sub: argparse._SubParsersAction) -> None:
    from .ngram import MAX_ORDER  # only a parser that defines --order loads the model code

    train = sub.add_parser("ngram-train", help="train and persist an n-gram scorer model")
    train.add_argument("corpus", help="tokenized text, one sentence per line ('-' for stdin)")
    train.add_argument("-o", "--output", required=True)
    train.add_argument("--order", type=_int_in(1, MAX_ORDER), default=3)
    train.add_argument("--alpha", type=_positive_float, default=0.1)
    train.set_defaults(handler=cmd_ngram_train)


# command -> the function that adds its parser to ``cli.build_parser``'s subparsers
PARSERS = {"synth": _synth_parser, "bleu": _bleu_parser, "ngram-train": _ngram_train_parser}
