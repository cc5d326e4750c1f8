import argparse
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candidate_soups import (
    Scorer,
    alignment,
    bleu,
    candidate_soups,
    cli,
    corpus_bleu,
    fusion,
    lattice_oracle,
    npd_select,
)
from candidate_soups.candidates import remove_adjacent_duplicates
from candidate_soups.cli import candidate_record, main, parse_candidate_record
from candidate_soups.errors import ScorerFailure
from candidate_soups.fusion import RegionChoice
from candidate_soups.scoring import MAX_ORDER, SelfScorer, rescore_set
from candidate_soups.synth import NoiseConfig, generate_corpus
from helpers import (
    CROSS_ERROR_FUSED,
    CROSS_ERROR_SCORES,
    CROSS_ERROR_TOKENS,
    QUIET,
    THREE_WAY_FUSED,
    random_references,
    three_way_set,
    word_vocab,
)


def run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_module(argv, stdin_bytes, **env_changes):
    """Run ``python -m candidate_soups`` in a child process with piped stdin.

    Each keyword sets that environment variable, or unsets it when None.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-m", "candidate_soups", *argv],
        input=stdin_bytes,
        capture_output=True,
        env=env,
        timeout=60,
    )


TOO_MANY_DIGITS = "1" * 5000  # more than int() converts from a string


def _int_conversion_error(digits):
    """The interpreter's own message for a string with too many digits."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)


def _decoder_recursion_error(text):
    """The json decoder's own message for nesting too deep."""
    try:
        json.loads(text)
    except RecursionError as exc:
        return str(exc)


TOO_DEEP = "[" * 100_000 + "]" * 100_000


def cross_error_line(ident="pair-1"):
    return json.dumps(
        {
            "id": ident,
            "candidates": [
                {"tokens": toks, "scores": scores}
                for toks, scores in zip(CROSS_ERROR_TOKENS, CROSS_ERROR_SCORES)
            ],
        }
    )


def three_way_line():
    cset = three_way_set()
    return json.dumps(
        {
            "id": cset.id,
            "candidates": [
                {"tokens": list(c.tokens), "scores": list(c.scores)}
                for c in cset.candidates
            ],
        }
    )


class TestFuse:
    def test_cross_error_record_fuses_clean(self):
        code, out, err = run(["fuse"], cross_error_line())
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["output"] == CROSS_ERROR_FUSED
        assert record["method"] == "cds"
        assert record["id"] == "pair-1"
        assert "trace" not in record

    def test_trace_flag_exposes_decisions(self):
        code, out, _ = run(["fuse", "--trace"], three_way_line())
        assert code == 0
        record = json.loads(out)
        assert record["output"] == THREE_WAY_FUSED
        assert [(t["region"], t["chosen"]) for t in record["trace"]] == [(0, 1), (1, 2)]
        assert all(len(t["scores"]) == 3 for t in record["trace"])

    def test_bad_line_reported_good_lines_processed(self):
        stdin = "not json\n" + cross_error_line() + "\n"
        code, out, err = run(["fuse"], stdin)
        assert code == 1
        diagnostic = json.loads(err)
        assert diagnostic["line"] == 1
        assert json.loads(out)["output"] == CROSS_ERROR_FUSED

    def test_length_mismatch_reported_with_line_number(self):
        bad = json.dumps(
            {"id": "b", "candidates": [{"tokens": ["a", "b"], "scores": [-0.1]}]}
        )
        code, _, err = run(["fuse"], cross_error_line() + "\n" + bad + "\n")
        assert code == 1
        assert json.loads(err)["line"] == 2

    def test_oracle_check_passes_on_1000_synthetic_lines(self, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text(
            "".join(f"tok{i % 37} tok{(i + 5) % 37} tok{(i + 11) % 37} tok{(i + 17) % 37}\n"
                    for i in range(1000))
        )
        _, synth_out, _ = run(["synth", str(refs), "--k", "4", "--seed", "5"])
        code, out, err = run(["fuse", "--oracle-check"], synth_out)
        assert code == 0, err
        assert len(out.splitlines()) == 1000

    def test_oracle_mismatch_fails_only_its_line(self, monkeypatch):
        stdin = "".join(line + "\n" for line in
                        (cross_error_line("first"), three_way_line(), cross_error_line("last")))
        _, fused, _ = run(["fuse"], stdin)
        select_best = fusion.select_segment

        def select_worst_of_three(region, scores):
            # keeps the lowest window mean, in the one record with three candidates
            choice = select_best(region, scores)
            if len(region.segments) != 3:
                return choice
            means = choice.segment_scores
            worst = means.index(min(means))
            return RegionChoice(worst, means, region.segments[worst])

        monkeypatch.setattr(fusion, "select_segment", select_worst_of_three)
        code, out, err = run(["fuse", "--oracle-check"], stdin)
        assert code == 1
        (diagnostic,) = [json.loads(line) for line in err.splitlines()]
        assert diagnostic["line"] == 2
        assert diagnostic["error"].startswith("oracle mismatch: set 'threeway': fusion ")
        first, _, last = fused.splitlines()
        assert out.splitlines() == [first, last]

    def test_oracle_check_calls_the_oracle_through_cli(self, monkeypatch):
        # cmd_fuse looks both names up in cli's globals, where the benchmark's
        # tracer patches them
        lattices = []

        def build_lattice(cset):
            lattices.append(lattice_oracle.build_lattice(cset))
            return lattices[-1]

        def wrong_best(lattice):
            assert lattice is lattices[-1]
            return ("wrong",)

        monkeypatch.setattr(cli, "build_lattice", build_lattice)
        monkeypatch.setattr(cli, "oracle_best", wrong_best)
        stdin = "".join(cross_error_line(f"id-{i}") + "\n" for i in range(3))
        code, out, err = run(["fuse", "--oracle-check"], stdin)
        assert code == 1 and out == "" and len(lattices) == 3
        diagnostics = [json.loads(line) for line in err.splitlines()]
        assert [d["line"] for d in diagnostics] == [1, 2, 3]
        fused = " ".join(CROSS_ERROR_FUSED)
        assert [d["error"] for d in diagnostics] == [
            f"oracle mismatch: set 'id-{i}': fusion {fused!r} vs best path 'wrong'"
            for i in range(3)
        ]

    def test_output_order_matches_input_order(self):
        lines = "\n".join(cross_error_line(f"id-{i}") for i in range(10))
        code, out, _ = run(["fuse"], lines)
        assert code == 0
        assert [json.loads(l)["id"] for l in out.splitlines()] == [
            f"id-{i}" for i in range(10)
        ]


class TestNpd:
    def test_keeps_milder_error_candidate_verbatim(self):
        code, out, _ = run(["npd"], cross_error_line())
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "npd"
        assert record["output"] == CROSS_ERROR_TOKENS[1]

    def test_single_candidate(self):
        line = json.dumps(
            {"id": "x", "candidates": [{"tokens": ["a"], "scores": [-0.5]}]}
        )
        code, out, _ = run(["npd"], line)
        assert json.loads(out)["output"] == ["a"]


class TestSynth:
    def test_zero_noise_candidates_equal_reference(self):
        # cds synth draws at NoiseConfig's default rates; the library sets the rest
        references = ["the cat sat".split(), "on a mat".split()]
        out = corpus_lines(generate_corpus(references, 3, QUIET))
        code, fused, _ = run(["fuse"], out)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["id"] for r in records] == ["0", "1"]
        assert all(
            c["tokens"] == "the cat sat".split() for c in records[0]["candidates"]
        )
        assert [json.loads(line)["output"] for line in fused.splitlines()] == references

    def test_seed_defaults_to_zero(self, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("alpha beta gamma delta\nepsilon zeta beta\n")
        argv = ["synth", str(refs), "--k", "5"]
        unseeded = run(argv)
        assert unseeded == run([*argv, "--seed", "0"])
        assert unseeded[1] != run([*argv, "--seed", "1"])[1]  # the seed reaches the draws
        # the library's corpus under the default config, so tests may draw corpora in-process
        references = [line.split() for line in refs.read_text().splitlines()]
        assert unseeded == (0, corpus_lines(generate_corpus(references, 5, NoiseConfig())), "")

    def test_rerun_is_byte_identical(self, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("alpha beta gamma delta\nepsilon zeta\n")
        first = run(["synth", str(refs), "--k", "5", "--seed", "11"])
        second = run(["synth", str(refs), "--k", "5", "--seed", "11"])
        assert first == second
        assert first[0] == 0

    def test_empty_reference_line_reported(self, tmp_path):
        refs = tmp_path / "refs.txt"
        refs.write_text("a b\n\nc d\n")
        code, out, err = run(["synth", str(refs), "--k", "2"])
        assert code == 1
        assert json.loads(err)["line"] == 2
        assert len(out.splitlines()) == 2

    def test_invalid_utf8_reference_line_reported(self, tmp_path):
        # used to write no record and exit 1 with a "line 0" diagnostic
        refs = tmp_path / "refs.txt"
        refs.write_bytes(b"a b c\n\xff d\ne f\n")
        code, out, err = run(["synth", str(refs), "--k", "3", "--seed", "4"])
        assert code == 1
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 2, "error": "reference line is not valid UTF-8"}
        ]
        assert [json.loads(line)["id"] for line in out.splitlines()] == ["0", "2"]
        # line 2 is out of the corruption vocabulary too: the same records as
        # when line 2 is empty
        empty = tmp_path / "empty.txt"
        empty.write_text("a b c\n\ne f\n")
        assert run(["synth", str(empty), "--k", "3", "--seed", "4"])[1] == out

    def test_references_from_a_pipe(self):
        # the vocabulary pass used to drain the pipe, leaving no record to write
        proc = run_module(["synth", "/dev/stdin", "--k", "2", "--seed", "4"], b"a b c\nd e\n")
        assert proc.returncode == 0 and proc.stderr == b""
        records = [json.loads(line) for line in proc.stdout.decode().splitlines()]
        assert [r["id"] for r in records] == ["0", "1"]


class TestBleu:
    def test_text_files(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b c d\n")
        ref.write_text("a b c d e\n")
        code, out, _ = run(["bleu", str(hyp), str(ref)])
        assert code == 0
        report = json.loads(out)
        assert report["bleu"] == pytest.approx(77.8800783, abs=1e-4)
        assert report["hyp_len"] == 4 and report["ref_len"] == 5

    def test_jsonl_hypotheses_from_fuse_output(self, tmp_path):
        _, fused, _ = run(["fuse"], cross_error_line())
        hyp = tmp_path / "fused.jsonl"
        hyp.write_text(fused)
        ref = tmp_path / "ref.txt"
        ref.write_text(" ".join(CROSS_ERROR_FUSED) + "\n")
        code, out, _ = run(["bleu", "--hyp-jsonl", str(hyp), str(ref)])
        assert code == 0
        assert json.loads(out)["bleu"] == 100.0

    @pytest.mark.parametrize("bad", ["hyp", "ref"])
    def test_invalid_utf8_line_named(self, tmp_path, bad):
        # used to abort with a "line 0" 'utf-8' codec error
        files = {"hyp": tmp_path / "hyp.txt", "ref": tmp_path / "ref.txt"}
        files["hyp"].write_text("a b\nc d\n")
        files["ref"].write_text("a b\nc d\n")
        files[bad].write_bytes(b"a b\nc \xff d\n")
        code, out, err = run(["bleu", str(files["hyp"]), str(files["ref"])])
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 2, "error": f"{files[bad]}: line is not valid UTF-8"}
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
            ('["a"]', "record must be an object with 'output'"),
            ('{"id": "x"}', "record must be an object with 'output'"),
            ('{"output": "a b"}', "'output' must be a list of strings"),
            # an integer too long for int() used to be reported on line 0
            pytest.param(
                '{"output": ["a"], "n": ' + TOO_MANY_DIGITS + "}",
                f"invalid JSON: {_int_conversion_error(TOO_MANY_DIGITS)}",
                id="integer-too-long",
            ),
            # used to say "record must be an object with 'output'"
            pytest.param(
                TOO_DEEP,
                f"invalid JSON: {_decoder_recursion_error(TOO_DEEP)}",
                id="nested-too-deep",
            ),
            # a surrogate escape is written as the byte it stands for
            pytest.param('{"output": ["a"]}\udcff', "line is not valid UTF-8", id="invalid-utf8"),
        ],
    )
    def test_malformed_jsonl_line_named(self, tmp_path, line, message):
        # a JSON error used to say "line 1 column 1" with diagnostic line 0
        hyp = tmp_path / "hyp.jsonl"
        text = '{"output": ["a", "b"]}\n' + line + "\n"
        hyp.write_bytes(text.encode("utf-8", "surrogateescape"))
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\nc d\n")
        code, out, err = run(["bleu", "--hyp-jsonl", str(hyp), str(ref)])
        assert code == 1 and out == ""
        assert [json.loads(text) for text in err.splitlines()] == [
            {"line": 2, "error": f"{hyp}: {message}"}
        ]

    def test_jsonl_blank_lines_are_skipped(self, tmp_path):
        hyp = tmp_path / "hyp.jsonl"
        records = [json.dumps({"output": list(text)}) for text in ("abcd", "efgh")]
        hyp.write_text(f"\n{records[0]}\n \t\n\n{records[1]}\n\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b c d\ne f g h\n")
        code, out, err = run(["bleu", "--hyp-jsonl", str(hyp), str(ref)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["bleu"] == 100.0 and report["hyp_len"] == report["ref_len"] == 8

    @pytest.mark.parametrize(
        "tokens, bad",
        [(["a", "b c"], "b c"), (["a", ""], ""), (["a", "b\u00a0"], "b\u00a0")],
        ids=["whitespace", "empty", "unicode-whitespace"],
    )
    def test_jsonl_token_the_text_form_cannot_hold_is_named(self, tmp_path, tokens, bad):
        # used to exit 0 with "hyp_len": 2, scoring "b c" as one token or counting ""
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text('{"output": []}\n' + json.dumps({"output": tokens}) + "\n")
        ref = tmp_path / "ref.txt"
        ref.write_text("a\na b\n")
        code, out, err = run(["bleu", "--hyp-jsonl", str(hyp), str(ref)])
        assert code == 1 and out == ""
        assert [json.loads(text) for text in err.splitlines()] == [
            {"line": 2, "error": f"{hyp}: 'output' token {bad!r} must be a non-empty "
                                 "string without whitespace"}
        ]

    def test_count_mismatch_fails(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\nb\n")
        ref.write_text("a\n")
        code, _, err = run(["bleu", str(hyp), str(ref)])
        assert code == 1
        assert "error" in json.loads(err)

    def test_blank_hypotheses_fail(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("\n\n")
        ref.write_text("a b\nc d\n")
        code, out, err = run(["bleu", str(hyp), str(ref)])
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 0, "error": "hypotheses contain no tokens"}
        ]

    def test_empty_reference_line_named(self, tmp_path):
        # used to report "reference sentence is empty" at line 0
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a b\nc d\ne f\n")
        ref.write_text("a b\n\ne f\n")
        code, out, err = run(["bleu", str(hyp), str(ref)])
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 2, "error": f"{ref}: reference sentence is empty"}
        ]


class TestCompare:
    def make_corpus(self, tmp_path, config=NoiseConfig(rng_seed=3)):
        """30 references and 4-candidate records drawn under ``config`` (by default,
        what ``cds synth --k 4 --seed 3`` writes)."""
        references = [[f"w{(i * 7 + j) % 23}" for j in range(10)] for i in range(30)]
        refs = tmp_path / "refs.txt"
        refs.write_text("".join(" ".join(ref) + "\n" for ref in references))
        return refs, corpus_lines(generate_corpus(references, 4, config))

    def test_zero_noise_scores_100_everywhere(self, tmp_path):
        refs, records = self.make_corpus(tmp_path, QUIET)
        code, out, err = run(["compare", "--refs", str(refs), "--json"], records)
        assert code == 0, err
        summary = json.loads(out)
        assert summary["methods"] == {"single": 100.0, "npd": 100.0, "cds": 100.0}

    def test_sweep_k_first_row_is_single_candidate(self, tmp_path):
        refs, records = self.make_corpus(tmp_path)
        code, out, _ = run(
            ["compare", "--refs", str(refs), "--sweep-k", "1..4", "--json"], records
        )
        assert code == 0
        summary = json.loads(out)
        rows = {row["k"]: row for row in summary["sweep"]}
        assert rows[1]["cds"] == pytest.approx(summary["methods"]["single"])
        assert rows[4]["cds"] == pytest.approx(summary["methods"]["cds"])
        assert summary["mean_fusion_ms"] > 0.0

    def test_text_table_output(self, tmp_path):
        refs, records = self.make_corpus(tmp_path)
        code, out, _ = run(["compare", "--refs", str(refs)], records)
        assert code == 0
        assert out.startswith("sentences\t30\n")
        assert "cds\t" in out and "mean_fusion_ms\t" in out

    def test_reference_count_mismatch(self, tmp_path):
        refs, records = self.make_corpus(tmp_path)
        short = tmp_path / "short.txt"
        short.write_text("w1 w2\n")
        code, _, err = run(["compare", "--refs", str(short)], records)
        assert code == 1
        assert "more records than references" in err

    def test_duplicate_record_id_rejected(self, tmp_path):
        refs, records = self.make_corpus(tmp_path)
        first = records.splitlines()[0]
        doubled = first + "\n" + first + "\n"
        code, _, err = run(["compare", "--refs", str(refs)], doubled)
        assert code == 1
        assert "duplicate record id" in err

    def test_invalid_utf8_reference_line_named(self, tmp_path):
        # used to report "line 0" for any bad byte in the references
        refs, records = self.make_corpus(tmp_path)
        lines = refs.read_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"".join(lines[:2]) + b"w1 \xff\n" + b"".join(lines[3:]))
        code, out, err = run(["compare", "--refs", str(bad)], records)
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 3, "error": "reference line 3 is not valid UTF-8"}
        ]

    def test_empty_reference_line_named(self, tmp_path):
        # used to fail with "reference sentence is empty" at line 0
        refs, records = self.make_corpus(tmp_path)
        lines = refs.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.txt"
        bad.write_text(lines[0] + "\n" + "".join(lines[2:]))
        code, out, err = run(["compare", "--refs", str(bad)], records)
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 2, "error": "reference line 2 is empty"}
        ]

    def test_more_references_than_records(self, tmp_path):
        refs, records = self.make_corpus(tmp_path)
        long = tmp_path / "long.txt"
        long.write_text(refs.read_text() + "w1 w2\n")
        code, out, err = run(["compare", "--refs", str(long)], records)
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 0, "error": "more references than records: reference line 31 has no record"}
        ]

    @pytest.mark.parametrize(
        "refs_text, message",
        [
            ("", "no records to compare"),
            pytest.param("w1 w2\n", "more references than records: reference line 1 has no record",
                         id="w1 w2\n-more references than records"),
        ],
    )
    def test_empty_input(self, tmp_path, refs_text, message):
        refs = tmp_path / "refs.txt"
        refs.write_text(refs_text)
        code, out, err = run(["compare", "--refs", str(refs)], "")
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [{"line": 0, "error": message}]

    def test_invalid_utf8_record_line_stops_the_run(self, tmp_path):
        refs, records = self.make_corpus(tmp_path)
        lines = records.encode().splitlines(keepends=True)
        path = tmp_path / "records.jsonl"
        path.write_bytes(lines[0] + INVALID_UTF8_RECORD + b"".join(lines[1:]))
        code, out, err = run(["compare", str(path), "--refs", str(refs)])
        assert code == 1 and out == ""
        assert [json.loads(line) for line in err.splitlines()] == [
            {"line": 2, "error": "line is not valid UTF-8"}
        ]

    def test_missing_refs_file_is_the_only_diagnostic(self, tmp_path):
        # the references are opened before the first record is read
        missing = tmp_path / "missing.txt"
        code, out, err = run(["compare", "--refs", str(missing)], "{bad\n" + cross_error_line())
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        diagnostic = json.loads(line)
        assert diagnostic["line"] == 0 and str(missing) in diagnostic["error"]


class TestCompareScoresEachCandidateOnce:
    """``compare`` and ``fuse --oracle-check`` rescore each record once, and
    every method and sweep step reads that set, so the n-gram scorer scores
    each candidate once per record, however many candidates it has."""

    @pytest.fixture
    def corpus(self, tmp_path):
        refs = tmp_path / "refs.txt"
        rng = random.Random(41)
        vocab = word_vocab(12)
        refs.write_text(
            "".join(" ".join(r) + "\n" for r in random_references(rng, 25, vocab, 4, 9))
        )
        model = tmp_path / "lm.ngram"
        assert run(["ngram-train", str(refs), "-o", str(model), "--order", "3"])[0] == 0
        _, records, _ = run(["synth", str(refs), "--k", "5", "--seed", "8"])
        argv = ["compare", "--refs", str(refs), "--sweep-k", "1..7", "--json",
                "--scorer", f"ngram:{model}"]
        return argv, records

    @staticmethod
    def deduped_candidates(records):
        return [
            remove_adjacent_duplicates(c).tokens
            for line in records.splitlines()
            for c in parse_candidate_record(json.loads(line)).candidates
        ]

    def test_each_candidate_scored_once_per_record(self, corpus, ngram_score_calls):
        argv, records = corpus
        code, _, err = run(argv, records)
        assert code == 0, err
        assert ngram_score_calls == self.deduped_candidates(records)

    def test_oracle_check_scores_each_candidate_once(self, corpus, ngram_score_calls):
        argv, records = corpus
        code, out, err = run(["fuse", "--oracle-check", *argv[-2:]], records)
        assert code == 0, err
        assert len(out.splitlines()) == 25
        assert ngram_score_calls == self.deduped_candidates(records)

    def test_a_100_candidate_record_is_scored_100_times(self, tmp_path, ngram_score_calls):
        # past the 64 token sequences the n-gram scorer once memoized, each
        # pass over such a record evicted what the next needed: 6,140 calls
        refs = tmp_path / "refs.txt"
        refs.write_text("w0 w1 w2\n")
        model = tmp_path / "lm.ngram"
        assert run(["ngram-train", str(refs), "-o", str(model), "--order", "2"])[0] == 0
        candidates = [{"tokens": ["w0", f"x{i}", "w2"], "scores": [-0.5] * 3} for i in range(100)]
        record = json.dumps({"id": "wide", "candidates": candidates})
        argv = ["compare", "--refs", str(refs), "--sweep-k", "1..100", "--json",
                "--scorer", f"ngram:{model}"]
        code, out, err = run(argv, record + "\n")
        assert code == 0, err
        assert len(json.loads(out)["sweep"]) == 100
        assert ngram_score_calls == [("w0", f"x{i}", "w2") for i in range(100)]

    @pytest.mark.parametrize("scorer", ["self", "ngram"])
    def test_summary_equals_library_run_on_raw_sets(self, corpus, scorer):
        # the library rescores every raw set, and every cut of it, on its own
        argv, records = corpus
        selector = argv[-1] if scorer == "ngram" else "self"
        code, out, err = run([*argv[:-1], selector], records)
        assert code == 0, err
        got = json.loads(out)
        got.pop("mean_fusion_ms")

        library = cli._make_scorer(selector)
        refs = Path(argv[2]).read_text().splitlines()
        csets = [parse_candidate_record(json.loads(line)) for line in records.splitlines()]

        def bleu_of(outputs):
            return corpus_bleu(outputs, [ref.split() for ref in refs]).bleu

        def npd(cset):
            return npd_select(cset, library)[1].tokens

        def cds(cset):
            return candidate_soups(cset, library).tokens

        want = {
            "sentences": len(csets),
            "methods": {
                "single": bleu_of([remove_adjacent_duplicates(c.candidates[0]).tokens
                                   for c in csets]),
                "npd": bleu_of([npd(c) for c in csets]),
                "cds": bleu_of([cds(c) for c in csets]),
            },
            "sweep": [
                {"k": k,
                 "cds": bleu_of([cds(cli._truncated(c, k)) for c in csets]),
                 "npd": bleu_of([npd(cli._truncated(c, k)) for c in csets])}
                for k in range(1, 8)
            ],
        }
        assert got == want


class TestEachInputAlignedAndScoredOnce:
    """The partition memo and each record's BLEU ``Reference`` remove repeats within a record."""

    @pytest.fixture
    def records(self, tmp_path):
        refs = tmp_path / "refs.txt"
        rng = random.Random(17)
        refs.write_text(
            "".join(" ".join(r) + "\n" for r in random_references(rng, 30, word_vocab(15), 6, 14))
        )
        _, records, _ = run(["synth", str(refs), "--k", "5", "--seed", "2"])
        return refs, records

    def test_oracle_check_searches_anchors_as_often_as_plain_fuse(self, records, monkeypatch):
        # build_lattice partitions the set fusion has just partitioned
        _, lines = records
        calls = []
        original = alignment.find_next_anchor

        def counting(cset, start):
            calls.append(start)
            return original(cset, start)

        monkeypatch.setattr(alignment, "find_next_anchor", counting)
        counts = []
        for argv in (["fuse"], ["fuse", "--oracle-check"]):
            monkeypatch.setattr(alignment, "_last_partition", None)
            calls.clear()
            code, _, err = run(argv, lines)
            assert code == 0, err
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_sweep_aligns_each_distinct_cut_once(self, records, monkeypatch):
        # the sweep runs from the largest k down, so the rows at or past a
        # set's size reuse the partition of the full fusion
        refs, lines = records
        calls = []
        original = alignment.find_next_anchor

        def counting(cset, start):
            calls.append(len(cset.candidates))
            return original(cset, start)

        monkeypatch.setattr(alignment, "find_next_anchor", counting)
        monkeypatch.setattr(alignment, "_last_partition", None)
        code, _, err = run(["compare", "--refs", str(refs), "--sweep-k", "1..7", "--json"], lines)
        assert code == 0, err
        swept = calls[:]
        calls.clear()
        for line in lines.splitlines():
            prepared = rescore_set(parse_candidate_record(json.loads(line)), SelfScorer())
            assert len(prepared.candidates) == 5
            for k in range(5, 0, -1):
                monkeypatch.setattr(alignment, "_last_partition", None)
                alignment.partition(cli._truncated(prepared, k))
        assert swept == calls
        assert 5 in swept

    def test_sweep_computes_clipped_matches_once_per_distinct_triple(self, records, monkeypatch):
        refs, lines = records
        computed, added = [], []
        original_clip = bleu.Reference._clip

        def counting(self, hypothesis):
            computed.append((hypothesis, self.tokens, self.max_n))
            return original_clip(self, hypothesis)

        original_add = bleu.BleuAccumulator.add

        def recording(self, hypothesis, reference):
            # holding each Reference keeps its id unique for the whole run
            added.append((tuple(hypothesis), reference, self.max_n))
            return original_add(self, hypothesis, reference)

        monkeypatch.setattr(bleu.Reference, "_clip", counting)
        monkeypatch.setattr(bleu.BleuAccumulator, "add", recording)
        code, _, err = run(["compare", "--refs", str(refs), "--sweep-k", "1..7", "--json"], lines)
        assert code == 0, err
        assert len(added) == 17 * 30
        # each record's 17 adds share one Reference, built for that record
        per_record = [
            [(hyp, ref.tokens, max_n) for hyp, ref, max_n in group]
            for _, group in itertools.groupby(added, key=lambda add: id(add[1]))
        ]
        assert [len(group) for group in per_record] == [17] * 30
        assert len({id(ref) for _, ref, _ in added}) == 30
        assert computed == [triple for group in per_record for triple in dict.fromkeys(group)]
        assert len(computed) < len(added) / 2


class TestNgramTrain:
    def test_train_then_score_with_model(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(" ".join(CROSS_ERROR_FUSED) + "\n")
        model_path = tmp_path / "lm.ngram"
        code, out, _ = run(
            ["ngram-train", str(corpus), "-o", str(model_path), "--order", "2"]
        )
        assert code == 0
        assert model_path.exists()
        code, out, err = run(
            ["fuse", "--scorer", f"ngram:{model_path}"], cross_error_line()
        )
        assert code == 0, err
        # the language model was trained on the clean sentence, so fusion
        # under its scores recovers that sentence
        assert json.loads(out)["output"] == CROSS_ERROR_FUSED

    def test_unknown_scorer_rejected(self):
        code, _, err = run(["fuse", "--scorer", "bogus"], cross_error_line())
        assert code == 2
        assert "unknown scorer" in json.loads(err)["error"]

    def test_invalid_utf8_line_is_named_and_no_model_written(self, tmp_path):
        # the codec error used to stop training with a "line 0" diagnostic
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"a b\n\xff c\nd e\n")
        model_path = tmp_path / "lm.ngram"
        code, out, err = run(["ngram-train", str(corpus), "-o", str(model_path)])
        assert code == 1 and out == ""
        assert json.loads(err) == {"line": 2, "error": f"{corpus}: line is not valid UTF-8"}
        assert not model_path.exists()

    def test_invalid_utf8_line_on_stdin(self, tmp_path):
        # a half-written model used to be left behind
        model_path = tmp_path / "lm.ngram"
        proc = run_module(["ngram-train", "-", "-o", str(model_path)], b"a b\n\xff c\n")
        assert proc.returncode == 1 and proc.stdout == b""
        assert json.loads(proc.stderr) == {"line": 2, "error": "-: line is not valid UTF-8"}
        assert not model_path.exists()


class TestWireFormat:
    def test_roundtrip_preserves_full_precision(self):
        scores = [-0.1234567890123456, -1e-300, -2.999999999999999]
        line = json.dumps(
            {"id": "rt", "candidates": [{"tokens": ["a", "b", "c"], "scores": scores}]}
        )
        from candidate_soups.cli import candidate_record, parse_candidate_record

        cset = parse_candidate_record(json.loads(line))
        rebuilt = parse_candidate_record(json.loads(json.dumps(candidate_record(cset))))
        assert rebuilt == cset
        assert list(rebuilt.candidates[0].scores) == scores

    def test_source_field_roundtrip(self):
        line = json.dumps(
            {
                "id": "s",
                "source": "die katze",
                "candidates": [{"tokens": ["the", "cat"], "scores": [-0.1, -0.2]}],
            }
        )
        from candidate_soups.cli import candidate_record, parse_candidate_record

        cset = parse_candidate_record(json.loads(line))
        assert cset.source == ("die", "katze")
        assert candidate_record(cset)["source"] == "die katze"


def test_clamp_warning_emitted_as_json_diagnostic():
    line = json.dumps(
        {"id": "w", "candidates": [{"tokens": ["a", "b"], "scores": [-45.0, -0.1]}]}
    )
    code, out, err = run(["fuse"], line)
    assert code == 0  # clamping is a warning, not a line failure
    assert json.loads(out)["output"] == ["a", "b"]
    diagnostic = json.loads(err)
    assert "clamped" in diagnostic["error"]
    assert diagnostic["line"] == 1


class _UnreadableInput(io.StringIO):
    def __iter__(self):
        raise AssertionError("input was read")

    def read(self, *args):
        raise AssertionError("input was read")

    def readline(self, *args):
        raise AssertionError("input was read")


# model file -> (the number in the ids of its three rows below, its text)
BAD_MODELS = {
    "garbage.ngram": (24, "not a model\n"),
    # headers that used to load: a NaN alpha scored every token at the floor
    "nan.ngram": (27, "ngram 3 nan\n"),
    "inf.ngram": (30, "ngram 3 inf\n"),
    "negative.ngram": (33, "ngram 3 -1\n"),
    "order0.ngram": (36, "ngram 0 0.1\n"),
    # count lines that used to load: a count below 1 made a log of a negative
    # number ("math domain error") end the stream at its first record
    "negative-count.ngram": (39, "ngram 2 0.1\n<s>\ta\t-1\na\tb\t1\n"),
    "zero-count.ngram": (42, "ngram 2 0.1\n<s>\ta\t0\n"),
    "fractional-count.ngram": (45, "ngram 2 0.1\n<s>\ta\t1.5\n"),
    "long-context.ngram": (48, "ngram 2 0.1\n<s> x\ta\t1\n"),
    "short-context.ngram": (51, "ngram 3 0.1\n<s>\ta\t1\n"),
    "two-fields.ngram": (54, "ngram 2 0.1\n<s>\ta\n"),
    "four-fields.ngram": (57, "ngram 2 0.1\n<s>\ta\t1\t1\n"),
    "whitespace-token.ngram": (60, "ngram 1 0.1\n\ta\x0bb\t1\n"),
    "empty-context-token.ngram": (63, "ngram 3 0.1\n<s> \ta\t1\n"),
    "repeated-ngram.ngram": (66, "ngram 2 0.1\n<s>\ta\t1\n<s>\ta\t2\n"),
    # counts so large against alpha that a probability is 0, or beyond float range
    "underflow.ngram": (69, "ngram 1 1e-300\n\ta\t" + "9" * 300 + "\n"),
    "overflow.ngram": (72, "ngram 1 0.1\n\ta\t" + "9" * 400 + "\n"),
    # an order above the bound used to load, and scoring built order - 1 slices per candidate
    "order-above-bound.ngram": (75, f"ngram {MAX_ORDER + 1} 0.1\n"),
    # full-width digits used to load as the order 1 and the count 2
    "full-width-order.ngram": (82, "ngram \uff11 0.1\n"),
    "full-width-count.ngram": (85, "ngram 1 0.1\n\ta\t\uff12\n"),
    # more digits than int() converts: read as no count at all
    "too-many-digits-count.ngram": (89, "ngram 1 0.1\n\ta\t" + TOO_MANY_DIGITS + "\n"),
}


def flag_case(number, argv, named):
    """A row of ``test_bad_flag_value_is_usage_error``.  Its id is the number
    written in the row, not the row's place, so removing a row renames no
    other case; the numbers are the positional ids the rows first had."""
    return pytest.param(argv, named, id=f"argv{number}-{named}")


@pytest.mark.parametrize(
    "argv, named",
    [
        # fuse and npd take no --max-candidates: any value of it is an unknown argument
        flag_case(0, ["fuse", "--max-candidates", "0"], "--max-candidates"),
        flag_case(1, ["fuse", "--max-candidates", "-1"], "--max-candidates"),
        flag_case(2, ["npd", "--max-candidates", "0"], "--max-candidates"),
        flag_case(3, ["npd", "--max-candidates", "-1"], "--max-candidates"),
        flag_case(4, ["fuse", "--scorer", "bogus"], "unknown scorer"),
        flag_case(5, ["npd", "--scorer", "bogus"], "unknown scorer"),
        flag_case(6, ["compare", "--refs", "unused.txt", "--scorer", "bogus"], "unknown scorer"),
    ]
    + [
        flag_case(number, ["compare", "--refs", "unused.txt", "--sweep-k", value], "--sweep-k")
        for number, value in [
            (7, "0..3"), (8, "x"), (9, "3..1"), (10, "1.."), (11, "..3"), (12, "1..2..3"),
            (13, "0..0"),
        ]
    ]
    + [
        # argparse's own errors
        flag_case(14, ["fuse", "--max-candidates", "x"], "--max-candidates"),
        flag_case(15, ["compare"], "--refs"),
        flag_case(16, ["fuse", "--bogus-flag"], "--bogus-flag"),
        flag_case(17, ["compare", "--refs", "unused.txt", "--sweep-k", "-1..2"], "--sweep-k"),
        flag_case(18, [], "command"),
        # removed options
        flag_case(19, ["fuse", "--no-dedup"], "--no-dedup"),
        flag_case(20, ["synth", "r.txt", "--config", "noise.cfg"], "--config"),
    ]
    + [
        # an n-gram model that cannot be loaded used to exit 1
        flag_case(number + offset, [*argv, "--scorer", f"ngram:{model}"], "--scorer")
        for model, number in [
            ("missing.ngram", 21),
            *((name, number) for name, (number, _) in BAD_MODELS.items()),
        ]
        for offset, argv in [(0, ["fuse"]), (1, ["npd"]), (2, ["compare", "--refs", "unused.txt"])]
    ]
    + [
        # B has a bound: a huge one set up two accumulators per k before any input was read
        flag_case(number, ["compare", "--refs", "unused.txt", "--sweep-k", value], "--sweep-k")
        for number, value in [(78, "1..1001"), (79, "5..100000000000000000000")]
    ]
    + [
        # compare --sweep-k is the one way to cut records to their first candidates;
        # 1 was a valid --max-candidates
        flag_case(80, ["fuse", "--max-candidates", "1"], "--max-candidates"),
        flag_case(81, ["npd", "--max-candidates", "1"], "--max-candidates"),
        # a full-width digit used to read as 7
        flag_case(88, ["compare", "--refs", "unused.txt", "--sweep-k", "1..\uff17"], "--sweep-k"),
        # more digits than int() converts
        flag_case(92, ["compare", "--refs", "unused.txt", "--sweep-k", "1.." + TOO_MANY_DIGITS],
                  "--sweep-k"),
        # removed options: synth draws at NoiseConfig's default rates, and bleu
        # scores unsmoothed 4-gram BLEU; the library takes the others
        flag_case(93, ["synth", "r.txt", "--substitution-rate", "0.1"], "--substitution-rate"),
        flag_case(94, ["synth", "r.txt", "--error-score-std", "0.5"], "--error-score-std"),
        flag_case(95, ["bleu", "h.txt", "r.txt", "--max-n", "4"], "--max-n"),
        flag_case(96, ["bleu", "h.txt", "r.txt", "--smooth", "0.1"], "--smooth"),
    ],
)
def test_bad_flag_value_is_usage_error(tmp_path, monkeypatch, argv, named):
    # used to fail every record, drop candidates silently, exit 1, or print
    # argparse's plain-text usage and raise SystemExit
    monkeypatch.chdir(tmp_path)
    for name, (_, text) in BAD_MODELS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=_UnreadableInput(), stdout=out, stderr=err)
    assert code == 2
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["line"] == 0 and named in diagnostic["error"]


def setting_case(number, argv, score_floor, named):
    """A row of ``test_bad_command_setting_is_usage_error``, with its id written
    in the row as ``flag_case`` writes one; the numbers are the positional ids
    the rows first had."""
    return pytest.param(argv, score_floor, named, id=f"argv{number}-{score_floor}-{named}")


@pytest.mark.parametrize(
    "argv, score_floor, named",
    [
        setting_case(0, ["bleu", "h.txt", "r.txt", "--max-n", "0"], None, "--max-n"),
        setting_case(1, ["bleu", "h.txt", "r.txt", "--smooth", "-1"], None, "--smooth"),
        setting_case(2, ["bleu", "h.txt", "r.txt", "--smooth", "nan"], None, "--smooth"),
        setting_case(3, ["ngram-train", "-", "-o", "m.ngram", "--order", "0"], None, "--order"),
        setting_case(4, ["ngram-train", "-", "-o", "m.ngram", "--alpha", "0"], None, "--alpha"),
        setting_case(5, ["ngram-train", "-", "-o", "m.ngram", "--alpha", "inf"], None, "--alpha"),
        setting_case(6, ["synth", "r.txt", "--k", "0"], None, "--k"),
        # CDS_SCORE_FLOOR is no longer read: a bad value is not a diagnostic
        setting_case(8, ["synth", "r.txt", "--k", "0"], "abc", "--k"),
        # orders above the bound: the cost of an order grows with its square
        setting_case(11, ["bleu", "h.txt", "r.txt", "--max-n", str(MAX_ORDER + 1)], None,
                     "--max-n"),
        setting_case(12, ["ngram-train", "-", "-o", "m.ngram", "--order", str(MAX_ORDER + 1)],
                     None, "--order"),
        # a count or order is ASCII digits alone: int() took each of these
        setting_case(13, ["synth", "r.txt", "--k", "\uff13"], None, "--k"),
        setting_case(14, ["bleu", "h.txt", "r.txt", "--max-n", "+4"], None, "--max-n"),
        setting_case(15, ["ngram-train", "-", "-o", "m.ngram", "--order", "1_0"], None, "--order"),
        # not a number at all
        setting_case(16, ["ngram-train", "-", "-o", "m.ngram", "--alpha", "x"], None, "--alpha"),
        setting_case(17, ["bleu", "h.txt", "r.txt", "--smooth", "x"], None, "--smooth"),
    ],
)
def test_bad_command_setting_is_usage_error(tmp_path, monkeypatch, argv, score_floor, named):
    # each used to exit 1 with a line-0 diagnostic, some after reading input;
    # the input files named here do not exist, so reading one would fail
    monkeypatch.chdir(tmp_path)
    if score_floor is not None:
        monkeypatch.setenv("CDS_SCORE_FLOOR", score_floor)
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=_UnreadableInput(), stdout=out, stderr=err)
    assert code == 2
    assert out.getvalue() == "" and not (tmp_path / "m.ngram").exists()
    (line,) = err.getvalue().splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["line"] == 0 and named in diagnostic["error"]


def test_sweep_k_bound_is_inclusive():
    assert cli._k_range(f"1..{cli.MAX_SWEEP_K}") == range(1, cli.MAX_SWEEP_K + 1)


def test_order_bound_is_inclusive():
    assert cli._int_in(1, MAX_ORDER)(str(MAX_ORDER)) == MAX_ORDER


# every value a command takes, 21 in all: a new option is a decision to change this table
COMMAND_OPTIONS = {
    "fuse": {"input", "--scorer", "--trace", "--oracle-check"},
    "npd": {"input", "--scorer"},
    "synth": {"refs", "--k", "--seed"},
    "bleu": {"hyp", "ref", "--hyp-jsonl"},
    "compare": {"input", "--refs", "--scorer", "--sweep-k", "--json"},
    "ngram-train": {"corpus", "--output", "--order", "--alpha"},
}


def test_each_command_takes_exactly_its_options():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {
            action.option_strings[-1] if action.option_strings else action.dest
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, command in commands.choices.items()
    }
    assert got == COMMAND_OPTIONS
    assert sum(map(len, got.values())) == 21


class _RaisingScorer(Scorer):
    """Fails the candidate sets that hold token ``x`` with ``error``."""

    def __init__(self, error):
        self.error = error

    def rescore(self, source, candidate):
        if "x" in candidate.tokens:
            raise self.error
        return candidate.scores


def _x_then_plain_records():
    return "".join(record_line(tokens, [-0.1, -0.1]) + "\n" for tokens in (["a", "x"], ["a", "b"]))


@pytest.mark.parametrize("command", ["fuse", "npd"])
def test_scorer_cds_error_fails_only_its_line(monkeypatch, command):
    monkeypatch.setattr(cli, "_make_scorer", lambda _: _RaisingScorer(ScorerFailure("no x")))
    code, out, err = run([command], _x_then_plain_records())
    assert code == 1
    assert [json.loads(text) for text in err.splitlines()] == [{"line": 1, "error": "no x"}]
    assert [json.loads(text)["output"] for text in out.splitlines()] == [["a", "b"]]


@pytest.mark.parametrize("command", ["fuse", "npd"])
def test_scorer_fault_propagates_unchanged(monkeypatch, command):
    # any exception other than a CdsError is a fault in the scorer, not in the line
    monkeypatch.setattr(cli, "_make_scorer", lambda _: _RaisingScorer(KeyError("bug")))
    with pytest.raises(KeyError, match="bug"):
        run([command], _x_then_plain_records())


def test_output_is_strict_json():
    from candidate_soups.cli import _dump

    with pytest.raises(ValueError):
        _dump({"x": float("-inf")}, io.StringIO())


# --- --oracle-check at real sentence lengths ----------------------------------


def corpus_lines(sets):
    return "".join(json.dumps(candidate_record(cset)) + "\n" for cset in sets)


class TestOracleCheckAtRealLengths:
    def test_criterion_7_corpus(self):
        # 60-token sentences, k=5: most lattices hold far more than 10**6 paths
        rng = random.Random(99)
        vocab = word_vocab(80)
        references = random_references(rng, 200, vocab, min_len=60, max_len=60)
        sets = generate_corpus(references, 5, NoiseConfig(rng_seed=1), vocab=vocab)
        code, out, err = run(["fuse", "--oracle-check"], corpus_lines(sets))
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 200

    def test_criterion_5_corpus(self, quality_corpus):
        _, sets = quality_corpus
        code, out, err = run(["fuse", "--oracle-check"], corpus_lines(sets))
        assert code == 0 and err == ""
        assert len(out.splitlines()) == len(sets)


# --- typed wire parsing ------------------------------------------------------


def record_line(tokens, scores, **extra):
    return json.dumps({"id": "t", **extra, "candidates": [{"tokens": tokens, "scores": scores}]})


def single_error(err):
    (line,) = err.splitlines()
    return json.loads(line)["error"]


class TestTypedWireParsing:
    def test_string_tokens_are_rejected_not_split(self):
        # "abc" used to fuse to ["a", "b", "c"]
        code, out, err = run(["fuse"], record_line("abc", [-0.1, -0.1, -0.1]))
        assert code == 1 and out == ""
        assert "'tokens' must be a list" in single_error(err)

    def test_string_and_boolean_scores_are_rejected(self):
        # ["-0.1", false] used to be coerced to [-0.1, 0.0] and accepted
        code, out, err = run(["fuse"], record_line(["a", "b"], ["-0.1", False]))
        assert code == 1 and out == ""
        assert "'scores' must be a list of numbers" in single_error(err)

    def test_true_score_is_a_type_error_not_a_positive_score(self):
        # true used to be reported as "score 1.0 must be <= 0"
        code, _, err = run(["fuse"], record_line(["a"], [True]))
        assert code == 1
        message = single_error(err)
        assert "'scores' must be a list of numbers" in message and "1.0" not in message

    def test_non_string_source_is_rejected_not_dropped(self):
        # a source of 123 used to be dropped silently
        code, out, err = run(["fuse"], record_line(["a"], [-0.1], source=123))
        assert code == 1 and out == ""
        assert "'source' must be a string or null" in single_error(err)

    def test_null_source_and_integer_scores_are_accepted(self):
        code, out, err = run(["fuse"], record_line(["a", "b"], [0, -1], source=None))
        assert code == 0 and err == ""
        assert json.loads(out)["output"] == ["a", "b"]

    @pytest.mark.parametrize(
        "candidate, message",
        [
            pytest.param({"scores": [-0.1]}, "is missing key 'tokens'", id="tokens"),
            pytest.param({"tokens": ["x"]}, "is missing key 'scores'", id="scores"),
            pytest.param(["a"], "must be a JSON object", id="not-an-object"),
        ],
    )
    def test_missing_candidate_key_is_named(self, candidate, message):
        # a missing key used to give the bare KeyError text, "'scores'"
        line = json.dumps({"id": "a", "candidates": [candidate]})
        code, out, err = run(["fuse"], line)
        assert code == 1 and out == ""
        assert single_error(err) == f"set 'a' candidate 0 {message}"

    def test_non_list_candidates_are_rejected(self):
        line = json.dumps({"id": "t", "candidates": {"tokens": ["a"], "scores": [-0.1]}})
        code, _, err = run(["fuse"], line)
        assert code == 1
        assert "'candidates' must be a list" in single_error(err)


# --- a bad line never stops the stream ---------------------------------------


def assert_bad_first_line(code, out, err, method="cds"):
    assert code == 1
    (diagnostic,) = [json.loads(line) for line in err.splitlines()]
    assert diagnostic["line"] == 1
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["id"] == "pair-1" and record["method"] == method
    return diagnostic["error"]


INVALID_UTF8_RECORD = b'{"id": "u", "candidates": [{"tokens": ["a\xff"], "scores": [-0.1]}]}\n'


class TestBadLineNeverStopsStream:
    def test_deeply_nested_line(self):
        # used to raise an uncaught RecursionError and lose the next record
        assert_bad_first_line(*run(["fuse"], "[" * 200_000 + "\n" + cross_error_line()))

    @pytest.mark.parametrize("command", ["fuse", "npd"])
    def test_invalid_utf8_line_in_a_file(self, tmp_path, command):
        # used to abort the run with a "line 0" diagnostic
        path = tmp_path / "records.jsonl"
        path.write_bytes(INVALID_UTF8_RECORD + cross_error_line().encode() + b"\n")
        method = "cds" if command == "fuse" else "npd"
        message = assert_bad_first_line(*run([command, str(path)]), method=method)
        assert message == "line is not valid UTF-8"

    def test_invalid_utf8_line_on_stdin(self):
        # under a UTF-8 locale the bad byte used to be copied into the output
        proc = run_module(["fuse"], INVALID_UTF8_RECORD + cross_error_line().encode() + b"\n")
        out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
        assert_bad_first_line(proc.returncode, out, err)

    def test_lone_surrogate_escape_is_a_line_failure(self):
        # "\ud800" has no UTF-8 form: writing it used to abort the run
        line = record_line(["\ud800"], [-0.1])
        assert "\\ud800" in line
        message = assert_bad_first_line(*run(["fuse"], line + "\n" + cross_error_line()))
        assert message == "set 't': output would hold a lone surrogate, which is not valid UTF-8"

    def test_lone_surrogate_in_the_id_is_escaped_in_its_diagnostic(self):
        # the diagnostic names the record, so it must not hold the surrogate itself
        line = record_line(["a"], [-0.1], id="\ud800")
        code, out, err = run(["fuse"], line + "\n" + cross_error_line())
        message = assert_bad_first_line(code, out, err)
        assert message == (
            "set '\\ud800': output would hold a lone surrogate, which is not valid UTF-8"
        )
        err.encode("utf-8")  # the diagnostic itself holds no lone surrogate

    def test_integer_score_too_large_for_a_float(self):
        # used to raise an uncaught OverflowError
        line = '{"id": "t", "candidates": [{"tokens": ["a"], "scores": [-1' + "0" * 400 + "]}]}"
        assert_bad_first_line(*run(["fuse"], line + "\n" + cross_error_line()))


@pytest.mark.parametrize("command", ["fuse", "npd"])
@pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
def test_unicode_line_breaks_are_escaped(command, char):
    # these were written raw, and str.splitlines() cut the record in two
    ident = f"a{char}b\u00e9"
    line = json.dumps({"id": ident, "candidates": [{"tokens": ["a"], "scores": [0.0]}]})
    code, out, err = run([command], line + "\n")
    assert code == 0 and err == ""
    assert char not in out and "\u00e9" in out  # other non-ASCII stays raw
    (record,) = [json.loads(text) for text in out.splitlines()]
    assert record["id"] == ident


# --- a run depends only on its arguments and input bytes ---------------------

UNICODE_RECORDS = [
    {
        "id": "ząb",
        "source": "zażółć gęślą",
        "candidates": [
            {"tokens": ["ą", "日", "b"], "scores": [-0.1, -0.2, -0.3]},
            {"tokens": ["ą", "本", "b"], "scores": [-0.1, -1.5, -0.3]},
        ],
    },
    # both middle scores are below the -30.0 floor: clamped, they tie and candidate 0 wins
    {
        "id": "floor",
        "candidates": [
            {"tokens": ["a", "x", "b"], "scores": [-0.1, -45.0, -0.1]},
            {"tokens": ["a", "y", "b"], "scores": [-0.1, -31.0, -0.1]},
        ],
    },
]
UNICODE_REFS = "ą 日 b\na x b\n"
# a token with a space in it fails its line, and the diagnostic quotes the token
UNICODE_BAD_LINE = '{"id": "zły", "candidates": [{"tokens": ["ą b"], "scores": [-0.1]}]}\n'
# the exit code of each command of ``unicode_commands``
UNICODE_EXITS = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]


def unicode_commands(tmp_path):
    """(argv, stdin text) of every command over non-ASCII input, read from files and from -."""
    records = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in UNICODE_RECORDS)
    files = {
        "records.jsonl": records,
        "bad.jsonl": records + UNICODE_BAD_LINE,
        "refs.txt": UNICODE_REFS,
        "hyps.txt": "ą 日 b\na y b\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = {name: str(tmp_path / name) for name in files}
    model, trained = str(tmp_path / "lm.ngram"), str(tmp_path / "out.ngram")
    assert run(["ngram-train", path["refs.txt"], "-o", model, "--order", "2"])[0] == 0
    return [
        (["fuse", path["bad.jsonl"], "--trace"], ""),
        (["fuse", "-", "--scorer", f"ngram:{model}"], records + UNICODE_BAD_LINE),
        (["npd", path["bad.jsonl"]], ""),
        (["npd", "-"], records),
        (["compare", path["records.jsonl"], "--refs", path["refs.txt"], "--sweep-k", "1..3",
          "--json"], ""),
        (["compare", "-", "--refs", path["refs.txt"]], records),
        (["synth", path["refs.txt"], "--k", "3", "--seed", "5"], ""),
        (["bleu", path["hyps.txt"], path["refs.txt"]], ""),
        (["ngram-train", path["refs.txt"], "-o", trained], ""),
        (["ngram-train", "-", "-o", trained, "--order", "2"], UNICODE_REFS),
    ]


_FUSION_TIME = re.compile(r'("mean_fusion_ms": |mean_fusion_ms\t)[-+.e0-9]+')


def outcome(argv, code, out, err):
    """What a run leaves: exit code, stdout without compare's timing, stderr, model written."""
    model = Path(argv[argv.index("-o") + 1]).read_bytes() if "-o" in argv else None
    return code, _FUSION_TIME.sub(r"\1<time>", out), err, model


@pytest.mark.parametrize("value", ["-50", "nan", "abc"])
def test_score_floor_env_changes_no_output_byte(tmp_path, monkeypatch, value):
    # CDS_SCORE_FLOOR=-50 used to keep -45 and -31 apart and fuse "floor" to a y b;
    # nan and abc used to be usage errors
    commands = unicode_commands(tmp_path)
    want = [outcome(argv, *run(argv, stdin)) for argv, stdin in commands]
    assert [code for code, *_ in want] == UNICODE_EXITS
    assert '"output": ["a", "x", "b"]' in want[0][1]
    monkeypatch.setenv("CDS_SCORE_FLOOR", value)
    assert [outcome(argv, *run(argv, stdin)) for argv, stdin in commands] == want


def test_stdio_is_utf8_whatever_the_locale(tmp_path):
    # under PYTHONIOENCODING=latin-1, writing "日" used to end the run at line 0,
    # and "ą" read from - decoded to "Ä\x85", a token with whitespace in it
    codes = []
    for argv, stdin in unicode_commands(tmp_path):
        runs = []
        for encoding in (None, "latin-1"):
            proc = run_module(argv, stdin.encode("utf-8"), PYTHONIOENCODING=encoding)
            out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
            runs.append(outcome(argv, proc.returncode, out, err))
        assert runs[1] == runs[0], argv
        codes.append(proc.returncode)
    assert codes == UNICODE_EXITS


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text):
    text.encode("utf-8")  # a lone surrogate would raise here
    return json.loads(text, parse_constant=_reject_constant)


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
# mostly valid tokens; "\ud800" passes validation but has no UTF-8 form
WIRE_TOKENS = st.sampled_from(["a", "b", "c", "a", "b", "é", "\ud800", "", "a b"])
WIRE_SCORES = st.floats(max_value=0.0) | st.sampled_from([-100.0, 0, -1])


@st.composite
def record_like(draw):
    """A well-formed record, then maybe a token list, a score or a field swapped
    for an arbitrary JSON value."""
    candidates = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        n = draw(st.integers(min_value=0, max_value=5))
        candidates.append(
            {
                "tokens": draw(st.lists(WIRE_TOKENS, min_size=n, max_size=n)),
                "scores": draw(st.lists(WIRE_SCORES, min_size=n, max_size=n)),
            }
        )
    record = {"id": draw(st.text(max_size=4)), "candidates": candidates}
    if draw(st.booleans()):
        record["source"] = draw(st.text(max_size=8))
    swap = draw(st.sampled_from(["none", "none", "field", "list", "score"]))
    if swap == "field":
        record[draw(st.sampled_from(["id", "candidates", "source"]))] = draw(JSON_VALUES)
    elif swap == "list" and candidates:
        field = draw(st.sampled_from(["tokens", "scores"]))
        draw(st.sampled_from(candidates))[field] = draw(JSON_VALUES)
    elif swap == "score" and candidates:
        scores = draw(st.sampled_from(candidates))["scores"]
        if scores:
            scores[draw(st.integers(0, len(scores) - 1))] = draw(JSON_SCALARS)
    return record


RAW_LINES = st.sampled_from(
    ["[" * 100_000, "{" * 100_000, "{", "nan", "-Infinity", "1e999", '"\\ud800"', "\udcff{}", " "]
) | st.text(max_size=12).filter(lambda t: "\n" not in t)
LINES = st.one_of(
    st.tuples(JSON_VALUES, st.booleans()).map(lambda v: json.dumps(v[0], ensure_ascii=v[1])),
    st.tuples(record_like(), st.booleans()).map(lambda v: json.dumps(v[0], ensure_ascii=v[1])),
    RAW_LINES,
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(LINES, min_size=1, max_size=6),
    argv=st.sampled_from([["fuse"], ["fuse", "--trace"], ["fuse", "--oracle-check"], ["npd"]]),
)
def test_every_line_gives_one_record_or_one_diagnostic(lines, argv):
    code, out, err = run(argv, "".join(line + "\n" for line in lines))
    nonblank = [n for n, line in enumerate(lines, start=1) if line.strip()]
    diagnostics = [strict_loads(line) for line in err.splitlines()]
    # clamp warnings are not line failures, but they name their record's line
    warned = [d["line"] for d in diagnostics if d["error"].startswith("warning:")]
    assert set(warned) <= set(nonblank)
    failed = [d["line"] for d in diagnostics if not d["error"].startswith("warning:")]
    assert len(set(failed)) == len(failed)
    assert set(failed) <= set(nonblank)
    records = [strict_loads(line) for line in out.splitlines()]
    fused = [n for n in nonblank if n not in failed]
    assert [r["id"] for r in records] == [json.loads(lines[n - 1])["id"] for n in fused]
    assert code == (1 if failed else 0)
