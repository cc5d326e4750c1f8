"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import io
import json
import math
import random
import time

import pytest

from candidate_soups import (
    CandidateSet,
    ScoredCandidate,
    SelfScorer,
    candidate_soups,
    corpus_bleu,
    npd_select,
    train_ngram,
    validate,
)
from candidate_soups.alignment import partition
from candidate_soups.candidates import remove_adjacent_duplicates
from candidate_soups.cli import candidate_record, main
from candidate_soups.lattice_oracle import build_lattice, oracle_best
from candidate_soups.scoring import rescore_set
from candidate_soups.synth import NoiseConfig, generate_corpus
from helpers import (
    CROSS_ERROR_FUSED,
    CROSS_ERROR_SCORES,
    CROSS_ERROR_TOKENS,
    THREE_WAY_ANCHORS,
    THREE_WAY_FUSED,
    enumerate_paths,
    random_candidate,
    random_candidate_set,
    random_references,
    three_way_set,
    word_vocab,
)

# pinned from the seeded reference run (reference seed 20260810, vocabulary
# of 50 words, sentence lengths 8..20, default noise, k=5, self scorer)
PINNED_SINGLE_BLEU = 57.7996768431467
PINNED_NPD_BLEU = 75.87184722780012
PINNED_CDS_BLEU = 83.16323836782021
PINNED_GAP = PINNED_CDS_BLEU - PINNED_NPD_BLEU  # 7.2914


def criterion(number, description):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL - {description}")
                raise
            print(f"criterion {number} PASS - {description}")

        return wrapper

    return decorate


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def quality_corpus_files(quality_corpus, tmp_path_factory):
    references, sets = quality_corpus
    base = tmp_path_factory.mktemp("corpus")
    refs_path = base / "refs.txt"
    refs_path.write_text("".join(" ".join(ref) + "\n" for ref in references))
    records_path = base / "records.jsonl"
    records_path.write_text(
        "".join(json.dumps(candidate_record(cset)) + "\n" for cset in sets)
    )
    return refs_path, records_path


@criterion(1, "two-candidate golden fusion and whole-candidate baseline")
def test_criterion_1_cross_error_golden():
    record = json.dumps(
        {
            "id": "g1",
            "candidates": [
                {"tokens": toks, "scores": scores}
                for toks, scores in zip(CROSS_ERROR_TOKENS, CROSS_ERROR_SCORES)
            ],
        }
    )
    started = time.perf_counter()
    npd_code, npd_out, _ = run_cli(["npd"], record)
    fuse_code, fuse_out, _ = run_cli(["fuse"], record)
    elapsed = time.perf_counter() - started

    assert npd_code == 0 and fuse_code == 0
    # the baseline keeps candidate 2 whole, including its "cost" error
    assert json.loads(npd_out)["output"] == CROSS_ERROR_TOKENS[1]
    assert (
        json.loads(fuse_out)["output"]
        == "It often costs over a hundred dollars to obtain the required identity card .".split()
    )
    assert elapsed < 1.0


@criterion(2, "three-candidate golden fusion with trace and anchors")
def test_criterion_2_three_way_golden():
    cset = three_way_set()
    result = candidate_soups(cset)
    assert list(result.tokens) == THREE_WAY_FUSED
    # region 1 -> candidate 2, region 2 -> candidate 3 (0-based: 1 and 2)
    assert [c.chosen for c in result.trace] == [1, 2]
    prepared = rescore_set(validate(cset), SelfScorer())
    anchor_tokens = [a.token for a in partition(prepared).anchors()]
    assert anchor_tokens == THREE_WAY_ANCHORS == ["The", "Republican", "extend", "States", "."]


@criterion(3, "greedy fusion equals exhaustive lattice search on 1000 random sets")
def test_criterion_3_oracle_equivalence():
    rng = random.Random(424242)
    started = time.perf_counter()
    for i in range(1000):
        vocab = tuple("abcdefgh")[: rng.randint(1, 8)]
        cset = random_candidate_set(rng, max_k=4, vocab=vocab, max_len=12, ident=str(i))
        fused = candidate_soups(cset)
        prepared = rescore_set(validate(cset), SelfScorer())
        lattice = build_lattice(prepared)
        assert oracle_best(lattice) == fused.tokens, f"set {i}: oracle mismatch"
        assert fused.tokens in enumerate_paths(lattice), f"set {i}: not a lattice path"
    assert time.perf_counter() - started < 60.0


@criterion(4, "invariant suite over 500 randomized instances per property")
def test_criterion_4_invariant_suite():
    rng = random.Random(171717)

    # dedup idempotence
    for _ in range(500):
        cand = random_candidate(rng)
        once = remove_adjacent_duplicates(cand)
        assert remove_adjacent_duplicates(once) == once

    # partition reconstruction
    for _ in range(500):
        cset = random_candidate_set(rng)
        deduped = CandidateSet(
            cset.id, tuple(remove_adjacent_duplicates(c) for c in cset.candidates)
        )
        part = partition(deduped)
        for j, cand in enumerate(deduped.candidates):
            rebuilt = []
            for element in part.elements:
                if hasattr(element, "token"):
                    rebuilt.append(element.token)
                else:
                    rebuilt.extend(element.segments[j])
            assert tuple(rebuilt) == cand.tokens

    # uniform shift leaves the fused tokens unchanged
    for _ in range(500):
        cset = random_candidate_set(rng)
        delta = rng.uniform(-5.0, 0.0)
        shifted = CandidateSet(
            cset.id,
            tuple(
                ScoredCandidate(c.tokens, tuple(s + delta for s in c.scores))
                for c in cset.candidates
            ),
        )
        assert candidate_soups(cset).tokens == candidate_soups(shifted).tokens

    # positive scaling preserves every unique per-region argmax
    checked = 0
    while checked < 500:
        cset = random_candidate_set(rng)
        base = candidate_soups(cset)
        unique = all(
            sum(1 for s in c.segment_scores if s == max(c.segment_scores)) == 1
            for c in base.trace
        )
        if not unique:
            continue
        checked += 1
        factor = rng.choice((0.25, 0.5, 2.0, 4.0))
        scaled = CandidateSet(
            cset.id,
            tuple(
                ScoredCandidate(c.tokens, tuple(s * factor for s in c.scores))
                for c in cset.candidates
            ),
        )
        assert candidate_soups(scaled).tokens == base.tokens

    # the baseline's output is a member of the deduped candidate set
    for _ in range(500):
        cset = random_candidate_set(rng)
        _, winner = npd_select(cset)
        assert winner in [remove_adjacent_duplicates(c) for c in cset.candidates]

    # BLEU identity
    vocab = word_vocab(10)
    for _ in range(500):
        corpus = random_references(rng, rng.randint(1, 5), vocab, min_len=1, max_len=8)
        assert corpus_bleu(corpus, corpus).bleu == 100.0

    # n-gram per-context normalization within 1e-9
    letters = ("a", "b", "c", "d", "e")
    for _ in range(500):
        corpus = [
            [rng.choice(letters) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 6))
        ]
        model = train_ngram(corpus, n=rng.randint(1, 3), alpha=rng.uniform(0.01, 2.0))
        contexts = list(model.counts) + [("unseen-context",) * max(1, model.order - 1)]
        for context in contexts:
            total = math.fsum(model.probability(context, tok) for tok in model.vocabulary)
            total += model.probability(context, "<unk-probe>")
            assert abs(total - 1.0) < 1e-9


@criterion(5, "synthetic corpus quality ordering: fusion > whole-candidate > single")
def test_criterion_5_quality_ordering(quality_corpus):
    references, sets = quality_corpus
    singles, npds, fows = [], [], []
    for cset in sets:
        singles.append(remove_adjacent_duplicates(cset.candidates[0]).tokens)
        npds.append(npd_select(cset)[1].tokens)
        fows.append(candidate_soups(cset).tokens)
    bleu_single = corpus_bleu(singles, references).bleu
    bleu_npd = corpus_bleu(npds, references).bleu
    bleu_cds = corpus_bleu(fows, references).bleu

    assert bleu_cds > bleu_npd > bleu_single
    gap = bleu_cds - bleu_npd
    assert gap >= 1.0
    assert abs(gap - PINNED_GAP) <= 0.1
    assert abs(bleu_single - PINNED_SINGLE_BLEU) <= 0.1
    assert abs(bleu_npd - PINNED_NPD_BLEU) <= 0.1
    assert abs(bleu_cds - PINNED_CDS_BLEU) <= 0.1


@criterion(6, "quality grows with candidate count (k sweep)")
def test_criterion_6_candidate_number_trend(quality_corpus_files):
    refs_path, records_path = quality_corpus_files
    code, out, err = run_cli(
        ["compare", str(records_path), "--refs", str(refs_path), "--sweep-k", "1..7", "--json"]
    )
    assert code == 0, err
    rows = {row["k"]: row["cds"] for row in json.loads(out)["sweep"]}
    assert set(rows) == {1, 2, 3, 4, 5, 6, 7}
    assert rows[3] > rows[1]
    assert rows[5] >= rows[3] - 0.1


@criterion(7, "mean fusion time below one millisecond per sentence")
def test_criterion_7_fusion_overhead(tmp_path):
    rng = random.Random(99)
    vocab = word_vocab(80)
    references = random_references(rng, 200, vocab, min_len=60, max_len=60)
    sets = generate_corpus(references, 5, NoiseConfig(rng_seed=1), vocab=vocab)
    refs_path = tmp_path / "refs.txt"
    refs_path.write_text("".join(" ".join(ref) + "\n" for ref in references))
    records = "".join(json.dumps(candidate_record(cset)) + "\n" for cset in sets)

    code, out, err = run_cli(["compare", "--refs", str(refs_path), "--json"], records)
    assert code == 0, err
    summary = json.loads(out)
    assert summary["sentences"] == 200
    assert summary["mean_fusion_ms"] < 1.0


@criterion(8, "brevity-penalty hand check")
def test_criterion_8_bleu_hand_check():
    report = corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert abs(report.bleu - 100.0 * math.exp(-0.25)) < 1e-6
