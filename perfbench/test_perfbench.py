"""Tests of the benchmark itself: inputs, checks and the tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class TempDirTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def tiny(self, workload: str, seed: int = 3, name: str = "w"):
        return prepare(WORKLOADS[workload], seed, self.tmp / name, records=6, latency=6)


class InputsTest(TempDirTest):
    FILES = ("refs.txt", "records.jsonl", "lm.ngram")

    def read(self, prep) -> dict[str, bytes]:
        return {f: (prep.directory / f).read_bytes() for f in self.FILES}

    def test_same_seed_gives_identical_files(self):
        a = self.read(self.tiny("ngram-sweep", 5, "a"))
        b = self.read(self.tiny("ngram-sweep", 5, "b"))
        self.assertEqual(a, b)

    def test_different_seed_gives_different_files(self):
        a = self.read(self.tiny("ngram-sweep", 5, "a"))
        b = self.read(self.tiny("ngram-sweep", 6, "b"))
        for name in self.FILES:
            self.assertNotEqual(a[name], b[name], name)

    def test_shapes_follow_the_workload(self):
        prep = self.tiny("long")
        refs = prep.refs.read_text().splitlines()
        self.assertEqual(len(refs), 6)
        self.assertTrue(all(len(r.split()) == 200 for r in refs))
        records = [json.loads(line) for line in prep.records.read_text().splitlines()]
        self.assertTrue(all(len(r["candidates"]) == 10 for r in records))


def traced(prep, argv: list[str]) -> list[list]:
    t = tracer.Tracer()
    out, err = io.StringIO(), io.StringIO()
    t.install()
    try:
        code = t.run_command(argv, out, err)
    finally:
        t.uninstall()
    assert code == 0 and not err.getvalue(), err.getvalue()
    return t.spans


class TracerTest(TempDirTest):
    def count(self, spans, *names: str) -> int:
        return sum(s[tracer.NAME] in names for s in spans)

    def test_exact_call_counts_per_record(self):
        prep = self.tiny("ngram-sweep")
        n = prep.count
        fuse = traced(prep, prep.fuse_argv())
        compare = traced(prep, prep.compare_argv())
        validate = ("cli.validate", "fusion.validate")
        rescore = ("cli.rescore_set", "fusion.rescore_set", "scoring.rescore_set")
        self.assertEqual(self.count(fuse, *validate), 2 * n)
        self.assertEqual(self.count(compare, *validate), 9 * n)
        self.assertEqual(self.count(compare, *rescore), 16 * n)
        self.assertEqual(self.count(compare, "bleu.add"), 17 * n)

    def test_spans_nest_under_their_callers(self):
        prep = self.tiny("oracle")
        spans = traced(prep, prep.fuse_argv())
        parent = {s[tracer.NAME]: spans[s[tracer.PARENT]][tracer.NAME]
                  for s in spans if s[tracer.PARENT] >= 0}
        self.assertEqual(parent["fusion.partition"], "cli.candidate_soups")
        self.assertEqual(parent["cli.validate"], "cli.parse_candidate_record")
        self.assertEqual(parent["lattice_oracle.partition"], "cli.build_lattice")
        self.assertEqual(parent["cli.candidate_soups"], "cli.fuse")
        ids = {s[tracer.RECORD] for s in spans if s[tracer.NAME] == "fusion.partition"}
        self.assertEqual(ids, {str(i) for i in range(prep.count)})
        for s in spans:
            self.assertLessEqual(s[tracer.START], s[tracer.END])
        self.assertTrue(all(t >= -1e-6 for t in tracer.self_times(spans)))

    def test_uninstall_restores_every_name(self):
        originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
        t = tracer.Tracer()
        t.install()
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
        t.uninstall()
        restored = [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
        self.assertTrue(all(w is not o for w, o in zip(wrapped, originals)))
        self.assertTrue(all(r is o for r, o in zip(restored, originals)))

    def test_layer_metrics_are_the_declared_ones(self):
        prep = self.tiny("c7")
        stats = tracer.LayerStats()
        for argv in (prep.fuse_argv(), prep.npd_argv(), prep.compare_argv()):
            stats.add(traced(prep, argv), prep.count)
        stats.input_records += prep.count
        metrics = stats.metrics(0.1, {"fuse": 1.1, "npd": 1.1, "compare": 1.1})
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        # c7: fuse validates twice, npd once, compare twice per record
        self.assertEqual(metrics["candidates.validate_calls_per_record"], 5)
        self.assertEqual(metrics["bleu.adds_per_record"], 3)
        self.assertGreater(metrics["fusion.total_ms"], metrics["alignment.partition_ms"])


class ChecksTest(TempDirTest):
    def outputs(self, prep) -> dict[str, bytes]:
        outs = {}
        for command, argv in (("fuse", prep.fuse_argv()), ("npd", prep.npd_argv()),
                              ("compare", prep.compare_argv())):
            out, err = io.StringIO(), io.StringIO()
            self.assertEqual(run._main(argv, out, err), 0, err.getvalue())
            outs[command] = out.getvalue().encode()
        return outs

    def test_strict_json_rejects_non_finite_numbers(self):
        for bad in (b'{"x": NaN}', b'{"x": -Infinity}', b'{"x": 1'):
            with self.assertRaises(run.CheckFailed):
                run.strict_lines(bad, "t")

    def test_checks_pass_then_catch_tampering(self):
        prep = self.tiny("c7")
        ids = [s.id for s in prep.latency_sets[:prep.count]]
        outs = self.outputs(prep)
        run.check_outputs(prep, ids, outs, seed=3)
        lines = outs["fuse"].splitlines(keepends=True)
        for broken in (
            dict(outs, fuse=b"".join(lines[1:] + lines[:1])),  # order
            dict(outs, fuse=b"".join(lines[:-1])),  # a record missing
            dict(outs, npd=outs["npd"].replace(b'"npd"', b'"cds"')),  # method
            dict(outs, compare=outs["compare"].replace(b'"cds": ', b'"cds": 1')),  # BLEU
        ):
            with self.assertRaises(run.CheckFailed):
                run.check_outputs(prep, ids, broken, seed=3)

    def test_reference_speed_scales_rates_and_times_only(self):
        raw = {"fuse_rps": 100.0, "setup_s": 1.0, "fuse_p50_ms": 2.0, "peak_rss_mb": 17.0,
               "bleu_cds": 80.0, "candidates.validate_calls_per_record": 2.0,
               "fusion.departure_share": 0.3, "trace.fuse_overhead": 1.5}
        scaled = run.at_reference_speed(raw, 0.5)  # the machine ran at half speed
        self.assertEqual(scaled, dict(raw, fuse_rps=200.0, setup_s=0.5, fuse_p50_ms=1.0))

    def test_default_seed_digests_are_checked(self):
        prep = self.tiny("c7", seed=run.DEFAULT_SEED)
        ids = [s.id for s in prep.latency_sets[:prep.count]]
        with self.assertRaises(run.CheckFailed) as ctx:  # tiny corpus, other digest
            run.check_outputs(prep, ids, self.outputs(prep), seed=run.DEFAULT_SEED)
        self.assertIn("sha256", str(ctx.exception))


class TracedRunTest(TempDirTest):
    def test_traced_run_reports_layers_and_writes_spans(self):
        prep = self.tiny("oracle")
        spans = self.tmp / "spans.jsonl"
        metrics, extras, attempted = run.measure_traced(prep, 0.0, 3, spans)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(metrics["lattice_oracle.explosions"], 0)
        self.assertGreater(metrics["lattice_oracle.paths_p50"], 0)
        self.assertEqual(attempted, 3 * prep.count)
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        roots = [s["name"] for s in lines if s["parent"] < 0]
        self.assertEqual(roots, ["cli.fuse", "cli.npd", "cli.compare"])
        self.assertTrue(all(s["start"] <= s["end"] for s in lines))
        self.assertIs(tracer.cli.candidate_soups, tracer.fusion.candidate_soups)  # unwrapped


class EndToEndTest(TempDirTest):
    def test_untraced_run_never_imports_the_tracer(self):
        code = (
            "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import run, workloads\n"
            "from pathlib import Path\n"
            "prep = workloads.prepare(workloads.WORKLOADS['c7'], 4, Path(sys.argv[3]),"
            " records=5, latency=5)\n"
            "metrics, extras, attempted = run.measure(prep, 0.0, 4)\n"
            "print(json.dumps({'tracer': 'tracer' in sys.modules, 'metrics': sorted(metrics),"
            " 'rounds': extras['rounds']}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src"),
                               str(self.tmp / "w")], capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["tracer"])
        self.assertEqual(result["metrics"], sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertGreaterEqual(result["rounds"], run.MIN_ROUNDS)

    def test_exits_nonzero_without_the_program(self):
        shutil.copy(HERE.parent / "BENCHMARK.json", self.tmp)
        shutil.copytree(HERE, self.tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "c7", "--seed",
                               "1", "--seconds", "1", "--trace", "0"], cwd=self.tmp,
                              capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
