#!/usr/bin/env python3
"""Seeded benchmark for ``cds fuse`` / ``npd`` / ``compare`` and the fusion call path.

    python3 perfbench/run.py --workload c7 --seed 0 --seconds 25 --trace 0

Run from the repository root.  The program under test is the working tree's
``src/``, run as ``python -m candidate_soups`` with ``PYTHONPATH=src``.

``--trace 0`` measures the end-to-end metrics, tracing off.  Each round runs
the workload's empty-input ``fuse`` (set-up), ``fuse``, ``npd`` and
``compare`` as child processes, one at a time (a closed loop with one
client), then times the next slice of the latency set through the
in-process library call path that ``fuse`` makes.  Rounds repeat until
``--seconds`` have passed, at least ``MIN_ROUNDS`` times, and until every
set of the latency set has been timed ``latency_passes`` times.  Command
figures are medians over rounds.  A latency sample is the median of one
set's timings, and the percentiles are over the latency set's (1000 or
more) sets, so the p99 has at least ten samples beyond it.

``--trace 1`` runs the same commands in-process through ``cli.main``, once
untraced and once with the span tracer installed, and reports per-layer
metrics plus the tracing overhead.

Times and rates are reported at the reference machine speed: the machine
speed of a run is ``calibrate.REFERENCE_S`` over the median time of
``calibrate.probe()``, a fixed pure-Python workload timed before every
measured step.  A shared 2-vCPU virtual machine drifts by up to 2x over
minutes, and this scaling removes most of that drift from the figures.  The
unscaled figures and the speed are printed on the line before the result.

Every run checks the outputs (see ``check_outputs``).  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the run's environment and extra
figures.  The exit code is 0 when every check passed, 1 when one failed and
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, probe  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Prepared, child_env, prepare  # noqa: E402

DEFAULT_SEED = 0
MIN_ROUNDS = 5
PASS_ROUNDS = 10  # rounds over which the latency timings are spread, at least
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_lines(data: bytes, what: str) -> list[dict]:
    """Parse JSON lines, rejecting NaN and Infinity."""
    out = []
    for n, line in enumerate(data.decode("utf-8").splitlines(), start=1):
        try:
            out.append(json.loads(line, parse_constant=_reject_constant))
        except ValueError as exc:
            raise CheckFailed(f"{what} line {n} is not strict JSON: {exc}") from None
    return out


def diagnostics(stderr: bytes) -> int:
    """Count per-record diagnostics (``line > 0``) on a command's stderr."""
    count = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("line"), int) and obj["line"] > 0:
            count += 1
    return count


def check_outputs(prep: Prepared, ids: list[str], outs: dict[str, bytes], seed: int) -> dict:
    """Check one round's stdout of each command; return the BLEU figures.

    - every stdout line is strict JSON;
    - fuse and npd give one record per input record, in order, with the
      input's ``id`` and their ``method``;
    - corpus BLEU of the fuse / npd outputs equals compare's
      ``methods.cds`` / ``methods.npd`` exactly;
    - at the default seed, the sha256 of the fuse / npd stdout equals the
      digest recorded in ``digests.json``.
    """
    from candidate_soups.bleu import corpus_bleu

    refs = [tuple(line.split()) for line in prep.refs.read_text(encoding="utf-8").splitlines()]
    bleu = {}
    for command, method in (("fuse", "cds"), ("npd", "npd")):
        records = strict_lines(outs[command], command)
        if [r.get("id") for r in records] != ids:
            raise CheckFailed(f"{command}: output ids differ from the input ids")
        if any(r.get("method") != method for r in records):
            raise CheckFailed(f"{command}: an output record's method is not {method!r}")
        bleu[method] = corpus_bleu([r["output"] for r in records], refs).bleu
    (summary,) = strict_lines(outs["compare"], "compare")
    if summary["sentences"] != len(ids):
        raise CheckFailed(f"compare: {summary['sentences']} sentences for {len(ids)} records")
    for method in ("cds", "npd"):
        if summary["methods"][method] != bleu[method]:
            raise CheckFailed(f"compare: BLEU {method} {summary['methods'][method]!r} "
                              f"differs from the {method} output's {bleu[method]!r}")
    if seed == DEFAULT_SEED:
        want = json.loads(DIGESTS.read_text())[prep.workload.name]
        for command in ("fuse", "npd"):
            got = hashlib.sha256(outs[command]).hexdigest()
            if got != want[command]:
                raise CheckFailed(f"{command}: stdout sha256 {got} differs from the "
                                  f"recorded {want[command]}")
    return bleu


class Spawner:
    """Runs ``python -m candidate_soups`` children, one at a time, via ``spawner.py``."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> tuple[float, int, int, bytes, bytes]:
        """Return wall seconds, max RSS in KiB, exit code, stdout and stderr."""
        out, err = self.prep.directory / "stdout", self.prep.directory / "stderr"
        request = {"argv": [sys.executable, "-m", "candidate_soups", *argv], "env": child_env(),
                   "stdin": str(self.prep.empty), "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["wall"], reply["maxrss_kb"], reply["code"], out.read_bytes(), err.read_bytes()

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def library_path(prep: Prepared):
    """The calls the workload's ``fuse`` makes per record, as one function."""
    from candidate_soups.candidates import DEFAULT_SCORE_FLOOR
    from candidate_soups.fusion import candidate_soups
    from candidate_soups.lattice_oracle import build_lattice, oracle_best
    from candidate_soups.scoring import NGramScorer, SelfScorer, load_ngram, rescore_set

    floor = DEFAULT_SCORE_FLOOR
    scorer = NGramScorer(load_ngram(str(prep.lm)), floor) if prep.lm else SelfScorer()
    oracle = "--oracle-check" in prep.workload.fuse_flags

    def fuse_one(cset):
        result = candidate_soups(cset, scorer, floor)
        if oracle and oracle_best(build_lattice(rescore_set(cset, scorer))) != result.tokens:
            raise CheckFailed(f"record {cset.id}: oracle best path differs from fusion")
        return result.tokens

    return fuse_one


def quartile_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def untimed(command: str, out: bytes | str):
    """A command's stdout for equality checks: compare's timing field is dropped."""
    if command != "compare":
        return out
    (summary,) = strict_lines(out.encode() if isinstance(out, str) else out, command)
    summary.pop("mean_fusion_ms")
    return summary


def run_commands(spawn: Spawner, prep: Prepared, rounds: dict[str, list[float]],
                 probes: list[float]) -> dict:
    """One round of child processes: a set-up run, then fuse, npd and compare."""
    probes.append(probe())
    wall, _, code, out, _ = spawn.run(prep.fuse_argv(prep.empty))
    if code != 0 or out:
        raise CheckFailed(f"fuse on empty input: exit {code}, {len(out)} output bytes")
    rounds["setup_s"].append(wall)
    outs = {}
    for command, argv in (("fuse", prep.fuse_argv()), ("npd", prep.npd_argv()),
                          ("compare", prep.compare_argv())):
        probes.append(probe())
        wall, rss, code, out, err = spawn.run(argv)
        bad = diagnostics(err)
        if code != 0 or bad:
            raise CheckFailed(f"{command}: exit {code}, {bad} failed records: "
                              f"{err.decode('utf-8', 'replace')[:300]}")
        rounds[f"{command}_rps"].append(prep.count / wall)
        if command == "fuse":
            rounds["peak_rss_mb"].append(rss / 1024.0)
        outs[command] = out
    return outs


def at_reference_speed(metrics: dict[str, float], speed: float) -> dict[str, float]:
    """Scale rates (``*_rps``) and times (``*_ms``, ``*_s``) to the probe's reference speed."""
    return {name: value / speed if name.endswith("_rps")
            else value * speed if name.endswith(("_ms", "_s")) else value
            for name, value in metrics.items()}


def measure(prep: Prepared, seconds: float, seed: int) -> tuple[dict, dict, int]:
    """End-to-end metrics, tracing off.  Returns metrics, extras and records attempted."""
    sets = prep.latency_sets
    ids = [s.id for s in sets[:prep.count]]
    fuse_one = library_path(prep)
    want = len(sets) * prep.workload.latency_passes
    per_round = -(-want // PASS_ROUNDS)
    rounds: dict[str, list[float]] = {k: [] for k in ("setup_s", "fuse_rps", "npd_rps",
                                                      "compare_rps", "peak_rss_mb")}
    timings: list[list[float]] = [[] for _ in sets]
    timed = 0
    probes: list[float] = []
    attempted = 0
    first = None
    with Spawner(prep) as spawn:
        spawn.run(prep.fuse_argv(prep.empty))  # warm-up: bytecode and file caches
        started = time.perf_counter()
        while (time.perf_counter() - started < seconds or timed < want
               or len(rounds["setup_s"]) < MIN_ROUNDS):
            outs = run_commands(spawn, prep, rounds, probes)
            attempted += 3 * prep.count
            this = [untimed(command, out) for command, out in outs.items()]
            if first is None:
                bleu = check_outputs(prep, ids, outs, seed)
                expected = [tuple(r["output"]) for r in strict_lines(outs["fuse"], "fuse")]
                first = this
            elif this != first:
                raise CheckFailed("a command's output changed between rounds")

            probes.append(probe())
            for _ in range(per_round):
                i = timed % len(sets)
                t0 = time.perf_counter()
                tokens = fuse_one(sets[i])
                timings[i].append(time.perf_counter() - t0)
                timed += 1
                if i < len(expected) and tokens != expected[i]:
                    raise CheckFailed(f"record {ids[i]}: library fusion differs from cds fuse")
            attempted += per_round
        probes.append(probe())

    # a set's sample is the median of its timings, which were taken in
    # different rounds, so one stalled timing does not move the tail
    pct = statistics.quantiles([statistics.median(t) for t in timings], n=100)
    raw = {name: statistics.median(values) for name, values in rounds.items()}
    raw.update(fuse_p50_ms=1000.0 * pct[49], fuse_p99_ms=1000.0 * pct[98],
               bleu_cds=bleu["cds"], bleu_npd=bleu["npd"])
    speed = REFERENCE_S / statistics.median(probes)
    extras = {
        "rounds": len(rounds["setup_s"]),
        "latency_samples": len(timings),
        "latency_timings": timed,
        "fail_share": 0.0,
        "machine_speed": speed,
        "raw": raw,
        "round_spread": {k: round(quartile_spread(v), 4) for k, v in rounds.items()},
    }
    return at_reference_speed(raw, speed), extras, attempted


def measure_traced(prep: Prepared, seconds: float, seed: int, spans_path: Path | None):
    """Per-layer metrics from in-process runs of the workload's commands."""
    from tracer import LayerStats, Tracer

    commands = {"fuse": prep.fuse_argv(), "npd": prep.npd_argv(), "compare": prep.compare_argv()}
    ids = [s.id for s in prep.latency_sets[:prep.count]]
    stats = LayerStats()
    ratios: dict[str, list[float]] = {c: [] for c in commands}
    attempted = 0
    tracers: dict[str, Tracer] = {}
    probes: list[float] = []
    for argv in commands.values():  # warm-up: imports, scorer model and file caches
        _main(argv, io.StringIO(), io.StringIO())
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not ratios["fuse"]:
        outs = {}
        for command, argv in commands.items():
            probes.append(probe())
            plain_out, plain_err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            code = _main(argv, plain_out, plain_err)
            plain = time.perf_counter() - t0
            traced_out, traced_err = io.StringIO(), io.StringIO()
            tracer = tracers[command] = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced_code = tracer.run_command(argv, traced_out, traced_err)
                traced = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            attempted += prep.count
            if code or traced_code or plain_err.getvalue() or traced_err.getvalue():
                raise CheckFailed(f"{command}: exit {code}/{traced_code}: "
                                  f"{(plain_err.getvalue() or traced_err.getvalue())[:300]}")
            if untimed(command, traced_out.getvalue()) != untimed(command, plain_out.getvalue()):
                raise CheckFailed(f"{command}: traced output differs from untraced output")
            ratios[command].append(traced / plain)
            outs[command] = plain_out.getvalue().encode("utf-8")
            stats.add(tracer.spans, prep.count)
        stats.input_records += prep.count
        check_outputs(prep, ids, outs, seed)
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fp:
            for tracer in tracers.values():
                tracer.write_spans(fp)
    probes.append(probe())
    overhead = {c: statistics.median(v) for c, v in ratios.items()}
    raw = stats.metrics(1000.0 * prep.synth_seconds / len(prep.latency_sets), overhead)
    speed = REFERENCE_S / statistics.median(probes)
    extras = {"rounds": len(ratios["fuse"]), "fail_share": 0.0, "machine_speed": speed,
              "raw": raw}
    return at_reference_speed(raw, speed), extras, attempted


def _main(argv, stdout, stderr) -> int:
    from candidate_soups import cli

    return cli.main(argv, stdout=stdout, stderr=stderr)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "candidate_soups").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": tree.hexdigest(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, write the last round's spans here as JSON lines")
    args = parser.parse_args(argv)

    if not (SRC / "candidate_soups" / "cli.py").is_file():
        print(f"perfbench: no program under test at {SRC / 'candidate_soups'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        prep = prepare(workload, args.seed, workdir)
        # the prepared sets are the benchmark's data, not the program's: keep
        # the collector from walking them inside timed calls
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, extras, attempted = measure_traced(prep, args.seconds, args.seed, args.spans)
        else:
            metrics, extras, attempted = measure(prep, args.seconds, args.seed)
        correct, failed = True, 0
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, metrics, extras, attempted, failed = False, {}, {}, 1, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = units_of("per_layer" if args.trace else "end_to_end")
    env = environment()
    print(f"# perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    for name, value in extras.items():
        if not isinstance(value, dict):
            print(f"{name:40s} {value:14.6g}")
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "environment": env, "records": workload.records, **extras}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def units_of(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text(encoding="utf-8"))[kind]}


if __name__ == "__main__":
    sys.exit(main())
