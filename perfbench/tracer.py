"""In-process span tracer for the per-layer run.

``Tracer.install`` replaces the public names each module calls with timing
wrappers; ``Tracer.uninstall`` puts the originals back.  Each span is
``[name, start, end, parent index, record id, error, payload]`` and stays in
memory until the run ends.  Wrappers keep only references to arguments and
results (``payload``); counts derived from them are computed after the run,
so that work is not charged to any span.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import defaultdict

from candidate_soups import alignment, bleu, cli, fusion, lattice_oracle, scoring

NAME, START, END, PARENT, RECORD, ERROR, PAYLOAD = range(7)

# (namespace, attribute, span name, what the payload keeps)
TARGETS = [
    (cli, "parse_candidate_record", "cli.parse_candidate_record", None),
    (cli, "validate", "cli.validate", None),
    (cli, "candidate_soups", "cli.candidate_soups", "result"),
    (cli, "npd_select", "cli.npd_select", None),
    (cli, "rescore_set", "cli.rescore_set", None),
    (cli, "build_lattice", "cli.build_lattice", None),
    (cli, "oracle_best", "cli.oracle_best", "args"),
    (cli, "fusion_record", "cli.fusion_record", None),
    (cli, "load_ngram", "cli.load_ngram", None),
    (fusion, "validate", "fusion.validate", None),
    (fusion, "rescore_set", "fusion.rescore_set", "result"),
    (fusion, "partition", "fusion.partition", "result"),
    (fusion, "select_segment", "fusion.select_segment", None),
    (scoring, "rescore_set", "scoring.rescore_set", None),
    (scoring, "remove_adjacent_duplicates", "scoring.remove_adjacent_duplicates", "both"),
    (alignment, "find_next_anchor", "alignment.find_next_anchor", None),
    (lattice_oracle, "partition", "lattice_oracle.partition", "result"),
    (bleu.BleuAccumulator, "add", "bleu.add", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._record: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep: str | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "cli.parse_candidate_record" and args and isinstance(args[0], dict):
                self._record = args[0].get("id")
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._record, None, None]
            stack.append(len(spans))
            spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                span[START] = start
                stack.pop()
            if keep == "result":
                span[PAYLOAD] = result
            elif keep == "args":
                span[PAYLOAD] = args
            elif keep == "both":
                span[PAYLOAD] = (args, result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, keep in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def run_command(self, argv: list[str], stdout, stderr) -> int:
        """Run ``cli.main(argv)`` under a root span named ``cli.<command>``."""
        self._record = None
        span = [f"cli.{argv[0]}", 0.0, 0.0, -1, None, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return cli.main(argv, stdout=stdout, stderr=stderr)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def write_spans(self, fp) -> None:
        """Write spans as JSON lines; ``parent`` is a line index within this tracer's spans."""
        for i, s in enumerate(self.spans):
            fp.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                 "parent": s[PARENT], "record": s[RECORD],
                                 "error": s[ERROR]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _mean(values) -> float:
    values = list(values)
    return math.fsum(values) / len(values) if values else 0.0


class LayerStats:
    """Accumulates per-layer figures over traced commands; see ``metrics``."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_ms: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.input_records = 0  # input records, once per traced round
        self.record_lines = 0  # records read, summed over commands
        self.command_self = 0.0
        self.tokens_in = self.tokens_removed = 0
        self.anchors: list[int] = []
        self.regions: list[int] = []
        self.region_widths: list[int] = []
        self.regions_total = self.regions_departed = 0
        self.paths: list[int] = []
        self.explosions = 0

    def add(self, spans: list[list], record_lines: int) -> None:
        selfs = self_times(spans)
        self.record_lines += record_lines
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            name = s[NAME]
            if s[PARENT] < 0:
                self.command_self += selfs[i]
                continue
            children[s[PARENT]].append(i)
            self.durations[name].append(s[END] - s[START])
            self.self_ms[name].append(selfs[i])
            self.counts[name] += 1
            payload = s[PAYLOAD]
            if name == "scoring.remove_adjacent_duplicates":
                cand, out = payload[0][0], payload[1]
                self.tokens_in += len(cand.tokens)
                self.tokens_removed += len(cand.tokens) - len(out.tokens)
            elif name in ("fusion.partition", "lattice_oracle.partition"):
                regions = list(payload.regions())
                self.anchors.append(len(payload.elements) - len(regions))
                self.regions.append(len(regions))
                self.region_widths.extend(max(map(len, r.segments)) for r in regions)
            elif name == "cli.oracle_best":
                if s[ERROR] == "PathExplosion":
                    self.explosions += 1
                elif s[ERROR] is None:
                    self.paths.append(lattice_oracle.path_count(payload[0]))
        for i, s in enumerate(spans):
            if s[NAME] == "cli.candidate_soups" and s[ERROR] is None:
                self._departures(s[PAYLOAD], [spans[c] for c in children[i]])

    def _departures(self, result, kids: list[list]) -> None:
        prepared = next(k[PAYLOAD] for k in kids if k[NAME] == "fusion.rescore_set")
        part = next(k[PAYLOAD] for k in kids if k[NAME] == "fusion.partition")
        # npd's pick on the same prepared set: highest mean, lowest index on ties
        means = [c.mean_score() for c in prepared.candidates]
        winner = max(range(len(means)), key=lambda j: (means[j], -j))
        for region, choice in zip(part.regions(), result.trace):
            self.regions_total += 1
            if choice.chosen_tokens != region.segments[winner]:
                self.regions_departed += 1

    def metrics(self, synth_ms: float, overhead: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics.

        ``*_ms``/``*_s``: mean duration of one call.  ``*_per_record``: calls
        per input record, summed over the workload's commands.  Shares are
        pooled over all calls.
        """
        d, n = self.durations, max(self.input_records, 1)

        def ms(*names: str) -> float:
            return 1000.0 * _mean(v for name in names for v in d[name])

        def per_record(*names: str) -> float:
            return sum(self.counts[name] for name in names) / n

        partitions = self.counts["fusion.partition"] + self.counts["lattice_oracle.partition"]
        fusions = self.counts["cli.candidate_soups"]
        out = {
            "cli.parse_ms": ms("cli.parse_candidate_record"),
            "cli.self_ms": 1000.0 * self.command_self / max(self.record_lines, 1),
            "candidates.validate_ms": ms("cli.validate", "fusion.validate"),
            "candidates.validate_calls_per_record": per_record("cli.validate", "fusion.validate"),
            "candidates.dedup_removed_share": self.tokens_removed / max(self.tokens_in, 1),
            "scoring.rescore_ms": ms("cli.rescore_set", "fusion.rescore_set",
                                     "scoring.rescore_set"),
            "scoring.rescore_calls_per_record": per_record(
                "cli.rescore_set", "fusion.rescore_set", "scoring.rescore_set"),
            "scoring.npd_ms": ms("cli.npd_select"),
            "scoring.load_s": ms("cli.load_ngram") / 1000.0,
            "alignment.partition_ms": ms("fusion.partition", "lattice_oracle.partition"),
            "alignment.anchor_search_calls": self.counts["alignment.find_next_anchor"]
            / max(partitions, 1),
            "alignment.anchors_per_record": _mean(self.anchors),
            "alignment.regions_per_record": _mean(self.regions),
            "alignment.region_width_mean": _mean(self.region_widths),
            "fusion.total_ms": ms("cli.candidate_soups"),
            "fusion.select_ms": 1000.0 * math.fsum(d["fusion.select_segment"]) / max(fusions, 1),
            "fusion.self_ms": 1000.0 * _mean(self.self_ms["cli.candidate_soups"]),
            "fusion.departure_share": self.regions_departed / max(self.regions_total, 1),
            "lattice_oracle.build_ms": ms("cli.build_lattice"),
            "lattice_oracle.search_ms": ms("cli.oracle_best"),
            "lattice_oracle.paths_p50": statistics.median(self.paths) if self.paths else 0,
            "lattice_oracle.explosions": self.explosions,
            "bleu.add_ms": ms("bleu.add"),
            "bleu.adds_per_record": per_record("bleu.add"),
            "synth.generate_ms": synth_ms,
        }
        out.update({f"trace.{cmd}_overhead": ratio for cmd, ratio in overhead.items()})
        return out

