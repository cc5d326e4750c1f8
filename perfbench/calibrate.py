"""Machine-speed probe: a fixed pure-Python workload, independent of the program.

On a shared machine the speed of the same code drifts by up to 2x over
minutes.  The benchmark times ``probe()`` between its measurements; the
run's median probe time, against ``REFERENCE_S``, says how fast the machine
ran during that run.  The probe does the kind of work the program does:
dict and tuple building over short token sequences, comparisons, float sums.
"""

from __future__ import annotations

import math
import random
import time

# probe time on a 2-vCPU Intel Xeon virtual machine in its fast state, Python 3.11
REFERENCE_S = 0.0025

_rng = random.Random(0)
_SEQS = [tuple(_rng.choice("abcdefghijklmnop") for _ in range(60)) for _ in range(20)]
_SCORES = [tuple(-_rng.random() for _ in range(60)) for _ in range(20)]


def _work() -> int:
    total = 0
    for _ in range(10):
        for seq, scores in zip(_SEQS, _SCORES):
            first: dict[str, int] = {}
            for i, tok in enumerate(seq):
                first.setdefault(tok, i)
            kept = tuple(t for t, s in zip(seq, scores) if s > -0.5 and t != "a")
            total += len(sorted(first.items())) + len(kept) + int(math.fsum(scores))
    return total


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started
