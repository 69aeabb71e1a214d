"""Fixed reference kernels that time the machine rather than egrl.

The machine this benchmark was built on is shared: over tens of seconds
its speed drifts by 20-40%, and different kinds of work drift differently
(Python object churn, Python integer loops, numpy memory traffic).  Each
workload therefore has a reference kernel doing the same kind of work as
its ops, but none of egrl's code.  The kernel is timed in the benchmark
process between ops (median of three runs), with the garbage collector
off, and each op's latency is scaled by the reference time over the mean
of the two kernel timings around it.  Figures then read as at reference machine speed; the
benchmark prints the raw figures beside them.

A kernel timed in a child process tracked the drift much worse, and a
kernel doing another kind of work than the ops can widen the spread.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import time


def _objects(_np, _arrays) -> None:
    """argparse parser builds, a JSON round trip and a sort: like cli."""
    for _ in range(3):
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers()
        for j in range(5):
            command = sub.add_parser(f"c{j}")
            for a in range(15):
                command.add_argument(f"--a{a}", type=int, help="x")
    doc = {str(i): [str(i * j) for j in range(20)] for i in range(300)}
    json.loads(json.dumps(doc, sort_keys=True, indent=2))
    draws = random.Random(1)
    sorted(draws.random() for _ in range(20_000))


def _integers(_np, _arrays) -> None:
    """A subset-sum style table loop and big-integer sums: like the closed ops."""
    rows = [[0] * 256 for _ in range(21)]
    rows[0][0] = 1
    for x in range(1, 100):
        for j in range(20, 0, -1):
            prev, cur = rows[j - 1], rows[j]
            for t in range(256):
                c = prev[t]
                if c:
                    cur[t ^ x] += c
    acc = 0
    for k in range(0, 600, 3):
        acc += math.comb(1200, k) * (-1) ** k
    str(acc * acc)
    for j in range(0, 258, 8):  # Krawtchouk-style and NMDS-style big-integer sums
        for m in range(min(30, j) + 1):
            acc += (-1) ** m * math.comb(30, m) * math.comb(228, j - m) * 255 ** (j - m)
    for s in range(1, 60):
        acc += math.comb(514, s) * sum((-1) ** j * math.comb(300 + s, j) * (512 ** (s - j) - 1)
                                       for j in range(s))
    str(acc)


def _arrays(np):
    rng = np.random.default_rng(0)
    table = (np.arange(32)[:, None] ^ np.arange(32)[None, :]).astype(np.uint16)
    left = rng.integers(0, 32, size=4_000_000, dtype=np.uint16)
    right = rng.integers(0, 32, size=4_000_000, dtype=np.uint16)
    return table, left, right


def _gathers(np, arrays) -> None:
    """uint16 table gathers over arrays larger than cache: like codeword_blocks."""
    table, left, right = arrays
    out = table[table[left, right], right]
    np.bincount(np.count_nonzero(out.reshape(-1, 32), axis=1))


# workload -> (kernel, its time in seconds on a quiet machine: only a fixed scale)
KERNELS = {
    "small": (_objects, 0.012),
    "closed": (_integers, 0.030),
    "enumerate": (_gathers, 0.050),
}


class Reference:
    """Timings of one workload's kernel: ``ref.sample()`` between ops."""

    def __init__(self, workload: str):
        import numpy as np
        self._np = np
        self._kernel, self.reference_s = KERNELS[workload]
        self._arrays = _arrays(np) if self._kernel is _gathers else None
        self.samples: list[float] = []
        self._timed()  # warm-up: first-call costs are not machine speed

    def _timed(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._kernel(self._np, self._arrays)
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> None:
        """One reference timing: the median of three back-to-back kernel runs."""
        self.samples.append(statistics.median(self._timed() for _ in range(3)))

    def scale(self) -> float:
        """Median kernel time over the reference time: above 1 when the machine ran slow."""
        return statistics.median(self.samples) / self.reference_s
