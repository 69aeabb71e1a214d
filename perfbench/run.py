"""End-to-end and per-layer benchmark of egrl.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {enumerate,closed,small} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, one client in a closed loop: each op -- an
in-process ``egrl.cli.main(argv)`` call with stdout captured, or the
library MacWilliams check -- is issued only after the previous one
returned and its output was checked.  The workload's seeded op list is one
pass; whole passes repeat until S seconds have gone by, so every run
measures the same mix.  Every output is checked (see checks.py); a failed
check is counted, not raised.  Every pass after the first must also repeat
the first pass's output byte for byte.

--trace 0 reports the end-to-end metrics.  Op times are scaled to
reference machine speed with a reference kernel timed between ops (see
reference.py); the raw figures are printed too.  --trace 1 first runs one
untraced pass, then traced passes (see tracer.py) for S seconds, and
reports raw per-layer numbers per traced pass; traced output must equal
the untraced output byte for byte.  Spans go to .bench_out/ in the
checkout.  README.md lists every metric.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The run exits 2 without a result when the checkout holds no
egrl source.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from checks import check
from reference import Reference
from tracer import Tracer, summarize
from workloads import WORKLOADS, make_ops, messages

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5
REFERENCE_EVERY_S = 0.25  # op time between two timings of the reference kernel
PERCENTILES = (50, 90, 99, 99.9)

class SetupError(Exception):
    """The checkout cannot be benchmarked (no egrl source)."""


def setup(workload: str, seed: int):
    """Import egrl from this checkout and draw the inputs: the timed set-up."""
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "egrl", "__init__.py")):
        raise SetupError(f"no egrl source under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (part of what a user of egrl imports)
    import egrl
    import egrl.cli
    if not os.path.abspath(egrl.__file__).startswith(SRC + os.sep):
        raise SetupError(f"egrl was imported from {egrl.__file__}, not from {SRC}")
    ops, fields = make_ops(workload, seed)
    return time.perf_counter() - started, egrl, ops, fields


def setup_samples(workload: str, seed: int, own: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters doing the same."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]))
    return samples


# -- ops ---------------------------------------------------------------------------


def _macwilliams_op(egrl, spec: dict):
    ctx = egrl.FieldCtx.from_order(spec["q"])
    mix = egrl.FieldMatrix.from_flat(ctx, 2, 2, spec["M"])
    order = {"asc": "ascending", "gen": "generator"}[spec["order"]]
    inst = egrl.special_construction(ctx, spec["k"], spec["b"], mix, order)
    primal, dual = egrl.special_nmds_distribution(inst)
    return primal, dual, egrl.macwilliams(primal, spec["k"], ctx)


def run_op(egrl, op) -> tuple[float, int, str]:
    """(seconds, exit code, output text) of one op."""
    if op.kind == "macwilliams":
        started = time.perf_counter()
        result = _macwilliams_op(egrl, op.spec)
        elapsed = time.perf_counter() - started
        return elapsed, 0, json.dumps([[str(c) for c in d.counts] for d in result])
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        rc = egrl.cli.main(list(op.argv))
        elapsed = time.perf_counter() - started
    return elapsed, rc, out.getvalue()


class Loop:
    """Closed loop over whole passes; keeps each op's latency and the failures.

    The reference kernel is timed before the first op, after every
    REFERENCE_EVERY_S of op time and after the last op, so every op lies
    between two reference timings.
    """

    def __init__(self, egrl, ops, fields, reference: Reference):
        self.egrl, self.ops, self.fields, self.reference = egrl, ops, fields, reference
        self._since_reference = float("inf")
        self.first_out: list[str | None] = [None] * len(ops)
        self.timed: list[tuple[int, float, int]] = []  # (op index, seconds, reference index)
        self.failures: list[str] = []
        self.attempted = 0
        self.out_bytes = 0
        self.msgs = 0

    def one(self, index: int, tracer=None) -> None:
        op = self.ops[index]
        if self._since_reference >= REFERENCE_EVERY_S:
            self.reference.sample()
            self._since_reference = 0.0
        self.attempted += 1
        try:
            if tracer is None:
                elapsed, rc, out = run_op(self.egrl, op)
            else:
                with tracer.root(index):
                    elapsed, rc, out = run_op(self.egrl, op)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return
        self.timed.append((index, elapsed, len(self.reference.samples) - 1))
        self._since_reference += elapsed
        self.out_bytes += len(out.encode())
        self.msgs += messages(op)
        reason = check(op, rc, out, self.fields.get(op.spec.get("q")))
        if reason is None and self.first_out[index] is None:
            self.first_out[index] = out
        elif reason is None and out != self.first_out[index]:
            reason = "output differs from the first pass"
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")

    def passes(self, seconds: float, tracer=None, at_least: int = 1) -> int:
        started = time.perf_counter()
        done = 0
        while done < at_least or time.perf_counter() - started < seconds:
            for index in range(len(self.ops)):
                self.one(index, tracer)
            done += 1
        self.reference.sample()
        self._since_reference = 0.0
        return done

    def scaled(self) -> list[tuple[int, float]]:
        """(op index, seconds at reference speed): each latency times the kernel's
        reference time over the mean of the two kernel timings around it."""
        ref = self.reference.samples
        at = 2 * self.reference.reference_s
        return [(index, elapsed * at / (ref[j] + ref[j + 1]))
                for index, elapsed, j in self.timed]

# -- reporting ---------------------------------------------------------------------


def percentile_ms(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1] * 1000


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least ten samples beyond it."""
    fitting = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    return fitting[-1] if fitting else None


def notes(egrl) -> list[str]:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    pkg = os.path.dirname(egrl.__file__)
    lines, digest = 0, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    return [
        f"machine: nproc={os.cpu_count()} cpu={cpu!r} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__}",
        f"code: commit={_commit()} src/egrl lines={lines} sha256={digest.hexdigest()[:16]}",
    ]


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()[:12]
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def per_op_table(loop: Loop) -> list[str]:
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for (index, elapsed, _), (_, at_ref) in zip(loop.timed, loop.scaled()):
        raw.setdefault(loop.ops[index].label, []).append(elapsed)
        scaled.setdefault(loop.ops[index].label, []).append(at_ref)
    return [f"  {label:<26} n={len(v):<5} median {statistics.median(scaled[label]) * 1000:10.3f} "
            f"ms at reference speed, {statistics.median(v) * 1000:10.3f} ms raw"
            for label, v in sorted(raw.items())]


def end_to_end(loop: Loop, setup: list[float]) -> tuple[dict[str, float], list[str]]:
    raw_lat = [elapsed for _, elapsed, _ in loop.timed]
    raw = {"setup_s": statistics.median(setup), "ops_per_s": len(raw_lat) / sum(raw_lat),
           "op_p50_ms": statistics.median(raw_lat) * 1000}
    lat = [elapsed for _, elapsed in loop.scaled()]
    busy = sum(lat)
    scale = loop.reference.scale()
    values = {
        "setup_s": raw["setup_s"],
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": statistics.median(lat) * 1000,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = [f"times are at reference machine speed: each op's latency is scaled by "
             f"{loop.reference.reference_s} s over the reference-kernel timings around it "
             f"({len(loop.reference.samples)} timings, median scale {scale:.4f}); "
             f"setup_s is raw, the median of {len(setup)} set-ups",
             "raw: " + " ".join(f"{name} {value:.6f}" for name, value in raw.items()),
             f"fail_frac {len(loop.failures) / loop.attempted:.6f} ratio "
             f"({len(loop.failures)} of {loop.attempted} ops)"]
    tail = tail_percentile(len(lat))
    if tail is not None:
        name = "op_p99_ms" if tail == 99 else f"op_p{tail:g}_ms"
        extra.append(f"{name} {percentile_ms(lat, tail):.4f} ms "
                     f"(n={len(lat)}; highest percentile with >= 10 samples beyond it)")
    else:
        extra.append(f"op tail percentile: none with >= 10 samples beyond it (n={len(lat)})")
    if loop.msgs:
        extra.append(f"msgs_per_s {loop.msgs / busy:.1f} 1/s "
                     "(messages enumerated per second of op time)")
    return values, extra


def per_layer(loop: Loop, tracer, traced_passes: int, untraced_s: float,
              out_bytes: int) -> dict[str, float]:
    s = summarize(tracer.spans)
    incl, calls, self_ns, counts = s["incl_ns"], s["calls"], s["self_ns"], tracer.counts
    per = float(traced_passes)

    def sec(ns: int) -> float:
        return ns / 1e9 / per

    classify_ops = sum(1 for op in loop.ops if op.kind.startswith("classify")) * per
    enum_s = sec(incl["linear.weight_distribution"])
    msgs = counts["linear.msgs"] / per
    traced_op_s = sec(s["root_ns"])
    values = {
        "field.ctx_build_s": sec(incl["field.ctx_build"]),
        "field.np_table_s": sec(incl["field.np_table"]),
        "field.scalar_ops": counts["field.scalar_ops"] / per,
        "matrix.rref_calls": calls["matrix.rref_pivots"] / per,
        "matrix.rref_s": sec(incl["matrix.rref_pivots"]),
        "subsetsum.dp_calls": calls["subsetsum.count_dp"] / per,
        "subsetsum.dp_s": sec(incl["subsetsum.count_dp"]),
        "subsetsum.dp_cells": counts["subsetsum.dp_cells"] / per,
        "subsetsum.witness_s": sec(incl["subsetsum.find_subset"]),
        "subsetsum.witness_cells": counts["subsetsum.witness_cells"] / per,
        "linear.enum_s": enum_s,
        "linear.msgs": msgs,
        "linear.blocks": counts["linear.blocks"] / per,
        "linear.msgs_per_busy_s": msgs / enum_s if enum_s else 0.0,
        "linear.dual_enums": s["dual_enums"] / per,
        "linear.classify_calls": calls["linear.classify"] / per,
        "linear.macwilliams_s": sec(incl["linear.macwilliams"]),
        "linear.nmds_s": sec(incl["linear.nmds_distribution"]),
        "construction.check_mds_per_classify":
            calls["construction.check_mds"] / classify_ops if classify_ops else 0.0,
        "construction.parity_check_s": sec(incl["construction.parity_check_matrix"]),
        "cli.parse_s": sec(incl["cli.parse"]),
        "cli.render_s": sec(incl["cli.render"]),
        "trace.op_s": traced_op_s,
        "trace.overhead": traced_op_s / untraced_s,
    }
    for layer, ns in self_ns.items():
        values[f"{layer}.self_s"] = sec(ns)
    values["cli.out_bytes"] = out_bytes / per
    return values


def write_spans(workload: str, seed: int, loop: Loop, tracer, note_lines: list[str]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    base = tracer.spans[0][4] if tracer.spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "notes": note_lines,
                   "ops": [[i, op.label] for i, op in enumerate(loop.ops)],
                   "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                   "spans": [[a, b, c, d, t0 - base, t1 - base]
                             for a, b, c, d, t0, t1 in tracer.spans]}, fh)
    return os.path.relpath(path, ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import plus input generation, print it, exit")
    args = parser.parse_args(argv)
    try:
        own_setup, egrl, ops, fields = setup(args.workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{own_setup!r}")
        return 0
    setup_times = setup_samples(args.workload, args.seed, own_setup)
    note_lines = notes(egrl)
    print(f"# egrl benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in note_lines:
        print(f"# {line}")
    print(f"# closed loop, 1 client, 1 thread, {len(ops)} ops per pass")
    reference = Reference(args.workload)
    loop = Loop(egrl, ops, fields, reference)
    if args.trace == 0:
        passes = loop.passes(args.seconds)
        values, extra = end_to_end(loop, setup_times)
        print(f"# {passes} passes; set-up samples (s): "
              + " ".join(f"{v:.4f}" for v in setup_times))
    else:
        loop.passes(0)
        untraced_s = sum(elapsed for _, elapsed, _ in loop.timed)
        untraced_bytes = loop.out_bytes
        with Tracer() as tracer:
            passes = loop.passes(args.seconds, tracer)
        values = per_layer(loop, tracer, passes, untraced_s, loop.out_bytes - untraced_bytes)
        extra = [f"{passes} traced passes after 1 untraced pass; per-layer values are per pass, "
                 f"raw (reference scale {reference.scale():.4f})",
                 "single-threaded: no layer waits for another, so no wait time is reported "
                 "(absent, not measured as zero)",
                 "scalar field ops are counted, not timed; their time is in the caller's self_s",
                 f"spans: {write_spans(args.workload, args.seed, loop, tracer, note_lines)}"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name:<38} {metric['value']:>16.6f} {metric['unit']}")
    for line in extra:
        print(f"# {line}")
    print("# per-op latency, all passes:")
    for line in per_op_table(loop):
        print(f"#{line}")
    for failure in loop.failures[:20]:
        print(f"# FAIL {failure}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
