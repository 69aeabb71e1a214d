"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check the harness, not egrl: a corrupted output is caught, tracing
leaves the program's output byte-identical and its self times add up, the
inputs repeat under a fixed seed, and a checkout without egrl source makes
the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import egrl  # noqa: E402
import egrl.cli  # noqa: E402
import run  # noqa: E402
from checks import check  # noqa: E402
from oracle import GF  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Op, _special, _special_argv, make_ops  # noqa: E402


def _desk_ops() -> tuple[list[Op], dict]:
    """Every op kind at desk scale: the enumerate and closed kinds on small
    special instances, plus a slice of the small workload."""
    fields = {q: GF(q) for q in (8, 9, 11, 13)}
    rng = random.Random(0)
    ops = []
    for q, k in ((8, 5), (9, 4), (11, 4)):
        spec = _special(fields[q], k, rng)
        ops.append(Op("wb", "weights-both", tuple(_special_argv("weights", spec)
                                                  + ["--method", "both", "--json"]), spec))
        ops.append(Op("wf", "weights-formula", tuple(_special_argv("weights", spec)
                                                     + ["--method", "formula", "--json"]), spec))
        ops.append(Op("cl", "classify", tuple(_special_argv("classify", spec) + ["--json"]), spec))
        ops.append(Op("mw", "macwilliams", (), spec))
    spec = {"q": 13, "m": 5, "b": 3, "domain": "star"}
    ops.append(Op("lw", "subsetsum-lw", ("subsetsum", "--q", "13", "--domain", "star", "--m", "5",
                                         "--b", "3", "--method", "lw", "--json"), spec))
    small, small_fields = make_ops("small", 11)
    fields.update(small_fields)
    kinds: dict[str, int] = {}
    for op in small:
        if kinds.get(op.kind, 0) < 6:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            ops.append(op)
    return ops, fields


def _corrupt(op: Op, out: str) -> str:
    """The output with one count changed by one."""
    if op.kind == "macwilliams":
        primal, dual, transformed = json.loads(out)
        transformed[-1] = str(int(transformed[-1]) + 1)
        return json.dumps([primal, dual, transformed])
    report = json.loads(out)
    res = report["results"]
    if "brute_distribution" in res:
        key = "brute_distribution"
    elif "distribution" in res:
        key = "distribution"
    elif "G" in res:
        rows = res["H"].split("\n")
        last = rows[-1].split()
        last[0] = str((int(last[0]) + 1) % op.spec["q"])
        rows[-1] = " ".join(last)
        res["H"] = "\n".join(rows)
        return json.dumps(report)
    elif "witness" in res:
        res["witness"]["subset"][0] = str((int(res["witness"]["subset"][0]) + 1) % op.spec["q"])
        return json.dumps(report)
    elif "mds" in res:
        res["mds"] = not res["mds"]
        return json.dumps(report)
    else:
        res["count"] = str(int(res["count"]) + 1)
        return json.dumps(report)
    res[key][-1] = str(int(res[key][-1]) + 1)
    return json.dumps(report)


def test_inputs_repeat_under_a_fixed_seed():
    for workload in WORKLOADS:
        ops, _ = make_ops(workload, 7)
        again, _ = make_ops(workload, 7)
        other, _ = make_ops(workload, 8)
        assert ops == again
        assert ops != other


def test_every_op_kind_passes_and_a_corrupted_count_fails():
    ops, fields = _desk_ops()
    assert {op.kind for op in ops} >= {"weights-both", "weights-formula", "classify",
                                       "macwilliams", "subsetsum-lw", "subsetsum-both",
                                       "classify-verify", "construct-h", "weights-brute"}
    for op in ops:
        _, rc, out = run.run_op(egrl, op)
        gf = fields.get(op.spec["q"])
        assert check(op, rc, out, gf) is None, op
        assert check(op, rc, _corrupt(op, out), gf) is not None, op
        assert check(op, 4, out, gf) == "exit code 4"


def test_loop_counts_a_corrupted_output_and_keeps_going(monkeypatch):
    ops, fields = _desk_ops()
    real = run.run_op
    monkeypatch.setattr(run, "run_op", lambda e, op: (lambda t, rc, out: (
        t, rc, _corrupt(op, out) if op is ops[0] else out))(*real(e, op)))
    reference = run.Reference("small")
    loop = run.Loop(egrl, ops, fields, reference)
    loop.passes(0)
    assert reference.samples
    assert loop.attempted == len(ops)
    assert len(loop.failures) == 1 and loop.failures[0].startswith(ops[0].label)


def test_tracing_leaves_output_identical_and_self_times_add_up():
    ops, _ = _desk_ops()
    plain = [run.run_op(egrl, op)[1:] for op in ops]
    original = egrl.cli.check_mds
    with Tracer() as tracer:
        assert egrl.cli.check_mds is not original
        assert egrl.construction.check_mds is egrl.cli.check_mds
        traced = []
        for i, op in enumerate(ops):
            with tracer.root(i):
                traced.append(run.run_op(egrl, op)[1:])
    assert egrl.cli.check_mds is original
    assert traced == plain
    summary = summarize(tracer.spans)
    assert sum(summary["self_ns"].values()) == summary["root_ns"]
    assert all(s[1] < s[0] for s in tracer.spans if s[1] >= 0)
    names = summary["calls"]
    for name in ("cli.parse", "cli.render", "field.ctx_build", "field.np_table",
                 "matrix.rref_pivots",
                 "subsetsum.count_dp", "subsetsum.find_subset", "linear.codeword_blocks",
                 "linear.macwilliams", "linear.nmds_distribution", "construction.check_mds",
                 "construction.parity_check_matrix"):
        assert names[name] > 0, name
    assert tracer.counts["field.scalar_ops"] > 0
    enumerated = sum(op.spec["q"] ** op.spec["k"] for op in ops if op.kind in
                     ("weights-both", "weights-brute"))
    assert tracer.counts["linear.msgs"] >= enumerated


def test_checkout_without_source_exits_nonzero_without_a_result():
    root = os.path.dirname(HERE)
    bare = os.path.join(root, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(9) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(4000) == 99
    assert run.percentile_ms([0.001 * i for i in range(1, 101)], 99) == 99.0
