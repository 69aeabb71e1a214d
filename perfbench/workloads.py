"""Seeded inputs for the three workloads.

Each workload is a list of operations, one pass.  The benchmark repeats
whole passes, so every run measures the same mix.  ``make_ops(name, seed)``
is deterministic: the same name and seed give the same list.  The program
sees only the argv lists (and, for the library op, plain ints) built here.

Why these workloads:

* ``enumerate``: weights --special --method both at (q, k) = (23,5),
  (25,5), (16,6), (27,5) -- 6.4M to 14.3M messages per op over a prime
  field, an odd extension and characteristic 2.  Brute-force enumeration
  does almost all the work.
* ``closed``: closed forms and criteria at field scale (q = 243..4096)
  with no enumeration at all: NMDS expansion, MacWilliams, the subset-sum
  DP and witness, FieldCtx table build and big-integer report rendering.
* ``small``: 2000 random desk-scale commands over q <= 32 with the
  enumerated side capped at 2^18 messages; each takes milliseconds, so
  fixed per-call costs (parser build, tables, block set-up, rref)
  dominate and the tail percentile has enough samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import GF

WORKLOADS = ("enumerate", "closed", "small")

ENUMERATE_FIELDS = ((23, 5), (25, 5), (16, 6), (27, 5))
SMALL_FIELDS = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
SMALL_COMMANDS = ("classify", "construct", "weights", "subsetsum")
SMALL_OPS = 2000
SMALL_ENUM_CAP = 1 << 18


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv, or the library MacWilliams check.

    ``kind`` names the output check; ``spec`` holds the drawn parameters the
    check needs (q, k, alpha, M, ...).  ``label`` groups ops for per-op
    timing tables.
    """

    label: str
    kind: str
    argv: tuple[str, ...]
    spec: dict = field(hash=False, compare=True)


def _nonsingular_mix(gf: GF, rng: random.Random) -> list[int]:
    while True:
        mix = [rng.randrange(gf.q) for _ in range(4)]
        if gf.det2(mix):
            return mix


def _csv(values) -> str:
    return ",".join(map(str, values))


def _special(gf: GF, k: int, rng: random.Random) -> dict:
    return {"q": gf.q, "k": k, "b": rng.randrange(1, gf.q),
            "M": _nonsingular_mix(gf, rng), "order": rng.choice(("asc", "gen"))}


def _special_argv(command: str, spec: dict) -> list[str]:
    return [command, "--q", str(spec["q"]), "--k", str(spec["k"]), "--b", str(spec["b"]),
            "--M", _csv(spec["M"]), "--special", "--order", spec["order"]]


def _inline(gf: GF, k: int, n: int, t: int, rng: random.Random) -> dict:
    return {"q": gf.q, "k": k, "n": n, "t": t,
            "alpha": rng.sample(range(gf.q), n),
            "v": [rng.randrange(1, gf.q) for _ in range(n)],
            "b": rng.randrange(1, gf.q), "M": _nonsingular_mix(gf, rng)}


def _inline_argv(command: str, spec: dict) -> list[str]:
    return [command, "--q", str(spec["q"]), "--k", str(spec["k"]), "--alpha", _csv(spec["alpha"]),
            "--v", _csv(spec["v"]), "--b", str(spec["b"]), "--M", _csv(spec["M"]),
            "--t", str(spec["t"])]


def _enumerate_ops(rng: random.Random, fields: dict) -> list[Op]:
    ops = []
    for q, k in ENUMERATE_FIELDS:
        spec = _special(fields[q], k, rng)
        argv = _special_argv("weights", spec) + ["--method", "both", "--json"]
        ops.append(Op(f"weights-both q={q} k={k}", "weights-both", tuple(argv), spec))
    return ops


def _closed_ops(rng: random.Random, fields: dict) -> list[Op]:
    ops = []
    for q in (512, 256):
        spec = _special(fields[q], 8, rng)
        argv = _special_argv("weights", spec) + ["--method", "formula", "--json"]
        ops.append(Op(f"weights-formula q={q} k=8", "weights-formula", tuple(argv), spec))
    for q in (256, 243):
        spec = _special(fields[q], 8, rng)
        argv = _special_argv("classify", spec) + ["--json"]
        ops.append(Op(f"classify q={q} k=8", "classify", tuple(argv), spec))
    for q, m, method in ((243, 60, "both"), (4096, rng.randrange(2, 4095), "lw")):
        spec = {"q": q, "m": m, "b": rng.randrange(q), "domain": rng.choice(("star", "full"))}
        argv = ["subsetsum", "--q", str(q), "--domain", spec["domain"], "--m", str(m),
                "--b", str(spec["b"]), "--method", method, "--json"]
        ops.append(Op(f"subsetsum-{method} q={q}", f"subsetsum-{method}", tuple(argv), spec))
    spec = _special(fields[256], 8, rng)
    ops.append(Op("macwilliams q=256 k=8", "macwilliams", (), spec))
    return ops


def _small_dims(command: str, q: int) -> list[tuple[int, int]]:
    """Feasible (k, n) for one small op; the enumerated side stays capped."""
    out = []
    for k in range(3, q + 1):
        for n in range(k, q + 1):
            if command == "construct":
                ok = 4 <= k <= n - 1
            elif command == "classify":  # enumerates the smaller of the code and its dual
                ok = q ** min(k, n + 3 - k) <= SMALL_ENUM_CAP
            else:
                ok = q**k <= SMALL_ENUM_CAP
            if ok:
                out.append((k, n))
    return out


def _small_ops(rng: random.Random, fields: dict) -> list[Op]:
    # The (command, q) mix is fixed and only the instances are drawn, so
    # every seed does a comparable amount of work.
    ops = []
    dims: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for i in range(SMALL_OPS):
        command = SMALL_COMMANDS[i % len(SMALL_COMMANDS)]
        qs = SMALL_FIELDS[1:] if command == "construct" else SMALL_FIELDS
        gf = fields[qs[(i // len(SMALL_COMMANDS)) % len(qs)]]
        q = gf.q
        if command == "subsetsum":
            domain = rng.choice(("star", "full"))
            spec = {"q": q, "domain": domain, "m": rng.randint(0, q - (domain == "star")),
                    "b": rng.randrange(q)}
            argv = ["subsetsum", "--q", str(q), "--domain", domain, "--m", str(spec["m"]),
                    "--b", str(spec["b"]), "--method", "both", "--json"]
            ops.append(Op("subsetsum", "subsetsum-both", tuple(argv), spec))
            continue
        if (command, q) not in dims:
            dims[command, q] = _small_dims(command, q)
        k, n = rng.choice(dims[command, q])
        t = rng.randint(0, k - 3) if command == "weights" else 0
        spec = _inline(gf, k, n, t, rng)
        if command == "classify":
            argv = _inline_argv("classify", spec) + ["--verify", "--json"]
        elif command == "construct":
            argv = _inline_argv("construct", spec) + ["--with-h", "--json"]
        else:
            argv = _inline_argv("weights", spec) + ["--method", "brute", "--json"]
        kind = {"classify": "classify-verify", "construct": "construct-h",
                "weights": "weights-brute"}[command]
        ops.append(Op(command, kind, tuple(argv), spec))
    rng.shuffle(ops)
    return ops


def messages(op: Op) -> int:
    """Messages (q^k of the enumerated side) an op enumerates; 0 for closed forms."""
    spec = op.spec
    if op.kind in ("weights-both", "weights-brute"):
        return spec["q"] ** spec["k"]
    if op.kind == "classify-verify":
        return spec["q"] ** min(spec["k"], spec["n"] + 3 - spec["k"])
    return 0


def make_ops(workload: str, seed: int) -> tuple[list[Op], dict[int, GF]]:
    """The seeded operation list of one pass, and the fields its checks use."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enumerate":
        fields = {q: GF(q) for q, _ in ENUMERATE_FIELDS}
        return _enumerate_ops(rng, fields), fields
    if workload == "closed":
        fields = {q: GF(q) for q in (512, 256, 243)}
        return _closed_ops(rng, fields), fields
    if workload == "small":
        fields = {q: GF(q) for q in SMALL_FIELDS}
        return _small_ops(rng, fields), fields
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
