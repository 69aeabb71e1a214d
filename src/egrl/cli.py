"""Command-line front end.

Subcommands: construct, classify, weights, subsetsum, sweep.
Exit codes: 0 ok, 2 bad input, 3 unsupported shape, 4 verification failure.

Each ``cmd_*`` only computes: it returns a :class:`Report` or raises, and
writes nothing.  ``_emit_report`` is the one place a report is written --
the JSON document (--json) or the command's text form derived from the
same results, to stdout or the --out file -- and ``main`` the one place a
raised failure becomes an exit code and one stderr line, both with the
int-to-str digit limit lifted, so counts of any length render under a
caller's limit, restored afterwards.

JSON reports carry a top-level ``"schema": 1``; every other numeric value
is rendered as a decimal string so counts survive any magnitude.  The closed
weight counts are solved as ``decimal.Decimal`` integers, which render in
linear time, and print exactly as the same ``int`` would.  Identical
invocation and seed give byte-identical output (timing is only attached,
to JSON reports, with --timing).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import random
import sys
import time
from decimal import Decimal
from typing import Iterator, NamedTuple

from .field import FieldCtx, FieldError
from .matrix import FieldMatrix, MatrixError
from .linear import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeClass,
    InconsistentInput,
    LinearCode,
    NegativeCount,
    WeightDistribution,
    ZeroCode,
    macwilliams,
    walk_size,
)
from .subsetsum import SubsetSumError, count_dp, count_li_wan
from .construction import (
    EgrlParams,
    InvalidParams,
    UnsupportedShape,
    check_mds,
    dual_support_pattern_census,
    egrl_code,
    generator_matrix,
    min_weight_census,
    mix_from_entries,
    params_from_text,
    parity_check_matrix,
    special_construction,
    special_nmds_distribution,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4


class Report(NamedTuple):
    """What one command computed; only ``_emit_report`` renders it.  A false entry in
    ``agreement`` makes the exit code EXIT_MISMATCH."""

    instance: dict
    results: dict
    agreement: dict | None = None
    exit_code: int = EXIT_OK


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _jsonable(value):
    # Decimal-string policy: counts can exceed any fixed width, so every
    # number in a report body is serialized as a string.
    if isinstance(value, WeightDistribution):
        value = value.counts
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, Decimal)):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@contextlib.contextmanager
def _all_digits():
    """Lift the process-wide int-to-str digit limit only while an egrl command runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _construct_text(report: Report) -> Iterator[str]:
    res = report.results
    return (part for key in ("G", "H") if key in res for part in (key, res[key]))


def _classify_text(report: Report) -> Iterator[str]:
    res = report.results
    if "mds" not in res:
        ell, t = report.instance["ell"], report.instance["t"]
        yield f"criteria unsupported for (ell,t)=({ell},{t}): brute-force only"
    elif res["mds"]:
        yield "MDS: true"
    elif "alpha_zero_index" in res:
        yield f"MDS: false; alpha[{res['alpha_zero_index']}] = 0"
    else:
        w = res["witness"]
        yield f"MDS: false; witness I_{w['m']}={{{','.join(map(str, w['subset']))}}} j={w['j']}"
    if "mds" in res:
        yield f"dual AMDS: {json.dumps(res['dual_amds'])}"
    if "classification" in res:
        cls = res["classification"]
        (n, k, d), dual_d = cls["parameters"], cls["dual_parameters"][2]
        yield f"parameters: [{n},{k},{d}] {cls['label']}"
        yield f"dual parameters: [{n},{n - k},{dual_d}]"
    if report.agreement:
        yield f"brute force agrees: {json.dumps(all(report.agreement.values()))}"


def _weights_text(report: Report) -> Iterator[str]:
    res = report.results
    yield f"enumerator: {res['distribution'].poly_str()}"
    yield f"distribution: {json.dumps(_jsonable(res['distribution']))}"
    if res["method"] == "formula":
        yield f"dual distribution: {json.dumps(_jsonable(res['dual_distribution']))}"
    elif report.agreement is not None:
        yield f"agreement: {json.dumps(all(report.agreement.values()))}"


def _sweep_text(report: Report) -> Iterator[str]:
    for r in report.results["records"]:
        status = (f"skipped ({r['skipped']})" if "skipped" in r
                  else f"{r['new_failures']} new failures")
        yield f"q={r['q']} k={r['k']}: {status}"
    yield from (f"FAIL {f}" for f in report.results["failures"])
    yield report.results["summary"]


def _emit_report(args, report: Report, started: float) -> int:
    """Write ``report`` -- the only output a command makes -- and return its exit code."""
    out = getattr(args, "out", None)  # only construct writes a file
    with contextlib.nullcontext() if out is None else open(out, "w", encoding="utf-8") as fh:
        if args.json:
            doc = {
                "schema": 1,
                "command": args.command,
                "argv": list(args._argv),
                "instance": _jsonable(report.instance),
                "results": _jsonable(report.results),
            }
            if report.agreement is not None:
                doc["oracle_agreement"] = _jsonable(report.agreement)
            if args.timing:
                doc["timing"] = {"seconds": f"{time.time() - started:.3f}"}
            print(json.dumps(doc, sort_keys=True, indent=2), file=fh)
        else:
            print("\n".join(args.text(report)), file=fh)
    if report.agreement and not all(report.agreement.values()):
        return EXIT_MISMATCH
    return report.exit_code


def _build_ctx(args, missing_q: str = "an instance needs --q (or --instance FILE)") -> FieldCtx:
    if args.q is None:
        raise InvalidParams(missing_q)
    modulus = None if args.mod is None else _int_list(args.mod)
    return FieldCtx.from_order(args.q, modulus)


def _one_source(args, rule: str, skip: int = 0) -> None:
    """Refuse the first instance flag (bar the first ``skip``) given next to a file."""
    for f in ("q", "mod", "k", "n", "alpha", "v", "b", "M", "ell", "t", "special", "order")[skip:]:
        if getattr(args, f) is not None and getattr(args, f) is not False:
            raise InvalidParams(f"{rule}, got --{f}")


def _load_instance(args) -> EgrlParams:
    if args.instance is not None:
        with open(args.instance, "r", encoding="utf-8") as fh:
            _one_source(args, "--instance takes no inline instance flags")
            return params_from_text(fh.read())
    if args.order is not None and not args.special:
        raise InvalidParams("--order needs --special")
    ctx = _build_ctx(args)
    if None in (args.k, args.b, args.M) or args.special == (args.alpha is not None):
        raise InvalidParams(
            "an inline instance needs --k, --b, --M and one of --alpha and --special")
    # --special only picks the points, all of F_q^*; the other flags read as without it.
    alpha = ((ctx.generator_powers() if args.order == "gen" else ctx.units()) if args.special
             else _int_list(args.alpha))
    n = len(alpha)
    if args.n is not None and args.n != n:
        raise InvalidParams(f"--n {args.n} disagrees with {n} evaluation points")
    v = (1,) * n if args.v is None else _int_list(args.v)
    ell = 2 if args.ell is None else args.ell
    return EgrlParams(
        ctx=ctx, n=n, k=args.k, ell=ell, t=0 if args.t is None else args.t, alpha=alpha, v=v,
        b=args.b, mix=mix_from_entries(ctx, ell, args.k, _int_list(args.M)),
    )


def _add_instance_flags(sub):
    sub.add_argument("--instance", help="instance file (canonical text or JSON form)")
    sub.add_argument("--q", type=int, help="field order (prime power)")
    sub.add_argument("--mod", help="modulus coefficients c_0,...,c_s (monic)")
    sub.add_argument("--k", type=int, help="code dimension")
    sub.add_argument("--n", type=int, help="evaluation-point count (cross-check)")
    sub.add_argument("--alpha", help="comma-separated evaluation-point codes")
    sub.add_argument("--v", help="comma-separated column multipliers (default all ones)")
    sub.add_argument("--b", type=int, help="nonzero scalar for the last column")
    sub.add_argument("--M", help="row-major mixing-matrix codes")
    sub.add_argument("--ell", type=int, help="mixing block width (default 2)")
    sub.add_argument("--t", type=int, help="carried coefficient index (default 0)")
    sub.add_argument("--special", action="store_true", help="evaluate on all of F_q^*")
    sub.add_argument(
        "--order", choices=("asc", "gen"),
        help="evaluation-point order for --special: ascending codes or generator powers",
    )


def cmd_construct(args) -> Report:
    params = _load_instance(args)
    results = {"G": generator_matrix(params).to_text()}
    if args.with_h:
        results["H"] = parity_check_matrix(params).to_text()
    return Report(params.to_dict(), results)


def _instance_code(params: EgrlParams, budget: int) -> LinearCode:
    """The instance's code, once the budget admits its walk (G has rank k: before any rref)."""
    walk_size(params.q, params.length, params.k, budget)
    return egrl_code(params)


def _brute_agreement(report, cls) -> dict[str, bool]:
    """Criterion vs brute force: MDS is singleton defect 0, dual-AMDS dual defect 1."""
    return {"mds": report.is_mds == (cls.singleton_defect == 0),
            "dual_amds": report.dual_amds == (cls.dual_defect == 1)}


def cmd_classify(args) -> Report:
    params = _load_instance(args)
    results: dict = {}
    agreement = None
    try:
        report = check_mds(params)
    except UnsupportedShape:
        report = None
        results["criteria"] = "brute-force only"
    else:
        results["mds"] = report.is_mds
        results["dual_amds"] = report.dual_amds
        if report.alpha_zero_index is not None:
            results["alpha_zero_index"] = report.alpha_zero_index
        elif not report.is_mds:
            m, j, subset = report.witness
            results["witness"] = {"m": m, "j": j, "subset": list(subset)}

    if args.verify or report is None:
        code = _instance_code(params, args.budget)
        cls = code.classify(args.budget)
        results["classification"] = {
            "label": cls.label,
            "parameters": [code.n, code.k, code.n - code.k + 1 - cls.singleton_defect],
            "dual_parameters": [code.n, code.n - code.k, code.k + 1 - cls.dual_defect],
            "singleton_defect": cls.singleton_defect,
            "dual_defect": cls.dual_defect,
        }
        if report is not None:
            agreement = _brute_agreement(report, cls)
    return Report(params.to_dict(), results, agreement)


def cmd_weights(args) -> Report:
    if args.generator is not None:
        if args.instance is not None:
            raise InvalidParams("give --instance or --generator, not both")
        if args.method != "brute":
            raise InvalidParams("a raw generator file supports --method brute only")
        ctx = _build_ctx(args, "--generator needs --q")
        with open(args.generator, "r", encoding="utf-8") as fh:
            _one_source(args, "--generator takes no instance flags but --q and --mod", 2)
            code = LinearCode(FieldMatrix.from_text(ctx, fh.read()))
        instance, params = {"field": str(ctx), "generator": args.generator}, None
    else:
        params, code = _load_instance(args), None
        instance = params.to_dict()

    # Distributions stay WeightDistribution values; _emit_report renders them, the closed
    # ones from Decimal counts.
    results: dict = {"method": args.method}
    if args.method in ("formula", "both"):
        results["distribution"], results["dual_distribution"] = special_nmds_distribution(
            params, Decimal)
    if args.method in ("brute", "both"):
        code = code or _instance_code(params, args.budget)
        results["brute_distribution"] = code.weight_distribution(args.budget)
        results.setdefault("distribution", results["brute_distribution"])
    if args.method != "both":
        return Report(instance, results)
    brute_dual = macwilliams(results["brute_distribution"], code.k, code.ctx)
    agreement = {"distribution": results["distribution"] == results["brute_distribution"],
                 "dual_distribution": results["dual_distribution"] == brute_dual}
    return Report(instance, results, agreement)


def cmd_subsetsum(args) -> Report:
    ctx, domain = _build_ctx(args), args.domain
    instance = {"field": str(ctx)}
    results: dict = {"domain": args.domain, "m": args.m, "b": args.b}
    if args.method != "both":
        count = count_dp if args.method == "dp" else count_li_wan
        results["count"] = count(ctx, domain, args.m, args.b)
        return Report(instance, results)
    closed = count_li_wan(ctx, domain, args.m, args.b)
    results.update(closed_form=closed, dp=count_dp(ctx, domain, args.m, args.b), count=closed)
    if closed != results["dp"]:
        raise InconsistentInput(f"closed form {closed} != dp {results['dp']}")
    return Report(instance, results, {"closed_form_vs_dp": True})


# -- sweep -----------------------------------------------------------------------

# One special mix per class of the column ratios {a_21/a_11, a_22/a_12} in P^1(F_q):
# swapping M's columns swaps two coordinates of every codeword, a monomial
# equivalence that keeps the weights and the MDS class.
_SWEEP_MIX_PATTERNS = [
    ("all-nonzero", [1, 1, 1, 2]),  # {1, 2}
    ("a22-zero", [1, 1, 1, 0]),  # {0, 1}
    ("a12-zero", [1, 0, 1, 1]),  # {1, inf}
    ("diagonal", [1, 0, 0, 1]),  # {0, inf}
]

def _random_instance(ctx: FieldCtx, k: int, rng: random.Random) -> EgrlParams:
    q = ctx.q
    n = rng.randint(k, q)
    alpha = tuple(rng.sample(range(q), n))
    v = tuple(rng.randrange(1, q) for _ in range(n))
    while True:
        vals = [rng.randrange(q) for _ in range(4)]
        mix = FieldMatrix.from_flat(ctx, 2, 2, vals)
        if mix.det() != 0:
            break
    return EgrlParams(
        ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=v, b=rng.randrange(1, q), mix=mix
    )


def _check_instance(params: EgrlParams, budget: int, failures: list, tag: str):
    """Check G H^T = 0 row by row (G in the evaluation form, the definition), rank H, both
    criteria and, with nonzero points, A_min, both distributions and, when the census admits
    its dual walk, the support patterns."""
    code = _instance_code(params, budget)
    primal = code.weight_distribution(budget)
    dual_dist = macwilliams(primal, code.k, code.ctx)
    ctx, g, h = params.ctx, generator_matrix(params), parity_check_matrix(params)
    h_rows = [h.row(j) for j in range(h.rows)]
    if not (all(ctx.sum(map(ctx.mul, g.row(i), r)) == 0 for i in range(g.rows) for r in h_rows)
            and h.rank() == params.length - params.k):
        failures.append(f"{tag}: parity-check identity failed")
    cls = CodeClass.from_distributions(params.k, primal, dual_dist)
    agreement = _brute_agreement(check_mds(params), cls)
    for key, name in (("mds", "MDS"), ("dual_amds", "dual-AMDS")):
        if not agreement[key]:
            failures.append(f"{tag}: {name} criterion disagrees with brute force")
    if 0 in params.alpha:
        return
    k, census = params.k, min_weight_census(params)
    amin = sum(census.values())
    if amin != primal.counts[params.length - k] or amin != dual_dist.counts[k]:
        failures.append(f"{tag}: minimum-weight census disagrees with brute force")
        return
    if special_nmds_distribution(params) != (primal, dual_dist):
        failures.append(f"{tag}: closed-form distribution disagrees with brute force")
    with contextlib.suppress(BudgetExceeded):
        if dual_support_pattern_census(params, budget) != census:
            failures.append(f"{tag}: support-pattern census disagrees")


def cmd_sweep(args) -> Report:
    qs, ks = _int_list(args.q_list), _int_list(args.k_list)
    if not qs or not ks:
        raise InvalidParams("sweep needs nonempty --q-list and --k-list")
    if args.trials < 0:
        raise InvalidParams(f"sweep needs --trials >= 0, got {args.trials}")
    failures: list[str] = []
    records = []
    for q in qs:
        ctx = FieldCtx.from_order(q)
        for k in ks:
            skip = "k+1 > q" if k + 1 > q else "k < 3" if k < 3 else None
            if skip:
                records.append({"q": q, "k": k, "skipped": skip})
                continue
            rng = random.Random(args.seed * 1_000_003 + q * 1_009 + k)
            before = len(failures)
            instances = itertools.chain(
                ((f"trial={trial}", _random_instance(ctx, k, rng))
                 for trial in range(args.trials)),
                ((f"special[{name}]",
                  special_construction(ctx, k, 1, FieldMatrix.from_flat(ctx, 2, 2, vals)))
                 for name, vals in _SWEEP_MIX_PATTERNS))
            for tag, params in instances:
                _check_instance(params, args.budget, failures, f"q={q} k={k} {tag}")
            records.append({"q": q, "k": k, "new_failures": len(failures) - before})
    instance = {"q_list": qs, "k_list": ks, "trials": args.trials, "seed": args.seed}
    results = {"records": records, "failures": failures,
               "summary": f"{len(failures)} disagreements"}
    return Report(instance, results, exit_code=EXIT_MISMATCH if failures else EXIT_OK)


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one stderr line, ``egrl <cmd>: error: ...``, no usage
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _check_value(self, action, value):
        # One invalid-choice line for every flag and the subcommand name on every interpreter:
        # argparse's own quotes the choices on CPython 3.10-3.13.0, not on 3.13.13.
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} "
                                         f"(choose from {', '.join(map(repr, action.choices))})")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egrl",
        description="Construct, classify and weight-enumerate extended "
        "generalized Roth-Lempel codes over GF(q), with brute-force "
        "verification of every closed form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="emit the generator (and parity-check) matrix")
    _add_instance_flags(p_con)
    p_con.add_argument("--with-h", action="store_true", help="also emit the parity-check matrix")
    p_con.add_argument("--out", help="write matrices to a file instead of stdout")
    p_con.set_defaults(func=cmd_construct, text=_construct_text)

    p_cls = sub.add_parser("classify", help="MDS / dual-AMDS verdicts, optionally verified")
    _add_instance_flags(p_cls)
    p_cls.add_argument("--verify", action="store_true", help="brute-force and compare")
    p_cls.set_defaults(func=cmd_classify, text=_classify_text)

    p_wts = sub.add_parser("weights", help="weight distribution by formula and/or enumeration")
    _add_instance_flags(p_wts)
    p_wts.add_argument("--generator", help="raw generator-matrix file (matrix text format)")
    p_wts.add_argument(
        "--method", choices=("formula", "brute", "both"), default="both",
        help="closed form, exhaustive enumeration, or both with an equality check",
    )
    p_wts.set_defaults(func=cmd_weights, text=_weights_text)

    p_ss = sub.add_parser("subsetsum", help="count subsets of F_q or F_q^* with a given sum")
    p_ss.add_argument("--q", type=int, required=True)
    p_ss.add_argument("--mod", help="modulus coefficients c_0,...,c_s")
    p_ss.add_argument("--domain", choices=("star", "full"), required=True)
    p_ss.add_argument("--m", type=int, required=True, help="subset size")
    p_ss.add_argument("--b", type=int, required=True, help="target sum (element code)")
    p_ss.add_argument(
        "--method", choices=("lw", "dp", "both"), default="both",
        help="closed form, dynamic programming, or both with a cross-check",
    )
    p_ss.set_defaults(func=cmd_subsetsum, text=lambda report: [str(report.results["count"])])

    p_sw = sub.add_parser(
        "sweep",
        help="formula-vs-oracle checks of random trials and one special instance per mixing class",
    )
    p_sw.add_argument("--q-list", required=True, help="comma-separated field orders")
    p_sw.add_argument("--k-list", required=True, help="comma-separated dimensions")
    p_sw.add_argument("--trials", type=int, default=20, help="random instances per (q, k)")
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.set_defaults(func=cmd_sweep, text=_sweep_text)

    for p in (p_con, p_cls, p_wts, p_ss, p_sw):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timing", action="store_true", help="attach wall-clock timing")
    for p in (p_cls, p_wts, p_sw):  # the commands that enumerate codewords
        p.add_argument(
            "--budget", type=int, default=DEFAULT_BUDGET,
            help="max codewords walked: q^min(k, n-k), the smaller of the code and its dual",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0  # argparse exits with an int status
    args._argv = argv
    started = time.time()
    with _all_digits():  # counts and sizes of any length render, in reports and failure lines
        try:
            return _emit_report(args, args.func(args), started)
        except UnsupportedShape as exc:
            print(f"unsupported shape: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        except BudgetExceeded as exc:
            print(f"{exc}; raise --budget to allow it", file=sys.stderr)
            return EXIT_USAGE
        except (InvalidParams, FieldError, MatrixError, SubsetSumError, ZeroCode,
                OSError, ValueError, KeyError) as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (InconsistentInput, NegativeCount) as exc:
            print(f"verification failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
