"""Command-line front end.

Subcommands: construct, classify, weights, subsetsum, sweep.
Exit codes: 0 ok, 2 bad input, 3 unsupported shape, 4 verification failure.

JSON reports carry a top-level ``"schema": 1``; every other numeric value
is rendered as a decimal string so counts survive any magnitude.  Identical
invocation and seed give byte-identical output (timing is only attached
with --timing).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
import time

from .field import FieldCtx, FieldError
from .matrix import FieldMatrix, MatrixError
from .linear import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    InconsistentInput,
    LinearCode,
    NegativeCount,
    ZeroCode,
    macwilliams,
    nmds_distribution,
)
from .subsetsum import FULL, STAR, SubsetSumError, count_dp, count_li_wan
from .construction import (
    EgrlParams,
    InvalidParams,
    UnsupportedShape,
    check_mds,
    dual_min_weight_count,
    dual_support_pattern_census,
    egrl_code,
    generator_matrix,
    is_special_instance,
    min_weight_census,
    params_from_text,
    parity_check_matrix,
    special_construction,
    special_k_range,
    special_nmds_distribution,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_MISMATCH = 4


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _jsonable(value):
    # Decimal-string policy: counts can exceed any fixed width, so every
    # number in a report body is serialized as a string.
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@contextlib.contextmanager
def _all_digits():
    """Lift the process-wide int-to-str digit limit only while egrl renders counts."""
    if not hasattr(sys, "set_int_max_str_digits"):  # older interpreters have no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_report(args, command: str, instance, results, agreement=None, started=None):
    with _all_digits():
        report = {
            "schema": 1,
            "command": command,
            "argv": list(args._argv),
            "instance": _jsonable(instance),
            "results": _jsonable(results),
        }
        if agreement is not None:
            report["oracle_agreement"] = _jsonable(agreement)
        if getattr(args, "timing", False) and started is not None:
            report["timing"] = {"seconds": f"{time.time() - started:.3f}"}
        print(json.dumps(report, sort_keys=True, indent=2))


def _build_ctx(args) -> FieldCtx:
    if args.q is None:
        raise InvalidParams("an instance needs --q (or --instance FILE)")
    modulus = _int_list(args.mod) if args.mod else None
    return FieldCtx.from_order(args.q, modulus)


def _mix_from_flag(ctx: FieldCtx, text: str, ell: int) -> FieldMatrix:
    vals = _int_list(text)
    if len(vals) != ell * ell:
        raise InvalidParams(f"--M needs {ell * ell} row-major entries, got {len(vals)}")
    return FieldMatrix.from_flat(ctx, ell, ell, vals)


def _load_instance(args) -> EgrlParams:
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            return params_from_text(fh.read())
    ctx = _build_ctx(args)
    if args.special:
        if args.k is None or args.b is None or args.M is None:
            raise InvalidParams("--special needs --k, --b and --M")
        order = {"asc": "ascending", "gen": "generator"}[args.order]
        return special_construction(ctx, args.k, args.b, _mix_from_flag(ctx, args.M, 2), order)
    if args.alpha is None or args.k is None or args.b is None or args.M is None:
        raise InvalidParams("an inline instance needs --alpha, --k, --b and --M")
    alpha = tuple(_int_list(args.alpha))
    n = len(alpha)
    if args.n is not None and args.n != n:
        raise InvalidParams(f"--n {args.n} disagrees with {n} evaluation points")
    v = tuple(_int_list(args.v)) if args.v else (1,) * n
    return EgrlParams(
        ctx=ctx, n=n, k=args.k, ell=args.ell, t=args.t, alpha=alpha, v=v, b=args.b,
        mix=_mix_from_flag(ctx, args.M, args.ell),
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
    sub.add_argument("--ell", type=int, default=2, help="mixing block width (default 2)")
    sub.add_argument("--t", type=int, default=0, help="carried coefficient index (default 0)")
    sub.add_argument("--special", action="store_true", help="evaluate on all of F_q^*")
    sub.add_argument(
        "--order", choices=("asc", "gen"), default="asc",
        help="evaluation-point order for --special: ascending codes or generator powers",
    )


# -- construct -----------------------------------------------------------------


def cmd_construct(args) -> int:
    started = time.time()
    params = _load_instance(args)
    g = generator_matrix(params)
    h = parity_check_matrix(params) if args.with_h else None
    if args.json:
        results = {"G": g.to_text()}
        if h is not None:
            results["H"] = h.to_text()
        _emit_report(args, "construct", params.to_dict(), results, started=started)
    else:
        out = ["G", g.to_text()]
        if h is not None:
            out += ["H", h.to_text()]
        text = "\n".join(out)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return EXIT_OK


# -- classify -------------------------------------------------------------------


def cmd_classify(args) -> int:
    started = time.time()
    params = _load_instance(args)
    lines: list[str] = []
    results: dict = {}
    agreement: dict = {}
    criteria_ran = params.ell == 2 and params.t == 0
    if criteria_ran:
        report = check_mds(params)
        results["mds"] = report.is_mds
        results["dual_amds"] = report.dual_amds
        if report.is_mds:
            lines.append("MDS: true")
        elif report.alpha_zero_index is not None:
            results["alpha_zero_index"] = report.alpha_zero_index
            lines.append(f"MDS: false; alpha[{report.alpha_zero_index}] = 0")
        else:
            m, j, subset = report.witness
            results["witness"] = {"m": m, "j": j, "subset": list(subset)}
            lines.append(
                f"MDS: false; witness I_{m}={{{','.join(map(str, subset))}}} j={j}"
            )
        lines.append(f"dual AMDS: {'true' if report.dual_amds else 'false'}")
    else:
        lines.append(
            f"criteria unsupported for (ell,t)=({params.ell},{params.t}): brute-force only"
        )
        results["criteria"] = "brute-force only"

    exit_code = EXIT_OK
    if args.verify or not criteria_ran:
        code = egrl_code(params)
        cls = code.classify(args.budget)
        d = code.n - code.k + 1 - cls.singleton_defect
        dual_d = code.k + 1 - cls.dual_defect
        results["classification"] = {
            "label": cls.label,
            "parameters": [code.n, code.k, d],
            "dual_parameters": [code.n, code.n - code.k, dual_d],
            "singleton_defect": cls.singleton_defect,
            "dual_defect": cls.dual_defect,
        }
        lines.append(f"parameters: [{code.n},{code.k},{d}] {cls.label}")
        lines.append(f"dual parameters: [{code.n},{code.n - code.k},{dual_d}]")
        if criteria_ran:
            agreement["mds"] = results["mds"] == (cls.singleton_defect == 0)
            agreement["dual_amds"] = results["dual_amds"] == (cls.dual_defect == 1)
            ok = all(agreement.values())
            lines.append(f"brute force agrees: {'true' if ok else 'false'}")
            if not ok:
                exit_code = EXIT_MISMATCH
    if args.json:
        _emit_report(
            args, "classify", params.to_dict(), results,
            agreement or None, started=started,
        )
    else:
        print("\n".join(lines))
    return exit_code


# -- weights --------------------------------------------------------------------


def cmd_weights(args) -> int:
    started = time.time()
    if args.generator:
        if args.method != "brute":
            raise InvalidParams("a raw generator file supports --method brute only")
        ctx = _build_ctx(args)
        with open(args.generator, "r", encoding="utf-8") as fh:
            code = LinearCode(FieldMatrix.from_text(ctx, fh.read()))
        instance = {"field": str(ctx), "generator": args.generator}
        params = None
    else:
        params = _load_instance(args)
        instance = params.to_dict()
        code = None

    results: dict = {"method": args.method}
    if args.method in ("formula", "both"):
        if params is None or not is_special_instance(params):
            raise InvalidParams(
                "--method formula needs a special-construction instance "
                "(alpha = F_q^*, unit multipliers, k in the supported range)"
            )
        primal, dual = special_nmds_distribution(params)
        results["distribution"] = list(primal.counts)
        results["dual_distribution"] = list(dual.counts)
    if args.method in ("brute", "both"):
        if code is None:
            code = egrl_code(params)
        brute = code.weight_distribution(args.budget)
        results["brute_distribution"] = list(brute.counts)
    if args.method == "brute":
        primal = brute
        results["distribution"] = list(brute.counts)
    agreement = None
    if args.method == "both":
        brute_dual = macwilliams(brute, code.k, code.ctx)
        agreement = {"distribution": primal == brute, "dual_distribution": dual == brute_dual}
    ok = agreement is None or all(agreement.values())
    if args.json:
        _emit_report(args, "weights", instance, results, agreement, started)
    else:
        with _all_digits():
            lines = [
                f"enumerator: {primal.poly_str()}",
                f"distribution: {json.dumps(primal.as_strings())}",
            ]
            if args.method == "formula":
                lines.append(f"dual distribution: {json.dumps(dual.as_strings())}")
            elif args.method == "both":
                lines.append(f"agreement: {'true' if ok else 'false'}")
            print("\n".join(lines))
    return EXIT_OK if ok else EXIT_MISMATCH


# -- subsetsum --------------------------------------------------------------------


def cmd_subsetsum(args) -> int:
    started = time.time()
    ctx = _build_ctx(args)
    domain = {"star": STAR, "full": FULL}[args.domain]
    results: dict = {"domain": args.domain, "m": args.m, "b": args.b}
    agreement = None
    if args.method == "dp":
        count = count_dp(ctx, domain, args.m, args.b)
    elif args.method == "lw":
        count = count_li_wan(ctx, domain, args.m, args.b)
    else:
        closed = count_li_wan(ctx, domain, args.m, args.b)
        dp = count_dp(ctx, domain, args.m, args.b)
        agreement = {"closed_form_vs_dp": closed == dp}
        results["closed_form"] = closed
        results["dp"] = dp
        if closed != dp:
            with _all_digits():
                print(f"closed form {closed} != dp {dp}", file=sys.stderr)
            return EXIT_MISMATCH
        count = closed
    results["count"] = count
    if args.json:
        _emit_report(args, "subsetsum", {"field": str(ctx)}, results, agreement, started)
    else:
        with _all_digits():
            print(count)
    return EXIT_OK


# -- sweep -----------------------------------------------------------------------

_SWEEP_MIX_PATTERNS = [
    ("all-nonzero", [1, 1, 1, 2]),
    ("a22-zero", [1, 1, 1, 0]),
    ("a21-zero", [1, 1, 0, 1]),
    ("a12-zero", [1, 0, 1, 1]),
    ("a11-zero", [0, 1, 1, 1]),
    ("diagonal", [1, 0, 0, 1]),
    ("antidiagonal", [0, 1, 1, 0]),
]

_CENSUS_LIMIT = 1 << 20


def _random_instance(ctx: FieldCtx, k: int, rng: random.Random) -> EgrlParams:
    q = ctx.q
    n = rng.randint(k + 1, q)
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


def _sweep_random_checks(params: EgrlParams, budget: int, failures: list, tag: str):
    g = generator_matrix(params)
    if 4 <= params.k <= params.n - 1:
        h = parity_check_matrix(params)
        if not (g.matmul(h.transpose()).is_zero() and h.rank() == params.n + 3 - params.k):
            failures.append(f"{tag}: parity-check identity failed")
    cls = egrl_code(params).classify(budget)
    report = check_mds(params)
    if report.is_mds != (cls.singleton_defect == 0):
        failures.append(f"{tag}: MDS criterion disagrees with brute force")
    if report.dual_amds != (cls.dual_defect == 1):
        failures.append(f"{tag}: dual-AMDS criterion disagrees with brute force")


def _sweep_special_checks(ctx: FieldCtx, k: int, budget: int, failures: list, tag: str):
    q = ctx.q
    cases = []
    for name, vals in _SWEEP_MIX_PATTERNS:
        cases.append((name, 1, FieldMatrix.from_flat(ctx, 2, 2, vals), "ascending"))
    if (q, k) == (9, 5):
        cases.append(("golden", 2, FieldMatrix.from_flat(ctx, 2, 2, [1, 1, 2, 1]), "generator"))
    for name, b, mix, order in cases:
        sp = special_construction(ctx, k, b, mix, order)
        label = f"{tag}[{name}]"
        code = egrl_code(sp)
        primal = code.weight_distribution(budget)
        dual_dist = macwilliams(primal, k, ctx)
        nk = sp.length - k
        amin = dual_min_weight_count(sp)
        if amin != primal.counts[nk] or amin != dual_dist.counts[k]:
            failures.append(f"{label}: minimum-weight census disagrees with brute force")
            continue
        fp, fd = special_nmds_distribution(sp)
        if fp != primal or fd != dual_dist:
            failures.append(f"{label}: closed-form distribution disagrees with brute force")
        sp_seeded = nmds_distribution(sp.length, k, ctx, primal.counts[nk])
        if sp_seeded != (primal, dual_dist):
            failures.append(f"{label}: NMDS expansion from brute A_min disagrees")
        if q ** (sp.length - k) <= min(budget, _CENSUS_LIMIT):
            if dual_support_pattern_census(sp, budget) != min_weight_census(sp):
                failures.append(f"{label}: support-pattern census disagrees")


def cmd_sweep(args) -> int:
    started = time.time()
    qs = _int_list(args.q_list)
    ks = _int_list(args.k_list)
    if not qs or not ks:
        print("sweep needs nonempty --q-list and --k-list", file=sys.stderr)
        return EXIT_USAGE
    failures: list[str] = []
    records = []
    for q in qs:
        ctx = FieldCtx.from_order(q)
        for k in ks:
            if k + 1 > q:
                records.append({"q": q, "k": k, "skipped": "k+1 > q"})
                continue
            if k < 3:
                records.append({"q": q, "k": k, "skipped": "k < 3"})
                continue
            rng = random.Random(args.seed * 1_000_003 + q * 1_009 + k)
            before = len(failures)
            for trial in range(args.trials):
                params = _random_instance(ctx, k, rng)
                _sweep_random_checks(params, args.budget, failures, f"q={q} k={k} trial={trial}")
            if k in special_k_range(ctx):
                _sweep_special_checks(ctx, k, args.budget, failures, f"q={q} k={k} special")
            records.append({"q": q, "k": k, "new_failures": len(failures) - before})
    summary = f"{len(failures)} disagreements"
    if args.json:
        results = {"records": records, "failures": failures, "summary": summary}
        _emit_report(args, "sweep", {"q_list": qs, "k_list": ks, "trials": args.trials,
                                     "seed": args.seed}, results, started=started)
    else:
        for rec in records:
            if "skipped" in rec:
                print(f"q={rec['q']} k={rec['k']}: skipped ({rec['skipped']})")
            else:
                print(f"q={rec['q']} k={rec['k']}: {rec['new_failures']} new failures")
        for f in failures:
            print(f"FAIL {f}")
        print(summary)
    return EXIT_MISMATCH if failures else EXIT_OK


# -- entry point -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_con.set_defaults(func=cmd_construct)

    p_cls = sub.add_parser("classify", help="MDS / dual-AMDS verdicts, optionally verified")
    _add_instance_flags(p_cls)
    p_cls.add_argument("--verify", action="store_true", help="brute-force and compare")
    p_cls.set_defaults(func=cmd_classify)

    p_wts = sub.add_parser("weights", help="weight distribution by formula and/or enumeration")
    _add_instance_flags(p_wts)
    p_wts.add_argument("--generator", help="raw generator-matrix file (matrix text format)")
    p_wts.add_argument(
        "--method", choices=("formula", "brute", "both"), default="both",
        help="closed form, exhaustive enumeration, or both with an equality check",
    )
    p_wts.set_defaults(func=cmd_weights)

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
    p_ss.set_defaults(func=cmd_subsetsum)

    p_sw = sub.add_parser("sweep", help="randomized + exhaustive formula-vs-oracle verification")
    p_sw.add_argument("--q-list", required=True, help="comma-separated field orders")
    p_sw.add_argument("--k-list", required=True, help="comma-separated dimensions")
    p_sw.add_argument("--trials", type=int, default=20, help="random instances per (q, k)")
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.set_defaults(func=cmd_sweep)

    for p in (p_con, p_cls, p_wts, p_ss, p_sw):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--timing", action="store_true", help="attach wall-clock timing")
        p.add_argument(
            "--budget", type=int, default=DEFAULT_BUDGET,
            help="max code size q^k for exhaustive enumeration",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = argv
    try:
        return args.func(args)
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
