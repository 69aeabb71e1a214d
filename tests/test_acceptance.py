"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (integer equality), with the stated runtime
ceilings asserted alongside.  The q = 27 brute-force cross-check over 27^5
codewords walks them in about 0.01 s, under a 2 s ceiling.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

from conftest import OutOfStatedRange, power, random_nonsingular_2x2, vanishes
from egrl.cli import main
from egrl.field import FieldCtx
from egrl.matrix import FieldMatrix
from egrl.linear import LinearCode, distribution_from_excess, macwilliams
from egrl.subsetsum import FULL, STAR, count_dp, count_li_wan
from egrl.construction import (
    EgrlParams,
    _barycentric,
    _vanishing,
    check_mds,
    dual_support_pattern_census,
    egrl_code,
    generator_matrix,
    min_weight_census,
    parity_check_matrix,
    special_construction,
    special_nmds_distribution,
)

GOLDEN_F9_COUNTS = (1, 0, 0, 0, 0, 0, 224, 1520, 4880, 14040, 22240, 16144)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def _f9_instance():
    ctx = FieldCtx(3, 2, (2, 1, 1))
    mix = FieldMatrix(ctx, [[1, 1], [2, 1]])
    return special_construction(ctx, 5, 2, mix, order="generator")


def char3_k5_enumerator_counts(q: int) -> dict[int, int]:
    """Closed enumerator coefficients for q = 3**m, k = 5, all-nonzero mix."""
    polys = {
        q - 3: Fraction((q - 1) ** 2 * (q - 2) * (q - 3), 12),
        q - 2: Fraction((q - 1) ** 2 * (q**3 - 7 * q**2 + 52 * q - 60), 24),
        q - 1: Fraction((q - 1) * (7 * q**3 - 24 * q**2 + 59 * q - 30), 6),
        q: Fraction((q - 1) * (3 * q**4 - 4 * q**3 + 63 * q**2 - 98 * q + 72), 12),
        q + 1: Fraction((q - 1) ** 2 * (4 * q**3 + 17 * q**2 - 17 * q + 30), 12),
        q + 2: Fraction((q - 1) * (9 * q**4 - 16 * q**3 + 15 * q**2 - 20 * q + 12), 24),
    }
    assert all(v.denominator == 1 for v in polys.values())
    return {w: int(v) for w, v in polys.items()}


def test_c01_golden_f9_enumerator():
    started = time.time()
    dist = egrl_code(_f9_instance()).weight_distribution()
    elapsed = time.time() - started
    _report(
        "C1 golden F_9 enumerator (brute force over 9^5)",
        dist.counts == GOLDEN_F9_COUNTS and elapsed < 5.0,
        f"{dist.poly_str()} in {elapsed:.2f}s",
    )


def test_c02_golden_f13_mds():
    started = time.time()
    ctx = FieldCtx(13)
    mix = FieldMatrix(ctx, [[1, 1], [1, 2]])
    all_mds = True
    for b in range(1, 13):
        p = EgrlParams(
            ctx=ctx, n=5, k=5, ell=2, t=0, alpha=(1, 2, 7, 8, 9),
            v=(1,) * 5, b=b, mix=mix,
        )
        all_mds &= check_mds(p).is_mds
    p1 = EgrlParams(
        ctx=ctx, n=5, k=5, ell=2, t=0, alpha=(1, 2, 7, 8, 9), v=(1,) * 5, b=1, mix=mix
    )
    code = egrl_code(p1)
    cls = code.classify()
    d = code.n - code.k + 1 - cls.singleton_defect
    elapsed = time.time() - started
    _report(
        "C2 golden F_13 instance is MDS for every nonzero b",
        all_mds and cls.label == "MDS" and (code.n, code.k, d) == (8, 5, 4)
        and elapsed < 5.0,
        f"[{code.n},{code.k},{d}] in {elapsed:.2f}s",
    )


def test_c03_char3_closed_forms():
    ok = True
    details = []
    for q in (9, 27):
        ctx = FieldCtx.from_order(q)
        p = special_construction(ctx, 5, 1, FieldMatrix(ctx, [[1, 1], [1, 2]]))
        amin = sum(min_weight_census(p).values())
        lead = (q - 1) ** 2 * (q - 2) * (q - 3) // 12
        expected = char3_k5_enumerator_counts(q)
        primal, _ = special_nmds_distribution(p)
        match = amin == lead and all(
            primal.counts[w] == c for w, c in expected.items()
        ) and sum(expected.values()) + 1 == q**5
        ok &= match
        details.append(f"q={q}: A_min={amin}")
    _report("C3 closed-form char-3 enumerators at q in {9, 27}", ok, "; ".join(details))


def test_c03_q27_bruteforce_crosscheck():
    started = time.time()
    ctx = FieldCtx(3, 3)
    p = special_construction(ctx, 5, 1, FieldMatrix(ctx, [[1, 1], [1, 2]]))
    dist = egrl_code(p).weight_distribution()
    primal, dual = special_nmds_distribution(p)
    brute_dual = macwilliams(dist, 5, ctx)
    elapsed = time.time() - started
    _report(
        "C3 q=27 brute force over 27^5 matches the closed forms",
        dist == primal and brute_dual == dual and elapsed < 2.0,
        f"14348907 codewords in {elapsed:.3f}s",
    )


def test_c04_li_wan_exhaustive_agreement():
    started = time.time()
    checked = 0
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        ctx = FieldCtx.from_order(q)
        for domain in (FULL, STAR):
            size = q if domain == FULL else q - 1
            for m in range(size + 1):
                for b in range(q):
                    dp = count_dp(ctx, domain, m, b)
                    ok &= count_li_wan(ctx, domain, m, b) == dp
                    try:
                        ok &= vanishes(ctx, domain, m, b) == (dp == 0)
                    except OutOfStatedRange:
                        ok &= (count_li_wan(ctx, domain, m, b) == 0) == (dp == 0)
                    checked += 1
    elapsed = time.time() - started
    _report(
        "C4 Li-Wan closed forms match DP exhaustively (q <= 13)",
        ok and elapsed < 30.0,
        f"{checked} queries in {elapsed:.1f}s",
    )


def test_c05_parity_check_identity():
    started = time.time()
    rng = random.Random(5_0905)
    failures = 0
    for _ in range(200):
        q = rng.choice([5, 7, 8, 9, 11, 13, 16])
        ctx = FieldCtx.from_order(q)
        n = rng.randint(5, q)
        k = rng.randint(4, n - 1)
        alpha = tuple(rng.sample(range(q), n))
        v = tuple(rng.randrange(1, q) for _ in range(n))
        p = EgrlParams(
            ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=v,
            b=rng.randrange(1, q), mix=random_nonsingular_2x2(ctx, rng),
        )
        h = parity_check_matrix(p)
        good = generator_matrix(p).matmul(h.transpose()).is_zero()
        good &= h.rank() == n + 3 - k
        failures += not good
    elapsed = time.time() - started
    _report(
        "C5 parity-check identity on 200 seeded instances (q <= 16)",
        failures == 0 and elapsed < 30.0,
        f"{failures} failures in {elapsed:.1f}s",
    )


def _criterion_sweep_instances():
    rng = random.Random(6_1815)
    for q in (5, 7, 8, 9, 11, 13):
        ctx = FieldCtx.from_order(q)
        fixed_mixes = [
            [1, 1, 1, 2], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1],
            [0, 1, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0],
        ]
        for k in (4, 5):
            if k + 1 > q:
                continue
            mixes = [FieldMatrix.from_flat(ctx, 2, 2, vals) for vals in fixed_mixes]
            mixes += [random_nonsingular_2x2(ctx, rng) for _ in range(13)]
            for mix in mixes:
                n = rng.randint(k + 1, q)
                alpha = tuple(rng.sample(range(q), n))
                v = tuple(rng.randrange(1, q) for _ in range(n))
                yield EgrlParams(
                    ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=v,
                    b=rng.randrange(1, q), mix=mix,
                )


def test_c06_criterion_vs_oracle():
    started = time.time()
    checked = disagreements = 0
    for p in _criterion_sweep_instances():
        cls, report = egrl_code(p).classify(), check_mds(p)
        if report.is_mds != (cls.singleton_defect == 0):
            disagreements += 1
        if report.dual_amds != (cls.dual_defect == 1):
            disagreements += 1
        checked += 1
    elapsed = time.time() - started
    _report(
        "C6 MDS / dual-AMDS criteria vs brute-force classification",
        disagreements == 0 and elapsed < 300.0,
        f"{checked} instances in {elapsed:.1f}s",
    )


def _special_sweep_instances():
    rng = random.Random(7_2304)
    for q in (5, 7, 8, 9, 11, 13):
        ctx = FieldCtx.from_order(q)
        for k in range(3, min(5, q - 1) + 1):
            mixes = [
                FieldMatrix.from_flat(ctx, 2, 2, vals)
                for vals in ([1, 1, 1, 2], [1, 0, 1, 1], [1, 0, 0, 1])
            ] + [random_nonsingular_2x2(ctx, rng)]
            for mix in mixes:
                yield special_construction(ctx, k, rng.randrange(1, q), mix)


def test_c07_nmds_distribution_identity():
    started = time.time()
    checked = 0
    ok = True
    for p in _special_sweep_instances():
        code = egrl_code(p)
        cls = code.classify()
        if cls.label != "NMDS":
            continue
        brute = code.weight_distribution()
        brute_dual = macwilliams(brute, p.k, p.ctx)
        nk = p.length - p.k
        amin = brute.counts[nk]
        ok &= amin == brute_dual.counts[p.k]
        ok &= distribution_from_excess(p.length, p.k, p.ctx, {p.k: amin}) == (brute, brute_dual)
        checked += 1
    elapsed = time.time() - started
    _report(
        "C7 excess {k: A_min} from brute-forced A_min reproduces both sides",
        ok and checked > 0,
        f"{checked} NMDS instances in {elapsed:.1f}s",
    )


def test_c07_nmds_distribution_at_field_scale():
    # Both sides of the special [1026, 512] code over GF(1024) by the
    # excess solve: O(n) big-integer steps per side.  A route that took
    # the dual side from the MacWilliams transform needs seconds here.
    ctx = FieldCtx.from_order(1024)
    p = special_construction(ctx, 512, 1, FieldMatrix.from_flat(ctx, 2, 2, [1, 1, 1, 2]))
    amin = sum(min_weight_census(p).values())
    started = time.time()
    primal, dual = distribution_from_excess(p.length, p.k, ctx, {p.k: amin})
    elapsed = time.time() - started
    _report(
        "C7 excess solve of the special [1026, 512] code over GF(1024) under 1 s",
        primal.total() == 1024**512 and dual.total() == 1024**514
        and primal.counts[514] == dual.counts[512] == amin > 0 and elapsed < 1.0,
        f"A_min has {len(str(amin))} digits; both sides in {elapsed * 1e3:.1f} ms",
    )


def _special_weights_agree(cases):
    """``weights --special --method both`` for each (q, k): (all agree, one detail per case)."""
    details, ok = [], True
    for q, k in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["weights", "--q", str(q), "--k", str(k), "--b", "1", "--M", "1,1,1,2",
                       "--special", "--method", "both", "--json"])
        agree = False
        if rc == 0:
            doc = json.loads(out.getvalue())
            res = doc["results"]
            agree = (all(doc["oracle_agreement"].values())
                     and res["distribution"] == res["brute_distribution"])
        ok &= agree
        details.append(f"[{q + 2},{k}]/GF({q}) rc={rc}")
    return ok, details


def test_c07_top_of_proven_range_by_brute_force():
    # k = q-1 (q-2 in characteristic 2), the top of the paper's NMDS range:
    # weights --method both walks the dual's q**3 codewords, the smaller side.
    started = time.time()
    ok, details = _special_weights_agree(((25, 24), (27, 26), (32, 30), (49, 48)))
    elapsed = time.time() - started
    _report(
        "C7 closed form equals brute force at the top of the proven range, under 2 s",
        ok and elapsed < 2.0,
        f"{'; '.join(details)} in {elapsed:.2f}s",
    )


def test_c07_high_rate_brute_force_without_row_reduction():
    # k = q-1 at q = 128 and 256: the code is built on the closed-form reduced
    # generator, so the [258, 255] code costs its dual's 256**3 walk and no
    # O(k**2 n) row reduction (over 4 s for the pair when row-reduced).
    started = time.time()
    ok, details = _special_weights_agree(((128, 127), (256, 255)))
    elapsed = time.time() - started
    _report(
        "C7 closed form equals brute force at k = q-1 for q = 128 and 256, under 2 s",
        ok and elapsed < 2.0,
        f"{'; '.join(details)} in {elapsed:.2f}s",
    )


def test_c08_support_pattern_census():
    started = time.time()
    forbidden = [
        (False, False, False), (False, False, True),
        (True, True, False), (True, True, True),
    ]
    ok = True
    cases = 0
    for q, k in ((7, 4), (7, 5), (9, 5)):
        ctx = FieldCtx.from_order(q)
        for vals in ([1, 1, 1, 2], [0, 1, 1, 1], [1, 0, 0, 1]):
            p = special_construction(ctx, k, 1, FieldMatrix.from_flat(ctx, 2, 2, vals))
            census = dual_support_pattern_census(p)
            ok &= all(census[pat] == 0 for pat in forbidden)
            slots = {0: ((True, False, False), (True, False, True)),
                     1: ((False, True, False), (False, True, True))}
            for s, (pat1, pat2) in slots.items():
                a1 = p.mix.at(0, s)
                if a1 == 0:
                    ok &= census[pat1] == 0 and census[pat2] == 0
                    continue
                ratio = ctx.div(p.mix.at(1, s), a1)
                ok &= census[pat1] == (q - 1) * count_li_wan(ctx, STAR, k - 1, ratio)
                ok &= census[pat2] == (q - 1) * count_li_wan(ctx, STAR, k - 2, ratio)
            ok &= sum(census.values()) == sum(min_weight_census(p).values())
            cases += 1
    elapsed = time.time() - started
    _report(
        "C8 dual weight-k support-pattern census (q in {7, 9})",
        ok,
        f"{cases} cases in {elapsed:.1f}s",
    )


def test_c09_u_coefficient_identities():
    started = time.time()
    rng = random.Random(9_1206)
    failures = 0
    for _ in range(100):
        q = rng.choice([4, 5, 7, 8, 9, 11, 13, 16])
        ctx = FieldCtx.from_order(q)
        n = rng.randint(3, min(10, q))
        alpha = tuple(rng.sample(range(q), n))
        u = _barycentric(ctx, _vanishing(ctx, alpha), alpha)
        sum_alpha = 0
        for a in alpha:
            sum_alpha = ctx.add(sum_alpha, a)
        for j in range(n + 1):
            acc = 0
            for ui, a in zip(u, alpha):
                acc = ctx.add(acc, ctx.mul(ui, power(ctx, a, j)))
            expect = 0 if j <= n - 2 else (1 if j == n - 1 else sum_alpha)
            failures += acc != expect
    elapsed = time.time() - started
    _report(
        "C9 u-coefficient power-sum identities on 100 random tuples",
        failures == 0,
        f"{failures} failures in {elapsed:.1f}s",
    )


def test_c10_monomial_scaling_invariance():
    started = time.time()
    rng = random.Random(10_1111)
    failures = 0
    for _ in range(50):
        q = rng.choice([5, 7, 8, 9])
        ctx = FieldCtx.from_order(q)
        k = rng.randint(3, 4)
        n = rng.randint(k + 1, min(q, 8))
        alpha = tuple(rng.sample(range(q), n))
        v = tuple(rng.randrange(1, q) for _ in range(n))
        mix = random_nonsingular_2x2(ctx, rng)
        b = rng.randrange(1, q)
        scaled = EgrlParams(ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=v, b=b, mix=mix)
        plain = EgrlParams(
            ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=(1,) * n, b=b, mix=mix
        )
        same = (
            egrl_code(scaled).weight_distribution()
            == egrl_code(plain).weight_distribution()
        )
        failures += not same
    elapsed = time.time() - started
    _report(
        "C10 weight distribution invariant under column multipliers",
        failures == 0,
        f"{failures} failures in {elapsed:.1f}s",
    )
