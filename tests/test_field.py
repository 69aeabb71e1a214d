import contextlib
import functools
import io
import itertools
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_weights, poly_add, poly_is_irreducible, poly_mul, poly_neg, power
from egrl import field
from egrl.cli import main
from egrl.field import (
    MAX_ORDER,
    CompositeCharacteristic,
    FieldCtx,
    FieldError,
    NonMonic,
    ReducibleModulus,
    TableTooLarge,
    ZeroInverse,
)
from egrl.linear import LinearCode
from egrl.matrix import FieldMatrix


# -- construction ----------------------------------------------------------------


def test_prime_field_basics(gf3):
    assert (gf3.p, gf3.s, gf3.q) == (3, 1, 3)
    assert gf3.modulus == (0, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeCharacteristic):
        FieldCtx(6)
    with pytest.raises(CompositeCharacteristic):
        FieldCtx.from_order(12)


def test_from_order_factors_prime_powers():
    ctx = FieldCtx.from_order(27)
    assert (ctx.p, ctx.s, ctx.q) == (3, 3, 27)


@pytest.mark.parametrize("q,p,s", [(2, 2, 1), (65521, 65521, 1), (1 << 16, 2, 16),
                                   (3**10, 3, 10), (251**2, 251, 2)])
def test_from_order_splits_exactly(q, p, s):
    ctx = FieldCtx.from_order(q)
    assert (ctx.p, ctx.s, ctx.q) == (p, s, q)


@pytest.mark.parametrize("p,s", [(4, 1), (9, 2), (8, 3), (1, 1), (0, 1), (-3, 2)])
def test_prime_power_characteristic_rejected(p, s):
    with pytest.raises(CompositeCharacteristic, match=rf"^characteristic {p} is not prime$"):
        FieldCtx(p, s)


@pytest.mark.parametrize("s", [0, -1])
def test_extension_degree_below_one_rejected(s):
    with pytest.raises(ValueError, match=rf"^extension degree must be >= 1, got {s}$"):
        FieldCtx(2, s)


@pytest.mark.parametrize("q", [6, 15, 2 * 32749, 65535, 3**9 * 2])
def test_non_prime_power_order_rejected(q):
    with pytest.raises(CompositeCharacteristic, match=rf"^{q} is not a prime power$"):
        FieldCtx.from_order(q)


def test_reducible_modulus_rejected():
    # x^2 + x = x (x + 1) over GF(2)
    with pytest.raises(ReducibleModulus):
        FieldCtx(2, 2, (0, 1, 1))
    # x^2 + 2x + 1 = (x + 1)^2 over GF(3)
    with pytest.raises(ReducibleModulus):
        FieldCtx(3, 2, (1, 2, 1))


def test_non_monic_rejected():
    with pytest.raises(NonMonic):
        FieldCtx(3, 2, (1, 1, 2))
    with pytest.raises(NonMonic):
        FieldCtx(3, 2, (1, 1))


def bruteforce_smallest_primitive_quadratic(p):
    # Oracle: scan all p^2 monic quadratics in low-degree-first lex order,
    # checking irreducibility by root search and primitivity by the order
    # of x under repeated naive polynomial multiplication.
    def polmulmod(a, b, f):
        prod = [0] * 3
        prod[0] = a[0] * b[0] % p
        prod[1] = (a[0] * b[1] + a[1] * b[0]) % p
        prod[2] = a[1] * b[1] % p
        # reduce x^2 = -f1 x - f0
        return ((prod[0] - prod[2] * f[0]) % p, (prod[1] - prod[2] * f[1]) % p)

    for c0, c1 in itertools.product(range(p), repeat=2):
        if any((r * r + c1 * r + c0) % p == 0 for r in range(p)):
            continue  # has a root, reducible
        x = (0, 1)
        acc = x
        order = 1
        while acc != (1, 0):
            acc = polmulmod(acc, x, (c0, c1))
            order += 1
            if order > p * p:
                raise AssertionError("order runaway")
        if order == p * p - 1:
            return (c0, c1, 1)
    raise AssertionError("no primitive quadratic found")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_default_modulus_is_smallest_primitive(p):
    assert FieldCtx(p, 2).modulus == bruteforce_smallest_primitive_quadratic(p)


def _exhaustive_default_modulus(p, s):
    # The first monic f, coefficients compared low-degree-first, modulo which
    # x has multiplicative order exactly p**s - 1.  All p**s candidates, the
    # x | f ones included, step x**i together: a digit shift, then
    # x**s = -(c_0 + ... + c_{s-1} x**(s-1)).
    q = p**s
    low = np.array(list(itertools.product(range(p), repeat=s)))
    power = np.zeros_like(low)
    power[:, 0] = 1
    order = np.zeros(q, dtype=np.int64)
    for i in range(1, q):
        top = power[:, -1:]
        power = (np.concatenate([np.zeros_like(top), power[:, :-1]], axis=1) - top * low) % p
        order[(order == 0) & (power[:, 0] == 1) & ~power[:, 1:].any(axis=1)] = i
    primitive = np.flatnonzero(order == q - 1)
    assert len(primitive), "no primitive polynomial"
    return tuple(int(c) for c in low[primitive[0]]) + (1,)


@pytest.mark.parametrize(
    "p,s",
    [(p, s) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
     for s in range(2, 11) if p**s <= 1024],
)
def test_default_modulus_matches_exhaustive_search(p, s):
    assert FieldCtx(p, s).modulus == _exhaustive_default_modulus(p, s)


def _smallest_primitive(q, mul):
    # The first code c whose powers c, c*c, ... reach 1 only at the (q-1)-th.
    for c in range(1, q):
        x, order = c, 1
        while x != 1:
            x, order = mul(x, c), order + 1
        if order == q - 1:
            return c
    raise AssertionError("no element of order q-1")


@pytest.mark.parametrize("p,s", [(p, s) for p in (2, 3, 5, 7) for s in range(2, 7) if p**s <= 81])
def test_supplied_modulus_accepted_exactly_when_irreducible(p, s):
    # Every monic modulus, judged against trial division.
    for low in itertools.product(range(p), repeat=s):
        f = low + (1,)
        if poly_is_irreducible(p, f):
            ctx = FieldCtx(p, s, f)
            assert ctx.modulus == f
            assert sorted(ctx.generator_powers()) == ctx.units()
            mul = functools.partial(poly_mul, ctx)
            assert ctx.generator_powers()[1] == _smallest_primitive(ctx.q, mul), f
        else:
            with pytest.raises(ReducibleModulus) as info:
                FieldCtx(p, s, f)
            assert str(info.value) == f"modulus {f} factors over GF({p})"


# Moduli modulo which x is not primitive: x**2 + 1 and x**2 + 2 (x of order 4
# and 8), x**4 + ... + 1 and x**6 + x**3 + 1 (cyclotomic: x of order 5 and 9).
_X_NOT_PRIMITIVE = [(3, 2, (1, 0, 1)), (5, 2, (2, 0, 1)), (7, 2, (1, 0, 1)),
                    (2, 4, (1, 1, 1, 1, 1)), (2, 6, (1, 0, 0, 1, 0, 0, 1))]


@pytest.mark.parametrize(
    "p,s,modulus",
    [(p, s, None) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
     for s in range(2, 11) if p**s <= 1024] + _X_NOT_PRIMITIVE,
)
def test_generator_and_tables_match_search_from_one(p, s, modulus):
    # The generator search skips the constants when s >= 2; the oracle
    # starts at code 1 and steps powers by schoolbook multiplication.
    ctx = FieldCtx(p, s, modulus)
    q, mul = ctx.q, functools.partial(poly_mul, ctx)
    g = _smallest_primitive(q, mul)
    if modulus is not None:
        assert g != p  # the premise: x is not primitive
    powers = [1]
    for _ in range(q - 2):
        powers.append(mul(powers[-1], g))
    log = {x: i for i, x in enumerate(powers)}
    assert ctx.generator_powers()[1] == g
    assert ctx._exp[: q - 1] == powers
    assert ctx._log[1:] == [log[x] for x in range(1, q)]
    assert ctx._zech == [log.get(poly_add(ctx, 1, x), -1) for x in powers]


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 64, 121, 243, 256, 1024, 2187, 251**2, 1 << 16])
def test_default_modulus_generator_found_first_try(q, monkeypatch):
    # For a default modulus x (code p) is primitive, so _tabulate's search,
    # which starts at code p when s >= 2, makes exactly one order test.
    modulus = FieldCtx.from_order(q).modulus
    calls = []
    real = field._is_generator

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(field, "_is_generator", counted)
    FieldCtx.from_order(q, modulus)
    assert calls == []  # a memo hit makes no order test
    field._default_modulus.cache_clear()
    with _fresh_memo():
        FieldCtx.from_order(q)  # the default-modulus search, then the table build
    assert len(calls) >= 2
    calls.clear()
    with _fresh_memo():
        ctx = FieldCtx.from_order(q)  # the modulus is cached: only _tabulate tests
    assert len(calls) == 1
    assert ctx.modulus == modulus and ctx.generator_powers()[1] == ctx.p


def test_reducible_modulus_of_order_65536_refused_promptly():
    # The default GF(2^8) modulus times its reciprocal.
    f = (1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1)
    started = time.perf_counter()
    with pytest.raises(ReducibleModulus):
        FieldCtx(2, 16, f)
    assert time.perf_counter() - started < 1


def test_default_gf9_modulus(gf9):
    # x^2 + x + 2; the nearby x^2 + 2x + 1 is reducible and must be skipped.
    assert gf9.modulus == (2, 1, 1)


def test_text_roundtrip(gf9, gf7):
    for ctx in (gf9, gf7):
        assert FieldCtx.from_text(str(ctx)) == ctx
    assert str(gf9) == "p=3 s=2 mod=2,1,1"


# -- arithmetic --------------------------------------------------------------------


def test_gf7_inverses_match_bruteforce(gf7):
    table = {}
    for a in range(1, 7):
        table[a] = next(x for x in range(1, 7) if a * x % 7 == 1)
    assert table[3] == 5
    for a in range(1, 7):
        assert gf7.inv(a) == table[a]


def test_identities_hold_everywhere():
    for q in (2, 3, 4, 5, 8, 9, 27, 49, 64):
        ctx = FieldCtx.from_order(q)
        for a in range(q):
            assert ctx.mul(a, 1) == a
            assert ctx.add(a, 0) == a
            assert ctx.add(a, ctx.neg(a)) == 0
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1


def _check_against_oracle(ctx, pairs):
    pairs = list(pairs)
    # The q-by-q numpy addition table wherever it takes at most 32 MiB; its row b
    # is the translation row of b, compared whole for the first 64 pairs.
    table = ctx.add_table() if ctx.q <= 4096 else None
    for i, (a, b) in enumerate(pairs):
        total = poly_add(ctx, a, b)
        assert ctx.add(a, b) == total, (a, b)
        row = ctx.translate(b)
        assert row[a] == total, (a, b)
        if table is not None:
            assert table[a, b] == total, (a, b)
            if i < 64:
                assert (table[b] == row).all(), b
        assert ctx.mul(a, b) == poly_mul(ctx, a, b), (a, b)
    for a, _ in pairs:
        assert ctx.neg(a) == poly_neg(ctx, a), a
        if a:
            assert poly_mul(ctx, a, ctx.inv(a)) == 1, a


@pytest.mark.parametrize(
    "q,modulus",
    [(2, None), (3, None), (4, None), (8, None), (9, None), (16, None), (25, None),
     (27, None), (49, None), (64, None),
     (9, (1, 0, 1))],  # x^2 + 1: irreducible, but x has order 4, not 8
)
def test_arithmetic_matches_polynomial_oracle(q, modulus):
    ctx = FieldCtx.from_order(q, modulus)
    _check_against_oracle(ctx, itertools.product(range(q), repeat=2))


@pytest.mark.parametrize(
    "q,modulus",
    [(243, None), (256, None), (4093, None), (4096, None),
     (50653, None),  # p = 37, s = 3: the largest digit-group table (37**4 entries)
     (65521, None),  # the largest prime field: translation rows read as windows
     # An explicit primitive modulus skips the ~14 s default-modulus search.
     (65536, (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1))],
)
def test_arithmetic_matches_polynomial_oracle_sampled(q, modulus):
    ctx = FieldCtx.from_order(q, modulus)
    rng = random.Random(q)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    _check_against_oracle(ctx, pairs + [(0, 0), (1, q - 1), (q - 1, q - 1)])


def test_non_primitive_modulus_searches_generator():
    ctx = FieldCtx(3, 2, (1, 0, 1))
    # x (code 3) has order 4; x + 1 (code 4) squares to 2x and has order 8.
    assert ctx.generator_powers()[1] == 4
    assert ctx.generator_powers() == [1, 4, 6, 7, 2, 8, 3, 5]


def test_field_order_ceiling(capsys):
    assert MAX_ORDER == 1 << 16
    with pytest.raises(FieldError):
        FieldCtx.from_order(65537)
    with pytest.raises(FieldError):
        FieldCtx(2, 17)
    argv = ["subsetsum", "--q", "65537", "--domain", "star", "--m", "1", "--b", "1",
            "--method", "lw"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("FieldError: ")


def test_zero_inverse_raises(gf9):
    with pytest.raises(ZeroInverse):
        gf9.inv(0)


def test_gf9_omega_fourth_power(gf9):
    # the generator x satisfies x^4 = 2 under x^2 + x + 2
    omega = 3
    assert power(gf9, omega, 4) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_field_axioms(q):
    ctx = FieldCtx.from_order(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        if q <= 9:
            lhs = ctx.mul(a, ctx.add(b, c))
            rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert lhs == rhs


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
def test_frobenius_is_digit_map(q):
    ctx = FieldCtx.from_order(q)
    p, s = ctx.p, ctx.s
    # x^(i*p) mod f computed by a chain of multiplications by x
    xpows = [1]
    for _ in range(s * p):
        xpows.append(ctx.mul(xpows[-1], p if s > 1 else 1))
    for a in range(q):
        digits = ctx.digits(a)
        mapped = 0
        for i, c in enumerate(digits):
            mapped = ctx.add(mapped, ctx.mul(c, xpows[i * p]))
        assert power(ctx, a, p) == mapped
        assert power(ctx, a, q) == a


def test_subtraction_and_division(gf9):
    for a in range(9):
        for b in range(9):
            assert gf9.add(gf9.sub(a, b), b) == a
            if b:
                assert gf9.mul(gf9.div(a, b), b) == a


# -- enumeration ---------------------------------------------------------------------


def test_enumerate_orders(gf5, gf2, gf9):
    assert gf5.units() == [1, 2, 3, 4]
    assert gf2.units() == [1]
    assert gf2.generator_powers() == [1]
    assert gf9.units() == list(range(1, 9))


def test_generator_powers_gf9_golden(gf9):
    # omega = x: successive powers, with omega^4 landing on the constant 2
    assert gf9.generator_powers() == [1, 3, 7, 8, 2, 6, 5, 4]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 16, 27])
def test_generator_powers_permute_units(q):
    ctx = FieldCtx.from_order(q)
    powers = ctx.generator_powers()
    assert len(powers) == q - 1
    assert sorted(powers) == ctx.units()


@pytest.mark.parametrize("p", [p for p in range(3, 100) if all(p % d for d in range(2, p))])
def test_prime_field_generator_is_smallest_primitive_root(p):
    def order(c):
        return next(i for i in range(1, p) if pow(c, i, p) == 1)

    assert FieldCtx(p).generator_powers()[1] == next(c for c in range(1, p) if order(c) == p - 1)


def test_find_primitive():
    # orders over GF(7): 2 has order 3, 3 has order 6
    assert FieldCtx(7).generator_powers()[1] == 3
    assert FieldCtx(2, 2).generator_powers()[1] == 2
    assert FieldCtx(3).generator_powers()[1] == 2


# -- contexts ------------------------------------------------------------------------


@pytest.mark.parametrize("p,s", [(2, 10**12), (3, 16_000_000), (-3, 10**9 + 1)])
def test_huge_extension_degree_rejected_at_once(p, s):
    # The degree bound comes before p**s: these would take seconds to hours.
    started = time.perf_counter()
    with pytest.raises(FieldError, match=rf"^field order {p}\^{s} exceeds the supported maximum"):
        FieldCtx(p, s)
    assert time.perf_counter() - started < 0.1


def test_prime_field_header_takes_only_the_placeholder_modulus():
    assert FieldCtx.from_text("p=13 s=1 mod=0,1") == FieldCtx(13)
    for mod in ("5,5,5", "1,1", "0,1,0"):
        with pytest.raises(ValueError, match=r"^prime fields take the placeholder modulus \(0, 1\)$"):
            FieldCtx.from_text(f"p=13 s=1 mod={mod}")


@pytest.mark.parametrize("text", ["q=9", "p=3 s=2 mod=2,1,1 extra", "p=3 s=x mod=2,1,1",
                                  "p=3 mod=2,1,1", "p=3 p=3 mod=2,1,1", "p=3 s=2 mod=2,,1"])
def test_malformed_header_refused_in_one_line(text):
    with pytest.raises(FieldError) as info:
        FieldCtx.from_text(text)
    assert str(info.value) == f'field header must read "p=<p> s=<s> mod=<c_0,...,c_s>", got {text!r}'


# -- the construction memo -----------------------------------------------------------


@contextlib.contextmanager
def _fresh_memo(budget=field._MEMO_BYTES):
    """Build fields in an empty memo for the duration of the block."""
    saved = field._MEMO
    field._MEMO = field._FieldMemo(budget)
    try:
        yield field._MEMO
    finally:
        field._MEMO = saved


def test_equal_requests_share_one_table_object(monkeypatch):
    builds = []
    real = FieldCtx._digit_table
    monkeypatch.setattr(FieldCtx, "_digit_table", lambda self: builds.append(self) or real(self))
    with _fresh_memo():
        a, b = FieldCtx(3, 2), FieldCtx.from_order(9)
        c = FieldCtx.from_text(str(a))
        assert a is not b and a == b == c and hash(a) == hash(c)
        assert a._tables is b._tables is c._tables
        assert a._exp is c._exp and a._zech is c._zech
        assert a.translate(5).tolist() == [a.add(t, 5) for t in range(9)]
        add = a.add_table()
        assert (np.stack([b.translate(y) for y in range(9)]) == add).all()
        assert len(builds) == 1  # one digit table behind translate and add_table
        for table in (*a._tables.digit, a._tables.np_exp, a._tables.np_log):
            assert not table.flags.writeable


def test_default_and_supplied_default_modulus_hit_one_entry(monkeypatch):
    builds = []
    real = FieldCtx._tabulate
    monkeypatch.setattr(FieldCtx, "_tabulate", lambda self: builds.append(self) or real(self))
    with _fresh_memo() as memo:
        default = FieldCtx(3, 2)
        supplied = FieldCtx(3, 2, default.modulus)
        assert supplied._tables is default._tables
        assert len(builds) == 1 and list(memo._tables) == [(3, 2, (2, 1, 1))]


@pytest.mark.parametrize("build,error", [
    (lambda: FieldCtx(3, 2, (1, 2, 1)), ReducibleModulus),
    (lambda: FieldCtx(2, 16, (1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1)),
     ReducibleModulus),
    (lambda: FieldCtx(3, 2, (1, 0, 2)), NonMonic),
    (lambda: FieldCtx(6), CompositeCharacteristic),
    (lambda: FieldCtx.from_order(12), CompositeCharacteristic),
], ids=["reducible-9", "reducible-65536", "non-monic", "composite-p", "composite-q"])
def test_failed_builds_are_not_kept(build, error):
    with _fresh_memo() as memo:
        messages = []
        for _ in range(3):
            with pytest.raises(error) as info:
                build()
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert not memo._tables and memo._bytes == 0


def test_memo_evicts_least_recently_used_past_budget():
    sizes = {}
    with _fresh_memo():
        for q in (5, 7, 11):
            sizes[q] = FieldCtx(q)._tables.nbytes
    key = {q: (q, 1, (0, 1)) for q in (5, 7, 11)}
    with _fresh_memo(budget=sizes[7] + sizes[11]) as memo:
        five, seven = FieldCtx(5), FieldCtx(7)
        assert FieldCtx(5)._tables is five._tables  # 5 is now the most recently used
        FieldCtx(11)
        assert list(memo._tables) == [key[5], key[11]]
        assert memo._bytes == sizes[5] + sizes[11] <= memo.budget
        assert FieldCtx(7)._tables is not seven._tables  # rebuilt, equal tables
        assert FieldCtx(7)._exp == seven._exp


@pytest.mark.parametrize("p,s", [(5, 1), (2, 4), (7, 2), (7, 3), (3, 5)])
def test_tables_are_built_whole(p, s, monkeypatch):
    # The digit table is made once, with exp/log/Zech; reading it adds nothing.
    builds = []
    real = FieldCtx._digit_table
    monkeypatch.setattr(FieldCtx, "_digit_table", lambda self: builds.append(self) or real(self))
    with _fresh_memo() as memo:
        ctx = FieldCtx(p, s)
        assert len(builds) == 1
        nbytes, kept = ctx._tables.nbytes, memo._bytes
        assert ctx.translate(1)[0] == 1 and ctx.add_table()[1, 0] == 1
        assert (ctx.translate(np.int64(2)) == ctx.translate(2)).all()
        assert ctx.add_table() is not ctx.add_table()  # built again on each call
        assert FieldCtx(p, s).add_table().shape == (p**s, p**s)
        assert len(builds) == 1 and (ctx._tables.nbytes, memo._bytes) == (nbytes, kept)


@pytest.mark.parametrize("q,nbytes", [(7, 7**2), (257, 2 * 257**2)])
def test_addition_table_cap_is_inclusive(q, nbytes, monkeypatch):
    # The table's true bytes: one a code up to q = 256, two above.
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", nbytes)
    assert FieldCtx(q).add_table().nbytes == nbytes
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", nbytes - 1)
    with pytest.raises(TableTooLarge, match=f"^the addition table needs {nbytes} bytes"):
        FieldCtx(q).add_table()


@pytest.mark.parametrize("q,dtype", [(251, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_code_width_at_the_byte_boundary(q, dtype):
    # Codes take one byte up to q = 256 and two above, in every table of codes;
    # here the log sums that index the antilogs reach 2(q-2) > 255.
    ctx = FieldCtx.from_order(q)
    adds = np.array([[ctx.add(a, b) for b in range(q)] for a in range(q)])
    table, rows = ctx.add_table(), np.stack([ctx.translate(b) for b in range(q)])
    mults = ctx.multiples(range(q))
    tables = ctx._tables
    assert ctx.dtype == dtype and tables.np_log.dtype == np.int32
    assert {t.dtype for t in (tables.np_exp, *tables.digit, table, rows, mults)} == {ctx.dtype}
    assert (table == adds).all() and (rows.T == adds).all()
    assert (mults == np.array([[ctx.mul(f, a) for a in range(q)] for f in range(q)])).all()
    rng = random.Random(q)
    gen = [[rng.randrange(q) for _ in range(6)] for _ in range(2)]
    code = LinearCode(FieldMatrix(ctx, gen))
    assert code.k == 2 and list(code.weight_distribution().counts) == brute_weights(ctx, gen)


def test_entry_larger_than_budget_still_serves_its_context():
    with _fresh_memo(budget=1) as memo:
        ctx = FieldCtx(7)
        assert ctx.mul(3, 5) == 1 and ctx.add_table()[6, 1] == 0
        assert not memo._tables and memo._bytes == 0


def test_threads_building_one_field_share_it():
    workers = 8
    barrier = threading.Barrier(workers)
    built = []

    def build():
        barrier.wait(timeout=10)
        ctx = FieldCtx.from_order(2187)
        ctx.translate(1)
        built.append(ctx)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _fresh_memo() as memo:
            threads = [threading.Thread(target=build) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == workers and all(ctx == built[0] for ctx in built)
    assert len({id(ctx._tables) for ctx in built}) == 1
    assert built[0]._tables.digit is not None
    assert memo._bytes == built[0]._tables.nbytes


def test_repeat_build_of_the_largest_field_is_fast():
    FieldCtx.from_order(MAX_ORDER)
    repeats = []
    for _ in range(5):
        started = time.perf_counter()
        FieldCtx.from_order(MAX_ORDER)
        repeats.append(time.perf_counter() - started)
    assert min(repeats) < 1e-3


_SMALL_ORDERS = [q for q in range(2, 257) if len(field._prime_factors(q)) == 1]


def _subsetsum_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memo_hit_equals_fresh_build(data):
    q = data.draw(st.sampled_from(_SMALL_ORDERS), label="q")
    p = field._prime_factors(q)[0]
    s = next(s for s in itertools.count(1) if p**s == q)
    modulus = None
    if data.draw(st.booleans(), label="supplied"):
        low = data.draw(st.lists(st.integers(0, p - 1), min_size=s, max_size=s), label="low")
        modulus = (0, 1) if s == 1 else tuple(low) + (1,)
    m = data.draw(st.integers(0, min(q - 1, 6)), label="m")
    argv = ["subsetsum", "--q", str(q), "--domain", data.draw(st.sampled_from(["star", "full"])),
            "--m", str(m), "--b", str(data.draw(st.integers(0, q - 1))), "--json"]
    if modulus is not None:
        argv[3:3] = ["--mod", ",".join(map(str, modulus))]

    def build():
        try:
            return FieldCtx(p, s, modulus), None
        except ReducibleModulus as exc:
            return None, str(exc)

    with _fresh_memo():
        fresh_run = _subsetsum_json(argv)  # the command builds its field afresh
    with _fresh_memo():
        fresh, fresh_error = build()
    build()  # the process-wide memo now holds the field (unless it was refused)
    hit, hit_error = build()
    assert hit_error == fresh_error
    assert _subsetsum_json(argv) == fresh_run
    if hit is not None:
        assert hit == fresh and hit._tables is build()[0]._tables is not fresh._tables
        assert (hit._exp, hit._log, hit._zech) == (fresh._exp, fresh._log, fresh._zech)
