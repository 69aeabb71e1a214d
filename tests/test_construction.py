import itertools
import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    inverse_products,
    poly_neg,
    power,
    random_nonsingular_2x2,
    times_transpose,
    vanishes,
)
from egrl.field import LIST_ENTRY_BYTES, MAX_TABLE_BYTES, FieldCtx, TableTooLarge
from egrl.matrix import FieldMatrix
from egrl.linear import (DEFAULT_BUDGET, BudgetExceeded, InconsistentInput, LinearCode,
                         distribution_from_excess, macwilliams)
from egrl import field, subsetsum
from egrl.subsetsum import STAR, count_dp, count_li_wan, find_subset
from egrl.construction import (
    DuplicateAlpha,
    EgrlParams,
    InvalidParams,
    RangeViolation,
    SingularM,
    UnsupportedShape,
    ZeroB,
    ZeroV,
    _barycentric,
    _vanishing,
    check_mds,
    dual_support_pattern_census,
    egrl_code,
    generator_matrix,
    min_weight_census,
    params_from_text,
    parity_check_matrix,
    reduced_generator,
    special_construction,
    special_nmds_distribution,
)


def make_params(ctx, alpha, k, mix_rows, b=1, v=None, ell=2, t=0):
    alpha = tuple(alpha)
    v = tuple(v) if v is not None else (1,) * len(alpha)
    return EgrlParams(
        ctx=ctx, n=len(alpha), k=k, ell=ell, t=t, alpha=alpha, v=v, b=b,
        mix=FieldMatrix(ctx, mix_rows),
    )


EX13_ALPHA = (1, 2, 7, 8, 9)
EX13_MIX = [[1, 1], [1, 2]]


@pytest.fixture
def ex13(gf13):
    return make_params(gf13, EX13_ALPHA, 5, EX13_MIX)


@pytest.fixture
def ex9(gf9):
    return special_construction(
        gf9, 5, 2, FieldMatrix(gf9, [[1, 1], [2, 1]]), order="generator"
    )


# -- generator matrix -----------------------------------------------------------


def test_generator_direct_instantiation(gf5):
    p = make_params(gf5, (1, 2, 3, 4), 4, [[1, 0], [0, 1]])
    g = generator_matrix(p)
    assert g.to_lists() == [
        [1, 1, 1, 1, 0, 0, 1],
        [1, 2, 3, 4, 0, 0, 0],
        [1, 4, 4, 1, 1, 0, 0],
        [1, 3, 2, 4, 0, 1, 0],
    ]


def test_generator_f13_example(ex13):
    g = generator_matrix(ex13)
    assert g.to_lists() == [
        [1, 1, 1, 1, 1, 0, 0, 1],
        [1, 2, 7, 8, 9, 0, 0, 0],
        [1, 4, 10, 12, 3, 0, 0, 0],
        [1, 8, 5, 5, 1, 1, 1, 0],
        [1, 3, 9, 1, 9, 1, 2, 0],
    ]


def test_generator_f9_special_golden(ex9):
    assert generator_matrix(ex9).to_lists() == [
        [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 2],
        [1, 3, 7, 8, 2, 6, 5, 4, 0, 0, 0],
        [1, 7, 2, 5, 1, 7, 2, 5, 0, 0, 0],
        [1, 8, 5, 3, 2, 4, 7, 6, 1, 1, 0],
        [1, 2, 1, 2, 1, 2, 1, 2, 2, 1, 0],
    ]


def test_generator_antidiagonal_preset_structure(gf9):
    # all-units ascending points with the swap mixing matrix and b = 1
    p = special_construction(gf9, 5, 1, FieldMatrix(gf9, [[0, 1], [1, 0]]))
    g = generator_matrix(p)
    assert g.row(0) == (1,) * 8 + (0, 0, 1)
    assert g.row(3)[8:] == (0, 1, 0)
    assert g.row(4)[8:] == (1, 0, 0)
    for i in (1, 2):
        assert g.row(i)[8:] == (0, 0, 0)
    for j, a in enumerate(gf9.units()):
        assert g.at(2, j) == gf9.mul(a, a)


def test_generator_respects_t(gf13):
    p = make_params(gf13, (1, 2, 3, 4, 5, 6), 5, EX13_MIX, t=2)
    g = generator_matrix(p)
    col = [g.at(i, g.cols - 1) for i in range(5)]
    assert col == [0, 0, 1, 0, 0]


def test_generator_top_coefficient_preset(gf13):
    # t = k-3 with the [[0,1],[1,delta]] mixing block: the b column sits just
    # above the block rows, whose tails read (0,1,0) and (1,delta,0)
    delta = 7
    p = make_params(gf13, (1, 2, 3, 4, 5, 6), 5, [[0, 1], [1, delta]], t=2)
    g = generator_matrix(p)
    assert g.row(2)[6:] == (0, 0, 1)
    assert g.row(3)[6:] == (0, 1, 0)
    assert g.row(4)[6:] == (1, delta, 0)


@pytest.mark.parametrize("q,k", [(5, 4), (7, 4), (7, 5), (9, 5)])
def test_swap_preset_matches_full_field_construction(q, k):
    # evaluating on F_q^* with the antidiagonal unit mix gives the same
    # weight distribution as the classic construction that evaluates on all
    # of F_q and appends the same two columns without a scalar column
    ctx = FieldCtx.from_order(q)
    rows = []
    for i in range(k):
        row = [power(ctx, beta, i) for beta in range(q)]
        if i == k - 2:
            row += [0, 1]
        elif i == k - 1:
            row += [1, 0]
        else:
            row += [0, 0]
        rows.append(row)
    classic = LinearCode(FieldMatrix(ctx, rows))
    preset = egrl_code(special_construction(ctx, k, 1, FieldMatrix(ctx, [[0, 1], [1, 0]])))
    assert preset.weight_distribution() == classic.weight_distribution()


def test_invalid_params():
    ctx = FieldCtx(13)
    with pytest.raises(DuplicateAlpha):
        make_params(ctx, (1, 1, 2, 3), 4, EX13_MIX)
    with pytest.raises(ZeroV):
        make_params(ctx, (1, 2, 3, 4), 4, EX13_MIX, v=(1, 0, 1, 1))
    with pytest.raises(ZeroB):
        make_params(ctx, (1, 2, 3, 4), 4, EX13_MIX, b=0)
    with pytest.raises(SingularM):
        make_params(ctx, (1, 2, 3, 4), 4, [[1, 2], [2, 4]])
    with pytest.raises(RangeViolation):
        make_params(ctx, (1, 2, 3, 4), 4, EX13_MIX, t=2)  # t > k-3
    with pytest.raises(RangeViolation):
        make_params(ctx, (1, 2, 3), 4, EX13_MIX)  # k > n
    with pytest.raises(RangeViolation):
        make_params(ctx, (1, 2, 3, 4), 4, [[1]], ell=1, t=2)  # t > k-3


_FLOAT_PROBES = {
    "matrix": lambda ctx, mix: FieldMatrix(ctx, [[1.9, 1], [2, 1]]),
    "alpha": lambda ctx, mix: EgrlParams(ctx=ctx, n=5, k=4, ell=2, t=0, alpha=(1.5, 2, 3, 4, 5),
                                         v=(1,) * 5, b=1, mix=mix),
    "b": lambda ctx, mix: EgrlParams(ctx=ctx, n=5, k=4, ell=2, t=0, alpha=(1, 2, 3, 4, 5),
                                     v=(1,) * 5, b=2.7, mix=mix),
    "count_dp": lambda ctx, mix: count_dp(ctx, [1.2, 2, 3], 2, 3),
    "find_subset": lambda ctx, mix: find_subset(ctx, [1.2, 2, 3], 2, 3),
    "vanishes": lambda ctx, mix: vanishes(ctx, STAR, 2.5, 1),
    "modulus": lambda ctx, mix: FieldCtx(3, 2, (2.5, 1, 1)),
}


@pytest.mark.parametrize("probe", sorted(_FLOAT_PROBES))
def test_float_codes_refused_not_truncated(gf7, probe):
    # int() would read 1.9 as 1 and 2.7 as 2; every input takes integers only.
    with pytest.raises(TypeError):
        _FLOAT_PROBES[probe](gf7, FieldMatrix(gf7, [[1, 1], [1, 2]]))


def test_numpy_and_bool_integers_admitted(gf7):
    mix = FieldMatrix(gf7, np.array([[1, 1], [1, 2]]))
    p = EgrlParams(ctx=gf7, n=np.int64(5), k=np.int32(4), ell=2, t=False,
                   alpha=tuple(np.arange(1, 6)), v=(True,) * 5, b=np.uint16(2), mix=mix)
    assert p == make_params(gf7, range(1, 6), 4, [[1, 1], [1, 2]], b=2)
    assert all(type(x) is int for x in (p.n, p.k, p.t, p.b, *p.alpha, *p.v, *mix.data))
    assert json.loads(json.dumps(p.to_dict())) == p.to_dict()
    assert count_dp(gf7, np.arange(1, 7), 2, np.int64(3)) == 2
    # bool is an int: a target of True is code 1, not a numpy mask.
    assert count_dp(gf7, STAR, np.int8(2), True) == count_li_wan(gf7, STAR, 2, True) == 2
    assert find_subset(gf7, STAR, True, True) == (1,)


def test_mixing_matrix_shape_and_field_checked():
    ctx = FieldCtx(13)
    alpha, v = (1, 2, 3, 4), (1, 1, 1, 1)
    wrong_shape = FieldMatrix(ctx, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    wrong_field = FieldMatrix(FieldCtx(7), EX13_MIX)
    for mix in (wrong_shape, wrong_field):
        with pytest.raises(RangeViolation, match=r"^mixing matrix must be 2x2 over the instance"):
            EgrlParams(ctx=ctx, n=4, k=4, ell=2, t=0, alpha=alpha, v=v, b=1, mix=mix)


def test_instance_serialization_roundtrip(ex13, ex9):
    for p in (ex13, ex9):
        assert params_from_text(json.dumps(p.to_dict())) == p


# -- u coefficients ---------------------------------------------------------------


def u_coefficients(ctx, alpha) -> tuple[int, ...]:
    """u_i = 1 / P'(alpha_i) by the barycentric rule the parity check and the reduced
    generator read, P = prod (x - alpha_j)."""
    return tuple(_barycentric(ctx, _vanishing(ctx, alpha), alpha))


def test_u_golden(gf5):
    # ((0-1)(0-2))^-1, ((1-0)(1-2))^-1, ((2-0)(2-1))^-1 = (3, 4, 3)
    assert u_coefficients(gf5, (0, 1, 2)) == (3, 4, 3)


def test_u_power_sums(gf5):
    u = u_coefficients(gf5, (0, 1, 2))
    alpha = (0, 1, 2)
    total = 0
    for ui in u:
        total = gf5.add(total, ui)
    assert total == 0  # j = 0 <= n-2
    s2 = 0
    for ui, a in zip(u, alpha):
        s2 = gf5.add(s2, gf5.mul(ui, gf5.mul(a, a)))
    assert s2 == 1  # j = n-1


_ORDERS_TO_64 = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43,
                 47, 49, 53, 59, 61, 64)


@st.composite
def point_sets(draw):
    # 3 <= n <= q distinct points of a field of order at most 64, 0 among them or not.
    q = draw(st.sampled_from(_ORDERS_TO_64))
    return q, tuple(draw(st.permutations(range(q)))[: draw(st.integers(3, q))])


@settings(max_examples=60, deadline=None)
@given(point_sets())
@example((4, (0, 1, 2, 3)))  # all of F_4: p | n, so P' loses its leading term
@example((9, (4, 0, 8, 1, 7, 2, 6, 3, 5)))  # all of F_9: the same at p = 3
@example((16, tuple(range(1, 16))))  # all of F_q^*: P = x**(q-1) - 1, so u = -alpha
@example((27, tuple(range(26, 0, -1))))
@example((64, tuple(range(1, 64))))
def test_u_equals_the_direct_pair_product(case):
    q, alpha = case
    ctx = FieldCtx.from_order(q)
    u = u_coefficients(ctx, alpha)
    assert u == inverse_products(ctx, alpha)
    if sorted(alpha) == list(range(1, q)):
        assert u == tuple(poly_neg(ctx, a) for a in alpha)


def test_u_on_all_units_of_gf1024():
    # P = x**1023 - 1 on GF(1024)^*, so u = 1 / P'(a) = a = -a in characteristic 2.
    ctx = FieldCtx.from_order(1024)
    units = ctx.units()
    assert u_coefficients(ctx, units) == tuple(map(ctx.neg, units))


@pytest.mark.parametrize("seed", range(5))
def test_u_power_sum_identities_random(seed):
    rng = random.Random(seed)
    q = rng.choice([7, 8, 9, 11, 13, 16])
    ctx = FieldCtx.from_order(q)
    n = rng.randint(3, min(10, q))
    alpha = tuple(rng.sample(range(q), n))
    u = u_coefficients(ctx, alpha)
    sum_alpha = 0
    for a in alpha:
        sum_alpha = ctx.add(sum_alpha, a)
    for j in range(n + 1):
        acc = 0
        for ui, a in zip(u, alpha):
            acc = ctx.add(acc, ctx.mul(ui, power(ctx, a, j)))
        if j <= n - 2:
            assert acc == 0
        elif j == n - 1:
            assert acc == 1
        else:
            assert acc == sum_alpha


# -- parity-check matrix ------------------------------------------------------------


def test_parity_check_f13_example(gf13):
    p = make_params(gf13, (1, 2, 3, 4, 5, 6), 4, EX13_MIX)
    h = parity_check_matrix(p)
    g = generator_matrix(p)
    assert (h.rows, h.cols) == (5, 9)
    assert not any(map(any, times_transpose(g, h)))
    assert h.rank() == 5


def test_parity_check_r_block_collapse(gf5):
    # alpha sums to zero and MIX = I, so R = [[0,-1],[-1,0]]
    p = make_params(gf5, (0, 1, 2, 3, 4), 4, [[1, 0], [0, 1]])
    h = parity_check_matrix(p)
    n, k = 5, 4
    assert (h.at(1 + (n - k), n), h.at(1 + (n - k), n + 1)) == (0, 4)
    assert (h.at(1 + (n - k) + 1, n), h.at(1 + (n - k) + 1, n + 1)) == (4, 0)


def test_parity_check_special_uses_classical_top_row(ex9):
    h = parity_check_matrix(ex9)
    # sum(v) = q-1 = -1, so the tail entry is 1/b = inv(2) = 2 over GF(9)
    assert h.row(0) == (1,) * 8 + (0, 0, 2)
    assert not any(map(any, times_transpose(generator_matrix(ex9), h)))
    assert h.rank() == ex9.n + 3 - ex9.k


def test_parity_check_identity_randomized():
    rng = random.Random(20240815)
    for _ in range(60):
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
        assert not any(map(any, times_transpose(generator_matrix(p), h)))
        assert h.rank() == n + 3 - k
        assert (h.rows, h.cols) == (n - k + 3, n + 3)


# H recorded for fixed instances: characteristic 2, odd extensions and prime
# fields, alpha holding 0, k = 4 and k = n-1.  The first six take the
# completion row, the special instance the classical row.
PINNED_H = [
    ((8, (1, 2, 3, 4, 5, 6), 4, (3, 1, 7, 2, 5, 4), 6, [[1, 2], [3, 5]]),
     [[1, 7, 7, 3, 1, 1, 6, 2, 2], [2, 7, 5, 6, 2, 7, 0, 0, 0], [2, 3, 2, 2, 7, 5, 0, 0, 0],
      [2, 6, 6, 5, 1, 4, 5, 4, 0], [2, 1, 7, 3, 5, 2, 2, 7, 0]]),
    ((16, (0, 3, 5, 9, 12, 14), 5, (2, 9, 1, 15, 4, 7), 11, [[0, 3], [7, 1]]),
     [[0, 0, 1, 5, 6, 0, 14, 1, 10], [3, 9, 1, 10, 5, 15, 0, 0, 0],
      [0, 2, 5, 12, 14, 12, 14, 0, 0], [0, 6, 8, 8, 7, 7, 4, 8, 0]]),
    ((9, (1, 2, 4, 6, 7, 8), 5, (4, 1, 8, 2, 2, 5), 3, [[2, 1], [1, 7]]),
     [[2, 6, 3, 3, 7, 2, 6, 7, 8], [7, 1, 2, 6, 4, 1, 0, 0, 0], [7, 2, 8, 7, 3, 8, 3, 3, 0],
      [7, 1, 7, 4, 8, 5, 5, 4, 0]]),
    ((25, (0, 6, 11, 13, 19, 23, 24), 4, (7, 3, 21, 1, 16, 9, 12), 14, [[3, 0], [8, 20]]),
     [[0, 0, 23, 5, 19, 3, 10, 17, 24, 13], [4, 22, 13, 22, 14, 17, 15, 0, 0, 0],
      [0, 14, 20, 15, 24, 2, 1, 0, 0, 0], [0, 20, 9, 18, 7, 16, 24, 0, 0, 0],
      [0, 2, 10, 22, 12, 9, 9, 0, 12, 0], [0, 12, 17, 15, 16, 4, 8, 3, 4, 0]]),
    ((11, (0, 1, 3, 5, 8, 10), 4, (2, 7, 4, 9, 1, 3), 5, [[1, 4], [6, 3]]),
     [[0, 5, 1, 0, 4, 8, 3, 5, 2], [5, 7, 4, 10, 4, 6, 0, 0, 0], [0, 7, 1, 6, 10, 5, 0, 0, 0],
      [0, 7, 3, 8, 3, 6, 4, 10, 0], [0, 7, 9, 7, 2, 5, 6, 1, 0]]),
    ((7, (0, 2, 3, 4, 5, 6), 5, (1, 6, 2, 5, 3, 4), 2, [[4, 1], [1, 3]]),
     [[0, 0, 6, 0, 4, 3, 6, 5, 3], [1, 1, 6, 5, 1, 4, 0, 0, 0], [0, 2, 4, 6, 5, 3, 2, 6, 0],
      [0, 4, 5, 3, 4, 4, 6, 3, 0]]),
]


@pytest.mark.parametrize("case, expected", PINNED_H, ids=[f"q{c[0]}" for c, _ in PINNED_H])
def test_parity_check_pinned(case, expected):
    q, alpha, k, v, b, mix = case
    p = make_params(FieldCtx.from_order(q), alpha, k, mix, b=b, v=v)
    assert parity_check_matrix(p).to_lists() == expected


def test_parity_check_pinned_special(gf7):
    p = special_construction(gf7, 4, 3, FieldMatrix(gf7, [[1, 2], [3, 1]]))
    assert parity_check_matrix(p).to_lists() == [
        [1, 1, 1, 1, 1, 1, 0, 0, 5], [6, 5, 4, 3, 2, 1, 0, 0, 0], [6, 3, 5, 5, 3, 6, 0, 0, 0],
        [6, 6, 1, 6, 1, 1, 1, 3, 0], [6, 5, 3, 3, 5, 6, 3, 5, 0],
    ]


_H_FIELDS = {q: FieldCtx.from_order(q)
             for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)}


@st.composite
def h_instances(draw):
    q = draw(st.sampled_from(sorted(_H_FIELDS)))
    ctx = _H_FIELDS[q]
    alpha = draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=q, unique=True))
    n = len(alpha)
    mix = FieldMatrix.from_flat(ctx, 2, 2, draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4)))
    assume(mix.det() != 0)
    return EgrlParams(
        ctx=ctx, n=n, k=draw(st.integers(3, n)), ell=2, t=0, alpha=tuple(alpha),
        v=tuple(draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))),
        b=draw(st.integers(1, q - 1)), mix=mix,
    )


@settings(max_examples=100, deadline=None)
@given(h_instances())
@example(make_params(FieldCtx.from_order(32), (0, 5, 17, 30), 3, [[0, 3], [7, 1]],
                     b=9, v=(2, 31, 1, 6)))  # k = 3, a zero point, characteristic 2
@example(make_params(FieldCtx(29), (3, 0, 11, 28, 7, 19), 6, [[4, 1], [1, 3]],
                     b=2, v=(5, 1, 9, 27, 2, 14)))  # k = n, a zero point
@example(make_params(FieldCtx(7), (1, 2, 3, 4, 5, 6), 3, [[1, 1], [1, 2]]))  # k = 3, classical row
def test_parity_check_property(p):
    # The form holds at every 3 <= k <= n, not only the paper's 4 <= k <= n-1.
    h = parity_check_matrix(p)
    assert not any(map(any, times_transpose(generator_matrix(p), h)))
    assert h.rank() == p.n + 3 - p.k


@st.composite
def small_h_instances(draw):
    # q <= 16 and any nonsingular mix, zero entries included.
    q = draw(st.sampled_from([q for q in sorted(_H_FIELDS) if q <= 16]))
    ctx = _H_FIELDS[q]
    alpha = draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=q, unique=True))
    n = len(alpha)
    return EgrlParams(
        ctx=ctx, n=n, k=draw(st.integers(3, n)), ell=2, t=0, alpha=tuple(alpha),
        v=tuple(draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))),
        b=draw(st.integers(1, q - 1)),
        mix=random_nonsingular_2x2(ctx, random.Random(draw(st.integers(0, 2**32 - 1)))),
    )


@settings(max_examples=100, deadline=None)
@given(small_h_instances())
@example(make_params(FieldCtx(5), (0, 1, 3), 3, [[0, 3], [2, 0]], v=(2, 1, 4)))  # anti-diagonal
@example(make_params(FieldCtx.from_order(16), (0, 5, 9, 12), 4, [[7, 0], [3, 1]]))  # a12 = 0
def test_parity_check_mixing_block_times_mix_transpose(p):
    # R's entries are written in closed form; R M^T, by the dot-product oracle, gives back
    # [[0, -1], [-1, -sum(alpha)]].
    ctx, n = p.ctx, p.n
    h = parity_check_matrix(p)
    r = FieldMatrix(ctx, [h.row(i)[n : n + 2] for i in (h.rows - 2, h.rows - 1)])
    minus_one = ctx.neg(1)
    assert times_transpose(r, p.mix) == [[0, minus_one], [minus_one, ctx.neg(ctx.sum(p.alpha))]]


def test_parity_check_shape_refusals(gf13):
    p = make_params(gf13, (1, 2, 3, 4, 5, 6), 5, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], ell=3)
    with pytest.raises(UnsupportedShape):
        parity_check_matrix(p)
    p2 = make_params(gf13, (1, 2, 3, 4, 5, 6), 5, EX13_MIX, t=1)
    with pytest.raises(UnsupportedShape):
        parity_check_matrix(p2)
    p3 = make_params(gf13, (1, 2, 3, 4, 5), 5, EX13_MIX)  # k = n: accepted, 3 x 8
    h = parity_check_matrix(p3)
    assert (h.rows, h.cols) == (3, 8)
    assert not any(map(any, times_transpose(generator_matrix(p3), h))) and h.rank() == 3


# -- reduced generator ------------------------------------------------------------------


@st.composite
def shaped_instances(draw):
    # Any (ell, t): 1 <= ell <= k, 0 <= t <= k-3, a zero point allowed.
    q = draw(st.sampled_from(sorted(_H_FIELDS)))
    ctx = _H_FIELDS[q]
    alpha = draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=q, unique=True))
    n = len(alpha)
    k = draw(st.integers(3, n))
    ell = draw(st.integers(1, k))
    # The ell x ell mix (up to 32**2 entries) from a drawn seed, redrawn while singular:
    # a redraw loop on hypothesis data trips the large_base_example health check.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while (mix := FieldMatrix.from_flat(
            ctx, ell, ell, [rng.randrange(q) for _ in range(ell * ell)])).det() == 0:
        pass
    return EgrlParams(
        ctx=ctx, n=n, k=k, ell=ell, t=draw(st.integers(0, k - 3)), alpha=tuple(alpha),
        v=tuple(draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))),
        b=draw(st.integers(1, q - 1)), mix=mix,
    )


@settings(max_examples=150, deadline=None)
@given(shaped_instances())
@example(make_params(FieldCtx.from_order(32), (0, 5, 17, 30), 3, [[0, 3], [7, 1]],
                     b=9, v=(2, 31, 1, 6)))  # k = 3, a zero pivot point, characteristic 2
@example(make_params(FieldCtx(29), (3, 11, 28, 7, 19, 0), 6, [[4, 1], [1, 3]],
                     b=2, v=(5, 1, 9, 27, 2, 14), t=3))  # k = n, t = k-3
@example(make_params(FieldCtx(13), (1, 2, 3, 4, 5, 6, 0), 4, [[1, 2, 0, 0], [0, 1, 0, 0],
                                                             [0, 0, 1, 5], [3, 0, 0, 1]],
                     ell=4, t=1))  # ell = k, a zero point past the pivots
@example(make_params(FieldCtx(7), (1, 2, 3, 4, 5, 6), 5, [[3]], ell=1, t=2))  # ell = 1
def test_reduced_generator_equals_row_reduction(p):
    # The closed form against Gauss-Jordan elimination of the evaluation form,
    # which shares none of its code.
    assert reduced_generator(p) == LinearCode(generator_matrix(p)).gen


def test_egrl_code_admits_each_entry_once(ex13, monkeypatch):
    # reduced_generator admits its k x (n+ell+1) entries; the code keeps that matrix.
    real, admitted = FieldCtx._check, []
    monkeypatch.setattr(FieldCtx, "_check", lambda self, c: admitted.append(c) or real(self, c))
    code = egrl_code(ex13)
    assert len(admitted) == code.k * code.n == 5 * 8


def test_egrl_code_refused_above_the_cap_promptly(ex13, monkeypatch):
    # The cap is inclusive at LIST_ENTRY_BYTES an entry of the k x (n+3) reduced generator.
    need = LIST_ENTRY_BYTES * 5 * 8
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", need)
    assert egrl_code(ex13).k == 5
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", need - 1)
    with pytest.raises(TableTooLarge, match=f"^the reduced generator needs {need} bytes, "
                                            f"above the cap of {need - 1}$"):
        egrl_code(ex13)
    monkeypatch.undo()
    # The special [65538, 30000] code's reduced generator would hold about 2e9 entries:
    # refused before the O(k**2) product P over its first k points is built.
    ctx = FieldCtx.from_order(65536)
    p = special_construction(ctx, 30000, 1, FieldMatrix.from_flat(ctx, 2, 2, [1, 1, 1, 2]))
    started = time.perf_counter()
    with pytest.raises(TableTooLarge, match=f"^the reduced generator needs "
                                            f"{LIST_ENTRY_BYTES * 30000 * 65538} bytes, "
                                            f"above the cap of {MAX_TABLE_BYTES}$"):
        egrl_code(p)
    assert time.perf_counter() - started < 1.0


# -- MDS / dual-AMDS criteria ---------------------------------------------------------


def test_check_mds_f13_all_b(gf13, ex13):
    for b in range(1, 13):
        p = make_params(gf13, EX13_ALPHA, 5, EX13_MIX, b=b)
        assert check_mds(p).is_mds
        assert check_mds(p).dual_amds is False


def test_check_mds_witness(gf13):
    p = make_params(gf13, EX13_ALPHA, 5, [[1, 0], [5, 1]])
    rep = check_mds(p)
    assert not rep.is_mds
    assert rep.alpha_zero_index is None
    assert rep.witness == (1, 1, (1, 2, 7, 8))
    # witness subset indeed sums to a_21 / a_11 = 5
    acc = 0
    for x in rep.witness[2]:
        acc = gf13.add(acc, x)
    assert acc == 5
    assert check_mds(p).dual_amds is True


def test_check_mds_tries_size_k_minus_1_first(gf13):
    # Column 1's ratio 3 is a 3-subset sum ({1,7,8}) but no 4-subset sum;
    # column 2's ratio 5 is the 4-subset sum {1,2,7,8}.  Sizes k-1 come first.
    p = make_params(gf13, EX13_ALPHA, 5, [[1, 1], [3, 5]])
    assert check_mds(p).witness == (1, 2, (1, 2, 7, 8))


@pytest.mark.parametrize("alpha,k,mix,witness", [
    ((11, 2, 7, 5, 10, 3, 12), 6, [[0, 9], [10, 0]], (2, 2, (11, 2, 10, 3))),
    ((10, 4, 12, 2, 9), 4, [[10, 3], [5, 1]], (2, 2, (10, 12))),
])
def test_check_mds_witness_sum_names_column(gf13, alpha, k, mix, witness):
    # Size k-2 hits on column 2: alone (a_11 = 0), then with column 1's ratio
    # tried first in the same pass.
    assert check_mds(make_params(gf13, alpha, k, mix)).witness == witness


@pytest.fixture
def fresh_passes(monkeypatch):
    """Sizes of the fresh subset-sum passes (_steps from T_n, lo = 0) made."""
    real, sizes = subsetsum._steps, []

    def counted(ctx, codes, m, tbl, hi, lo=0):
        if hi == len(codes) and lo == 0:
            sizes.append(m)
        return real(ctx, codes, m, tbl, hi, lo)

    monkeypatch.setattr(subsetsum, "_steps", counted)
    return sizes


def test_one_pass_per_size(gf13, ex13, fresh_passes):
    # Both columns have a ratio; each size is one pass however many there are.
    assert check_mds(ex13).is_mds and fresh_passes == [1, 2]  # sizes 4 and 3 of 5, flipped
    fresh_passes.clear()
    min_weight_census(ex13)
    assert fresh_passes == [1, 2]
    fresh_passes.clear()
    assert check_mds(make_params(gf13, EX13_ALPHA, 5, [[1, 0], [5, 1]])).witness[0] == 1
    assert fresh_passes == [1]  # a hit at size k-1: one pass, then recovery
    fresh_passes.clear()
    special = special_construction(gf13, 5, 1, FieldMatrix(gf13, EX13_MIX))
    min_weight_census(special)
    assert fresh_passes == []  # Li-Wan on F_q^*
    assert check_mds(special).witness is not None
    assert fresh_passes == []  # Li-Wan and the search on F_q^*


def test_check_mds_witness_beyond_half():
    # k = 4090 on the 4095 units: Li-Wan finds size 4089 reachable, and past
    # n/2 the witness comes from a DP pass at size 6 on the complement; the
    # direct pass would need 2 GB of tables.
    ctx = FieldCtx.from_order(4096)
    mix = FieldMatrix(ctx, [[1, 1], [1, 2]])
    m, j, subset = check_mds(special_construction(ctx, 4090, 1, mix)).witness
    assert m == 1 and len(set(subset)) == len(subset) == 4089 and 0 not in subset
    assert ctx.sum(subset) == ctx.div(mix.at(1, j - 1), mix.at(0, j - 1))


def test_check_mds_zero_alpha(gf13):
    p = make_params(gf13, (0, 1, 2, 7, 9), 5, EX13_MIX)
    rep = check_mds(p)
    assert not rep.is_mds
    assert rep.alpha_zero_index == 0
    assert rep.witness is None
    assert check_mds(p).dual_amds is False


def test_mds_report_dual_amds(gf13):
    # dual AMDS exactly when every evaluation point is nonzero and not MDS
    mds = check_mds(make_params(gf13, EX13_ALPHA, 5, EX13_MIX))
    witness = check_mds(make_params(gf13, EX13_ALPHA, 5, [[1, 0], [5, 1]]))
    zero = check_mds(make_params(gf13, (0, 1, 2, 7, 9), 5, EX13_MIX))
    assert (mds.dual_amds, witness.dual_amds, zero.dual_amds) == (False, True, False)


def test_check_mds_refuses_other_shapes(gf13):
    p = make_params(gf13, (1, 2, 3, 4, 5, 6), 5, EX13_MIX, t=1)
    with pytest.raises(UnsupportedShape):
        check_mds(p)
    with pytest.raises(UnsupportedShape):
        check_mds(p).dual_amds


def test_nonmds_example_brute_force_parameters(gf13):
    p = make_params(gf13, EX13_ALPHA, 5, [[1, 0], [5, 1]])
    code = egrl_code(p)
    cls = code.classify()
    assert cls.singleton_defect == 1  # [8,5,3]
    dual = code.dual()
    assert dual.weight_distribution().min_weight() == 5  # dual is [8,3,5], defect 1


@pytest.mark.parametrize(
    "q,k", [(5, 3), (5, 4), (7, 4), (8, 5), (9, 4), (9, 5), (9, 6), (11, 5), (13, 4)]
)
def test_criteria_match_bruteforce(q, k):
    ctx = FieldCtx.from_order(q)
    rng = random.Random(q * 100 + k)
    for _ in range(8):
        n = rng.randint(k + 1, q)
        alpha = tuple(rng.sample(range(q), n))
        v = tuple(rng.randrange(1, q) for _ in range(n))
        p = EgrlParams(
            ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=v,
            b=rng.randrange(1, q), mix=random_nonsingular_2x2(ctx, rng),
        )
        cls, report = egrl_code(p).classify(), check_mds(p)
        assert report.is_mds == (cls.singleton_defect == 0)
        assert report.dual_amds == (cls.dual_defect == 1)


def test_criteria_invariant_in_b(gf13):
    # the verdicts never involve b: exhaust every nonzero b on one instance
    rng = random.Random(9)
    alpha = tuple(rng.sample(range(1, 13), 6))
    mix = random_nonsingular_2x2(gf13, rng)
    p1 = EgrlParams(ctx=gf13, n=6, k=5, ell=2, t=0, alpha=alpha, v=(1,) * 6, b=1, mix=mix)
    expect = check_mds(p1)
    for b in range(2, 13):
        p = EgrlParams(ctx=gf13, n=6, k=5, ell=2, t=0, alpha=alpha, v=(1,) * 6, b=b, mix=mix)
        report = check_mds(p)
        assert (report.is_mds, report.dual_amds) == (expect.is_mds, expect.dual_amds)


# -- the special construction ----------------------------------------------------------


def test_special_construction_orders(gf9):
    mix = FieldMatrix(gf9, [[1, 1], [2, 1]])
    asc = special_construction(gf9, 5, 2, mix)
    assert asc.alpha == tuple(range(1, 9))
    gen = special_construction(gf9, 5, 2, mix, order="generator")
    assert gen.alpha == (1, 3, 7, 8, 2, 6, 5, 4)
    with pytest.raises(ValueError):
        special_construction(gf9, 5, 2, mix, order="sideways")


def test_special_construction_range(gf8, gf5):
    # EgrlParams is the only range rule: any 3 <= k <= q-1 builds, outside the
    # paper's NMDS range too (char 2: 5 <= k <= q-2), and the formula is exact.
    for ctx, k in ((gf8, 3), (gf8, 4), (gf8, 7), (gf5, 3), (gf5, 4)):
        p = special_construction(ctx, k, 1, FieldMatrix(ctx, [[1, 1], [1, 2]]))
        assert (p.n, p.k) == (ctx.q - 1, k)
        brute = egrl_code(p).weight_distribution()
        assert special_nmds_distribution(p) == (brute, macwilliams(brute, k, ctx))
    for k, reason in ((2, r"need 0 <= t <= k-3"), (8, r"need k <= n <= q")):
        with pytest.raises(RangeViolation, match=reason):
            special_construction(gf8, k, 1, FieldMatrix(gf8, [[1, 1], [1, 2]]))
    with pytest.raises(RangeViolation, match=r"need k <= n <= q"):
        special_construction(gf5, 5, 1, FieldMatrix(gf5, [[1, 1], [1, 2]]))


def test_top_of_range_library_walk_takes_the_dual():
    # The special [29, 26] code over GF(27) has 27**26 codewords, over the
    # default budget; weight_distribution walks its dual's 27**3 instead.
    ctx = FieldCtx.from_order(27)
    p = special_construction(ctx, 26, 1, FieldMatrix(ctx, [[1, 1], [1, 2]]))
    assert egrl_code(p).weight_distribution() == special_nmds_distribution(p)[0]


def test_closed_form_beyond_special_instances(gf9, ex9):
    # Points short of F_q^* or non-unit multipliers: the census counts subsets
    # of the points, and the closed form still equals brute force.
    not_all_units = make_params(gf9, (1, 2, 3, 4, 5, 6, 7), 5, [[1, 1], [2, 1]])
    scaled = EgrlParams(
        ctx=gf9, n=8, k=5, ell=2, t=0, alpha=tuple(range(1, 9)),
        v=(2,) * 8, b=1, mix=FieldMatrix(gf9, [[1, 1], [2, 1]]),
    )
    for p in (not_all_units, scaled):
        brute = egrl_code(p).weight_distribution()
        assert special_nmds_distribution(p) == (brute, macwilliams(brute, 5, gf9))
    assert sum(min_weight_census(scaled).values()) == sum(min_weight_census(ex9).values()) == 224


def test_closed_form_refusals(gf13):
    with pytest.raises(InvalidParams, match=r"nonzero evaluation points, got alpha\[2\] = 0"):
        min_weight_census(make_params(gf13, (1, 2, 0, 7, 9), 5, EX13_MIX))
    for p in (make_params(gf13, (1, 2, 3, 4, 5, 6), 5, EX13_MIX, t=1),
              make_params(gf13, (1, 2, 3, 4, 5, 6), 5, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], ell=3)):
        with pytest.raises(UnsupportedShape):
            special_nmds_distribution(p)


def branch_minimum_weight_value(q, p, k, case):
    """The four case formulas for the dual minimum-weight count (exact)."""
    tail = Fraction((-1) ** ((k - 1) // p + 1) * comb(q // p - 1, (k - 1) // p)
                    + (-1) ** ((k - 2) // p) * comb(q // p - 1, (k - 2) // p))
    lead = Fraction(comb(q, k - 1))
    if case == "all-nonzero":
        val = Fraction(2 * (q - 1), q) * lead + (-1) ** (k - 1) * Fraction(2 * (q - 1), q) * tail
    elif case == "one-bottom-zero":  # a21 = 0 or a22 = 0, others nonzero
        val = Fraction(2 * (q - 1), q) * lead + (-1) ** (k - 2) * Fraction((q - 1) * (q - 2), q) * tail
    elif case == "one-top-zero":  # a11 = 0 or a12 = 0, others nonzero
        val = Fraction(q - 1, q) * lead + (-1) ** (k - 1) * Fraction(q - 1, q) * tail
    elif case == "diagonal":  # a12 = a21 = 0 or a11 = a22 = 0
        val = Fraction(q - 1, q) * lead + (-1) ** (k - 2) * Fraction((q - 1) ** 2, q) * tail
    else:
        raise ValueError(case)
    assert val.denominator == 1
    return int(val)


MIX_CASES = [
    ("all-nonzero", [1, 1, 1, 2]),
    ("one-bottom-zero", [1, 1, 1, 0]),
    ("one-bottom-zero", [1, 1, 0, 1]),
    ("one-top-zero", [1, 0, 1, 1]),
    ("one-top-zero", [0, 1, 1, 1]),
    ("diagonal", [1, 0, 0, 1]),
    ("diagonal", [0, 1, 1, 0]),
]


@pytest.mark.parametrize("q,k", [(7, 4), (7, 5), (8, 5), (9, 5), (11, 4)])
def test_dual_min_weight_count_matches_case_formulas(q, k):
    ctx = FieldCtx.from_order(q)
    for case, vals in MIX_CASES:
        mix = FieldMatrix.from_flat(ctx, 2, 2, vals)
        p = special_construction(ctx, k, 1, mix)
        assert sum(min_weight_census(p).values()) == branch_minimum_weight_value(q, ctx.p, k, case)


def test_dual_min_weight_count_gf9_goldens(gf9, ex9):
    assert sum(min_weight_census(ex9).values()) == 224
    assert 224 == 8 * 8 * 7 * 6 // 12  # (q-1)^2 (q-2)(q-3) / 12 at q = 9
    ident = special_construction(gf9, 5, 1, FieldMatrix(gf9, [[1, 0], [0, 1]]))
    brute_dual = macwilliams(egrl_code(ident).weight_distribution(), 5, gf9)
    assert sum(min_weight_census(ident).values()) == brute_dual.counts[5]


def test_dual_min_weight_count_gf7_term_form(gf7):
    p = special_construction(gf7, 4, 1, FieldMatrix(gf7, [[1, 1], [1, 2]]))
    terms = sum(
        count_li_wan(gf7, STAR, m, b) for m in (3, 2) for b in (1, 2)
    )
    assert sum(min_weight_census(p).values()) == 6 * terms == 60
    brute_dual = egrl_code(p).dual().weight_distribution()
    assert brute_dual.counts[4] == 60


@pytest.mark.parametrize("q,k", [(5, 4), (7, 4), (8, 5), (9, 5)])
def test_special_nmds_distribution_matches_bruteforce(q, k):
    ctx = FieldCtx.from_order(q)
    rng = random.Random(q + k)
    mix = random_nonsingular_2x2(ctx, rng)
    p = special_construction(ctx, k, rng.randrange(1, q), mix)
    code = egrl_code(p)
    brute = code.weight_distribution()
    brute_dual = macwilliams(brute, k, ctx)
    primal, dual = special_nmds_distribution(p)
    assert primal == brute
    assert dual == brute_dual
    # and these really are NMDS codes
    cls = code.classify()
    assert cls.label == "NMDS"
    # the excess {k: A_min} with the brute-forced minimum count agrees
    nk = p.length - k
    assert distribution_from_excess(p.length, k, ctx, {k: brute.counts[nk]}) == (brute, brute_dual)
    assert brute.counts[nk] == brute_dual.counts[k]


@st.composite
def special_instances(draw):
    ctx = _H_FIELDS[draw(st.sampled_from([5, 7, 8, 9, 11, 13]))]
    k = draw(st.sampled_from([k for k in range(3, ctx.q) if ctx.q**k <= 1 << 17]))
    # A filter, not a redraw loop, which trips the large_base_example health check.
    mix = draw(st.lists(st.integers(0, ctx.q - 1), min_size=4, max_size=4)
               .map(lambda vals: FieldMatrix.from_flat(ctx, 2, 2, vals))
               .filter(lambda m: m.det() != 0))
    return special_construction(ctx, k, draw(st.integers(1, ctx.q - 1)), mix,
                                draw(st.sampled_from(["ascending", "generator"])))


@settings(max_examples=60, deadline=None)
@given(special_instances())
def test_special_nmds_distribution_property(p):
    primal, dual = special_nmds_distribution(p)
    brute = egrl_code(p).weight_distribution()
    assert primal == brute
    assert dual == macwilliams(brute, p.k, p.ctx)


_W_FIELDS = {q: FieldCtx.from_order(q) for q in (4, 5, 7, 8, 9, 11, 13, 16)}


@st.composite
def walkable_instances(draw, lowest_point):
    # Points from lowest_point up: 1 keeps them nonzero, 0 lets 0 be a point.
    ctx = _W_FIELDS[draw(st.sampled_from(sorted(_W_FIELDS)))]
    q = ctx.q
    alpha = draw(st.lists(st.integers(lowest_point, q - 1), min_size=3,
                          max_size=q - lowest_point, unique=True))
    n = len(alpha)
    # Brute force walks the smaller side; k = 3 and k = n always qualify.
    k = draw(st.sampled_from([k for k in range(3, n + 1)
                              if min(q**k, q ** (n + 3 - k)) <= 1 << 16]))
    mix = draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
               .map(lambda vals: FieldMatrix.from_flat(ctx, 2, 2, vals))
               .filter(lambda m: m.det() != 0))
    return EgrlParams(
        ctx=ctx, n=n, k=k, ell=2, t=0, alpha=tuple(alpha),
        v=tuple(draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))),
        b=draw(st.integers(1, q - 1)), mix=mix,
    )


@settings(max_examples=80, deadline=None)
@given(walkable_instances(1))
@example(make_params(FieldCtx(13), EX13_ALPHA, 5, EX13_MIX))  # MDS, k = n
@example(make_params(FieldCtx(7), (1, 2, 4, 5), 3, [[1, 0], [2, 1]], b=3))  # k = 3
def test_closed_form_property(p):
    # Every ell = 2, t = 0 instance with nonzero points, MDS (A_min = 0) or not.
    code, k, dual_k = egrl_code(p), p.k, p.length - p.k
    if k <= dual_k:
        primal = code.weight_distribution()
        dual = macwilliams(primal, k, p.ctx)
    else:
        dual = code.dual().weight_distribution()
        primal = macwilliams(dual, dual_k, p.ctx)
    assert special_nmds_distribution(p) == (primal, dual)
    if p.q**dual_k <= 1 << 16:
        assert dual_support_pattern_census(p) == min_weight_census(p)


@settings(max_examples=40, deadline=None)
@given(walkable_instances(0))
def test_egrl_walk_masks_cover_the_free_columns(p):
    # Each side small enough to walk yields masks over its n+3-k' free columns only,
    # k' its dimension, and whole-codeword weights: k' pivot symbols at most.
    code = egrl_code(p)
    for side in (code, code.dual()):
        if p.q**side.k <= 1 << 16:
            for mask, weights in side.codeword_blocks():
                assert mask.shape == (len(weights), p.length - side.k)
                assert (weights >= mask.sum(axis=1) + 1).all()
                assert (weights <= mask.sum(axis=1) + side.k).all()


_LEMMA_FIELDS = {q: FieldCtx.from_order(q) for q in (4, 5, 7, 8, 9, 11)}


@st.composite
def lemma_instances(draw):
    # Nonzero points, q <= 11 and n <= 8, so that every column subset can be ranked.
    ctx = _LEMMA_FIELDS[draw(st.sampled_from(sorted(_LEMMA_FIELDS)))]
    q = ctx.q
    alpha = draw(st.lists(st.integers(1, q - 1), min_size=3, max_size=min(q - 1, 8),
                          unique=True))
    n = len(alpha)
    mix = draw(st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
               .map(lambda vals: FieldMatrix.from_flat(ctx, 2, 2, vals))
               .filter(lambda m: m.det() != 0))
    return EgrlParams(
        ctx=ctx, n=n, k=draw(st.integers(3, n)), ell=2, t=0, alpha=tuple(alpha),
        v=tuple(draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))),
        b=draw(st.integers(1, q - 1)), mix=mix,
    )


@settings(max_examples=40, deadline=None)
@given(lemma_instances())
@example(special_construction(FieldCtx(7), 4, 1, FieldMatrix(FieldCtx(7), [[1, 1], [1, 2]])))
@example(make_params(FieldCtx(11), (1, 2, 3), 3, [[0, 1], [1, 0]], b=5))  # k = n = 3
def test_column_lemmas(p):
    # The proof in the construction docstring: any k-1 columns of G are
    # independent and any k+1 columns have rank k, so the code is MDS or NMDS.
    g = generator_matrix(p).to_lists()
    for size, rank in ((p.k - 1, p.k - 1), (p.k + 1, p.k)):
        for cols in itertools.combinations(range(p.length), size):
            assert FieldMatrix(p.ctx, [[row[c] for c in cols] for row in g]).rank() == rank, cols


# -- support-pattern census -------------------------------------------------------------


def expected_census(p):
    ctx, q, k = p.ctx, p.q, p.k
    out = {
        (False, False, False): 0, (False, False, True): 0,
        (False, True, False): 0, (False, True, True): 0,
        (True, False, False): 0, (True, False, True): 0,
        (True, True, False): 0, (True, True, True): 0,
    }
    slots = {0: ((True, False, False), (True, False, True)),
             1: ((False, True, False), (False, True, True))}
    for s, (pat_k1, pat_k2) in slots.items():
        a1 = p.mix.at(0, s)
        if a1 == 0:
            continue
        ratio = ctx.div(p.mix.at(1, s), a1)
        out[pat_k1] = (q - 1) * count_li_wan(ctx, STAR, k - 1, ratio)
        out[pat_k2] = (q - 1) * count_li_wan(ctx, STAR, k - 2, ratio)
    return out


def test_census_gf9_golden(ex9):
    census = dual_support_pattern_census(ex9)
    assert census == expected_census(ex9)
    assert sum(census.values()) == 224
    assert census[(True, False, False)] == 64
    assert census[(True, False, True)] == 48


def test_census_zero_top_entry_kills_column(gf7):
    p = special_construction(gf7, 4, 1, FieldMatrix(gf7, [[0, 1], [1, 1]]))
    census = dual_support_pattern_census(p)
    assert census[(True, False, False)] == 0
    assert census[(True, False, True)] == 0
    assert census == expected_census(p)
    assert sum(census.values()) == sum(min_weight_census(p).values())


def test_census_forbidden_patterns_empty(gf7):
    for vals in ([1, 1, 1, 2], [1, 0, 1, 1]):
        p = special_construction(gf7, 5, 2, FieldMatrix.from_flat(gf7, 2, 2, vals))
        census = dual_support_pattern_census(p)
        for pat in ((False, False, False), (False, False, True),
                    (True, True, False), (True, True, True)):
            assert census[pat] == 0


def test_census_refuses_before_any_row_reduction(monkeypatch):
    # The special [q+2, 8] codes over GF(256) and GF(4096): their duals'
    # q**(q-6) codewords are over the default budget, known before the code or
    # its dual is row-reduced (seconds of work at these q).
    instances = [special_construction(ctx, 8, 1, FieldMatrix.from_flat(ctx, 2, 2, [1, 1, 1, 2]))
                 for ctx in map(FieldCtx.from_order, (256, 4096))]

    def never(self):
        raise AssertionError("row reduction before the census budget check")

    monkeypatch.setattr(FieldMatrix, "_rref_pivots", never)
    for p in instances:
        with pytest.raises(BudgetExceeded) as err:
            dual_support_pattern_census(p)
        assert (err.value.required, err.value.budget) == (p.q ** (p.q - 6), DEFAULT_BUDGET)


@settings(max_examples=60, deadline=None)
@given(small_h_instances())
@example(make_params(FieldCtx(5), (0, 1, 3), 3, [[0, 3], [2, 0]], v=(2, 1, 4)))  # k = n, 0 a point
def test_dual_pivots_before_the_tail(p):
    # The census reads the tail from the dual walk's free-column masks: the three tail
    # columns of G are independent, so the dual's reduced form pivots within the first
    # n columns, zero points included.  The code itself pivots on its first k columns.
    code = egrl_code(p)
    assert code.pivots == tuple(range(p.k))
    assert code.dual().pivots[-1] < p.n


def test_census_refuses_a_dual_pivot_on_the_tail(ex9, monkeypatch):
    # A dual whose reduced form pivots on the last six columns would put tail
    # columns out of the masks; the census refuses it before walking.
    ctx = ex9.ctx
    last = LinearCode(FieldMatrix(ctx, [[int(c == r + 5) for c in range(11)] for r in range(6)]))
    monkeypatch.setattr(LinearCode, "dual", lambda self: last)
    monkeypatch.setattr(LinearCode, "codeword_blocks", lambda self: pytest.fail("walked"))
    with pytest.raises(InconsistentInput, match="^the dual pivots on tail column 10$"):
        dual_support_pattern_census(ex9)


def test_census_budget_is_the_dual_size(gf7):
    # [9, 4] over GF(7): the census walks the dual, 7**5 codewords.
    p = special_construction(gf7, 4, 1, FieldMatrix.from_flat(gf7, 2, 2, [1, 1, 1, 2]))
    assert dual_support_pattern_census(p, 7**5) == min_weight_census(p)
    with pytest.raises(BudgetExceeded) as err:
        dual_support_pattern_census(p, 7**5 - 1)
    assert (err.value.required, err.value.budget) == (7**5, 7**5 - 1)


# -- monomial equivalences ------------------------------------------------------------


def _swap_keys(census):
    return {(j1, j0, tail): count for (j0, j1, tail), count in census.items()}


@settings(max_examples=60, deadline=None)
@given(walkable_instances(0))
@example(make_params(FieldCtx(7), (0, 1, 2, 3), 3, [[1, 1], [1, 0]]))  # a zero point
@example(special_construction(FieldCtx(7), 4, 1, FieldMatrix(FieldCtx(7), [[1, 0], [0, 1]])))
# The special [15, 5] code over GF(13) in the a22-zero, a12-zero and diagonal classes.
@example(special_construction(FieldCtx(13), 5, 1, FieldMatrix(FieldCtx(13), [[1, 1], [1, 0]])))
@example(special_construction(FieldCtx(13), 5, 1, FieldMatrix(FieldCtx(13), [[1, 0], [1, 1]])))
@example(special_construction(FieldCtx(13), 5, 1, FieldMatrix(FieldCtx(13), [[1, 0], [0, 1]])))
def test_swapping_mix_columns_swaps_two_coordinates(p):
    # Swapping M's columns swaps coordinates n and n+1 of every codeword: the
    # weights, both verdicts and H (up to those two columns) stay, and the
    # censuses trade their j = 0 and j = 1 keys.
    (a, b), (c, d) = p.mix.to_lists()
    swapped = replace(p, mix=FieldMatrix(p.ctx, [[b, a], [d, c]]))
    assert egrl_code(swapped).weight_distribution() == egrl_code(p).weight_distribution()
    report, swapped_report = check_mds(p), check_mds(swapped)
    assert (report.is_mds, report.dual_amds) == (swapped_report.is_mds, swapped_report.dual_amds)
    n = p.n
    assert parity_check_matrix(swapped).to_lists() == [
        row[:n] + [row[n + 1], row[n]] + row[n + 2:] for row in parity_check_matrix(p).to_lists()]
    if 0 in p.alpha:
        return
    assert min_weight_census(swapped) == _swap_keys(min_weight_census(p))
    if p.q ** (p.length - p.k) <= 1 << 16:
        assert (dual_support_pattern_census(swapped)
                == _swap_keys(dual_support_pattern_census(p)))


@pytest.mark.parametrize("seed", range(6))
def test_weight_distribution_invariant_under_multipliers(seed):
    rng = random.Random(seed)
    q = rng.choice([5, 7, 8, 9])
    ctx = FieldCtx.from_order(q)
    k = rng.randint(3, 4)
    n = rng.randint(k + 1, min(q, 7))
    alpha = tuple(rng.sample(range(q), n))
    v = tuple(rng.randrange(1, q) for _ in range(n))
    mix = random_nonsingular_2x2(ctx, rng)
    b = rng.randrange(1, q)
    scaled = EgrlParams(ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=v, b=b, mix=mix)
    plain = EgrlParams(ctx=ctx, n=n, k=k, ell=2, t=0, alpha=alpha, v=(1,) * n, b=b, mix=mix)
    assert (
        egrl_code(scaled).weight_distribution() == egrl_code(plain).weight_distribution()
    )
