import itertools
import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal, Inexact, getcontext, localcontext
from unittest import mock

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import (brute_excess, brute_weights, identity, krawtchouk_transform, mds_formula,
                      nmds_formula)
from egrl import field, linear
from egrl.construction import (
    dual_support_pattern_census,
    min_weight_census,
    special_construction,
)
from egrl.field import LIST_ENTRY_BYTES, MAX_TABLE_BYTES, FieldCtx, TableTooLarge
from egrl.matrix import FieldMatrix
from egrl.linear import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeClass,
    InconsistentInput,
    LinearCode,
    NegativeCount,
    WeightDistribution,
    ZeroCode,
    distribution_from_excess,
    macwilliams,
    nmds_distribution,
    walk_size,
)


def repetition(ctx, n):
    return LinearCode(FieldMatrix(ctx, [[1] * n]))


def test_repetition_code_basics(gf2, gf3):
    c = repetition(gf2, 3)
    assert (c.n, c.k) == (3, 1)
    assert repetition(gf3, 3).weight_distribution().counts == (1, 0, 0, 2)
    assert repetition(gf3, 300).weight_distribution().counts == (1,) + (0,) * 299 + (2,)


def test_rank_normalization(gf5):
    g = FieldMatrix(gf5, [[1, 2, 3], [2, 4, 2], [1, 2, 3]])
    c = LinearCode(g)
    assert c.k == 2
    with pytest.raises(ZeroCode):
        LinearCode(FieldMatrix(gf5, [[0, 0, 0], [0, 0, 0]]))


def test_a_reduced_generator_is_kept(gf5):
    # Full rank and already reduced: the code holds the matrix itself.  A raw
    # generator, or one with a zero row to drop, gets the reduced matrix.
    reduced = FieldMatrix(gf5, [[1, 0, 2], [0, 1, 3]])
    assert LinearCode(reduced).gen is reduced
    for raw in ([[2, 0, 4], [0, 1, 3]], [[1, 0, 2], [0, 1, 3], [0, 0, 0]]):
        gen = LinearCode(FieldMatrix(gf5, raw)).gen
        assert gen == reduced and gen.rows == 2


def test_equal_codes_hash_equal(gf5):
    # Codes compare by their reduced generator, so generators of one row space
    # give equal codes with equal hashes, and a set holds one of them.
    codes = [LinearCode(FieldMatrix(gf5, raw))
             for raw in ([[1, 0, 2], [0, 1, 3]], [[2, 0, 4], [1, 1, 0]], [[0, 1, 3], [1, 1, 0]])]
    assert codes[0] == codes[1] == codes[2]
    assert len({hash(c) for c in codes}) == 1 and len(set(codes)) == 1
    assert LinearCode(FieldMatrix(gf5, [[1, 0, 2]])) not in set(codes)


def test_dual_of_full_code_is_refused(gf5):
    full = LinearCode(identity(gf5, 3))
    assert (full.n, full.k) == (3, 3)
    with pytest.raises(ZeroCode, match=r"^dual of the full \[3,3\] code is trivial$"):
        full.dual()
    # The full code walks itself, but its dual, the zero code, has no minimum weight.
    with pytest.raises(ZeroCode):
        full.classify()


def test_dual_refused_above_the_cap_promptly(gf5, monkeypatch):
    # The cap is inclusive at LIST_ENTRY_BYTES an entry of the (n-k) x n basis.
    code = LinearCode(FieldMatrix(gf5, [[1, 0, 2, 4, 1, 3], [0, 1, 3, 2, 2, 4]]))
    need = LIST_ENTRY_BYTES * 4 * 6
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", need)
    assert code.dual().k == 4
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", need - 1)
    with pytest.raises(TableTooLarge, match=f"^the dual generator needs {need} bytes, "
                                            f"above the cap of {need - 1}$"):
        code.dual()
    monkeypatch.undo()
    # A [65536, 1] code's dual basis would hold about 4.3e9 entries.
    ctx = FieldCtx.from_order(65536)
    code = LinearCode(FieldMatrix(ctx, [[1] * 65536]))
    started = time.perf_counter()
    with pytest.raises(TableTooLarge, match=f"^the dual generator needs "
                                            f"{LIST_ENTRY_BYTES * 65535 * 65536} bytes, "
                                            f"above the cap of {MAX_TABLE_BYTES}$"):
        code.dual()
    assert time.perf_counter() - started < 1.0


def test_dual_of_repetition_is_parity(gf2):
    d = repetition(gf2, 3).dual()
    assert (d.n, d.k) == (3, 2)
    assert d.weight_distribution().counts == (1, 0, 3, 0)


def test_double_dual_restores_row_space(gf5):
    rng = random.Random(5)
    for _ in range(10):
        g = FieldMatrix(gf5, [[rng.randrange(5) for _ in range(6)] for _ in range(3)])
        try:
            c = LinearCode(g)
        except ZeroCode:
            continue
        if c.k == 6:
            continue
        assert c.dual().dual() == c


def test_weight_distribution_matches_python_oracle():
    rng = random.Random(77)
    for q in (2, 3, 4, 5, 9):
        ctx = FieldCtx.from_order(q)
        for _ in range(6):
            k = rng.randint(1, 3)
            n = rng.randint(k, 7)
            g = FieldMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            try:
                code = LinearCode(g)
            except ZeroCode:
                continue
            expected = tuple(brute_weights(ctx, code.gen.to_lists()))
            assert code.weight_distribution().counts == expected


_FIELDS = {q: FieldCtx.from_order(q) for q in (2, 3, 4, 5, 7, 8, 9)}


@st.composite
def small_generators(draw):
    q = draw(st.sampled_from(sorted(_FIELDS)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 7))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, draw(st.lists(entries, min_size=k, max_size=k))


def walk_supports(ctx, rows):
    """Supports of the messages the walk visits, in its order: lead row j (symbol 1
    there, 0 before), then the symbols of rows j+1..k-1 as a base-q number, the
    earliest row most significant (head symbols, then the tail's)."""
    out = []
    for lead in range(len(rows)):
        for rest in itertools.product(range(ctx.q), repeat=len(rows) - 1 - lead):
            cw = list(rows[lead])
            for f, row in zip(rest, rows[lead + 1:]):
                cw = [ctx.add(c, ctx.mul(f, g)) for c, g in zip(cw, row)]
            out.append([c != 0 for c in cw])
    return np.array(out, dtype=bool)


def assert_walk_matches_oracles(code, block_limit):
    """The blocks, concatenated, hold the supports at the free columns in walk order row
    by row and the whole supports' weights; counted per scalar class they give the
    plain enumeration's histogram."""
    with mock.patch.object(linear, "_BLOCK_LIMIT", block_limit):
        blocks = list(code.codeword_blocks())
    masks = np.concatenate([mask for mask, _ in blocks])
    weights = np.concatenate([w for _, w in blocks])
    rows = code.gen.to_lists()
    supports = walk_supports(code.ctx, rows)
    free = [c for c in range(code.n) if c not in code.pivots]
    assert masks.shape == supports[:, free].shape and (masks == supports[:, free]).all()
    assert (weights == supports.sum(axis=1)).all()
    if code.ctx.q ** code.k <= 1 << 12:
        classes = np.bincount(weights, minlength=code.n + 1)
        expected = tuple(brute_weights(code.ctx, rows))
        assert (1, *((code.ctx.q - 1) * int(c) for c in classes[1:])) == expected


@settings(max_examples=150, deadline=None)
@given(small_generators(), st.sampled_from([1, 8, linear._BLOCK_LIMIT]))
@example((2, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1]]), linear._BLOCK_LIMIT)  # q = 2
@example((7, [[3, 0, 5, 1, 6]]), linear._BLOCK_LIMIT)  # k = 1: a single coset
@example((5, [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]]), 8)  # k > n-k: walked directly
def test_projective_enumeration_matches_python_oracle(case, block_limit):
    # Small block limits move rows from the shared tail block into the
    # per-block offsets, so every split of head and tail gets exercised.  The
    # blocks are read directly: weight_distribution would walk the dual of
    # a k > n-k code, and dual_support_pattern_census walks such duals.
    q, rows = case
    try:
        code = LinearCode(FieldMatrix(_FIELDS[q], rows))
    except ZeroCode:
        return
    assert_walk_matches_oracles(code, block_limit)


@pytest.mark.parametrize("block_limit", [1, 8, linear._BLOCK_LIMIT])
@pytest.mark.parametrize("q,rows,pivots", [
    # A zero first column: the pivots start at column 1.
    (5, [[0, 1, 0, 2, 3], [0, 0, 1, 4, 1]], (1, 2)),
    # k = 1 with its pivot past the first column.
    (7, [[0, 0, 1, 6, 2]], (2,)),
    # The full code k = n: no free column, so masks of width 0 and weights from the
    # message symbols alone.
    (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 1, 2)),
    (4, [[1, 2], [0, 3]], (0, 1)),
    # Pivots between free columns, not the leading ones.
    (5, [[1, 2, 0, 3, 0, 1], [0, 0, 1, 4, 0, 2], [0, 0, 0, 0, 1, 1]], (0, 2, 4)),
    (3, [[0, 1, 1, 0, 0, 2, 1], [0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 0, 1, 2, 2]], (1, 3, 4)),
])
def test_walk_reads_the_free_columns_wherever_the_pivots_are(q, rows, pivots, block_limit):
    code = LinearCode(FieldMatrix(_FIELDS[q], rows))
    assert code.pivots == pivots
    assert_walk_matches_oracles(code, block_limit)


@pytest.mark.parametrize("block_limit", [1, 8, linear._BLOCK_LIMIT])
@pytest.mark.parametrize("q,k", [(27, 3), (32, 3), (16, 4), (27, 4), (7, 6)])
def test_wide_tail_spans_match_the_walk_order_oracle(q, k, block_limit):
    # Under the full block limit the tail span's halves meet column by column, in
    # 729 cells a column at (27, 3), 1024 at (32, 3), 4096 at (16, 4), 19,683 at
    # (27, 4) and 16,807 at (7, 6).  An odd row count leaves the extra row in the upper
    # half: at (27, 4) its 729 cells are built column by column too, at (16, 4) by a
    # 256-cell gather, and at (7, 6) the five tail rows split into a 343-column upper
    # half, gathered from 49 by 7 cells, and a 49-column lower half, from 7 by 7.
    rng = random.Random(q * 10 + k)
    ctx = FieldCtx.from_order(q)
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(q) for _ in range(5)]
            for i in range(k)]
    assert_walk_matches_oracles(LinearCode(FieldMatrix(ctx, rows)), block_limit)


def test_long_binary_code_matches_the_python_oracle():
    # n >= 256 sums weights past uint8.  The 10 tail rows' span meets in 32 x 32
    # = 1024 cells a column, built column by column; each 5-row half is gathered
    # from 8 by 4 cells, its 3-row upper part from 4 by 2.
    rng = random.Random(300)
    ctx = _FIELDS[2]
    rows = [[int(i == j) for j in range(11)] + [rng.randrange(2) for _ in range(289)]
            for i in range(11)]
    code = LinearCode(FieldMatrix(ctx, rows))
    assert (code.n, code.k) == (300, 11)
    assert code.weight_distribution().counts == tuple(brute_weights(ctx, rows))


@pytest.mark.parametrize("q,n,k,paths", [
    # Blocks of 65,536 classes over 7 to 9 weights: count_nonzero and bincount.
    (16, 18, 6, {"count_nonzero", "bincount"}),
    # One block of 65,536 classes over 21 weights, three small ones: bincount.
    (16, 120, 5, {"bincount"}),
    # 259 blocks of at most 257 classes: bincount, without a min or a max.
    (257, 300, 3, {"bincount"}),
])
def test_weight_tally_matches_one_bincount_of_the_walk(q, n, k, paths):
    rng = random.Random(0)
    ctx = FieldCtx.from_order(q)
    code = LinearCode(FieldMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(k)]))
    weights = [w for _, w in code.codeword_blocks()]
    assert {"count_nonzero" if len(w) >= linear._COUNT_CLASSES
            and int(w.max()) - int(w.min()) < linear._COUNT_WEIGHTS else "bincount"
            for w in weights} == paths
    classes = np.bincount(np.concatenate(weights), minlength=n + 1)
    assert code.weight_distribution().counts == (1, *((q - 1) * int(c) for c in classes[1:]))


@st.composite
def full_rank_generators(draw):
    # [I_k | A] with its columns permuted, so full rank by construction; `shape`
    # puts k below, at or above n-k, or at n.
    q = draw(st.sampled_from(sorted(_FIELDS)))
    small, extra = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    k, n = {"k<n-k": (small, 2 * small + extra), "k=n-k": (small, 2 * small),
            "k>n-k": (small + extra, 2 * small + extra),
            "k=n": (small, small)}[draw(st.sampled_from(["k<n-k", "k=n-k", "k>n-k", "k=n"]))]
    cols = draw(st.permutations(range(n)))
    a = [[draw(st.integers(0, q - 1)) for _ in range(n - k)] for _ in range(k)]
    rows = [[0] * n for _ in range(k)]
    for i in range(k):
        rows[i][cols[i]] = 1
        for j, c in enumerate(cols[k:]):
            rows[i][c] = a[i][j]
    return q, rows


@settings(max_examples=100, deadline=None)
@given(full_rank_generators())
@example((3, [[1, 0, 2, 1, 1]]))  # k < n-k
@example((5, [[1, 0, 1, 2], [0, 1, 3, 4]]))  # k = n-k: the code walks itself
@example((5, [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]]))  # k > n-k: the dual is walked
@example((2, [[1, 0], [0, 1]]))  # k = n: the dual is the zero code
def test_public_walk_matches_brute_oracle_on_either_side(case):
    # A budget of exactly the smaller side's size admits the walk: the public
    # method picks that side itself, and the class follows from both oracles.
    q, rows = case
    ctx = _FIELDS[q]
    code = LinearCode(FieldMatrix(ctx, rows))
    n, k = code.n, code.k
    assert k == len(rows)
    budget = q ** (min(k, n - k) if k < n else n)
    primal = WeightDistribution(n, tuple(brute_weights(ctx, rows)))
    assert code.weight_distribution(budget) == primal
    if k == n:
        with pytest.raises(ZeroCode):
            code.classify(budget)
        return
    dual = WeightDistribution(n, tuple(brute_weights(ctx, code.dual().gen.to_lists())))
    assert code.classify(budget) == CodeClass.from_distributions(k, primal, dual)


def test_budget_exceeded_reports_requirement(gf9):
    code = LinearCode(identity(gf9, 5))
    with pytest.raises(BudgetExceeded) as err:
        code.weight_distribution(budget=100)
    assert err.value.required == 9**5


@pytest.mark.parametrize("n,k,walked", [(6, 2, 2), (6, 3, 3), (6, 4, 2), (6, 5, 1), (6, 6, 6)])
def test_walk_size_takes_the_smaller_side(n, k, walked):
    assert walk_size(7, n, k, budget=7**walked) == 7**walked
    with pytest.raises(BudgetExceeded) as err:
        walk_size(7, n, k, budget=7**walked - 1)
    assert err.value.required == 7**walked


def test_over_budget_dual_side_is_refused_before_the_dual_is_built(gf9):
    # [6, 4] over GF(9): the dual's 81 codewords are the walk, above a budget of 80.
    code = LinearCode(FieldMatrix(gf9, [[1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 2],
                                        [0, 0, 1, 0, 1, 3], [0, 0, 0, 1, 1, 4]]))
    for method in (code.weight_distribution, code.classify):
        with mock.patch.object(LinearCode, "dual", side_effect=AssertionError("dual built")):
            with pytest.raises(BudgetExceeded) as err:
                method(budget=80)
        assert err.value.required == 81


def test_budget_refusal_past_the_digit_limit():
    # 65536**1000 has 4,817 digits; the refusal formats it only when shown.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(BudgetExceeded) as err:
            walk_size(65536, 2000, 1000, 1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.required == 65536**1000
    assert err.value.budget == 1


def test_budget_refusal_text_under_the_caller_digit_limit():
    # A library caller keeps the default limit: a size past it is named by its
    # bit length (256**2000 = 2**16000), a size within it in decimal.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = str(BudgetExceeded(256**2000, 1 << 26))
        small = str(BudgetExceeded(3**20, 10**9000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == ("enumeration of a code of at least 2^16000 codewords exceeds "
                    "the budget of 67108864")
    assert small == ("enumeration of a code of 3486784401 codewords exceeds "
                     "the budget of at least 2^29897")


def test_count_refusals_under_the_caller_digit_limit(gf9):
    # Under the default limit, the counts in these refusals are named by their bit
    # length, as in BudgetExceeded, where str() would raise ValueError instead.
    gf4096 = FieldCtx.from_order(4096)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(NegativeCount, match=r"^excess infeasible: weight 4091 count is "
                                                r"at most -2\^16612$"):
            distribution_from_excess(4098, 8, gf4096, {8: 10**5000})
        with pytest.raises(InconsistentInput, match=r"^distribution sums to 6, "
                                                    r"expected q\^k = at least 2\^24000$"):
            macwilliams(WeightDistribution(3, (1, 0, 0, 5)), 2000, gf4096)
        with pytest.raises(NegativeCount, match=r"^excess must be nonnegative, "
                                                r"got at most -2\^16609$"):
            distribution_from_excess(11, 5, gf9, {5: -10**5000})
    finally:
        sys.set_int_max_str_digits(limit)


def test_budget_admits_a_code_of_exactly_its_size(gf3):
    code = LinearCode(FieldMatrix(gf3, [[1, 0, 1, 1], [0, 1, 1, 2]]))
    assert code.weight_distribution(budget=9).counts == (1, 0, 0, 8, 0)
    with pytest.raises(BudgetExceeded) as err:
        code.weight_distribution(budget=8)
    assert err.value.required == 9


def test_length_256_weights_do_not_wrap(gf2):
    # Weight sums of a length-256 code no longer fit uint8.
    counts = repetition(gf2, 256).weight_distribution().counts
    assert (counts[0], counts[256], sum(counts)) == (1, 1, 2)


def test_walk_refuses_a_message_giving_the_zero_codeword(gf5, monkeypatch):
    # A [6, 2] generator made rank-deficient after construction: row 1 is twice
    # row 0, so the message (1, 2) gives the zero codeword.  Its pivot columns
    # no longer hold the identity, which the walk checks before building anything.
    # The public walk takes it as the code itself, then as the dual of a [6, 4] code.
    bad = LinearCode(FieldMatrix(gf5, [[1, 0, 1, 1, 1, 0], [0, 1, 1, 2, 0, 0]]))
    bad.gen = FieldMatrix(gf5, [[1, 2, 3, 4, 1, 0], [2, 4, 1, 3, 2, 0]])
    high_rate = LinearCode(FieldMatrix(gf5, [[1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 2],
                                             [0, 0, 1, 0, 1, 3], [0, 0, 0, 1, 1, 4]]))
    with pytest.raises(InconsistentInput, match="^generator row 0 is not reduced at the "
                                                "pivot columns$"):
        bad.weight_distribution()
    monkeypatch.setattr(LinearCode, "dual", lambda self: bad)
    with pytest.raises(InconsistentInput, match="^generator row 0 is not reduced at the "
                                                "pivot columns$"):
        high_rate.weight_distribution()


@pytest.mark.parametrize("rows", [
    # Full rank, but row 0 holds 3 at row 1's pivot column: the pivot symbols would
    # not be the message, and the weights would be miscounted.
    [[1, 3, 1, 1, 1, 0], [0, 1, 1, 2, 0, 0]],
    # Full rank, but row 1's pivot holds 2, not 1.
    [[1, 0, 1, 1, 1, 0], [0, 2, 1, 2, 0, 0]],
])
def test_walk_refuses_a_full_rank_generator_that_is_not_reduced(gf5, rows):
    code = LinearCode(FieldMatrix(gf5, [[1, 0, 1, 1, 1, 0], [0, 1, 1, 2, 0, 0]]))
    assert code.pivots == (0, 1)
    code.gen = FieldMatrix(gf5, rows)
    assert code.gen.rank() == 2
    row = 0 if rows[0][1] else 1
    with pytest.raises(InconsistentInput, match=f"^generator row {row} is not reduced at the "
                                                "pivot columns$"):
        next(code.codeword_blocks())


def test_walk_checks_its_scalar_class_count(gf3, monkeypatch):
    # With blocks of 3 rows, row 1 of a [3, 3] code is a per-block offset; a
    # walk that skips one offset (3 of its 13 scalar classes) must be refused.
    real = itertools.product
    monkeypatch.setattr(linear, "_BLOCK_LIMIT", 3)
    monkeypatch.setattr(linear.itertools, "product",
                        lambda *a, repeat: list(real(*a, repeat=repeat))[:-1] if repeat
                        else real(*a, repeat=repeat))
    code = LinearCode(identity(gf3, 3))
    with pytest.raises(InconsistentInput, match="^enumeration walked 10 scalar classes$"):
        code.weight_distribution()


@pytest.mark.parametrize("q,n,weights", [
    # An [n, 2, n-1] MDS code: n(q-1) codewords of weight n-1, the rest weight n.
    (4096, 1024, {1023: 1024 * 4095, 1024: 4095 * 3073}),
    # Each column repeated n/q = 32 times: f*row_0 + g*row_1, g != 0, vanishes on the
    # 32 columns i % q = -f/g, so q(q-1) codewords have weight n-32 and q-1 weight n.
    (256, 8192, {8160: 256 * 255, 8192: 255}),
])
def test_walk_counts_its_tables_against_the_cap(q, n, weights, monkeypatch):
    # A table-bound walk (two rows, q*n large): the multiples table of row 1,
    # one int32 index sum, the tail span and two block masks, all on the n-2 free
    # columns, and the tail's q pivot weights (2 bytes each, as n > 255) are counted
    # before any is built (row 0 only leads, so it needs no table), at c bytes a
    # code (2 at q = 4096, 1 at q = 256), and the cap is inclusive.  Its second
    # block is one column wide, so the peak allocation stays within the count of
    # one mask up to 1 MiB of O(n) vectors and numpy's gather buffers.
    ctx = FieldCtx.from_order(q)
    c = ctx.dtype.itemsize
    code = LinearCode(FieldMatrix(ctx, [[1] * n, [i % q for i in range(n)]]))
    assert code.pivots == (0, 1)
    free = n - 2
    need = (c + 4) * q * free + ((c + 2) * free + 2) * q
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", need)
    tracemalloc.start()
    try:
        counts = code.weight_distribution().counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {w: a for w, a in enumerate(counts) if a and w} == weights
    assert peak <= need - free * q + (1 << 20)
    monkeypatch.setattr(field, "MAX_TABLE_BYTES", need - 1)
    monkeypatch.setattr(FieldCtx, "multiples", lambda self, vec: pytest.fail("table built"))
    with pytest.raises(TableTooLarge, match=f"^the enumeration tables need {need} bytes"):
        code.weight_distribution()


def test_excess_solver_refuses_counts_above_the_cap(monkeypatch):
    # Both sides hold at most (n+1)*n*ceil(log2 q) bits; the cap is inclusive, and
    # the refusal comes before any big-integer work.
    ctx, n, k = FieldCtx.from_order(16), 10, 4
    need = (n + 1) * n * 4 // 8
    monkeypatch.setattr(linear, "MAX_COUNT_BYTES", need)
    mds = distribution_from_excess(n, k, ctx, {})
    assert mds == (WeightDistribution(n, mds_formula(n, k, 16)),
                   WeightDistribution(n, mds_formula(n, n - k, 16)))
    monkeypatch.setattr(linear, "MAX_COUNT_BYTES", need - 1)
    monkeypatch.setattr(linear, "_from_excess", lambda *args: pytest.fail("solved"))
    with pytest.raises(TableTooLarge, match=f"^the weight counts need {need} bytes, "
                                            f"above the cap of {need - 1}$"):
        distribution_from_excess(n, k, ctx, {})


def test_walk_counts_both_block_masks_it_holds(monkeypatch):
    # A walk of many full-width blocks: while the next mask is compared, the
    # consumer's loop variable still holds the last, so the peak reaches two masks.
    # A random [64, 6] code over GF(16) walks 17 blocks of 65,536 classes (and a
    # few narrow ones); its peak stays within the walk's count up to 1 MiB.
    rng = random.Random(28)
    ctx = FieldCtx.from_order(16)
    code = LinearCode(FieldMatrix(ctx, [[rng.randrange(16) for _ in range(64)] for _ in range(6)]))
    assert code.k == 6
    assert sum(len(w) == 1 << 16 for _, w in code.codeword_blocks()) >= 17
    counted = []
    real = linear.require_table_bytes
    monkeypatch.setattr(linear, "require_table_bytes",
                        lambda nbytes, tables: counted.append(nbytes) or real(nbytes, tables))
    tracemalloc.start()
    try:
        code.weight_distribution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 1 and peak <= counted[0] + (1 << 20)
    # Byte codes on the 58 free columns: five multiples tables, the int32 index sum,
    # the span and two masks, and one byte of pivot weight a span column.
    assert code.pivots == tuple(range(6))
    assert counted == [(5 + 4) * 16 * 58 + ((1 + 2) * 58 + 1) * (1 << 16)]


def test_macwilliams_known_pair(gf2):
    primal = WeightDistribution(3, (1, 0, 0, 1))
    assert macwilliams(primal, 1, gf2).counts == (1, 0, 3, 0)


def test_macwilliams_involution_and_dual_agreement():
    rng = random.Random(11)
    for q in (2, 3, 4, 5):
        ctx = FieldCtx.from_order(q)
        for _ in range(8):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 6)
            g = FieldMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            try:
                code = LinearCode(g)
            except ZeroCode:
                continue
            dist = code.weight_distribution()
            dual_dist = code.dual().weight_distribution()
            assert macwilliams(dist, code.k, ctx) == dual_dist
            assert macwilliams(dual_dist, code.n - code.k, ctx) == dist


@st.composite
def balanced_generators(draw):
    # Both the code and its dual have dimension at most 3, so brute force
    # stays cheap on either side.
    q = draw(st.sampled_from(sorted(_FIELDS)))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, k + 3))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, draw(st.lists(entries, min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(balanced_generators())
@example((3, [[1, 2, 0, 1]]))  # k = 1
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # k = n: the dual is the zero code
@example((5, [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3]]))  # k > n-k: the walk takes the dual
def test_macwilliams_matches_krawtchouk_oracle(case):
    q, rows = case
    ctx = _FIELDS[q]
    try:
        code = LinearCode(FieldMatrix(ctx, rows))
    except ZeroCode:
        return
    n, k = code.n, code.k
    primal = WeightDistribution(n, tuple(brute_weights(ctx, code.gen.to_lists())))
    if k == n:
        dual = WeightDistribution(n, (1,) + (0,) * n)
    else:
        dual = WeightDistribution(n, tuple(brute_weights(ctx, code.dual().gen.to_lists())))
    assert macwilliams(primal, k, ctx).counts == krawtchouk_transform(primal.counts, k, q)
    assert macwilliams(dual, n - k, ctx).counts == krawtchouk_transform(dual.counts, n - k, q)
    assert macwilliams(primal, k, ctx) == dual
    # The one public walk, on whichever side walk_size picks (the full code walks itself).
    assert code.weight_distribution(walk_size(q, n, k, DEFAULT_BUDGET)) == primal
    assert macwilliams(macwilliams(dual, n - k, ctx), k, ctx) == dual


def test_macwilliams_rejects_bad_sum(gf2):
    with pytest.raises(InconsistentInput):
        macwilliams(WeightDistribution(3, (1, 0, 0, 5)), 1, gf2)


@pytest.mark.parametrize("counts", [(1, 0, 3), (1, 3, 0)])
def test_macwilliams_rejects_a_non_count(gf2, counts):
    # Sums to q^k = 4, but the transform does not divide out at weight 1.
    with pytest.raises(InconsistentInput, match="non-count at weight 1"):
        macwilliams(WeightDistribution(2, counts), 2, gf2)


def test_classify_even_weight_code(gf2):
    d = repetition(gf2, 3).dual()
    cls = d.classify()
    assert cls.label == "MDS"
    assert (cls.singleton_defect, cls.dual_defect) == (0, 0)


def test_min_distance_uses_cheaper_side(gf3):
    # [4,3] parity-check code: min distance 2, enumerated via its [4,1] dual
    code = repetition(gf3, 4).dual()
    assert code.n - code.k + 1 - code.classify().singleton_defect == 2


def test_min_distance_matches_column_independence():
    # d is the least count of linearly dependent parity-check columns:
    # every (d-1)-column submatrix of H has full rank and some d-column
    # submatrix does not.
    import itertools

    rng = random.Random(24)
    for q in (2, 3, 5):
        ctx = FieldCtx.from_order(q)
        for _ in range(5):
            k = rng.randint(1, 3)
            n = rng.randint(k + 2, 8)
            g = FieldMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            try:
                code = LinearCode(g)
            except ZeroCode:
                continue
            d = code.n - code.k + 1 - code.classify().singleton_defect
            h = code.dual().gen
            cols = list(zip(*h.to_lists()))
            for size, expect_full in ((d - 1, True), (d, False)):
                if size == 0:
                    continue
                full = all(
                    FieldMatrix(ctx, [cols[j] for j in combo]).rank() == size
                    for combo in itertools.combinations(range(n), size)
                )
                assert full == expect_full, (q, n, code.k, d, size)


def test_poly_str(gf3):
    dist = repetition(gf3, 3).weight_distribution()
    assert dist.poly_str() == "1+2x^3"
    assert WeightDistribution(3, (1, 1, 0, 0)).poly_str() == "1+x"


def test_distribution_validation():
    with pytest.raises(InconsistentInput):
        WeightDistribution(2, (0, 1, 1))
    with pytest.raises(InconsistentInput):
        WeightDistribution(2, (1, 1))
    with pytest.raises(InconsistentInput, match="^negative codeword count$"):
        WeightDistribution(2, (1, -1, 2))


# -- weight distributions from the excess ------------------------------------------


def test_nmds_excess_golden_gf9(gf9):
    primal, dual = distribution_from_excess(11, 5, gf9, {5: 224})
    assert primal.counts == (1, 0, 0, 0, 0, 0, 224, 1520, 4880, 14040, 22240, 16144)
    assert dual.counts[5] == 224
    assert primal.total() == 9**5
    assert dual.total() == 9**6
    assert nmds_distribution(11, 5, gf9, 224) == (primal, dual)


def test_nmds_distribution_needs_a_proper_code(gf9):
    for n, k in ((5, 5), (5, 0), (5, 6)):
        with pytest.raises(ValueError, match=rf"^need 1 <= k < n, got k={k}, n={n}$"):
            nmds_distribution(n, k, gf9, 0)


def test_mds_excess_first_step_formula(gf9):
    # with no excess the first nonzero slot is C(n, k-1) * (q-1)
    n, k = 11, 5
    primal, _ = distribution_from_excess(n, k, gf9, {})
    assert primal.counts[n - k + 1] == math.comb(n, k - 1) * (9 - 1)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 13, 64, 243])
def test_zero_amin_is_mds(q):
    # A_min = 0 turns the NMDS excess into the MDS distribution on both sides,
    # wherever an [n, k] MDS code can exist (n <= q+1 unless k or n-k is 1).
    ctx = FieldCtx.from_order(q)
    for n in (3, 4, 7, 12):
        for k in [k for k in range(1, n) if n <= q + 1 or k in (1, n - 1)]:
            expected = (mds_formula(n, k, q), mds_formula(n, n - k, q))
            for excess in ({k: 0}, {}):
                primal, dual = distribution_from_excess(n, k, ctx, excess)
                assert (primal.counts, dual.counts) == expected


@pytest.mark.parametrize("q", [64, 128, 243, 256])
def test_nmds_excess_matches_literal_formula(q):
    # Seeded with the Li-Wan minimum-weight count of a special instance.
    ctx = FieldCtx.from_order(q)
    rng = random.Random(q)
    for k in (5, 8):
        while True:
            mix = FieldMatrix.from_flat(ctx, 2, 2, [rng.randrange(q) for _ in range(4)])
            if mix.det():
                break
        sp = special_construction(ctx, k, rng.randrange(1, q), mix)
        a_min = sum(min_weight_census(sp).values())
        primal, dual = distribution_from_excess(sp.length, k, ctx, {k: a_min})
        assert (primal.counts, dual.counts) == nmds_formula(sp.length, k, q, a_min)


def test_infeasible_amin(gf9):
    with pytest.raises(NegativeCount, match="^excess infeasible: weight 7 count is "):
        distribution_from_excess(11, 5, gf9, {5: 10**6})
    with pytest.raises(NegativeCount, match="^excess must be nonnegative, got -1$"):
        distribution_from_excess(11, 5, gf9, {5: -1})


def test_excess_refusals(gf9):
    # E_0 = 0 for every code, so {0: 1} passes every count and reaches the sum check;
    # E_4 = 1 is no multiple of q**(5-4), so the dual excess q**-1 is no integer.
    with pytest.raises(InconsistentInput, match=r"^solved distribution does not sum to q\^k$"):
        distribution_from_excess(11, 5, gf9, {0: 1})
    with pytest.raises(InconsistentInput, match="^dual excess at 7 is not an integer$"):
        distribution_from_excess(11, 5, gf9, {4: 1})
    with pytest.raises(InconsistentInput, match="^A_0 must be 1$"):
        distribution_from_excess(5, 5, gf9, {5: 1})  # E_n = 0: only 0 is zero everywhere


def test_excess_bad_dims(gf9):
    for n, k, excess in ((5, 6, {}), (5, -1, {}), (5, 2, {6: 1}), (5, 2, {-1: 1}), (0, 0, {})):
        with pytest.raises(ValueError, match=r"^an \[-?\d+,-?\d+\] code needs 0 <= k <= n"):
            distribution_from_excess(n, k, gf9, excess)


def test_excess_of_the_full_and_zero_codes(gf3):
    full = tuple(math.comb(4, w) * 2**w for w in range(5))
    zero = (1, 0, 0, 0, 0)
    assert tuple(d.counts for d in distribution_from_excess(4, 4, gf3, {})) == (full, zero)
    assert tuple(d.counts for d in distribution_from_excess(4, 0, gf3, {})) == (zero, full)


@st.composite
def any_defect_generators(draw):
    # Any defect pair: random rows, q**k <= 2**12, n <= 10.
    q = draw(st.sampled_from(sorted(_FIELDS)))
    k = draw(st.integers(1, max(kk for kk in range(1, 11) if q**kk <= 1 << 12)))
    n = draw(st.integers(k, 10))
    entries = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, draw(st.lists(entries, min_size=k, max_size=k))


@settings(max_examples=100, deadline=None)
@given(any_defect_generators())
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # k = n: the dual is the zero code
# Defects (3, 2): four nonzero E_j.
@example((3, [[1, 1, 1, 1, 1, 0, 0, 0], [0, 1, 2, 0, 0, 1, 0, 0], [0, 0, 0, 1, 2, 0, 1, 1]]))
def test_distribution_from_excess_matches_brute_force(case):
    # Oracles share no code with the solver: the excess and the counts by plain
    # message enumeration, the dual counts from the literal Krawtchouk sum.
    q, rows = case
    ctx = _FIELDS[q]
    try:
        code = LinearCode(FieldMatrix(ctx, rows))
    except ZeroCode:
        return
    n, k = code.n, code.k
    counts = tuple(brute_weights(ctx, code.gen.to_lists()))
    excess = brute_excess(ctx, code.gen.to_lists())
    primal, dual = distribution_from_excess(n, k, ctx, excess)
    assert (primal.counts, dual.counts) == (counts, krawtchouk_transform(counts, k, q))
    j = max(excess, default=k)
    if excess:
        with pytest.raises(NegativeCount, match="^excess must be nonnegative"):
            distribution_from_excess(n, k, ctx, {**excess, j: -excess[j]})
    # E_j past q**k takes j * (that much) off weight n-j+1, whose count is at most q**k.
    with pytest.raises(NegativeCount, match=r"^excess infeasible: weight \d+ count is -"):
        distribution_from_excess(n, k, ctx, {**excess, j: excess.get(j, 0) + q**k + 1})


@settings(max_examples=100, deadline=None)
@given(any_defect_generators())
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example((3, [[1, 1, 1, 1, 1, 0, 0, 0], [0, 1, 2, 0, 0, 1, 0, 0], [0, 0, 0, 1, 2, 0, 1, 1]]))
def test_decimal_solve_equals_int_solve(case):
    # The one solver on Decimal: the same counts, each printing as str() of the int count,
    # and the same refusal of an infeasible excess.
    q, rows = case
    ctx = _FIELDS[q]
    try:
        code = LinearCode(FieldMatrix(ctx, rows))
    except ZeroCode:
        return
    n, k = code.n, code.k
    excess = brute_excess(ctx, code.gen.to_lists())
    ints = distribution_from_excess(n, k, ctx, excess)
    decimals = distribution_from_excess(n, k, ctx, excess, Decimal)
    assert decimals == ints
    for as_int, as_decimal in zip(ints, decimals):
        assert {type(c) for c in as_int.counts} == {int}
        assert {type(c) for c in as_decimal.counts} == {Decimal}
        assert list(map(str, as_decimal.counts)) == list(map(str, as_int.counts))
        assert as_decimal.poly_str() == as_int.poly_str()
    j = max(excess, default=k)
    infeasible = {**excess, j: excess.get(j, 0) + q**k + 1}
    errors = []
    for number in (int, Decimal):
        with pytest.raises(NegativeCount) as err:
            distribution_from_excess(n, k, ctx, infeasible, number)
        errors.append(str(err.value))
    assert errors[0] == errors[1] and errors[0].startswith("excess infeasible: weight ")


def test_decimal_solve_keeps_to_its_own_context(gf9):
    # A caller's 3-digit context neither rounds the counts nor is changed by the solve.
    with localcontext() as caller:
        caller.prec, caller.traps[Inexact] = 3, False
        primal, dual = nmds_distribution(11, 5, gf9, 224, Decimal)
        assert (getcontext().prec, getcontext().traps[Inexact]) == (3, False)
    assert primal.counts == (1, 0, 0, 0, 0, 0, 224, 1520, 4880, 14040, 22240, 16144)
    assert str(primal.counts[-1]) == "16144" and dual.total() == 9**6


def test_excess_solver_counts_are_int_or_decimal(gf9):
    for number in (float, str, np.int64):
        with pytest.raises(ValueError, match="^counts are int or Decimal, got "):
            distribution_from_excess(11, 5, gf9, {5: 224}, number)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 23, 25, 27, 32, 64, 256])
def test_span_column_path_equals_the_gather(q, monkeypatch):
    # The column path takes rows with mode="clip", which skips numpy's bounds check;
    # the indices are field codes, so it never clips and gives the 2-index gather's
    # span.  Each field spans as many rows as fit 2**16 codewords, at most 5.
    ctx = FieldCtx.from_order(q)
    rng = random.Random(q)
    m = min(5, int(math.log(1 << 16, q) + 1e-9))
    assert m >= 2 and q**m <= 1 << 16
    tables = [ctx.multiples([rng.randrange(q) for _ in range(6)]).T for _ in range(m)]
    add_t = ctx.add_table()
    monkeypatch.setattr(linear, "_COLUMN_CELLS", 0)
    by_column = linear._span(add_t, tables)
    monkeypatch.setattr(linear, "_COLUMN_CELLS", q**m + 1)
    gathered = linear._span(add_t, tables)
    assert by_column.shape == gathered.shape == (6, q**m)
    assert by_column.dtype == gathered.dtype and (by_column == gathered).all()
