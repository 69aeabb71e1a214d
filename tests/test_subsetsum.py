import contextlib
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import OutOfStatedRange, brute_subset_count, vanishes
from egrl import subsetsum
from egrl.field import FieldCtx
from egrl.linear import InconsistentInput
from egrl.subsetsum import (
    _LIMB_BITS,
    _NORMALISE_EVERY,
    FULL,
    STAR,
    DomainSize,
    TableTooLarge,
    count_dp,
    count_li_wan,
    find_subset,
    subset_row,
)


def test_single_pair_gf5(gf5):
    # the only pair of units summing to 1 is {2, 4}
    assert brute_subset_count(gf5, gf5.units(), 2, 1) == 1
    assert count_dp(gf5, STAR, 2, 1) == 1
    assert count_li_wan(gf5, STAR, 2, 1) == 1


def test_empty_subset_convention(gf9):
    assert count_dp(gf9, STAR, 0, 0) == 1
    assert count_dp(gf9, STAR, 0, 5) == 0
    assert count_li_wan(gf9, FULL, 0, 0) == 1
    assert count_li_wan(gf9, FULL, 0, 3) == 0


def test_char2_pair_vanishing(gf4):
    assert count_dp(gf4, FULL, 2, 0) == 0
    assert vanishes(gf4, FULL, 2, 0) is True


def test_singletons(gf7):
    for b in range(gf7.q):
        assert count_li_wan(gf7, FULL, 1, b) == 1


def test_domain_size_checked(gf5):
    with pytest.raises(DomainSize):
        count_dp(gf5, STAR, 5, 0)
    with pytest.raises(DomainSize):
        count_li_wan(gf5, FULL, 6, 0)


def test_explicit_domain_duplicates_rejected(gf5):
    with pytest.raises(ValueError):
        count_dp(gf5, (1, 1, 2), 2, 0)


def test_unknown_domains_rejected(gf5):
    with pytest.raises(ValueError, match=r"^unknown domain 'units' "):
        count_dp(gf5, "units", 2, 0)
    with pytest.raises(ValueError, match=r"^closed forms exist for the 'full' and 'star' "):
        count_li_wan(gf5, [1, 2, 3], 2, 0)


def test_explicit_domain_matches_bruteforce(gf13):
    codes = (1, 2, 7, 8, 9)
    for m in range(len(codes) + 1):
        for b in range(13):
            assert count_dp(gf13, codes, m, b) == brute_subset_count(gf13, codes, m, b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_li_wan_equals_dp_exhaustive(q):
    ctx = FieldCtx.from_order(q)
    for domain in (FULL, STAR):
        size = q if domain == FULL else q - 1
        for m in range(size + 1):
            for b in range(q):
                assert count_li_wan(ctx, domain, m, b) == count_dp(ctx, domain, m, b)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_row_sum_identity(q):
    # summing over all targets counts every m-subset exactly once
    ctx = FieldCtx.from_order(q)
    for domain, size in ((FULL, q), (STAR, q - 1)):
        for m in range(size + 1):
            total = sum(count_li_wan(ctx, domain, m, b) for b in range(q))
            assert total == math.comb(size, m)


# -- vanishing characterizations -----------------------------------------------------


def test_vanishes_examples(gf8, gf5, gf4):
    assert vanishes(gf8, STAR, 2, 0) is True
    assert vanishes(gf5, STAR, 2, 1) is False
    assert vanishes(gf4, FULL, 2, 0) is True


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_vanishes_agrees_with_counts(q):
    ctx = FieldCtx.from_order(q)
    for domain in (FULL, STAR):
        size = q if domain == FULL else q - 1
        for m in range(size + 1):
            for b in range(q):
                try:
                    verdict = vanishes(ctx, domain, m, b)
                except OutOfStatedRange:
                    continue
                assert verdict == (count_dp(ctx, domain, m, b) == 0), (q, domain, m, b)


def test_vanishes_out_of_range_paths(gf2, gf5, gf8):
    with pytest.raises(OutOfStatedRange):
        vanishes(gf2, STAR, 1, 0)  # q = 2 entirely out of range
    with pytest.raises(OutOfStatedRange):
        vanishes(gf5, FULL, 1, 2)  # size below the full-field window
    with pytest.raises(OutOfStatedRange):
        vanishes(gf5, STAR, 4, 1)  # m = q-1 with nonzero target
    with pytest.raises(OutOfStatedRange):
        vanishes(gf8, STAR, 1, 0)  # m = 1 in characteristic 2


# -- witness extraction ----------------------------------------------------------------


def test_find_subset_golden(gf13):
    # greedy over (1,2,7,8,9): the first 4-subset summing to 5 is {1,2,7,8}
    assert find_subset(gf13, (1, 2, 7, 8, 9), 4, 5) == (1, 2, 7, 8)


def test_find_subset_none_when_impossible(gf5):
    assert find_subset(gf5, STAR, 1, 0) is None


@pytest.mark.parametrize("q", [5, 7, 9])
def test_find_subset_always_valid(q):
    ctx = FieldCtx.from_order(q)
    for m in range(q):
        for b in range(q):
            got = find_subset(ctx, STAR, m, b)
            expect = count_dp(ctx, STAR, m, b)
            if expect == 0:
                assert got is None
            else:
                assert got is not None and len(got) == m and len(set(got)) == m
                acc = 0
                for x in got:
                    acc = ctx.add(acc, x)
                assert acc == b


_FIELDS = {q: FieldCtx.from_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)}


@st.composite
def explicit_instances(draw):
    q = draw(st.sampled_from(sorted(_FIELDS)))
    codes = draw(st.lists(st.integers(0, q - 1), unique=True, max_size=min(q, 14)))
    return q, tuple(codes), draw(st.integers(0, len(codes))), draw(st.integers(0, q - 1))


@settings(max_examples=300, deadline=None)
@given(explicit_instances())
@example((5, (), 0, 0))
@example((16, tuple(range(15, -1, -1)), 8, 0))
@example((13, (6, 4, 7, 5, 3, 2), 3, 10))  # the only witness is the last 3 codes
def test_dp_and_witness_match_enumeration(case):
    q, codes, m, b = case
    ctx = _FIELDS[q]
    assert count_dp(ctx, codes, m, b) == brute_subset_count(ctx, codes, m, b)
    first = None
    for combo in itertools.combinations(codes, m):
        acc = 0
        for x in combo:
            acc = ctx.add(acc, x)
        if acc == b:
            first = combo
            break
    assert find_subset(ctx, codes, m, b) == first


def _first_combo(ctx, codes, m, b):
    """The first m-combination of codes, in itertools order, summing to b (oracle)."""
    return next((c for c in itertools.combinations(codes, m) if ctx.sum(c) == b), None)


@st.composite
def row_instances(draw):
    q = draw(st.sampled_from(sorted(_FIELDS)))
    codes = draw(st.lists(st.integers(0, q - 1), unique=True, max_size=min(q, 10)))
    return q, tuple(codes), draw(st.lists(st.integers(0, q - 1), max_size=4))


@settings(max_examples=100, deadline=None)
@given(row_instances())
@example((16, tuple(range(15, 5, -1)), [3, 0, 3, 7]))
@example((2, (1, 0), [1, 0]))
def test_rows_and_first_hit_witnesses_match_enumeration(case):
    # Every size m, those above n/2 (read by complement) included: the row
    # holds every target's count, and a multi-target search returns the
    # witness of the first target, in the order given, that is reachable.
    q, codes, targets = case
    ctx = _FIELDS[q]
    for m in range(len(codes) + 1):
        row = subset_row(ctx, codes, m)
        counts = [brute_subset_count(ctx, codes, m, b) for b in range(q)]
        assert [row(b) for b in range(q)] == counts
        reached = [b for b in targets if counts[b]]
        got = find_subset(ctx, codes, m, *targets)
        if not reached:
            assert got is None
        else:
            assert got == _first_combo(ctx, codes, m, reached[0])
            assert got == find_subset(ctx, codes, m, reached[0])


def test_row_outlives_its_table(monkeypatch):
    # The returned row must not be a view that keeps the (m+1)-row table alive.
    tables, steps = [], subsetsum._steps

    def spy(ctx, codes, m, tbl, hi, lo=0):
        tables.append(weakref.ref(tbl))
        return steps(ctx, codes, m, tbl, hi, lo)

    monkeypatch.setattr(subsetsum, "_steps", spy)
    ctx = FieldCtx(13)
    row = subset_row(ctx, STAR, 4)
    assert len(tables) == 1 and tables[0]() is None
    assert row(1) == count_li_wan(ctx, STAR, 4, 1)


def test_sizes_0_and_n_build_no_translation_row(monkeypatch):
    # m = 0, and m = n through its complement, change no table row.
    calls, translate = [], FieldCtx.translate
    ctx, codes = FieldCtx(13), (3, 1, 4, 12, 5)  # sum 12
    monkeypatch.setattr(FieldCtx, "translate", lambda c, y: calls.append(y) or translate(c, y))
    assert [subset_row(ctx, codes, m)(b) for m, b in ((0, 0), (0, 1), (5, 12), (5, 0))] == [1, 0, 1, 0]
    assert (find_subset(ctx, codes, 0, 1, 0), find_subset(ctx, codes, 5, 0, 12)) == ((), codes)
    assert (count_dp(ctx, STAR, 0, 0), count_dp(ctx, STAR, 12, 0)) == (1, 1)
    assert calls == []


def test_complement_row_beyond_half():
    # m = 4090 of 4095 units: the direct table of 4091 rows would exceed the
    # 1 GiB cap; the complement needs 6 rows of one limb.
    ctx = FieldCtx.from_order(4096)
    row = subset_row(ctx, STAR, 4090)
    for b in (0, 1, 4095):
        assert row(b) == count_li_wan(ctx, STAR, 4090, b)


@pytest.mark.parametrize("domain", [STAR, FULL])
def test_dp_counts_exact_beyond_64_bits(domain):
    # Over GF(83) the counts reach about C(83, 41) / 83 > 2**73.
    ctx = FieldCtx(83)
    for m in (40, 41):
        for b in (0, 1, 82):
            count = count_dp(ctx, domain, m, b)
            assert count > 1 << 64
            assert count == count_li_wan(ctx, domain, m, b)


_LIMB_FIELDS = {q: FieldCtx.from_order(q) for q in (27, 49, 64, 81, 125, 128, 243, 256)}


@st.composite
def limb_instances(draw):
    q = draw(st.sampled_from(sorted(_LIMB_FIELDS)))
    domain = draw(st.sampled_from((FULL, STAR)))
    n = q if domain == FULL else q - 1
    return q, domain, draw(st.integers(n // 4, n - n // 4)), draw(st.integers(0, q - 1))


@contextlib.contextmanager
def _normalisations():
    """Record (limbs before, limbs after) of every _normalised call while checking its
    headroom: every limb enters below 2**63 and leaves below 2**(_LIMB_BITS + 1)."""
    widths, normalised = [], subsetsum._normalised

    def spy(tbl, limbs):
        before = tbl.shape[-1]
        assert int(tbl.max()) < 1 << 63
        out = normalised(tbl, limbs)
        assert int(out.max()) < 1 << _LIMB_BITS + 1
        widths.append((before, out.shape[-1]))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subsetsum, "_normalised", spy)
        yield widths


def _width(limbs):
    """The width rule: three limbs are gathered as four."""
    return 4 if limbs == 3 else limbs


@settings(max_examples=60, deadline=None)
@given(limb_instances())
@example((81, STAR, 40, 0))
@example((243, STAR, 60, 5))
@example((256, FULL, 128, 1))
def test_dp_limbs_match_li_wan(case):
    # Middle sizes: from q = 81 on every pass needs several limbs (C(63, 15) < 2**48 <=
    # C(80, 20)), and from q = 49 on the n >= 48 steps normalise at least three times
    # (q = 27 keeps one limb and normalises once).
    q, domain, m, b = case
    ctx = _LIMB_FIELDS[q]
    n = q if domain == FULL else q - 1
    if q >= 81:
        assert math.comb(n, min(m, n - m)).bit_length() > _LIMB_BITS  # at the pass size
    if q >= 49:
        assert n >= 3 * _NORMALISE_EVERY
    assert count_dp(ctx, domain, m, b) == count_li_wan(ctx, domain, m, b)


@pytest.mark.parametrize("domain", [STAR, FULL])
@pytest.mark.parametrize("q", [64, 243])
def test_dp_limbs_grow_with_the_pass(q, domain):
    # For every final width L ({1, 2} at q = 64, {1, 2, 4, 5} at q = 243), the first size
    # that needs it and its complement past n/2: the table starts at one limb, widens by
    # one limb at a time to L (three limbs are skipped: 2 -> 4), normalises every
    # _NORMALISE_EVERY steps within its headroom, and every count equals Li-Wan's.
    ctx = FieldCtx.from_order(q)
    n = q if domain == FULL else q - 1
    first = {}
    for m in range(n // 2 + 1):
        first.setdefault(subsetsum._limbs(n, m), m)
    top = -(-math.comb(n, n // 2).bit_length() // _LIMB_BITS)  # exact limbs of the widest
    assert sorted(first) == sorted({_width(limbs) for limbs in range(1, top + 1)})
    assert sorted(first) == ([1, 2] if q == 64 else [1, 2, 4, 5])
    with _normalisations() as widths:
        for limbs, m in first.items():
            for size in (m, n - m):
                widths.clear()
                row = subset_row(ctx, domain, size)
                assert [row(b) for b in range(q)] == [count_li_wan(ctx, domain, size, b)
                                                      for b in range(q)]
                assert len(widths) == n // _NORMALISE_EVERY
                assert [a for a, _ in widths] == [1] + [b for _, b in widths[:-1]]
                assert {(a, b) for a, b in widths if b != a} <= {(1, 2), (2, 4), (4, 5)}
                assert widths[-1][1] == limbs
            assert count_dp(ctx, domain, m, 1) == count_li_wan(ctx, domain, m, 1)


def _python_int_row(ctx, codes, m):
    """N(m, b) for every b by the textbook DP on Python ints (object arrays), one element
    at a time: row j gains row j-1 read at t - x."""
    counts = np.zeros((m + 1, ctx.q), dtype=object)
    counts[0, 0] = 1
    for i, x in enumerate(codes):
        back = [ctx.sub(t, x) for t in range(ctx.q)]
        for j in range(min(i + 1, m), 0, -1):
            counts[j] += counts[j - 1][back]
    return [int(c) for c in counts[m]]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([64, 128, 243]), st.data())
def test_subset_row_matches_python_int_dp(q, data):
    # Random explicit domains of 40 to 130 elements: one to four limbs, widened on the way
    # within the normalisation headroom, and sizes on both sides of n/2.
    ctx = _LIMB_FIELDS[q]
    codes = data.draw(st.lists(st.integers(0, q - 1), min_size=40, max_size=130, unique=True))
    m = data.draw(st.integers(0, len(codes)))
    with _normalisations() as widths:
        row = subset_row(ctx, codes, m)
    assert len(widths) == len(codes) // _NORMALISE_EVERY
    assert [row(b) for b in range(q)] == _python_int_row(ctx, codes, m)


@pytest.mark.parametrize("q, domain, m", [(81, FULL, 40), (243, STAR, 60), (243, FULL, 121)])
def test_too_narrow_table_raises(monkeypatch, q, domain, m):
    # One limb short of the width rule (2 -> 1, 4 -> 3, 5 -> 4): the top limb outgrows
    # 48 bits before the pass ends, and the flat carry would move it into the next
    # cell; the normalisation refuses instead of returning a wrong count.
    limbs = subsetsum._limbs
    monkeypatch.setattr(subsetsum, "_limbs", lambda e, m: max(1, limbs(e, m) - 1))
    with pytest.raises(InconsistentInput, match=r"^a count outgrew its \d+ limbs$"):
        subset_row(FieldCtx.from_order(q), domain, m)


@pytest.mark.parametrize("domain, m", [(STAR, 60), (FULL, 182)])
def test_dp_peak_memory_within_its_sizing(monkeypatch, domain, m):
    # The tracemalloc peak of a pass stays within the bytes require_table_bytes was asked
    # for, (s+1)*q*2L*8: the table and a step's gather of up to s rows, or at a widening
    # the two tables, plus 16 KiB for the translation rows and Python objects.
    # (243, STAR, 60) widens 1 -> 2 -> 4; (243, FULL, 182) runs at size 61, 1 -> ... -> 5.
    ctx, sized = FieldCtx.from_order(243), []
    subset_row(ctx, domain, m)  # the field's tables are built outside the traced pass
    require = subsetsum.require_table_bytes
    monkeypatch.setattr(subsetsum, "require_table_bytes",
                        lambda nbytes, *rest: sized.append(nbytes) or require(nbytes, *rest))
    tracemalloc.start()
    try:
        row = subset_row(ctx, domain, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row(5) == count_li_wan(ctx, domain, m, 5)
    assert len(sized) == 1 and peak <= sized[0] + (16 << 10), (peak, sized)


@pytest.mark.parametrize("q", [2, 9, 16, 27, 31, 243])
def test_shift_table_is_field_subtraction(q):
    ctx = FieldCtx.from_order(q)
    for x in range(q):
        assert ctx.translate(ctx.neg(x)).tolist() == [ctx.sub(t, x) for t in range(q)], x


def test_oversized_tables_refused_before_allocation():
    # (m+1)*q*2L*8 = 2001*4096*2*86*8 bytes for the count; 129 bool
    # tables of 2048*4096 bytes for the witness DP on 4,094 of the units:
    # both above 1 GiB.
    ctx = FieldCtx.from_order(4096)
    with pytest.raises(TableTooLarge):
        count_dp(ctx, STAR, 2000, 1)
    with pytest.raises(TableTooLarge):
        find_subset(ctx, range(1, 4095), 2047, 1)


def test_unit_domain_witness_needs_no_table():
    # On all 4,095 units the same size takes the search, not the refused DP.
    ctx = FieldCtx.from_order(4096)
    got = find_subset(ctx, STAR, 2047, 1)
    assert len(set(got)) == len(got) == 2047 and 0 not in got and ctx.sum(got) == 1


_WHOLE_FIELDS = {q: FieldCtx.from_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64, 243, 256)}


@st.composite
def whole_field_instances(draw):
    q = draw(st.sampled_from(sorted(_WHOLE_FIELDS)))
    codes = draw(st.permutations(range(draw(st.sampled_from((0, 1))), q)))
    n = len(codes)
    m = draw(st.one_of(st.sampled_from((0, 1, n // 2, n - 1, n)), st.integers(0, n)))
    return q, tuple(codes), m, draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))


@settings(max_examples=80, deadline=None)
@given(whole_field_instances())
@example((256, tuple(range(1, 256)), 7, [1, 2]))
@example((243, tuple(range(242, -1, -1)), 121, [0, 5]))
@example((8, (0, 3, 5, 6, 1, 2, 4, 7), 3, [5, 5, 6]))
def test_whole_field_witness_is_the_dp_witness(case):
    # On F_q or F_q^* in any order, Li-Wan and the construction give the DP's
    # tuple, and None exactly when Li-Wan counts no subset at any target.  Up
    # to n/2 the construction finds it itself, not through the DP.
    q, codes, m, targets = case
    ctx = _WHOLE_FIELDS[q]
    domain = FULL if 0 in codes else STAR
    got = find_subset(ctx, codes, m, *targets)
    assert got == subsetsum._dp_witness(ctx, codes, m, targets)
    reached = [b for b in targets if count_li_wan(ctx, domain, m, b)]
    assert (got is None) == (reached == [])
    if reached and 2 * m <= len(codes):
        assert subsetsum._whole_field_witness(ctx, codes, m, reached[0]) == got


def test_unit_domain_witness_never_calls_the_dp(monkeypatch):
    ctx, calls = FieldCtx.from_order(256), []
    expect = subsetsum._dp_witness(ctx, ctx.units(), 7, [1])
    dp = subsetsum._dp_witness
    monkeypatch.setattr(subsetsum, "_dp_witness", lambda *args: calls.append(args) or dp(*args))
    assert find_subset(ctx, STAR, 7, 1) == expect
    assert calls == []


def test_whole_field_targets_stop_at_the_first_reached(monkeypatch):
    # Li-Wan counts the targets in turn: once 1 is reached, 2 is never counted.
    ctx, calls = _FIELDS[16], []
    expect = find_subset(ctx, STAR, 3, 1)
    monkeypatch.setattr(subsetsum, "count_li_wan",
                        lambda *args: calls.append(args) or count_li_wan(*args))
    assert find_subset(ctx, STAR, 3, 1, 2) == expect
    assert calls == [(ctx, STAR, 3, 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_whole_field_witness_is_the_stated_construction(q):
    # Every m <= n/2 and every target Li-Wan reaches, on F_q and F_q^* in
    # ascending and generator-power order: the DP's tuple, whose first m-2
    # elements are the domain's first m-2, except exactly when p = 2 and
    # those already sum to b (then the (m-2)-th gives way to the (m-1)-th).
    ctx = _FIELDS[q]
    powers = tuple(ctx.generator_powers())
    for codes in (tuple(range(q)), (0, *powers), tuple(range(1, q)), powers):
        domain = FULL if 0 in codes else STAR
        for m in range(len(codes) // 2 + 1):
            for b in range(q):
                if not count_li_wan(ctx, domain, m, b):
                    continue
                got = subsetsum._whole_field_witness(ctx, codes, m, b)
                assert got == subsetsum._dp_witness(ctx, codes, m, [b])
                if m >= 2:
                    swapped = ctx.p == 2 and m >= 3 and ctx.sum(codes[: m - 2]) == b
                    head = codes[: m - 3] + (codes[m - 2],) if swapped else codes[: m - 2]
                    assert got[: m - 2] == head
