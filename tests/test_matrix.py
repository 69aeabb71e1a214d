import random

import pytest

from conftest import (
    DuplicateNodes,
    cofactor_det,
    modified_vandermonde,
    times_transpose,
    vandermonde_skip_det,
)
from egrl.field import FieldCtx
from egrl.linear import LinearCode
from egrl.matrix import DimMismatch, FieldMatrix, NotSquare


def test_identity_det(gf5):
    assert int(FieldMatrix.identity(gf5, 3).det()) == 1


def test_det_2x2_golden(gf5):
    # 1*4 - 2*3 = -2 = 3 (mod 5), cofactor expansion by hand
    m = FieldMatrix(gf5, [[1, 2], [3, 4]])
    assert int(m.det()) == 3


def test_det_vandermonde_golden(gf7):
    # product formula: (2-1)(3-1)(3-2) = 2
    m = FieldMatrix(gf7, [[1, 1, 1], [1, 2, 3], [1, 4, 2]])
    assert int(m.det()) == 2


def test_det_not_square(gf5):
    with pytest.raises(NotSquare):
        FieldMatrix(gf5, [[1, 2, 3], [4, 0, 1]]).det()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16])
def test_det_matches_cofactor_oracle(q):
    ctx = FieldCtx.from_order(q)
    rng = random.Random(q * 31)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        assert int(FieldMatrix(ctx, rows).det()) == cofactor_det(ctx, rows)


@pytest.mark.parametrize("q", [3, 5, 8, 9, 16])
def test_det_multiplicative(q):
    ctx = FieldCtx.from_order(q)
    rng = random.Random(q)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = FieldMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        b = FieldMatrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        ab = FieldMatrix(ctx, times_transpose(a, FieldMatrix(ctx, zip(*b.to_lists()))))
        assert int(ab.det()) == ctx.mul(int(a.det()), int(b.det()))


def test_rref_rank_nullspace_properties():
    rng = random.Random(1234)
    for q in (2, 3, 5, 9):
        ctx = FieldCtx.from_order(q)
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = FieldMatrix(ctx, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)])
            work, pivots, _ = m._rref_pivots()
            r = FieldMatrix(ctx, work, cols=cols)
            rank = m.rank()
            assert r.rank() == rank == len(pivots)
            assert sum(1 for i in range(r.rows) if any(r.row(i))) == rank
            if 0 < rank < cols:  # the right kernel is the dual of the row space
                ns = LinearCode(m).dual().gen
                assert ns.rows == cols - rank
                assert not any(map(any, times_transpose(m, ns)))
            assert r._rref_pivots()[:2] == (work, pivots)


def test_nullspace_repetition_parity(gf2):
    ns = LinearCode(FieldMatrix(gf2, [[1, 1, 1]])).dual().gen
    assert ns.rows == 2
    for i in range(2):
        assert sum(ns.row(i)) % 2 == 0


def test_nullspace_orthogonal_gf8(gf8):
    rng = random.Random(8)
    g = FieldMatrix(gf8, [[rng.randrange(8) for _ in range(6)] for _ in range(3)])
    assert not any(map(any, times_transpose(g, LinearCode(g).dual().gen)))


# -- the skip-one-row Vandermonde determinant -------------------------------------


def test_vandermonde_skip_trivial(gf5):
    assert int(vandermonde_skip_det(gf5, (0, 1))) == 1


def test_vandermonde_skip_2x2(gf5):
    # rows (1, 1) and (1, 4): det = 3 = (1+2)(2-1)
    assert int(vandermonde_skip_det(gf5, (1, 2))) == 3
    explicit = FieldMatrix(gf5, [[1, 1], [1, 4]])
    assert int(explicit.det()) == 3


def test_vandermonde_skip_3x3(gf7):
    # (1+2+3) * (2-1)(3-1)(3-2) = 6*2 = 12 = 5 (mod 7)
    val = vandermonde_skip_det(gf7, (1, 2, 3))
    assert int(val) == 5
    assert int(modified_vandermonde(gf7, (1, 2, 3)).det()) == 5


def test_vandermonde_skip_duplicates(gf7):
    with pytest.raises(DuplicateNodes):
        vandermonde_skip_det(gf7, (1, 1, 2))


def test_vandermonde_skip_matches_explicit_random():
    rng = random.Random(2024)
    trials = 0
    while trials < 500:
        q = rng.choice([4, 5, 7, 8, 9, 11, 13, 16])
        ctx = FieldCtx.from_order(q)
        n = rng.randint(2, min(7, q))
        xs = tuple(rng.sample(range(q), n))
        expect = int(modified_vandermonde(ctx, xs).det())
        assert int(vandermonde_skip_det(ctx, xs)) == expect
        trials += 1


# -- text format --------------------------------------------------------------------


def test_text_roundtrip(gf13):
    m = FieldMatrix(gf13, [[1, 2, 3], [4, 5, 6]])
    assert FieldMatrix.from_text(gf13, m.to_text()) == m
    assert m.to_text().splitlines()[0] == "2 3"


def test_from_text_validates(gf5):
    with pytest.raises(DimMismatch):
        FieldMatrix.from_text(gf5, "2 2\n1 2\n3")


@pytest.mark.parametrize("build", [
    lambda ctx: FieldMatrix.from_flat(ctx, -1, -1, [1]),
    lambda ctx: FieldMatrix.from_flat(ctx, -1, 0, []),
    lambda ctx: FieldMatrix.from_text(ctx, "0 -3"),
    lambda ctx: FieldMatrix(ctx, [], cols=-2),
], ids=["flat-both", "flat-rows", "text-cols", "init-cols"])
def test_negative_shapes_refused(gf5, build):
    # rows * cols can equal the entry count for negative shapes; none is a matrix.
    with pytest.raises(DimMismatch):
        build(gf5)


@pytest.mark.parametrize("build,message", [
    (lambda ctx: FieldMatrix(ctx, [[1, 2], [3]]), "ragged rows"),
    (lambda ctx: FieldMatrix.from_flat(ctx, 2, 2, [1, 2, 3]), "need 4 entries, got 3"),
    # A column count that disagrees with nonempty rows is refused, not ignored.
    (lambda ctx: FieldMatrix(ctx, [[1, 2]], cols=3), "rows of length 2 disagree with cols=3"),
], ids=["ragged", "flat-count", "init-cols"])
def test_entry_counts_checked(gf5, build, message):
    with pytest.raises(DimMismatch, match=f"^{message}$"):
        build(gf5)


def test_entries_admitted_as_element_codes(gf5):
    with pytest.raises(ValueError, match=r"^element code 5 outside \[0, 5\)$"):
        FieldMatrix(gf5, [[1, 5]])
    with pytest.raises(TypeError):
        FieldMatrix(gf5, [["1", 2]])
