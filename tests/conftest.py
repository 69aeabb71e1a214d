"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: subset
counting enumerates combinations, the vanishing rules of the subset counts
are stated in closed form, determinants expand by cofactors, matrix
products are dot products added term by term,
polynomial arithmetic is re-derived from digit vectors, the skip-one-row
Vandermonde determinant is a closed product, the MacWilliams
transform and the NMDS expansion are summed term by term, and binomial
moments are summed codeword by codeword.  They exist to
cross-check the production implementations, so keep them dumb.
"""

from __future__ import annotations

import itertools
import operator
from math import comb

import pytest

from egrl.field import FieldCtx
from egrl.matrix import FieldMatrix
from egrl.subsetsum import FULL, STAR, DomainSize


@pytest.fixture(scope="session")
def gf2():
    return FieldCtx(2)


@pytest.fixture(scope="session")
def gf3():
    return FieldCtx(3)


@pytest.fixture(scope="session")
def gf5():
    return FieldCtx(5)


@pytest.fixture(scope="session")
def gf7():
    return FieldCtx(7)


@pytest.fixture(scope="session")
def gf4():
    return FieldCtx(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return FieldCtx(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return FieldCtx(3, 2)


@pytest.fixture(scope="session")
def gf13():
    return FieldCtx(13)


def _poly_digits(ctx: FieldCtx, code: int) -> list[int]:
    return [code // ctx.p**i % ctx.p for i in range(ctx.s)]


def _poly_code(ctx: FieldCtx, digits) -> int:
    return sum((c % ctx.p) * ctx.p**i for i, c in enumerate(digits))


def poly_add(ctx: FieldCtx, a: int, b: int) -> int:
    """a + b by digit-wise addition mod p (oracle)."""
    return _poly_code(ctx, [x + y for x, y in zip(_poly_digits(ctx, a), _poly_digits(ctx, b))])


def poly_neg(ctx: FieldCtx, a: int) -> int:
    """-a by digit-wise negation mod p (oracle)."""
    return _poly_code(ctx, [-x for x in _poly_digits(ctx, a)])


def poly_mul(ctx: FieldCtx, a: int, b: int) -> int:
    """a * b by schoolbook multiplication, then reduction by the modulus (oracle)."""
    s, f = ctx.s, ctx.modulus
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(_poly_digits(ctx, a)):
        for j, y in enumerate(_poly_digits(ctx, b)):
            prod[i + j] += x * y
    for i in range(2 * s - 2, s - 1, -1):
        # x**i = -x**(i-s) * (f_0 + ... + f_{s-1} x**(s-1)) modulo f
        c, prod[i] = prod[i], 0
        for j in range(s):
            prod[i - s + j] -= c * f[j]
    return _poly_code(ctx, prod[:s])


def inverse_products(ctx: FieldCtx, alpha) -> tuple[int, ...]:
    """u_i = prod_{j != i} (alpha_i - alpha_j)**(-1) by the direct pair product in digit
    arithmetic, each inverse found by search (oracle)."""
    out = []
    for i, a in enumerate(alpha):
        prod = 1
        for j, c in enumerate(alpha):
            if j != i:
                prod = poly_mul(ctx, prod, poly_add(ctx, a, poly_neg(ctx, c)))
        out.append(next(y for y in range(1, ctx.q) if poly_mul(ctx, prod, y) == 1))
    return tuple(out)


def poly_is_irreducible(p: int, f) -> bool:
    """Whether monic f (coefficients low-degree first) has no monic factor of
    degree 1..deg(f)/2, by long division by every such polynomial (oracle)."""
    s = len(f) - 1
    for d in range(1, s // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            rem = list(f)
            for i in range(s, d - 1, -1):  # cancel x**i with rem[i] * x**(i-d) * g
                c = rem[i]
                for j, gj in enumerate(low + (1,)):
                    rem[i - d + j] = (rem[i - d + j] - c * gj) % p
            if not any(rem[:d]):
                return False
    return True


def brute_subset_count(ctx: FieldCtx, codes, m: int, b: int) -> int:
    """Count m-subsets summing to b by enumerating all combinations."""
    total = 0
    for combo in itertools.combinations(codes, m):
        acc = 0
        for x in combo:
            acc = ctx.add(acc, x)
        if acc == b:
            total += 1
    return total


class OutOfStatedRange(Exception):
    """Parameters outside the window where the vanishing rules are valid."""


def vanishes(ctx: FieldCtx, domain: str, m: int, b: int) -> bool:
    """Decide N(m, b, domain) == 0 from the closed vanishing rules (oracle).

    Valid windows (outside them :class:`OutOfStatedRange` is raised and the
    caller should test ``count_li_wan(...) == 0`` instead):

    * full field, 2 <= m <= q-1, any b: zero iff p = 2, b = 0 and
      m in {2, q-2};
    * units, b = 0: zero iff m in {1, q-2} for odd p (1 <= m <= q-1), or
      m in {2, q-3, q-2} for p = 2 (2 <= m <= q-1); needs q >= 3;
    * units, b != 0, 2 <= m <= q-2: never zero.

    The windows are deliberately narrower than a naive reading of the
    source rules: edge sizes (m <= 1 on the full field, m = 1 in
    characteristic 2 on the units, m >= q-1 on the units with b != 0, and
    everything at q = 2) fall outside and must use the counting route.
    """
    q, p = ctx.q, ctx.p
    b, m = ctx._check(b), operator.index(m)
    if m < 0:
        raise DomainSize(f"subset size {m} is negative")
    if domain == FULL:
        if 2 <= m <= q - 1:
            return p == 2 and b == 0 and m in (2, q - 2)
        raise OutOfStatedRange(f"full-field rule stated for 2 <= m <= q-1, got m={m}")
    if domain == STAR:
        if b == 0:
            if q >= 3 and p != 2 and 1 <= m <= q - 1:
                return m in (1, q - 2)
            if q >= 3 and p == 2 and 2 <= m <= q - 1:
                return m in (2, q - 3, q - 2)
            raise OutOfStatedRange(f"unit-domain zero-sum rule does not cover q={q}, m={m}")
        if 2 <= m <= q - 2:
            return False
        raise OutOfStatedRange(f"unit-domain rule stated for 2 <= m <= q-2, got m={m}")
    raise ValueError(f"unknown domain {domain!r}")


def krawtchouk_transform(counts, k: int, q: int) -> tuple[int, ...]:
    """MacWilliams transform as the literal Krawtchouk sum (oracle).

    B_j = q**-k * sum_i A_i sum_l (-1)**l C(i, l) C(n-i, j-l) (q-1)**(j-l).
    """
    n = len(counts) - 1
    out = []
    for j in range(n + 1):
        acc = sum(
            a_i * (-1) ** l * comb(i, l) * comb(n - i, j - l) * (q - 1) ** (j - l)
            for i, a_i in enumerate(counts)
            for l in range(min(i, j) + 1)
        )
        val, rem = divmod(acc, q**k)
        assert rem == 0
        out.append(val)
    return tuple(out)


def nmds_formula(n: int, k: int, q: int, a_min: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Primal and dual counts of an [n, k, n-k] NMDS code, term by term (oracle).

    A_{n-k+s} = C(n, k-s) sum_{j<s} (-1)**j C(n-k+s, j) (q**(s-j) - 1) + (-1)**s C(k, s) A_{n-k},
    and the same with k and n-k swapped for the dual.
    """

    def side(dim, codim):
        counts = [0] * (n + 1)
        counts[0], counts[codim] = 1, a_min
        for s in range(1, dim + 1):
            inner = sum((-1) ** j * comb(codim + s, j) * (q ** (s - j) - 1) for j in range(s))
            counts[codim + s] = comb(n, dim - s) * inner + (-1) ** s * comb(dim, s) * a_min
        return tuple(counts)

    return side(k, n - k), side(n - k, k)


def mds_formula(n: int, k: int, q: int) -> tuple[int, ...]:
    """Counts of an [n, k, n-k+1] MDS code, term by term (oracle).

    A_w = C(n, w) sum_{j=0}^{w-d} (-1)**j C(w, j) (q**(w-d+1-j) - 1) for d <= w <= n,
    d = n-k+1 (MacWilliams-Sloane, ch. 11, Thm 6).
    """
    d = n - k + 1
    counts = [1] + [0] * n
    for w in range(d, n + 1):
        counts[w] = comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
                                     for j in range(w - d + 1))
    return tuple(counts)


def cofactor_det(ctx: FieldCtx, rows) -> int:
    """Determinant by Laplace expansion along the first row (oracle)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
            term = ctx.mul(rows[0][j], cofactor_det(ctx, minor))
            acc = ctx.add(acc, term if sign > 0 else ctx.neg(term))
        sign = -sign
    return acc


def dot(ctx: FieldCtx, x, y) -> int:
    """sum_i x_i y_i, added term by term by ctx.add and ctx.mul (oracle)."""
    acc = 0
    for a, b in zip(x, y, strict=True):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def identity(ctx: FieldCtx, n: int) -> FieldMatrix:
    """The n x n identity matrix over ctx."""
    return FieldMatrix(ctx, [[int(i == j) for j in range(n)] for i in range(n)])


def times_transpose(a: FieldMatrix, b: FieldMatrix) -> list[list[int]]:
    """A B^T as row lists: entry (i, j) is the dot product of row i of A and row j of B."""
    return [[dot(a.ctx, x, y) for y in b.to_lists()] for x in a.to_lists()]


def power(ctx: FieldCtx, a: int, e: int) -> int:
    """a**e for e >= 0 by e repeated multiplications (0**0 = 1)."""
    acc = 1
    for _ in range(e):
        acc = ctx.mul(acc, a)
    return acc


class DuplicateNodes(ValueError):
    """Nodes of the skip-one-row Vandermonde determinant must be pairwise distinct."""


def vandermonde_skip_det(ctx: FieldCtx, xs) -> int:
    """(sum xs) * prod_{i<j} (xs[j] - xs[i]) for pairwise-distinct nodes (oracle).

    Equals the determinant of ``modified_vandermonde(ctx, xs)``, the power rows
    1, x, ..., x**(n-2) followed by x**n: the Jacobi-Trudi identity for the
    Schur function of the partition (1), which is e_1 = sum xs.
    """
    nodes = list(map(ctx._check, xs))
    if len(nodes) < 2:
        raise ValueError("need at least two nodes")
    if len(set(nodes)) != len(nodes):
        raise DuplicateNodes(f"nodes must be pairwise distinct: {nodes}")
    prod = 1
    for i, j in itertools.combinations(range(len(nodes)), 2):
        prod = ctx.mul(prod, ctx.sub(nodes[j], nodes[i]))
    return ctx.mul(ctx.sum(nodes), prod)


def modified_vandermonde(ctx: FieldCtx, xs) -> FieldMatrix:
    """Rows 1, x, ..., x**(n-2), then x**n (the x**(n-1) row skipped)."""
    n = len(xs)
    rows = [[power(ctx, x, e) for x in xs] for e in range(n - 1)]
    rows.append([power(ctx, x, n) for x in xs])
    return FieldMatrix(ctx, rows)


def brute_codewords(ctx: FieldCtx, gen_rows):
    """Every codeword, one per message, by plain message enumeration (q**k small)."""
    n = len(gen_rows[0])
    for msg in itertools.product(range(ctx.q), repeat=len(gen_rows)):
        cw = [0] * n
        for f, row in zip(msg, gen_rows):
            if f:
                cw = [ctx.add(c, ctx.mul(f, g)) for c, g in zip(cw, row)]
        yield cw


def brute_weights(ctx: FieldCtx, gen_rows) -> list[int]:
    """Weight counts by plain message enumeration (oracle for q**k small)."""
    counts = [0] * (len(gen_rows[0]) + 1)
    for cw in brute_codewords(ctx, gen_rows):
        counts[sum(1 for c in cw if c)] += 1
    return counts


def brute_excess(ctx: FieldCtx, gen_rows) -> dict[int, int]:
    """Nonzero E_j = sum_c C(#zeros(c), j) - C(n, j) q**max(k-j, 0) of a full-rank
    generator: each codeword adds C(#zeros(c), j) to binomial moment j (oracle)."""
    k, n = len(gen_rows), len(gen_rows[0])
    moments = [0] * (n + 1)
    for cw in brute_codewords(ctx, gen_rows):
        zeros = sum(1 for c in cw if not c)
        for j in range(zeros + 1):
            moments[j] += comb(zeros, j)
    excess = {j: m - comb(n, j) * ctx.q ** max(k - j, 0) for j, m in enumerate(moments)}
    return {j: e for j, e in excess.items() if e}


def random_nonsingular_2x2(ctx: FieldCtx, rng) -> FieldMatrix:
    while True:
        vals = [rng.randrange(ctx.q) for _ in range(4)]
        m = FieldMatrix.from_flat(ctx, 2, 2, vals)
        if int(m.det()) != 0:
            return m
