"""Generic linear-code machinery: duals, exhaustive weight enumerators,
Singleton-defect classification, the MacWilliams transform, and one exact
solver for both weight distributions from their excess, the binomial
moments less an MDS code's (``distribution_from_excess``): none for an
MDS code, the minimum-weight count for an NMDS one (``nmds_distribution``).

Exhaustive enumeration is projective: every nonzero codeword has q-1
nonzero scalar multiples with the same weight and support, so only the
(q**k - 1)/(q - 1) messages whose first nonzero symbol is 1 are walked
(generator in reduced echelon form, first row = most significant symbol),
and each stands for its whole scalar class.  The messages with lead row j
form the coset row_j + span(rows j+1..k-1).  Work is split into blocks --
the trailing rows' span is built once as a numpy array, and the leading
message symbols give an offset per block -- and per-block counts are merged
by addition, so results do not depend on the blocking.  Codewords are never
materialized: consumers only ask which symbols are nonzero, and
tail + offset != 0 exactly when tail != -offset, so each block is the
boolean mask of that comparison.

Time is bounded by a budget each caller checks before the walk starts,
memory by the field's table cap.  Tables hold codes at the field's width,
c = ``ctx.dtype.itemsize`` bytes (1 for q <= 256, else 2).  Before building
anything the walk adds up its tables -- k-1 tables of multiples f * row_i
for i >= 1 (c*q*n bytes each, plus a 4*q*n int32 index sum while one is
built; row 0 only leads, so it needs the vector -row_0 alone), the tail
span of T <= 2**16 codewords (c*n*T bytes) and two block masks (n*T each:
the consumer holds the last while the next is compared) -- and refuses them above
``MAX_TABLE_BYTES`` = 1 GiB (``TableTooLarge``), as for an [8192, 2] code
at q = 2**16; an [8192, 1] code there needs no table.
The q-by-q addition table, built only for k >= 3, is refused alone above
the cap, so for q > 23170.  An [8, 2] code at q = 2**16 walks its 65537
scalar classes in 0.01 s (2-vCPU Xeon).

The tail span of m rows is built by halves, span(rows) = span(first
ceil(m/2) rows) + span(the rest): by one gather while a column of the sum
holds fewer than ``_COLUMN_CELLS`` = 400 cells, else column by column, a
pick of the addition table's columns by the lower half (q*|lo| <= q**m codes,
at most 64 KiB), then a copy of its rows by the upper half.  A span of two or
more rows needs q**2 <= 2**16, so it holds byte codes (c = 1); while it is
built, its halves, n*(|hi| + |lo|) bytes, sit within the mask's share n*T.

Budgets count the side walked, q**min(k, n-k) codewords (q**n for the full
code), which ``weight_distribution`` picks by ``walk_size`` before building
a dual; a dual walk gives the code's counts by one MacWilliams transform.

All counts are exact Python integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .field import LIST_ENTRY_BYTES, MAX_COUNT_BYTES, FieldCtx, require_table_bytes
from .matrix import FieldMatrix

DEFAULT_BUDGET = 1 << 26  # walked side size q**min(k, n-k); overridable per call
_BLOCK_LIMIT = 1 << 16  # max rows per block
# Cells a column from which a span is built column by column: there two numpy calls
# a column (about 2 us) cost less than the gather's 5 ns a cell (2-vCPU Xeon:
# 361-cell columns gather faster, 512-cell ones are faster column by column).
_COLUMN_CELLS = 400
# Blocks weight_distribution tallies by count_nonzero: this many classes or more, over
# at most this many weights.  One count_nonzero a weight (1.5 us + 0.15 ns a class) beats
# one bincount (2.7 ns a class on a walk's clustered weights) up to about 5 weights at
# 4096 classes, 8 to 10 at 8192 and 16 at 16,384 (2-vCPU Xeon).
_COUNT_CLASSES = 8192
_COUNT_WEIGHTS = 8

MDS = "MDS"
NMDS = "NMDS"
AMDS_NOT_NMDS = "AMDS-not-NMDS"
OTHER = "other"


class CodeError(Exception):
    pass


class ZeroCode(CodeError):
    """The generator has rank zero (or the dual would)."""


class BudgetExceeded(CodeError):
    """A walk of more than ``budget`` codewords: walk_size's side, or the census's dual."""

    def __init__(self, required: int, budget: int):
        super().__init__(required, budget)
        self.required, self.budget = required, budget

    def __str__(self) -> str:  # formatted when shown, under the caller's digit limit
        return (f"enumeration of a code of {_count_text(self.required)} codewords exceeds "
                f"the budget of {_count_text(self.budget)}")


def _count_text(count: int) -> str:
    """The count in decimal, or by its bit length past the int-to-str digit limit, which
    ``cli.main`` lifts and a library caller may keep."""
    try:
        return str(count)
    except ValueError:
        return f"{'at least ' if count > 0 else 'at most -'}2^{count.bit_length() - 1}"


class InconsistentInput(CodeError):
    """An exact result failed a consistency check (sum, sign, divisibility, agreement)."""


class NegativeCount(CodeError):
    """A given excess or solved codeword count is negative (an infeasible excess)."""


@dataclass(frozen=True)
class WeightDistribution:
    """Codeword counts A_0..A_n per Hamming weight."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise InconsistentInput(f"need {self.n + 1} counts, got {len(self.counts)}")
        if self.counts[0] != 1:
            raise InconsistentInput("A_0 must be 1")
        if any(c < 0 for c in self.counts):
            raise InconsistentInput("negative codeword count")

    def total(self) -> int:
        return sum(self.counts)

    def min_weight(self) -> int:
        """Least positive weight with a nonzero count; ZeroCode for the zero code."""
        for i in range(1, self.n + 1):
            if self.counts[i]:
                return i
        raise ZeroCode("distribution has no nonzero-weight codewords")

    def poly_str(self) -> str:
        """Enumerator polynomial, e.g. '1+224x^6+1520x^7'; A_0 = 1 always leads."""
        terms = ["1"]
        for i, c in enumerate(self.counts[1:], 1):
            if c:
                terms.append(("" if c == 1 else str(c)) + ("x" if i == 1 else f"x^{i}"))
        return "+".join(terms)


@dataclass(frozen=True)
class CodeClass:
    """Singleton-defect classification of a code and its dual.

    label is MDS for defect 0, NMDS for defect 1 on both sides,
    AMDS-not-NMDS for defect 1 with a different dual defect, else other.
    """

    label: str
    singleton_defect: int
    dual_defect: int

    @classmethod
    def from_distributions(cls, k: int, primal: WeightDistribution,
                           dual_dist: WeightDistribution) -> CodeClass:
        """The class of an [n, k] code with these primal and dual weights."""
        defect = primal.n - k + 1 - primal.min_weight()
        dual_defect = k + 1 - dual_dist.min_weight()
        if defect == 0:
            label = MDS
        elif defect == 1 and dual_defect == 1:
            label = NMDS
        elif defect == 1:
            label = AMDS_NOT_NMDS
        else:
            label = OTHER
        return cls(label, defect, dual_defect)


class LinearCode:
    """A linear code held by a full-row-rank generator in reduced echelon form.

    Construction row-reduces the supplied generator and drops zero rows, so
    equal codes (same row space) compare equal.  A generator the reduction
    leaves as it is (full rank, already reduced, as ``egrl_code`` builds it)
    is kept, not admitted a second time.
    """

    __slots__ = ("ctx", "gen", "n", "k")

    def __init__(self, gen: FieldMatrix):
        reduced, pivots, _ = gen._rref_pivots()
        if not pivots:
            raise ZeroCode("generator has rank 0")
        self.ctx = gen.ctx
        unchanged = len(pivots) == gen.rows and tuple(itertools.chain(*reduced)) == gen.data
        self.gen = gen if unchanged else FieldMatrix(gen.ctx, reduced[: len(pivots)], cols=gen.cols)
        self.n = gen.cols
        self.k = len(pivots)

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.ctx.q}))"

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCode) and self.gen == other.gen

    def __hash__(self) -> int:
        return hash(self.gen)

    def dual(self) -> "LinearCode":
        """The dual code, read off the reduced generator.  Refused above MAX_TABLE_BYTES at
        LIST_ENTRY_BYTES per entry of its (n-k) x n basis (TableTooLarge), before it is built."""
        if self.k == self.n:
            raise ZeroCode(f"dual of the full [{self.n},{self.n}] code is trivial")
        require_table_bytes(LIST_ENTRY_BYTES * (self.n - self.k) * self.n,
                            "the dual generator needs")
        # Reduced rows pivot at their first nonzero entry; free column f gives e_f - column f.
        rows = {next(c for c, x in enumerate(r) if x): r for r in map(self.gen.row, range(self.k))}
        basis = [[self.ctx.neg(rows[c][f]) if c in rows else int(c == f) for c in range(self.n)]
                 for f in range(self.n) if f not in rows]
        return LinearCode(FieldMatrix(self.ctx, basis, cols=self.n))

    # -- exhaustive enumeration -------------------------------------------------

    def codeword_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (nonzero mask, row weights) blocks, one row per scalar class.

        Row r of a mask marks the nonzero symbols of the codeword of a
        message whose first nonzero symbol is 1.  Lazy and unbudgeted: each
        caller sizes the walk first, and ``require_table_bytes`` caps the
        eager tables.  Checks exactness on the way: no walked message gives
        the zero codeword (the generator has full rank), and the blocks hold
        exactly (q**k - 1)/(q - 1) rows.
        """
        ctx, q, k, n = self.ctx, self.ctx.q, self.k, self.n
        tail_len = 0
        while tail_len < k - 1 and q ** (tail_len + 1) <= _BLOCK_LIMIT:
            tail_len += 1
        head = k - tail_len
        neg = ctx.neg
        # Row 0 only ever leads, so it needs -row_0 alone: the k-1 multiples
        # tables of rows 1..k-1 (c bytes a code), one int32 index sum, the tail
        # span (c bytes a code) and two bool block masks (the one being compared
        # and the consumer's last).
        c = ctx.dtype.itemsize
        require_table_bytes((c * (k - 1) + 4 if k > 1 else 0) * q * n + (c + 2) * n * q**tail_len,
                            "the enumeration tables need")
        scaled = [None, *(ctx.multiples(self.gen.row(i)) for i in range(1, k))]
        negated = [np.array([neg(x) for x in self.gen.row(0)], ctx.dtype),
                   *(table[neg(1)] for table in scaled[1:])]
        # Only a walk that adds two rows needs the q-by-q table, so k >= 3 (or
        # a test's tiny block limit); add_table refuses it above the table cap.
        add_t = ctx.add_table() if tail_len >= 2 or head >= 2 else None
        # span(rows head..k-1), one codeword per column, the symbol of row
        # head most significant: its first q**m columns span the last m
        # rows.  Column-major keeps the compares contiguous.
        tail = (np.ascontiguousarray(_span(add_t, [table.T for table in scaled[head:]]))
                if tail_len else np.zeros((n, 1), ctx.dtype))
        # Weights are the mask's bytes summed down its contiguous columns, in the
        # smallest type that holds n: half the time of a bool sum along the rows,
        # a quarter of an intp sum.
        wdtype = np.min_scalar_type(n)
        walked = 0
        for lead in range(k):
            span = tail[:, : q ** min(tail_len, k - 1 - lead)]
            for syms in itertools.product(range(q), repeat=max(head - 1 - lead, 0)):
                # minus the offset row_lead + sum f_i row_i: -row_lead plus each -f_i row_i
                minus = negated[lead]
                for i, f in enumerate(syms, lead + 1):
                    minus = add_t[minus, scaled[i][neg(f)]]
                mask = span != minus[:, None]
                weights = mask.view(np.uint8).sum(axis=0, dtype=wdtype)
                if not weights.all():
                    raise InconsistentInput("a nonzero message gave the zero codeword")
                walked += len(weights)
                yield mask.T, weights
        if walked != (q**k - 1) // (q - 1):
            raise InconsistentInput(f"enumeration walked {walked} scalar classes")

    def weight_distribution(self, budget: int = DEFAULT_BUDGET) -> WeightDistribution:
        """Exact counts A_0..A_n by a walk of the side walk_size picks: on the code A_0 = 1,
        A_w = (q-1) * (scalar classes of weight w); on the dual, by MacWilliams.

        A block of at least ``_COUNT_CLASSES`` classes whose weights span at most
        ``_COUNT_WEIGHTS`` values is tallied by one ``np.count_nonzero`` per weight from
        its least to its greatest; every other block, so the many small blocks past
        q = 256 and the wide weight ranges of long codes, by one ``np.bincount``."""
        if walk_size(self.ctx.q, self.n, self.k, budget) != self.ctx.q**self.k:
            return macwilliams(self.dual().weight_distribution(budget), self.n - self.k, self.ctx)
        classes = np.zeros(self.n + 1, dtype=np.int64)
        for _, weights in self.codeword_blocks():
            if len(weights) >= _COUNT_CLASSES:
                lo, hi = int(weights.min()), int(weights.max())
                if hi - lo < _COUNT_WEIGHTS:
                    for w in range(lo, hi + 1):
                        classes[w] += np.count_nonzero(weights == w)
                    continue
            classes += np.bincount(weights, minlength=self.n + 1)
        # codeword_blocks walked exactly (q**k - 1)/(q - 1) classes, so the total is q**k.
        return WeightDistribution(self.n, (1, *((self.ctx.q - 1) * int(c) for c in classes[1:])))

    def classify(self, budget: int = DEFAULT_BUDGET) -> CodeClass:
        """Singleton defects of the code and its dual, with the class label."""
        primal = self.weight_distribution(budget)
        return CodeClass.from_distributions(self.k, primal, macwilliams(primal, self.k, self.ctx))


def _span(add_t: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """span(rows) as an (n, q**m) array of codes from the rows' transposed multiples
    tables (n, q), one codeword per column, the first row's symbol most significant.

    The upper half hi spans the first ceil(m/2) of the m rows and lo the rest, and they
    combine as span[c, a, b] = add_t[hi[c, a], lo[c, b]]: by one 2-index gather (about
    5 ns a cell) while a column holds fewer than ``_COLUMN_CELLS`` cells, else column by
    column, a q-by-|lo| pick of add_t's columns by lo (q*|lo| <= q**m <= 2**16 byte
    codes, so at most 64 KiB; lo is the smaller half, so this gather is the smaller
    part), then one take of its rows by hi, |hi| contiguous copies of |lo| codes (about
    0.2 ns a cell at 2**16 cells a column).  Each cell of the span is written once;
    adding one row at a time would write q/(q-1) spans' worth.
    """
    if len(tables) == 1:
        return tables[0]
    half = (len(tables) + 1) // 2
    hi, lo = _span(add_t, tables[:half]), _span(add_t, tables[half:])
    n, a, b = len(hi), hi.shape[1], lo.shape[1]
    if a * b < _COLUMN_CELLS:
        return add_t[hi[:, :, None], lo[:, None, :]].reshape(n, -1)
    out = np.empty((n, a, b), add_t.dtype)
    for x, y, o in zip(hi, lo, out):
        add_t.take(y, axis=1).take(x, axis=0, out=o)
    return out.reshape(n, -1)


def walk_size(q: int, n: int, k: int, budget: int) -> int:
    """Codewords q**min(k, n-k) a brute-force walk of an [n, k] code enumerates: the
    smaller of the code and its dual (the code on a tie, and the full [n, n] code, whose
    dual is the zero code).  BudgetExceeded above ``budget``; no row reduction needed."""
    size = q ** (min(k, n - k) if k < n else n)
    if size > budget:
        raise BudgetExceeded(size, budget)
    return size


def macwilliams(dist: WeightDistribution, k: int, ctx: FieldCtx) -> WeightDistribution:
    """Dual weight distribution B_j = q**-k * sum_i A_i K_j(i) (exact).

    For each i with A_i != 0 the Krawtchouk values K_j(i) follow from the
    three-term recurrence (MacWilliams-Sloane, ch. 5), whose division is exact:

        (j+1) K_{j+1} = ((q-1)(n-j) + j - q*i) K_j - (q-1)(n-j+1) K_{j-1}.

    Cost: n+1 big-integer steps per nonzero A_i.  A special [q+2, k] code
    has k+2 of them; q = 512, k = 8 takes about 0.01 s (2-vCPU Xeon).
    """
    q, n = ctx.q, dist.n
    size = q**k
    if dist.total() != size:
        raise InconsistentInput(f"distribution sums to {_count_text(dist.total())}, "
                                f"expected q^k = {_count_text(size)}")
    acc = [0] * (n + 1)
    for i, a_i in enumerate(dist.counts):
        if a_i == 0:
            continue
        # A_i * K_{j-1}(i) and A_i * K_j(i); the recurrence is linear.
        prev, cur = 0, a_i
        for j in range(n + 1):
            acc[j] += cur
            step = ((q - 1) * (n - j) + j - q * i) * cur - (q - 1) * (n - j + 1) * prev
            prev, cur = cur, step // (j + 1)
    out = []
    for j, total in enumerate(acc):
        val, rem = divmod(total, size)
        if rem or val < 0:
            raise InconsistentInput(f"transform produced a non-count at weight {j}")
        out.append(val)
    return WeightDistribution(n, tuple(out))


def distribution_from_excess(n: int, k: int, ctx: FieldCtx, excess: dict[int, int]
                             ) -> tuple[WeightDistribution, WeightDistribution]:
    """Weight distributions of an [n, k] code and its dual from the code's excess {j: E_j}.

    E_j = sum_{|J| = j} (q**dim K(J) - q**max(k-j, 0)), K(J) the codewords zero on the
    coordinates J, is the binomial moment sum_i C(n-i, j) A_i less an MDS code's
    (MacWilliams-Sloane, ch. 5); E_j >= 0, and absent keys are 0.  By binomial inversion
    each side is the MDS distribution plus (-1)**(j-m) C(j, m) E_j at weight n-m for
    m <= j.  The MDS part (MacWilliams-Sloane, ch. 11, Thm 6) is, with d = min(k+1, n),
    w = n-d+s and b_s = (-1)**(s-1) C(n-d+s-1, s-1),

        A_w = C(n, d-s) (T(s) - b_s),   T(s) = (q-1) T(s-1) + q**(k-d+1) b_s,   T(0) = 0,

    for 1 <= s <= d.  Complements swap the sides, dim K-dual(J^c) = dim K(J) + j - k, so the
    dual's excess is q**(j-k) E_j at n-j.  An MDS code is {}, an [n, k, n-k] NMDS code
    {k: A_{n-k}}.  Cost: d O(1) big-integer steps per side plus j+1 per nonzero E_j; both
    sides of the special [1026, 512] code over GF(1024) take 4 to 7 ms (2-vCPU Xeon).
    Memory: a count is at most q**k and a dual count at most q**(n-k), so both sides take at
    most (n+1)*n*ceil(log2 q) bits.  Above ``MAX_COUNT_BYTES`` = 128 MiB, TableTooLarge refuses
    before any big-integer work: the special code at q = 2**16 (8 GiB) refuses, and at
    q = 8192 (104 MiB) ``weights --method formula --json`` takes 57 s at 546 MiB peak RSS.
    ValueError unless 0 <= k <= n, n >= 1 and every j is in 0..n; NegativeCount on a negative
    excess or count; InconsistentInput on a side sum != q**k, A_0 != 1 or a fractional dual excess.
    """
    if not (0 <= k <= n and n >= 1 and all(0 <= j <= n for j in excess)):
        raise ValueError(f"an [{n},{k}] code needs 0 <= k <= n, n >= 1 and excess at "
                         f"0..n, got {sorted(excess)}")
    require_table_bytes((n + 1) * n * (ctx.q - 1).bit_length() // 8, "the weight counts need",
                        MAX_COUNT_BYTES)
    if min(excess.values(), default=0) < 0:
        raise NegativeCount(f"excess must be nonnegative, got {_count_text(min(excess.values()))}")
    q, dual = ctx.q, {}
    primal = _from_excess(n, k, q, excess)
    for j, e in excess.items():
        val, rem = divmod(e, q ** (k - j)) if j < k else (e * q ** (j - k), 0)
        if rem:
            raise InconsistentInput(f"dual excess at {n - j} is not an integer")
        dual[n - j] = val
    return primal, _from_excess(n, n - k, q, dual)


def nmds_distribution(n: int, k: int, ctx: FieldCtx,
                      a_min: int) -> tuple[WeightDistribution, WeightDistribution]:
    """The [n, k, n-k] NMDS case {k: a_min} of distribution_from_excess (a_min = 0: MDS)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return distribution_from_excess(n, k, ctx, {k: a_min})


def _from_excess(n: int, k: int, q: int, excess: dict[int, int]) -> WeightDistribution:
    """One side of distribution_from_excess: the MDS recurrence, then each E_j's terms."""
    d = min(k + 1, n)  # an MDS code's dual distance; n for the full code
    counts = [1] + [0] * (n - d)
    t, b, c_n, top = 0, 1, comb(n, d - 1), q ** (k - d + 1)  # T(s-1), b_s and C(n, d-s)
    for s in range(1, d + 1):
        t = (q - 1) * t + top * b
        counts.append(c_n * (t - b))
        b, c_n = -b * (n - d + s) // s, c_n * (d - s) // (n - d + s + 1)
    for j, e in excess.items():
        term = e  # (-1)**(j-m) C(j, m) E_j, added at weight n-m from m = j down
        for m in range(j, -1, -1):
            counts[n - m] += term
            term = -term * m // (j - m + 1)
    for w, val in enumerate(counts):
        if val < 0:
            raise NegativeCount(f"excess infeasible: weight {w} count is {_count_text(val)}")
    if sum(counts) != q**k:
        raise InconsistentInput("solved distribution does not sum to q^k")
    return WeightDistribution(n, tuple(counts))
