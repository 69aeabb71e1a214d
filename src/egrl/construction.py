"""Extended generalized Roth-Lempel (EGRL) codes.

An instance over GF(q) is defined by evaluation points ``alpha`` (n
pairwise-distinct elements), nonzero column multipliers ``v``, a nonzero
scalar ``b``, an exponent ``t`` with 0 <= t <= k-3, and a nonsingular
``ell x ell`` coefficient-mixing matrix.  Codewords are

    ( v_1 f(a_1), ..., v_n f(a_n),  (f_{k-ell}, ..., f_{k-1}) * MIX,  b * f_t )

over all polynomials f of degree < k, giving a [n + ell + 1, k] code.
``generator_matrix`` is that definition, row i the codeword of x**i;
``egrl_code`` builds the code on ``reduced_generator``, the same row
space already in reduced echelon form [I_k | A]: row r is the codeword of
L_r / v_r for the Lagrange basis polynomial L_r on the first k points, so
each entry of A is a closed form (a scaled Cauchy matrix on the evaluation
columns, Roth-Seroussi) and no row reduction is run.  LinearCode keeps its
row reduction for raw generators and duals.  The reduced generator and the
parity-check matrix read one barycentric rule: P(x) = prod (x - a) over
their points, built once, and w_a = P'(a), whose inverse u_a scales the
parity-check rows.

The ell = 2, t = 0 family carries the closed theory implemented here: an
explicit parity-check matrix, MDS / dual-AMDS criteria decided by
subset-sum counting (no subset enumeration), and -- for every instance
with nonzero evaluation points -- exact minimum-weight counts and full
weight distributions: the code's one binomial-moment excess is the counted
A_min at k, which at A_min = 0 gives the MDS distribution.  EgrlParams
holds the one range rule, 3 <= k <= n <= q and 0 <= t <= k-3.  The source
paper proves the special instances (all of F_q^*, unit multipliers) NMDS
for 5 <= k <= q-2 in characteristic 2, else 4 <= k <= q-1.  Other
(ell, t) shapes are built and brute-force classified; criteria refuse them.

Proof of the closed weights at every k, for any nonzero points and
multipliers.  Let J be columns of G: points S and tail columns T, |S| < k.
A message f is zero on S iff f = P_S g, P_S = prod_{s in S} (x - s) and
deg g < r = k - |S|.  Then f_0 = P_S(0) g_0 with P_S(0) != 0, and
(f_{k-2}, f_{k-1}) = (g_{r-2} - sigma g_{r-1}, g_{r-1}) with sigma = sum(S)
and g_{-1} = 0.  So the b column asks g_0 = 0, and mixing column j asks
a_1j g_{r-2} + (a_2j - a_1j sigma) g_{r-1} = 0, a nonzero condition; the
two mixing conditions have determinant det(M) != 0 on (g_{r-2}, g_{r-1}).
  - Any k-1 columns are independent: r = |T| + 1, and the |T| conditions
    are independent (b with a mixing column means r >= 3, so g_0 is
    neither g_{r-2} nor g_{r-1}).
  - Any k+1 columns have rank k: r = |T| - 1.  At r = 1, T holds b, or
    both mixing columns, and sigma is not both of their distinct ratios
    a_2j/a_1j, so g_0 = 0; at r = 2 both mixing columns force g = 0.
So the minimum distance is at least n+3-k and the dual's at least k:
both Singleton defects are at most 1, and as the dual of an MDS code is
MDS, the code is MDS or NMDS.  A k-set J is dependent exactly when
sigma = a_2j/a_1j with T = {j}, |S| = k-1, or T = {j, b}, |S| = k-2, and
then carries q-1 dual words of weight k: the terms of min_weight_census,
so A_min, and with it both distributions, is exact.  An exhaustive run
over every nonzero-point instance class for q <= 11 (24,769 classes)
found 0 failures.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import LIST_ENTRY_BYTES, FieldCtx, require_table_bytes
from .matrix import FieldMatrix
from .linear import (DEFAULT_BUDGET, BudgetExceeded, InconsistentInput, LinearCode,
                     WeightDistribution, nmds_distribution)
from .subsetsum import STAR, count_li_wan, find_subset, subset_row


class ConstructionError(Exception):
    pass


class InvalidParams(ConstructionError):
    """Instance parameters violate an invariant; subclasses name which."""


class DuplicateAlpha(InvalidParams):
    pass


class ZeroV(InvalidParams):
    pass


class ZeroB(InvalidParams):
    pass


class SingularM(InvalidParams):
    pass


class RangeViolation(InvalidParams):
    pass


class UnsupportedShape(ConstructionError):
    """The operation has closed formulas only for ell = 2, t = 0."""


def check_ell(ell: int, k: int) -> None:
    """The mixing block width rule 1 <= ell <= k, checked before an ell x ell
    matrix is built from it."""
    if not 1 <= ell <= k:
        raise RangeViolation(f"need 1 <= ell <= k, got ell={ell}, k={k}")


def mix_from_entries(ctx: FieldCtx, ell: int, k: int, entries: Sequence[int]) -> FieldMatrix:
    """The ell x ell mixing matrix from row-major codes: ell is checked, then the count."""
    check_ell(ell, k)
    if len(entries) != ell * ell:
        raise InvalidParams(f"M needs {ell * ell} row-major entries, got {len(entries)}")
    return FieldMatrix.from_flat(ctx, ell, ell, entries)


@dataclass(frozen=True)
class EgrlParams:
    """One EGRL instance: (ctx, n, k, ell, t, alpha, v, b, mix).

    ``mix`` is the ell-by-ell nonsingular matrix applied to the top ell
    message coefficients; its entry (r, c) multiplies f_{k-ell+r} in
    appended column c.  The scalars and codes may be any integers
    (``operator.index``: numpy integers and bool too) and are stored as
    int; a float raises TypeError instead of being truncated.
    """

    ctx: FieldCtx
    n: int
    k: int
    ell: int
    t: int
    alpha: tuple[int, ...]
    v: tuple[int, ...]
    b: int
    mix: FieldMatrix

    def __post_init__(self):
        ctx = self.ctx
        for name in ("n", "k", "ell", "t", "b"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "alpha", tuple(map(ctx._check, self.alpha)))
        if len(set(self.alpha)) != len(self.alpha):
            raise DuplicateAlpha(f"evaluation points must be pairwise distinct: {self.alpha}")
        object.__setattr__(self, "v", tuple(map(ctx._check, self.v)))
        if any(x == 0 for x in self.v):
            raise ZeroV("column multipliers must be nonzero")
        if not 1 <= self.b < ctx.q:
            raise ZeroB(f"b must be a nonzero element code, got {self.b}")
        check_ell(self.ell, self.k)
        if not self.k <= self.n <= ctx.q:
            raise RangeViolation(f"need k <= n <= q, got k={self.k}, n={self.n}, q={ctx.q}")
        if not 0 <= self.t <= self.k - 3:
            raise RangeViolation(f"need 0 <= t <= k-3, got t={self.t}, k={self.k}")
        if len(self.alpha) != self.n or len(self.v) != self.n:
            raise RangeViolation(
                f"alpha and v must have length n={self.n}, "
                f"got {len(self.alpha)} and {len(self.v)}"
            )
        if self.mix.ctx != ctx or (self.mix.rows, self.mix.cols) != (self.ell, self.ell):
            raise RangeViolation(
                f"mixing matrix must be {self.ell}x{self.ell} over the instance field"
            )
        if self.mix.det() == 0:
            raise SingularM("mixing matrix must be nonsingular")

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def length(self) -> int:
        """Code length n + ell + 1."""
        return self.n + self.ell + 1

    # -- canonical serialization ----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": str(self.ctx),
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "t": self.t,
            "alpha": list(self.alpha),
            "v": list(self.v),
            "b": self.b,
            "M": [self.mix.at(i, j) for i in range(self.ell) for j in range(self.ell)],
        }


def _int(x) -> int:
    if isinstance(x, (bool, float)):  # int() would truncate a float, read a bool as 0/1
        raise TypeError(f"expected an integer, got {json.dumps(x)}")
    return int(x)


def _ints(x) -> list[int]:
    if not isinstance(x, list):  # a string would be read one character per code
        raise TypeError(f"expected a list, got {json.dumps(x)}")
    return [_int(c) for c in x]


def _unique_keys(pairs) -> dict:
    """The document's (key, value) pairs as a dict; a repeated key is refused."""
    d: dict = {}
    for key, value in pairs:
        if key in d:
            raise InvalidParams(f"malformed instance: repeated key {key!r}")
        d[key] = value
    return d


def params_from_dict(d: dict) -> EgrlParams:
    try:  # a value of the wrong JSON type: a string, number or list where another belongs
        if unknown := sorted(set(d) - {"field", "n", "k", "ell", "t", "alpha", "v", "b", "M"}):
            raise InvalidParams(f"malformed instance: unknown key {unknown[0]!r}")
        ctx = FieldCtx.from_text(d["field"])
        ell, k = _int(d.get("ell", 2)), _int(d["k"])
        mix = mix_from_entries(ctx, ell, k, _ints(d["M"]))
        n, t = _int(d["n"]), _int(d.get("t", 0))
        alpha, v = _ints(d["alpha"]), _ints(d["v"])
        b = _int(d["b"])
    except (AttributeError, TypeError, OverflowError) as exc:
        raise InvalidParams(f"malformed instance: {exc}") from None
    return EgrlParams(ctx=ctx, n=n, k=k, ell=ell, t=t, alpha=alpha, v=v, b=b, mix=mix)


def params_from_text(text: str) -> EgrlParams:
    """Parse the canonical instance document (text or JSON form)."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped, object_pairs_hook=_unique_keys)
        except RecursionError:  # the decoder recurses once per nesting level
            raise InvalidParams("malformed instance: JSON nested too deeply") from None
        return params_from_dict(doc)
    lines = [line.strip() for line in stripped.splitlines()]
    pairs = [line.partition(":")[::2] for line in lines if line and not line.startswith("#")]
    d = _unique_keys((key.strip(), value.strip()) for key, value in pairs)
    for key in ("alpha", "v", "M"):
        d[key] = [int(x) for x in d[key].split(",")]
    return params_from_dict(d)


@dataclass(frozen=True)
class MdsReport:
    """Outcome of the MDS criterion.

    ``alpha_zero_index`` points at a zero evaluation point (condition (1)
    failure); ``witness`` is (m, j, subset) with the j-th mixing column and
    a size-(k-m) subset of evaluation points whose sum attains
    mix[1][j-1] / mix[0][j-1] (condition (2) failure).  The code is MDS
    exactly when both fields are empty.
    """

    is_mds: bool
    alpha_zero_index: Optional[int] = None
    witness: Optional[tuple[int, int, tuple[int, ...]]] = None

    @property
    def dual_amds(self) -> bool:
        """The dual-AMDS verdict: all evaluation points nonzero, not MDS."""
        return self.alpha_zero_index is None and not self.is_mds


def _power_rows(
    ctx: FieldCtx, scale: Sequence[int], alpha: Sequence[int], count: int
) -> list[list[int]]:
    """The rows [scale_s * alpha_s**j over s] for j = 0..count-1."""
    rows = [list(scale)]
    for _ in range(count - 1):
        rows.append([ctx.mul(x, a) for x, a in zip(rows[-1], alpha)])
    return rows


def _vanishing(ctx: FieldCtx, nodes: Sequence[int]) -> list[int]:
    """The coefficients of P(x) = prod_a (x - a) over the nodes, leading coefficient first."""
    p = [1]
    for a in nodes:
        minus_a = ctx.neg(a)
        p = [ctx.add(x, ctx.mul(minus_a, y)) for x, y in zip(p + [0], [0] + p)]
    return p


def _horner(ctx: FieldCtx, coeffs: Sequence[int], x: int) -> int:
    """The polynomial with these coefficients, leading first, evaluated at x."""
    add, mul, value = ctx.add, ctx.mul, 0
    for c in coeffs:
        value = add(mul(value, x), c)
    return value


def _barycentric(ctx: FieldCtx, p: Sequence[int], nodes: Sequence[int]) -> list[int]:
    """u_a = 1 / P'(a) = prod_{b != a} (a - b)**(-1) at each node a of P = _vanishing(nodes).
    P' = sum_e e c_e x**(e-1) with e mod p, the prime-subfield element of code e: at p | n
    the leading term drops out."""
    deg = len(p) - 1
    slope = [ctx.mul((deg - i) % ctx.p, c) for i, c in enumerate(p[:-1])]
    return [ctx.inv(_horner(ctx, slope, a)) for a in nodes]


def generator_matrix(params: EgrlParams) -> FieldMatrix:
    """The k x (n + ell + 1) generator in the standard evaluation form.

    Row i holds v_j * alpha_j**i on the evaluation block; rows k-ell..k-1
    carry the mixing matrix in the next ell columns; the last column is b
    at row t.  Refused above MAX_TABLE_BYTES at LIST_ENTRY_BYTES per entry
    (TableTooLarge), before any row is built.
    """
    ctx = params.ctx
    k, ell, t = params.k, params.ell, params.t
    require_table_bytes(LIST_ENTRY_BYTES * k * params.length, "the generator matrix needs")
    rows = []
    for i, row in enumerate(_power_rows(ctx, params.v, params.alpha, k)):
        block = [0] * ell
        if i >= k - ell:
            r = i - (k - ell)
            block = [params.mix.at(r, c) for c in range(ell)]
        rows.append(row + block + [params.b if i == t else 0])
    return FieldMatrix(ctx, rows)


def reduced_generator(params: EgrlParams) -> FieldMatrix:
    """The reduced echelon form [I_k | A] of generator_matrix, without row reduction.

    The first k columns of the evaluation form are v_s * alpha_s**i on k
    distinct points, an invertible scaled Vandermonde block, so the pivots
    are 0..k-1 and row r is the codeword of L_r / v_r, where L_r is the
    Lagrange basis polynomial of alpha_r on the first k points
    (Roth-Seroussi, 1985).  With P(x) = prod_{j<k} (x - alpha_j), its
    quotient quo_r = P(x) / (x - alpha_r) by one synthetic division and the
    barycentric weight w_r = P'(alpha_r) = prod_{j != r} (alpha_r - alpha_j)
    (Berrut-Trefethen, 2004), the inverse of the parity check's u, row r holds

        v_c P(alpha_c) / (w_r v_r (alpha_c - alpha_r))    at evaluation column c >= k,
        sum_i quo_r[k-ell+i] M_ij / (w_r v_r)              at mixing column j,
        b quo_r[t] / (w_r v_r)                             at the b column.

    O(k*n + k**2 + k*ell**2) scalar operations, for every (ell, t) and
    zero evaluation points too.  Refused above MAX_TABLE_BYTES at
    LIST_ENTRY_BYTES per entry (TableTooLarge), before P is built.
    """
    ctx, k, ell = params.ctx, params.k, params.ell
    require_table_bytes(LIST_ENTRY_BYTES * k * params.length, "the reduced generator needs")
    add, mul, neg, inv = ctx.add, ctx.mul, ctx.neg, ctx.inv
    nodes, rest = params.alpha[:k], params.alpha[k:]
    p = _vanishing(ctx, nodes)
    tops = [mul(vc, _horner(ctx, p, a)) for a, vc in zip(rest, params.v[k:])]
    mix_cols = [params.mix.data[j::ell] for j in range(ell)]
    rows = []
    for r, (a, u, vr) in enumerate(zip(nodes, _barycentric(ctx, p, nodes), params.v)):
        quo = [1]  # quo_r, leading coefficient first: quo[i] multiplies x**(k-1-i)
        for coef in p[1:k]:
            quo.append(add(coef, mul(a, quo[-1])))
        scale, minus_a = mul(u, inv(vr)), neg(a)
        row = [0] * k
        row[r] = 1
        row += [mul(mul(top, scale), inv(add(c, minus_a))) for top, c in zip(tops, rest)]
        high = quo[ell - 1 :: -1]  # the coefficients of x**(k-ell), ..., x**(k-1)
        row += [mul(scale, ctx.sum(map(mul, high, col))) for col in mix_cols]
        row.append(mul(scale, mul(params.b, quo[k - 1 - params.t])))
        rows.append(row)
    return FieldMatrix(ctx, rows)


def egrl_code(params: EgrlParams) -> LinearCode:
    """The instance as a LinearCode, built already reduced: row r of reduced_generator is
    the codeword of L_r / v_r, so the constructor's row reduction only confirms the pivots
    (O(k**2) zero tests) and keeps the matrix, whose entries are admitted once.  It still
    row-reduces raw generators and duals."""
    return LinearCode(reduced_generator(params))


def _require_shape(params: EgrlParams):
    if params.ell != 2 or params.t != 0:
        raise UnsupportedShape(
            f"closed formulas cover ell=2, t=0 only; got ell={params.ell}, t={params.t} "
            "(general shapes remain brute-force classifiable)"
        )


def parity_check_matrix(params: EgrlParams) -> FieldMatrix:
    """The (n-k+3) x (n+3) parity-check matrix for ell = 2, t = 0 and any 3 <= k <= n.

    The last n-k+2 rows are (u_i/v_i) * alpha_i**j for j = 0..n-k+1, with

        R = [[0, -1], [-1, -sigma]] (M^T)**(-1)
          = [[a12, -a11], [sigma a12 - a22, a21 - sigma a11]] / det(M),   sigma = sum(alpha),

    for M = [[a11, a12], [a21, a22]], filling the two mixing columns of the final two
    of them.  The top row is the classical (1, ..., 1, 0, 0, -sum(v)/b) whenever that
    is actually a parity row -- i.e. the weighted power sums sum_s v_s alpha_s**i vanish
    for 1 <= i <= k-1 and sum(v) != 0, which covers the all-units special construction
    -- and otherwise a completion row built from the u coefficients and the top k
    coefficients of P(x) = prod_s (x - alpha_s), since the classical row annihilates no
    general instance.  P is built once: u, sigma = -p_1 and the completion row all read
    it.  Either way G H^T = 0 and rank(H) = n+3-k; the paper states the form for
    4 <= k <= n-1, and k = 3 and k = n are checked, not proven.  Refused above
    MAX_TABLE_BYTES at LIST_ENTRY_BYTES per entry (TableTooLarge), before P is built.
    """
    _require_shape(params)
    ctx, n, k = params.ctx, params.n, params.k
    require_table_bytes(LIST_ENTRY_BYTES * (n - k + 3) * (n + 3), "the parity-check matrix needs")
    p = _vanishing(ctx, params.alpha)  # p[l] = p_l multiplies x**(n-l); p_1 = -sum(alpha)
    base = [ctx.div(us, vs) for us, vs in zip(_barycentric(ctx, p, params.alpha), params.v)]
    powers = _power_rows(ctx, base, params.alpha, n - k + 3)
    mul, sub, sigma = ctx.mul, ctx.sub, ctx.neg(p[1])
    (a11, a12), (a21, a22) = params.mix.row(0), params.mix.row(1)
    det_inv = ctx.inv(sub(mul(a11, a22), mul(a12, a21)))
    r0 = (mul(det_inv, a12), ctx.neg(mul(det_inv, a11)))
    r1 = (mul(det_inv, sub(mul(sigma, a12), a22)), mul(det_inv, sub(a21, mul(sigma, a11))))
    sum_v = ctx.sum(params.v)
    classical_row_valid = sum_v != 0 and all(
        ctx.sum(row) == 0 for row in _power_rows(ctx, params.v, params.alpha, k)[1:]
    )
    if classical_row_valid:
        first = [1] * n + [0, 0, ctx.neg(ctx.div(sum_v, params.b))]
    else:
        # A parity row for any distinct alpha and nonzero v.  E(-t) H(t) = 1 gives
        # sum_{l<=j} p_l h_{j-l}(alpha) = 0 for j >= 1, and sum_s u_s alpha_s**(n-1+j) =
        # h_j(alpha).  So w(x) = sum_{l<=k-3} p_l x**(n-1-l) makes sum_s u_s w(alpha_s)
        # alpha_s**j 1 at j = 0, 0 at j = 1..k-3, and -p_{k-2}, p_1 p_{k-2} - p_{k-1} at k-2,
        # k-1, which the mixing entries [p_{k-2}, p_{k-1} - p_1 p_{k-2}] (M^T)**(-1), that
        # is -(p_{k-1} R_0 + p_{k-2} R_1), cancel.  Entry s is base_s w(alpha_s) =
        # top_s sum_{l<=k-3} p_l alpha_s**(k-3-l), with top_s = base_s alpha_s**(n-k+2).
        first = [ctx.mul(top, _horner(ctx, p[: k - 2], a))
                 for a, top in zip(params.alpha, powers[-1])]
        first += [ctx.neg(ctx.add(ctx.mul(p[k - 1], x0), ctx.mul(p[k - 2], x1)))
                  for x0, x1 in zip(r0, r1)] + [ctx.neg(ctx.inv(params.b))]
    tails = [(0, 0)] * (n - k) + [r0, r1]
    return FieldMatrix(ctx, [first] + [row + [*tail, 0] for row, tail in zip(powers, tails)])


def _column_ratios(params: EgrlParams) -> dict[int, int]:
    """{a_2j / a_1j: j} over the mixing columns j with a_1j != 0, in column order.

    A nonsingular mix gives distinct ratios.  A size-(k-1) or size-(k-2)
    subset of evaluation points summing to a ratio is an MDS witness and
    supports weight-k dual codewords.
    """
    ctx, mix = params.ctx, params.mix
    return {ctx.div(mix.at(1, j), mix.at(0, j)): j for j in range(2) if mix.at(0, j)}


def check_mds(params: EgrlParams) -> MdsReport:
    """Decide the MDS criterion for ell = 2, t = 0 without subset enumeration.

    The code is MDS iff (1) no evaluation point is zero and (2) for each
    mixing column j with top entry a_1j != 0, no subset of the evaluation
    points of size k-1 or k-2 sums to a_2j / a_1j.  Columns with a_1j = 0
    pass (2) automatically (a_2j != 0 by nonsingularity).  One find_subset
    per size decides every column, size k-1 first and columns in order: on
    all of F_q^* Li-Wan's count per column and, up to half the points, a
    witness in closed form, else one boolean reachability DP at
    min(s, n-s).  A witness subset is
    recovered only when one exists, and its sum names its column.
    """
    _require_shape(params)
    for idx, a in enumerate(params.alpha):
        if a == 0:
            return MdsReport(False, alpha_zero_index=idx)
    ratios = _column_ratios(params)
    for m in (1, 2):
        subset = find_subset(params.ctx, params.alpha, params.k - m, *ratios)
        if subset is not None:
            return MdsReport(False, witness=(m, ratios[params.ctx.sum(subset)] + 1, subset))
    return MdsReport(True)


# -- the special construction on all of F_q^* ---------------------------------


def special_construction(
    ctx: FieldCtx, k: int, b: int, mix: FieldMatrix, order: str = "ascending"
) -> EgrlParams:
    """The instance evaluated on all of F_q^* with unit multipliers.

    Any 3 <= k <= q-1 builds.  The paper proves NMDS for 5 <= k <= q-2 in
    characteristic 2, else 4 <= k <= q-1; at every k the module docstring's
    proof makes the code MDS or NMDS with exact closed weights.  The
    evaluation points default to ascending element code; order="generator"
    lists them as consecutive powers of the smallest primitive element.
    Weight data does not depend on the ordering.
    """
    if order == "ascending":
        alpha = ctx.units()
    elif order == "generator":
        alpha = ctx.generator_powers()
    else:
        raise ValueError(f"order must be 'ascending' or 'generator', got {order!r}")
    return EgrlParams(
        ctx=ctx, n=ctx.q - 1, k=k, ell=2, t=0, alpha=tuple(alpha), v=(1,) * (ctx.q - 1),
        b=b, mix=mix,
    )


_TAIL_PATTERNS = list(itertools.product((False, True), repeat=3))


def min_weight_census(params: EgrlParams) -> dict[tuple[bool, bool, bool], int]:
    """Closed-form count of weight-k dual codewords per tail zero pattern.

    For ell = 2, t = 0 and nonzero evaluation points (else UnsupportedShape
    or InvalidParams).  Keys are the patterns of dual_support_pattern_census.
    A mixing column s with top entry a_1s != 0 contributes
    (q-1) * N(k-1, a_2s/a_1s) codewords nonzero at column s alone and
    (q-1) * N(k-2, a_2s/a_1s) nonzero at column s and the b column (N counts
    subsets of the evaluation points, each supporting q-1 scalar multiples);
    every other pattern has none.  N is Li-Wan's closed form when the points
    fill F_q^* (n = q-1), else one subset-sum DP row over them per size.
    """
    _require_shape(params)
    if 0 in params.alpha:
        raise InvalidParams("closed weight formulas need nonzero evaluation points, "
                            f"got alpha[{params.alpha.index(0)}] = 0")
    ctx, q, k = params.ctx, params.q, params.k
    ratios = _column_ratios(params)
    census = {pat: 0 for pat in _TAIL_PATTERNS}
    for m in (1, 2):
        count = ((lambda b: count_li_wan(ctx, STAR, k - m, b)) if params.n == q - 1
                 else subset_row(ctx, params.alpha, k - m))
        for ratio, j in ratios.items():
            census[(j == 0, j == 1, m == 2)] = (q - 1) * count(ratio)
    return census


def special_nmds_distribution(
    params: EgrlParams, number: type = int,
) -> tuple[WeightDistribution, WeightDistribution]:
    """Full primal and dual weight distributions of an ell = 2, t = 0 instance
    with nonzero evaluation points, counts of type ``number`` (int or Decimal).

    nmds_distribution of an [n+3, k] code, A_min the dual's weight-k count
    summed over min_weight_census: the code is MDS (A_min = 0) or NMDS, as
    the module docstring proves.  min_weight_census refuses the other
    instances.
    """
    amin = sum(min_weight_census(params).values())
    return nmds_distribution(params.length, params.k, params.ctx, amin, number)


def dual_support_pattern_census(
    params: EgrlParams, budget: int = DEFAULT_BUDGET
) -> dict[tuple[bool, bool, bool], int]:
    """Census of weight-k dual codewords by the zero pattern of their tail.

    Keys are (c_n != 0, c_{n+1} != 0, c_{n+2} != 0) over the three appended
    coordinates (the two mixing columns and the b column).  With nonzero
    evaluation points, patterns with both mixing coordinates nonzero, with
    only the b coordinate nonzero, or with an all-zero tail carry no
    codewords, and each surviving pattern matches its term of
    min_weight_census (the module docstring's proof).  The walk
    is the dual itself, q**(n+3-k) codewords: BudgetExceeded above ``budget``,
    before any row reduction.

    The walk's masks cover the dual's free columns only, and the three tail
    columns are the last of them.  The dual's reduced form pivots on the first
    columns that raise its rank, so all three tail columns are free exactly when
    the first n columns have the dual's full rank n+3-k: when no nonzero dual
    codeword is supported on the tail alone.  Such a codeword would be a linear
    relation among the three tail columns of G, and they are independent: the b
    column holds b != 0 at row 0 (t = 0) and 0 elsewhere, and the mixing columns
    hold the columns of the nonsingular M at rows k-2 and k-1 (k >= 3) and 0 at
    row 0.  Should a tail column still be a pivot, InconsistentInput.
    """
    _require_shape(params)
    n, k, q = params.n, params.k, params.q
    if q ** (params.length - k) > budget:
        raise BudgetExceeded(q ** (params.length - k), budget)
    dual = egrl_code(params).dual()
    if dual.pivots[-1] >= n:
        raise InconsistentInput(f"the dual pivots on tail column {dual.pivots[-1]}")
    counts = {pat: 0 for pat in _TAIL_PATTERNS}
    # Scaling preserves the weight and the tail zero pattern, so each
    # enumerated scalar class stands for q-1 codewords.
    for mask, weights in dual.codeword_blocks():
        tails = mask[weights == k, -3:]
        idx = tails[:, 0] * 4 + tails[:, 1] * 2 + tails[:, 2]
        for pat, c in zip(_TAIL_PATTERNS, np.bincount(idx, minlength=8)):
            counts[pat] += (q - 1) * int(c)
    return counts
