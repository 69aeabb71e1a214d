"""Counting m-element subsets of a field domain with a prescribed sum.

Two independent routes:

* :func:`subset_row` -- dynamic programming over (elements, subset size,
  partial field sum) on the full field, the units or any duplicate-free
  element list; :func:`count_dp`, the oracle, reads one cell of it.
* :func:`count_li_wan` -- the closed forms for the full field and the unit
  domain.  Always equals ``count_dp`` on those domains.

:func:`find_subset` returns the greedy witness.  On all of F_q or F_q^*,
in any order, Li-Wan picks the first target reached and, for m <= n/2,
``_whole_field_witness`` writes the witness down: the first m-2 elements
and the first pair after them that completes the sum, as a set A of
n-m+2 >= (q+3)/2 elements shares at least 3 with t - A (its docstring has
the proof and the one characteristic-2 exception).  At most two scans, O(n + m)
field operations, no table.  Past n/2 that count fails, and an
exclude-first search on sorted units must exhaust whole subtrees with no
witness (GF(4096), m = 4088: no hit in 0.75 s, the DP 0.46 s); there and on
other domains the DP below finds the witness.

One numpy DP serves counting, existence and the other witnesses.  It
walks the n domain elements in reverse and updates all subset sizes at
once, T[1:] += T[:-1][:, t - x], on one (m+1)-by-q-by-limbs table, t - x
being the field's translation row for -x (``FieldCtx.translate``).  Its
final row holds every target b, so one pass per size answers them all:
subset_row turns limbs into a Python integer only for the cells read, and
_dp_witness recovers the greedy witness of the first target reached.
Every pass runs at size s = min(m, n-m): an m-subset sums to b exactly
when its complement, an (n-m)-subset, sums to sum(domain) - b.  Exact
counts are carry-save base-2**32 limbs in uint64, limbs =
ceil(log2 C(n, s) / 32), normalised every 30 steps; existence is bool
with one limb (+ is logical or).

A count pass holds (s+1)*q*limbs*8 bytes and keeps its final row only.
The existence pass of _dp_witness keeps every seg-th table of (s+1)*q
bytes, seg = isqrt(n)+1; only when a witness exists does recovery
recompute the tables one segment at a time from those checkpoints, left
to right: n//seg + seg + 2 tables held and two passes of work (q = 4096,
s = 100: about 80 MiB peak, not 1.6 GiB).  Both raise
:class:`TableTooLarge`, before allocating, when these tables would pass
the field module's ``MAX_TABLE_BYTES`` = 1 GiB.

Counts are Python integers; the division by q inside the closed forms is
always exact, and checked: a remainder raises InconsistentInput.  Size 0:
N(0, 0) = 1 and N(0, b) = 0 for b != 0, as the closed forms give at m = 0.
"""

from __future__ import annotations

import operator
from math import comb, isqrt
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .field import FieldCtx, TableTooLarge, require_table_bytes
from .linear import InconsistentInput

FULL = "full"  # the whole field F_q
STAR = "star"  # the nonzero elements F_q^*

Domain = Union[str, Sequence[int]]


class SubsetSumError(Exception):
    """Bad subset-sum input."""


class DomainSize(SubsetSumError):
    """Subset size outside [0, |domain|]."""


def _domain_codes(ctx: FieldCtx, domain: Domain, m: int, targets: Sequence[int] = ()
                  ) -> tuple[Sequence[int], int, list[int]]:
    if isinstance(domain, str):
        if domain not in (FULL, STAR):
            raise ValueError(f"unknown domain {domain!r} (use 'full', 'star', or a code list)")
        codes = range(0 if domain == FULL else 1, ctx.q)
    else:
        codes = list(map(ctx._check, domain))
        if len(set(codes)) != len(codes):
            raise ValueError(f"explicit domain must be duplicate-free: {codes}")
    targets, m = list(map(ctx._check, targets)), operator.index(m)
    if not 0 <= m <= len(codes):
        raise DomainSize(f"subset size {m} outside [0, {len(codes)}]")
    return codes, m, targets


# Counts are carry-save base-2**32 numbers along the last table axis.  After
# a normalisation every limb is below 2**33 (a 32-bit remainder plus a carry
# below 2**31); one DP step at most doubles the largest limb, so within
# _NORMALISE_EVERY = 30 steps every limb stays below 2**63 and uint64 never
# wraps.  The top limb never carries: with m <= n/2 a cell holds at most
# max_{j<=m} C(n, j) = C(n, m) < 2**(32 * limbs), and no limb is negative.
_LIMB_BITS = 32
_NORMALISE_EVERY = 30


def _steps(ctx: FieldCtx, codes: Sequence[int], m: int, tbl: np.ndarray, hi: int, lo: int = 0
           ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (i, T_i) for i = hi, hi-1, ..., lo, given T_hi as tbl.

    T_i[j, t] is #(j-subsets of codes[i:] summing to t), in limbs along the
    last axis; a bool table has one limb and + is logical or.  The one
    table is updated in place; copy what must be kept.  Rows below m - i
    can no longer grow into an m-subset and are left stale.
    """
    n = len(codes)
    yield hi, tbl
    for i in range(hi - 1, lo - 1, -1):
        r0, r1 = max(1, m - i), min(n - i, m)
        if r0 <= r1:  # else m = 0 and no row changes
            shift = ctx.translate(ctx.neg(codes[i]))  # column t reads column t - x
            tbl[r0 : r1 + 1] += np.take(tbl[r0 - 1 : r1], shift, axis=1)
        if tbl.shape[-1] > 1 and (n - i) % _NORMALISE_EVERY == 0:
            carry = tbl >> _LIMB_BITS
            tbl &= (1 << _LIMB_BITS) - 1
            tbl[..., 1:] += carry[..., :-1]
        yield i, tbl


def _pass_size(ctx: FieldCtx, codes: Sequence[int], m: int) -> tuple[int, Callable[[int], int]]:
    """min(m, n-m), the size the pass runs at, and the map from a target b to
    the sum it reads: past n/2 the pass's subsets are the complements."""
    if 2 * m <= len(codes):
        return m, lambda b: b
    total = ctx.sum(codes)
    return len(codes) - m, lambda b: ctx.sub(total, b)


def subset_row(ctx: FieldCtx, domain: Domain, m: int) -> Callable[[int], int]:
    """N(m, b), the number of m-subsets of the domain summing to b, for every
    target b from one DP pass, as a function of b; only the final row
    outlives the call."""
    codes, m, _ = _domain_codes(ctx, domain, m)
    m, read = _pass_size(ctx, codes, m)
    limbs = -(-comb(len(codes), m).bit_length() // _LIMB_BITS)
    require_table_bytes((m + 1) * ctx.q * limbs * 8, "DP tables need")
    tbl = np.zeros((m + 1, ctx.q, limbs), np.uint64)
    tbl[0, 0, 0] = 1  # the empty subset
    for _ in _steps(ctx, codes, m, tbl, len(codes)):
        pass
    row = tbl[m].copy()

    def cell(b: int) -> int:
        cells = row[read(ctx._check(b))]
        return sum(int(limb) << _LIMB_BITS * k for k, limb in enumerate(cells))

    return cell


def count_dp(ctx: FieldCtx, domain: Domain, m: int, b: int) -> int:
    """Number of m-element subsets of the domain whose field sum is b."""
    b = ctx._check(b)  # a bad target fails before the DP runs
    return subset_row(ctx, domain, m)(b)


def find_subset(ctx: FieldCtx, domain: Domain, m: int, *targets: int
                ) -> tuple[int, ...] | None:
    """First m-subset (greedy in domain order) summing to the first target,
    in the order given, that any m-subset reaches; None if no target is.

    Deterministic: the witness is the subset a walk over the domain left to
    right builds by including an element whenever a completion still
    exists, so for a sorted domain it is the lexicographically smallest.
    On all of F_q or F_q^*, in any order, count_li_wan stops at the first target
    reached, and for m <= n/2 _whole_field_witness writes the witness down.
    Otherwise one existence DP pass answers the targets and the witness is
    recovered from its checkpoints (_dp_witness).
    """
    codes, m, targets = _domain_codes(ctx, domain, m, targets)
    whole = (FULL if len(codes) == ctx.q else
             STAR if len(codes) == ctx.q - 1 and 0 not in codes else None)
    if whole is not None:
        targets = next(([b] for b in targets if count_li_wan(ctx, whole, m, b)), [])
        if not targets:
            return None
        if 2 * m <= len(codes):
            return _whole_field_witness(ctx, codes, m, targets[0])
    return _dp_witness(ctx, codes, m, targets)


def _dp_witness(ctx: FieldCtx, codes: Sequence[int], m: int, targets: Sequence[int]
                ) -> tuple[int, ...] | None:
    """find_subset by one existence DP pass over checked codes and targets."""
    size, read = _pass_size(ctx, codes, m)
    n, seg, flipped = len(codes), isqrt(len(codes)) + 1, size != m
    require_table_bytes((n // seg + seg + 2) * (size + 1) * ctx.q, "DP tables need")
    tbl = np.zeros((size + 1, ctx.q, 1), bool)
    tbl[0, 0, 0] = True  # the empty subset
    # Checkpoints at seg, 2*seg, ... and n: recovery reads only hi >= 1.
    marks = {i: t.copy() for i, t in _steps(ctx, codes, size, tbl, n)
             if i and i % seg == 0 or i == n}
    b = next((b for b in map(read, targets) if tbl[size, b, 0]), None)
    if b is None:
        return None
    picked, suffix = [], {}
    for i, x in enumerate(codes):
        if len(picked) == m:
            break
        if i % seg == 0:
            # This segment's suffix tables i+1 .. hi, recomputed from the checkpoint at hi.
            hi = min(n, i + seg)
            suffix.clear()
            suffix.update((j, t.copy())
                          for j, t in _steps(ctx, codes, size, marks.pop(hi), hi, i + 1))
        rest = ctx.sub(b, x)
        # The pass's subset (on a flipped pass, the witness's complement) needs size
        # more of codes[i:], summing to b; it has at most i, so no row read is stale.
        # x joins the witness when that subset can be completed with x (flipped: without).
        joins = suffix[i + 1][size, b, 0] if flipped else suffix[i + 1][size - 1, rest, 0]
        if joins:
            picked.append(x)
        if joins != flipped:  # the pass's subset takes x
            size, b = size - 1, rest
    return tuple(picked)


def _whole_field_witness(ctx: FieldCtx, codes: Sequence[int], m: int, b: int
                         ) -> tuple[int, ...]:
    """find_subset's witness on all of F_q or F_q^*, in any order, for
    m <= n/2 and a target b that some m-subset reaches (count_li_wan > 0).

    m = 0 gives () and m = 1 gives (b,).  For m >= 2 the witness is the
    head codes[:m-2] and the first pair codes[j], codes[k], m-2 <= j < k,
    summing to t = b - sum(head).  The exception: if p = 2, m >= 3 and
    t = 0, the head is codes[:m-3] + (codes[m-2],) and the pair comes from
    codes[m-1:].  At most two scans with a q-entry position list: O(n + m)
    field operations and no table.

    Proof that the pair exists.  For a set A of field elements,
    |A & (t - A)| >= 2|A| - q.  First scan: A = codes[m-2:] has
    n - m + 2 >= (q+3)/2 elements (n >= q-1, m <= n/2), so at least three
    x in A have t - x in A.  In odd characteristic only x = t/2 is its own
    partner; in characteristic 2 none is unless t = 0, when every x is.
    So the scan fails only for p = 2, t = 0, and then codes[m-3] cannot
    join the head either (the pair after it would sum to 0).  Second scan:
    A = codes[m-1:] has n - m + 1 >= q/2 + 1 elements and the target moves
    to t + codes[m-3] - codes[m-2] != 0, so some x in A has a partner
    t - x != x in A.  Each head is a prefix of a completable choice, so the
    greedy walk of find_subset takes it, and then the first pair.
    """
    if m < 2:
        return () if m == 0 else (b,)
    pos = [-1] * ctx.q
    for i, x in enumerate(codes):
        pos[x] = i
    start, head = m - 2, list(codes[: m - 2])
    t = ctx.sub(b, ctx.sum(head))
    if ctx.p == 2 and m >= 3 and t == 0:
        start, head[-1] = m - 1, codes[m - 2]
        t = ctx.sub(b, ctx.sum(head))
    for j in range(start, len(codes) - 1):
        k = pos[ctx.sub(t, codes[j])]
        if k > j:
            return (*head, codes[j], codes[k])
    raise InconsistentInput(f"no whole-field witness at q={ctx.q}, n={len(codes)}, m={m}, b={b}")


def count_li_wan(ctx: FieldCtx, domain: str, m: int, b: int) -> int:
    """Closed-form subset-sum count for the 'full' or 'star' domain.

    For the unit domain:
        N(m, b) = (1/q) * [ C(q-1, m) + (-1)**(m + m//p) * v(b) * C(q/p - 1, m//p) ]
    and for the full field:
        N(m, b) = (1/q) * C(q, m)                                  if p does not divide m
        N(m, b) = (1/q) * [ C(q, m) + (-1)**(m + m/p) * v(b) * C(q/p, m/p) ]   otherwise
    with v(b) = q-1 if b == 0 else -1.  The division by q is exact.
    """
    if domain not in (FULL, STAR):
        raise ValueError("closed forms exist for the 'full' and 'star' domains only")
    _, m, (b,) = _domain_codes(ctx, domain, m, (b,))  # checks b and 0 <= m <= |domain|
    q, p = ctx.q, ctx.p
    v = q - 1 if b == 0 else -1
    if domain == STAR:
        num = comb(q - 1, m) + (-1) ** (m + m // p) * v * comb(q // p - 1, m // p)
    elif m % p:
        num = comb(q, m)
    else:
        num = comb(q, m) + (-1) ** (m + m // p) * v * comb(q // p, m // p)
    count, rem = divmod(num, q)
    if rem or count < 0:
        raise InconsistentInput(f"closed form broke down at q={q}, domain={domain}, m={m}, b={b}")
    return count
