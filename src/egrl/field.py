"""Exact arithmetic for prime fields GF(p) and extension fields GF(p**s).

Field elements are integer codes in ``[0, q)``: the element
``c_0 + c_1*x + ... + c_{s-1}*x**(s-1)`` of GF(p**s) is encoded as
``c_0 + c_1*p + ... + c_{s-1}*p**(s-1)``.  Code 0 is the additive identity
and code 1 the multiplicative identity; for prime fields the code is the
residue itself.  Every public API speaks this encoding, which keeps text
and JSON output byte-stable.

A :class:`FieldCtx` owns the modulus polynomial and two table families,
each the same for every field.  For scalars and for ``multiples``: the
antilog table exp[i] = g**i of the smallest-code primitive element g, its
inverse log, and the Zech logarithms Z[d] = log(1 + g**d) (Huber, 1990), so
that

    g**a + g**b = g**(a + Z[b - a])        (zero when Z[b - a] = -1).

Scalar operations are lookups in these q-sized lists; the tables are built
once, by numpy, on digit vectors: multiplying by a is the GF(p)-linear map
u -> u @ M_a % p, where row j of the s*s matrix M_a holds the digits of
a * x**j (M_x is the companion matrix of the modulus).  The generator search,
the default-modulus search and the antilog doubling all read one list of
squares M_a, M_a**2, M_a**4, ... per candidate.  For numpy addition (the
subset-sum DP and code enumeration): ``translate`` adds a row of the low
digits' translation table to one of the high digits' (``_digit_table``, at
most 3.6 MiB), and ``add_table`` is the outer sum of both tables.  Field
orders are capped at q <= 2**16 (``MAX_ORDER``), and one table build, the DP's,
``add_table``'s or an instance's generator or parity-check matrix (at
``LIST_ENTRY_BYTES`` per entry), at ``MAX_TABLE_BYTES`` = 1 GiB (``TableTooLarge``),
and a closed-form solve's two weight distributions at ``MAX_COUNT_BYTES`` = 128 MiB.

The antilog table also judges the modulus: f is accepted exactly when g's
q-1 powers are the q-1 nonzero codes, so that every nonzero residue is a
unit.  For a reducible f the search for g stops within 2*p**(s//2) order
tests: f's lowest-degree monic factor is a zero divisor, none of whose
powers is 1 (its M_a is singular), and its code is below that bound
(0.06-0.12 s for a reducible degree-16 modulus over GF(2)).

Each field is built once per process, whole (``_tabulate``).  The default
modulus is cached by (p, s) and the tables by (p, s, resolved modulus), so
``FieldCtx(3, 2)``, ``FieldCtx(3, 2, (2, 1, 1))``, ``from_order(9)`` and
``from_text`` all bind one entry.  A failed build (reducible, non-monic,
composite) is not kept and raises every time.  The memo keeps at most
64 MiB (``_MEMO_BYTES``: numpy bytes plus 40 per list entry), evicting the
least recently used field; q = 2**16 counts 10.7 MiB.  A field above the
whole budget is not kept, but its contexts hold their tables.  Contexts
are immutable, compare by (p, s, modulus) and are safe to share across
threads; the tables are read-only.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_ORDER = 1 << 16  # largest supported field order q
MAX_TABLE_BYTES = 1 << 30  # largest table built at once (subset-sum DP, add_table, G, H)
MAX_COUNT_BYTES = 1 << 27  # largest bound on both weight distributions' bytes (closed forms)
_MAX_DEGREE = MAX_ORDER.bit_length() - 1  # |p|**s > MAX_ORDER for every |p| >= 2 beyond it
_MEMO_BYTES = 64 << 20  # table bytes the field memo keeps across fields
LIST_ENTRY_BYTES = 40  # a list slot (8) and its int object (32), as the memo counts them


class FieldError(Exception):
    """Base class for field construction and arithmetic failures."""


class CompositeCharacteristic(FieldError):
    """The requested characteristic is not prime (or q is not a prime power)."""


class NonMonic(FieldError):
    """A supplied modulus polynomial is not monic of the stated degree."""


class ReducibleModulus(FieldError):
    """A supplied modulus polynomial factors over GF(p)."""


class ZeroInverse(FieldError):
    """Multiplicative inversion of the zero element."""


class CtxMismatch(FieldError):
    """Operands belong to different field contexts."""


class TableTooLarge(FieldError):
    """A table would take more than MAX_TABLE_BYTES, or both exact weight
    distributions more than MAX_COUNT_BYTES."""


def require_table_bytes(nbytes: int, tables: str, cap: int | None = None):
    """Refuse a build above ``cap`` (MAX_TABLE_BYTES by default) before allocating;
    ``tables`` reads "DP tables need"."""
    cap = MAX_TABLE_BYTES if cap is None else cap
    if nbytes > cap:
        raise TableTooLarge(f"{tables} {nbytes} bytes, above the cap of {cap}")


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# GF(p)[x]/(f) on digit vectors and multiplication matrices M_a (see the
# module docstring), used only at construction time: M_a = sum_i a_i M_x**i
# and M_ab = M_a M_b.  Entries stay below p, so no product overflows int64
# (s * (p-1)**2 < 2**33).

def _companion(f: tuple[int, ...], p: int) -> np.ndarray:
    # M_x: row j is x**(j+1), and x**s = -(f_0 + ... + f_{s-1} x**(s-1)).
    m = np.eye(len(f) - 1, k=1, dtype=np.int64)
    m[-1] = np.negative(f[:-1]) % p
    return m


def _squares(m: np.ndarray, p: int, q: int) -> list[np.ndarray]:
    # [M, M**2, M**4, ...]: enough for every exponent up to q.
    out = [m]
    for _ in range(q.bit_length() - 1):
        out.append(out[-1] @ out[-1] % p)
    return out


def _power(squares: list[np.ndarray], e: int, p: int) -> np.ndarray:
    # Digits of a**e, e >= 1, from a's squares: row 0 of M_a**e.
    bits = [k for k in range(e.bit_length()) if e >> k & 1]
    u = squares[bits[0]][0]
    for k in bits[1:]:
        u = u @ squares[k] % p
    return u


def _is_generator(squares: list[np.ndarray], p: int, q: int, factors: list[int]) -> bool:
    # Whether no a**((q-1)/r) is 1, r over the prime factors of q-1.  In a
    # field: whether a generates the units.  Zero divisors pass too: their
    # M_a is singular, so no power of it is the identity.
    for r in factors:
        u = _power(squares, (q - 1) // r, p)
        if u[0] == 1 and not u[1:].any():
            return False
    return True


@functools.cache
def _default_modulus(p: int, s: int) -> tuple[int, ...]:
    # Smallest primitive monic degree-s polynomial, coefficients compared
    # low-degree-first, so the generator-power enumeration starts at x.
    # x**q = x and the order test give the unit x order q-1: f is primitive.
    # The constant term leads the comparison, and only a few values can be
    # it: x divides f when c_0 = 0, and for a primitive root g of f the
    # product of its conjugates, (-1)**s c_0 = g**((q-1)/(p-1)), has order
    # p-1, so it is a primitive root mod p.
    q = p**s
    factors, unit_factors = _prime_factors(q - 1), _prime_factors(p - 1)
    leads = [c for c in range(1, p)
             if all(pow((-1) ** s * c, (p - 1) // r, p) != 1 for r in unit_factors)]
    for coeffs in itertools.product(leads, *[range(p)] * (s - 1)):
        f = coeffs + (1,)
        squares = _squares(_companion(f, p), p, q)
        if (_power(squares, q, p) == squares[0][0]).all() and _is_generator(squares, p, q, factors):
            return f
    raise FieldError(f"no primitive polynomial of degree {s} over GF({p})")


class _Tables:
    """One field's tables, shared by all its contexts: built whole by
    ``FieldCtx._tabulate`` and never changed; the numpy arrays are read-only.
    ``nbytes`` counts the numpy bytes plus LIST_ENTRY_BYTES per list entry.
    """

    __slots__ = ("exp", "log", "zech", "log_m1", "np_exp", "np_log", "digit", "nbytes")

    def __init__(self, p: int, np_exp: np.ndarray, np_log: np.ndarray, zech: np.ndarray,
                 digit: tuple[np.ndarray, np.ndarray]):
        for table in (np_exp, np_log, *digit):
            table.flags.writeable = False
        self.np_exp, self.np_log = np_exp, np_log
        self.digit = tuple(t if t.ndim == 2 else sliding_window_view(t, len(t) // 2) for t in digit)
        self.exp, self.log, self.zech = np_exp.tolist(), np_log.tolist(), zech.tolist()
        self.log_m1 = self.log[p - 1]  # -1 has code p-1
        entries = len(self.exp) + len(self.log) + len(self.zech)
        self.nbytes = (np_exp.nbytes + np_log.nbytes + sum(t.nbytes for t in digit)
                       + LIST_ENTRY_BYTES * entries)


class _FieldMemo:
    """Tables by (p, s, modulus), least recently used first, evicted from that end
    while their bytes exceed ``budget``.  One lock serialises every build and
    lookup, so each field is built once however many threads ask.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        self._tables: OrderedDict[tuple, _Tables] = OrderedDict()
        self._bytes = 0

    def tables(self, key: tuple, build) -> _Tables:
        """The tables for key, built by ``build()`` when missing; a failed build keeps nothing."""
        with self._lock:
            tables = self._tables.pop(key, None)
            if tables is None:
                tables = build()
                self._bytes += tables.nbytes
            self._tables[key] = tables
            while self._bytes > self.budget:
                self._bytes -= self._tables.popitem(last=False)[1].nbytes
            return tables


class FieldCtx:
    """Arithmetic context for GF(p**s), q = p**s <= MAX_ORDER.

    Attributes:
        p: prime characteristic.
        s: extension degree (>= 1).
        q: field cardinality p**s.
        modulus: monic degree-s modulus as s+1 coefficients (c_0, ..., c_s);
            the placeholder (0, 1) for prime fields.

    Scalar operations (``add``, ``mul``, ``inv``, ...) take and return
    integer element codes.
    """

    __slots__ = ("p", "s", "q", "modulus", "_tables", "_exp", "_log", "_zech", "_log_m1")

    def __init__(self, p: int, s: int = 1, modulus: Sequence[int] | None = None):
        if s < 1:
            raise ValueError(f"extension degree must be >= 1, got {s}")
        if abs(p) > 1 and s > _MAX_DEGREE or p**s > MAX_ORDER:  # no huge power for a huge s
            raise FieldError(f"field order {p}^{s} exceeds the supported maximum {MAX_ORDER}")
        if _prime_factors(p) != [p]:
            raise CompositeCharacteristic(f"characteristic {p} is not prime")
        self.p, self.s, self.q = p, s, p**s
        if s == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise ValueError("prime fields take the placeholder modulus (0, 1)")
            self.modulus = (0, 1)
        elif modulus is None:
            self.modulus = _default_modulus(p, s)
        else:
            mod = tuple(operator.index(c) % p for c in modulus)
            if len(mod) != s + 1 or mod[-1] != 1:
                raise NonMonic(f"modulus must be monic of degree {s}: {tuple(modulus)}")
            self.modulus = mod
        tables = self._tables = _MEMO.tables((p, s, self.modulus), self._tabulate)
        # The scalar ops' lists, bound here for one attribute lookup each.
        self._exp, self._log, self._zech, self._log_m1 = (
            tables.exp, tables.log, tables.zech, tables.log_m1)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_order(cls, q: int, modulus: Sequence[int] | None = None) -> "FieldCtx":
        """Build GF(q) from a prime-power order, factoring q = p**s."""
        if q < 2:
            raise CompositeCharacteristic(f"field order must be >= 2, got {q}")
        if q > MAX_ORDER:
            raise FieldError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
        factors = _prime_factors(q)
        if len(factors) != 1:
            raise CompositeCharacteristic(f"{q} is not a prime power")
        p = factors[0]
        return cls(p, next(s for s in itertools.count(1) if p**s == q), modulus)

    @classmethod
    def from_text(cls, text: str) -> "FieldCtx":
        """Parse the canonical header form "p=<p> s=<s> mod=<c_0,...,c_s>".

        Anything else -- a missing, repeated or unknown key, or a value that
        is not an integer -- raises FieldError naming that form.
        """
        tokens = [tok.partition("=") for tok in text.split()]
        fields = {key: value for key, sep, value in tokens if sep}
        try:
            if len(tokens) != 3 or sorted(fields) != ["mod", "p", "s"]:
                raise ValueError
            p, s = int(fields["p"]), int(fields["s"])
            mod = tuple(int(c) for c in fields["mod"].split(","))
        except ValueError:
            raise FieldError(
                f'field header must read "p=<p> s=<s> mod=<c_0,...,c_s>", got {text!r}') from None
        return cls(p, s, mod)

    def __str__(self) -> str:
        return f"p={self.p} s={self.s} mod={','.join(map(str, self.modulus))}"

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.q}), {self})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.s, self.modulus))

    # -- digit encoding ------------------------------------------------------

    def digits(self, code: int) -> tuple[int, ...]:
        """Base-p digit vector (c_0, ..., c_{s-1}) of an element code."""
        return tuple(code // self.p**i % self.p for i in range(self.s))

    def _check(self, code: int) -> int:
        """Admit one element code: any integer in [0, q), returned as an int.

        The one range check for codes.  ``operator.index`` admits Python
        and numpy integers and bool, and refuses a float (TypeError) instead
        of truncating it; a code outside [0, q) raises ValueError.
        """
        code = operator.index(code)
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} outside [0, {self.q})")
        return code

    def _tabulate(self) -> _Tables:
        p, s, q, f = self.p, self.s, self.q, self.modulus
        n = q - 1
        factors = _prime_factors(n)
        # M_c = sum_i c_i M_x**i for the digits c_i of a candidate code c.
        comp, xpow = _companion(f, p), [np.eye(s, dtype=np.int64)]
        for _ in range(s - 1):
            xpow.append(xpow[-1] @ comp % p)
        xpow = np.stack(xpow).reshape(s, s * s)
        # For s >= 2 the constants (codes below p) have orders dividing p-1 < q-1.
        for c in range(1 if s == 1 else p, q):
            squares = _squares((np.array(self.digits(c)) @ xpow % p).reshape(s, s), p, q)
            if _is_generator(squares, p, q, factors):
                break
        # Powers of g by doubling: exp[L:2L] = exp[:L] * g**L, where
        # M_{g**L} is g's square squares[k] for L = 2**k.
        pexp = np.zeros((n, s), dtype=np.int64)
        pexp[0, 0] = 1
        for k in range((n - 1).bit_length()):
            size = 1 << k
            step = min(size, n - size)
            pexp[size : size + step] = pexp[:step] @ squares[k] % p
        exp = pexp @ p ** np.arange(s, dtype=np.int64)
        # GF(p)[x]/(f) is a field exactly when g's q-1 powers fill the units.
        if not np.bincount(exp, minlength=q)[1:].all():
            raise ReducibleModulus(f"modulus {f} factors over GF({p})")
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(n)
        # 1 + g**d only changes the constant digit of g**d.
        one_plus = exp - exp % p + (exp + 1) % p
        zech = np.where(one_plus == 0, -1, log[one_plus])
        # exp is stored twice over so that exp[la + lb] needs no modulo, as uint16 for multiples.
        return _Tables(p, np.tile(exp, 2).astype(np.uint16), log, zech, self._digit_table())

    # -- scalar arithmetic on codes -------------------------------------------
    # Codes are trusted to lie in [0, q); inputs are admitted by _check.  log[0] is a
    # placeholder, so every op handles a zero operand first.

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # b - a lies in (-(q-1), q-1), and a negative index d of the (q-1)
        # Zech entries reads Z[d + q - 1], the same exponent mod q-1.
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_m1] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def sum(self, codes: Iterable[int]) -> int:
        return functools.reduce(self.add, codes, 0)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- enumeration -----------------------------------------------------------

    def units(self) -> list[int]:
        """Codes of the q-1 nonzero elements, ascending."""
        return list(range(1, self.q))

    def generator_powers(self) -> list[int]:
        """[w**0, w**1, ..., w**(q-2)] for the smallest-code primitive w."""
        return self._exp[: self.q - 1]

    # -- vectorized tables (internal; used by enumeration and the DP) ---------

    def translate(self, y: int) -> np.ndarray:
        """The uint16 row [t + y for t in range(q)] for a code y: addition carries no
        digit over, so it is the outer sum of y's high and low digits' table rows."""
        low, high = self._tables.digit
        size = low.shape[-1]
        return (high[y // size][:, None] + low[y % size]).reshape(self.q)

    def _digit_table(self) -> tuple[np.ndarray, np.ndarray]:
        # Rows v -> [c + v for c] over the low k = ceil(s/2) digits' n = p**k codes
        # and over the high s-k digits' (times p**k): the n*n table (at most 37**4
        # entries), or for one digit [0..n-1] twice over, read as n+1 windows.
        p, k, out = self.p, -(-self.s // 2), []
        for j, scale in ((k, 1), (self.s - k, p**k)):
            t = np.arange(p**j, dtype=np.uint16)  # every code and sum is below q
            table = (np.concatenate([t, t]) if j <= 1 else
                     sum((t[:, None] // p**d + t // p**d) % p * p**d for d in range(j)))
            out.append(table * scale)
        return tuple(out)

    def add_table(self) -> np.ndarray:
        """q-by-q uint16 numpy table with ADD[a, b] = a + b, built on each call as the
        outer sum of both digit groups' tables: 2*q*q bytes, refused above MAX_TABLE_BYTES."""
        require_table_bytes(2 * self.q**2, "the addition table needs")
        low, high = self._tables.digit
        h, l = high.shape[-1], low.shape[-1]
        return (high[:h, None, :h, None] + low[None, :l, None, :l]).reshape(self.q, self.q)

    def multiples(self, vec: Sequence[int]) -> np.ndarray:
        """q-by-len(vec) uint16 array, row f = f * vec, via an int32 index sum twice its size."""
        v = np.asarray(vec, dtype=np.intp)
        exp, log = self._tables.np_exp, self._tables.np_log
        out = exp[log[:, None] + log[v]]
        out[0] = 0
        out[:, v == 0] = 0
        return out


_MEMO = _FieldMemo(_MEMO_BYTES)
