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
subset-sum DP and code enumeration): ``translate`` sums rows of a lazily
built s*p*q digit table (prime fields add mod q), and ``add_table`` stacks
all q of its rows.  Field orders are capped at q <= 2**16 (``MAX_ORDER``).
At q = 2**16 a first build, default-modulus search included, takes
0.03-0.06 s and 12 MiB (21 MiB peak while building) (2-vCPU Xeon, Python 3.11).

The antilog table also judges the modulus: f is accepted exactly when g's
q-1 powers are the q-1 nonzero codes, so that every nonzero residue is a
unit.  For a reducible f the search for g stops within 2*p**(s//2) order
tests: f's lowest-degree monic factor is a zero divisor, none of whose
powers is 1 (its M_a is singular), and its code is below that bound
(0.06-0.12 s for a reducible degree-16 modulus over GF(2)).

Each field is built once per process.  The default-modulus search is
memoized by (p, s), and the tables by (p, s, modulus) with the modulus
resolved, so ``FieldCtx(3, 2)`` and ``FieldCtx(3, 2, (2, 1, 1))`` share one
entry; every ``FieldCtx(...)``, ``from_order`` and ``from_text`` call binds
the entry's tables (the lazily built digit and addition tables included)
instead of building them again.  Only successful builds are kept: a
reducible, non-monic or composite request is judged again, and raises,
every time.  The memo keeps at most 64 MiB of tables (``_MEMO_BYTES``;
numpy bytes plus 40 bytes per list entry) and evicts the least recently
used field first.  The worst single field, q = 2**16, counts 11.5 MiB
(15.5 MiB with its digit table); a first ``from_order(65536)`` takes
0.06 s, a repeat 0.01 ms.  A field larger than the whole budget is not
kept, but its contexts still hold their tables.  Contexts are distinct,
immutable objects that compare by (p, s, modulus), safe to share across
threads; the shared tables are read-only.  Elements are plain integer codes.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

MAX_ORDER = 1 << 16  # largest supported field order q
_MAX_DEGREE = MAX_ORDER.bit_length() - 1  # |p|**s > MAX_ORDER for every |p| >= 2 beyond it
_MEMO_BYTES = 64 << 20  # table bytes the field memo keeps across fields
_LIST_ENTRY_BYTES = 40  # a list slot (8) and its int object (32), as the memo counts them


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


class NoPrimitive(FieldError):
    """No primitive element exists (only for q = 2)."""


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
    """The arithmetic tables of one field, shared by all its contexts.

    Built once per key (p, s, modulus) by ``FieldCtx._tabulate`` and never
    changed, except that the digit and addition tables are filled in on
    first use (``_FieldMemo.keep``).  The numpy arrays are read-only.
    ``nbytes`` counts the numpy bytes plus _LIST_ENTRY_BYTES per list entry.
    """

    __slots__ = ("key", "exp", "log", "zech", "log_m1", "np_exp", "np_log", "digit", "add",
                 "nbytes")

    def __init__(self, key: tuple, np_exp: np.ndarray, np_log: np.ndarray, zech: np.ndarray):
        np_exp.flags.writeable = np_log.flags.writeable = False
        self.key, self.np_exp, self.np_log = key, np_exp, np_log
        self.exp, self.log, self.zech = np_exp.tolist(), np_log.tolist(), zech.tolist()
        self.log_m1 = self.log[key[0] - 1]  # -1 has code p-1
        self.digit = self.add = None
        entries = len(self.exp) + len(self.log) + len(self.zech)
        self.nbytes = np_exp.nbytes + np_log.nbytes + _LIST_ENTRY_BYTES * entries


class _FieldMemo:
    """Field construction memoized per process (see the module docstring).

    Default moduli are kept by (p, s) and never evicted.  Tables are kept
    by (p, s, modulus), least recently used first, and evicted from that
    end while their bytes exceed ``budget``.  One lock serialises every
    build and lookup, so each field is built once however many threads ask.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.RLock()  # add_table's build reads the digit table
        self._moduli: dict[tuple[int, int], tuple[int, ...]] = {}
        self._tables: OrderedDict[tuple, _Tables] = OrderedDict()
        self._bytes = 0

    def default_modulus(self, p: int, s: int) -> tuple[int, ...]:
        with self._lock:
            if (p, s) not in self._moduli:
                self._moduli[p, s] = _default_modulus(p, s)
            return self._moduli[p, s]

    def tables(self, key: tuple, build) -> _Tables:
        """The tables for key, built by ``build()`` when missing; a build
        that raises (a reducible modulus) keeps nothing."""
        with self._lock:
            tables = self._tables.pop(key, None)
            if tables is None:
                tables = build()
                self._bytes += tables.nbytes
            self._tables[key] = tables
            self._evict()
            return tables

    def keep(self, tables: _Tables, name: str, build) -> np.ndarray:
        """The lazily built table ``name`` of tables: ``build()`` once, read-only."""
        value = getattr(tables, name)
        if value is not None:
            return value
        with self._lock:
            value = getattr(tables, name)
            if value is None:
                value = build()
                value.flags.writeable = False
                setattr(tables, name, value)
                tables.nbytes += value.nbytes
                if self._tables.get(tables.key) is tables:
                    self._bytes += value.nbytes
                    self._evict()
            return value

    def _evict(self):
        while self._bytes > self.budget:
            self._bytes -= self._tables.popitem(last=False)[1].nbytes


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
        self.p = p
        self.s = s
        self.q = p**s
        if s == 1:
            if modulus is not None and tuple(modulus) != (0, 1):
                raise ValueError("prime fields take the placeholder modulus (0, 1)")
            self.modulus = (0, 1)
        elif modulus is None:
            self.modulus = _MEMO.default_modulus(p, s)
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
        return cls(p, s, None if s == 1 else mod)

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
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        # 1 + g**d only changes the constant digit of g**d.
        one_plus = exp - exp % p + (exp + 1) % p
        zech = np.where(one_plus == 0, -1, log[one_plus])
        # exp is stored twice over so that exp[la + lb] needs no modulo.
        return _Tables((p, s, f), np.concatenate([exp, exp]), log, zech)

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

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroInverse("0 has no multiplicative inverse")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- enumeration -----------------------------------------------------------

    def elements(self) -> list[int]:
        """Codes of all q elements, ascending."""
        return list(range(self.q))

    def units(self) -> list[int]:
        """Codes of the q-1 nonzero elements, ascending."""
        return list(range(1, self.q))

    def primitive_element(self) -> int:
        """Smallest-code element of multiplicative order q-1."""
        if self.q == 2:
            raise NoPrimitive("GF(2) has a trivial unit group")
        return self._exp[1]

    def generator_powers(self) -> list[int]:
        """[w**0, w**1, ..., w**(q-2)] for the smallest-code primitive w."""
        return self._exp[: self.q - 1]

    # -- vectorized tables (internal; used by enumeration and the DP) ---------

    def translate(self, y):
        """The row [t + y for t in range(q)] for a code y; for an int array
        of codes, their rows stacked, shape (len(y), q).

        Prime fields add mod q.  Otherwise the uint16 digit table
        D[d, v, t] = ((digit_d(t) + v) mod p) * p**d (s*p*q entries, 4 MiB
        at q = 2**16) is built on first use, and the row is the sum of
        D[d, digit_d(y)] over d.
        """
        p, s = self.p, self.s
        table = _MEMO.keep(self._tables, "digit", self._digit_table)
        if s == 1:
            return (table + y) % p if isinstance(y, int) else np.add.outer(y, table) % p
        out = table[0, y % p] + table[1, y // p % p]
        for d in range(2, s):
            out += table[d, y // p**d % p]
        return out

    def _digit_table(self) -> np.ndarray:
        p, t = self.p, np.arange(self.q)
        if self.s == 1:
            return t
        # Every term and every row sum is a code below q <= 2**16.
        wd = (p ** np.arange(self.s))[:, None, None]
        return ((t // wd + np.arange(p)[:, None]) % p * wd).astype(np.uint16)

    def add_table(self) -> np.ndarray:
        """q-by-q uint16 numpy table with ADD[a, b] = a + b (2*q*q bytes)."""
        return _MEMO.keep(self._tables, "add", lambda: self.translate(
            np.arange(self.q)).astype(np.uint16, copy=False))

    def multiples(self, vec: Sequence[int]) -> np.ndarray:
        """q-by-len(vec) uint16 numpy array whose row f is f * vec."""
        v = np.asarray(vec, dtype=np.int64)
        exp, log = self._tables.np_exp, self._tables.np_log
        out = exp[log[:, None] + log[v][None, :]].astype(np.uint16)
        out[0] = 0
        out[:, v == 0] = 0
        return out


_MEMO = _FieldMemo(_MEMO_BYTES)
