"""Independent arithmetic the benchmark uses to draw inputs and check outputs.

Nothing here imports egrl: field arithmetic is rebuilt from the modulus
(powers of a primitive element give the log/antilog tables), the subset-sum
count is the Li-Wan closed form written out again, and matrix rank is plain
Gaussian elimination.  Element codes follow the egrl encoding: the element
c_0 + c_1 x + ... of GF(p^s) has code c_0 + c_1 p + ...
"""

from __future__ import annotations

import itertools
from math import comb


def prime_power(q: int) -> tuple[int, int]:
    """(p, s) with q = p**s, or ValueError."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    s, m = 0, q
    while m % p == 0:
        m //= p
        s += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, s


class GF:
    """GF(q) on integer codes with the egrl default modulus.

    The default modulus is the first monic degree-s polynomial, in
    low-degree-first coefficient order, of which x is a primitive element.
    x is primitive modulo f exactly when its powers first return to 1 after
    q-1 steps; that also proves f irreducible, so one walk does both tests.
    """

    def __init__(self, q: int):
        p, s = prime_power(q)
        self.p, self.s, self.q = p, s, q
        if s == 1:
            self.modulus = (0, 1)
            self.exp = next(filter(None, (self._cycle(lambda a, g=g: a * g % p)
                                          for g in range(2, q))), [1])
        else:
            for coeffs in itertools.product(range(p), repeat=s):
                f = coeffs + (1,)
                self.exp = self._cycle(self._times_x(f))
                if self.exp:
                    self.modulus = f
                    break
        self.log = [0] * q
        for i, a in enumerate(self.exp):
            self.log[a] = i

    def _cycle(self, step) -> list[int] | None:
        """Powers 1, g, g^2, ... of the element g that step multiplies by,
        or None when g does not have order q-1."""
        powers = [1]
        a = step(1)
        while a != 1 and len(powers) < self.q - 1:
            powers.append(a)
            a = step(a)
        return powers if a == 1 and len(powers) == self.q - 1 else None

    def _times_x(self, f: tuple[int, ...]):
        """Multiplication by x modulo the monic polynomial f, on codes."""
        p, s, q = self.p, self.s, self.q
        if p == 2:
            bits = sum(c << i for i, c in enumerate(f))
            return lambda a: (a << 1) ^ bits if a >= q >> 1 else a << 1
        top_unit = p ** (s - 1)

        def step(a: int) -> int:
            top, low = divmod(a, top_unit)
            out, mult, rest = 0, 1, low * p
            for i in range(s):
                out += (rest % p - top * f[i]) % p * mult
                rest, mult = rest // p, mult * p
            return out

        return step

    def field_text(self) -> str:
        """The canonical field header egrl writes into its reports."""
        return f"p={self.p} s={self.s} mod={','.join(map(str, self.modulus))}"

    def units(self) -> list[int]:
        return list(range(1, self.q))

    def add(self, a: int, b: int) -> int:
        p, out, mult = self.p, 0, 1
        for _ in range(self.s):
            out += (a % p + b % p) % p * mult
            a, b, mult = a // p, b // p, mult * p
        return out

    def neg(self, a: int) -> int:
        p, out, mult = self.p, 0, 1
        for _ in range(self.s):
            out += (-(a % p)) % p * mult
            a, mult = a // p, mult * p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by the zero element")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % (self.q - 1)]

    def power(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def total(self, codes) -> int:
        acc = 0
        for c in codes:
            acc = self.add(acc, c)
        return acc

    def det2(self, m: list[int]) -> int:
        """Determinant of the row-major 2x2 matrix [m0 m1; m2 m3]."""
        return self.add(self.mul(m[0], m[3]), self.neg(self.mul(m[1], m[2])))

    def matmul_t(self, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
        """a times the transpose of b."""
        return [[self.total(self.mul(x, y) for x, y in zip(ra, rb)) for rb in b] for ra in a]

    def rank(self, rows: list[list[int]]) -> int:
        work = [list(r) for r in rows]
        rank = 0
        cols = len(work[0]) if work else 0
        for c in range(cols):
            piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            inv_lead = self.div(1, work[rank][c])
            lead = [self.mul(inv_lead, x) for x in work[rank]]
            for i in range(rank + 1, len(work)):
                f = work[i][c]
                if f:
                    work[i] = [self.add(x, self.neg(self.mul(f, y))) for x, y in zip(work[i], lead)]
            rank += 1
        return rank


def li_wan(q: int, domain: str, m: int, b: int) -> int:
    """Number of m-subsets of F_q ("full") or F_q^* ("star") summing to b.

    Li and Wan's closed form; v(b) = q-1 for b = 0, else -1.
    """
    p, _ = prime_power(q)
    v = q - 1 if b == 0 else -1
    if domain == "star":
        num = comb(q - 1, m) + (-1) ** (m + m // p) * v * comb(q // p - 1, m // p)
    elif m % p:
        num = comb(q, m)
    else:
        num = comb(q, m) + (-1) ** (m + m // p) * v * comb(q // p, m // p)
    count, rem = divmod(num, q)
    if rem:
        raise ArithmeticError(f"Li-Wan count not integral at q={q} m={m}")
    return count


def special_min_weight_count(gf: GF, k: int, mix: list[int]) -> int:
    """A_{q+2-k} of the special instance on F_q^* with mixing matrix mix.

    Each mixing column s with top entry a_1s != 0 contributes
    (q-1) * [N*(k-1, r_s) + N*(k-2, r_s)], r_s = a_2s / a_1s.
    """
    total = 0
    for s in (0, 1):
        if mix[s]:
            ratio = gf.div(mix[2 + s], mix[s])
            total += (gf.q - 1) * (li_wan(gf.q, "star", k - 1, ratio)
                                   + li_wan(gf.q, "star", k - 2, ratio))
    return total
