"""Exact arithmetic in GF(p^r), plus the quadratic-residue and
power-residue subsets feeding the Paley and Peisert connection sets.

Elements are coefficient tuples of length r, constant term first; the same
convention maps elements onto residue tuples of Z_p^r.  The field modulus is
always the lexicographically smallest monic irreducible polynomial of its
degree, so every (p, r) names one reproducible field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt
from typing import Optional, Sequence

from .graphs import check_order_budget
from .groups import AbelianGroup

FieldElement = tuple[int, ...]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division.  Callers factor q - 1 for a
    field within the desk-scale budget and SRG eigenvalue gaps at most the
    vertex count, so n is small and trial division is exact and cheap."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


#: prime_power_decomposition tries divisors below this bound, then roots.
TRIAL_DIVISION_BOUND = 2**16
#: The first 13 primes as Miller-Rabin bases decide primality exactly below
#: this limit (Sorenson and Webster, 2017).
MILLER_RABIN_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _passes_miller_rabin(n: int) -> bool:
    """Strong probable-prime test of odd n > 41 to every base; False proves
    n composite at any size, True proves it prime below MILLER_RABIN_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, r: int) -> int:
    """floor(n^(1/r)) for n >= 1 by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


def prime_power_decomposition(q: int) -> Optional[tuple[int, int]]:
    """Return (p, r) with q = p^r, or None if q is not a prime power.

    The smallest prime factor is sought by trial division below
    TRIAL_DIVISION_BOUND; q is then a prime power exactly when it is a power
    of that factor.  When there is none, every prime factor exceeds the bound,
    and q is a prime power exactly when the root of its largest perfect power
    is prime, which Miller-Rabin decides; a root that passes it at or above
    MILLER_RABIN_LIMIT raises ValueError.
    """
    if q < 2:
        return None
    for d in range(2, min(TRIAL_DIVISION_BOUND, isqrt(q) + 1)):
        if q % d == 0:
            r = 0
            while q % d == 0:
                q //= d
                r += 1
            return (d, r) if q == 1 else None
    if q < TRIAL_DIVISION_BOUND**2:
        return q, 1
    # every prime factor exceeds 2^16, so an r-th root needs r < bits / 16
    for r in range((q.bit_length() - 1) // 16, 0, -1):
        root = _integer_root(q, r)
        if root**r == q:
            break
    if not _passes_miller_rabin(root):
        return None
    if root >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"cannot decide whether {q} is a prime power: {root} is beyond the exact primality range"
        )
    return root, r


def is_prime(n: int) -> bool:
    """Exact below MILLER_RABIN_LIMIT; a larger n that passes Miller-Rabin
    raises ValueError (see prime_power_decomposition)."""
    return prime_power_decomposition(n) == (n, 1)


# --- polynomial arithmetic over Z_p (constant term first) --------------------


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = a
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        rem = _poly_trim(rem)
    return quot, rem


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Exhaustive divisibility check by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


def _smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lex-smallest monic irreducible of degree r (lex on constant-first tuples)."""
    for coeffs in itertools.product(range(p), repeat=r):
        candidate = list(coeffs) + [1]
        if _is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible polynomial of degree {r} over Z_{p}")


def poly_str(coeffs: Sequence[int]) -> str:
    """Human form like "x^2+1" (constant-first input)."""
    terms = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            x = "x" if d == 1 else f"x^{d}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(reversed(terms)) if terms else "0"


# --- the field ----------------------------------------------------------------


@dataclass(frozen=True)
class FiniteField:
    """GF(p^r) as Z_p[x] modulo a fixed monic irreducible of degree r."""

    p: int
    r: int
    modulus: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def zero(self) -> FieldElement:
        return (0,) * self.r

    @property
    def one(self) -> FieldElement:
        return (1,) + (0,) * (self.r - 1)

    def _check(self, a: FieldElement) -> None:
        if len(a) != self.r or any(not 0 <= c < self.p for c in a):
            raise ValueError(f"{a} is not a reduced element of GF({self.q})")

    # --- arithmetic ---------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return tuple((-x) % self.p for x in a)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        prod = _poly_mul(a, b, self.p)
        _, rem = _poly_divmod(prod, self.modulus, self.p)
        return tuple(rem) + (0,) * (self.r - len(rem))

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        self._check(a)
        if e < 0:
            return self.pow(self.inverse(a), -e)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inverse(self, a: FieldElement) -> FieldElement:
        self._check(a)
        if a == self.zero:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.q})")
        # Extended Euclid on (a, modulus) over Z_p[x].
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, rem = _poly_divmod(r0, r1, self.p)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim(
                [
                    (x - y) % self.p
                    for x, y in itertools.zip_longest(
                        s0, _poly_mul(q, s1, self.p), fillvalue=0
                    )
                ]
            )
        # r0 is now a unit constant gcd.
        scale = pow(r0[0], -1, self.p)
        inv = [(scale * c) % self.p for c in s0]
        return tuple(inv) + (0,) * (self.r - len(inv))

    # --- enumeration and coordinates ----------------------------------------

    def element_of(self, idx: int) -> FieldElement:
        """Mixed-radix enumeration: index = c0*p^(r-1) + ... + c_{r-1}."""
        if not 0 <= idx < self.q:
            raise ValueError(f"index {idx} out of range for GF({self.q})")
        digits = []
        for _ in range(self.r):
            idx, d = divmod(idx, self.p)
            digits.append(d)
        return tuple(reversed(digits))

    def index_of(self, a: FieldElement) -> int:
        self._check(a)
        idx = 0
        for c in a:
            idx = idx * self.p + c
        return idx

    def elements(self) -> list[FieldElement]:
        return [self.element_of(i) for i in range(self.q)]

    def additive_group(self) -> AbelianGroup:
        """Z_p^r; coords(a) is the coefficient tuple itself, so the map
        FieldElement -> GroupElement is the identity on tuples and is additive."""
        return AbelianGroup((self.p,) * self.r)

    def coords(self, a: FieldElement) -> tuple[int, ...]:
        self._check(a)
        return a

    def from_coords(self, t: Sequence[int]) -> FieldElement:
        a = tuple(t)
        self._check(a)
        return a

    # --- multiplicative structure --------------------------------------------

    def multiplicative_order(self, a: FieldElement) -> int:
        self._check(a)
        if a == self.zero:
            raise ZeroDivisionError("0 has no multiplicative order")
        m = self.q - 1
        for ell in factorize(self.q - 1):
            while m % ell == 0 and self.pow(a, m // ell) == self.one:
                m //= ell
        return m

    def primitive_element(self) -> FieldElement:
        """First element in enumeration order with multiplicative order q-1."""
        a = self._cache.get("primitive")
        if a is None:
            for idx in range(1, self.q):
                cand = self.element_of(idx)
                if self.multiplicative_order(cand) == self.q - 1:
                    a = cand
                    break
            else:  # pragma: no cover - a generator always exists
                raise AssertionError("no primitive element found")
            self._cache["primitive"] = a
        return a

    def squares(self) -> frozenset[FieldElement]:
        """Nonzero squares; for odd q there are (q-1)/2 of them."""
        sq = self._cache.get("squares")
        if sq is None:
            sq = frozenset(
                self.mul(a, a) for a in (self.element_of(i) for i in range(1, self.q))
            )
            self._cache["squares"] = sq
        return sq

    def peisert_set(self, generator: Optional[FieldElement] = None) -> frozenset[FieldElement]:
        """{a^i : i mod 4 in {0, 1}} for a primitive a; needs p = 3 mod 4, r even."""
        if self.p % 4 != 3:
            raise ValueError(
                f"Peisert set requires p = 3 mod 4, got p = {self.p} = {self.p % 4} mod 4"
            )
        if self.r % 2 != 0:
            raise ValueError(f"Peisert set requires even extension degree, got r = {self.r}")
        a = self.primitive_element() if generator is None else generator
        if generator is not None and self.multiplicative_order(a) != self.q - 1:
            raise ValueError(f"override generator {a} is not primitive in GF({self.q})")
        out = set()
        x = self.one
        for i in range(self.q - 1):
            if i % 4 in (0, 1):
                out.add(x)
            x = self.mul(x, a)
        return frozenset(out)

    def __str__(self) -> str:
        return f"GF({self.q})"


def make_field(p: int, r: int) -> FiniteField:
    """Deterministic GF(p^r) with the lex-smallest irreducible modulus."""
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")
    check_order_budget("field", p**r)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return FiniteField(p, r, _smallest_irreducible(p, r))
