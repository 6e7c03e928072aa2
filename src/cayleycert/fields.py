"""GF(p^r) as the table of powers of one primitive element, plus the
quadratic-residue and power-residue subsets feeding the Paley and Peisert
connection sets.

Elements are coefficient tuples of length r, constant term first; the same
convention maps elements onto residue tuples of Z_p^r.  The field modulus is
always the lexicographically smallest monic irreducible polynomial of its
degree, and the primitive element the first of order q - 1 in mixed-radix
order, so every (p, r) names one reproducible field and power table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Optional, Sequence

import numpy as np

from .graphs import check_order_budget
from .groups import AbelianGroup


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


def _mul_matrix(a: Sequence[int], modulus: Sequence[int], p: int) -> np.ndarray:
    """M_a = sum_i a_i C^i mod p, where C, the companion matrix of the modulus,
    multiplies by x; M_a @ b is then the coordinate vector of a * b."""
    r = len(modulus) - 1
    C = np.eye(r, k=-1, dtype=np.int64)  # x^j -> x^(j+1) for j < r - 1
    C[:, -1] = [-m % p for m in modulus[:r]]  # x^r = -(m_0 + ... + m_(r-1) x^(r-1))
    M = np.zeros((r, r), dtype=np.int64)
    X = np.eye(r, dtype=np.int64)
    for ai in a:
        M = (M + ai * X) % p
        X = X @ C % p
    return M


def _mat_pow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _is_primitive(M: np.ndarray, p: int, q: int) -> bool:
    """An element generates GF(q)* iff its matrix M is nonzero and
    M^((q-1)/l) != I for every prime l dividing q - 1."""
    one = np.eye(len(M), dtype=np.int64)
    return bool(M.any()) and not any(
        np.array_equal(_mat_pow(M, (q - 1) // ell, p), one) for ell in factorize(q - 1)
    )


def _power_table(M: np.ndarray, p: int, q: int) -> np.ndarray:
    """Rows a^0, ..., a^(q-2) for the element a with matrix M, by doubling:
    rows a^(i + 2^k) are rows a^i times M^(2^k)."""
    rows = np.eye(1, len(M), dtype=np.int64)
    while len(rows) < q - 1:
        rows = np.vstack((rows, rows @ M.T % p))
        M = M @ M % p
    rows = rows[: q - 1]
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class FiniteField:
    """GF(p^r) as Z_p[x] modulo a fixed monic irreducible of degree r, held as
    the powers of its primitive element: row i of `powers` is the coordinate
    tuple of primitive^i, constant term first, for i < q - 1."""

    p: int
    r: int
    modulus: tuple[int, ...]
    primitive: tuple[int, ...]
    powers: np.ndarray = field(repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.p**self.r

    def additive_group(self) -> AbelianGroup:
        """Z_p^r; a field element's coordinate tuple is its group element, so
        the sets below are connection sets as they stand."""
        return AbelianGroup((self.p,) * self.r)

    def squares(self) -> np.ndarray:
        """Nonzero squares: the even powers, as rows; (q-1)/2 for odd q."""
        return self.powers[:: gcd(2, self.q - 1)]

    def peisert_set(self, generator: Optional[Sequence[int]] = None) -> np.ndarray:
        """{a^i : i mod 4 in {0, 1}} as rows, a primitive; needs p = 3 mod 4, r even."""
        if self.p % 4 != 3:
            raise ValueError(
                f"Peisert set requires p = 3 mod 4, got p = {self.p} = {self.p % 4} mod 4"
            )
        if self.r % 2 != 0:
            raise ValueError(f"Peisert set requires even extension degree, got r = {self.r}")
        rows = self.powers
        if generator is not None:
            a = tuple(generator)
            if len(a) != self.r or any(not 0 <= c < self.p for c in a):
                raise ValueError(f"{a} is not a reduced element of GF({self.q})")
            M = _mul_matrix(a, self.modulus, self.p)
            if not _is_primitive(M, self.p, self.q):
                raise ValueError(f"override generator {a} is not primitive in GF({self.q})")
            rows = _power_table(M, self.p, self.q)
        return rows[np.arange(self.q - 1) % 4 < 2]

    def __str__(self) -> str:
        return f"GF({self.q})"


def make_field(p: int, r: int) -> FiniteField:
    """Deterministic GF(p^r) with the lex-smallest irreducible modulus."""
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")
    q = p**r
    check_order_budget("field", q)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    modulus = _smallest_irreducible(p, r)
    # the primitive element is the first in mixed-radix order, constant term
    # most significant, whose multiplicative order is q - 1
    for a in itertools.product(range(p), repeat=r):
        M = _mul_matrix(a, modulus, p)
        if _is_primitive(M, p, q):
            return FiniteField(p, r, modulus, a, _power_table(M, p, q))
    raise AssertionError(f"no primitive element in GF({q})")  # pragma: no cover
