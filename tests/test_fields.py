"""GF(p^r) power tables against brute-force polynomial multiplication,
deterministic modulus/generator choices, residue sets."""

import itertools
import math
import random

import pytest

from cayleycert.fields import (
    factorize,
    is_prime,
    make_field,
    poly_str,
    prime_power_decomposition,
)

from test_groups import oracle_add


class TestPrimes:
    def test_is_prime_against_sieve(self):
        limit = 500
        sieve = [True] * (limit + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, limit + 1):
            if sieve[i]:
                for j in range(i * i, limit + 1, i):
                    sieve[j] = False
        for n in range(limit + 1):
            assert is_prime(n) == sieve[n], n

    def test_is_prime_beyond_trial_division(self):
        # Miller-Rabin decides both at once; trial division to the root would not
        assert is_prime(2**61 - 1) is True
        assert is_prime(3825123056546413051) is False  # strong pseudoprime to 9 bases

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(13) == {13: 1}

    def test_prime_power(self):
        assert prime_power_decomposition(49) == (7, 2)
        assert prime_power_decomposition(81) == (3, 4)
        assert prime_power_decomposition(45) is None
        assert prime_power_decomposition(1) is None

    def test_prime_power_against_factorize(self):
        for q in range(1, 5000):
            fac = factorize(q)
            want = next(iter(fac.items())) if len(fac) == 1 else None
            assert prime_power_decomposition(q) == want, q

    def test_prime_power_without_small_factors(self):
        # every prime factor here exceeds the trial-division bound 2^16
        big = 1000000007
        assert prime_power_decomposition(big**3) == (big, 3)
        assert prime_power_decomposition(big * 1000000009) is None
        assert prime_power_decomposition(65537**40) == (65537, 40)
        assert prime_power_decomposition(65537**40 * 65539) is None
        assert prime_power_decomposition((2**61 - 1) ** 2) == (2**61 - 1, 2)
        # a strong pseudoprime to the first nine prime bases, 149491 * 747451 * 34233211
        assert prime_power_decomposition(3825123056546413051) is None
        # Miller-Rabin proves (2^89-1)(2^107-1) composite, but cannot prove 2^89-1 prime
        assert prime_power_decomposition((2**89 - 1) * (2**107 - 1)) is None
        with pytest.raises(ValueError, match="exact primality range"):
            prime_power_decomposition(2**89 - 1)


class TestConstruction:
    def test_modulus_examples(self):
        assert make_field(13, 1).modulus == (0, 1)  # x
        assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1
        assert make_field(7, 2).modulus == (1, 0, 1)  # -1 is a non-square mod 7
        assert poly_str((1, 0, 1)) == "x^2+1"

    def test_gf9_modulus_is_first_irreducible(self):
        # lex-earlier candidates x^2, x^2+x, x^2+2x all have a root in Z_3
        for c0, c1 in [(0, 0), (0, 1), (0, 2)]:
            assert any(
                (x * x + c1 * x + c0) % 3 == 0 for x in range(3)
            ), (c0, c1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            make_field(6, 1)
        with pytest.raises(ValueError):
            make_field(5, 0)
        with pytest.raises(ValueError):
            make_field(101, 3)  # exceeds desk budget

    def test_deterministic(self):
        assert make_field(5, 2).modulus == make_field(5, 2).modulus


def oracle_mul(F, a, b):
    """Schoolbook product of constant-first coefficient tuples, reduced by
    long division by the monic modulus: the arithmetic the power table must
    agree with."""
    prod = [0] * (2 * F.r - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for d in range(len(prod) - 1, F.r - 1, -1):  # x^d = x^(d-r) * (x^r - modulus)
        c = prod[d] % F.p
        for i, m in enumerate(F.modulus):
            prod[d - F.r + i] -= c * m
    return tuple(c % F.p for c in prod[: F.r])


def oracle_powers(F, a):
    """a^0, a^1, ... by repeated multiplication, up to a^(q-2)."""
    x = (1,) + (0,) * (F.r - 1)
    out = []
    for _ in range(F.q - 1):
        out.append(x)
        x = oracle_mul(F, x, a)
    return out


def oracle_order(F, a):
    one = (1,) + (0,) * (F.r - 1)
    x, k = a, 1
    while x != one:
        x, k = oracle_mul(F, x, a), k + 1
    return k


def nonzero_elements(F):
    """Mixed-radix order: constant term most significant."""
    return [a for a in itertools.product(range(F.p), repeat=F.r) if any(a)]


#: GF(5), GF(9), GF(13), GF(25), GF(49) and GF(81).
ORACLE_FIELDS = [(3, 2), (13, 1), (5, 2), (7, 2), (3, 4), (5, 1)]


def rows_of(F):
    return [tuple(row) for row in F.powers.tolist()]


class TestArithmetic:
    """The power table against brute-force polynomial multiplication."""

    def test_gf9_examples(self):
        F = make_field(3, 2)
        x = (0, 1)
        assert oracle_mul(F, x, x) == (2, 0)  # x^2 = -1 = 2
        assert oracle_mul(F, (1, 1), (1, 1)) == (0, 2)  # (x+1)^2 = 2x
        assert rows_of(F)[2] == (0, 2)  # the primitive element is x + 1

    def test_gf13_inverse(self):
        F = make_field(13, 1)
        # 2 is row 1, so its inverse is row 11
        assert rows_of(F)[11] == (7,)
        assert oracle_mul(F, (2,), (7,)) == (1,)
        assert (0,) not in rows_of(F)

    @pytest.mark.parametrize("p,r", ORACLE_FIELDS)
    def test_field_axioms_random(self, p, r):
        F = make_field(p, r)
        rows = rows_of(F)
        m = F.q - 1
        # row i * row j = row (i + j mod q - 1) for every pair
        for i in range(m):
            for j in range(m):
                assert oracle_mul(F, rows[i], rows[j]) == rows[(i + j) % m], (i, j)
        # multiplication by a row distributes over coordinate addition
        rng = random.Random(p * 100 + r)
        for _ in range(60):
            a, b, c = (rng.choice(rows) for _ in range(3))
            b_plus_c = tuple((x + y) % p for x, y in zip(b, c))
            ab, ac = oracle_mul(F, a, b), oracle_mul(F, a, c)
            assert oracle_mul(F, a, b_plus_c) == tuple((x + y) % p for x, y in zip(ab, ac))

    def test_pow(self):
        F = make_field(3, 2)
        a = (1, 1)
        acc = (1, 0)
        for row in rows_of(F):
            assert row == acc
            acc = oracle_mul(F, acc, a)
        assert acc == (1, 0)  # a^8 = 1
        assert oracle_mul(F, a, rows_of(F)[-1]) == (1, 0)  # a^-1 is the last row

    def test_table_is_read_only(self):
        F = make_field(3, 2)
        with pytest.raises(ValueError):
            F.powers[0, 0] = 2


class TestMultiplicativeStructure:
    def test_orders(self):
        F9 = make_field(3, 2)
        assert oracle_order(F9, (0, 1)) == 4  # x^2=2, x^4=1
        assert oracle_order(F9, (1, 0)) == 1
        # row i has order (q - 1) / gcd(i, q - 1)
        for i, row in enumerate(rows_of(F9)):
            assert oracle_order(F9, row) == 8 // math.gcd(i, 8), i

    def test_primitive_elements(self):
        F9 = make_field(3, 2)
        assert F9.primitive == (1, 1)  # x + 1, order 8
        assert oracle_order(F9, (1, 1)) == 8
        F13 = make_field(13, 1)
        assert F13.primitive == (2,)
        # every lex-earlier nonzero element of GF(9) has order <= 4
        for a in [(0, 1), (0, 2), (1, 0)]:
            assert oracle_order(F9, a) <= 4

    @pytest.mark.parametrize("p,r", ORACLE_FIELDS)
    def test_primitive_generates_everything(self, p, r):
        F = make_field(p, r)
        # the primitive element is the first in mixed-radix order of full order
        first = next(a for a in nonzero_elements(F) if oracle_order(F, a) == F.q - 1)
        assert F.primitive == first
        assert F.powers.shape == (F.q - 1, r)
        assert rows_of(F) == oracle_powers(F, first)
        # q - 1 distinct nonzero vectors
        assert set(rows_of(F)) == set(nonzero_elements(F))


def row_set(rows) -> set:
    """The coordinate rows of a field subset as a set of tuples."""
    return set(map(tuple, rows.tolist()))


class TestResidueSets:
    def test_squares_examples(self):
        F13 = make_field(13, 1)
        assert {a[0] for a in F13.squares()} == {1, 3, 4, 9, 10, 12}
        F5 = make_field(5, 1)
        assert {a[0] for a in F5.squares()} == {1, 4}

    @pytest.mark.parametrize("p,r", ORACLE_FIELDS + [(2, 3)])
    def test_squares_subgroup(self, p, r):
        F = make_field(p, r)
        sq = row_set(F.squares())
        assert sq == {oracle_mul(F, a, a) for a in nonzero_elements(F)}
        assert len(sq) == ((F.q - 1) // 2 if p % 2 else F.q - 1)
        for a in sq:
            for b in sq:
                assert oracle_mul(F, a, b) in sq
        if F.q % 4 == 1:
            minus_one = (p - 1,) + (0,) * (r - 1)
            assert minus_one in sq
            assert all(oracle_mul(F, minus_one, s) in sq for s in sq)

    def test_peisert_gf9(self):
        F = make_field(3, 2)
        assert row_set(F.peisert_set()) == {(1, 0), (1, 1), (2, 0), (2, 2)}

    def test_peisert_gf49(self):
        F = make_field(7, 2)
        S = row_set(F.peisert_set())
        assert len(S) == 24
        assert (1, 0) in S and (0, 0) not in S
        assert all(oracle_mul(F, (6, 0), s) in S for s in S)
        # S and the missing power classes partition the nonzero elements
        powers = oracle_powers(F, F.primitive)
        assert S == {x for i, x in enumerate(powers) if i % 4 in (0, 1)}
        rest = {x for i, x in enumerate(powers) if i % 4 in (2, 3)}
        assert S & rest == set()
        assert len(S | rest) == F.q - 1

    def test_peisert_preconditions(self):
        with pytest.raises(ValueError):
            make_field(5, 1).peisert_set()  # p = 1 mod 4
        with pytest.raises(ValueError):
            make_field(3, 1).peisert_set()  # odd degree
        F = make_field(3, 2)
        with pytest.raises(ValueError, match="not primitive"):
            F.peisert_set(generator=(2, 0))  # -1 has order 2
        with pytest.raises(ValueError, match="not primitive"):
            F.peisert_set(generator=(0, 0))
        with pytest.raises(ValueError, match="not a reduced element"):
            F.peisert_set(generator=(5, 1))
        with pytest.raises(ValueError, match="not a reduced element"):
            F.peisert_set(generator=(1,))

    def test_peisert_generator_override(self):
        # every primitive element of GF(9), GF(49) and GF(81) gives its own classes
        for p, r in [(3, 2), (7, 2), (3, 4)]:
            F = make_field(p, r)
            for a in nonzero_elements(F):
                if oracle_order(F, a) == F.q - 1:
                    want = {x for i, x in enumerate(oracle_powers(F, a)) if i % 4 in (0, 1)}
                    assert row_set(F.peisert_set(generator=a)) == want, a


class TestCoordinates:
    @pytest.mark.parametrize("p,r", [(3, 2), (13, 1), (3, 4)])
    def test_additive_isomorphism(self, p, r):
        F = make_field(p, r)
        G = F.additive_group()
        assert G.factors == (p,) * r
        # field addition is coordinatewise mod p, so it is the group's addition
        elems = [G.identity] + rows_of(F)
        for a in elems:
            for b in elems[:9]:
                assert oracle_add(G, a, b) == tuple((x + y) % p for x, y in zip(a, b))
        assert sorted(map(G.index_of, rows_of(F))) == list(range(1, F.q))

    def test_coordinate_example(self):
        F = make_field(3, 2)
        # x + 2 has constant-first coefficients (2, 1); index 2*3 + 1 = 7
        assert (2, 1) in rows_of(F)
        assert F.additive_group().index_of((2, 1)) == 7
