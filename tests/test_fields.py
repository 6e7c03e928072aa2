"""GF(p^r) arithmetic, deterministic modulus/generator choices, residue sets."""

import random

import pytest

from cayleycert.fields import (
    factorize,
    is_prime,
    make_field,
    poly_str,
    prime_power_decomposition,
)


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


class TestArithmetic:
    def test_gf9_examples(self):
        F = make_field(3, 2)
        x = (0, 1)
        assert F.mul(x, x) == (2, 0)  # x^2 = -1 = 2
        assert F.mul((1, 1), (1, 1)) == (0, 2)  # (x+1)^2 = 2x

    def test_gf13_inverse(self):
        F = make_field(13, 1)
        assert F.inverse((2,)) == (7,)
        with pytest.raises(ZeroDivisionError):
            F.inverse((0,))

    @pytest.mark.parametrize("p,r", [(3, 2), (13, 1), (5, 2), (7, 2), (3, 4)])
    def test_field_axioms_random(self, p, r):
        F = make_field(p, r)
        rng = random.Random(p * 100 + r)
        elems = F.elements()
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(a, b) == F.mul(b, a)
            if a != F.zero:
                assert F.mul(a, F.inverse(a)) == F.one
        for a in elems:
            assert F.add(a, F.neg(a)) == F.zero
            assert F.mul(a, F.one) == a

    def test_pow(self):
        F = make_field(3, 2)
        a = (1, 1)
        acc = F.one
        for e in range(10):
            assert F.pow(a, e) == acc
            acc = F.mul(acc, a)
        assert F.pow(a, -1) == F.inverse(a)


class TestMultiplicativeStructure:
    def test_orders(self):
        F9 = make_field(3, 2)
        assert F9.multiplicative_order((0, 1)) == 4  # x^2=2, x^4=1
        assert F9.multiplicative_order(F9.one) == 1
        with pytest.raises(ZeroDivisionError):
            F9.multiplicative_order(F9.zero)

    def test_primitive_elements(self):
        F9 = make_field(3, 2)
        assert F9.primitive_element() == (1, 1)  # x + 1, order 8
        assert F9.multiplicative_order((1, 1)) == 8
        F13 = make_field(13, 1)
        assert F13.primitive_element() == (2,)
        # every lex-earlier nonzero element of GF(9) has order <= 4
        for idx in range(1, F9.index_of((1, 1))):
            assert F9.multiplicative_order(F9.element_of(idx)) <= 4

    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (7, 2), (13, 1), (3, 4)])
    def test_primitive_generates_everything(self, p, r):
        F = make_field(p, r)
        a = F.primitive_element()
        seen = set()
        x = F.one
        for _ in range(F.q - 1):
            seen.add(x)
            x = F.mul(x, a)
        assert len(seen) == F.q - 1


class TestResidueSets:
    def test_squares_examples(self):
        F13 = make_field(13, 1)
        assert {a[0] for a in F13.squares()} == {1, 3, 4, 9, 10, 12}
        F5 = make_field(5, 1)
        assert {a[0] for a in F5.squares()} == {1, 4}

    @pytest.mark.parametrize("p,r", [(3, 2), (13, 1), (5, 2), (7, 2), (3, 4)])
    def test_squares_subgroup(self, p, r):
        F = make_field(p, r)
        sq = F.squares()
        assert len(sq) == (F.q - 1) // 2
        for a in sq:
            for b in sq:
                assert F.mul(a, b) in sq
        if F.q % 4 == 1:
            minus_one = F.neg(F.one)
            assert minus_one in sq
            assert all(F.neg(s) in sq for s in sq)

    def test_peisert_gf9(self):
        F = make_field(3, 2)
        assert F.peisert_set() == {(1, 0), (1, 1), (2, 0), (2, 2)}

    def test_peisert_gf49(self):
        F = make_field(7, 2)
        S = F.peisert_set()
        assert len(S) == 24
        assert F.one in S and F.zero not in S
        assert all(F.neg(s) in S for s in S)
        # S and the missing power classes partition the nonzero elements
        a = F.primitive_element()
        rest = {F.pow(a, i) for i in range(F.q - 1) if i % 4 in (2, 3)}
        assert S & rest == set()
        assert len(S | rest) == F.q - 1

    def test_peisert_preconditions(self):
        with pytest.raises(ValueError):
            make_field(5, 1).peisert_set()  # p = 1 mod 4
        with pytest.raises(ValueError):
            make_field(3, 1).peisert_set()  # odd degree
        with pytest.raises(ValueError):
            make_field(3, 2).peisert_set(generator=(2, 0))  # not primitive

    def test_peisert_generator_override(self):
        F = make_field(3, 2)
        other = None
        for idx in range(1, 9):
            cand = F.element_of(idx)
            if F.multiplicative_order(cand) == 8 and cand != F.primitive_element():
                other = cand
                break
        S = F.peisert_set(generator=other)
        assert len(S) == 4 and all(F.neg(s) in S for s in S)


class TestCoordinates:
    @pytest.mark.parametrize("p,r", [(3, 2), (13, 1), (3, 4)])
    def test_additive_isomorphism(self, p, r):
        F = make_field(p, r)
        G = F.additive_group()
        assert G.factors == (p,) * r
        for a in F.elements():
            for b in F.elements()[:9]:
                assert F.coords(F.add(a, b)) == G.add(F.coords(a), F.coords(b))
            assert F.from_coords(F.coords(a)) == a
        assert F.coords(F.zero) == G.identity

    def test_coordinate_example(self):
        F = make_field(3, 2)
        # x + 2 has constant-first coefficients (2, 1); index 2*3 + 1 = 7
        assert F.coords((2, 1)) == (2, 1)
        assert F.index_of((2, 1)) == 7
        assert make_field(13, 1).coords((7,)) == (7,)
