"""Paley, Peisert, Davis constructions and the order feasibility predicate."""

import pytest

from cayleycert.cayley import build_cayley, validate_connection_set
from cayleycert.families import (
    _fourth_root,
    davis,
    paley,
    paley_type_order_feasible,
    peisert,
)
from cayleycert.graphs import check_srg, diameter

from test_graphs import edge_pairs
from test_groups import oracle_cyclic_subgroup, oracle_neg, oracle_order


class TestPaley:
    def test_paley5_is_c5(self):
        rep = paley(5)
        g = build_cayley(rep.connection_set)
        assert check_srg(g).params.as_tuple() == (5, 2, 0, 1)
        assert edge_pairs(g) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_paley13_set(self):
        rep = paley(13)
        assert {g[0] for g in rep.connection_set.elements} == {1, 3, 4, 9, 10, 12}
        assert check_srg(build_cayley(rep.connection_set)).params.as_tuple() == (13, 6, 2, 3)

    def test_paley9(self):
        rep = paley(9)
        assert rep.group.factors == (3, 3)
        assert rep.field_info["modulus"] == [1, 0, 1]
        assert check_srg(build_cayley(rep.connection_set)).params.as_tuple() == (9, 4, 1, 2)

    @pytest.mark.parametrize("q", [5, 9, 13, 25, 49])
    def test_conference_parameters(self, q):
        rep = paley(q)
        t = (q - 1) // 4
        res = check_srg(build_cayley(rep.connection_set))
        assert res.params.as_tuple() == (4 * t + 1, 2 * t, t - 1, t)
        assert res.params.conference_t == t

    def test_rejects(self):
        with pytest.raises(ValueError):
            paley(7)  # 7 = 3 mod 4
        with pytest.raises(ValueError):
            paley(12)  # not a prime power

    def test_set_size(self):
        for q in (5, 9, 13, 25):
            assert paley(q).connection_set.size == (q - 1) // 2


class TestPeisert:
    def test_peisert9_set(self):
        rep = peisert(9)
        # powers 0, 1, 4, 5 of x + 1 modulo x^2 + 1 over Z_3: 1, x + 1, 2, 2x + 2
        want = {(1, 0), (1, 1), (2, 0), (2, 2)}
        assert rep.connection_set.elements == want
        assert check_srg(build_cayley(rep.connection_set)).params.as_tuple() == (9, 4, 1, 2)
        assert rep.field_info["primitive_element"] == [1, 1]

    def test_peisert49(self):
        rep = peisert(49)
        assert rep.connection_set.size == 24
        assert check_srg(build_cayley(rep.connection_set)).params.as_tuple() == (
            49,
            24,
            11,
            12,
        )

    def test_rejects(self):
        with pytest.raises(ValueError):
            peisert(13)  # p = 1 mod 4
        with pytest.raises(ValueError):
            peisert(27)  # odd degree
        with pytest.raises(ValueError):
            peisert(18)  # not a prime power


class TestDavis:
    def test_davis3(self):
        rep = davis(3)
        assert rep.group.factors == (9, 9)
        assert rep.connection_set.size == 40
        assert rep.notes["c_size"] == 24  # (p^2-1)/2 * (p^2-p)
        assert rep.notes["d_size"] == 16  # (p+1)/2 * (p^2-1)
        assert rep.notes["d_generators"] == [[1, 0], [0, 1]]  # trailing range empty

    def test_davis3_graph(self):
        rep = davis(3)
        g = build_cayley(rep.connection_set)
        assert check_srg(g).params.as_tuple() == (81, 40, 19, 20)
        assert diameter(g) == 2

    def test_davis5_counts(self):
        rep = davis(5)
        assert rep.connection_set.size == 312
        assert rep.notes["c_size"] == 12 * 20
        assert rep.notes["d_size"] == 3 * 24
        assert rep.notes["d_generators"] == [[1, 0], [0, 1], [1, 11]]

    def test_davis_c_generators(self):
        rep = davis(3)
        assert rep.notes["c_generators"] == [[1, 1], [1, 2], [1, 3], [3, 1]]

    def test_rejects(self):
        with pytest.raises(ValueError):
            davis(2)
        with pytest.raises(ValueError):
            davis(9)

    def test_group_order_budget(self):
        # p^4 is checked before the trial-division primality test of p
        assert davis(7).connection_set.size == (7**4 - 1) // 2
        with pytest.raises(ValueError, match="budget"):
            davis(11)

    def test_inverse_closed_identity_free(self):
        for p in (3, 5):
            conn = davis(p).connection_set
            G = conn.group
            assert G.identity not in conn.elements
            assert all(oracle_neg(G, g) in conn.elements for g in conn.elements)

    def test_subgroup_partition_reasoning(self):
        # order-p^2 elements of distinct order-p^2 cyclic subgroups are distinct
        rep = davis(3)
        G = rep.group
        gens = [tuple(g) for g in rep.notes["c_generators"]]
        covered = set()
        for gen in gens:
            members = {
                x for x in oracle_cyclic_subgroup(G, gen) if oracle_order(G, x) == 9
            }
            assert len(members) == 6  # phi(9)
            assert not (covered & members)
            covered |= members


class TestFamiliesHalfSize:
    def test_all_families(self):
        for rep in (paley(13), paley(9), peisert(9), peisert(49), davis(3)):
            n = rep.group.order
            assert rep.connection_set.size == (n - 1) // 2
            # revalidation is a no-op but proves the invariants hold
            validate_connection_set(rep.group, rep.connection_set.elements)


class TestOrderFeasibility:
    def test_examples(self):
        ok, reason = paley_type_order_feasible(81)
        assert ok and "prime power" in reason
        ok, reason = paley_type_order_feasible(45)
        assert not ok
        ok, reason = paley_type_order_feasible(5625)
        assert ok and "9 n^4" in reason

    def test_large_fourth_powers(self):
        # m ** 0.25 in floating point is off by far more than one here
        n = 15**20
        assert paley_type_order_feasible(n**4) == (True, f"n^4 with odd n = {n} > 1")
        assert paley_type_order_feasible(9 * n**4) == (True, f"9 n^4 with odd n = {n} > 1")
        for m in (n**4, 9 * n**4):
            assert _fourth_root(m - 1) is None and _fourth_root(m + 1) is None
        assert _fourth_root(n**4) == n

    def test_orders_without_small_factorization(self):
        # trial division of 3^41 + 2 or of the whole order never finishes
        n = 3**41 + 2
        assert paley_type_order_feasible(9 * n**4) == (True, f"9 n^4 with odd n = {n} > 1")
        assert paley_type_order_feasible(n**4) == (True, f"n^4 with odd n = {n} > 1")
        assert not paley_type_order_feasible(1000000007 * 1000000009)[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            paley_type_order_feasible(0)

    def test_brute_force_classification(self):
        # independent oracle: sieve-based prime powers and direct n^4 / 9n^4 sets
        limit = 10**4
        sieve = [True] * (limit + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, limit + 1):
            if sieve[i]:
                for j in range(i * i, limit + 1, i):
                    sieve[j] = False
        primes = [i for i in range(limit + 1) if sieve[i]]
        prime_powers_1mod4 = set()
        for p in primes:
            v = p
            while v <= limit:
                if v % 4 == 1:
                    prime_powers_1mod4.add(v)
                v *= p
        fourth = {n**4 for n in range(3, 11, 2) if n**4 <= limit}
        nine_fourth = {9 * n**4 for n in range(3, 11, 2) if 9 * n**4 <= limit}
        expected = prime_powers_1mod4 | fourth | nine_fourth
        for m in range(1, limit + 1):
            assert paley_type_order_feasible(m)[0] == (m in expected), m
