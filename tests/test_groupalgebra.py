"""Exact group-algebra convolution and the PDS / Schur-ring identity checks."""

import random
import tracemalloc

import numpy as np
import pytest

from cayleycert.cayley import ConnectionSet, validate_connection_set
from cayleycert.families import davis, paley
from cayleycert.graphs import MAX_ORDER, ROW_BLOCK, BudgetError
from cayleycert.groupalgebra import (
    ga_mul,
    verify_mixed_product,
    verify_pds,
    verify_schur_partition,
    verify_srg_equation,
)
from cayleycert.groups import AbelianGroup

from test_groups import ORACLE_GROUPS, oracle_add, oracle_elements, oracle_neg, oracle_sub


def brute_force_difference_counts(G: AbelianGroup, D: set) -> dict:
    """Oracle: count ordered pairs (d1, d2) in D x D with d1 - d2 = g."""
    counts = {}
    for d1 in D:
        for d2 in D:
            g = oracle_sub(G, d1, d2)
            counts[g] = counts.get(g, 0) + 1
    return counts


def random_inverse_closed(G, rng):
    elems = set()
    for g in oracle_elements(G):
        if g == G.identity or g in elems:
            continue
        if rng.random() < 0.5:
            elems.add(g)
            elems.add(oracle_neg(G, g))
    return elems


def indices(G, elements):
    return [G.index_of(g) for g in elements]


class TestBasics:
    def test_indicator(self):
        # X * {e} is the 0/1 indicator vector of X
        Z5 = AbelianGroup((5,))
        assert ga_mul(Z5, indices(Z5, [(1,), (4,)]), [0]).tolist() == [0, 1, 0, 0, 1]
        assert ga_mul(Z5, [], [0]).tolist() == [0] * 5

    def test_duplicate_rejected(self):
        Z5 = AbelianGroup((5,))
        with pytest.raises(ValueError):
            verify_pds(Z5, [1, 1], 0, 0)


class TestConvolution:
    def test_hand_example(self):
        Z5 = AbelianGroup((5,))
        s = indices(Z5, [(1,), (4,)])
        assert ga_mul(Z5, s, s).tolist() == [2, 0, 1, 1, 0]

    def test_identity_element(self):
        Z6 = AbelianGroup((6,))
        g = indices(Z6, [(2,), (5,)])
        assert ga_mul(Z6, g, [0]).tolist() == ga_mul(Z6, [0], g).tolist() == [0, 0, 1, 0, 0, 1]

    def test_whole_group_squared(self):
        G = AbelianGroup((3, 3))
        everything = range(G.order)
        assert ga_mul(G, everything, everything).tolist() == [G.order] * G.order

    def test_commutative_random(self):
        G = AbelianGroup((2, 6))
        rng_np = np.random.default_rng(61)
        for _ in range(20):
            x = np.flatnonzero(rng_np.random(G.order) < 0.5)
            y = np.flatnonzero(rng_np.random(G.order) < 0.5)
            assert np.array_equal(ga_mul(G, x, y), ga_mul(G, y, x))

    def test_negate_support(self):
        Z7 = AbelianGroup((7,))
        neg = Z7.neg_table[indices(Z7, [(1,), (2,)])]
        assert ga_mul(Z7, neg, [0]).tolist() == [0, 0, 0, 0, 0, 1, 1]

    def test_identity_coefficient_counts_set_size(self):
        # coefficient of e in S*S~ is |S| (diagnostic used in witnesses)
        rng = random.Random(67)
        G = AbelianGroup((13,))
        for _ in range(10):
            s = indices(G, random_inverse_closed(G, rng))
            conv = ga_mul(G, s, s)  # inverse-closed: S~ = S
            assert conv[G.index_of(G.identity)] == len(s)

    @pytest.mark.parametrize("factors", [(13,), (2, 4), (3, 3), (2, 2, 2), (9, 9)])
    def test_against_pair_count(self, factors):
        # X*Y coefficient of w = #{(x, y) in X x Y : x + y = w}, counted pair by pair
        G = AbelianGroup(factors)
        elements = oracle_elements(G)
        rng = random.Random(sum(factors))
        for _ in range(10):
            X = [g for g in elements if rng.random() < rng.random()]
            Y = [g for g in elements if rng.random() < 0.3]
            want = [0] * G.order
            for x in X:
                for y in Y:
                    want[G.index_of(oracle_add(G, x, y))] += 1
            got = ga_mul(G, indices(G, X), indices(G, Y))
            assert got.dtype == np.int64
            assert got.tolist() == want

    @pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_index_arrays_against_pair_count(self, factors):
        """Index arrays as the identity checks pass them (lists, int64 and
        int32 arrays), with repeated and empty ones, against the pair count
        of the tuple oracle."""
        G = AbelianGroup(factors)
        elements = oracle_elements(G)
        rng = random.Random(len(elements))

        def draw():  # repeats allowed
            return rng.choices(range(G.order), k=rng.randrange(1, 40))

        cases = [(draw(), np.array(draw(), dtype=t)) for t in (np.int64, np.int32) for _ in "ab"]
        cases += [([], cases[0][1]), (cases[1][0], np.array([], dtype=np.int64)), ([], [])]
        for x, y in cases:
            want = [0] * G.order
            for i in x:
                for j in y:
                    want[G.index_of(oracle_add(G, elements[i], elements[int(j)]))] += 1
            got = ga_mul(G, x, y)
            assert got.dtype == np.int64
            assert got.tolist() == want

    @pytest.mark.parametrize("factors", [(13,), (9, 9), (25, 25)])
    def test_rows_summed_in_blocks_against_pair_count(self, factors):
        """x with repeats on both sides of each ROW_BLOCK boundary: every row
        of every block is summed once."""
        G = AbelianGroup(factors)
        elements = oracle_elements(G)
        rng = random.Random(ROW_BLOCK + G.order)
        y = rng.choices(range(G.order), k=7)
        for size in (ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3):
            x = rng.choices(range(G.order), k=size)
            want = [0] * G.order
            for i in x:
                for j in y:
                    want[G.index_of(oracle_add(G, elements[i], elements[j]))] += 1
            assert ga_mul(G, x, y).tolist() == want


class TestVerifyPds:
    def test_paley13_against_oracle(self):
        G = AbelianGroup((13,))
        D = {(x,) for x in (1, 3, 4, 9, 10, 12)}
        counts = brute_force_difference_counts(G, D)
        for g in D:
            assert counts[g] == 2
        for g in oracle_elements(G):
            if g != G.identity and g not in D:
                assert counts[g] == 3
        assert verify_pds(G, indices(G, D), 2, 3).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_pds(rep.group, rep.connection_set.indices(), 19, 20).ok

    def test_not_pds_with_witness(self):
        Z5 = AbelianGroup((5,))
        res = verify_pds(Z5, [1, 2], 1, 1)
        assert not res.ok
        assert res.witness is not None
        assert "element" in res.witness

    def test_wrong_parameters_fail(self):
        G = AbelianGroup((13,))
        D = {(x,) for x in (1, 3, 4, 9, 10, 12)}
        assert not verify_pds(G, indices(G, D), 3, 2).ok

    def test_unreduced_elements_rejected(self):
        # the element (-1,) was once read as index -1 (element 4) and passed,
        # and (7,) hit an IndexError: negative and out-of-range indices, and
        # residue tuples in place of indices, are refused
        Z5 = AbelianGroup((5,))
        for D in ([-1, 1], [4, -1], [5], [7], [(1,), (4,)]):
            with pytest.raises(ValueError, match=r"element indices in \[0, 5\)"):
                verify_pds(Z5, D, 0, 1)


class TestSrgEquation:
    def test_paley5_hand_coefficients(self):
        rep = paley(5)
        G = rep.group
        s = rep.connection_set.indices()
        # S^2 = G - S + e with coefficients (2, 0, 1, 1, 0)
        assert ga_mul(G, s, s).tolist() == [2, 0, 1, 1, 0]
        assert verify_srg_equation(G, rep.connection_set, (5, 2, 0, 1)).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_srg_equation(rep.group, rep.connection_set, (81, 40, 19, 20)).ok

    def test_swapped_parameters_fail(self):
        rep = paley(13)
        assert not verify_srg_equation(rep.group, rep.connection_set, (13, 6, 3, 2)).ok

    def test_param_shape_guard(self):
        rep = paley(13)
        with pytest.raises(ValueError):
            verify_srg_equation(rep.group, rep.connection_set, (14, 6, 2, 3))

    def test_agreement_with_pds_on_random_sets(self):
        # 100 seeded random inverse-closed sets per group
        for factors, seed in (((13,), 71), ((3, 3), 73)):
            G = AbelianGroup(factors)
            rng = random.Random(seed)
            for _ in range(100):
                S = random_inverse_closed(G, rng)
                if not S:
                    continue
                conn = validate_connection_set(G, S)
                k = len(S)
                for lam in range(0, k + 1, max(1, k // 3)):
                    for mu in range(0, k + 1, max(1, k // 3)):
                        a = verify_pds(G, conn.indices(), lam, mu).ok
                        b = verify_srg_equation(G, conn, (G.order, k, lam, mu)).ok
                        assert a == b


class TestMixedProduct:
    def test_paley5(self):
        rep = paley(5)
        assert verify_mixed_product(rep.group, rep.connection_set, 1).ok

    def test_paley13(self):
        rep = paley(13)
        assert verify_mixed_product(rep.group, rep.connection_set, 3).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_mixed_product(rep.group, rep.connection_set, 20).ok

    def test_size_guard(self):
        rep = paley(13)
        with pytest.raises(ValueError):
            verify_mixed_product(rep.group, rep.connection_set, 4)


class TestSchurPartition:
    def test_paley13(self):
        rep = paley(13)
        assert verify_schur_partition(rep.group, rep.connection_set).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_schur_partition(rep.group, rep.connection_set).ok

    def test_non_paley_sized_set_fails(self):
        Z13 = AbelianGroup((13,))
        conn = validate_connection_set(Z13, [(1,), (12,), (2,), (11,)])
        res = verify_schur_partition(Z13, conn)
        assert not res.ok
        assert res.witness["product"]


class TestOrderBudget:
    """Past MAX_ORDER each check raises BudgetError before it allocates a
    vector of the group's order (Z1000000007 would ask for 8 GB)."""

    CHECKS = {
        "ga_mul": lambda G, small, half: ga_mul(G, [1], [1]),
        "verify_pds": lambda G, small, half: verify_pds(G, small.indices(), 0, 1),
        "verify_srg_equation": lambda G, small, half: verify_srg_equation(
            G, small, (G.order, small.size, 0, 1)
        ),
        "verify_mixed_product": lambda G, small, half: verify_mixed_product(
            G, half, (G.order - 1) // 4
        ),
    }

    @staticmethod
    def sets(G):
        """{1, -1} and {1, -1, ..., t, -t} with |G| = 4t + 1, built directly
        so that no table of G is touched."""
        n = G.order
        small = ConnectionSet(G, (1, n - 1))
        half = ConnectionSet(G, sorted(r for i in range(1, (n - 1) // 4 + 1) for r in (i, n - i)))
        return small, half

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_raises_before_allocating(self, name):
        check = self.CHECKS[name]
        Z5 = AbelianGroup((5,))
        check(Z5, *self.sets(Z5))  # first-call imports and caches are not counted
        G = AbelianGroup((MAX_ORDER + 1,))
        small, half = self.sets(G)
        assert half.size == (G.order - 1) // 2
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="group order 4097 exceeds"):
                check(G, small, half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * G.order  # less than one int64 per element was allocated


class TestWholeGroupIdentity:
    @pytest.mark.parametrize("factors", [(5,), (13,), (3, 3)])
    def test_g_minus_e_squared(self, factors):
        # (G - e)^2 = (|G|-1) e + (|G|-2)(G - e)
        G = AbelianGroup(factors)
        n = G.order
        g_minus_e = [i for i in range(n) if i != G.index_of(G.identity)]
        want = np.full(n, n - 2, dtype=np.int64)
        want[G.index_of(G.identity)] = n - 1
        assert ga_mul(G, g_minus_e, g_minus_e).tolist() == want.tolist()


class TestWitnessLiterals:
    """Witness dicts of failing checks, as recorded before the checks moved
    onto the index-array kernel; reports print them verbatim."""

    def test_pds(self):
        Z5 = AbelianGroup((5,))
        assert verify_pds(Z5, [1, 2], 1, 1).witness == {
            "element": [2], "actual": 0, "expected": 1,
        }
        G = AbelianGroup((9, 9))
        S = [(0, 1), (0, 8), (1, 0), (8, 0), (1, 1), (8, 8)]
        assert verify_pds(G, indices(G, S), 0, 1).witness == {
            "element": [0, 1], "actual": 2, "expected": 0,
        }

    def test_srg_equation(self):
        rep = paley(13)
        assert verify_srg_equation(rep.group, rep.connection_set, (13, 6, 3, 2)).witness == {
            "element": [1], "actual": 2, "expected": 3,
        }
        G = AbelianGroup((2, 4))
        conn = validate_connection_set(G, [(1, 0), (0, 1), (0, 3)])
        assert verify_srg_equation(G, conn, (8, 3, 0, 1)).witness == {
            "element": [0, 2], "actual": 2, "expected": 1,
        }

    def test_mixed_product(self):
        Z9 = AbelianGroup((9,))
        conn = validate_connection_set(Z9, [(1,), (8,), (2,), (7,)])
        assert verify_mixed_product(Z9, conn, 2).witness == {
            "element": [1], "actual": 1, "expected": 2,
        }

    def test_schur_partition(self):
        Z13 = AbelianGroup((13,))
        conn = validate_connection_set(Z13, [(1,), (12,), (2,), (11,)])
        assert verify_schur_partition(Z13, conn).witness == {
            "product": "S*S", "part": "S", "first_value": 2, "other_value": 1,
            "at_element": [2],
        }
        G = AbelianGroup((9, 9))
        conn = validate_connection_set(G, [(0, 1), (0, 8), (1, 0), (8, 0), (1, 1), (8, 8)])
        assert verify_schur_partition(G, conn).witness == {
            "product": "S*S", "part": "N", "first_value": 1, "other_value": 0,
            "at_element": [0, 3],
        }
