"""Exact group-algebra convolution and the PDS / Schur-ring identity checks."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cayleycert import cli, groupalgebra
from cayleycert.cayley import (
    ConnectionSet,
    InvalidConnectionSetError,
    complement_connection_set,
    validate_connection_set,
)
from cayleycert.families import davis, paley
from cayleycert.graphs import MAX_ORDER, ROW_BLOCK, BudgetError
from cayleycert.groupalgebra import (
    CheckResult,
    ga_mul,
    square,
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


    def test_multiplicities_past_uint8(self):
        """Against the pair count: y repeating one element 255 times keeps
        the uint8 translates, 300 times takes the int32 ones."""
        G = AbelianGroup((13,))
        rng = random.Random(71)
        x = rng.choices(range(G.order), k=2 * ROW_BLOCK + 5)
        for y in ([3] * 255 + [5], [3] * 300 + [5, 5]):
            want = [0] * G.order
            for i in x:
                for j in y:
                    want[(i + j) % 13] += 1
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
        assert verify_srg_equation(rep.connection_set, (5, 2, 0, 1)).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_srg_equation(rep.connection_set, (81, 40, 19, 20)).ok

    def test_swapped_parameters_fail(self):
        rep = paley(13)
        assert not verify_srg_equation(rep.connection_set, (13, 6, 3, 2)).ok

    def test_param_shape_guard(self):
        rep = paley(13)
        with pytest.raises(ValueError):
            verify_srg_equation(rep.connection_set, (14, 6, 2, 3))

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
                        b = verify_srg_equation(conn, (G.order, k, lam, mu)).ok
                        assert a == b


class TestMixedProduct:
    def test_paley5(self):
        rep = paley(5)
        assert verify_mixed_product(rep.connection_set, 1).ok

    def test_paley13(self):
        rep = paley(13)
        assert verify_mixed_product(rep.connection_set, 3).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_mixed_product(rep.connection_set, 20).ok

    def test_size_guard(self):
        rep = paley(13)
        with pytest.raises(ValueError):
            verify_mixed_product(rep.connection_set, 4)


class TestSchurPartition:
    def test_paley13(self):
        rep = paley(13)
        assert verify_schur_partition(rep.connection_set).ok

    def test_davis3(self):
        rep = davis(3)
        assert verify_schur_partition(rep.connection_set).ok

    def test_non_paley_sized_set_fails(self):
        Z13 = AbelianGroup((13,))
        conn = validate_connection_set(Z13, [(1,), (12,), (2,), (11,)])
        res = verify_schur_partition(conn)
        assert not res.ok
        assert res.witness["product"]


def oracle_products(G: AbelianGroup, conn: ConnectionSet) -> dict:
    """X*Y by ga_mul for every ordered pair of the parts e, S and N."""
    parts = {"e": [0], "S": conn.indices(), "N": complement_connection_set(conn).indices()}
    return {f"{a}*{b}": ga_mul(G, x, y) for a, x in parts.items() for b, y in parts.items()}


def oracle_schur_partition(G: AbelianGroup, conn: ConnectionSet) -> CheckResult:
    """The 9-product loop verify_schur_partition replaced: the products of
    the non-empty parts in order, the first non-constant one the witness."""
    parts = {"e": [0], "S": conn.indices(), "N": complement_connection_set(conn).indices()}
    parts = {name: np.array(idx, dtype=np.int64) for name, idx in parts.items() if idx}
    for name_x, x in parts.items():
        for name_y, y in parts.items():
            prod = ga_mul(G, x, y)
            for part_name, idx in parts.items():
                vals = prod[idx]
                if not (vals == vals[0]).all():
                    where = idx[np.nonzero(vals != vals[0])[0][0]]
                    return CheckResult(
                        ok=False,
                        witness={
                            "product": f"{name_x}*{name_y}",
                            "part": part_name,
                            "first_value": int(vals[0]),
                            "other_value": int(prod[where]),
                            "at_element": list(G.element_of(int(where))),
                        },
                    )
    return CheckResult(ok=True)


def oracle_mixed_product(G: AbelianGroup, conn: ConnectionSet, t: int) -> CheckResult:
    """S*N by ga_mul against t * (G minus {e}), as verify_mixed_product was."""
    expected = np.full(G.order, t, dtype=np.int64)
    expected[0] = 0
    actual = ga_mul(G, conn.indices(), complement_connection_set(conn).indices())
    return groupalgebra._compare(G, actual, expected)


def oracle_sets(G: AbelianGroup, rng: random.Random) -> list:
    """Seeded random inverse-closed sets (of size (|G|-1)/2 too when
    |G| = 1 mod 4, for the mixed product), the empty set and G minus e."""
    pairs = sorted({tuple(sorted((i, int(G.neg_table[i])))) for i in range(1, G.order)})
    sets = [[i for pair in pairs if rng.random() < 0.5 for i in set(pair)] for _ in range(6)]
    if G.order % 4 == 1:
        sets += [[i for pair in rng.sample(pairs, len(pairs) // 2) for i in pair] for _ in range(6)]
    sets += [[], range(1, G.order)]
    return [ConnectionSet(G, s) for s in sets]


class TestDerivedProducts:
    """S^2 once per set, every other product and both closure checks read off
    it, against the ga_mul products they replaced."""

    @pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_against_the_product_loop(self, factors):
        G = AbelianGroup(factors)
        sets = oracle_sets(G, random.Random(G.order))
        conference = {(5,): (paley, 5), (13,): (paley, 13), (9, 9): (davis, 3), (25, 25): (davis, 5)}
        if factors in conference:
            family, q = conference[factors]
            sets.append(family(q).connection_set)
        outcomes = set()
        for conn in sets:
            n, k = G.order, conn.size
            sq = square(conn)
            e, S = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
            e[0], S[conn.indices()] = 1, 1
            N = 1 - e - S
            SN = k - S - sq
            derived = {"e*e": e, "e*S": S, "e*N": N, "S*e": S, "S*S": sq, "S*N": SN,
                       "N*e": N, "N*S": SN, "N*N": (n - 2 - 2 * k) + e + 2 * S + sq}
            oracle = oracle_products(G, conn)
            assert {p: v.tolist() for p, v in derived.items()} == {p: v.tolist() for p, v in oracle.items()}
            got, want = verify_schur_partition(conn), oracle_schur_partition(G, conn)
            assert (got.ok, got.witness) == (want.ok, want.witness)
            outcomes.add(got.ok)
            if n % 4 == 1 and k == (n - 1) // 2:
                got, want = verify_mixed_product(conn, k // 2), oracle_mixed_product(G, conn, k // 2)
                assert (got.ok, got.witness) == (want.ok, want.witness)
                outcomes.add(("mixed", got.ok))
        assert True in outcomes
        if G.order > 8:  # passing and failing sets alike
            assert False in outcomes
            assert G.order % 4 != 1 or ("mixed", False) in outcomes
        if factors in conference:
            assert ("mixed", True) in outcomes

    def test_square_is_memoised_on_the_instance(self, monkeypatch):
        calls = []
        monkeypatch.setattr(groupalgebra, "ga_mul", lambda *a: calls.append(a) or ga_mul(*a))
        conn = davis(3).connection_set
        G = conn.group
        assert verify_srg_equation(conn, (81, 40, 19, 20))
        assert verify_mixed_product(conn, 20) and verify_schur_partition(conn)
        assert square(conn) is square(conn) and not square(conn).flags.writeable
        assert len(calls) == 1
        fresh = ConnectionSet(G, conn.members)  # an equal set keeps no memo of its own
        assert verify_schur_partition(fresh) and len(calls) == 2

    def test_two_products_per_verify_of_a_set_file(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(groupalgebra, "ga_mul", lambda *a: calls.append(a) or ga_mul(*a))
        monkeypatch.chdir(Path(__file__).parent / "data")
        assert cli.main(["verify", "davis3.set", "--srg", "--dr", "--pds", "--schur"]) == 0
        assert len(calls) == 2  # D * D^(-1) for the PDS count, and S^2
        # S^2 is also row 0 of A^2, which check_srg and is_connected read
        assert cli.main(["verify", "davis3.set", "--srg"]) == 0
        assert len(calls) == 3

    def test_sets_holding_the_identity_raise(self):
        """The identities need e outside S: a set holding it raises when it
        is built, before any check can read it."""
        Z13 = AbelianGroup((13,))
        with pytest.raises(InvalidConnectionSetError, match="^identity element present$"):
            verify_schur_partition(ConnectionSet(Z13, (0, 1, 12)))
        with pytest.raises(InvalidConnectionSetError) as exc:
            verify_mixed_product(ConnectionSet(Z13, (0, 1, 2, 3, 11, 12)), 3)
        assert exc.value.violations == ["identity element present", "(3,) present but -(3,) = (10,) absent"]

    def test_sets_not_inverse_closed_raise(self):
        Z13 = AbelianGroup((13,))
        with pytest.raises(InvalidConnectionSetError):
            verify_schur_partition(ConnectionSet(Z13, (1, 2)))
        with pytest.raises(InvalidConnectionSetError):
            verify_mixed_product(ConnectionSet(Z13, (1, 2, 3, 4, 5, 6)), 3)


class TestOrderBudget:
    """Past MAX_ORDER each check raises BudgetError before it allocates a
    vector of the group's order (Z1000000007 would ask for 8 GB).  ga_mul
    and verify_pds take raw index arrays and check the budget themselves;
    the set checks cannot be reached past it, since ConnectionSet checks it
    first."""

    CHECKS = {
        "ga_mul": lambda G, small, half: ga_mul(G, [1], [1]),
        "verify_pds": lambda G, small, half: verify_pds(G, small, 0, 1),
        "verify_srg_equation": lambda G, small, half: verify_srg_equation(
            ConnectionSet(G, small), (G.order, len(small), 0, 1)
        ),
        "verify_mixed_product": lambda G, small, half: verify_mixed_product(
            ConnectionSet(G, half), (G.order - 1) // 4
        ),
        "verify_schur_partition": lambda G, small, half: verify_schur_partition(
            ConnectionSet(G, small)
        ),
    }

    @staticmethod
    def sets(G):
        """The indices of {1, -1} and {1, -1, ..., t, -t} with |G| = 4t + 1."""
        n = G.order
        return [1, n - 1], [r for i in range(1, (n - 1) // 4 + 1) for r in (i, n - i)]

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_raises_before_allocating(self, name):
        check = self.CHECKS[name]
        Z5 = AbelianGroup((5,))
        check(Z5, *self.sets(Z5))  # first-call imports and caches are not counted
        G = AbelianGroup((MAX_ORDER + 1,))
        small, half = self.sets(G)
        assert len(half) == (G.order - 1) // 2
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
        assert verify_srg_equation(rep.connection_set, (13, 6, 3, 2)).witness == {
            "element": [1], "actual": 2, "expected": 3,
        }
        G = AbelianGroup((2, 4))
        conn = validate_connection_set(G, [(1, 0), (0, 1), (0, 3)])
        assert verify_srg_equation(conn, (8, 3, 0, 1)).witness == {
            "element": [0, 2], "actual": 2, "expected": 1,
        }

    def test_mixed_product(self):
        Z9 = AbelianGroup((9,))
        conn = validate_connection_set(Z9, [(1,), (8,), (2,), (7,)])
        assert verify_mixed_product(conn, 2).witness == {
            "element": [1], "actual": 1, "expected": 2,
        }

    def test_schur_partition(self):
        Z13 = AbelianGroup((13,))
        conn = validate_connection_set(Z13, [(1,), (12,), (2,), (11,)])
        assert verify_schur_partition(conn).witness == {
            "product": "S*S", "part": "S", "first_value": 2, "other_value": 1,
            "at_element": [2],
        }
        G = AbelianGroup((9, 9))
        conn = validate_connection_set(G, [(0, 1), (0, 8), (1, 0), (8, 0), (1, 1), (8, 8)])
        assert verify_schur_partition(conn).witness == {
            "product": "S*S", "part": "N", "first_value": 1, "other_value": 0,
            "at_element": [0, 3],
        }
