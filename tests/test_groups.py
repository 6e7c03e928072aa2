"""Abelian group index tables, enumeration order, and automorphism streams,
checked against a brute-force residue oracle."""

import itertools
import random
import tracemalloc
from math import prod

import numpy as np
import pytest

from cayleycert import groups
from cayleycert.cayley import build_cayley, validate_connection_set
from cayleycert.families import davis
from cayleycert.graphs import MAX_ORDER, complement, invariant_counts
from cayleycert.groups import (
    AbelianGroup,
    AutEnumerationError,
    GroupAutomorphism,
    _automorphism_batches,
    _prime_order_representatives,
    make_automorphism,
    parse_group_spec,
)
from cayleycert.iso import selfcomp_by_group_automorphism


# --- brute-force residue oracle: one element at a time, on residue tuples -------


def oracle_elements(G: AbelianGroup) -> list:
    """Every residue tuple, in lexicographic (mixed-radix index) order."""
    return list(itertools.product(*(range(n) for n in G.factors)))


def oracle_add(G: AbelianGroup, g, h) -> tuple:
    return tuple((a + b) % n for a, b, n in zip(g, h, G.factors))


def oracle_neg(G: AbelianGroup, g) -> tuple:
    return tuple((-a) % n for a, n in zip(g, G.factors))


def oracle_sub(G: AbelianGroup, g, h) -> tuple:
    return oracle_add(G, g, oracle_neg(G, h))


def oracle_scalar_mul(G: AbelianGroup, m: int, g) -> tuple:
    return tuple((m * a) % n for a, n in zip(g, G.factors))


def oracle_order(G: AbelianGroup, g) -> int:
    """Least m >= 1 with m*g = identity, by repeated addition."""
    m, x = 1, tuple(g)
    while x != G.identity:
        m, x = m + 1, oracle_add(G, x, g)
    return m


def oracle_cyclic_subgroup(G: AbelianGroup, g) -> frozenset:
    """The set {0*g, 1*g, ..., (ord(g)-1)*g}."""
    return frozenset(oracle_scalar_mul(G, m, g) for m in range(oracle_order(G, g)))


def oracle_apply(G: AbelianGroup, images, g) -> tuple:
    """sigma(g) = sum_i r_i * images[i]."""
    out = G.identity
    for r, img in zip(g, images):
        out = oracle_add(G, out, oracle_scalar_mul(G, r, img))
    return out


def oracle_sum_indices(G: AbelianGroup) -> np.ndarray:
    """S[i, j] = the enumeration index of g_i + g_j, by tuple arithmetic."""
    elems = oracle_elements(G)
    index = {g: i for i, g in enumerate(elems)}
    return np.array([[index[oracle_add(G, g, h)] for h in elems] for g in elems])


def oracle_translation(G: AbelianGroup, i: int) -> list:
    """The permutation x -> g_i + x of the element indices."""
    elems = oracle_elements(G)
    index = {g: j for j, g in enumerate(elems)}
    return [index[oracle_add(G, elems[i], h)] for h in elems]


def repeated_sum_cyclic_subgroup(G: AbelianGroup, i: int) -> set:
    """Indices of the multiples of element i, by repeated tuple addition and
    the group's codec."""
    g = G.element_of(i)
    out, x = {0}, g
    while x != G.identity:
        out.add(G.index_of(x))
        x = oracle_add(G, x, g)
    return out


def automorphism_count(G: AbelianGroup) -> int:
    return sum(len(img_idx) for img_idx, _ in _automorphism_batches(G))


def automorphisms(G: AbelianGroup) -> list:
    """Every automorphism of G, in the scan's deterministic candidate order."""
    return [
        GroupAutomorphism(G, tuple(G.element_of(int(i)) for i in row))
        for img_idx, _ in _automorphism_batches(G)
        for row in img_idx
    ]


def brute_force_automorphism_count(G: AbelianGroup) -> int:
    """Oracle: try every generator-image tuple, keep the bijective maps."""
    elems = oracle_elements(G)

    def image(images, g):
        out = G.identity
        for r, img in zip(g, images):
            for _ in range(r):
                out = oracle_add(G, out, img)
        return out

    count = 0
    stack = [()]
    while stack:
        partial = stack.pop()
        if len(partial) == G.rank:
            seen = {image(partial, g) for g in elems}
            if len(seen) == G.order:
                count += 1
            continue
        pos = len(partial)
        for cand in elems:
            if G.factors[pos] % oracle_order(G, cand) == 0:
                stack.append(partial + (cand,))
    return count


def reference_automorphism_batches(G: AbelianGroup):
    """The full-permutation filter the kernel test replaced: map all n
    elements for every candidate tuple of generator images, in the same
    mixed-radix order, and keep the candidate when the sorted map is 0..n-1.
    Yields (image_index_tuples, induced_permutations)."""
    orders = np.array([oracle_order(G, g) for g in oracle_elements(G)], dtype=np.int64)
    allowed = [np.nonzero(n % orders == 0)[0] for n in G.factors]
    total = prod(len(a) for a in allowed)
    n, k = G.order, G.rank
    res = G.residue_matrix
    factors = np.array(G.factors, dtype=np.int64)
    batch_size = max(1, 2**22 // (n * k))
    radix = np.ones(k, dtype=np.int64)
    for pos in range(k - 2, -1, -1):
        radix[pos] = radix[pos + 1] * len(allowed[pos + 1])
    for start in range(0, total, batch_size):
        rem = np.arange(start, min(start + batch_size, total), dtype=np.int64)
        img_idx = np.empty((len(rem), k), dtype=np.int64)
        for pos in range(k):
            digit, rem = np.divmod(rem, radix[pos])
            img_idx[:, pos] = allowed[pos][digit]
        perms = (np.einsum("nk,bkj->bnj", res, res[img_idx]) % factors) @ G.index_weights
        ok = (np.sort(perms, axis=1) == np.arange(n)).all(axis=1)
        if ok.any():
            yield img_idx[ok], perms[ok]


def hillar_rhea_order(factors) -> int:
    """|Aut(G)| from Hillar and Rhea, "Automorphisms of finite abelian groups"
    (Amer. Math. Monthly 114, 2007), Theorem 4.1, one p-part at a time.  For
    Z_{p^e_1} x ... x Z_{p^e_m} with e_1 <= ... <= e_m, d_k = max{l : e_l = e_k}
    and c_k = min{l : e_l = e_k} (1-based), the order is
    prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (m - d_j)) * prod_i p^((e_i - 1)(m - c_i + 1))."""
    exps: dict[int, list[int]] = {}
    for n in factors:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exps.setdefault(p, []).append(e)
            p += 1
    out = 1
    for p, es in exps.items():
        es.sort()
        m = len(es)
        d = [max(l for l in range(1, m + 1) if es[l - 1] == e) for e in es]
        c = [min(l for l in range(1, m + 1) if es[l - 1] == e) for e in es]
        for k in range(1, m + 1):
            out *= p ** d[k - 1] - p ** (k - 1)
            out *= p ** (es[k - 1] * (m - d[k - 1]))
            out *= p ** ((es[k - 1] - 1) * (m - c[k - 1] + 1))
    return out


def factor_lists(max_order: int, max_len: int) -> list[tuple[int, ...]]:
    """Every tuple of at most max_len factors >= 2 with product <= max_order."""
    out = []

    def extend(prefix: tuple[int, ...], room: int) -> None:
        if prefix:
            out.append(prefix)
        if len(prefix) < max_len:
            for n in range(2, room + 1):
                extend(prefix + (n,), room // n)

    extend((), max_order)
    return out


def random_non_selfcomplementary_set(G: AbelianGroup, rng: random.Random):
    """A seeded inverse-closed set of size (n-1)/2 whose Cayley graph has a
    triangle count different from its complement's; n = 1 mod 4."""
    pairs = [
        g for g in oracle_elements(G)
        if g != G.identity and G.index_of(g) < G.index_of(oracle_neg(G, g))
    ]
    while True:
        chosen = rng.sample(pairs, len(pairs) // 2)
        conn = validate_connection_set(G, chosen + [oracle_neg(G, g) for g in chosen])
        g = build_cayley(conn)
        if invariant_counts(g)[0] != invariant_counts(complement(g))[0]:
            return conn


KERNEL_TEST_GROUPS = [
    (2, 4), (4, 6), (8,), (12,), (2, 2, 2), (2, 2, 4), (3, 3, 3), (3, 9), (4, 4),
    (6, 10), (2, 6, 3), (9, 9),
]

#: Every factor list the table tests below are parametrised over.
ORACLE_GROUPS = sorted(
    set(KERNEL_TEST_GROUPS)
    | {(5,), (7,), (13,), (2, 2), (4, 3), (3, 4), (4, 5), (2, 3, 4), (2, 5, 6), (2, 2, 2, 2), (25, 25)}
)


class TestArithmetic:
    def test_add_examples(self):
        G = AbelianGroup((9, 9))
        assert oracle_add(G, (2, 7), (8, 5)) == (1, 3)
        assert G.index_of(oracle_add(G, (2, 7), (8, 5))) == 12
        Z5 = AbelianGroup((5,))
        assert oracle_add(Z5, (3,), (2,)) == (0,)

    def test_identity_and_neg(self):
        G = AbelianGroup((4, 6))
        N = G.neg_table
        rng = random.Random(7)
        for _ in range(50):
            i = rng.randrange(G.order)
            g = G.element_of(i)
            assert oracle_add(G, g, G.identity) == g
            assert N[N[i]] == i
            assert oracle_add(G, g, G.element_of(int(N[i]))) == G.identity
            assert G.element_of(int(N[i])) == oracle_neg(G, g)

    def test_commutative_associative(self):
        G = AbelianGroup((3, 4, 5))
        S = oracle_sum_indices(G)
        assert np.array_equal(S, S.T)
        rng = random.Random(11)
        for _ in range(100):
            i, j, k = (rng.randrange(G.order) for _ in range(3))
            assert S[S[i, j], k] == S[i, S[j, k]]

    def test_arity_mismatch(self):
        G = AbelianGroup((5,))
        assert not G.contains((1, 2))
        with pytest.raises(ValueError):
            G.index_of((1, 2))

    def test_bad_factors(self):
        with pytest.raises(ValueError):
            AbelianGroup((1, 5))
        with pytest.raises(ValueError):
            AbelianGroup(())

    @pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_tables_against_oracle(self, factors):
        G = AbelianGroup(factors)
        elems = oracle_elements(G)
        assert [G.element_of(i) for i in range(G.order)] == elems
        assert G.neg_table.tolist() == [G.index_of(oracle_neg(G, g)) for g in elems]
        assert G.element_orders.tolist() == [oracle_order(G, g) for g in elems]
        for table in (G.residue_matrix, G.index_weights, G.neg_table, G.element_orders):
            assert not table.flags.writeable
        assert G.neg_table is G.neg_table  # built once

    def test_over_budget_tables_raise_before_allocating(self):
        G = AbelianGroup((MAX_ORDER + 1,))
        tracemalloc.start()
        try:
            for name in ("residue_matrix", "neg_table", "element_orders"):
                with pytest.raises(ValueError, match="budget"):
                    getattr(G, name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * G.order  # less than one int64 per element was allocated
        assert set(vars(G)) == {"factors"}  # nothing was cached


class TestTranslates:
    @pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_against_oracle(self, factors):
        """t[i, j] = v[g_j - g_i] for a 0/1 indicator and for int32
        multiplicities with repeated values."""
        G = AbelianGroup(factors)
        n = G.order
        elems = oracle_elements(G)
        diff = np.array([[G.index_of(oracle_add(G, h, oracle_neg(G, g))) for h in elems] for g in elems])
        rng = np.random.default_rng(n)
        indicator = (rng.random(n) < 0.4).astype(np.uint8)
        counts = rng.integers(0, 4, n).astype(np.int32)
        for v in (indicator, counts):
            t = G.translates(v)
            assert t.shape == G.factors + G.factors
            assert t.dtype == v.dtype
            assert not t.flags.writeable
            assert np.array_equal(t.reshape(n, n), v[diff])

    def test_widest_padding(self):
        # Z2^12: n = 4096, the padding holds 3^12 entries; 20 rows against the residues
        G = AbelianGroup((2,) * 12)
        n = G.order
        rng = np.random.default_rng(12)
        v = rng.integers(0, 5, n).astype(np.int32)
        t = G.translates(v)
        res = G.residue_matrix
        for i in rng.choice(n, 20, replace=False):
            row = t[np.unravel_index(i, G.factors)].reshape(n)
            assert np.array_equal(row, v[(res - res[i]) % 2 @ G.index_weights])
        with pytest.raises(ValueError, match="read-only"):
            t[0, ...] = 0


class TestElementOrder:
    def test_examples(self):
        G = AbelianGroup((9, 9))
        assert G.element_orders[G.index_of((3, 0))] == 3
        assert G.element_orders[G.index_of((1, 4))] == 9
        assert G.element_orders[G.index_of(G.identity)] == 1

    @pytest.mark.parametrize("factors", [(7,), (2, 2), (4, 3), (9, 9), (2, 5, 6)])
    def test_order_divides_group_order(self, factors):
        G = AbelianGroup(factors)
        if G.order <= 100:
            for i, g in enumerate(oracle_elements(G)):
                m = int(G.element_orders[i])
                assert G.order % m == 0
                assert oracle_scalar_mul(G, m, g) == G.identity
                for d in range(1, m):
                    assert oracle_scalar_mul(G, d, g) != G.identity


class TestEnumeration:
    def test_examples(self):
        G = AbelianGroup((9, 9))
        assert G.element_of(0) == (0, 0)
        assert G.element_of(13) == (1, 4)
        assert AbelianGroup((5,)).element_of(4) == (4,)

    @pytest.mark.parametrize("factors", [(5,), (9, 9), (2, 3, 4)])
    def test_round_trip(self, factors):
        G = AbelianGroup(factors)
        for i in range(G.order):
            assert G.index_of(G.element_of(i)) == i
        seen = {G.element_of(i) for i in range(G.order)}
        assert len(seen) == G.order
        assert [G.index_of(g) for g in oracle_elements(G)] == list(range(G.order))

    def test_residue_matrix_matches(self):
        G = AbelianGroup((4, 5))
        res = G.residue_matrix
        for i in range(G.order):
            assert tuple(res[i]) == G.element_of(i)

    def test_index_of_rejects_unreduced(self):
        G = AbelianGroup((5, 3))
        for g in [(-1, 0), (5, 0), (0, 3), (7, -2)]:
            with pytest.raises(ValueError, match="not a reduced element"):
                G.index_of(g)
        assert G.index_of((4, 2)) == 14


class TestCyclicSubgroup:
    def test_examples(self):
        G = AbelianGroup((9, 9))
        assert oracle_cyclic_subgroup(G, (1, 1)) == frozenset((m, m) for m in range(9))
        assert oracle_cyclic_subgroup(G, (3, 0)) == {(0, 0), (3, 0), (6, 0)}
        assert oracle_cyclic_subgroup(G, G.identity) == {G.identity}
        for g in [(1, 1), (3, 0), G.identity]:
            got = repeated_sum_cyclic_subgroup(G, G.index_of(g))
            assert {G.element_of(i) for i in got} == oracle_cyclic_subgroup(G, g)

    def test_cardinality_is_order(self):
        G = AbelianGroup((4, 6))
        for i, g in enumerate(oracle_elements(G)):
            assert len(repeated_sum_cyclic_subgroup(G, i)) == G.element_orders[i]
            assert len(oracle_cyclic_subgroup(G, g)) == G.element_orders[i]


class TestAutomorphisms:
    def test_counts_against_brute_force(self):
        for factors in [(3, 3), (5,), (2, 4)]:
            G = AbelianGroup(factors)
            assert automorphism_count(G) == brute_force_automorphism_count(G)

    def test_frozen_counts(self):
        assert automorphism_count(AbelianGroup((3, 3))) == 48
        assert automorphism_count(AbelianGroup((5,))) == 4
        assert automorphism_count(AbelianGroup((9, 9))) == 3888

    @pytest.mark.parametrize("p,expect", [(2, 6), (3, 48), (5, 480)])
    def test_gl2_formula(self, p, expect):
        assert (p * p - 1) * (p * p - p) == expect
        assert automorphism_count(AbelianGroup((p, p))) == expect

    def test_z5_images(self):
        autos = automorphisms(AbelianGroup((5,)))
        assert [a.generator_images for a in autos] == [
            ((1,),),
            ((2,),),
            ((3,),),
            ((4,),),
        ]

    def test_additivity_and_bijectivity(self):
        for factors in [(3, 3), (8,), (2, 2, 2), (9, 9)]:
            G = AbelianGroup(factors)
            T = oracle_sum_indices(G)
            for sigma in automorphisms(G):
                perm = sigma.as_permutation()
                assert sorted(perm.tolist()) == list(range(G.order))
                assert np.array_equal(perm[T], T[np.ix_(perm, perm)])

    def test_deterministic_order(self):
        G = AbelianGroup((3, 3))
        first = [a.generator_images for a in automorphisms(G)]
        second = [a.generator_images for a in automorphisms(G)]
        assert first == second

    def test_apply_examples(self):
        Z13 = AbelianGroup((13,))
        doubling = make_automorphism(Z13, [(2,)]).as_permutation()
        assert doubling[3] == 6
        squares = [1, 3, 4, 9, 10, 12]
        assert set(doubling[squares].tolist()) == {2, 6, 8, 5, 7, 11}
        ident = make_automorphism(Z13, [(1,)]).as_permutation()
        assert ident[7] == 7

    def test_permutation_matches_apply(self):
        G = AbelianGroup((4, 3))
        for sigma in automorphisms(G):
            perm = sigma.as_permutation()
            for i, g in enumerate(oracle_elements(G)):
                assert G.element_of(int(perm[i])) == oracle_apply(G, sigma.generator_images, g)

    def test_make_automorphism_rejects(self):
        G = AbelianGroup((4, 2))
        with pytest.raises(ValueError):
            make_automorphism(G, [(1, 0)])  # one image only
        with pytest.raises(ValueError):
            make_automorphism(G, [(0, 1), (0, 1)])  # order 2 fine, but not bijective
        with pytest.raises(ValueError):
            make_automorphism(G, [(1, 0), (1, 0)])  # image order 4 does not divide 2
        # (r1, r2) -> (r1 + r2, r2) is a bijection, but not a homomorphism
        with pytest.raises(ValueError, match="does not divide factor modulus 2"):
            make_automorphism(G, [(1, 0), (1, 1)])

    def test_budget_error(self):
        # order 4096 is within the table budget; its 4096^12 candidates are not
        with pytest.raises(AutEnumerationError):
            next(_automorphism_batches(AbelianGroup((2,) * 12)))


class TestKernelTest:
    """Bijectivity by the images of prime-order subgroup generators against
    the full-permutation filter."""

    @pytest.mark.parametrize("factors", KERNEL_TEST_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_same_automorphisms_in_same_order(self, factors, monkeypatch):
        G = AbelianGroup(factors)
        want = np.concatenate([idx for idx, _ in reference_automorphism_batches(G)])
        for batch_size in (7, 1024):
            monkeypatch.setattr(groups, "AUT_BATCH_SIZE", batch_size)
            batches = list(_automorphism_batches(G))
            got = np.concatenate([idx for idx, _ in batches])
            assert np.array_equal(got, want)
            for idx, mats in batches:
                assert np.array_equal(mats, G.residue_matrix[idx])

    @pytest.mark.parametrize(
        "factors,count", [((9, 9), 4), ((13, 13), 14), ((25, 25), 6), ((2, 2, 2), 7), ((6, 10), 5)]
    )
    def test_one_generator_per_prime_order_subgroup(self, factors, count):
        G = AbelianGroup(factors)
        reps = _prime_order_representatives(G)
        want = set()
        for g in oracle_elements(G):
            m = oracle_order(G, g)
            if m > 1 and all(m % d for d in range(2, m)):
                want.add(oracle_cyclic_subgroup(G, g))
        got = [oracle_cyclic_subgroup(G, tuple(int(x) for x in r)) for r in reps]
        assert len(got) == len(set(got)) == len(want) == count
        assert set(got) == want


class TestHillarRhea:
    def test_examples(self):
        assert hillar_rhea_order((9, 9)) == 3888
        assert hillar_rhea_order((13, 13)) == 26208
        assert hillar_rhea_order((25, 25)) == 300000
        assert hillar_rhea_order((2, 4)) == 8

    def test_count_automorphisms(self):
        lists = factor_lists(200, 3)
        assert len(lists) == 1925
        for factors in lists:
            assert automorphism_count(AbelianGroup(factors)) == hillar_rhea_order(factors), factors

    def test_exhaustive_scans(self):
        rng = random.Random(5)
        conns = [random_non_selfcomplementary_set(AbelianGroup(f), rng) for f in ((9, 9), (13, 13))]
        for conn in conns + [davis(5).connection_set]:
            cert, scanned = selfcomp_by_group_automorphism(conn)
            assert cert is None
            assert scanned == hillar_rhea_order(conn.group.factors)


class TestSpecParsing:
    def test_examples(self):
        assert parse_group_spec("Z9xZ9").factors == (9, 9)
        assert parse_group_spec("z5").factors == (5,)
        assert parse_group_spec("Z3xZ3xZ3").factors == (3, 3, 3)
        assert parse_group_spec(" Z2 x Z4 ").factors == (2, 4)

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_group_spec("9x9")
        with pytest.raises(ValueError):
            parse_group_spec("")
