"""Acceptance criteria, one test per criterion, exact checks at the stated
time bounds.  Each prints a PASS line; the davis(5) full decision is marked
`extended` (deselect with -m "not extended") but is fast enough to run by
default because an invariant screen decides it."""

import itertools
import random
import time

import numpy as np
import pytest

from cayleycert.cayley import (
    build_cayley,
    complement_connection_set,
    lex_product,
    validate_connection_set,
)
from cayleycert.families import davis, paley, paley_type_order_feasible, peisert
from cayleycert.graphs import DenseGraph, check_srg, complement, diameter, mod_p_rank
from cayleycert.groupalgebra import (
    ga_all,
    ga_from_set,
    ga_identity,
    ga_mul,
    verify_mixed_product,
    verify_pds,
    verify_schur_partition,
    verify_srg_equation,
)
from cayleycert.groups import AbelianGroup
from cayleycert.iso import (
    are_isomorphic,
    is_self_complementary,
    selfcomp_by_group_automorphism,
    verify_certificate,
)

from test_iso import oracle_isomorphic


def report(criterion: str, started: float, bound: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"{criterion} took {elapsed:.1f}s, bound {bound}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s < {bound:.0f}s)")


def random_inverse_closed(G, rng):
    elems = set()
    for g in G.elements():
        if g == G.identity or g in elems:
            continue
        if rng.random() < 0.5:
            elems.add(g)
            elems.add(G.neg(g))
    return elems


def test_criterion_1_paley_family():
    started = time.monotonic()
    for q in (5, 9, 13, 25):
        rep = paley(q)
        g = build_cayley(rep.connection_set)
        t = (q - 1) // 4
        res = check_srg(g)
        assert res.is_srg
        assert res.params.as_tuple() == (4 * t + 1, 2 * t, t - 1, t)
        assert 4 * t + 1 == q
        assert diameter(g) == 2
        d = is_self_complementary(g, hint=rep.connection_set)
        assert d.isomorphic is True
        assert verify_certificate(g, complement(g), d.certificate.permutation)
    report("1 (Paley family)", started, 10.0)


def test_criterion_2_peisert_family():
    started = time.monotonic()
    for q, want in ((9, (9, 4, 1, 2)), (49, (49, 24, 11, 12))):
        rep = peisert(q)
        g = build_cayley(rep.connection_set)
        assert check_srg(g).params.as_tuple() == want
        d = is_self_complementary(g, hint=rep.connection_set)
        assert d.isomorphic is True
        assert verify_certificate(g, complement(g), d.certificate.permutation)
    report("2 (Peisert family)", started, 30.0)


def test_criterion_3_davis_p3():
    started = time.monotonic()
    rep = davis(3)
    conn = rep.connection_set
    assert rep.group.factors == (9, 9)
    assert conn.size == 40
    assert verify_pds(rep.group, conn.elements, 19, 20).ok
    assert verify_srg_equation(rep.group, conn, (81, 40, 19, 20)).ok
    assert verify_mixed_product(rep.group, conn, 20).ok
    assert verify_schur_partition(rep.group, conn).ok
    g = build_cayley(conn)
    assert check_srg(g).params.as_tuple() == (81, 40, 19, 20)
    d = is_self_complementary(g, hint=conn)
    assert d.isomorphic is True
    assert verify_certificate(g, complement(g), d.certificate.permutation)
    report("3 (Davis p=3 positive claim)", started, 60.0)


def test_criterion_4_davis_p5_standard():
    started = time.monotonic()
    rep = davis(5)
    conn = rep.connection_set
    assert conn.size == 312
    assert verify_pds(rep.group, conn.elements, 155, 156).ok
    cert, scanned = selfcomp_by_group_automorphism(conn)
    assert cert is None  # inconclusive by design, never a negative proof
    assert scanned == 300000
    report("4 standard (Davis p=5 PDS + exhaustive scan)", started, 300.0)


@pytest.mark.extended
def test_criterion_4_davis_p5_extended():
    started = time.monotonic()
    rep = davis(5)
    g = build_cayley(rep.connection_set)
    d = is_self_complementary(g, hint=rep.connection_set, scan_automorphisms=False)
    assert d.isomorphic is False
    # the README's headline: only the edge-neighborhood profile separates them
    assert d.decided_by == "edge profile screen"
    assert d.certificate.kind == "invariant-refutation"
    assert d.certificate.invariant == "edge-neighborhood-edge-profile"
    print(f"  davis(5) decided by: {d.decided_by} ({d.certificate.invariant})")
    report("4 extended (Davis p=5 negative decision)", started, 3600.0)


def test_criterion_5_group_algebra_identities():
    started = time.monotonic()
    instances = [paley(q) for q in (5, 9, 13, 25)] + [
        peisert(9),
        peisert(49),
        davis(3),
        davis(5),
    ]
    for rep in instances:
        G = rep.group
        conn = rep.connection_set
        n = G.order
        t = (n - 1) // 4
        k = conn.size
        assert k == 2 * t
        # Equation (1): S^2 = mu G + (lam - mu) S + (k - mu) e, conference form
        assert verify_srg_equation(G, conn, (n, k, t - 1, t)).ok
        # Equation (2): S * N = t (G - e)
        assert verify_mixed_product(G, conn, t).ok
        # complement identity: N^2 = t G - N + t e
        rest = complement_connection_set(conn)
        nbar = ga_from_set(G, rest.elements)
        lhs = ga_mul(nbar, nbar)
        rhs = (
            t * ga_all(G).coeffs
            - nbar.coeffs
            + t * ga_identity(G).coeffs
        )
        assert np.array_equal(lhs.coeffs, rhs)
    report("5 (group-algebra identities, all instances)", started, 120.0)


def test_criterion_6_lexicographic_product():
    started = time.monotonic()
    conn = lex_product(paley(5).connection_set, paley(5).connection_set)
    assert conn.group.factors == (5, 5)
    assert conn.size == 12
    g = build_cayley(conn)
    d = is_self_complementary(g)  # full decider, no hint
    assert d.isomorphic is True
    assert d.certificate.kind == "vertex-bijection"
    assert verify_certificate(g, complement(g), d.certificate.permutation)
    res = check_srg(g)
    assert not res.is_srg
    assert res.witness is not None
    report("6 (lexicographic product P5[P5])", started, 10.0)


def test_criterion_7_property_suites():
    started = time.monotonic()
    rng = random.Random(2024)

    # complement involution
    for _ in range(10):
        n = rng.randrange(2, 14)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        g = DenseGraph.from_edges(n, edges)
        assert complement(complement(g)) == g

    # labeled equality build_cayley(complement set) == complement(build_cayley(S))
    for factors in [(13,), (3, 3), (2, 4)]:
        G = AbelianGroup(factors)
        for _ in range(5):
            S = random_inverse_closed(G, rng)
            conn = validate_connection_set(G, S)
            assert build_cayley(complement_connection_set(conn)) == complement(
                build_cayley(conn)
            )

    # verify_pds == verify_srg_equation on 100 random inverse-closed sets per group
    for factors in [(13,), (3, 3)]:
        G = AbelianGroup(factors)
        for _ in range(100):
            S = random_inverse_closed(G, rng)
            if not S:
                continue
            conn = validate_connection_set(G, S)
            k = len(S)
            lam = rng.randrange(0, k + 1)
            mu = rng.randrange(0, k + 1)
            assert (
                verify_pds(G, S, lam, mu).ok
                == verify_srg_equation(G, conn, (G.order, k, lam, mu)).ok
            )

    # are_isomorphic == brute-force oracle on a seeded corpus with n <= 12
    graphs = []
    for n in (4, 5, 6, 7, 8, 9, 10, 11, 12):
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.5
        ]
        graphs.append(DenseGraph.from_edges(n, edges))
    for g in graphs[:5]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    for g1, g2 in itertools.combinations(graphs, 2):
        assert are_isomorphic(g1, g2).isomorphic == oracle_isomorphic(g1, g2)

    # mod_p_rank invariance under 100 random relabelings
    base = build_cayley(paley(13).connection_set)
    ranks = {(p, s): mod_p_rank(base, p, s) for p in (2, 3) for s in (0, 1)}
    for _ in range(100):
        perm = list(range(base.n))
        rng.shuffle(perm)
        h = base.relabel(perm)
        for (p, s), r in ranks.items():
            assert mod_p_rank(h, p, s) == r

    # translations are graph automorphisms on every constructed Cayley graph
    for rep in (paley(5), paley(9), paley(13), paley(25), peisert(9), peisert(49), davis(3)):
        g = build_cayley(rep.connection_set)
        add = rep.group.add_table
        sample = rng.sample(range(rep.group.order), min(6, rep.group.order))
        for idx in sample:
            perm = [int(x) for x in add[idx]]
            assert g.relabel(perm) == g
    report("7 (property suites)", started, 120.0)


def test_criterion_8_order_feasibility():
    started = time.monotonic()
    limit = 10**4
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, limit + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    expected = set()
    for p in (i for i in range(limit + 1) if sieve[i]):
        v = p
        while v <= limit:
            if v % 4 == 1:
                expected.add(v)
            v *= p
    for n in range(3, 11, 2):
        if n**4 <= limit:
            expected.add(n**4)
        if 9 * n**4 <= limit:
            expected.add(9 * n**4)
    for m in range(1, limit + 1):
        got, _reason = paley_type_order_feasible(m)
        assert got == (m in expected), m
    report("8 (order feasibility)", started, 5.0)
