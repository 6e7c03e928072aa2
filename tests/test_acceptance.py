"""Acceptance criteria, exact checks at the stated time bounds.  Each prints
a PASS line.  test_claim runs every row of the claim table that
reproduce-paper reports, at the row's own bound; rows of the extended tier
are marked `extended` (deselect with -m "not extended") but are fast enough
to run by default.  Criteria 5, 7 and 8 have no claim row: the criterion-8
sieve is an oracle independent of the code under test."""

import itertools
import random
import time

import numpy as np
import pytest

from cayleycert.cayley import build_cayley, complement_connection_set, validate_connection_set
from cayleycert.cli import CLAIMS
from cayleycert.families import davis, paley, paley_type_order_feasible, peisert
from cayleycert.graphs import DenseGraph, complement, mod_p_rank
from cayleycert.groupalgebra import (
    ga_mul,
    verify_mixed_product,
    verify_pds,
    verify_srg_equation,
)
from cayleycert.groups import AbelianGroup
from cayleycert.iso import are_isomorphic

from test_groups import oracle_elements, oracle_neg, oracle_translation
from test_iso import oracle_isomorphic


def report(criterion: str, started: float, bound: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"{criterion} took {elapsed:.1f}s, bound {bound}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.1f}s < {bound:.0f}s)")


def random_inverse_closed(G, rng):
    elems = set()
    for g in oracle_elements(G):
        if g == G.identity or g in elems:
            continue
        if rng.random() < 0.5:
            elems.add(g)
            elems.add(oracle_neg(G, g))
    return elems


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(c, id=c.id, marks=[pytest.mark.extended] if c.tier == "extended" else [])
        for c in CLAIMS
    ],
)
def test_claim(row):
    """Criteria 1-4 and 6, and each other claim reproduce-paper reports: the
    runner's passed is the conjunction of the claim's exact checks."""
    started = time.monotonic()
    outcome = row.run()
    assert outcome["passed"] is True, outcome["details"]
    report(row.id, started, row.bound_s)


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
        assert verify_srg_equation(conn, (n, k, t - 1, t)).ok
        # Equation (2): S * N = t (G - e)
        assert verify_mixed_product(conn, t).ok
        # complement identity: N^2 = t G - N + t e
        rest = complement_connection_set(conn).indices()
        rhs = np.full(n, t, dtype=np.int64)
        rhs[rest] -= 1
        rhs[G.index_of(G.identity)] += t
        assert np.array_equal(ga_mul(G, rest, rest), rhs)
    report("5 (group-algebra identities, all instances)", started, 120.0)


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
                verify_pds(G, conn.indices(), lam, mu).ok
                == verify_srg_equation(conn, (G.order, k, lam, mu)).ok
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
        sample = rng.sample(range(rep.group.order), min(6, rep.group.order))
        for idx in sample:
            assert g.relabel(oracle_translation(rep.group, idx)) == g
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
