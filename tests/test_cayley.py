"""Connection sets, Cayley graph construction, complements, products."""

import random

import numpy as np
import pytest

from cayleycert.cayley import (
    ConnectionSet,
    InvalidConnectionSetError,
    build_cayley,
    complement_connection_set,
    connection_set_from_text,
    connection_set_to_text,
    is_connected_cayley,
    lex_product,
    validate_connection_set,
)
from cayleycert.families import davis, paley
from cayleycert.graphs import DenseGraph, complement, is_connected
from cayleycert.groups import AbelianGroup


def random_inverse_closed(G: AbelianGroup, rng: random.Random) -> ConnectionSet:
    elems = set()
    for g in G.elements():
        if g == G.identity or g in elems:
            continue
        if rng.random() < 0.5:
            elems.add(g)
            elems.add(G.neg(g))
    return validate_connection_set(G, elems)


def reference_build_cayley(conn: ConnectionSet) -> tuple[int, ...]:
    """The per-row loop build_cayley replaced: one packed bit row per vertex."""
    G = conn.group
    s_idx = np.array(conn.indices(), dtype=np.int64)
    rows = [0] * G.order
    if len(s_idx):
        for i in range(G.order):
            hits = np.zeros(G.order, dtype=bool)
            hits[G.add_table[i, s_idx]] = True
            rows[i] = int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")
    return tuple(rows)


class TestValidation:
    def test_valid(self):
        Z5 = AbelianGroup((5,))
        conn = validate_connection_set(Z5, [(1,), (4,)])
        assert conn.size == 2

    def test_missing_inverse(self):
        Z5 = AbelianGroup((5,))
        with pytest.raises(InvalidConnectionSetError) as exc:
            validate_connection_set(Z5, [(1,), (2,)])
        assert "absent" in str(exc.value)

    def test_identity_present(self):
        Z5 = AbelianGroup((5,))
        with pytest.raises(InvalidConnectionSetError) as exc:
            validate_connection_set(Z5, [(0,), (1,), (4,)])
        assert "identity" in str(exc.value)

    def test_reports_every_violation(self):
        Z7 = AbelianGroup((7,))
        with pytest.raises(InvalidConnectionSetError) as exc:
            validate_connection_set(Z7, [(0,), (1,), (2,)])
        assert len(exc.value.violations) == 3

    def test_out_of_range_element(self):
        Z5 = AbelianGroup((5,))
        with pytest.raises(InvalidConnectionSetError):
            validate_connection_set(Z5, [(7,)])

    def test_empty_set_is_valid(self):
        Z5 = AbelianGroup((5,))
        conn = validate_connection_set(Z5, [])
        assert build_cayley(conn).edge_count() == 0


class TestBuild:
    def test_c5(self):
        Z5 = AbelianGroup((5,))
        g = build_cayley(validate_connection_set(Z5, [(1,), (4,)]))
        assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_z4_matching(self):
        Z4 = AbelianGroup((4,))
        g = build_cayley(validate_connection_set(Z4, [(2,)]))
        assert g.edges() == [(0, 2), (1, 3)]
        assert not is_connected(g)

    def test_regularity_and_identity_neighbors(self):
        rng = random.Random(41)
        for factors in [(13,), (3, 3), (9,)]:
            G = AbelianGroup(factors)
            conn = random_inverse_closed(G, rng)
            g = build_cayley(conn)
            assert set(g.degrees()) <= {conn.size}
            neighbors_of_0 = {v for u, v in g.edges() if u == 0}
            assert neighbors_of_0 == set(conn.indices()) or conn.size == 0

    def test_paley13_is_6_regular(self):
        g = build_cayley(paley(13).connection_set)
        assert set(g.degrees()) == {6}

    def test_rows_match_per_row_loop(self):
        rng = random.Random(61)
        sets = [davis(7).connection_set, davis(3).connection_set, paley(13).connection_set]
        for factors in [(3,), (4,), (5,), (6,), (9,), (12,), (13,), (2, 4), (2, 6), (3, 3), (5, 5)]:
            G = AbelianGroup(factors)
            sets += [validate_connection_set(G, []), random_inverse_closed(G, rng)]
        for conn in sets:
            assert build_cayley(conn).rows == reference_build_cayley(conn)


class TestComplementSet:
    def test_examples(self):
        Z5 = AbelianGroup((5,))
        conn = validate_connection_set(Z5, [(1,), (4,)])
        assert complement_connection_set(conn).elements == {(2,), (3,)}
        Z3 = AbelianGroup((3,))
        full = validate_connection_set(Z3, [(1,), (2,)])
        assert complement_connection_set(full).elements == frozenset()

    def test_paley13_complement_is_nonsquares(self):
        conn = paley(13).connection_set
        comp = complement_connection_set(conn)
        assert {g[0] for g in comp.elements} == {2, 5, 6, 7, 8, 11}

    def test_labeled_equality_with_graph_complement(self):
        rng = random.Random(43)
        for factors in [(13,), (3, 3), (2, 4), (9,)]:
            G = AbelianGroup(factors)
            for _ in range(5):
                conn = random_inverse_closed(G, rng)
                assert build_cayley(complement_connection_set(conn)) == complement(
                    build_cayley(conn)
                )


class TestConnectivity:
    def test_examples(self):
        Z4 = AbelianGroup((4,))
        assert not is_connected_cayley(validate_connection_set(Z4, [(2,)]))
        Z5 = AbelianGroup((5,))
        assert is_connected_cayley(validate_connection_set(Z5, [(1,), (4,)]))
        assert is_connected_cayley(davis(3).connection_set)

    def test_agrees_with_bfs(self):
        rng = random.Random(47)
        for factors in [(6,), (2, 4), (3, 3), (12,)]:
            G = AbelianGroup(factors)
            for _ in range(8):
                conn = random_inverse_closed(G, rng)
                assert is_connected_cayley(conn) == is_connected(build_cayley(conn))


class TestTranslations:
    def test_translations_are_automorphisms(self):
        rng = random.Random(53)
        for factors in [(13,), (3, 3), (2, 6)]:
            G = AbelianGroup(factors)
            conn = random_inverse_closed(G, rng)
            g = build_cayley(conn)
            add = G.add_table
            for g_idx in rng.sample(range(G.order), min(5, G.order)):
                perm = [int(x) for x in add[g_idx]]
                assert g.relabel(perm) == g


class TestLexProduct:
    def test_p5_p5_size(self):
        conn = paley(5).connection_set
        prod = lex_product(conn, conn)
        assert prod.size == 2 * 5 + 2
        assert prod.group.factors == (5, 5)

    def test_empty_right(self):
        Z5 = AbelianGroup((5,))
        s1 = validate_connection_set(Z5, [(1,), (4,)])
        s2 = validate_connection_set(AbelianGroup((3,)), [])
        prod = lex_product(s1, s2)
        assert prod.size == 2 * 3
        assert all(g[0] != 0 for g in prod.elements)

    def test_empty_left(self):
        s1 = validate_connection_set(AbelianGroup((3,)), [])
        Z5 = AbelianGroup((5,))
        s2 = validate_connection_set(Z5, [(1,), (4,)])
        prod = lex_product(s1, s2)
        assert prod.elements == {(0, 1), (0, 4)}

    def test_matches_direct_lexicographic_definition(self):
        rng = random.Random(59)
        cases = [((5,), (5,)), ((4,), (3,)), ((3, 3), (2,))]
        for f1, f2 in cases:
            G1, G2 = AbelianGroup(f1), AbelianGroup(f2)
            s1 = random_inverse_closed(G1, rng)
            s2 = random_inverse_closed(G2, rng)
            g1 = build_cayley(s1)
            g2 = build_cayley(s2)
            prod_graph = build_cayley(lex_product(s1, s2))
            n2 = G2.order
            # independent construction straight from the product definition
            edges = []
            for a in range(g1.n):
                for b in range(n2):
                    for c in range(g1.n):
                        for d in range(n2):
                            if (a, b) >= (c, d):
                                continue
                            if g1.has_edge(a, c) or (a == c and g2.has_edge(b, d)):
                                edges.append((a * n2 + b, c * n2 + d))
            assert prod_graph == DenseGraph.from_edges(g1.n * n2, edges)


class TestSetFileFormat:
    def test_round_trip(self):
        conn = paley(13).connection_set
        text = connection_set_to_text(conn)
        back = connection_set_from_text(text)
        assert back.group == conn.group
        assert back.elements == conn.elements
        assert text.startswith("group Z13\n")

    def test_round_trip_product_group(self):
        conn = davis(3).connection_set
        back = connection_set_from_text(connection_set_to_text(conn))
        assert back.group.factors == (9, 9)
        assert back.elements == conn.elements

    def test_rejects_headerless(self):
        with pytest.raises(ValueError):
            connection_set_from_text("1,2\n")

    def test_rejects_bad_tuple(self):
        with pytest.raises(ValueError):
            connection_set_from_text("group Z5\nx,y\n")
