"""Connection sets, Cayley graph construction, complements, products."""

import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cayleycert.cayley import (
    ConnectionSet,
    InvalidConnectionSetError,
    build_cayley,
    complement_connection_set,
    connection_set_from_text,
    connection_set_to_text,
    lex_product,
    validate_connection_set,
)
from cayleycert.cli import main
from cayleycert.families import davis, paley, peisert
from cayleycert.graphs import (
    BudgetError,
    DenseGraph,
    check_srg,
    complement,
    edge_neighborhood_edge_profile,
    intersection_array,
    invariant_counts,
    is_connected,
    sphere_sizes,
)
from cayleycert.groups import AbelianGroup

from test_graphs import bit_rows, check_adjacency_identity, edge_pairs
from test_groups import ORACLE_GROUPS, oracle_add, oracle_elements, oracle_neg, oracle_translation


def random_inverse_closed(G: AbelianGroup, rng: random.Random) -> ConnectionSet:
    elems = set()
    for g in oracle_elements(G):
        if g == G.identity or g in elems:
            continue
        if rng.random() < 0.5:
            elems.add(g)
            elems.add(oracle_neg(G, g))
    return validate_connection_set(G, elems)


def reference_build_cayley(conn: ConnectionSet) -> tuple[int, ...]:
    """The per-row loop build_cayley replaced: one packed bit row per vertex."""
    G = conn.group
    elems = oracle_elements(G)
    index = {g: i for i, g in enumerate(elems)}
    rows = [0] * G.order
    if conn.elements:
        for i, g in enumerate(elems):
            hits = np.zeros(G.order, dtype=bool)
            hits[[index[oracle_add(G, g, s)] for s in conn.elements]] = True
            rows[i] = int.from_bytes(np.packbits(hits, bitorder="little").tobytes(), "little")
    return tuple(rows)


def reference_generates_group(conn: ConnectionSet) -> bool:
    """The residue-tuple BFS that is_connected on the Cayley graph replaced:
    True iff the subgroup generated by S is all of G."""
    G = conn.group
    seen = {G.identity}
    frontier = [G.identity]
    gens = sorted(conn.elements)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = oracle_add(G, x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == G.order


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
        assert exc.value.violations == [
            "identity element present",
            "(1,) present but -(1,) = (6,) absent",
            "(2,) present but -(2,) = (5,) absent",
        ]

    def test_out_of_range_element(self):
        Z5 = AbelianGroup((5,))
        with pytest.raises(InvalidConnectionSetError):
            validate_connection_set(Z5, [(7,)])

    def test_every_unreduced_element_in_sorted_order(self):
        Z5 = AbelianGroup((5,))
        with pytest.raises(InvalidConnectionSetError) as exc:
            validate_connection_set(Z5, [(7,), (1,), (-1,), (1, 2), (10**30,), (0,)])
        assert exc.value.violations == [
            f"{g} is not a reduced element of Z5" for g in [(-1,), (1, 2), (7,), (10**30,)]
        ]

    def test_direct_set_rejects_bad_indices(self):
        # distinct integers in any order, kept ascending
        Z5 = AbelianGroup((5,))
        for members in [(5,), (-1,), (10**30,), (1, 1), (4, 1, 4)]:
            with pytest.raises(ValueError, match=r"distinct within \[0, 5\)"):
                ConnectionSet(Z5, members)
        for members in [(1, 2.0), ((1,),)]:
            with pytest.raises(TypeError):
                ConnectionSet(Z5, members)
        assert ConnectionSet(Z5, (1, 4)) == ConnectionSet(Z5, [4, 1])
        assert ConnectionSet(Z5, np.array([4, 1])).members == (1, 4)

    def test_each_maker_returns_the_constructed_set(self):
        """Every maker's set is ConnectionSet(G, the same indices): the
        families, lex_product, complement_connection_set and
        validate_connection_set, with plain int members."""
        p5, p9 = paley(5).connection_set, paley(9).connection_set
        made = {
            "paley13": paley(13).connection_set,
            "peisert9": peisert(9).connection_set,
            "davis3": davis(3).connection_set,
            "lex": lex_product(p5, p9),
            "complement": complement_connection_set(validate_connection_set(AbelianGroup((8,)), [(2,), (6,)])),
            "validate": validate_connection_set(AbelianGroup((3, 3)), [(0, 1), (0, 2), (1, 1), (2, 2)]),
        }
        G8, G33, G59 = AbelianGroup((8,)), AbelianGroup((3, 3)), AbelianGroup((5, 3, 3))
        want = {
            "lex": ConnectionSet(G59, [a * 9 + g for a in (1, 4) for g in range(9)] + list(p9.members)[::-1]),
            "complement": ConnectionSet(G8, [7, 5, 4, 3, 1]),
            "validate": ConnectionSet(G33, [G33.index_of(g) for g in [(2, 2), (1, 1), (0, 2), (0, 1)]]),
        }
        for name, conn in made.items():
            assert type(conn) is ConnectionSet
            assert all(type(i) is int for i in conn.members), name
            assert conn == ConnectionSet(conn.group, conn.members[::-1]) == want.get(name, conn), name

    def test_indices_without_index_of(self, monkeypatch, tmp_path, capsys):
        # a .set file is indexed once, by residues @ index_weights, and
        # verified on its indices: no per-element codec and no residue tuples
        sets = [davis(3).connection_set, lex_product(paley(5).connection_set, paley(9).connection_set)]
        texts = [connection_set_to_text(conn) for conn in sets]
        expected = [sorted(conn.group.index_of(g) for g in conn.elements) for conn in sets]
        calls = []
        index_of, elements = AbelianGroup.index_of, ConnectionSet.elements
        monkeypatch.setattr(AbelianGroup, "index_of", lambda G, g: calls.append(g) or index_of(G, g))
        monkeypatch.setattr(
            ConnectionSet, "elements", property(lambda c: calls.append(c) or elements.func(c))
        )
        codes = []
        for text, idx, path in zip(texts, expected, (tmp_path / "a.set", tmp_path / "b.set")):
            conn = connection_set_from_text(text)
            assert conn.indices() == idx and conn.indices() is not conn.indices()
            build_cayley(conn)
            assert connection_set_to_text(conn) == text
            path.write_text(text)
            codes.append(main(["verify", str(path), "--srg", "--dr", "--pds", "--schur", "--selfcomp"]))
        capsys.readouterr()
        assert codes == [0, 1]  # the product is self-complementary but not strongly regular
        assert calls == []

    def test_empty_set_is_valid(self):
        Z5 = AbelianGroup((5,))
        conn = validate_connection_set(Z5, [])
        assert build_cayley(conn).edge_count() == 0


class TestBuild:
    def test_c5(self):
        Z5 = AbelianGroup((5,))
        g = build_cayley(validate_connection_set(Z5, [(1,), (4,)]))
        assert edge_pairs(g) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_z4_matching(self):
        Z4 = AbelianGroup((4,))
        g = build_cayley(validate_connection_set(Z4, [(2,)]))
        assert edge_pairs(g) == [(0, 2), (1, 3)]
        assert not is_connected(g)

    def test_regularity_and_identity_neighbors(self):
        rng = random.Random(41)
        for factors in [(13,), (3, 3), (9,)]:
            G = AbelianGroup(factors)
            conn = random_inverse_closed(G, rng)
            g = build_cayley(conn)
            assert set(g.degrees()) <= {conn.size}
            neighbors_of_0 = {v for u, v in edge_pairs(g) if u == 0}
            assert neighbors_of_0 == set(conn.indices()) or conn.size == 0

    def test_paley13_is_6_regular(self):
        g = build_cayley(paley(13).connection_set)
        assert set(g.degrees()) == {6}

    def test_rows_match_per_row_loop(self):
        rng = random.Random(61)
        sets = [davis(7).connection_set, davis(3).connection_set, paley(13).connection_set]
        for factors in [
            (3,), (4,), (5,), (6,), (9,), (12,), (13,), (2, 4), (2, 6), (3, 3), (5, 5),
            (3, 3, 3, 3), (2, 2, 2), (9, 3),
        ]:
            G = AbelianGroup(factors)
            sets += [validate_connection_set(G, []), random_inverse_closed(G, rng)]
        for conn in sets:
            assert bit_rows(build_cayley(conn)) == reference_build_cayley(conn)


    def test_order_budget_checked_before_allocating(self):
        # at the constructor, the first check of a set, before any table of G
        for n in (4097, 1000000007):
            G = AbelianGroup((n,))
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError, match=f"group order {n} exceeds the desk-scale budget"):
                    ConnectionSet(G, (1, n - 1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * n

    def test_cyclic_build_peaks_under_4n2_bytes(self):
        # the n x n uint8 result, and no (j - i) mod n index table beside it
        conn = paley(4093).connection_set
        conn.indices()
        n = conn.group.order
        tracemalloc.start()
        try:
            g = build_cayley(conn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == n
        assert peak < 4 * n * n

    def test_marked_kernels_peak_under_2n2_bytes(self):
        # one n x n uint8 array for the build and no n x n float32 copy in
        # check_srg, intersection_array or sphere_sizes, which read vertex 0
        conn = davis(7).connection_set
        n = conn.group.order
        tracemalloc.start()
        try:
            g = build_cayley(conn)
            _, build_peak = tracemalloc.get_traced_memory()
            srg, dr = check_srg(g), intersection_array(g)
            sphere_sizes(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert srg.is_srg and dr.is_distance_regular
        assert n * n <= build_peak < 2 * n * n
        assert peak < 2 * n * n
        # the trace sees an unmarked copy's n x n float32 product operand (4 n^2)
        tracemalloc.start()
        try:
            check_srg(DenseGraph(g.adjacency()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 4 * n * n

    def test_unchecked_set_raises_under_optimization(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", INVALID_SETS], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "identity element present\n"
            "(1,) present but -(1,) = (4,) absent\n"
            "(0, 1) present but -(0, 1) = (0, 4) absent\n"
            "identity element present; (1,) present but -(1,) = (4,) absent; "
            "(2,) present but -(2,) = (3,) absent\n"
            "connection-set indices must be distinct within [0, 5)\n"
        )

    def test_unchecked_set_raises(self):
        # a set built directly is checked as a made one is: it raises when built
        G = AbelianGroup((3, 3))
        for members, violations in (
            ((0, 1, 2), ["identity element present"]),  # (0, 0), (0, 1), (0, 2)
            ((3, 4, 6), ["(1, 1) present but -(1, 1) = (2, 2) absent"]),  # (1, 0), (1, 1), (2, 0)
        ):
            with pytest.raises(InvalidConnectionSetError) as exc:
                ConnectionSet(G, members)
            assert exc.value.violations == violations


#: ConnectionSets built directly: Z5 with the identity, Z5 with 1 but not 4,
#: Z2 x Z5 with (0, 1) but not (0, 4) (the indices 1 and 5 being (0, 1) and
#: (1, 0)), Z5 with three violations, and Z5 with a repeated index.
INVALID_SETS = """
from cayleycert.cayley import ConnectionSet
from cayleycert.groups import AbelianGroup

Z5, Z2xZ5 = AbelianGroup((5,)), AbelianGroup((2, 5))
for G, members in ((Z5, (0, 1, 4)), (Z5, (1, 2, 3)), (Z2xZ5, (1, 5)), (Z5, (2, 1, 0)), (Z5, (1, 4, 1))):
    try:
        ConnectionSet(G, members)
    except ValueError as exc:
        print(exc)
"""


def marked_corpus() -> list[ConnectionSet]:
    """The families, two lexicographic products, seeded random sets, the
    empty set and a set inside a proper subgroup, with every complement."""
    rng = random.Random(67)
    p5, p9, p13 = (paley(q).connection_set for q in (5, 9, 13))
    sets = [paley(q).connection_set for q in (5, 13, 25, 29, 49, 81, 169)]
    sets += [peisert(q).connection_set for q in (9, 49, 81)]
    sets += [davis(3).connection_set, davis(5).connection_set]
    sets += [lex_product(p5, p5), lex_product(p9, p13)]
    for factors in [
        (5,), (8,), (12,), (2, 2, 2), (2, 4), (3, 3), (4, 4), (3, 9), (3, 3, 3), (5, 5), (7, 7)
    ]:
        G = AbelianGroup(factors)
        sets += [random_inverse_closed(G, rng) for _ in range(3)]
    Z3x9 = AbelianGroup((3, 9))
    sets.append(validate_connection_set(Z3x9, []))  # its complement is G minus 0: complete
    sets.append(validate_connection_set(Z3x9, [(0, 3), (0, 6), (1, 0), (2, 0)]))  # disconnected
    return sets + [complement_connection_set(c) for c in sets]


NON_EDGES = "common-neighbor count not constant on non-edges"
#: Marked graphs whose row 0 of A + A^2 misses a vertex, so that the
#: distances from vertex 0 take the bit-row BFS:
#: (group, elements, connected, srg reason, intersection array or dr reason)
BFS_FALLBACK_SETS = [
    ((4,), [(2,)], False, "disconnected", "disconnected"),
    ((2, 2, 2), [(0, 0, 1)], False, "disconnected", "disconnected"),
    ((3, 9), [(0, 3), (0, 6)], False, "disconnected", "disconnected"),
    # cycles of diameter 3 and 4: not SRG on non-edges, but distance-regular
    ((7,), [(1,), (6,)], True, NON_EDGES, ((2, 1, 1), (1, 1, 1))),
    ((9,), [(1,), (8,)], True, NON_EDGES, ((2, 1, 1, 1), (1, 1, 1, 1))),
]


def fallback_sets() -> list[ConnectionSet]:
    return [validate_connection_set(AbelianGroup(f), e) for f, e, *_ in BFS_FALLBACK_SETS]


def family_sets() -> list[ConnectionSet]:
    """Every construction family at orders marked_corpus leaves out, up to
    davis(7), whose unmarked copies the all-pairs and all-sources kernels
    check within seconds, with every complement."""
    p9, p13, p17 = (paley(q).connection_set for q in (9, 13, 17))
    sets = [paley(q).connection_set for q in (9, 17, 37, 41, 125, 361, 841)]
    sets += [peisert(q).connection_set for q in (121, 529)] + [davis(7).connection_set]
    sets += [lex_product(p13, p9), lex_product(p17, p13)]
    return sets + [complement_connection_set(c) for c in sets]


def assert_marked_matches_unmarked(conn: ConnectionSet):
    """is_connected, check_srg, intersection_array and sphere_sizes of the
    marked graph, from vertex 0 alone, equal the all-pairs and all-sources
    kernels on DenseGraph of the same array, witnesses included: row 0 of
    A + A^2 or the BFS fallback against the BFS; up to n = 625 the
    integer A^2 is the oracle for a certificate or a refuting count.
    Returns the two results."""
    g = build_cayley(conn)
    plain = DenseGraph(g.adjacency())
    assert g.vertex_transitive and not plain.vertex_transitive
    assert is_connected(g) == is_connected(plain)
    srg, dr = check_srg(g), intersection_array(g)
    assert srg == check_srg(plain)
    assert dr == intersection_array(plain)
    assert sphere_sizes(g) == sphere_sizes(plain)
    if g.n <= 625 and srg.is_srg:
        assert check_adjacency_identity(plain, srg.params)
    elif g.n <= 625 and srg.reason.startswith("common-neighbor count"):
        first, reference, pair, count = srg.witness
        A = plain.adjacency().astype(np.int64)
        square = A @ A
        assert square[first] == reference and square[pair] == count != reference
    return srg, dr


class TestVertexTransitiveKernels:
    def test_marked_graph_matches_dense_path(self):
        reasons = set()
        for conn in marked_corpus() + fallback_sets():
            srg, dr = assert_marked_matches_unmarked(conn)
            reasons |= {srg.reason, dr.reason}
        assert {
            None,
            "complete graph",
            "disconnected",
            "common-neighbor count not constant on edges",
            "common-neighbor count not constant on non-edges",
            "b_1 not constant",
            "b_2 not constant",
            "c_2 not constant",
        } <= reasons

    def test_per_vertex_counts_match_dense_path(self):
        """The clique kernel and the per-edge pass at vertex 0, scaled up,
        equal their all-vertex runs on an unmarked copy."""
        for conn in marked_corpus():
            g = build_cayley(conn)
            plain = DenseGraph(g.adjacency())
            assert invariant_counts(g) == invariant_counts(plain)
            assert edge_neighborhood_edge_profile(g) == edge_neighborhood_edge_profile(plain)

    def test_families_match_dense_path(self):
        for conn in family_sets():
            assert_marked_matches_unmarked(conn)
            # complement marks its graph with the set the other half checks
            assert complement(build_cayley(conn)).connection_set == complement_connection_set(conn)

    @pytest.mark.parametrize("factors", ORACLE_GROUPS, ids=lambda f: "x".join(map(str, f)))
    def test_random_sets_match_dense_path(self, factors):
        G = AbelianGroup(factors)
        rng = random.Random("x".join(map(str, factors)))
        for _ in range(3):
            conn = random_inverse_closed(G, rng)
            assert_marked_matches_unmarked(conn)
            assert_marked_matches_unmarked(complement_connection_set(conn))


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
    def test_fallback_reports(self):
        for conn, (_f, _e, connected, srg_reason, dr) in zip(fallback_sets(), BFS_FALLBACK_SETS):
            g = build_cayley(conn)
            assert is_connected(g) is connected
            assert check_srg(g).reason == srg_reason
            got = intersection_array(g)
            if connected:
                assert (got.array.bs, got.array.cs) == dr
            else:
                assert got.reason == dr

    def test_vertex_zero_bfs_only_on_fallback(self, monkeypatch):
        """No BFS on the marked family graphs, whose rows 0 of A + A^2 have no
        zero; one from vertex 0 on each fallback graph, shared by every check."""
        from cayleycert import graphs

        sources = []
        bfs = graphs._bfs_layers
        monkeypatch.setattr(graphs, "_bfs_layers", lambda g, s: sources.append(list(s)) or bfs(g, s))

        def run_checks(conn):
            g = build_cayley(conn)
            is_connected(g), check_srg(g), intersection_array(g), sphere_sizes(g)

        for conn in family_sets():
            run_checks(conn)
        assert sources == []
        for conn in fallback_sets():
            run_checks(conn)
            assert sources == [[0]]
            sources.clear()

    def test_examples(self):
        Z4 = AbelianGroup((4,))
        assert not is_connected(build_cayley(validate_connection_set(Z4, [(2,)])))
        Z5 = AbelianGroup((5,))
        assert is_connected(build_cayley(validate_connection_set(Z5, [(1,), (4,)])))
        assert is_connected(build_cayley(davis(3).connection_set))

    def test_agrees_with_bfs(self):
        rng = random.Random(47)
        for factors in [(6,), (2, 4), (3, 3), (12,)]:
            G = AbelianGroup(factors)
            for _ in range(8):
                conn = random_inverse_closed(G, rng)
                assert reference_generates_group(conn) == is_connected(build_cayley(conn))


class TestTranslations:
    def test_translations_are_automorphisms(self):
        rng = random.Random(53)
        for factors in [(13,), (3, 3), (2, 6)]:
            G = AbelianGroup(factors)
            conn = random_inverse_closed(G, rng)
            g = build_cayley(conn)
            for g_idx in rng.sample(range(G.order), min(5, G.order)):
                assert g.relabel(oracle_translation(G, g_idx)) == g


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
                            if g1.adjacency()[a, c] or (a == c and g2.adjacency()[b, d]):
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

    def test_text_lists_elements_in_index_order(self):
        Z3x3 = AbelianGroup((3, 3))
        conn = validate_connection_set(Z3x3, [(2, 0), (0, 1), (1, 0), (0, 2)])
        assert connection_set_to_text(conn) == "group Z3xZ3\n0,1\n0,2\n1,0\n2,0\n"

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
