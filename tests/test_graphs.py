"""Dense graph certification: SRG checks, intersection arrays, invariants,
mod-p ranks, and the graph6 / edge-list formats (graph6 against networkx)."""

import inspect
import itertools
import json
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from cayleycert.cayley import (
    ConnectionSet,
    build_cayley,
    complement_connection_set,
    lex_product,
    validate_connection_set,
)
from cayleycert.families import davis, paley, peisert
from cayleycert.groups import AbelianGroup, GroupAutomorphism, _automorphism_batches
from cayleycert import graphs
from cayleycert.graphs import (
    MAX_ORDER,
    DenseGraph,
    DistanceRegularResult,
    IntersectionArray,
    SelfCheckError,
    SrgParams,
    SrgResult,
    check_srg,
    class_edge_counts,
    complement,
    diameter,
    edge_neighborhood_edge_profile,
    from_edge_list,
    from_graph6,
    intersection_array,
    invariant_counts,
    is_connected,
    mod_p_rank,
    sphere_sizes,
    to_graph6,
    triangle_count,
)


def cycle(n):
    return DenseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return DenseGraph.from_edges(n, list(itertools.combinations(range(n), 2)))


def path(n):
    return DenseGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def empty(n):
    return DenseGraph(np.zeros((n, n), dtype=np.uint8))


def bit_rows(g):
    """Row u of the adjacency as a Python int with bit v set iff u ~ v, read
    from the row's digits: the bit rows the reference loops work on."""
    return tuple(int((row[::-1] + 48).tobytes(), 2) for row in g.adjacency())


def edge_pairs(g):
    """The edges (u, v), u < v, in row-major order."""
    us, vs = np.nonzero(np.triu(g.adjacency(), 1))
    return list(zip(us.tolist(), vs.tolist()))


def to_edge_list(g):
    """The "u v" lines from_edge_list reads, one per edge."""
    return "\n".join(f"{u} {v}" for u, v in edge_pairs(g)) + "\n"


def check_adjacency_identity(g, params):
    """The integer oracle for check_srg: A^2 = lam*A + mu*(J - I - A) + k*I
    in int64 matrices, all n^2 entries."""
    n, k, lam, mu = params.as_tuple()
    if n != g.n:
        return False
    A = g.adjacency().astype(np.int64)
    I = np.eye(n, dtype=np.int64)
    return bool(np.array_equal(A @ A, lam * A + mu * (1 - I - A) + k * I))


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return DenseGraph.from_edges(n, edges)


def paley_graph(q):
    return build_cayley(paley(q).connection_set)


def rank_oracle(matrix, p):
    """Independent rank computation: fraction-free elimination over Z_p
    using plain Python lists (no numpy)."""
    M = [[x % p for x in row] for row in matrix]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if M[r][col] % p), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], -1, p)
        M[rank] = [(x * inv) % p for x in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][col]:
                f = M[r][col]
                M[r] = [(a - f * b) % p for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match=re.escape("not symmetric at pair (0, 1)")):
            DenseGraph([[0, 1, 0], [0, 0, 0], [0, 0, 0]])

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop at vertex 1"):
            DenseGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="loop at vertex 1"):
            DenseGraph([[0, 0, 0], [0, 1, 0], [0, 0, 0]])

    @pytest.mark.parametrize(
        "A, message",
        [
            ([0b010, 0b000, 0b000], r"square matrix, not of shape \(3,\)"),  # bit rows
            (np.zeros((2, 3)), r"square matrix, not of shape \(2, 3\)"),
            (np.zeros((0, 0)), "at least one vertex"),
            (np.zeros((MAX_ORDER + 1,) * 2, dtype=np.uint8), "exceeds the desk-scale budget"),
            ([[0, 2], [2, 0]], re.escape("entry (0, 1) is not 0 or 1")),
            ([[0, 1], [-1, 0]], re.escape("entry (1, 0) is not 0 or 1")),
            ([[0, 0.5], [0.5, 0]], re.escape("entry (0, 1) is not 0 or 1")),
            (np.array([[0, 1], [2, 0]], dtype=np.uint8), re.escape("entry (1, 0) is not 0 or 1")),
        ],
    )
    def test_rejects_invalid_matrix(self, A, message):
        with pytest.raises(ValueError, match=message):
            DenseGraph(A)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.uint16, np.int8, np.int64, np.float32])
    def test_accepts_zero_one_entries_of_any_dtype(self, dtype):
        A = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=dtype)
        g = DenseGraph(A)
        assert g.adjacency().dtype == np.uint8 and edge_pairs(g) == [(0, 1), (0, 2)]

    def test_from_edges_checks_budget_first(self):
        with pytest.raises(ValueError, match="exceeds the desk-scale budget"):
            DenseGraph.from_edges(10**6, [])  # no 10^12-byte matrix is allocated
        with pytest.raises(ValueError, match=re.escape("edge (0, 3) out of range for n=3")):
            DenseGraph.from_edges(3, [(0, 3)])

    def test_keeps_a_read_only_copy(self):
        A = np.array([[0, 1], [1, 0]])
        g = DenseGraph(A)
        A[0, 1] = A[1, 0] = 0
        assert g.adjacency()[0, 1] and g.adjacency().dtype == np.uint8
        with pytest.raises(ValueError):
            g.adjacency()[0, 1] = 0

    def test_adjacency_mirror(self):
        g = cycle(5)
        A, rows = g.adjacency(), bit_rows(g)
        for u in range(5):
            for v in range(5):
                assert bool(A[u, v]) == bool((rows[u] >> v) & 1)

    def test_relabel_preserves_structure(self):
        g = path(4)
        h = g.relabel([3, 1, 0, 2])
        assert sorted(g.degrees()) == sorted(h.degrees())
        assert g.edge_count() == h.edge_count()

    @pytest.mark.parametrize("perm", [[1, 2, 3, 4], [-1, 0, 1, 2], [0, 0, 1, 2], [0, 1, 2]])
    def test_relabel_rejects_non_permutation(self, perm):
        with pytest.raises(ValueError, match=re.escape(f"{perm} is not a permutation of 0..3")):
            path(4).relabel(perm)


class TestComplement:
    def test_involution_random(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(rng.randrange(2, 12), 0.5, rng)
            assert complement(complement(g)) == g

    def test_c5_complement_is_other_circulant(self):
        g = complement(cycle(5))
        want = build_cayley(
            validate_connection_set(AbelianGroup((5,)), [(2,), (3,)])
        )
        assert g == want

    def test_empty_to_complete(self):
        assert complement(empty(3)) == complete(3)


class TestDiameter:
    def test_examples(self):
        assert diameter(cycle(5)) == 2
        assert diameter(paley_graph(13)) == 2
        assert diameter(empty(2)) is None  # two isolated vertices
        assert diameter(cycle(6)) == 3
        assert diameter(empty(1)) == 0

    def test_circulant_memo_holds_one_tuple(self):
        spheres = sphere_sizes(cycle(301))
        assert len(spheres) == 301
        assert len({id(sizes) for sizes in spheres}) == 1
        assert spheres[0] == (1,) + (2,) * 150

    def test_connectivity(self):
        assert is_connected(cycle(7))
        assert not is_connected(empty(2))


class TestCheckSrg:
    def test_paley_examples(self):
        assert check_srg(paley_graph(5)).params.as_tuple() == (5, 2, 0, 1)
        assert check_srg(paley_graph(13)).params.as_tuple() == (13, 6, 2, 3)

    def test_c6_not_srg_with_witness(self):
        res = check_srg(cycle(6))
        assert not res.is_srg
        assert res.witness is not None

    def test_derived_parameters(self):
        p = check_srg(paley_graph(13)).params
        assert p.beta == -1
        assert p.delta == 13  # conference: delta = n
        assert p.conference_t == 3
        assert p.count_identity_holds()
        assert p.integer_eigenvalues is None  # 13 is not a square

    def test_eigenvalues_square_case(self):
        p = SrgParams(625, 312, 155, 156)
        assert p.delta == 625
        assert p.integer_eigenvalues == (12, -13)

    def test_rejects_degenerates(self):
        assert check_srg(complete(5)).reason == "complete graph"
        assert check_srg(empty(2)).reason == "disconnected"
        assert not check_srg(path(3)).is_srg


class TestAdjacencyIdentity:
    def test_paley13(self):
        g = paley_graph(13)
        assert check_adjacency_identity(g, SrgParams(13, 6, 2, 3))
        assert not check_adjacency_identity(g, SrgParams(13, 6, 2, 4))

    def test_complete_degenerate(self):
        assert check_adjacency_identity(complete(5), SrgParams(5, 4, 3, 0))

    def test_agreement_with_check_srg(self):
        # On connected non-complete graphs the two certification paths agree:
        # check_srg succeeds iff the matrix identity holds with its params.
        rng = random.Random(17)
        corpus = [paley_graph(q) for q in (5, 9, 13, 25)] + [
            cycle(6),
            cycle(5),
            path(5),
            random_graph(8, 0.4, rng),
            random_graph(9, 0.6, rng),
        ]
        for g in corpus:
            res = check_srg(g)
            if res.is_srg:
                assert check_adjacency_identity(g, res.params)
                n, k, lam, mu = res.params.as_tuple()
                assert not check_adjacency_identity(g, SrgParams(n, k, lam, mu + 1))
            else:
                k = g.degrees()[0]
                for lam in range(g.n):
                    for mu in range(g.n):
                        assert not check_adjacency_identity(
                            g, SrgParams(g.n, k, lam, mu)
                        )


class TestIntersectionArray:
    def test_paley13(self):
        res = intersection_array(paley_graph(13))
        assert res.is_distance_regular
        assert res.array.bs == (6, 3)
        assert res.array.cs == (1, 3)
        assert str(res.array) == "{6,3;1,3}"

    def test_c6_hand_bfs(self):
        res = intersection_array(cycle(6))
        assert res.array.bs == (2, 1, 1)
        assert res.array.cs == (1, 1, 2)

    def test_path3_not_dr(self):
        res = intersection_array(path(3))
        assert not res.is_distance_regular
        assert res.reason == "not regular"

    def test_srg_array_formula(self):
        for q in (5, 9, 13, 25):
            g = paley_graph(q)
            p = check_srg(g).params
            arr = intersection_array(g).array
            assert arr.bs == (p.k, p.k - p.lam - 1)
            assert arr.cs == (1, p.mu)


class TestInvariantCounts:
    def test_examples(self):
        tri, quad, degs = invariant_counts(complete(4))
        assert (tri, quad) == (4, 1)
        assert invariant_counts(cycle(5))[:2] == (0, 0)
        tri13, quad13, _ = invariant_counts(paley_graph(13))
        assert tri13 == 26  # n*k*lam/6 = 13*6*2/6
        assert quad13 == 0

    def corpus(self):
        """Seeded random graphs of every density, the empty and complete
        graphs, n = 1, isolated vertices and two components, with each
        complement."""
        rng = random.Random(5)
        densities = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        out = [random_graph(rng.randrange(2, 12), p, rng) for p in densities for _ in range(2)]
        part = random_graph(8, 0.7, rng)
        out.append(DenseGraph(np.pad(part.adjacency(), (0, 3))))  # 3 more, all isolated
        two = np.zeros((11, 11), dtype=np.uint8)
        two[:5, :5] = complete(5).adjacency()
        two[5:, 5:] = random_graph(6, 0.8, rng).adjacency()
        out += [DenseGraph(two), empty(1), empty(7), complete(8)]
        return out + [complement(g) for g in out]

    def test_against_brute_force(self):
        for g in self.corpus():
            tri, quad, degs = invariant_counts(g)
            assert (tri, quad) == (brute_triangles(g), brute_four_cliques(g))
            assert degs == tuple(sorted(g.degrees()))

    def test_srg_triangle_formula(self):
        for q in (5, 9, 13, 25):
            g = paley_graph(q)
            p = check_srg(g).params
            tri = invariant_counts(g)[0]
            assert Fraction(p.n * p.k * p.lam, 6) == tri

    def test_against_brute_force_on_cayley_graphs(self):
        for g, marked, plain in cayley_clique_corpus():
            want = (brute_triangles(g), brute_four_cliques(g))
            assert invariant_counts(marked)[:2] == invariant_counts(plain)[:2] == want

    def test_edge_profile_weighted_sum_is_six_quads(self):
        """The per-edge pass and the clique kernel, two kernels, agree."""
        rng = random.Random(23)
        corpus = [random_graph(10, 0.6, rng)] + self.corpus()
        corpus += [x for _g, marked, plain in cayley_clique_corpus() for x in (marked, plain)]
        corpus += TestEdgesInsideKernel().corpus()
        for g in corpus:
            profile = edge_neighborhood_edge_profile(g)
            _, quad, _ = invariant_counts(g)
            assert sum(v * c for v, c in profile) == 6 * quad

    def test_clique_checks_raise_under_optimization(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", CLIQUE_FAULTS], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            # at vertex 1, row 0 meets the one arc 2->3 of N+(1) = {2, 3}
            "odd edges-inside count 1 at row 0",
            # the one arc 1->2 is all of G[N+(0)], and no row below 1 meets it
            "the clique sums 1 and 0 are not multiples of 2 and 1",
            # marked by C5's set: G[N(0)] holds the triangle 1 2 3 and the arcs 4->1, 4->2,
            # so each of the 4 rows counts one edge inside, 4 in all
            "the clique sums 8 and 4 are not multiples of 2 and 3",
            "1 triangles by the clique kernel, 26 by product",
        ]


class TestTriangleCount:
    """The SRG-parameter and edges-inside counts against the clique kernel."""

    def corpus(self):
        rng = random.Random(29)
        out = [random_graph(rng.randrange(2, 120), rng.random(), rng) for _ in range(8)]
        out.append(random_graph(graphs.ROW_BLOCK + 45, 0.3, rng))  # two row blocks
        part = random_graph(40, 0.5, rng)
        out.append(DenseGraph(np.pad(part.adjacency(), (0, 15))))  # 15 more, all isolated
        out += [empty(1), complete(2), complete(30), empty(12)]
        srgs = [paley_graph(q) for q in (13, 49, 81)]
        srgs += [build_cayley(peisert(49).connection_set), build_cayley(davis(3).connection_set)]
        return out + [complement(g) for g in out], srgs + [complement(g) for g in srgs]

    def test_against_the_clique_kernel(self):
        others, srgs = self.corpus()
        for g in others + srgs:
            assert triangle_count(g) == invariant_counts(g)[0]
        assert all(check_srg(g).is_srg for g in srgs)

    def test_product_path_on_srgs(self, monkeypatch):
        _, srgs = self.corpus()
        want = [triangle_count(g) for g in srgs]
        monkeypatch.setattr(graphs, "check_srg", lambda g: SrgResult(None, "forced", None))
        assert [graphs._triangle_count(g) for g in srgs] == want

    def test_mismatch_with_the_clique_kernel_raises(self, monkeypatch):
        from cayleycert.iso import fingerprint

        g = paley_graph(13)
        # 1 triangle from the kernel, which disagrees with n k lam / 6 = 26
        monkeypatch.setattr(graphs, "_clique_counts", lambda graph: (1, 0))
        with pytest.raises(SelfCheckError, match="triangle"):
            fingerprint(g)


def moved_set(conn, rng):
    """sigma(S) for an automorphism sigma of the group drawn by rng from the
    first batch of the scan's candidates: Cay(G, sigma(S)) is a Cayley graph
    isomorphic to Cay(G, S), labelled like its own set, not like S."""
    G = conn.group
    images, _residues = next(_automorphism_batches(G))
    row = images[rng.integers(len(images))]
    sigma = GroupAutomorphism(G, tuple(G.element_of(int(i)) for i in row))
    return ConnectionSet(G, sigma.as_permutation()[conn.indices()])


def moved_and_relabelled(conn, rng):
    """(g, marked, plain) for Cay(G, S) and for its complement: g as built,
    marked = the Cayley graph of the automorphism-moved set, and plain = a
    relabelled copy of g, which carries no connection set."""
    out = []
    for s in (conn, complement_connection_set(conn)):
        g = build_cayley(s)
        out.append((g, build_cayley(moved_set(s, rng)), g.relabel(rng.permutation(g.n))))
    return out


def cayley_clique_corpus():
    """moved_and_relabelled of family sets."""
    rng = np.random.default_rng(47)
    p5 = paley(5).connection_set
    sets = [paley(q).connection_set for q in (13, 25)] + [peisert(49).connection_set]
    sets += [davis(3).connection_set, lex_product(p5, p5)]
    return [triple for conn in sets for triple in moved_and_relabelled(conn, rng)]


def brute_triangles(g):
    A = g.adjacency()
    return sum(
        1 for a, b, c in itertools.combinations(range(g.n), 3) if A[a, b] and A[a, c] and A[b, c]
    )


def brute_edge_profile(g):
    """Per edge, the adjacent pairs among the common neighbors, by itertools."""
    A = g.adjacency()
    counts = Counter()
    for u, v in itertools.combinations(range(g.n), 2):
        if A[u, v]:
            common = [w for w in range(g.n) if A[u, w] and A[v, w]]
            counts[sum(1 for a, b in itertools.combinations(common, 2) if A[a, b])] += 1
    return tuple(sorted(counts.items()))


def brute_four_cliques(g):
    """Vertex triples spanning a triangle above their common lowest neighbor."""
    A = g.adjacency()
    total = 0
    for u in range(g.n):
        above = [w for w in range(u + 1, g.n) if A[u, w]]
        total += sum(
            1 for a, b, c in itertools.combinations(above, 3) if A[a, b] and A[a, c] and A[b, c]
        )
    return total


def _edges_inside(rows, mask):
    """e(G[mask]) from bit rows: one AND+popcount per vertex of mask sees
    every edge twice.  The reference for the product kernels."""
    twice = 0
    for w in range(mask.bit_length()):
        if mask >> w & 1:
            twice += (rows[w] & mask).bit_count()
    return twice // 2


def reference_class_edge_counts(g, colors, k):
    """The bit-row loop class_edge_counts replaced."""
    masks = [0] * k
    for v, c in enumerate(colors.tolist()):
        masks[c] |= 1 << v
    rows = bit_rows(g)
    return [[_edges_inside(rows, row & mask) for mask in masks] for row in rows]


class TestEdgesInsideKernel:
    """The one edge-counting kernel and its projections against itertools."""

    def corpus(self):
        rng = random.Random(31)
        out = [random_graph(rng.randrange(2, 12), rng.random(), rng) for _ in range(12)]
        out += [paley_graph(13), build_cayley(davis(3).connection_set)]
        return out + [complement(g) for g in out]

    def test_mask_counts(self):
        rng = random.Random(37)
        for g in self.corpus():
            rows = bit_rows(g)
            for _ in range(5):
                members = [v for v in range(g.n) if rng.random() < 0.5]
                mask = sum(1 << v for v in members)
                want = sum(1 for a, b in itertools.combinations(members, 2) if g.adjacency()[a, b])
                assert _edges_inside(rows, mask) == want
                A = g.adjacency().astype(np.float32)
                R = np.zeros((1, g.n), dtype=np.float32)
                R[0, members] = 1
                assert graphs._edges_inside(R, A).tolist() == [want]

    def test_exact_at_the_budget(self):
        # an all-ones row against K_MAX_ORDER: its row sum 4096 * 4095, twice
        # the edge count, is the largest a graph in the budget can make
        n = MAX_ORDER
        K = np.ones((n, n), dtype=np.float32)
        np.fill_diagonal(K, 0)
        R = np.ones((2, n), dtype=np.float32)
        R[1, -1] = 0
        assert graphs._edges_inside(R, K).tolist() == [n * (n - 1) // 2, (n - 1) * (n - 2) // 2]

    def test_profile_and_four_cliques(self):
        for g in self.corpus():
            assert edge_neighborhood_edge_profile(g) == brute_edge_profile(g)
            assert invariant_counts(g)[1] == brute_four_cliques(g)

    def test_inconsistent_counts_raise(self, monkeypatch):
        with pytest.raises(SelfCheckError, match="odd edges-inside count 1 at row 0"):
            invariant_counts(one_way_triangle())
        with pytest.raises(SelfCheckError, match="the clique sums 1 and 0"):
            invariant_counts(star_with_arcs(3, [(1, 2)]))
        g = paley_graph(13)
        monkeypatch.setattr(SrgParams, "count_identity_holds", lambda self: False)
        with pytest.raises(SelfCheckError):
            check_srg(g)


class TestClassEdgeCounts:
    def corpus(self):
        rng = random.Random(41)
        out = [random_graph(rng.randrange(1, 41), rng.random(), rng) for _ in range(15)]
        out += [paley_graph(13), build_cayley(davis(3).connection_set)]
        return out + [complement(g) for g in out]

    def test_against_bit_rows(self):
        rng = np.random.default_rng(43)
        for g in self.corpus():
            for k in (1, 2, 5, g.n):
                colors = rng.integers(0, k, size=g.n)
                got = class_edge_counts(g.adjacency().astype(np.float32), colors, k)
                assert got.tolist() == reference_class_edge_counts(g, colors, k)


def reference_pass(g):
    """The per-edge loop the matrix-product pass replaced: one _edges_inside
    count per edge."""
    counts = Counter()
    rows = bit_rows(g)
    for u, v in edge_pairs(g):
        counts[_edges_inside(rows, rows[u] & rows[v])] += 1
    return tuple(sorted(counts.items()))


def star_with_arcs(leaves, arcs, conn=None):
    """The star at vertex 0 on the leaves 1..leaves plus one-way arcs among
    them, past the constructor, which rejects an asymmetric matrix; with
    conn, a connection set that does not build it, as its mark."""
    n = leaves + 1
    faulty = np.zeros((n, n), dtype=np.uint8)
    faulty[0, 1:] = faulty[1:, 0] = 1
    for u, v in arcs:
        faulty[u, v] = 1
    return graphs.DenseGraph._proven(faulty, conn)


def one_way_triangle():
    """The star at vertex 0 plus one arc per edge of the triangle 1 2 3 in N(0)."""
    return star_with_arcs(3, [(1, 2), (1, 3), (2, 3)])


FAULT_PRELUDE = "import numpy as np\nfrom cayleycert import graphs\n\n" + "\n\n".join(
    inspect.getsource(f) for f in (star_with_arcs, one_way_triangle)
)

ODD_DIAGONAL_FAULT = FAULT_PRELUDE + """
try:
    graphs._common_neighborhood_pass(one_way_triangle())
except graphs.SelfCheckError as exc:
    print(exc)
"""

CLIQUE_FAULTS = FAULT_PRELUDE + """
from cayleycert import cayley, families, iso
from cayleycert.groups import AbelianGroup

triangle = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
c5 = cayley.ConnectionSet(AbelianGroup((5,)), [1, 4])
for g in (
    one_way_triangle(),
    star_with_arcs(3, [(1, 2)]),
    star_with_arcs(4, triangle + [(4, 1), (4, 2)], c5),
):
    try:
        graphs.invariant_counts(g)
    except graphs.SelfCheckError as exc:
        print(exc)
graphs._clique_counts = lambda graph: (1, 0)
try:
    iso.fingerprint(cayley.build_cayley(families.paley(13).connection_set))
except graphs.SelfCheckError as exc:
    print(exc)
"""


class TestCommonNeighborhoodPass:
    """The per-vertex matrix-product pass against the per-edge loop."""

    def corpus(self):
        rng = random.Random(41)
        out = [random_graph(rng.randrange(40, 151), rng.random(), rng) for _ in range(4)]
        part = random_graph(30, 0.5, rng)
        out.append(DenseGraph(np.pad(part.adjacency(), (0, 20))))  # 20 more, all isolated
        out += [complete(45), empty(40)]
        return out + [complement(g) for g in out]

    def test_against_per_edge_loop(self):
        for g in self.corpus():
            assert graphs._common_neighborhood_pass(g) == reference_pass(g)

    def test_odd_diagonal_raises_under_optimization(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", ODD_DIAGONAL_FAULT], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        # the one-way arcs 1->2, 2->3 and 1->3 in N(0) leave row 0 (vertex 1) the odd sum 1
        assert proc.stdout == "odd edges-inside count 1 at row 0\n"


def reference_check_srg(g):
    """The pair loop check_srg replaced: one AND+popcount per pair u < v in
    row-major order, lam and mu fixed by the first edge and non-edge."""
    n = g.n
    degs = g.degrees()
    k = degs[0]
    for u in range(1, n):
        if degs[u] != k:
            return SrgResult(None, "not regular", (0, u, k, degs[u]))
    if k == n - 1:
        return SrgResult(None, "complete graph", None)
    if not is_connected(g):
        return SrgResult(None, "disconnected", None)
    lam = mu = None
    lam_pair = mu_pair = None
    rows = bit_rows(g)
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            c = (ru & rows[v]).bit_count()
            if (ru >> v) & 1:
                if lam is None:
                    lam, lam_pair = c, (u, v)
                elif c != lam:
                    return SrgResult(
                        None, "common-neighbor count not constant on edges",
                        (lam_pair, lam, (u, v), c),
                    )
            else:
                if mu is None:
                    mu, mu_pair = c, (u, v)
                elif c != mu:
                    return SrgResult(
                        None, "common-neighbor count not constant on non-edges",
                        (mu_pair, mu, (u, v), c),
                    )
    if lam is None:
        return SrgResult(None, "no edges", None)
    return SrgResult(SrgParams(n, k, lam, mu))


def to_networkx(g):
    return nx.from_numpy_array(g.adjacency())


def nx_layers(G, s):
    """Bit masks of the distance spheres around s (mask i = sphere i), from
    networkx's BFS, which shares no code with the kernels under test."""
    dist = nx.single_source_shortest_path_length(G, s)
    layers = [0] * (max(dist.values()) + 1)
    for x, i in dist.items():
        layers[i] |= 1 << x
    return layers


def reference_intersection_array(g):
    """The per-source loop intersection_array replaced: a BFS from every
    source and two popcounts per vertex."""
    n = g.n
    degs = g.degrees()
    k = degs[0]
    for u in range(1, n):
        if degs[u] != k:
            return DistanceRegularResult(None, "not regular", (0, u, k, degs[u]))
    G = to_networkx(g)
    base_layers = nx_layers(G, 0)
    if sum(base_layers) != (1 << n) - 1:
        return DistanceRegularResult(None, "disconnected", None)
    d = len(base_layers) - 1
    rows = bit_rows(g)
    bs = [None] * d
    cs = [None] * d
    for s in range(n):
        layers = nx_layers(G, s)
        if len(layers) - 1 != d:
            return DistanceRegularResult(
                None, "eccentricity not constant", (0, d, s, len(layers) - 1)
            )
        for i, layer in enumerate(layers):
            above = layers[i + 1] if i + 1 <= d else 0
            below = layers[i - 1] if i >= 1 else 0
            for x in range(n):
                if not (layer >> x) & 1:
                    continue
                b = (rows[x] & above).bit_count()
                c = (rows[x] & below).bit_count()
                if i < d:
                    if bs[i] is None:
                        bs[i] = b
                    elif bs[i] != b:
                        return DistanceRegularResult(None, f"b_{i} not constant", (s, x, bs[i], b))
                if i >= 1:
                    if cs[i - 1] is None:
                        cs[i - 1] = c
                    elif cs[i - 1] != c:
                        return DistanceRegularResult(
                            None, f"c_{i} not constant", (s, x, cs[i - 1], c)
                        )
    return DistanceRegularResult(IntersectionArray(tuple(bs), tuple(cs)))


def reference_sphere_sizes(g):
    """The per-source BFS sphere_sizes replaced."""
    G = to_networkx(g)
    return tuple(tuple(m.bit_count() for m in nx_layers(G, s)) for s in range(g.n))


def hypercube(d):
    return DenseGraph.from_edges(
        1 << d, [(u, u ^ (1 << b)) for u in range(1 << d) for b in range(d) if u < u ^ (1 << b)]
    )


def from_networkx(G):
    return DenseGraph.from_edges(G.number_of_nodes(), list(G.edges()))


def join(g, h):
    """g and h side by side plus every edge between them; g's vertices first."""
    edges = edge_pairs(g) + [(u + g.n, v + g.n) for u, v in edge_pairs(h)]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return DenseGraph.from_edges(g.n + h.n, edges)


def late_join():
    """K_{4,4} joined to the Petersen complement: 14-regular, and every vertex
    of K_{4,4} sees constant lam, mu, b_i and c_i, so both checks first fail at
    row or source 8, the last of the third block when ROW_BLOCK is 3."""
    k44 = DenseGraph.from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])
    return join(k44, complement(from_networkx(nx.petersen_graph())))


#: A 3-regular graph on 10 vertices whose distance partitions around
#: vertices 0, 1 and 2 are equitable with the same b_i, c_i and eccentricity
#: 2, while vertex 3 has eccentricity 3.  The first failure of both checks is
#: in row or source 3, the first of the second block when ROW_BLOCK is 3.
LATE_FAILURE = [
    (0, 1), (0, 3), (0, 5), (1, 2), (1, 8), (2, 4), (2, 9), (3, 4),
    (3, 7), (4, 7), (5, 6), (5, 9), (6, 8), (6, 9), (7, 8),
]


class TestBlockKernels:
    """check_srg, intersection_array and sphere_sizes against the pair and
    per-source BFS loops they replaced: same parameters or array, reason and
    witness."""

    def corpus(self):
        rng = random.Random(43)
        out = [random_graph(rng.randrange(2, 40), rng.random(), rng) for _ in range(16)]
        out += [cycle(n) for n in range(5, 10)]
        out += [hypercube(3), hypercube(4), from_networkx(nx.petersen_graph())]
        out += [paley_graph(13), build_cayley(davis(3).connection_set)]
        p5 = paley(5).connection_set
        out.append(build_cayley(lex_product(p5, p5)))
        # regular, not strongly regular and not vertex-transitive
        out += [from_networkx(nx.random_regular_graph(3, n, seed=n)) for n in (12, 16, 20)]
        out += [from_networkx(nx.frucht_graph()), DenseGraph.from_edges(10, LATE_FAILURE), late_join()]
        # the Wagner graph: triangle-free, diameter 2, mu 1 or 2, so c_2 fails first
        out.append(from_networkx(nx.circulant_graph(8, [1, 4])))
        # disconnected: regular with equal or unequal components, isolated vertices
        five = [(i, (i + 1) % 5) for i in range(5)]
        out.append(DenseGraph.from_edges(10, five + [(u + 5, v + 5) for u, v in five]))
        out.append(DenseGraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]))
        out += [empty(4), empty(1)]
        # more vertices than one default block
        out += [paley_graph(257), from_networkx(nx.random_regular_graph(4, 300, seed=7))]
        # n times the eccentricity of vertex 0 past LAYER_PRODUCT_LIMIT: the bit-row BFS
        out += [cycle(200), path(150)]
        return out + [complement(g) for g in out]

    def assert_matches_loops(self, g):
        srg, dr = graphs._check_srg(g), intersection_array(g)
        assert srg == reference_check_srg(g)
        assert dr == reference_intersection_array(g)
        json.dumps([srg.witness, dr.witness])  # plain ints, as verify reports them
        assert graphs._sphere_sizes(g) == reference_sphere_sizes(g)
        return srg.reason, dr.reason

    def test_against_loops(self):
        corpus = self.corpus()
        assert max(g.n for g in corpus) > graphs.ROW_BLOCK
        reasons = {r for g in corpus for r in self.assert_matches_loops(g)}
        assert {
            None,
            "not regular",
            "complete graph",
            "disconnected",
            "common-neighbor count not constant on edges",
            "common-neighbor count not constant on non-edges",
            "eccentricity not constant",
        } <= reasons
        assert any(r.startswith("b_") for r in reasons if r)
        assert any(r.startswith("c_") for r in reasons if r)

    @pytest.mark.parametrize("limit", [-1, 10**9], ids=["bfs", "products"])
    def test_each_distance_kernel_against_loops(self, monkeypatch, limit):
        monkeypatch.setattr(graphs, "LAYER_PRODUCT_LIMIT", limit)
        for g in self.corpus():
            self.assert_matches_loops(g)

    def test_kernel_choice(self, monkeypatch):
        used = []
        for name in ("_product_distances", "_bfs_layers"):
            kernel = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, lambda *a, k=kernel, n=name: used.append(n) or k(*a))
        # a regular graph that is not strongly regular, past one row block
        regular = from_networkx(nx.random_regular_graph(4, 300, seed=7))
        assert not check_srg(regular).is_srg
        for g in (cycle(100), regular, cycle(200), path(150)):
            assert is_connected(g)  # the memoised BFS from vertex 0 runs here
            used.clear()
            graphs._sphere_sizes(g)
            n_ecc = g.n * (len(nx_layers(to_networkx(g), 0)) - 1)
            want = "_product_distances" if n_ecc <= graphs.LAYER_PRODUCT_LIMIT else "_bfs_layers"
            assert set(used) == {want}
        assert used == ["_bfs_layers"]  # path(150): 150 * 149 > LAYER_PRODUCT_LIMIT

    def test_srg_sphere_sizes_without_a_distance_pass(self, monkeypatch):
        """On a certified SRG, marked or not, the sphere sizes read off the
        parameters equal the per-source BFS, and no distance pass runs."""
        passes = []
        blocks = graphs._distance_blocks
        monkeypatch.setattr(
            graphs, "_distance_blocks", lambda *a: passes.append(a) or blocks(*a)
        )
        corpus = self.corpus()
        corpus += [x for _g, marked, plain in cayley_clique_corpus() for x in (marked, plain)]
        srgs = [g for g in corpus if check_srg(g).is_srg]
        assert len(srgs) >= 20 and any(not g.vertex_transitive for g in srgs)
        for g in srgs:
            assert graphs._sphere_sizes(g) == reference_sphere_sizes(g)
        assert passes == []

    def test_srg_intersection_array_against_the_layer_path(self, monkeypatch):
        """On the family graphs and their complements, as built, moved by a
        group automorphism and relabelled without a connection set, the array
        read off the SRG parameters equals the distance-layer path's, and no
        distance pass runs for it."""
        p5, p9, p13 = (paley(q).connection_set for q in (5, 9, 13))
        sets = [paley(q).connection_set for q in (5, 9, 13, 25, 49, 81, 169)]
        sets += [peisert(q).connection_set for q in (9, 49, 121)] + [davis(3).connection_set]
        sets += [lex_product(p5, p5), lex_product(p5, p9), lex_product(p9, p13), lex_product(p13, p9)]
        rng = np.random.default_rng(53)
        corpus = [g for conn in sets for triple in moved_and_relabelled(conn, rng) for g in triple]
        is_srg = [check_srg(g).is_srg for g in corpus]
        assert sum(is_srg) == 6 * 11  # all but the lexicographic products
        passes = []
        blocks = graphs._distance_blocks
        monkeypatch.setattr(graphs, "_distance_blocks", lambda *a: passes.append(a[0]) or blocks(*a))
        got = [intersection_array(g) for g in corpus]
        assert not any(g is h for g in passes for h, srg in zip(corpus, is_srg) if srg)
        monkeypatch.setattr(graphs, "check_srg", lambda g: SrgResult(None, "forced", None))
        assert got == [intersection_array(g) for g in corpus]
        assert all(dr.is_distance_regular for dr, srg in zip(got, is_srg) if srg)

    @pytest.mark.parametrize("limit", [-1, 10**9], ids=["bfs", "products"])
    def test_against_loops_across_block_edges(self, monkeypatch, limit):
        monkeypatch.setattr(graphs, "ROW_BLOCK", 3)
        monkeypatch.setattr(graphs, "LAYER_PRODUCT_LIMIT", limit)
        for g in self.corpus():
            self.assert_matches_loops(g)
        late = DenseGraph.from_edges(10, LATE_FAILURE)
        assert graphs._check_srg(late).witness[2] == (3, 4)
        assert intersection_array(late).witness == (0, 2, 3, 3)
        assert graphs._check_srg(late_join()).witness[2] == (8, 9)
        assert intersection_array(late_join()).witness == (8, 10, 3, 2)

    def test_diagonal_fault_raises(self):
        # unmarked, so the block path reads the matrix: a Cayley graph's row 0
        # of A^2 is S^2, which this fault does not reach
        g = DenseGraph(paley_graph(13).adjacency())
        faulty = g.adjacency().copy()
        v, w = np.flatnonzero(faulty[0])[0], np.flatnonzero(faulty[0, 1:] == 0)[0] + 1
        # move the arc 0 -> v to 0 -> w in row 0 alone: every row sum stays k,
        # so the graph still reads as regular, but only k - 1 arcs from 0 return
        faulty[0, v], faulty[0, w] = 0, 1
        g._adjacency = faulty  # past the constructor, which rejects an asymmetric matrix
        with pytest.raises(SelfCheckError, match="diagonal count"):
            graphs._check_srg(g)


class TestVertexTransitiveMark:
    """build_cayley marks its graphs with their connection set; complement
    carries the complement set, every other constructor and relabel leave the
    mark off, and a marked graph runs the SRG and distance kernels from
    vertex 0 alone."""

    def test_only_build_cayley_marks(self):
        conn = paley(13).connection_set
        g = build_cayley(conn)
        assert g.connection_set == conn and g.vertex_transitive
        assert complement(g).connection_set == complement_connection_set(conn)
        assert complement(complement(g)).connection_set == conn
        unmarked = [
            g.relabel(list(range(12, -1, -1))),
            DenseGraph(g.adjacency()),
            DenseGraph.from_edges(g.n, edge_pairs(g)),
            from_graph6(to_graph6(g)),
            from_edge_list(to_edge_list(g)),
        ]
        for h in unmarked:
            assert h.connection_set is None and not h.vertex_transitive
            assert complement(h).connection_set is None
            assert h.relabel(list(range(12, -1, -1))).connection_set is None
        # x -> -x is an automorphism, so even the relabelled copy equals g
        assert all(h == g for h in unmarked)
        for name in ("vertex_transitive", "connection_set"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)

    def test_mark_cannot_be_asserted(self):
        # the one way to mark is a connection set; the constructor takes none
        with pytest.raises(TypeError):
            DenseGraph(late_join().adjacency(), vertex_transitive=True)

    def test_one_source_zero_pass_per_marked_graph(self, monkeypatch):
        passes = []
        blocks = graphs._distance_blocks
        monkeypatch.setattr(
            graphs,
            "_distance_blocks",
            lambda g, stop, A=None: passes.append((g, stop)) or blocks(g, stop, A),
        )
        g = paley_graph(13)
        h = complement(g)
        plain = DenseGraph(g.adjacency())
        for x in (g, h, plain):
            assert sphere_sizes(x) == ((1, 6, 6),) * 13
            assert intersection_array(x).array == IntersectionArray((6, 3), (1, 3))
        c7 = build_cayley(validate_connection_set(AbelianGroup((7,)), [(1,), (6,)]))
        plain_c7 = DenseGraph(c7.adjacency())
        for x in (c7, plain_c7):
            assert sphere_sizes(x) == ((1, 2, 2, 2),) * 7
            assert intersection_array(x).array == IntersectionArray((2, 1, 1), (1, 1, 1))
        # sphere_sizes and intersection_array of a certified SRG run no pass;
        # otherwise one source-0 pass per marked graph and kernel, all
        # sources on an unmarked graph
        assert [stop for _graph, stop in passes] == [1, 1, 7, 7]
        graphs_passed = (c7, c7, plain_c7, plain_c7)
        assert all(y is x for (y, _stop), x in zip(passes, graphs_passed))
        for x in (g, c7):
            sizes = sphere_sizes(x)
            assert all(t is sizes[0] for t in sizes)  # one tuple, shared

    def test_one_vertex_per_marked_graph_in_the_per_vertex_kernels(self, monkeypatch):
        visits = []
        neighbourhoods = graphs._neighbourhoods

        def spy(g):
            for u, nbrs in neighbourhoods(g):
                visits.append((g, u))
                yield u, nbrs

        monkeypatch.setattr(graphs, "_neighbourhoods", spy)
        g = paley_graph(13)
        plain = DenseGraph(g.adjacency())
        for x in (g, plain):
            assert invariant_counts(x) == (26, 0, (6,) * 13)
            assert edge_neighborhood_edge_profile(x) == ((0, 39),)
        # the clique kernel, then the per-edge pass: vertex 0 when marked, all n otherwise
        want = [(g, 0)] * 2 + [(plain, u) for u in range(13)] * 2
        assert [(id(x), u) for x, u in visits] == [(id(x), u) for x, u in want]

    def test_wrong_mark_fails_the_clique_division(self):
        # K4 plus an isolated vertex: vertex 0 is in one 4-clique, and 5 / 4 is not whole
        marked = wrongly_marked(DenseGraph(np.pad(complete(4).adjacency(), (0, 1))))
        with pytest.raises(SelfCheckError, match="5 x 1 4-cliques at vertex 0 is not a multiple"):
            invariant_counts(marked)

    def test_wrong_mark_fails_the_edge_profile_checks(self):
        # vertex 0 of a path has one edge: n / 2 times it is 2 edges of P4,
        # which has 3, and half an edge of P5
        for g, message in ((path(4), "counts 2 edges, not 3"), (path(5), "not a multiple of 2")):
            marked = wrongly_marked(g)
            with pytest.raises(SelfCheckError, match=message):
                edge_neighborhood_edge_profile(marked)


def wrongly_marked(g):
    """g marked by the n-cycle's connection set {1, -1} over Z_n, which does
    not build it: a fault only the kernels' own checks can see."""
    return DenseGraph._proven(g.adjacency().copy(), ConnectionSet(AbelianGroup((g.n,)), [1, g.n - 1]))


class TestModPRank:
    def test_examples(self):
        assert mod_p_rank(cycle(5), 2) == 4
        assert mod_p_rank(empty(4), 3) == 0
        assert mod_p_rank(complete(3), 3, shift=1) == 1  # A+I = J over Z_3

    def test_against_oracle(self):
        # 46337 and 46349 are the primes either side of one step fitting int32;
        # 2^31 - 1 and the largest prime whose step fits int64 reduce the
        # trailing block every step.  The integer eigenvalues of paley(9),
        # paley(25) and C6 (shifts -1, 2, 3) make A + shift*I singular, which
        # only exact elimination, or for the Paley graphs their parameters,
        # reproduces.
        rng = random.Random(29)
        corpus = [random_graph(rng.randrange(3, 13), rng.random(), rng) for _ in range(8)]
        corpus += [paley_graph(9), paley_graph(25), cycle(6)]
        for p in (2, 3, 5, 7, 11, 46337, 46349, 2**31 - 1, 3037000493):
            for shift in (0, 1, 2, p - 1, p + 3, -1):
                for g in corpus:
                    A = g.adjacency().astype(int).tolist()
                    for i in range(g.n):
                        A[i][i] += shift
                    assert mod_p_rank(g, p, shift) == rank_oracle(A, p)

    def test_rejects_primes_too_large_for_int64(self):
        # 4294967311 is prime, but one elimination step, (p-1)^2, passes 2^63
        with pytest.raises(ValueError, match="too large"):
            mod_p_rank(cycle(5), 4294967311)
        with pytest.raises(ValueError, match="too large"):
            mod_p_rank(cycle(5), 2**127 - 1)  # rejected before trial division

    def test_permutation_invariance(self):
        rng = random.Random(31)
        g = random_graph(12, 0.5, rng)
        base = {(p, s): mod_p_rank(g, p, s) for p in (2, 3) for s in (0, 1)}
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            for (p, s), r in base.items():
                assert mod_p_rank(h, p, s) == r

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            mod_p_rank(cycle(5), 4)

    def test_elimination_kernels_on_srgs(self):
        # Strongly regular graphs reach the kernels only where their
        # parameters leave the rank open, so check the kernels here directly,
        # at shifts that make A + shift*I singular too (-1 and 2 on paley(9),
        # 3 on paley(25), 5 on davis(3)) and at the large primes of
        # test_against_oracle, where the Paley graphs once reached them.
        for g in (paley_graph(9), paley_graph(25), build_cayley(davis(3).connection_set)):
            for p in (2, 3, 5, 7, 46337, 2**31 - 1, 3037000493):
                for shift in [*range(min(p, 8)), -1]:
                    A = g.adjacency().astype(int).tolist()
                    for i in range(g.n):
                        A[i][i] += shift
                    assert graphs._eliminated_rank(g, p, shift) == rank_oracle(A, p)


def networkx_srgs():
    """Strongly regular graphs that networkx generates: triangular graphs
    T(m), rook's graphs L2(m), complete multipartite graphs K_{m x a} (m parts
    of size a), Petersen, Clebsch (the folded 5-cube) and Shrikhande (the 4 x 4
    torus with one diagonal class)."""
    out = [nx.line_graph(nx.complete_graph(m)) for m in range(4, 11)]
    out += [nx.cartesian_product(nx.complete_graph(m), nx.complete_graph(m)) for m in range(3, 8)]
    out += [nx.complete_multipartite_graph(*[a] * m) for m, a in ((3, 3), (2, 5), (4, 3))]
    out.append(nx.petersen_graph())
    clebsch = nx.hypercube_graph(4)
    clebsch.add_edges_from((v, tuple(1 - x for x in v)) for v in list(clebsch))
    shrikhande = nx.grid_2d_graph(4, 4, periodic=True)
    shrikhande.add_edges_from(((i, j), ((i + 1) % 4, (j + 1) % 4)) for i in range(4) for j in range(4))
    out += [clebsch, shrikhande]
    return [from_networkx(nx.convert_node_labels_to_integers(G, ordering="sorted")) for G in out]


def srg_corpus():
    """Paley 5..81, Peisert 49/81/121, davis(3) and networkx_srgs, each
    followed by its complement."""
    conns = [paley(q).connection_set for q in (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81)]
    conns += [peisert(q).connection_set for q in (49, 81, 121)] + [davis(3).connection_set]
    graphs_ = [build_cayley(c) for c in conns] + networkx_srgs()
    return [h for g in graphs_ for h in (g, complement(g))]


class TestSrgPRank:
    PRIMES = (2, 3, 5, 7, 11, 13)

    def test_parameter_ranks_match_elimination(self):
        fixed = open_ = 0
        for g in srg_corpus():
            srg = check_srg(g)
            if not srg.is_srg:  # the complement of a complete multipartite graph
                continue
            for p in self.PRIMES:
                for shift in range(p):
                    rank = srg.params.p_rank(p, shift)
                    if rank is None:
                        open_ += 1
                    else:
                        assert rank == graphs._eliminated_rank(g, p, shift), (srg.params, p, shift)
                        fixed += 1
        assert fixed > 10 * open_ > 0

    def test_rank_left_open(self):
        petersen = from_networkx(nx.petersen_graph())
        t4, t5 = (from_networkx(nx.convert_node_labels_to_integers(nx.line_graph(nx.complete_graph(m))))
                  for m in (4, 5))
        d5 = build_cayley(davis(5).connection_set)
        for g, p, shift in ((petersen, 2, 1), (t4, 3, 2), (t5, 5, 4), (d5, 5, 3)):
            assert check_srg(g).params.p_rank(p, shift) is None

    def test_davis5_fingerprint_ranks_fixed(self):
        params = check_srg(build_cayley(davis(5).connection_set)).params
        for p in (2, 3, 5, 7):
            for shift in (0, 1):
                assert params.p_rank(p, shift) is not None

    def test_multiplicities(self):
        assert SrgParams(10, 3, 0, 1).multiplicities() == (5, 4)  # Petersen: 1, -2
        assert SrgParams(13, 6, 2, 3).multiplicities() == (6, 6)  # paley(13), delta = 13
        assert SrgParams(625, 312, 155, 156).multiplicities() == (312, 312)
        # (n-k-1) mu = k (k-lam-1) = 8 holds, but f = 14/3
        with pytest.raises(SelfCheckError, match="14/3"):
            SrgParams(7, 4, 1, 4).multiplicities()
        # delta = 8 is not a square, and (10, 3, 0, 2) is not conference type
        with pytest.raises(SelfCheckError, match="not conference type"):
            SrgParams(10, 3, 0, 2).multiplicities()


def dense_random_graph(n, seed):
    """A seeded G(n, 1/2) drawn as a numpy bit matrix."""
    upper = np.triu(np.random.default_rng(seed).integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    return DenseGraph(upper | upper.T)


def reference_to_graph6(g):
    """The bit loop to_graph6 replaced: bit (i, j), i < j, column by column."""
    n = g.n
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    bits = []
    rows = bit_rows(g)
    for j in range(1, n):
        col = rows[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return header + "".join(chars)


def reference_from_graph6(text):
    """The bit loop from_graph6 replaced, for a header-free line: the bit rows."""
    if text[0] == "~":
        n = ((ord(text[1]) - 63) << 12) | ((ord(text[2]) - 63) << 6) | (ord(text[3]) - 63)
        body = text[4:]
    else:
        n, body = ord(text[0]) - 63, text[1:]
    bits = []
    for ch in body:
        bits.extend(((ord(ch) - 63) >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return tuple(rows)


def reference_relabel(g, perm):
    """The bit loop relabel replaced: the bit rows of the image."""
    rows = [0] * g.n
    for u, m in enumerate(bit_rows(g)):
        acc = 0
        while m:
            lsb = m & -m
            acc |= 1 << perm[lsb.bit_length() - 1]
            m ^= lsb
        rows[perm[u]] = acc
    return tuple(rows)


def reference_complement(g):
    """The bit loop complement replaced: the bit rows of the complement."""
    full = (1 << g.n) - 1
    return tuple((r ^ full) & ~(1 << u) for u, r in enumerate(bit_rows(g)))


class TestGraph6:
    def graphs(self):
        rng = random.Random(37)
        yield empty(1)
        yield cycle(5)
        yield complete(4)
        yield paley_graph(13)
        yield empty(3)
        for _ in range(6):
            yield random_graph(rng.randrange(2, 70), 0.4, rng)
        # the largest order with a one-byte header and the smallest with four
        yield random_graph(62, 0.5, rng)
        yield random_graph(63, 0.5, rng)

    def test_round_trip(self):
        for g in [*self.graphs(), dense_random_graph(4096, 53)]:
            assert from_graph6(to_graph6(g)) == g

    def test_against_reference_loops(self):
        corpus = list(self.graphs())
        for g in corpus + [complement(g) for g in corpus] + [dense_random_graph(4096, 53)]:
            text = to_graph6(g)
            assert text == reference_to_graph6(g)
            assert bit_rows(from_graph6(text)) == reference_from_graph6(text)
            assert bit_rows(complement(g)) == reference_complement(g)

    def test_relabel_against_reference_loop(self):
        rng = random.Random(59)
        corpus = list(self.graphs())
        for g in corpus + [complement(g) for g in corpus]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert bit_rows(g.relabel(perm)) == reference_relabel(g, perm)

    def test_against_networkx(self):
        for g in self.graphs():
            gx = nx.Graph()
            gx.add_nodes_from(range(g.n))
            gx.add_edges_from(edge_pairs(g))
            want = nx.to_graph6_bytes(gx, header=False).decode().strip()
            assert to_graph6(g) == want
            back = nx.from_graph6_bytes(to_graph6(g).encode())
            assert set(back.edges()) == {
                (u, v) for u, v in edge_pairs(g)
            } or set(back.edges()) == set(map(tuple, map(sorted, edge_pairs(g))))

    def test_large_n_header(self):
        g = empty(100)
        s = to_graph6(g)
        assert s[0] == "~"
        assert from_graph6(s).n == 100

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_graph6("")
        with pytest.raises(ValueError):
            from_graph6("D")  # truncated body for n=5
        for bad in (">", "\x7f", "\u00e9"):  # outside 63..126
            with pytest.raises(ValueError, match=re.escape(f"invalid graph6 byte {bad!r}")):
                from_graph6("D?" + bad)


class TestEdgeList:
    def test_round_trip(self):
        g = paley_graph(9)
        assert from_edge_list(to_edge_list(g)) == g

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            from_edge_list("0 1 2\n")
        with pytest.raises(ValueError):
            from_edge_list("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1 x\n", "line 2: bad vertex 'x'"),
            ("0 1\n1 -2\n", "line 2: bad vertex '-2'"),
            ("0 +1\n", "line 1: bad vertex '+1'"),
            ("0 1\n1 1.5\n", "line 2: bad vertex '1.5'"),
            ("# loops\n0 1\n\n1 1\n", "line 4: loop at vertex 1"),
            ("0 1\n1 2 3\n", "line 2: expected 'u v', got '1 2 3'"),
        ],
    )
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_edge_list(text)
