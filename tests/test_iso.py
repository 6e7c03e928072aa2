"""Isomorphism decisions against an independent brute-force oracle, plus
certificate validation and the self-complementarity pipeline."""

import itertools
import random
import subprocess
import sys

import numpy as np
import pytest

from cayleycert import groups, iso
from cayleycert.cayley import (
    build_cayley,
    complement_connection_set,
    lex_product,
    validate_connection_set,
)
from cayleycert.families import davis, paley, peisert
from cayleycert.graphs import DenseGraph, SelfCheckError, check_srg, class_edge_counts, complement
from cayleycert.groups import AbelianGroup
from test_graphs import moved_set
from test_groups import (
    oracle_apply,
    random_non_selfcomplementary_set,
    reference_automorphism_batches,
)
from cayleycert.iso import (
    IsoCertificate,
    _refine_pair,
    _row_keys,
    are_isomorphic,
    fingerprint,
    is_self_complementary,
    selfcomp_by_group_automorphism,
    verify_certificate,
)


# --- the oracle: written first, independent of the search implementation ---------


def oracle_isomorphic(g1: DenseGraph, g2: DenseGraph) -> bool:
    """Plain backtracking over partial vertex assignments; no refinement, no
    invariants, only adjacency consistency.  Exhaustive, so usable as ground
    truth for small n."""
    n = g1.n
    if n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    A1, A2 = g1.adjacency(), g2.adjacency()
    assigned = [-1] * n
    used = [False] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        for v in range(n):
            if used[v]:
                continue
            ok = True
            for w in range(u):
                if A1[u, w] != A2[v, assigned[w]]:
                    ok = False
                    break
            if ok:
                assigned[u] = v
                used[v] = True
                if extend(u + 1):
                    return True
                used[v] = False
                assigned[u] = -1
        return False

    return extend(0)


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return DenseGraph.from_edges(n, edges)


def cycle(n):
    return DenseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return DenseGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def corpus(rng):
    graphs = [
        cycle(5),
        path(5),
        cycle(6),
        path(4),
        DenseGraph(np.zeros((4, 4), dtype=np.uint8)),
        DenseGraph.from_edges(4, [(0, 1), (2, 3)]),
    ]
    for n in (5, 6, 7, 8, 9, 10, 11, 12):
        graphs.append(random_graph(n, 0.5, rng))
    # add relabelings so the corpus contains isomorphic pairs
    for g in list(graphs)[:8]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabel(perm))
    return graphs


class TestOracleAgreement:
    def test_all_pairs(self):
        rng = random.Random(101)
        graphs = corpus(rng)
        for i, g1 in enumerate(graphs):
            for g2 in graphs[i:]:
                want = oracle_isomorphic(g1, g2)
                decision = are_isomorphic(g1, g2)
                assert decision.isomorphic == want, (i, g1, g2)
                if decision.isomorphic:
                    assert verify_certificate(g1, g2, decision.certificate.permutation)

    def test_forced_search_agrees(self):
        # monotone pipeline: skipping the invariant screens must not change answers
        rng = random.Random(103)
        for _ in range(15):
            n = rng.randrange(4, 9)
            g1 = random_graph(n, 0.5, rng)
            g2 = random_graph(n, 0.5, rng)
            want = oracle_isomorphic(g1, g2)
            assert are_isomorphic(g1, g2, force_search=True).isomorphic == want
            perm = list(range(n))
            rng.shuffle(perm)
            assert are_isomorphic(g1, g1.relabel(perm), force_search=True).isomorphic


class TestExamples:
    def test_c5_relabeled(self):
        g = cycle(5)
        h = g.relabel([0, 2, 4, 1, 3])
        d = are_isomorphic(g, h)
        assert d.isomorphic
        assert verify_certificate(g, h, d.certificate.permutation)

    def test_c5_vs_path(self):
        d = are_isomorphic(cycle(5), path(5))
        assert d.isomorphic is False
        assert d.certificate.kind == "invariant-refutation"
        assert d.certificate.invariant == "degrees"

    def test_vertex_count_mismatch(self):
        d = are_isomorphic(cycle(5), cycle(6))
        assert d.isomorphic is False
        assert d.certificate.invariant == "vertex-count"

    def test_paley13_vs_complement(self):
        g = build_cayley(paley(13).connection_set)
        d = are_isomorphic(g, complement(g))
        assert d.isomorphic
        assert verify_certificate(g, complement(g), d.certificate.permutation)

    def test_paley49_vs_peisert49(self):
        # classic non-isomorphic pair with identical parameters (49,24,11,12)
        p = build_cayley(paley(49).connection_set)
        s = build_cayley(peisert(49).connection_set)
        assert check_srg(p).params == check_srg(s).params
        d = are_isomorphic(p, s)
        assert d.isomorphic is False
        assert d.certificate.kind in ("invariant-refutation", "search-exhausted")

    def test_davis3_vs_paley81(self):
        # same parameters (81,40,19,20) but genuinely different graphs
        d3 = build_cayley(davis(3).connection_set)
        p81 = build_cayley(paley(81).connection_set)
        assert check_srg(d3).params == check_srg(p81).params
        d = are_isomorphic(d3, p81)
        assert d.isomorphic is False


class TestVerifyCertificate:
    def test_identity(self):
        g = cycle(7)
        assert verify_certificate(g, g, list(range(7)))

    def test_edge_count_mismatch(self):
        assert not verify_certificate(cycle(5), path(5), [0, 1, 2, 3, 4])

    def test_non_permutation_rejected(self):
        g = cycle(5)
        assert not verify_certificate(g, g, [0, 0, 1, 2, 3])
        assert not verify_certificate(g, g, [0, 1, 2, 3, 7])


class TestFingerprint:
    def test_invariance_under_relabeling(self):
        rng = random.Random(107)
        for _ in range(5):
            g = random_graph(rng.randrange(5, 12), 0.5, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert fingerprint(g) == fingerprint(g.relabel(perm))

    def test_separates_c5_path5(self):
        assert fingerprint(cycle(5)) != fingerprint(path(5))

    def test_paley13_selfcomp_fingerprints_agree(self):
        g = build_cayley(paley(13).connection_set)
        assert fingerprint(g) == fingerprint(complement(g))

    def test_record_fields(self):
        fp = fingerprint(build_cayley(paley(13).connection_set))
        assert fp.n == 13
        assert fp.srg == (13, 6, 2, 3)
        assert fp.triangles == 26
        assert fp.four_cliques == 0
        assert len(fp.mod_ranks) == 8
        assert all(len(prof) == 3 for prof in fp.distance_distribution)

    def test_disconnected_profile(self):
        fp = fingerprint(DenseGraph(np.zeros((2, 2), dtype=np.uint8)))
        assert fp.distance_distribution == ((1, 1), (1, 1))

    def test_decision_stops_at_first_differing_field(self, monkeypatch):
        # C6 and two triangles agree on n, degrees and srg, and differ in triangles
        two_triangles = DenseGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        fp1, fp2 = fingerprint(cycle(6)), fingerprint(two_triangles)
        differing = [name for name in fp1.FIELDS if getattr(fp1, name) != getattr(fp2, name)]
        assert differing[0] == "triangles"
        ranks = []
        monkeypatch.setattr(iso, "mod_p_rank", lambda *args: ranks.append(args))
        d = are_isomorphic(cycle(6), two_triangles)
        assert (d.certificate.invariant, d.certificate.values) == ("triangles", (0, 2))
        assert ranks == []

    def test_davis5_ranks_eliminated_only_by_the_spectral_screen(self, monkeypatch):
        # davis(5) is (625, 312, 155, 156) with r - s = 25: its parameters
        # fix all eight fingerprint ranks, but not the 5-rank of A + 3I
        from cayleycert import graphs

        calls = []
        odd, gf2 = graphs._odd_p_rank, graphs._gf2_rank
        monkeypatch.setattr(graphs, "_odd_p_rank", lambda *a: calls.append(a[1:]) or odd(*a))
        monkeypatch.setattr(graphs, "_gf2_rank", lambda rows: calls.append(2) or gf2(rows))
        g = build_cayley(davis(5).connection_set)
        h = g.relabel(np.random.default_rng(5).permutation(g.n))
        ranks = (312, 313, 312, 313, 625, 625, 625, 625)  # as eliminated before
        assert fingerprint(h).mod_ranks == tuple(zip(itertools.product((2, 3, 5, 7), (0, 1)), ranks))
        assert calls == []
        assert iso._first_difference(g, h, [("spectral rank screen", iso._spectral_ranks)]) is None
        assert calls == [(5, 3), (5, 3)]

    def test_spectral_refutation_after_the_edge_profile(self, monkeypatch):
        # paley(25) is (25, 12, 5, 6) with r - s = 5: its one spectral rank is
        # that of A + 3I over Z_5, made one higher on the complement here
        from cayleycert import graphs

        g = build_cayley(paley(25).connection_set)
        h = complement(g)
        events = []
        rank, edge_pass = iso.mod_p_rank, graphs._common_neighborhood_pass

        def spy_rank(x, p, shift):
            if (p, shift) == (5, 3):
                events.append(("rank", x is h))
            return rank(x, p, shift) + (x is h and (p, shift) == (5, 3))

        monkeypatch.setattr(iso, "PROBE_NODES", 0)
        monkeypatch.setattr(iso, "mod_p_rank", spy_rank)
        monkeypatch.setattr(
            graphs,
            "_common_neighborhood_pass",
            lambda x: events.append(("profile", x is h)) or edge_pass(x),
        )
        d = are_isomorphic(g, h)
        r = rank(g, 5, 3)
        assert (d.certificate.invariant, d.certificate.values) == ("mod_5_rank(A+3I)", (r, r + 1))
        assert d.decided_by == "spectral rank screen"
        assert events == [("profile", False), ("profile", True), ("rank", False), ("rank", True)]

    def test_one_all_source_bfs_per_graph(self, monkeypatch):
        from cayleycert import graphs

        sources, passes = [], []
        bfs, blocks = graphs._bfs_layers, graphs._distance_blocks
        monkeypatch.setattr(
            graphs, "_bfs_layers", lambda g, s: sources.append(list(s)) or bfs(g, s)
        )
        monkeypatch.setattr(
            graphs,
            "_distance_blocks",
            lambda g, stop, A=None: passes.append((g, stop)) or blocks(g, stop, A),
        )
        g = build_cayley(paley(13).connection_set)
        h = complement(g)
        plain = DenseGraph(g.adjacency())
        c7 = cycle(7)
        for x in (g, h, plain, c7):
            fingerprint(x)
            assert graphs.diameter(x) == (3 if x is c7 else 2)
        # the BFS from vertex 0 once per unmarked graph (memoised for
        # check_srg's connectivity test and the distance kernel's choice) and
        # none on the marked SRGs, connected by row 0 of A + A^2; no distance
        # pass on the certified SRGs, marked or not, whose sphere sizes come
        # from their parameters, and one from every source on the unmarked C7
        assert sources == [[0]] * 2
        assert [stop for _graph, stop in passes] == [7]
        assert passes[0][0] is c7


class TestRefinementInvariance:
    def test_stable_color_class_sizes_invariant(self):
        rng = random.Random(109)
        for deep in [False] * 5 + [True] * 5:
            g = random_graph(rng.randrange(5, 11), 0.5, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            # float32 adjacency matrices, as the search passes them
            A1 = g.adjacency().astype(np.float32)
            A2 = h.adjacency().astype(np.float32)
            c1, c2 = _refine_pair(A1, A2, np.zeros(g.n, np.int64), np.zeros(g.n, np.int64), deep)
            assert c1 is not None
            # same multiset of stable color class sizes on both sides
            assert sorted(np.bincount(c1)) == sorted(np.bincount(c2))
            # and colors correspond under the relabeling
            assert all(c1[v] == c2[perm[v]] for v in range(g.n))


# --- the full-recount refinement, kept as the oracle of the incremental one ---------


def reference_refine_pair(A1, A2, c1, c2, deep):
    """The refinement that counted every round against every color class."""
    n = A1.shape[0]
    ncolors = -1
    while True:
        # basic rounds until the color count stops growing
        while True:
            k = int(max(c1.max(initial=0), c2.max(initial=0))) + 1
            split = reference_split(reference_neighbor_counts, A1, A2, c1, c2, k)
            if split is None:
                return None, None
            c1, c2, count = split
            if count == ncolors:
                break
            ncolors = count
            if ncolors == n:
                return c1, c2
        if not deep or ncolors > iso.DEEP_REFINE_CELL_CAP:
            return c1, c2
        split = reference_split(class_edge_counts, A1, A2, c1, c2, ncolors)
        if split is None:
            return None, None
        if split[2] == ncolors:
            return c1, c2  # deep step split nothing; stable
        c1, c2, ncolors = split


def reference_neighbor_counts(A, colors, k):
    return A @ np.eye(k, dtype=np.float32)[colors]


def reference_split(counts, A1, A2, c1, c2, k):
    n = len(c1)
    rows = np.vstack([counts(A1, c1, k), counts(A2, c2, k)])
    rows = np.column_stack([np.concatenate([c1, c2]), rows])
    be = np.ascontiguousarray(rows, dtype=">u4")
    keys, inverse = np.unique(
        be.view(np.dtype((np.void, 4 * be.shape[1])))[:, 0], return_inverse=True
    )
    new1, new2, m = inverse[:n], inverse[n:], len(keys)
    if not np.array_equal(np.bincount(new1, minlength=m), np.bincount(new2, minlength=m)):
        return None
    return new1, new2, m


def assert_same_refinement(got, want):
    if want[0] is None:
        assert got == (None, None)
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestIncrementalRefinement:
    """Counting only against the changed cells gives the colors, and the
    conflicts, of counting against every cell."""

    def test_random_pairs_and_individualizations(self):
        rng = random.Random(139)
        for trial in range(40):
            deep = trial % 2 == 1
            n = rng.randrange(4, 15)
            g = random_graph(n, rng.choice([0.3, 0.5]), rng)
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm) if trial % 4 < 2 else random_graph(n, 0.5, rng)
            A1 = g.adjacency().astype(np.float32)
            A2 = h.adjacency().astype(np.float32)
            zeros = np.zeros(n, np.int64)
            c1, c2 = _refine_pair(A1, A2, zeros, zeros, deep)
            assert_same_refinement((c1, c2), reference_refine_pair(A1, A2, zeros, zeros, deep))
            # individualize down one random branch, as the search does
            while c1 is not None and (cell := iso._target_cell(c1)) is not None:
                v = int(np.flatnonzero(c1 == cell)[0])
                u = rng.choice(np.flatnonzero(c2 == cell).tolist())
                fresh = int(c1.max()) + 1
                t1, t2 = c1.copy(), c2.copy()
                t1[v] = t2[u] = fresh
                c1, c2 = _refine_pair(A1, A2, t1, t2, deep, np.array([cell, fresh]))
                assert_same_refinement((c1, c2), reference_refine_pair(A1, A2, t1, t2, deep))

    @pytest.mark.parametrize(
        "conn",
        [
            lambda: lex_product(paley(13).connection_set, paley(9).connection_set),
            lambda: paley(169).connection_set,
            lambda: davis(3).connection_set,
        ],
        ids=["P13xP9", "paley169", "davis3"],
    )
    def test_every_search_node(self, monkeypatch, conn):
        g = build_cayley(conn())
        g = g.relabel(np.random.default_rng(149).permutation(g.n))
        calls = []

        def spy(A1, A2, c1, c2, deep, changed=None):
            got = _refine_pair(A1, A2, c1, c2, deep, changed)
            assert_same_refinement(got, reference_refine_pair(A1, A2, c1, c2, deep))
            calls.append(changed is None)
            return got

        monkeypatch.setattr(iso, "_refine_pair", spy)
        decision = are_isomorphic(g, complement(g), force_search=True)
        assert decision.isomorphic
        assert calls[0] and len(calls) > 1 and not any(calls[1:])


class TestDeepSignature:
    def test_against_brute_force(self):
        rng = random.Random(113)
        for _ in range(10):
            g = random_graph(rng.randrange(2, 12), 0.5, rng)
            k = rng.randrange(1, 5)
            colors = np.array([rng.randrange(k) for _ in range(g.n)], dtype=np.int64)
            A = g.adjacency()
            sig = class_edge_counts(A.astype(np.float32), colors, k)
            for v in range(g.n):
                want = [
                    sum(
                        1
                        for a, b in itertools.combinations(range(g.n), 2)
                        if colors[a] == colors[b] == c
                        and A[v, a] and A[v, b] and A[a, b]
                    )
                    for c in range(k)
                ]
                assert sig[v].tolist() == want


class TestRowKeys:
    """The byte keys rank rows exactly as np.unique(rows, axis=0) does, in
    both key widths: uint16 for neighbour counts, uint32 for the deep step."""

    WIDTHS = {">u2": 2**16, ">u4": 2**32}

    def matrices(self):
        rng = np.random.default_rng(127)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            width = int(rng.integers(1, 2 * n + 1))
            top = int(rng.choice([2, n + 1, 2**16, 2**24 + 1]))
            M = rng.integers(0, top, size=(n, width), dtype=np.int64)
            M[:, width - int(rng.integers(0, width)) :] = 0  # trailing zero columns
            M = M[rng.integers(0, n, size=2 * n)]  # duplicated rows
            yield M

    def test_ranks_equal_unique_rows(self):
        for dtype, top in self.WIDTHS.items():
            tested = 0
            for M in self.matrices():
                if M.max() >= top:
                    continue  # entries past this width
                uniq, inverse = np.unique(M, axis=0, return_inverse=True)
                keys, key_inverse = np.unique(_row_keys(M.astype(dtype)), return_inverse=True)
                assert len(keys) == len(uniq)
                assert np.array_equal(key_inverse.ravel(), inverse.ravel())
                tested += 1
            assert tested >= 40

    def test_largest_entries(self):
        for dtype, M in [
            (">u4", [[2**32 - 1, 0], [2**24, 2**31], [2**24, 2**31 - 1], [0, 2**32 - 1]]),
            (">u2", [[2**16 - 1, 0], [2**8, 2**15], [2**8, 2**15 - 1], [0, 2**16 - 1]]),
        ]:
            _, inverse = np.unique(_row_keys(np.array(M, dtype=dtype)), return_inverse=True)
            assert inverse.tolist() == [3, 2, 1, 0]

    def test_keys_are_a_view(self):
        rows = np.arange(12).astype(">u2").reshape(4, 3)
        assert np.shares_memory(_row_keys(rows), rows)


class TestRecursionLimit:
    def test_search_restores_the_limit(self):
        rng = random.Random(131)
        g = random_graph(300, 0.5, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        before = sys.getrecursionlimit()
        assert before < 3 * g.n + 200  # the search raises it
        decision = are_isomorphic(g, g.relabel(perm), force_search=True)
        assert decision.isomorphic
        assert sys.getrecursionlimit() == before


class TestGroupAutomorphismCertificates:
    @pytest.mark.parametrize("q", [5, 9, 13, 25])
    def test_paley_certificate(self, q):
        rep = paley(q)
        g = build_cayley(rep.connection_set)
        cert, scanned = selfcomp_by_group_automorphism(rep.connection_set)
        assert cert is not None
        assert scanned >= 1
        # a group-automorphism certificate implies a vertex-bijection certificate
        assert verify_certificate(g, complement(g), cert.permutation)

    def test_paley13_doubling_is_first(self):
        rep = paley(13)
        cert, _ = selfcomp_by_group_automorphism(rep.connection_set)
        assert cert.automorphism.generator_images == ((2,),)

    def test_non_half_size_scan_is_trivial(self):
        Z5 = AbelianGroup((5,))
        conn = validate_connection_set(Z5, [])
        cert, scanned = selfcomp_by_group_automorphism(conn)
        assert cert is None and scanned == 0


def reference_scan(conn):
    """The scan the probe filter replaced: sort sigma(S) for every automorphism
    of the full-permutation filter and stop at the first that equals N.
    Returns (generator image indices, permutation, scanned) or None, scanned."""
    s_idx = np.array(conn.indices(), dtype=np.int64)
    n_idx = np.array(complement_connection_set(conn).indices(), dtype=np.int64)
    scanned = 0
    for img_idx, perms in reference_automorphism_batches(conn.group):
        hits = np.nonzero((np.sort(perms[:, s_idx], axis=1) == n_idx).all(axis=1))[0]
        if hits.size:
            hit = int(hits[0])
            return (tuple(img_idx[hit]), tuple(perms[hit]), scanned + hit + 1)
        scanned += len(img_idx)
    return None, scanned


def moved(conn, rng):
    """conn carried by a seeded random automorphism of its group."""
    G = conn.group
    autos = np.concatenate([idx for idx, _ in reference_automorphism_batches(G)])
    images = autos[rng.randrange(len(autos))]
    gens = tuple(G.element_of(int(i)) for i in images)
    return validate_connection_set(G, {oracle_apply(G, gens, g) for g in conn.elements})


SCAN_INPUTS = {
    "paley13": lambda: paley(13).connection_set,
    "paley25": lambda: paley(25).connection_set,
    "paley49": lambda: paley(49).connection_set,
    "peisert49": lambda: peisert(49).connection_set,
    "davis3": lambda: davis(3).connection_set,
    "P9[P13]": lambda: lex_product(paley(9).connection_set, paley(13).connection_set),
    "P13[P9]": lambda: lex_product(paley(13).connection_set, paley(9).connection_set),
    # |S| = 84, past the 63 probes of the chunks 1, 2, ..., 32
    "P13[P13]": lambda: lex_product(paley(13).connection_set, paley(13).connection_set),
    "paley169": lambda: paley(169).connection_set,
}


class TestScanAgainstReference:
    """The probe-filter scan against the full-permutation scan: the same
    generator images, permutation and automorphisms_scanned."""

    @staticmethod
    def assert_same(conn):
        cert, scanned = selfcomp_by_group_automorphism(conn)
        want = reference_scan(conn)
        if want[0] is None:
            assert cert is None and scanned == want[1]
            return
        G = conn.group
        images = tuple(G.element_of(int(i)) for i in want[0])
        assert cert.automorphism.generator_images == images
        assert cert.permutation == want[1]
        assert cert.scanned == scanned == want[2]

    @pytest.mark.parametrize("name", sorted(SCAN_INPUTS))
    def test_seed_moved_families(self, name):
        rng = random.Random(name)
        base = SCAN_INPUTS[name]()
        for conn in [base] + [moved(base, rng) for _ in range(3)]:
            self.assert_same(conn)

    @pytest.mark.parametrize("name", ["P13[P13]", "paley169"])
    def test_batch_and_chunk_edges(self, monkeypatch, name):
        """Seven candidates per batch: hits land on batch and chunk edges."""
        monkeypatch.setattr(groups, "AUT_BATCH_SIZE", 7)
        rng = random.Random(name)
        base = SCAN_INPUTS[name]()
        for conn in [base] + [moved(base, rng) for _ in range(3)]:
            self.assert_same(conn)

    @pytest.mark.parametrize(
        "factors",
        [(13,), (29,), (5, 5), (7, 7), (3, 15), (9, 9)],
        ids=lambda f: "x".join(map(str, f)),
    )
    def test_random_non_selfcomplementary_sets(self, factors):
        rng = random.Random(sum(factors))
        for _ in range(2):
            self.assert_same(random_non_selfcomplementary_set(AbelianGroup(factors), rng))

    def test_wrong_survivor_raises_under_optimization(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", WRONG_SURVIVOR], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "does not carry S onto its complement" in proc.stdout


class _CountedImages(np.ndarray):
    """Image residues of one automorphism batch: each matmul with them, or
    with a gather of them, appends its image count to the list in log."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountedImages) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            _CountedImages.log[-1].append(out.size // out.shape[-1])
        return out


class TestChunkedScan:
    @staticmethod
    def counted_scan(monkeypatch, conn, batches=None):
        """The scan, with the image count of each of its products, per batch."""
        log = []
        monkeypatch.setattr(_CountedImages, "log", log)

        def counted(G):
            for img_idx, mats in (batches or groups._automorphism_batches)(G):
                log.append([])
                yield img_idx, mats.view(_CountedImages)

        monkeypatch.setattr(iso, "_automorphism_batches", counted)
        return selfcomp_by_group_automorphism(conn), log

    @pytest.mark.parametrize("name", ["P13[P13]", "paley169", "paley49", "davis3"])
    def test_products_per_batch(self, monkeypatch, name):
        """At most ceil(log2(|S| + 1)) products per batch, one per chunk
        1, 2, 4, ..., where mapping S one element at a time takes |S| in the
        batch of the hit."""
        conn = SCAN_INPUTS[name]()
        (cert, scanned), log = self.counted_scan(monkeypatch, conn)
        assert cert is not None and scanned == reference_scan(conn)[2]
        bound = conn.size.bit_length()  # ceil(log2(|S| + 1))
        assert max(map(len, log)) <= bound < conn.size
        cap = 64 * groups.AUT_BATCH_SIZE
        assert max(max(batch) for batch in log) <= cap

    def test_images_capped(self, monkeypatch):
        """A full batch of copies of the complementing automorphism of
        paley(509), |S| = 254, survives every chunk: after the 127 probes of
        the chunks 1, ..., 64 the next chunk is cut from 128 to 64 probes by
        the cap of 64 x AUT_BATCH_SIZE images."""
        conn = paley(509).connection_set
        (cert, _), _ = self.counted_scan(monkeypatch, conn)
        images = np.array(cert.automorphism.generator_images)  # residues = indices in Z509
        B = groups.AUT_BATCH_SIZE

        def copies(G):
            yield np.repeat(images, B, axis=0), np.repeat(images[None], B, axis=0)

        (cert, scanned), log = self.counted_scan(monkeypatch, conn, copies)
        assert scanned == 1 and cert.automorphism.generator_images == tuple(map(tuple, images))
        assert log == [[B * c for c in (1, 2, 4, 8, 16, 32, 64, 64, 63)]]


WRONG_SURVIVOR = """
import numpy as np
from cayleycert import families, graphs, iso

conn = families.paley(13).connection_set
res = conn.group.residue_matrix
# The image residues of x -> 2x pass every probe; the image tuple names x -> x.
iso._automorphism_batches = lambda G: iter([(np.array([[1]]), res[np.array([[2]])])])
try:
    iso.selfcomp_by_group_automorphism(conn)
except graphs.SelfCheckError as exc:
    print(exc)
"""


class TestSelfComplementary:
    def test_p4_path(self):
        d = is_self_complementary(path(4))
        assert d.isomorphic
        assert d.certificate.kind == "vertex-bijection"

    def test_c5(self):
        d = is_self_complementary(cycle(5))
        assert d.isomorphic

    def test_regular_mod4_precheck(self):
        d = is_self_complementary(cycle(7))
        assert d.isomorphic is False
        assert d.certificate.invariant == "regular-vertex-count-mod-4"

    def test_edge_count_precheck(self):
        d = is_self_complementary(path(3))
        assert d.isomorphic is False
        assert d.certificate.invariant == "edge-count"

    @pytest.mark.parametrize("q", [5, 9, 13, 25])
    def test_paley(self, q):
        rep = paley(q)
        g = build_cayley(rep.connection_set)
        d = is_self_complementary(g, hint=rep.connection_set)
        assert d.isomorphic
        assert d.certificate.kind == "group-automorphism"

    @pytest.mark.parametrize("q", [9, 49])
    def test_peisert(self, q):
        rep = peisert(q)
        g = build_cayley(rep.connection_set)
        d = is_self_complementary(g, hint=rep.connection_set)
        assert d.isomorphic

    def test_davis3(self):
        rep = davis(3)
        g = build_cayley(rep.connection_set)
        d = is_self_complementary(g, hint=rep.connection_set)
        assert d.isomorphic
        assert d.certificate.kind == "group-automorphism"
        assert verify_certificate(g, complement(g), d.certificate.permutation)

    def test_lexprod_p5_p5_full_decider(self):
        conn = lex_product(paley(5).connection_set, paley(5).connection_set)
        g = build_cayley(conn)
        d = is_self_complementary(g)  # no hint: full pipeline
        assert d.isomorphic
        assert d.certificate.kind == "vertex-bijection"
        assert not check_srg(g).is_srg

    def test_lexprod_preserves_selfcomp_via_iso_module(self):
        # product of two self-complementary Cayley graphs is self-complementary
        p5 = paley(5).connection_set
        p9 = paley(9).connection_set
        for left, right in ((p5, p5), (p5, p9)):
            conn = lex_product(left, right)
            d = is_self_complementary(build_cayley(conn), hint=conn)
            assert d.isomorphic

    def test_unscannable_group_falls_through_to_search(self, monkeypatch):
        monkeypatch.setattr(groups, "AUT_MAX_CANDIDATES", 1)
        rep = paley(13)
        d = is_self_complementary(build_cayley(rep.connection_set), hint=rep.connection_set)
        assert d.isomorphic is True
        assert d.certificate.kind == "vertex-bijection"

    def test_wrong_search_bijection_raises(self, monkeypatch):
        monkeypatch.setattr(iso, "_ir_search", lambda g1, g2, *rest: list(range(g1.n)))
        g = path(4)
        with pytest.raises(SelfCheckError):
            are_isomorphic(g, complement(g))

    def test_wrong_scan_certificate_raises(self, monkeypatch):
        cert = IsoCertificate(kind="group-automorphism", permutation=tuple(range(13)))
        monkeypatch.setattr(iso, "selfcomp_by_group_automorphism", lambda conn: (cert, 1))
        rep = paley(13)
        with pytest.raises(SelfCheckError):
            is_self_complementary(build_cayley(rep.connection_set), hint=rep.connection_set)

    def test_hint_must_match_graph(self):
        rep = paley(13)
        other = build_cayley(complement_connection_set(rep.connection_set))
        for g in (cycle(13), other):  # a marked graph of another set, too
            with pytest.raises(ValueError, match="does not build this labeled graph"):
                is_self_complementary(g, hint=rep.connection_set)

    def test_graph_carrying_the_hint_is_not_rebuilt(self, monkeypatch):
        built = []
        monkeypatch.setattr(iso, "build_cayley", lambda conn: built.append(conn) or build_cayley(conn))
        conn = davis(3).connection_set
        g = build_cayley(conn)
        equal = validate_connection_set(conn.group, conn.elements)  # equal, not the same instance
        for hint in (conn, equal):
            assert is_self_complementary(g, hint=hint).isomorphic
        assert built == []
        read = DenseGraph(g.adjacency())
        assert is_self_complementary(read, hint=conn).isomorphic and built == [conn]

    def test_selfcomp_graphs_have_diameter_two(self):
        from cayleycert.graphs import diameter

        for rep in (paley(5), paley(9), paley(13), paley(25), peisert(9), davis(3)):
            g = build_cayley(rep.connection_set)
            assert diameter(g) == 2


#: Self-complementary graphs that only the search can certify against their
#: complements: every invariant screen agrees on each pair.
PROBE_POSITIVES = {
    **{f"paley{q}": (lambda q=q: paley(q).connection_set) for q in (13, 25, 49, 81, 121, 169)},
    "peisert49": lambda: peisert(49).connection_set,
    "peisert121": lambda: peisert(121).connection_set,
    "davis3": lambda: davis(3).connection_set,
    "P5[P5]": lambda: lex_product(paley(5).connection_set, paley(5).connection_set),
    "P9[P13]": lambda: lex_product(paley(9).connection_set, paley(13).connection_set),
    "P13[P9]": lambda: lex_product(paley(13).connection_set, paley(9).connection_set),
}


def probe_positive(name):
    """The Cayley graph of the set moved by a seeded group automorphism."""
    return build_cayley(moved_set(PROBE_POSITIVES[name](), np.random.default_rng(len(name))))


class TestProbe:
    """The capped search before the costly screens against the pipeline that
    runs every screen first (PROBE_NODES = 0)."""

    @pytest.mark.parametrize("name", sorted(PROBE_POSITIVES))
    def test_same_decision_as_screens_first(self, monkeypatch, name):
        g = probe_positive(name)
        probed = are_isomorphic(g, complement(g))
        assert probed.isomorphic and probed.certificate.nodes <= iso.PROBE_NODES
        monkeypatch.setattr(iso, "PROBE_NODES", 0)
        assert are_isomorphic(g, complement(g)).to_json_dict() == probed.to_json_dict()

    @pytest.mark.parametrize("name", sorted(PROBE_POSITIVES))
    def test_positives_skip_the_costly_screens(self, monkeypatch, name):
        from cayleycert import graphs

        calls = []
        rank, cliques = iso.mod_p_rank, graphs._clique_counts
        edge_pass = graphs._common_neighborhood_pass
        monkeypatch.setattr(iso, "mod_p_rank", lambda *a: calls.append("rank") or rank(*a))
        monkeypatch.setattr(
            graphs, "_clique_counts", lambda g: calls.append("kernel") or cliques(g)
        )
        monkeypatch.setattr(
            graphs, "_common_neighborhood_pass", lambda g: calls.append("pass") or edge_pass(g)
        )
        g = probe_positive(name)
        assert are_isomorphic(g, complement(g)).isomorphic
        assert calls == []


class TestBudgets:
    def test_node_budget_gives_undecided(self):
        # vertex-transitive positive pair: the screens cannot decide it and
        # the search needs at least one individualization
        g = build_cayley(paley(13).connection_set)
        d = are_isomorphic(g, complement(g), node_budget=0)
        assert d.isomorphic is None
        assert d.certificate.kind == "undecided"

    def test_time_budget_gives_undecided(self):
        g = build_cayley(paley(25).connection_set)
        d = are_isomorphic(g, complement(g), time_budget=0.0)
        assert d.isomorphic is None

    def test_node_budget_below_the_probe_cap(self):
        g = probe_positive("P13[P9]")
        needed = are_isomorphic(g, complement(g)).certificate.nodes
        budget = needed // 2
        assert budget < iso.PROBE_NODES
        d = are_isomorphic(g, complement(g), node_budget=budget)
        assert d.isomorphic is None
        assert d.certificate.kind == "undecided" and d.certificate.nodes == budget + 1


class TestVertexTransitiveRoot:
    """The search root {0} on a marked target against the whole root cell on
    an unmarked copy of the same graph."""

    @pytest.mark.parametrize("name", sorted(PROBE_POSITIVES))
    def test_marked_and_unmarked_decisions_agree(self, name):
        built = build_cayley(PROBE_POSITIVES[name]())
        for g in (built, probe_positive(name)):
            plain = DenseGraph(g.adjacency())
            assert g.vertex_transitive and not plain.vertex_transitive
            marked = are_isomorphic(g, complement(g)).to_json_dict()
            assert marked == are_isomorphic(plain, complement(plain)).to_json_dict()
            assert marked["isomorphic"] is True

    def test_davis5_search_exhausts_at_the_root(self):
        g = build_cayley(davis(5).connection_set)
        plain = DenseGraph(g.adjacency())
        marked = are_isomorphic(g, complement(g), force_search=True)
        unmarked = are_isomorphic(plain, complement(plain), force_search=True)
        for d in (marked, unmarked):
            assert (d.isomorphic, d.decided_by) == (False, "search exhausted")
        # one root node against every vertex of the root cell, each refuted a level down
        assert (marked.certificate.nodes, unmarked.certificate.nodes) == (1, g.n)

    def test_graph6_with_hint_runs_the_vertex_0_kernels(self, monkeypatch):
        from cayleycert import graphs

        eliminations = []
        odd, gf2 = graphs._odd_p_rank, graphs._gf2_rank
        monkeypatch.setattr(graphs, "_odd_p_rank", lambda *a: eliminations.append(a[1:]) or odd(*a))
        monkeypatch.setattr(graphs, "_gf2_rank", lambda rows: eliminations.append(2) or gf2(rows))
        conn = davis(5).connection_set
        g = build_cayley(conn)
        marked = is_self_complementary(g, conn, scan_automorphisms=False).to_json_dict()
        visits = []
        neighbourhoods = graphs._neighbourhoods

        def spy(x):
            for u, nbrs in neighbourhoods(x):
                visits.append(u)
                yield u, nbrs

        monkeypatch.setattr(graphs, "_neighbourhoods", spy)
        read = graphs.from_graph6(graphs.to_graph6(g))
        assert not read.vertex_transitive
        d = is_self_complementary(read, conn, scan_automorphisms=False)
        assert d.to_json_dict() == marked
        assert d.decided_by == "edge profile screen"
        # the clique kernel, then the per-edge pass, each at vertex 0 of both
        # graphs; the profile refutes before any mod-p elimination
        assert visits == [0, 0, 0, 0]
        assert eliminations == []
        oracle = are_isomorphic(g, complement(g), force_search=True)
        assert d.isomorphic == oracle.isomorphic

    def test_no_quadratic_table_is_cached_on_the_group(self):
        from cayleycert.groupalgebra import verify_schur_partition

        conn = davis(5).connection_set
        G = conn.group
        assert verify_schur_partition(conn)
        assert not is_self_complementary(build_cayley(conn), conn).isomorphic
        cached = {name: np.size(value) for name, value in vars(G).items()}
        assert "residue_matrix" in cached
        assert max(cached.values()) < G.order**2, cached
