"""Fast tests of the benchmark's checker: python3 -m pytest perfbench -q"""

import itertools
import sys
from math import prod
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker as ck  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

C5 = wl.Instance("C5", (5,), [(1,), (4,)])  # the pentagon, self-complementary via x -> 2x


def test_complementing_permutation_accepted_and_wrong_one_rejected():
    ck.check_complementing_permutation(C5.adjacency, [0, 2, 4, 1, 3])
    with pytest.raises(ck.CheckFailure):
        ck.check_complementing_permutation(C5.adjacency, [0, 1, 2, 3, 4])
    with pytest.raises(ck.CheckFailure):
        ck.check_complementing_permutation(C5.adjacency, [0, 2, 2, 1, 3])


def test_group_certificate_rejects_wrong_images():
    ck.check_group_certificate(C5.factors, C5.ind, [[2]], [0, 2, 4, 1, 3])
    with pytest.raises(ck.CheckFailure):
        ck.check_group_certificate(C5.factors, C5.ind, [[1]], [0, 1, 2, 3, 4])
    with pytest.raises(ck.CheckFailure):
        ck.check_group_certificate(C5.factors, C5.ind, [[2]], [0, 3, 1, 4, 2])


def test_graph_selfcomp_check_rejects_wrong_permutation():
    inst = wl.Instance("C5", (5,), [(1,), (4,)], np.array([3, 0, 4, 1, 2]))
    A = inst.adjacency
    perm = next(p for p in itertools.permutations(range(5))
                if np.array_equal(ck.complement_adjacency(A)[np.ix_(p, p)], A))
    report = {"passed": True, "self_complementary": True, "decided_by": "search",
              "certificate": {"kind": "vertex-bijection", "permutation": list(perm)}}
    wl.check_graph_selfcomp(report, inst)
    report["certificate"]["permutation"] = list(range(5))
    with pytest.raises(ck.CheckFailure):
        wl.check_graph_selfcomp(report, inst)


def _brute_force_aut_order(factors):
    """Count generator-image tuples that define a bijective homomorphism."""
    res = ck.residues(factors)
    n = len(res)
    orders = [np.lcm.reduce([m // np.gcd(m, r) for r, m in zip(g, factors)]) for g in res]
    choices = [[i for i in range(n) if m % orders[i] == 0] for m in factors]
    count = 0
    for imgs in itertools.product(*choices):
        perm = ck.apply_generator_images(factors, res[list(imgs)])
        count += len(np.unique(perm)) == n
    return count


@pytest.mark.parametrize("factors", [(5,), (12,), (4, 2), (3, 3), (9, 3), (2, 2, 2), (3, 3, 5)])
def test_aut_order_matches_brute_force(factors):
    assert ck.aut_order(factors) == _brute_force_aut_order(factors)


def test_aut_order_of_the_paper_groups():
    assert ck.aut_order((25, 25)) == 5**4 * (5**2 - 1) * (5**2 - 5) == 300000
    assert ck.aut_order((49, 49)) == 4840416
    assert ck.aut_order((3, 3, 3, 3)) == (81 - 1) * (81 - 3) * (81 - 9) * (81 - 27)


def test_scan_check_rejects_wrong_count(tmp_path):
    inst = wl.Instance("Z9xZ9", (9, 9), [(0, 1), (0, 8)])
    op = wl._scan_op(inst, tmp_path / "unused.set")
    op.check((None, 3888))
    for wrong in [(None, 3887), (None, 300000), ("certificate", 3888)]:
        with pytest.raises(ck.CheckFailure):
            op.check(wrong)


def test_order_classification():
    assert ck.fourth_root(15**80) == 15**20
    assert ck.fourth_root(15**80 + 1) is None
    expected = {81: True, 45: False, 5625: True, 27: False, 13**3: True, 15**80: True,
                9 * 15**80: True, 2 * 15**4: False, 7**2 * 5: False}
    for m, want in expected.items():
        assert ck.order_feasible(m) is want, m


def test_order_check_rejects_wrong_classification():
    wl._order_op(45).check((False, "reason"))
    with pytest.raises(ck.CheckFailure):
        wl._order_op(45).check((True, "reason"))
    op = wl._order_op(15**80, known_fault=True)
    assert op.known_fault
    with pytest.raises(ck.CheckFailure):
        op.check((False, "reason"))


def test_counts_on_small_graphs():
    K5 = ck.complement_adjacency(np.zeros((5, 5), dtype=np.uint8))
    assert ck.triangles(K5) == 10
    assert ck.four_cliques_vertex_transitive(K5) == 5
    assert ck.rank_mod_p(K5, 2) == 4 and ck.rank_mod_p(K5, 2, 1) == 1
    assert ck.rank_mod_p(K5, 3) == 5
    paley13 = wl.Instance("P13", (13,), [(x,) for x in (1, 3, 4, 9, 10, 12)])
    assert paley13.params == ck.conference(13) == (13, 6, 2, 3)
    assert ck.square_identity_holds(paley13.adjacency, paley13.params)
    for p in (2, 3, 5, 7):
        for s in (0, 1):
            assert ck.srg_rank_mod_p(paley13.adjacency, paley13.params, p, s) == ck.rank_mod_p(
                paley13.adjacency, p, s)


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(0)
    for n in (1, 7, 62, 63, 70):
        A = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        A = (A + A.T).astype(np.uint8)
        want = nx.to_graph6_bytes(nx.from_numpy_array(A), header=False).decode().strip()
        assert ck.to_graph6(A) == want


def test_random_automorphism_is_bijective():
    rng = np.random.default_rng(1)
    for factors in [(9, 9), (3, 3, 13), (3, 3, 5, 5), (17, 13)]:
        M = ck.random_automorphism(factors, rng)
        moved = ck.move_set(factors, ck.residues(factors).tolist(), M)
        assert len(set(moved)) == prod(factors)


def test_tracer_counts_and_restores():
    from cayleycert import graphs, iso

    original = graphs.check_srg
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert iso.check_srg is not original
        iso.check_srg(graphs.DenseGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    finally:
        tracer.uninstall()
    assert graphs.check_srg is original and iso.check_srg is original
    snap = tracer.snapshot()
    assert snap["graphs.check_srg_calls"] == 1 and snap["graphs.check_srg_s"] > 0
    assert snap["graphs.bfs_s"] > 0  # check_srg's connectivity test, a nested span


def test_structure_check_covers_the_reports_asked_for():
    paley13 = wl.Instance("paley13", (13,), [(x,) for x in (1, 3, 4, 9, 10, 12)])
    srg = {"passed": True, "params": [13, 6, 2, 3], "conference_t": 3, "beta": -1, "delta": 13}
    wl.check_structure({"srg": srg}, paley13, ("srg",))
    with pytest.raises(ck.CheckFailure):
        wl.check_structure({"srg": {**srg, "params": [13, 6, 3, 2]}}, paley13, ("srg",))
    with pytest.raises(ck.CheckFailure):
        wl.check_structure({"srg": srg}, paley13)  # --dr, --pds and --schur reports missing
