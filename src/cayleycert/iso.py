"""Graph isomorphism and self-complementarity with verifiable certificates.

Decision pipeline, cheapest sound step first:

  1. scan: the group-automorphism certificate scan (Cayley inputs only):
     find sigma with sigma(S) = complement set; absence is inconclusive,
     never negative.
  2. cheap fields: the fingerprint fields n, degrees, srg and triangles
     (from the SRG parameters or one trace(A^3) product).  A mismatch
     refutes.
  3. probe: the individualization-refinement search capped at PROBE_NODES
     nodes.  The search is a deterministic depth-first search that no screen
     changes, so a bijection it finds is the one the full search would
     return; a probe that exhausts or reaches its cap reports nothing.
  4. costly screens, in cost order: the remaining fingerprint fields
     (4-cliques, mod-p ranks, distance distribution), the edge-neighborhood
     edge-count profile, then for strongly regular pairs the spectral mod-p
     ranks of A - sI.  Each value is computed only while the ones before it
     agree; a mismatch refutes.
  5. search: the same search without the cap, a complete decider that
     returns an explicit vertex bijection or exhausts the tree.

A graph's connection set (from build_cayley or complement) is the one
record of vertex-transitivity: on such a target the probe and the search try
only its vertex 0 at the root, as the SRG and distance kernels read vertex 0.

Every positive answer is re-validated against the adjacency matrices before
it is returned; refutations carry the distinguishing invariant and both
values.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field as dataclass_field, fields as dataclass_fields
from typing import ClassVar, Optional, Sequence

import numpy as np

from .cayley import ConnectionSet, build_cayley, complement_connection_set
from .fields import factorize
from .graphs import (
    DenseGraph,
    SelfCheckError,
    check_srg,
    class_edge_counts,
    complement,
    edge_neighborhood_edge_profile,
    invariant_counts,
    is_permutation,
    mod_p_rank,
    sphere_sizes,
    triangle_count,
)
from . import groups
from .groups import AutEnumerationError, GroupAutomorphism, _automorphism_batches

FINGERPRINT_PRIMES = (2, 3, 5, 7)
DEFAULT_NODE_BUDGET = 10**8
#: Deep (edge-count-within-cell) refinement triggers only below this cell count.
DEEP_REFINE_CELL_CAP = 32
#: Node cap of the probe search that runs before the costly screens: the
#: largest search on the self-complementary families takes 39 nodes (P13[P9]).
PROBE_NODES = 64


class SearchBudgetExceeded(RuntimeError):
    """Raised internally when the node or time budget runs out."""


# --- certificates and decisions -----------------------------------------------


@dataclass(frozen=True)
class IsoCertificate:
    """Evidence backing an isomorphism decision.

    kind is one of "group-automorphism", "vertex-bijection",
    "invariant-refutation", "search-exhausted", "undecided".
    """

    kind: str
    permutation: Optional[tuple[int, ...]] = None
    automorphism: Optional[GroupAutomorphism] = None
    invariant: Optional[str] = None
    values: Optional[tuple] = None
    nodes: int = 0
    scanned: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.permutation is not None:
            out["permutation"] = list(self.permutation)
        if self.automorphism is not None:
            out["generator_images"] = [list(g) for g in self.automorphism.generator_images]
        if self.invariant is not None:
            out["invariant"] = self.invariant
            out["values"] = list(self.values)
        if self.kind in ("search-exhausted", "vertex-bijection", "undecided"):
            out["search_nodes"] = self.nodes
        if self.scanned is not None:
            out["automorphisms_scanned"] = self.scanned
        return out


@dataclass(frozen=True)
class IsoDecision:
    """Outcome of a decision run; isomorphic is None when undecided in budget."""

    isomorphic: Optional[bool]
    certificate: IsoCertificate
    decided_by: str

    def to_json_dict(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "decided_by": self.decided_by,
            "certificate": self.certificate.to_json_dict(),
        }


# --- fingerprints ----------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Pinned isomorphism-invariant record used for fast refutation."""

    n: int
    degrees: tuple[int, ...]
    srg: Optional[tuple[int, int, int, int]]
    triangles: int
    four_cliques: int
    mod_ranks: tuple[tuple[tuple[int, int], int], ...]
    distance_distribution: tuple

    FIELDS: ClassVar[tuple[str, ...]]  # the field names in order


Fingerprint.FIELDS = tuple(f.name for f in dataclass_fields(Fingerprint))


def _srg_params(graph: DenseGraph) -> Optional[tuple[int, int, int, int]]:
    srg = check_srg(graph)
    return srg.params.as_tuple() if srg.is_srg else None


def _mod_ranks(graph: DenseGraph) -> tuple[tuple[tuple[int, int], int], ...]:
    return tuple(
        ((p, shift), mod_p_rank(graph, p, shift))
        for p in FINGERPRINT_PRIMES
        for shift in (0, 1)
    )


def _distance_distribution(graph: DenseGraph) -> tuple:
    """Sorted per-source sphere sizes, each followed by the unreached count
    when the graph is disconnected."""
    n = graph.n
    return tuple(
        sorted(
            sizes + ((n - sum(sizes),) if sum(sizes) < n else ())
            for sizes in sphere_sizes(graph)
        )
    )


def _four_cliques(graph: DenseGraph) -> int:
    """The 4-clique count of the clique kernel, whose triangle count must
    equal triangle_count's."""
    triangles, four_cliques, _degrees = invariant_counts(graph)
    if triangles != triangle_count(graph):
        raise SelfCheckError(
            f"{triangles} triangles by the clique kernel, {triangle_count(graph)} by product"
        )
    return four_cliques


#: How each field of Fingerprint.FIELDS is computed from one graph.
_FIELD_VALUES = {
    "n": lambda g: g.n,
    "degrees": lambda g: tuple(sorted(g.degrees())),
    "srg": _srg_params,
    "triangles": triangle_count,
    "four_cliques": _four_cliques,
    "mod_ranks": _mod_ranks,
    "distance_distribution": _distance_distribution,
}


def fingerprint(graph: DenseGraph) -> Fingerprint:
    return Fingerprint(**{name: _FIELD_VALUES[name](graph) for name in Fingerprint.FIELDS})


# --- screens ----------------------------------------------------------------------


def _one_pair(decided_by: str, invariant: str, value_of):
    """A screen (decided_by, screen): screen(graph) yields (invariant, value)
    pairs of one graph, each value computed when the loop reaches it.  This
    one yields the one pair (invariant, value_of(graph))."""
    return decided_by, lambda graph: [(invariant, value_of(graph))]


def _spectral_ranks(graph: DenseGraph):
    """mod_p_rank(A - s*I) for each prime p dividing r - s of a strongly
    regular graph with integer eigenvalues r > s, ranks its parameters leave
    open (Brouwer and van Eijl, J. Algebraic Combin. 1 (1992)).  The srg field
    agrees before this screen runs, so both graphs yield the same invariants."""
    srg = check_srg(graph)
    pair = srg.params.integer_eigenvalues if srg.is_srg else None
    if pair is None:
        return
    r, s = pair
    for p in sorted(factorize(r - s)):
        shift = (-s) % p
        yield f"mod_{p}_rank(A+{shift}I)", mod_p_rank(graph, p, shift)


def _fields(*names: str) -> tuple:
    return tuple(_one_pair("fingerprint", name, _FIELD_VALUES[name]) for name in names)


#: The screens before the probe search (the SRG parameters or one product)
#: and after it, in cost order: the edge profile, which refutes davis(p) at
#: vertex 0 of a marked graph, before the O(n^3) spectral eliminations.
_CHEAP_SCREENS = _fields("n", "degrees", "srg", "triangles")
_COSTLY_SCREENS = (
    *_fields("four_cliques", "mod_ranks", "distance_distribution"),
    _one_pair(
        "edge profile screen", "edge-neighborhood-edge-profile", edge_neighborhood_edge_profile
    ),
    ("spectral rank screen", _spectral_ranks),
)


# --- certificate checking ----------------------------------------------------------


def verify_certificate(g1: DenseGraph, g2: DenseGraph, perm: Sequence[int]) -> bool:
    """Does perm carry g1 onto g2 edge-for-edge?  O(n^2) exact comparison."""
    if g1.n != g2.n:
        return False
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (g1.n,) or not is_permutation(p):
        return False
    A1 = g1.adjacency()
    A2 = g2.adjacency()
    return bool(np.array_equal(A2[np.ix_(p, p)], A1))


# --- group-automorphism certificates ------------------------------------------------


def selfcomp_by_group_automorphism(
    conn: ConnectionSet,
) -> tuple[Optional[IsoCertificate], int]:
    """Scan Aut(G) in deterministic order for sigma(S) = G minus (S u {e}).

    Returns (certificate, automorphisms scanned).  No certificate is NOT a
    proof of non-self-complementarity; callers must treat it as inconclusive.
    Every sigma is bijective and |S| = |N|, so sigma(S) = N iff sigma maps
    each s in S into N: the scan maps S in chunks of 1, 2, 4, ... elements
    over the automorphisms of a batch that have passed so far, one product
    of at most 64 x AUT_BATCH_SIZE images per chunk, and expands only the
    first that passes all of S to a permutation, which is checked in full.
    The survivors do not depend on the chunks, so neither do the hit and
    the count scanned; a batch takes about log2 |S| products, not |S|.
    """
    G = conn.group
    s_idx = np.array(conn.indices(), dtype=np.int64)
    n_idx = np.array(complement_connection_set(conn).indices(), dtype=np.int64)
    scanned = 0
    if len(s_idx) != len(n_idx):
        # |S| != (|G|-1)/2: no automorphism can match the sizes.
        return None, 0
    in_n = np.zeros(G.order, dtype=bool)
    in_n[n_idx] = True
    probes = G.residue_matrix[s_idx]
    factors = np.array(G.factors, dtype=np.int64)
    cap = 64 * groups.AUT_BATCH_SIZE
    for img_idx, mats in _automorphism_batches(G):
        alive = np.arange(len(img_idx))
        start, width = 0, 1
        while alive.size and start < len(probes):
            stop = start + min(width, cap // alive.size)  # alive <= AUT_BATCH_SIZE: >= 64
            # images[b, c]: the index of the image of probe start + c under alive[b]
            images = (probes[start:stop] @ mats[alive] % factors) @ G.index_weights
            alive = alive[in_n[images].all(axis=1)]
            start, width = stop, 2 * width
        if alive.size:
            hit = int(alive[0])
            scanned += hit + 1
            sigma = GroupAutomorphism(G, tuple(G.element_of(int(i)) for i in img_idx[hit]))
            perm = sigma.as_permutation()
            if not (is_permutation(perm) and np.array_equal(np.sort(perm[s_idx]), n_idx)):
                raise SelfCheckError(
                    f"automorphism {sigma.generator_images} passed the scan but does "
                    "not carry S onto its complement"
                )
            return (
                IsoCertificate(
                    kind="group-automorphism",
                    automorphism=sigma,
                    permutation=tuple(int(x) for x in perm),
                    scanned=scanned,
                ),
                scanned,
            )
        scanned += len(img_idx)
    return None, scanned


# --- color refinement ----------------------------------------------------------------


def _refine_pair(
    A1: np.ndarray,
    A2: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
    deep: bool,
    changed: Optional[np.ndarray] = None,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Aligned iterated refinement of both colorings; None, None on conflict.

    A1 and A2 are the float32 adjacency matrices, and changed lists in
    ascending order the colors whose cells changed since the coloring was
    last equitable (None: every color).  Basic step: each round recolors
    every vertex by the rank of its row (color, neighbor counts into each
    changed cell) among the rows of both sides, and the cells that round
    splits are the next round's changed cells; a round with no changed cell
    is stable.  When stable and still coarse, the optional deep step refines
    by the edge count inside N(v) restricted to each class, which separates
    vertices of strongly regular graphs that the counting step cannot.

    The colors are those of counting into every cell each round.  A coloring
    is equitable when the vertices of each cell, on both sides together,
    have the same count into each cell; every coloring this returns is
    equitable or discrete, and search nodes refine only equitable ones.  A
    count into a cell that has not changed since then is constant on each
    cell of the current coloring, since a count constant on a cell stays
    constant on its sub-cells.  Such a column never orders two rows of the
    same color, and the color column orders rows of different colors, so
    dropping it leaves every rank, and every conflict, as it was.
    """
    n = A1.shape[0]
    if changed is None:
        changed = np.arange(int(max(c1.max(initial=0), c2.max(initial=0))) + 1)
    while True:
        while len(changed):
            split = _split(
                A1, A2, c1, c2, len(changed), ">u2", lambda A, c: _neighbor_counts(A, c, changed)
            )
            if split is None:
                return None, None
            c1, c2, changed = split
            if c1.max() + 1 == n:
                return c1, c2
        ncolors = int(c1.max()) + 1
        if not deep or ncolors > DEEP_REFINE_CELL_CAP:
            return c1, c2
        split = _split(
            A1, A2, c1, c2, ncolors, ">u4", lambda A, c: class_edge_counts(A, c, ncolors)
        )
        if split is None:
            return None, None
        c1, c2, changed = split
        if not len(changed):
            return c1, c2  # deep step split nothing; stable


def _neighbor_counts(A: np.ndarray, colors: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """out[v, j] = |N(v) & X_cells[j]|: one float32 product with the indicator
    matrix of the given cells, exact since every count is at most n < 2^24."""
    return A @ np.equal.outer(colors, cells).astype(np.float32)


def _split(
    A1, A2, c1, c2, width, dtype, counts
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Recolor both sides by the rank of each signature row (color(v),
    counts(A, colors)[v]) among the rows of both sides, each row written as
    one key of width + 1 big-endian unsigned integers of dtype: (colors 1,
    colors 2, the new colors whose cells are not those of their old color,
    ascending), or None when a color class has different sizes on the two
    sides, so that no bijection respects the colorings."""
    n = len(c1)
    rows = np.empty((2, n, 1 + width), dtype=dtype)
    for half, A, colors in zip(rows, (A1, A2), (c1, c2)):
        half[:, 0] = colors
        half[:, 1:] = counts(A, colors)
    keys, inverse = np.unique(_row_keys(rows.reshape(2 * n, 1 + width)), return_inverse=True)
    new1, new2, m = inverse[:n], inverse[n:], len(keys)
    sizes = np.bincount(new1, minlength=m)
    if not np.array_equal(sizes, np.bincount(new2, minlength=m)):
        return None
    return new1, new2, np.unique(new1[sizes[new1] != np.bincount(c1)[c1]])


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One fixed-width byte key per row of a C-contiguous matrix of
    big-endian unsigned integers, as a view of it.  numpy sorts such keys in
    memcmp order, the rows' lexicographic order, so np.unique ranks the keys
    as np.unique(rows, axis=0) ranks the rows, without its generic row sort."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


# --- individualization-refinement search ----------------------------------------------


@dataclass
class _SearchStats:
    nodes: int = 0
    started: float = dataclass_field(default_factory=time.monotonic)


def _target_cell(c1: np.ndarray) -> Optional[int]:
    """Color id of the first smallest non-singleton cell, None if discrete."""
    sizes = np.bincount(c1)
    nonsingle = np.nonzero(sizes >= 2)[0]
    if nonsingle.size == 0:
        return None
    best = nonsingle[np.argmin(sizes[nonsingle])]
    return int(best)


def _extract_bijection(c1: np.ndarray, c2: np.ndarray) -> list[int]:
    perm = np.empty(len(c1), dtype=np.int64)
    perm[np.argsort(c1, kind="stable")] = np.argsort(c2, kind="stable")
    return perm.tolist()


def _ir_search(
    g1: DenseGraph,
    g2: DenseGraph,
    node_budget: int,
    time_budget: Optional[float],
    root_candidates: Optional[set[int]],
    deep: bool,
    stats: _SearchStats,
) -> Optional[list[int]]:
    """Complete backtracking search; a bijection, or None when exhausted.

    Raises SearchBudgetExceeded when a budget runs out.  Deterministic: the
    target cell is the first smallest non-singleton, the g1 vertex is fixed
    (lowest index), g2 candidates ascend, so the returned bijection is the
    lexicographically first successful branch.
    """
    n = g1.n
    A1 = g1.adjacency().astype(np.float32)
    A2 = g2.adjacency().astype(np.float32)
    c1, c2 = _refine_pair(A1, A2, np.zeros(n, np.int64), np.zeros(n, np.int64), deep)
    if c1 is None:
        return None

    def check_budget():
        if stats.nodes > node_budget:
            raise SearchBudgetExceeded(f"node budget {node_budget} exhausted")
        if time_budget is not None and time.monotonic() - stats.started > time_budget:
            raise SearchBudgetExceeded(f"time budget {time_budget}s exhausted")

    def descend(c1: np.ndarray, c2: np.ndarray, depth: int) -> Optional[list[int]]:
        cell = _target_cell(c1)
        if cell is None:
            perm = _extract_bijection(c1, c2)
            if verify_certificate(g1, g2, perm):
                return perm
            return None
        v = int(np.nonzero(c1 == cell)[0][0])
        candidates = [int(u) for u in np.nonzero(c2 == cell)[0]]
        if depth == 0 and root_candidates is not None:
            candidates = [u for u in candidates if u in root_candidates]
        fresh = int(max(c1.max(), c2.max())) + 1
        for u in candidates:
            stats.nodes += 1
            check_budget()
            t1 = c1.copy()
            t2 = c2.copy()
            t1[v] = fresh
            t2[u] = fresh
            r1, r2 = _refine_pair(A1, A2, t1, t2, deep, np.array([cell, fresh]))
            if r1 is None:
                continue
            got = descend(r1, r2, depth + 1)
            if got is not None:
                return got
        return None

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * n + 200))
    try:
        return descend(c1, c2, 0)
    finally:
        sys.setrecursionlimit(limit)


# --- the deciders -------------------------------------------------------------------


def _refutation(invariant: str, values: tuple, decided_by: str) -> IsoDecision:
    return IsoDecision(
        False,
        IsoCertificate(kind="invariant-refutation", invariant=invariant, values=values),
        decided_by,
    )


def _first_difference(g1: DenseGraph, g2: DenseGraph, screens) -> Optional[IsoDecision]:
    """Refute at the first (invariant, value) pair of the screens on which the
    graphs differ; each value is computed only after the ones before it agree."""
    for decided_by, screen in screens:
        for (invariant, a), (_, b) in zip(screen(g1), screen(g2)):
            if a != b:
                return _refutation(invariant, (a, b), decided_by)
    return None


def _search(
    g1: DenseGraph,
    g2: DenseGraph,
    node_budget: int,
    time_budget: Optional[float],
    root: Optional[set[int]],
    deep: bool,
) -> IsoDecision:
    """The IR search within its budgets, as a decision; the time budget runs
    from the start of this search."""
    stats = _SearchStats()
    try:
        perm = _ir_search(g1, g2, node_budget, time_budget, root, deep, stats)
    except SearchBudgetExceeded:
        return IsoDecision(
            None,
            IsoCertificate(kind="undecided", nodes=stats.nodes),
            "budget exhausted",
        )
    if perm is None:
        return IsoDecision(
            False,
            IsoCertificate(kind="search-exhausted", nodes=stats.nodes),
            "search exhausted",
        )
    if not verify_certificate(g1, g2, perm):
        raise SelfCheckError("the search returned a bijection that does not carry g1 onto g2")
    return IsoDecision(
        True,
        IsoCertificate(kind="vertex-bijection", permutation=tuple(perm), nodes=stats.nodes),
        "individualization-refinement search",
    )


def are_isomorphic(
    g1: DenseGraph,
    g2: DenseGraph,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = None,
    force_search: bool = False,
) -> IsoDecision:
    """Complete isomorphism decider with certificates.

    When g2 is marked vertex-transitive the search tries only g2's vertex 0
    at the root: refinement is invariant under Aut(g2), so the root cell
    holds every vertex of g2, and an automorphism carries the image of any
    isomorphism's root vertex to 0.  force_search skips the invariant screens
    and the probe (test mode).  Refinement runs its deep step when g1 is
    strongly regular.  node_budget and time_budget bound the probe and then
    the full search.
    """
    if g1.n != g2.n:
        return _refutation("vertex-count", (g1.n, g2.n), "vertex count")
    root = {0} if g2.vertex_transitive else None
    deep = check_srg(g1).is_srg
    if not force_search:
        refuted = _first_difference(g1, g2, _CHEAP_SCREENS)
        if refuted is not None:
            return refuted
        probe = _search(g1, g2, min(node_budget, PROBE_NODES), time_budget, root, deep)
        if probe.isomorphic:
            return probe
        refuted = _first_difference(g1, g2, _COSTLY_SCREENS)
        if refuted is not None:
            return refuted
    return _search(g1, g2, node_budget, time_budget, root, deep)


def is_self_complementary(
    graph: DenseGraph,
    hint: Optional[ConnectionSet] = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: Optional[float] = None,
    scan_automorphisms: bool = True,
) -> IsoDecision:
    """Decide whether graph is isomorphic to its complement.

    A connection-set hint (the graph must equal build_cayley(hint)) enables
    the fast group-automorphism certificate scan.  The decision then runs on
    the built graph, which equals the input and carries the hint, so a graph
    read from graph6 with a hint gets the vertex-0 kernels and the search
    root {0} as a .set input does, which carries it already and is kept.
    """
    if hint is not None and graph.connection_set != hint:
        built = build_cayley(hint)
        if built != graph:
            raise ValueError("hint connection set does not build this labeled graph")
        graph = built
    n = graph.n
    degrees = graph.degrees()
    if len(set(degrees)) == 1 and n > 1 and n % 4 != 1:
        # k-regular self-complementary graphs have n = 1 mod 4
        return _refutation("regular-vertex-count-mod-4", (n, n % 4), "regularity precheck")
    m = graph.edge_count()
    total = n * (n - 1) // 2
    if 2 * m != total:
        return _refutation("edge-count", (m, total - m), "edge-count precheck")
    comp = complement(graph)
    if hint is not None and scan_automorphisms:
        try:
            cert, _scanned = selfcomp_by_group_automorphism(hint)
        except AutEnumerationError:
            cert = None  # Aut(G) is too large to scan: inconclusive, like a miss
        if cert is not None:
            if not verify_certificate(graph, comp, cert.permutation):
                raise SelfCheckError("the scanned automorphism does not complement the graph")
            return IsoDecision(True, cert, "group-automorphism certificate")
    return are_isomorphic(graph, comp, node_budget=node_budget, time_budget=time_budget)
