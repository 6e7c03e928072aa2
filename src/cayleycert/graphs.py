"""Dense undirected simple graphs with exact structural certification.

A graph is its read-only n x n uint8 adjacency matrix, the one stored
format.  The vectorized kernels work on it directly: the SRG check and the
distance layers (float32 products of a block of 0/1 rows with the
adjacency), one edges-inside product behind the triangle count, the
4-clique count (one per vertex, at the second vertex of each 4-clique), the
per-edge pass of the edge profile and the deep color refinement, the odd-p
ranks (lazily reduced elimination in int32 or int64, where the parameters
of a strongly regular graph do not fix the rank) and the graph6 format.
The float32 products are exact because every value they form is an integer
below 2^24.  The GF(2) rank (an XOR basis) and the one BFS (distances from
vertex 0, and of graphs with a large eccentricity) pack the rows they read
into Python ints.  On a Cayley graph, row 0 of A^2 is S^2 in Z[G] for its
connection set S; when row 0 of A + A^2 has no zero (every connected
strongly regular one), the distances from vertex 0 are read off it, no BFS.
Every result is exact; there is no floating-point spectral computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # cayley and groupalgebra import this module
    from .cayley import ConnectionSet

#: The desk-scale budget: the largest graph, group or field order built.  It
#: also sizes colour refinement's keys: a neighbour count is at most n and a
#: colour below 2n <= 8192, so both fit big-endian uint16 (below 2^16).
MAX_ORDER = 4096

#: Rows per float32 product in the SRG, triangle-count and distance-layer kernels.
ROW_BLOCK = 256

#: The largest n * (eccentricity of vertex 0) for which distances come from
#: layer products rather than from a bit-row BFS per source.  On circulant
#: graphs, with one BLAS thread, the two cost the same near 15 000 for
#: n = 625 and 1500 and near 25 000 for n = 4096.
LAYER_PRODUCT_LIMIT = 16384


class BudgetError(ValueError):
    """An order past MAX_ORDER: the input is refused, not misread."""


def check_order_budget(kind: str, order: int) -> None:
    """Raise BudgetError when a {kind} of this order would exceed MAX_ORDER."""
    if order > MAX_ORDER:
        raise BudgetError(f"{kind} order {order} exceeds the desk-scale budget {MAX_ORDER}")


class DenseGraph:
    """Undirected simple graph, stored as its read-only n x n 0/1 uint8
    adjacency matrix.

    What is checked where: DenseGraph(A) checks every entry of A (0 or 1),
    its diagonal (no loop) and its symmetry, in n x n passes, and keeps a copy
    of it.  build_cayley reads the translates of its connection set's
    indicator instead, which the ConnectionSet type proves 0/1, loop-free and
    symmetric, and keeps them unchecked and uncopied; relabel and complement,
    which derive from a checked graph, keep their arrays the same way.

    connection_set is S on Cay(G, S) as build_cayley labels it, and on its
    complement the complement set; every other graph, a relabelled one too,
    has None.  vertex_transitive reads it: the translations carry vertex 0
    to every vertex, so the graph is regular, and the SRG, distance, clique
    and per-edge kernels stop after vertex 0."""

    def __init__(self, A):
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, not of shape {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        check_order_budget("graph", n)
        # bool and unsigned entries are never below 0, so one comparison finds the rest
        unsigned = A.dtype.kind in "bu"
        _first_pair(A > 1 if unsigned else (A != 0) & (A != 1), "adjacency entry {} is not 0 or 1")
        loops = np.flatnonzero(np.diagonal(A))
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        A = A.astype(np.uint8, order="C")
        _first_pair(A != A.T, "adjacency not symmetric at pair {}")
        self._keep(A, None)

    @classmethod
    def _proven(cls, A: np.ndarray, connection_set: Optional[ConnectionSet] = None) -> "DenseGraph":
        """The graph on A itself, neither checked nor copied: A is a fresh
        C-contiguous n x n uint8 array, 0/1, loop-free, symmetric and the
        array of Cay(G, connection_set) if given, as its maker proves."""
        graph = cls.__new__(cls)
        graph._keep(A, connection_set)
        return graph

    def _keep(self, A: np.ndarray, connection_set: Optional[ConnectionSet]) -> None:
        A.setflags(write=False)
        self.n = A.shape[0]
        self._adjacency = A
        self._connection_set = connection_set
        self._cache: dict = {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DenseGraph":
        check_order_budget("graph", n)
        A = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            A[u, v] = A[v, u] = 1
        return cls(A)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseGraph):
            return NotImplemented
        return bool(np.array_equal(self._adjacency, other._adjacency))

    def __hash__(self) -> int:
        return hash(self._adjacency.tobytes())

    def __repr__(self) -> str:
        return f"DenseGraph(n={self.n}, edges={self.edge_count()})"

    def _memo(self, compute):
        """compute(self), evaluated once per graph and kept in its cache."""
        if compute not in self._cache:
            self._cache[compute] = compute(self)
        return self._cache[compute]

    @property
    def connection_set(self) -> Optional[ConnectionSet]:
        return self._connection_set

    @property
    def vertex_transitive(self) -> bool:
        return self._connection_set is not None

    def adjacency(self) -> np.ndarray:
        """The stored read-only n x n uint8 adjacency matrix."""
        return self._adjacency

    def degree(self, u: int) -> int:
        return int(np.count_nonzero(self._adjacency[u]))

    def degrees(self) -> list[int]:
        return np.count_nonzero(self._adjacency, axis=1).tolist()

    def edge_count(self) -> int:
        return int(np.count_nonzero(self._adjacency)) // 2

    def relabel(self, perm: Sequence[int]) -> "DenseGraph":
        """Image graph where vertex u is renamed perm[u]; unmarked."""
        p = np.asarray(perm)
        if len(p) != self.n or not is_permutation(p):
            raise ValueError(f"{p.tolist()} is not a permutation of 0..{self.n - 1}")
        inverse = np.argsort(p)
        return DenseGraph._proven(self._adjacency[np.ix_(inverse, inverse)])


def _first_pair(bad: np.ndarray, message: str) -> None:
    """Raise ValueError naming the first (u, v) where bad holds, if any."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise ValueError(message.format(divmod(int(hits[0]), bad.shape[1])))


def is_permutation(perm: np.ndarray) -> bool:
    """Is perm a one-dimensional permutation of 0..len(perm) - 1?"""
    return perm.ndim == 1 and bool(np.array_equal(np.sort(perm), np.arange(len(perm))))


def _pack_rows(A: np.ndarray) -> tuple[int, ...]:
    """Row i of A as a Python int, the neighbour bitmask of vertex i."""
    packed = np.packbits(A, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _edges_inside(R: np.ndarray, M: np.ndarray) -> np.ndarray:
    """e(G[X_i]) for each row i of R, where M is the float32 adjacency of G
    on a vertex set and row i of R is the 0/1 indicator of X_i in that set.

    Row i of R @ M, times R elementwise, sums to twice e(G[X_i]): each edge
    inside X_i is seen from both ends.  Both are exact in float32, which
    holds every integer below 2^24 in any summation order: every entry and
    partial sum of R @ M is at most n <= MAX_ORDER, and every partial row sum
    at most 2 e(G[X_i]) <= |X_i| (|X_i| - 1) <= 4096 * 4095 < 2^24.  An odd
    sum raises SelfCheckError.
    """
    twice = ((R @ M) * R).sum(axis=1, dtype=np.float32).astype(np.int64)
    odd = np.flatnonzero(twice & 1)
    if odd.size:
        raise SelfCheckError(f"odd edges-inside count {twice[odd[0]]} at row {odd[0]}")
    return twice // 2


def class_edge_counts(A: np.ndarray, colors: np.ndarray, k: int) -> np.ndarray:
    """out[v, c] = e(G[N(v) & X_c]), where A is the float32 adjacency of G and
    X_c holds the vertices of color c (0 <= c < k): the edges inside each
    color class of each neighbourhood, one _edges_inside product per class.
    """
    out = np.empty((A.shape[0], k), dtype=np.int64)
    for c in range(k):
        X = np.flatnonzero(colors == c)
        out[:, c] = _edges_inside(A[:, X], A[np.ix_(X, X)])
    return out


# --- structural parameters ----------------------------------------------------


class SelfCheckError(RuntimeError):
    """A result failed its own exact re-check: a fault in the program, not an answer."""


@dataclass(frozen=True)
class SrgParams:
    """Strongly-regular parameter tuple (n, k, lam, mu) with the derived pair
    beta = lam - mu and delta = beta^2 + 4(k - mu)."""

    n: int
    k: int
    lam: int
    mu: int

    @property
    def beta(self) -> int:
        return self.lam - self.mu

    @property
    def delta(self) -> int:
        return self.beta**2 + 4 * (self.k - self.mu)

    @property
    def conference_t(self) -> Optional[int]:
        """t when the parameters are Paley type (4t+1, 2t, t-1, t), else None."""
        t = self.mu
        if (self.n, self.k, self.lam, self.mu) == (4 * t + 1, 2 * t, t - 1, t):
            return t
        return None

    def count_identity_holds(self) -> bool:
        """(n-k-1) mu = k (k-lam-1), the standard feasibility relation."""
        return (self.n - self.k - 1) * self.mu == self.k * (self.k - self.lam - 1)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)

    @property
    def integer_eigenvalues(self) -> Optional[tuple[int, int]]:
        """The eigenvalues (r, s) = ((beta +- sqrt(delta))/2) with r > s when
        they are integers, else None."""
        root = isqrt(self.delta)
        if root * root != self.delta or (self.beta + root) % 2:
            return None
        return ((self.beta + root) // 2, (self.beta - root) // 2)

    def multiplicities(self) -> tuple[int, int]:
        """(f, g), the multiplicities of the eigenvalues r > s of a connected
        SRG with these parameters, from f + g = n - 1 and k + f r + g s = 0
        (trace A = 0).  An irrational r forces f = g, hence conference
        parameters and f = (n - 1) / 2.  Raises SelfCheckError when no
        connected SRG can have these parameters: f or g is not a positive
        integer, or delta is not a square on non-conference parameters."""
        pair = self.integer_eigenvalues
        if pair is None:
            if self.conference_t is None:
                raise SelfCheckError(
                    f"delta = {self.delta} of {self.as_tuple()} is not a square,"
                    " yet the parameters are not conference type"
                )
            return 2 * self.mu, 2 * self.mu
        r, s = pair
        top = -self.k - (self.n - 1) * s
        f, rem = divmod(top, r - s)
        if rem or not 0 < f < self.n - 1:
            raise SelfCheckError(
                f"{self.as_tuple()} give the eigenvalue {r} the multiplicity"
                f" {top}/{r - s}, not an integer in 1..n-2"
            )
        return f, self.n - 1 - f

    def p_rank(self, p: int, shift: int) -> Optional[int]:
        """The rank of A + shift*I over Z_p (p prime) for every connected SRG
        with these parameters, or None when they leave it open.

        A + tI has the eigenvalues k + t, r + t and s + t with multiplicities
        1, f and g, and (r + t)(s + t) = N = t^2 + beta t - (k - mu).
        (a) If p divides neither k + t nor N, it does not divide
            det(A + tI) = (k + t)(r + t)^f (s + t)^g, and the rank is n.
        (b) Otherwise, if p divides neither n nor delta = (r - s)^2, the
            idempotents J/n, E_r = (A - sI - (k - s)J/n)/(r - s) and E_s are
            p-integral (over Z, or the integers of Q(sqrt delta) localised at
            a prime above p), and the rank is the sum of their ranks 1, f and
            g over the eigenvalues p does not divide.  For irrational r, p
            divides exactly one of r + t and s + t when p | N (both would put
            r - s in the prime), and f = g.
        (c) Otherwise the rank is not a function of the parameters (Brouwer
            and van Eijl, J. Algebraic Combin. 1 (1992)): None.
        """
        f, g = self.multiplicities()
        t = shift
        N = t * t + self.beta * t - (self.k - self.mu)
        k_unit = (self.k + t) % p != 0
        if k_unit and N % p:
            return self.n
        if self.n % p == 0 or self.delta % p == 0:
            return None
        pair = self.integer_eigenvalues
        if pair is None:
            return k_unit + 2 * f - (f if N % p == 0 else 0)
        r, s = pair
        return k_unit + (f if (r + t) % p else 0) + (g if (s + t) % p else 0)


@dataclass(frozen=True)
class IntersectionArray:
    """{b0, ..., b_{d-1}; c1, ..., c_d} of a distance-regular graph."""

    bs: tuple[int, ...]
    cs: tuple[int, ...]

    def __post_init__(self):
        if len(self.bs) != len(self.cs):
            raise ValueError("b and c sequences must have equal length d")
        if self.cs and self.cs[0] != 1:
            raise ValueError("c1 must be 1")

    def __str__(self) -> str:
        return "{%s;%s}" % (
            ",".join(map(str, self.bs)),
            ",".join(map(str, self.cs)),
        )


@dataclass(frozen=True)
class SrgResult:
    """check_srg outcome; reason/witness explain a refusal."""

    params: Optional[SrgParams]
    reason: Optional[str] = None
    witness: Optional[tuple] = None

    @property
    def is_srg(self) -> bool:
        return self.params is not None


@dataclass(frozen=True)
class DistanceRegularResult:
    array: Optional[IntersectionArray]
    reason: Optional[str] = None
    witness: Optional[tuple] = None

    @property
    def is_distance_regular(self) -> bool:
        return self.array is not None


# --- operations -----------------------------------------------------------------


def complement(graph: DenseGraph) -> DenseGraph:
    """The complement; of Cay(G, S), Cay(G, complement_connection_set(S))."""
    from .cayley import complement_connection_set

    A = graph.adjacency() ^ 1
    np.fill_diagonal(A, 0)
    conn = graph.connection_set
    return DenseGraph._proven(A, None if conn is None else complement_connection_set(conn))


def _bfs_layers(graph: DenseGraph, sources: Sequence[int]) -> np.ndarray:
    """dist[j, x], the distance from sources[j] to x (-1 when x is not
    reached), by a bit-row BFS per source: each layer is the OR of the bit
    rows of the layer before, minus the vertices already reached."""
    rows = _pack_rows(graph.adjacency())
    dist = np.full((len(sources), graph.n), -1, dtype=np.int32)
    for j, s in enumerate(map(int, sources)):
        row = [-1] * graph.n
        visited = frontier = 1 << s
        depth = 0
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                u = low.bit_length() - 1
                row[u] = depth
                nxt |= rows[u]
                frontier ^= low
            frontier = nxt & ~visited
            visited |= frontier
            depth += 1
        dist[j] = row
    return dist


def _base_distances(graph: DenseGraph) -> np.ndarray:
    """The distances from vertex 0, memoised for is_connected and for the
    choice of distance kernel in _distance_blocks.  On a Cayley graph whose
    row 0 of A + A^2 has no zero, they are 1 on N(0) and 2 off it, read off
    that row, which _check_srg reads anyway; else the bit-row BFS."""
    if graph.vertex_transitive:
        near = graph.adjacency()[0]
        if (_square_row0(graph) + near).all():
            dist = 2 - near.astype(np.int32)
            dist[0] = 0
            return dist
    return _bfs_layers(graph, [0])[0]


def _square_row0(graph: DenseGraph) -> np.ndarray:
    """Row 0 of A^2 on a Cayley graph: entry x counts the pairs in S x S
    summing to g_x, so it is S^2, memoised on the set (groupalgebra.square)."""
    from .groupalgebra import square

    return square(graph.connection_set)


def is_connected(graph: DenseGraph) -> bool:
    """Is every vertex reached from vertex 0 (see _base_distances)?"""
    return bool((graph._memo(_base_distances) >= 0).all())


def _source_stop(graph: DenseGraph) -> int:
    """The sources 0, ..., stop - 1 that the SRG, distance and per-vertex
    kernels visit: vertex 0 alone on a vertex-transitive graph.  There an
    automorphism takes any failing pair (i, j) or source s to a failing pair
    (0, j') or to source 0, which comes first in row-major or source order,
    so the first failure, and hence every witness, is the same as over all
    sources; _whole_graph scales the counts made at vertex 0."""
    return 1 if graph.vertex_transitive else graph.n


def _distance_blocks(graph: DenseGraph, stop: int, A: Optional[np.ndarray] = None):
    """Yield (sources, dist) for each block of ROW_BLOCK sources below stop,
    in source order: dist[j, x] is the distance from sources[j] to x, -1 when
    x is not reached.  A is the caller's float32 copy of the adjacency, if it
    has one; otherwise the layer products make their own (64 MiB at n = 4096).
    Source 0 alone needs no copy, and A is not read.

    Source 0 alone (stop = 1, as on a graph marked vertex-transitive) is the
    memoised _base_distances row.  Otherwise layer products
    cost about 2n flops per source, vertex and layer, so they are used only
    while n times the eccentricity of vertex 0 is at most LAYER_PRODUCT_LIMIT;
    past it (long cycles and paths, say) each source gets a bit-row BFS,
    whose cost grows with n but not with the number of layers.
    """
    base = graph._memo(_base_distances)
    if stop == 1:
        yield np.arange(1), base[None]
        return
    products = graph.n * int(base.max()) <= LAYER_PRODUCT_LIMIT
    if products and A is None:
        A = graph.adjacency().astype(np.float32)
    for start in range(0, stop, ROW_BLOCK):
        sources = np.arange(start, min(start + ROW_BLOCK, stop))
        if products:
            yield sources, _product_distances(A, sources)
        else:
            yield sources, _bfs_layers(graph, sources)


def _product_distances(A: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Layer i + 1 of each source is (L_i @ A > 0) minus the vertices already
    reached.  Entries of L_i @ A count neighbours, so every entry and partial
    sum is an integer at most n <= MAX_ORDER < 2^24: float32 holds it exactly
    in any summation order."""
    dist = np.full((len(sources), A.shape[0]), -1, dtype=np.int32)
    layer = A[sources] > 0  # layer 1 needs no product
    dist[layer] = 1
    dist[np.arange(len(sources)), sources] = 0
    unreached = dist < 0
    depth = 1
    while layer.any() and unreached.any():
        layer = (layer.astype(np.float32) @ A > 0) & unreached
        depth += 1
        dist[layer] = depth
        unreached &= ~layer
    return dist


def _layer_counts(A, dist: np.ndarray, k: int, conn) -> tuple[np.ndarray, np.ndarray]:
    """(above, below): above[j, x] and below[j, x] count the neighbours of x
    one layer farther from and one layer nearer to sources[j], in a
    connected k-regular graph.

    A neighbour of x lies in x's layer or in one next to it, and those three
    layers differ mod 3, so two counts give the neighbours in the layers = 0
    and = 1 mod 3, and k minus both those in the layers = 2 mod 3.  A is the
    float32 adjacency, and the counts are products with it (exact as in
    _product_distances), or None on a Cayley graph, whose dist is source 0's
    alone: the counts are then L * S in Z[G], L a union of layers, S = conn.
    """
    residue = dist % 3
    if conn is not None:
        from .groupalgebra import ga_mul

        layers = (np.flatnonzero(residue[0] == r) for r in (0, 1))
        c0, c1 = (ga_mul(conn.group, layer, conn.members)[None] for layer in layers)
    else:
        c0, c1 = ((residue == r).astype(np.float32) @ A for r in (0, 1))
    counts = [c0, c1, k - c0 - c1]
    above = np.choose((residue + 1) % 3, counts).astype(np.int32)
    below = np.choose((residue + 2) % 3, counts).astype(np.int32)
    return above, below


def sphere_sizes(graph: DenseGraph) -> tuple[tuple[int, ...], ...]:
    """Per source vertex, the sizes of its distance spheres (sphere 0 first),
    once per graph.  On a graph the memoised check_srg certifies, they are
    (1, k, n - k - 1) at every source: it is connected and not complete, so
    mu >= 1 and every non-edge is at distance 2.  Every other graph takes one
    pass of the distance kernel, over all sources or, on a graph marked
    vertex-transitive, over vertex 0 alone.  Sources with the same sizes
    share one tuple, so a vertex-transitive graph keeps one."""
    return graph._memo(_sphere_sizes)


def _sphere_sizes(graph: DenseGraph) -> tuple[tuple[int, ...], ...]:
    srg = check_srg(graph)
    if srg.is_srg:
        n, k, _lam, _mu = srg.params.as_tuple()
        return ((1, k, n - k - 1),) * n
    out = []
    shared: dict = {}
    for _sources, dist in _distance_blocks(graph, _source_stop(graph)):
        # one bincount: row j of dist counts into bins j * (n + 1) + (dist + 1)
        width = graph.n + 1
        offsets = width * np.arange(len(dist))[:, None]
        counts = np.bincount((dist + 1 + offsets).ravel(), minlength=width * len(dist))
        counts = counts.reshape(len(dist), width)[:, 1 : int(dist.max()) + 2]
        sizes = (tuple(c for c in row if c) for row in counts.tolist())
        out.extend(shared.setdefault(t, t) for t in sizes)
    return tuple(out) * (graph.n // len(out))  # source 0's tuple n times when marked


def diameter(graph: DenseGraph) -> Optional[int]:
    """Maximum eccentricity, or None when the graph is disconnected."""
    spheres = sphere_sizes(graph)
    if any(sum(sizes) != graph.n for sizes in spheres):
        return None
    return max(len(sizes) - 1 for sizes in spheres)


def _not_regular(graph: DenseGraph) -> Optional[tuple[int, int, int, int]]:
    """(0, u, k, deg u) for the first vertex u whose degree differs from
    vertex 0's, or None when the graph is regular: at once on a graph marked
    vertex-transitive, whose automorphisms carry vertex 0 to every vertex."""
    if graph.vertex_transitive:
        return None
    degs = graph.degrees()
    for u in range(1, graph.n):
        if degs[u] != degs[0]:
            return (0, u, degs[0], degs[u])
    return None


def check_srg(graph: DenseGraph) -> SrgResult:
    """Certify strong regularity by direct common-neighbor counting, once per
    graph."""
    return graph._memo(_check_srg)


def _check_srg(graph: DenseGraph) -> SrgResult:
    """Count |N(u) & N(v)| for all pairs as C = A[rows] @ A, one block of
    ROW_BLOCK rows at a time, and compare the upper triangle with lam on edges
    and mu on non-edges.  lam and mu come from the first edge and the first
    non-edge in row-major order, and the witness is the first pair that
    differs in that order.  The float32 product is exact for the reason given
    in _product_distances.  A Cayley graph checks row 0 alone, the S^2 that
    _base_distances reads first.
    """
    n = graph.n
    witness = _not_regular(graph)
    if witness is not None:
        return SrgResult(None, "not regular", witness)
    k = graph.degree(0)
    if k == n - 1:
        return SrgResult(None, "complete graph", None)
    if not is_connected(graph):
        return SrgResult(None, "disconnected", None)
    # Connected, regular and not complete with n >= 2, so vertex 0 has both a
    # neighbour and a non-neighbour, all above 0: the first edge and the first
    # non-edge lie in row 0.
    A = graph.adjacency()
    v_lam = int(np.flatnonzero(A[0, 1:])[0]) + 1
    v_mu = int(np.flatnonzero(A[0, 1:] == 0)[0]) + 1
    lam = int(np.count_nonzero(A[0] & A[v_lam]))
    mu = int(np.count_nonzero(A[0] & A[v_mu]))
    # (start, C): C[i, j] = |N(start + i) & N(start + j)| for the columns from
    # start on, which alone meet the upper triangle; the diagonal is C[i, i]
    if graph.vertex_transitive:
        blocks = [(0, _square_row0(graph)[None])]
    else:
        A32 = A.astype(np.float32)
        blocks = ((s, A32[s : s + ROW_BLOCK] @ A32[:, s:]) for s in range(0, n, ROW_BLOCK))
    for start, C in blocks:
        if (np.diagonal(C) != k).any():
            raise SelfCheckError(f"a diagonal count in the block at row {start} is not k = {k}")
        block = A[start : start + len(C), start:]
        bad = np.triu(C != np.where(block, C.dtype.type(lam), C.dtype.type(mu)), 1)
        if bad.any():
            i, j = divmod(int(np.flatnonzero(bad)[0]), n - start)
            pair, c = (start + i, start + j), int(C[i, j])
            if block[i, j]:
                kind, first = "edges", ((0, v_lam), lam)
            else:
                kind, first = "non-edges", ((0, v_mu), mu)
            return SrgResult(
                None, f"common-neighbor count not constant on {kind}", (*first, pair, c)
            )
    params = SrgParams(n, k, lam, mu)
    if not params.count_identity_holds():
        raise SelfCheckError(f"counted {params.as_tuple()} violate (n-k-1)mu = k(k-lam-1)")
    return SrgResult(params)


def intersection_array(graph: DenseGraph) -> DistanceRegularResult:
    """On a graph the memoised check_srg certifies, {k, k - lam - 1; 1, mu}
    read off its parameters: it is connected and not complete, so its
    diameter is 2 (see sphere_sizes), and a neighbour of a neighbour x of u
    is u, one of the lam common neighbours of u and x, or at distance 2.
    Every other graph takes the distance partition from every base vertex
    (vertex 0 alone on a graph marked vertex-transitive); b_i, c_i must be
    constant.

    Source 0 fixes the diameter d and, at the first vertex of each of its
    layers, the reference b_i and c_i.  The witness is the first failure in
    source order; within a source the eccentricity is checked first, then
    the vertices by (layer, vertex), b before c.
    """
    srg = check_srg(graph)
    if srg.is_srg:
        _n, k, lam, mu = srg.params.as_tuple()
        return DistanceRegularResult(IntersectionArray((k, k - lam - 1), (1, mu)))
    witness = _not_regular(graph)
    if witness is not None:
        return DistanceRegularResult(None, "not regular", witness)
    k = graph.degree(0)
    # source 0 alone is counted in Z[G], blocks of sources by float32 products
    conn = graph.connection_set
    A = None if conn is not None else graph.adjacency().astype(np.float32)
    for sources, dist in _distance_blocks(graph, _source_stop(graph), A):
        if sources[0] == 0 and (dist[0] < 0).any():
            return DistanceRegularResult(None, "disconnected", None)
        above, below = _layer_counts(A, dist, k, conn)
        if sources[0] == 0:
            d = int(dist[0].max())
            first = [int(np.flatnonzero(dist[0] == i)[0]) for i in range(d + 1)]
            bs = [int(above[0, x]) for x in first[:d]]
            cs = [int(below[0, x]) for x in first[1:]]
            b_ref = np.array(bs + [0], dtype=np.int32)  # indexed by layer; no b at layer d
            c_ref = np.array([0] + cs, dtype=np.int32)  # no c at layer 0
        ecc = dist.max(axis=1)
        layer = np.minimum(dist, d)
        bad_b = (layer < d) & (above != b_ref[layer])
        bad_c = (layer > 0) & (below != c_ref[layer])
        failing = np.flatnonzero((ecc != d) | (bad_b | bad_c).any(axis=1))
        if failing.size:
            j = int(failing[0])
            s = int(sources[j])
            if ecc[j] != d:
                return DistanceRegularResult(
                    None, "eccentricity not constant", (0, d, s, int(ecc[j]))
                )
            xs = np.flatnonzero(bad_b[j] | bad_c[j])
            x = int(xs[np.lexsort((xs, layer[j, xs]))[0]])
            i = int(layer[j, x])
            if bad_b[j, x]:
                return DistanceRegularResult(
                    None, f"b_{i} not constant", (s, x, bs[i], int(above[j, x]))
                )
            return DistanceRegularResult(
                None, f"c_{i} not constant", (s, x, cs[i - 1], int(below[j, x]))
            )
    return DistanceRegularResult(IntersectionArray(tuple(bs), tuple(cs)))


def triangle_count(graph: DenseGraph) -> int:
    """Exact triangle count without the clique kernel, once per graph: n k
    lam / 6 from the memoised check_srg when the graph is strongly regular,
    else the sum over v of e(G[N(v)]), which sees each triangle from its 3
    corners, by _edges_inside on blocks of ROW_BLOCK rows of A."""
    return graph._memo(_triangle_count)


def _triangle_count(graph: DenseGraph) -> int:
    srg = check_srg(graph)
    if srg.is_srg:
        n, k, lam, _mu = srg.params.as_tuple()
        return n * k * lam // 6
    A = graph.adjacency().astype(np.float32)
    tri3 = 0
    for start in range(0, graph.n, ROW_BLOCK):
        tri3 += int(_edges_inside(A[start : start + ROW_BLOCK], A).sum())
    if tri3 % 3:
        raise SelfCheckError(f"the neighbourhood edge counts sum to {tri3}, not a multiple of 3")
    return tri3 // 3


def _neighbourhoods(graph: DenseGraph):
    """Yield (u, N(u)) for each vertex u below _source_stop: the vertices the
    clique kernel and the per-edge pass visit."""
    A = graph.adjacency()
    for u in range(_source_stop(graph)):
        yield u, np.flatnonzero(A[u])


def _whole_graph(graph: DenseGraph, count: int, size: int, what: str) -> int:
    """The number of {what} in the graph, each on {size} vertices, from the
    count a per-vertex kernel made at the vertices it visited.  Unmarked, each
    is counted once, at one of its vertices.  Marked vertex-transitive, vertex 0
    counts those containing it; an automorphism taking 0 to u carries them
    onto those containing u, so the graph holds n * count / size of them."""
    if not graph.vertex_transitive:
        return count
    whole, rem = divmod(graph.n * count, size)
    if rem:
        raise SelfCheckError(f"{graph.n} x {count} {what} at vertex 0 is not a multiple of {size}")
    return whole


def _clique_counts(graph: DenseGraph) -> tuple[int, int]:
    """(triangles, 4-cliques), from one edges-inside product per visited
    vertex b.

    Unmarked, each 4-clique {a < b < c < d} is counted once, at b.  One
    gather X = A[N(b)][:, N+(b)], N+(b) the neighbours above b, holds M, the
    float32 adjacency of G[N+(b)], in its rows N+(b), and R, the rows a in
    N(b) below b restricted to N+(b).  _edges_inside(R, M) counts at row a
    the edges {c, d} of G[N(a) & N+(b)], so it sums to the 4-cliques whose
    second vertex is b, and M sums to twice the triangles whose lowest
    vertex is b.  This costs sum d-(b) d+(b)^2, about n k^3 / 12 multiply-adds.
    Marked vertex-transitive, R = M = X is G[N(0)]: each 4-clique through 0
    is seen from its 3 other vertices.  A sum that is not a multiple of 2, or
    of 3 at a marked vertex 0, raises SelfCheckError.
    """
    A = graph.adjacency()
    marked = graph.vertex_transitive
    twice = seen = 0
    for b, nbrs in _neighbourhoods(graph):
        low = int(np.searchsorted(nbrs, b))  # 0 at vertex 0
        X = A[nbrs][:, nbrs[low:]]
        twice += int(np.count_nonzero(X[low:]))
        X = X.astype(np.float32)
        seen += int(_edges_inside(X if marked else X[:low], X[low:]).sum())
    sides = 3 if marked else 1
    if twice % 2 or seen % sides:
        raise SelfCheckError(
            f"the clique sums {twice} and {seen} are not multiples of 2 and {sides}"
        )
    return (
        _whole_graph(graph, twice // 2, 3, "triangles"),
        _whole_graph(graph, seen // sides, 4, "4-cliques"),
    )


def invariant_counts(graph: DenseGraph) -> tuple[int, int, tuple[int, ...]]:
    """(triangle count, 4-clique count, sorted degree multiset), all exact;
    the counts come from the clique kernel, once per graph."""
    triangles, four_cliques = graph._memo(_clique_counts)
    return triangles, four_cliques, tuple(sorted(graph.degrees()))


def _common_neighborhood_pass(graph: DenseGraph) -> tuple[tuple[int, int], ...]:
    """Multiset over edges u < v of e(G[N(u) & N(v)]), as sorted (value,
    multiplicity) pairs.

    One small matrix product per visited vertex u: B is the float32 adjacency
    of G[N(u)], so row v of B is the indicator of N(u) & N(v) inside N(u), and
    _edges_inside of the rows v > u counts the edges of G[N(u) & N(v)].  On a
    graph marked vertex-transitive the edges at vertex 0 stand for all, each
    multiplicity scaled by n / 2.  The multiplicities must sum to the edge
    count, or SelfCheckError is raised.
    """
    A = graph.adjacency()
    counts: Counter[int] = Counter()
    for u, nbrs in _neighbourhoods(graph):
        B = A[nbrs][:, nbrs].astype(np.float32)
        counts.update(_edges_inside(B[nbrs > u], B).tolist())
    profile = tuple(sorted((v, _whole_graph(graph, m, 2, "edges")) for v, m in counts.items()))
    total = sum(mult for _value, mult in profile)
    if total != graph.edge_count():
        raise SelfCheckError(f"the edge profile counts {total} edges, not {graph.edge_count()}")
    return profile


def edge_neighborhood_edge_profile(graph: DenseGraph) -> tuple[tuple[int, int], ...]:
    """Multiset over adjacent pairs {u,v} of the edge count inside the common
    neighborhood G[N(u) & N(v)], as sorted (value, multiplicity) pairs.

    Isomorphism-invariant and strictly finer than the 4-clique count (whose
    value is one sixth of the weighted sum); separates same-parameter
    strongly regular graphs that agree on every counting and rank invariant.
    """
    return graph._memo(_common_neighborhood_pass)


_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1


def mod_p_rank(graph: DenseGraph, p: int, shift: int = 0) -> int:
    """Rank of (A + shift*I) over Z_p.  For a strongly regular graph it is
    read off the memoised check_srg parameters wherever SrgParams.p_rank
    fixes it.  Otherwise it is eliminated: an XOR basis of the bit rows for
    p = 2, lazily reduced Gaussian elimination in machine integers for odd p."""
    from .fields import is_prime

    if p > 2 and (p - 1) ** 2 + p > _INT64_MAX:
        raise ValueError(f"p = {p} is too large for exact elimination in int64")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    srg = check_srg(graph)
    rank = srg.params.p_rank(p, shift) if srg.is_srg else None
    return _eliminated_rank(graph, p, shift) if rank is None else rank


def _eliminated_rank(graph: DenseGraph, p: int, shift: int) -> int:
    """The rank of (A + shift*I) over Z_p by elimination alone."""
    if p == 2:
        rows = _pack_rows(graph.adjacency())
        return _gf2_rank(r ^ ((shift % 2) << u) for u, r in enumerate(rows))
    return _odd_p_rank(graph, p, shift)


def _gf2_rank(rows: Iterable[int]) -> int:
    """Size of an XOR basis kept by leading bit: each row is reduced by the
    basis vectors of its successive leading bits until it vanishes or leads
    with a new bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    return len(basis)


def _odd_p_rank(graph: DenseGraph, p: int, shift: int) -> int:
    """Gaussian elimination over Z_p with delayed reduction.

    Only the pivot column (to find the pivot) and the pivot row (before it is
    scaled by the inverse) are reduced mod p.  The trailing block is left
    unreduced: an entry starts in [0, p) and each step subtracts a product of
    two reduced values, moving it by at most (p-1)^2.  So after s steps its
    magnitude is below p + s*(p-1)^2.  int32 holds that for all n steps when
    p + n*(p-1)^2 <= 2^31 - 1; otherwise int64 is used and the trailing
    block is reduced whenever one more step could pass 2^63 - 1.
    """
    n = graph.n
    step = (p - 1) ** 2
    if p + n * step <= _INT32_MAX:
        dtype, budget = np.int32, n
    else:
        dtype, budget = np.int64, (_INT64_MAX - p) // step
    M = graph.adjacency().astype(dtype)
    M[np.arange(n), np.arange(n)] += shift % p
    M %= p
    rank = steps = 0
    for col in range(n):
        column = M[rank:, col] % p
        hits = np.flatnonzero(column)
        if hits.size == 0:
            continue
        piv = rank + int(hits[0])
        if piv != rank:
            M[[rank, piv], col:] = M[[piv, rank], col:]
        inv = pow(int(column[hits[0]]), -1, p)
        pivot_row = (M[rank, col + 1 :] % p) * inv % p
        below = hits[1:]
        if below.size:
            if steps == budget:
                M[rank + 1 :, col + 1 :] %= p
                steps = 0
            rows = rank + below
            M[rows, col + 1 :] -= column[below, None] * pivot_row
            steps += 1
        rank += 1
        if rank == n:
            break
    return rank


# --- external formats -----------------------------------------------------------


def _graph6_order(n: int) -> np.ndarray:
    """The n x n mask of graph6's bits: the pairs (i, j) with i < j, column
    by column, are the lower triangle read row by row."""
    return np.tri(n, k=-1, dtype=bool)


def to_graph6(graph: DenseGraph) -> str:
    """Standard graph6 line (without trailing newline)."""
    n = graph.n
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(
            chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0)
        )
    bits = graph.adjacency()[_graph6_order(n)]
    six = np.zeros((len(bits) + 5) // 6 * 6, dtype=np.uint8)
    six[: len(bits)] = bits
    # packbits fills each byte from its high bit, so six bits land in bits 7..2
    values = np.packbits(six.reshape(-1, 6), axis=1)[:, 0] >> 2
    return header + (values + 63).tobytes().decode("ascii")


def from_graph6(text: str) -> DenseGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 input")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ValueError("unsupported graph6 header (n > 258047 not in budget)")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1:
        raise ValueError(f"graph6 vertex count {n} is not positive")
    check_order_budget("graph", n)
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    # code points below 63 wrap around in uint32, so one bound finds every bad byte
    values = np.frombuffer(body.encode("utf-32-le"), dtype=np.uint32) - np.uint32(63)
    bad = np.flatnonzero(values > 63)
    if bad.size:
        raise ValueError(f"invalid graph6 byte {body[bad[0]]!r}")
    bits = np.unpackbits(values.astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    lower = np.zeros((n, n), dtype=np.uint8)
    lower[_graph6_order(n)] = bits[:pairs]
    return DenseGraph(lower | lower.T)


def from_edge_list(text: str) -> DenseGraph:
    """Parse "u v" lines, u and v non-negative integers; n is the largest
    vertex + 1.  An error names its line, blank and comment lines counted."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line.strip()!r}")
        bad = [part for part in parts if not part.isdecimal()]
        if bad:
            raise ValueError(f"line {lineno}: bad vertex {bad[0]!r}")
        u, v = map(int, parts)
        if u == v:
            raise ValueError(f"line {lineno}: loop at vertex {u}")
        edges.append((u, v))
    if not edges:
        raise ValueError("edge list defines no vertices")
    return DenseGraph.from_edges(max(map(max, edges)) + 1, edges)
