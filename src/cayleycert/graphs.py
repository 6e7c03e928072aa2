"""Dense undirected simple graphs with exact structural certification.

Adjacency lives in packed bit rows (Python ints), so common-neighbor counts
are single AND+popcount operations and the GF(2) rank is an XOR basis of the
rows; a numpy uint8 mirror is cached for the vectorized kernels: the per-edge
common-neighbourhood pass (one float32 product per vertex, exact because
every value is an integer below 2^24), the odd-p ranks (lazily reduced
elimination in int32 or int64) and color refinement.  Every result is exact;
there is no floating-point spectral computation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

#: The desk-scale budget: the largest graph, group or field order built.
MAX_ORDER = 4096


def check_order_budget(kind: str, order: int) -> None:
    """Raise ValueError when a {kind} of this order would exceed MAX_ORDER."""
    if order > MAX_ORDER:
        raise ValueError(f"{kind} order {order} exceeds the desk-scale budget {MAX_ORDER}")


@dataclass(frozen=True)
class DenseGraph:
    """Undirected simple graph; row i is the neighbor bitmask of vertex i."""

    n: int
    rows: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __init__(self, rows: Sequence[int], n: Optional[int] = None):
        rows = tuple(int(r) for r in rows)
        if n is None:
            n = len(rows)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        check_order_budget("graph", n)
        if len(rows) != n:
            raise ValueError(f"{len(rows)} rows for {n} vertices")
        limit = 1 << n
        for u, row in enumerate(rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_cache", {})
        A = self.adjacency()
        if not np.array_equal(A, A.T):
            u, v = map(int, np.argwhere(A != A.T)[0])
            raise ValueError(f"adjacency not symmetric at pair ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DenseGraph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows, n)

    @classmethod
    def from_adjacency(cls, A: np.ndarray) -> "DenseGraph":
        A = np.asarray(A)
        n = A.shape[0]
        packed = np.packbits(A.astype(bool), axis=1, bitorder="little")
        rows = [int.from_bytes(packed[u].tobytes(), "little") for u in range(n)]
        return cls(rows, n)

    def _memo(self, compute):
        """compute(self), evaluated once per graph and kept in its cache."""
        if compute not in self._cache:
            self._cache[compute] = compute(self)
        return self._cache[compute]

    def adjacency(self) -> np.ndarray:
        """Cached n x n uint8 mirror of the bit rows."""
        return self._memo(_unpack_rows)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        # row & -(2 << u) keeps the neighbors above u
        return [(u, v) for u, row in enumerate(self.rows) for v in _bits(row & -(2 << u))]

    def relabel(self, perm: Sequence[int]) -> "DenseGraph":
        """Image graph where vertex u is renamed perm[u]."""
        rows = [0] * self.n
        for u in range(self.n):
            m = self.rows[u]
            acc = 0
            while m:
                lsb = m & -m
                acc |= 1 << perm[lsb.bit_length() - 1]
                m ^= lsb
            rows[perm[u]] = acc
        return DenseGraph(rows, self.n)


def _unpack_rows(graph: DenseGraph) -> np.ndarray:
    nbytes = (graph.n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in graph.rows)
    bits = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(graph.n, nbytes),
        axis=1,
        bitorder="little",
    )[:, : graph.n]
    A = np.ascontiguousarray(bits)
    A.setflags(write=False)
    return A


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _edges_inside(rows: Sequence[int], mask: int) -> int:
    """e(G[mask]): one AND+popcount per vertex of mask sees every edge twice."""
    twice = 0
    for w in _bits(mask):
        twice += (rows[w] & mask).bit_count()
    return twice // 2


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

    def eigenvalues(self) -> "Eigenvalues":
        return Eigenvalues(self.k, self.beta, self.delta)


@dataclass(frozen=True)
class Eigenvalues:
    """Exact spectrum record: k and (beta +- sqrt(delta))/2 kept as integers."""

    k: int
    beta: int
    delta: int

    @property
    def delta_is_square(self) -> bool:
        return isqrt(self.delta) ** 2 == self.delta

    @property
    def integer_pair(self) -> Optional[tuple[int, int]]:
        """(r, s) with r > s when delta is a perfect square, else None."""
        if not self.delta_is_square:
            return None
        root = isqrt(self.delta)
        if (self.beta + root) % 2 != 0:
            return None
        return ((self.beta + root) // 2, (self.beta - root) // 2)


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

    @property
    def d(self) -> int:
        return len(self.bs)

    @property
    def k(self) -> int:
        return self.bs[0]

    def a(self, i: int) -> int:
        b = self.bs[i] if i < self.d else 0
        c = self.cs[i - 1] if i >= 1 else 0
        return self.k - b - c

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
    n = graph.n
    full = (1 << n) - 1
    rows = [(r ^ full) & ~(1 << u) for u, r in enumerate(graph.rows)]
    return DenseGraph(rows, n)


def _bfs_layers(graph: DenseGraph, source: int) -> list[int]:
    """Bit masks of the distance spheres around source (layer[i] = sphere i)."""
    visited = frontier = 1 << source
    layers = [frontier]
    while True:
        nxt = 0
        for u in _bits(frontier):
            nxt |= graph.rows[u]
        nxt &= ~visited
        if not nxt:
            return layers
        layers.append(nxt)
        visited |= nxt
        frontier = nxt


def is_connected(graph: DenseGraph) -> bool:
    layers = _bfs_layers(graph, 0)
    reached = 0
    for m in layers:
        reached |= m
    return reached == (1 << graph.n) - 1


def sphere_sizes(graph: DenseGraph) -> tuple[tuple[int, ...], ...]:
    """Per source vertex, the sizes of its distance spheres (sphere 0 first),
    from one all-source BFS pass per graph."""
    return graph._memo(_sphere_sizes)


def _sphere_sizes(graph: DenseGraph) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(m.bit_count() for m in _bfs_layers(graph, s)) for s in range(graph.n)
    )


def diameter(graph: DenseGraph) -> Optional[int]:
    """Maximum eccentricity, or None when the graph is disconnected."""
    spheres = sphere_sizes(graph)
    if any(sum(sizes) != graph.n for sizes in spheres):
        return None
    return max(len(sizes) - 1 for sizes in spheres)


def check_srg(graph: DenseGraph) -> SrgResult:
    """Certify strong regularity by direct common-neighbor counting, once per
    graph."""
    return graph._memo(_check_srg)


def _check_srg(graph: DenseGraph) -> SrgResult:
    n = graph.n
    degs = graph.degrees()
    k = degs[0]
    for u in range(1, n):
        if degs[u] != k:
            return SrgResult(None, "not regular", (0, u, k, degs[u]))
    if k == n - 1:
        return SrgResult(None, "complete graph", None)
    if not is_connected(graph):
        return SrgResult(None, "disconnected", None)
    lam = mu = None
    lam_pair = mu_pair = None
    for u in range(n):
        ru = graph.rows[u]
        for v in range(u + 1, n):
            c = (ru & graph.rows[v]).bit_count()
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
    params = SrgParams(n, k, lam, mu)
    if not params.count_identity_holds():
        raise SelfCheckError(f"counted {params.as_tuple()} violate (n-k-1)mu = k(k-lam-1)")
    return SrgResult(params)


def check_adjacency_identity(graph: DenseGraph, params: SrgParams) -> bool:
    """Exact check of A^2 = lam*A + mu*(J - I - A) + k*I in integer matrices."""
    n, k, lam, mu = params.as_tuple()
    if n != graph.n:
        return False
    A = graph.adjacency().astype(np.int64)
    I = np.eye(n, dtype=np.int64)
    return bool(np.array_equal(A @ A, lam * A + mu * (1 - I - A) + k * I))


def intersection_array(graph: DenseGraph) -> DistanceRegularResult:
    """Distance partition from every base vertex; b_i, c_i must be constant."""
    n = graph.n
    degs = graph.degrees()
    k = degs[0]
    for u in range(1, n):
        if degs[u] != k:
            return DistanceRegularResult(None, "not regular", (0, u, k, degs[u]))
    base_layers = _bfs_layers(graph, 0)
    full = (1 << n) - 1
    if sum(base_layers) != full:  # layers are disjoint masks
        return DistanceRegularResult(None, "disconnected", None)
    d = len(base_layers) - 1
    bs: list[Optional[int]] = [None] * d
    cs: list[Optional[int]] = [None] * d
    for s in range(n):
        layers = _bfs_layers(graph, s)
        if len(layers) - 1 != d:
            return DistanceRegularResult(
                None, "eccentricity not constant", (0, d, s, len(layers) - 1)
            )
        for i, layer in enumerate(layers):
            above = layers[i + 1] if i + 1 <= d else 0
            below = layers[i - 1] if i >= 1 else 0
            for x in _bits(layer):
                rx = graph.rows[x]
                b = (rx & above).bit_count()
                c = (rx & below).bit_count()
                if i < d:
                    if bs[i] is None:
                        bs[i] = b
                    elif bs[i] != b:
                        return DistanceRegularResult(
                            None, f"b_{i} not constant", (s, x, bs[i], b)
                        )
                elif b:
                    raise AssertionError("vertex beyond eccentricity")
                if i >= 1:
                    if cs[i - 1] is None:
                        cs[i - 1] = c
                    elif cs[i - 1] != c:
                        return DistanceRegularResult(
                            None, f"c_{i} not constant", (s, x, cs[i - 1], c)
                        )
    return DistanceRegularResult(IntersectionArray(tuple(bs), tuple(cs)))


def _common_neighborhood_pass(graph: DenseGraph) -> tuple[tuple[tuple[int, int], int], ...]:
    """Multiset over edges u < v of (|N(u) & N(v)|, e(G[N(u) & N(v)])), as
    sorted ((count, edges), multiplicity) pairs.

    One small matrix product per vertex u: B is the float32 adjacency of
    G[N(u)], so row v of B is the indicator of N(u) & N(v) inside N(u).  Its
    row sum is |N(u) & N(v)|, and diag(B^3) at v, the row sum of
    (B @ B) * B at v, sees every edge of G[N(u) & N(v)] twice.  The product
    is exact: every entry and every partial sum of B @ B is an integer at
    most k < MAX_ORDER < 2^24, which float32 represents exactly in any
    summation order.  The elementwise product is cast to int64 before its row
    sum, so that sum needs no bound.
    """
    A = graph.adjacency()
    counts: Counter[tuple[int, int]] = Counter()
    for u in range(graph.n):
        nbrs = np.flatnonzero(A[u])
        B = A[nbrs][:, nbrs].astype(np.float32)
        upper = B[nbrs > u]
        common = upper.sum(axis=1, dtype=np.int64)
        twice = ((upper @ B) * upper).sum(axis=1, dtype=np.int64)
        if (twice & 1).any():
            raise SelfCheckError(f"odd diag(B^3) in the neighbourhood of vertex {u}")
        counts.update(zip(common.tolist(), (twice // 2).tolist()))
    return tuple(sorted(counts.items()))


def invariant_counts(graph: DenseGraph) -> tuple[int, int, tuple[int, ...]]:
    """(triangle count, 4-clique count, sorted degree multiset), all exact."""
    tri3 = quad6 = 0  # every triangle is seen from 3 edges, every 4-clique from 6
    for (common, inside), mult in graph._memo(_common_neighborhood_pass):
        tri3 += common * mult
        quad6 += inside * mult
    if tri3 % 3 or quad6 % 6:
        raise SelfCheckError(f"edge-wise sums {tri3} and {quad6} are not multiples of 3 and 6")
    return tri3 // 3, quad6 // 6, tuple(sorted(graph.degrees()))


def edge_neighborhood_edge_profile(graph: DenseGraph) -> tuple[tuple[int, int], ...]:
    """Multiset over adjacent pairs {u,v} of the edge count inside the common
    neighborhood G[N(u) & N(v)], as sorted (value, multiplicity) pairs.

    Isomorphism-invariant and strictly finer than the 4-clique count (whose
    value is one sixth of the weighted sum); separates same-parameter
    strongly regular graphs that agree on every counting and rank invariant.
    """
    counts: Counter[int] = Counter()
    for (_common, inside), mult in graph._memo(_common_neighborhood_pass):
        counts[inside] += mult
    return tuple(sorted(counts.items()))


_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1


def mod_p_rank(graph: DenseGraph, p: int, shift: int = 0) -> int:
    """Rank of (A + shift*I) over Z_p: an XOR basis of the bit rows for p = 2,
    lazily reduced Gaussian elimination in machine integers for odd p."""
    from .fields import is_prime

    if p > 2 and (p - 1) ** 2 + p > _INT64_MAX:
        raise ValueError(f"p = {p} is too large for exact elimination in int64")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return _gf2_rank(r ^ ((shift % 2) << u) for u, r in enumerate(graph.rows))
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


def to_graph6(graph: DenseGraph) -> str:
    """Standard graph6 line (without trailing newline)."""
    n = graph.n
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(
            chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0)
        )
    bits = []
    for j in range(1, n):
        col = graph.rows[j]
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
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"graph6 vertex count {n} outside budget 1..{MAX_ORDER}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 byte {ch!r}")
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return DenseGraph(rows, n)


def to_edge_list(graph: DenseGraph) -> str:
    return "\n".join(f"{u} {v}" for u, v in graph.edges()) + "\n"


def from_edge_list(text: str, n: Optional[int] = None) -> DenseGraph:
    """Parse "u v" lines; n defaults to max vertex + 1."""
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        top = max(top, u, v)
    if n is None:
        n = top + 1
    if n < 1:
        raise ValueError("edge list defines no vertices")
    return DenseGraph.from_edges(n, edges)
