"""The benchmark's own computations: the inputs it writes (group
automorphisms, graph6 text) and the checks of the program's answers.

Nothing here imports cayleycert.  Groups are products of cyclic factors with
elements as residue tuples, numbered in mixed-radix order (last factor
fastest), which is the vertex numbering cayleycert documents.  Counts come
from numpy (FFT convolution over the group, dense matrix products) and from
exact integer formulas; no check compares against stored earlier output.
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from typing import Iterable, Optional, Sequence

import numpy as np


class CheckFailure(AssertionError):
    """An output of the program disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- groups and Cayley graphs -------------------------------------------------


def residues(factors: Sequence[int]) -> np.ndarray:
    """(n, r) residue rows in mixed-radix order, last factor fastest."""
    grids = np.meshgrid(*[np.arange(m) for m in factors], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def indices(factors: Sequence[int], elements: Iterable[Sequence[int]]) -> np.ndarray:
    rows = np.asarray(list(elements), dtype=np.int64).reshape(-1, len(factors))
    return np.ravel_multi_index(tuple(rows.T), tuple(factors)).astype(np.int64)


def indicator(factors: Sequence[int], elements: Iterable[Sequence[int]]) -> np.ndarray:
    ind = np.zeros(prod(factors), dtype=bool)
    ind[indices(factors, elements)] = True
    return ind


def common_neighbour_counts(factors: Sequence[int], ind: np.ndarray) -> np.ndarray:
    """c[g] = |S n (g + S)|, the common neighbours of 0 and g when S = -S.

    The convolution 1_S * 1_S is taken by FFT over the group; its values are
    at most |S|, so rounding the float result is exact.
    """
    x = ind.reshape(tuple(factors)).astype(np.float64)
    f = np.fft.fftn(x)
    conv = np.fft.ifftn(f * f).real
    return np.rint(conv).astype(np.int64).ravel()


def cayley_srg_params(factors: Sequence[int], ind: np.ndarray) -> Optional[tuple]:
    """(n, k, lambda, mu) when Cay(G, S) is strongly regular, else None."""
    c = common_neighbour_counts(factors, ind)
    n, k = ind.size, int(ind.sum())
    rest = ~ind
    rest[0] = False
    lam, mu = np.unique(c[ind]), np.unique(c[rest])
    if len(lam) != 1 or len(mu) != 1 or mu[0] == 0:
        return None
    return (n, k, int(lam[0]), int(mu[0]))


def cayley_adjacency(factors: Sequence[int], ind: np.ndarray) -> np.ndarray:
    """A[i, j] = 1 iff g_i - g_j lies in S."""
    res = residues(factors)
    diff = np.zeros((len(res), len(res)), dtype=np.int64)
    for pos, m in enumerate(factors):
        col = res[:, pos]
        diff = diff * m + (col[:, None] - col[None, :]) % m
    return ind[diff].astype(np.uint8)


def complement_adjacency(A: np.ndarray) -> np.ndarray:
    out = (1 - A).astype(np.uint8)
    np.fill_diagonal(out, 0)
    return out


def conference(n: int) -> tuple[int, int, int, int]:
    """The Paley-type (conference) parameters (4t+1, 2t, t-1, t)."""
    expect((n - 1) % 4 == 0, f"n = {n} is not 1 mod 4")
    t = (n - 1) // 4
    return (4 * t + 1, 2 * t, t - 1, t)


def square_identity_holds(A: np.ndarray, params: Sequence[int]) -> bool:
    """A^2 = k I + lambda A + mu (J - I - A), recounted by a matrix product."""
    n, k, lam, mu = params
    F = A.astype(np.float64)
    sq = F @ F
    want = lam * F + mu * (1.0 - np.eye(n) - F) + k * np.eye(n)
    return bool(np.array_equal(sq, want))


def triangles(A: np.ndarray) -> int:
    """trace(A^3) / 6."""
    F = A.astype(np.float64)
    return int(round(float(((F @ F) * F).sum()))) // 6


# --- certificates -------------------------------------------------------------


def check_complementing_permutation(A: np.ndarray, perm: Sequence[int]) -> None:
    """perm carries the graph onto its complement: A[u, v] = Ac[perm u, perm v]."""
    p = np.asarray(perm, dtype=np.int64)
    n = A.shape[0]
    expect(p.shape == (n,), f"permutation has length {p.size}, expected {n}")
    expect(
        bool((p >= 0).all() and (p < n).all()) and len(np.unique(p)) == n,
        "certificate is not a permutation of the vertices",
    )
    Ac = complement_adjacency(A)
    expect(
        bool(np.array_equal(Ac[np.ix_(p, p)], A)),
        "permutation does not map the graph onto its complement",
    )


def apply_generator_images(factors: Sequence[int], images: Sequence[Sequence[int]]) -> np.ndarray:
    """Index permutation of x -> sum_i x_i * images[i] (mod the factors)."""
    res = residues(factors)
    mat = np.asarray(images, dtype=np.int64)
    mapped = (res @ mat) % np.asarray(factors, dtype=np.int64)
    return np.ravel_multi_index(tuple(mapped.T), tuple(factors)).astype(np.int64)


def check_group_certificate(
    factors: Sequence[int], ind: np.ndarray, images: Sequence[Sequence[int]], perm: Sequence[int]
) -> None:
    """The generator images give a bijective homomorphism sending S onto the
    complement set N = G minus (S and 0), and induce the reported permutation."""
    sigma = apply_generator_images(factors, images)
    expect(len(np.unique(sigma)) == sigma.size, "generator images do not induce a bijection")
    expect(bool(np.array_equal(sigma, np.asarray(perm))), "permutation is not induced by the generator images")
    rest = ~ind
    rest[0] = False
    image = np.zeros_like(ind)
    image[sigma[ind]] = True
    expect(bool(np.array_equal(image, rest)), "automorphism does not carry S onto its complement")


# --- automorphism counts (Hillar and Rhea, Amer. Math. Monthly 114, 2007) ------------


def _factorize_small(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _aut_order_p_group(p: int, exps: list[int]) -> int:
    """|Aut(Z_{p^e1} x ... x Z_{p^ek})| for e1 <= ... <= ek (Theorem 4.1)."""
    e = sorted(exps)
    k = len(e)
    d = [max(l for l in range(1, k + 1) if e[l - 1] == e[j]) for j in range(k)]
    c = [min(l for l in range(1, k + 1) if e[l - 1] == e[j]) for j in range(k)]
    out = 1
    for j in range(1, k + 1):
        out *= p ** d[j - 1] - p ** (j - 1)
    for j in range(1, k + 1):
        out *= (p ** e[j - 1]) ** (k - d[j - 1])
    for i in range(1, k + 1):
        out *= (p ** (e[i - 1] - 1)) ** (k - c[i - 1] + 1)
    return out


def aut_order(factors: Sequence[int]) -> int:
    """|Aut(Z_{m1} x ... x Z_{mr})| from the primary decomposition."""
    by_prime: dict[int, list[int]] = {}
    for m in factors:
        for p, e in _factorize_small(m).items():
            by_prime.setdefault(p, []).append(e)
    return prod(_aut_order_p_group(p, exps) for p, exps in by_prime.items())


# --- Paley-type order feasibility ----------------------------------------------------


def fourth_root(m: int) -> Optional[int]:
    r = isqrt(isqrt(m))
    return r if r**4 == m else None


def _prime_power(m: int, trial_limit: int = 10**6) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m and d <= trial_limit:
        if m % d == 0:
            while m % d == 0:
                m //= d
            return m == 1
        d += 1
    expect(d * d > m, f"order {m} has no prime factor below {trial_limit}; out of the checker's range")
    return True


def order_feasible(m: int) -> bool:
    """Prime power = 1 mod 4, or n^4 or 9 n^4 with odd n > 1."""
    if _prime_power(m):
        return m % 4 == 1
    for base in (m, m // 9 if m % 9 == 0 else None):
        if base is not None:
            r = fourth_root(base)
            if r is not None and r > 1 and r % 2 == 1:
                return True
    return False


# --- seeded group automorphisms for moving connection sets ------------------------------


def _det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def random_automorphism(factors: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal invertible matrix: one block per run of equal factors,
    which must be pairwise coprime; x -> M x is then an automorphism."""
    blocks: dict[int, list[int]] = {}
    for pos, m in enumerate(factors):
        blocks.setdefault(m, []).append(pos)
    for a in blocks:
        for b in blocks:
            expect(a == b or gcd(a, b) == 1, f"factors {tuple(factors)} are not coprime blocks")
    M = np.zeros((len(factors), len(factors)), dtype=np.int64)
    for m, pos in blocks.items():
        while True:
            B = rng.integers(0, m, size=(len(pos), len(pos)))
            if gcd(_det(B.tolist()) % m, m) == 1:
                break
        M[np.ix_(pos, pos)] = B
    return M


def move_set(factors: Sequence[int], elements: Iterable[Sequence[int]], M: np.ndarray) -> list[tuple]:
    rows = np.asarray(list(elements), dtype=np.int64)
    moved = (rows @ M.T) % np.asarray(factors, dtype=np.int64)
    return sorted(tuple(int(x) for x in row) for row in moved)


# --- graph6 -----------------------------------------------------------------------------


def to_graph6(A: np.ndarray) -> str:
    """Standard graph6: upper triangle column by column, 6 bits per byte."""
    n = A.shape[0]
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    rows, cols = np.tril_indices(n, -1)  # (j, i) with i < j, ordered by j then i
    bits = A[cols, rows].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros((-bits.size) % 6, dtype=np.uint8)])
    vals = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1))
    return header + (vals + 63).astype(np.uint8).tobytes().decode("ascii")


# --- fingerprint fields of vertex-transitive strongly regular graphs -------------------------


def rank_mod_p(A: np.ndarray, p: int, shift: int = 0) -> int:
    """Rank of A + shift*I over GF(p), p < 12, by Gaussian elimination."""
    n = A.shape[0]
    M = (A.astype(np.int16) + shift * np.eye(n, dtype=np.int16)) % p
    rank = 0
    for col in range(n):
        nz = np.nonzero(M[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        M[[rank, piv]] = M[[piv, rank]]
        M[rank, col:] = (M[rank, col:] * pow(int(M[rank, col]), -1, p)) % p
        below = np.nonzero(M[rank + 1 :, col])[0] + rank + 1
        M[below, col:] = (M[below, col:] - M[below, col][:, None] * M[rank, col:]) % p
        rank += 1
        if rank == n:
            break
    return rank


def srg_rank_mod_p(A: np.ndarray, params: Sequence[int], p: int, shift: int) -> int:
    """As rank_mod_p, skipping the elimination when p does not divide
    det(A + shift I) = (k+c)(r+c)^f (s+c)^g, the eigenvalues r, s coming from
    the parameters; the matrix is then invertible mod p."""
    n, k, lam, mu = params
    beta, delta = lam - mu, (lam - mu) ** 2 + 4 * (k - mu)
    root = isqrt(delta)
    if root * root == delta and (beta + root) % 2 == 0:
        eigen = (k, (beta + root) // 2, (beta - root) // 2)
        if all((e + shift) % p for e in eigen):
            return n
    return rank_mod_p(A, p, shift)


def four_cliques_vertex_transitive(A: np.ndarray) -> int:
    """n * (triangles inside N(v)) / 4, for a graph whose vertices are all alike."""
    nbrs = np.nonzero(A[0])[0]
    return A.shape[0] * triangles(A[np.ix_(nbrs, nbrs)]) // 4
