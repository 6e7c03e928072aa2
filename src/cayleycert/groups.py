"""Finite abelian groups presented as products of cyclic factors.

Elements are residue tuples; vertex numbering everywhere in the toolkit is
the mixed-radix enumeration order fixed here.  Groups are additive: the
difference convention a - b replaces the multiplicative a*b^-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from .graphs import check_order_budget, is_permutation

GroupElement = tuple[int, ...]

#: Enumeration limits for enumerate_automorphisms.
AUT_MAX_ORDER = 2**16
AUT_MAX_CANDIDATES = 10**8
#: Candidates tested per automorphism batch; a scan that stops early has
#: paid for its own batch only.
AUT_BATCH_SIZE = 1024


class AutEnumerationError(RuntimeError):
    """Automorphism enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class AbelianGroup:
    """Z_{n1} x ... x Z_{nk} with the factor order given (never canonicalized)."""

    factors: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(n) for n in factors)
        if not factors or any(n < 2 for n in factors):
            raise ValueError(f"factors must all be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_cache", {})

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self.factors)

    # --- element arithmetic -------------------------------------------------

    def _check(self, g: GroupElement) -> None:
        if len(g) != len(self.factors):
            raise ValueError(f"element arity {len(g)} does not match group {self}")

    def contains(self, g: GroupElement) -> bool:
        return len(g) == len(self.factors) and all(
            0 <= r < n for r, n in zip(g, self.factors)
        )

    def reduce(self, g: Sequence[int]) -> GroupElement:
        self._check(tuple(g))
        return tuple(r % n for r, n in zip(g, self.factors))

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check(g)
        self._check(h)
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def neg(self, g: GroupElement) -> GroupElement:
        self._check(g)
        return tuple((-a) % n for a, n in zip(g, self.factors))

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check(g)
        self._check(h)
        return tuple((a - b) % n for a, b, n in zip(g, h, self.factors))

    def scalar_mul(self, m: int, g: GroupElement) -> GroupElement:
        self._check(g)
        return tuple((m * a) % n for a, n in zip(g, self.factors))

    def element_order(self, g: GroupElement) -> int:
        """Least m >= 1 with m*g = identity."""
        self._check(g)
        return lcm(*(n // gcd(n, r) for r, n in zip(g, self.factors)))

    def cyclic_subgroup(self, g: GroupElement) -> frozenset[GroupElement]:
        """The set {0*g, 1*g, ..., (ord(g)-1)*g}."""
        return frozenset(self.scalar_mul(m, g) for m in range(self.element_order(g)))

    # --- enumeration: element <-> index -------------------------------------

    def index_of(self, g: GroupElement) -> int:
        self._check(g)
        idx = 0
        for r, n in zip(g, self.factors):
            if not 0 <= r < n:
                raise ValueError(f"{tuple(g)} is not a reduced element of {self}")
            idx = idx * n + r
        return idx

    def element_of(self, idx: int) -> GroupElement:
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for group of order {self.order}")
        digits = []
        for n in reversed(self.factors):
            idx, r = divmod(idx, n)
            digits.append(r)
        return tuple(reversed(digits))

    def elements(self) -> list[GroupElement]:
        """All elements in mixed-radix enumeration order (index 0, 1, ...)."""
        return [self.element_of(i) for i in range(self.order)]

    # --- cached dense tables (numpy plumbing for the hot modules) -----------

    @property
    def residue_matrix(self) -> np.ndarray:
        """(order x rank) int64 array; row i = residues of the element with index i."""
        mat = self._cache.get("residues")
        if mat is None:
            mat = np.zeros((self.order, self.rank), dtype=np.int64)
            idx = np.arange(self.order)
            for pos in range(self.rank - 1, -1, -1):
                n = self.factors[pos]
                mat[:, pos] = idx % n
                idx = idx // n
            mat.setflags(write=False)
            self._cache["residues"] = mat
        return mat

    @property
    def index_weights(self) -> np.ndarray:
        """Mixed-radix weights w with index = residues . w."""
        w = self._cache.get("weights")
        if w is None:
            w = np.ones(self.rank, dtype=np.int64)
            for pos in range(self.rank - 2, -1, -1):
                w[pos] = w[pos + 1] * self.factors[pos + 1]
            w.setflags(write=False)
            self._cache["weights"] = w
        return w

    @property
    def add_table(self) -> np.ndarray:
        """Dense index addition table T[i, j] = index_of(g_i + g_j)."""
        tab = self._cache.get("add_table")
        if tab is None:
            check_order_budget("group", self.order)
            # One coordinate at a time: T = sum over positions of
            # ((r_i + r_j) mod n_pos) * w_pos; every partial sum is an index.
            tab = np.zeros((self.order, self.order), dtype=np.int32)
            for pos, (n, w) in enumerate(zip(self.factors, self.index_weights.tolist())):
                r = self.residue_matrix[:, pos].astype(np.int32)
                summed = r[:, None] + r[None, :]
                summed[summed >= n] -= n
                summed *= w
                tab += summed
            tab.setflags(write=False)
            self._cache["add_table"] = tab
        return tab

    @property
    def neg_table(self) -> np.ndarray:
        """Index negation table N[i] = index_of(-g_i)."""
        tab = self._cache.get("neg_table")
        if tab is None:
            res = self.residue_matrix
            factors = np.array(self.factors, dtype=np.int64)
            tab = (((-res) % factors) @ self.index_weights).astype(np.int32)
            tab.setflags(write=False)
            self._cache["neg_table"] = tab
        return tab

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)


def parse_group_spec(spec: str) -> AbelianGroup:
    """Parse CLI group descriptions like "Z9xZ9" or "z5" (case-insensitive)."""
    s = spec.strip().replace(" ", "")
    if not s:
        raise ValueError("empty group spec")
    factors = []
    for part in s.lower().split("x"):
        m = re.fullmatch(r"z(\d+)", part)
        if not m:
            raise ValueError(f"unrecognized group spec {spec!r} (expected e.g. Z9xZ9)")
        factors.append(int(m.group(1)))
    return AbelianGroup(factors)


# --- automorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class GroupAutomorphism:
    """An automorphism given by the images of the canonical generators e_i."""

    group: AbelianGroup
    generator_images: tuple[GroupElement, ...]

    def apply(self, g: GroupElement) -> GroupElement:
        """sigma(g) = sum_i r_i * generator_images[i]."""
        self.group._check(g)
        out = self.group.identity
        for r, img in zip(g, self.generator_images):
            out = self.group.add(out, self.group.scalar_mul(r, img))
        return out

    def as_permutation(self) -> np.ndarray:
        """The induced permutation on element indices."""
        G = self.group
        res = G.residue_matrix
        mat = np.array([img for img in self.generator_images], dtype=np.int64)
        factors = np.array(G.factors, dtype=np.int64)
        return ((res @ mat) % factors) @ G.index_weights


def make_automorphism(
    G: AbelianGroup, images: Sequence[GroupElement]
) -> GroupAutomorphism:
    """Validate generator images (homomorphism condition + bijectivity)."""
    images = tuple(tuple(img) for img in images)
    if len(images) != G.rank:
        raise ValueError(f"need {G.rank} generator images, got {len(images)}")
    for i, img in enumerate(images):
        if not G.contains(img):
            raise ValueError(f"image {img} does not belong to {G}")
        if G.factors[i] % G.element_order(img) != 0:
            raise ValueError(
                f"order of image {img} does not divide factor modulus {G.factors[i]}"
            )
    sigma = GroupAutomorphism(G, images)
    perm = sigma.as_permutation()
    if not is_permutation(perm):
        raise ValueError(f"generator images {images} do not induce a bijection")
    return sigma


def _element_orders(G: AbelianGroup) -> np.ndarray:
    """Order of every element, by index."""
    factors = np.array(G.factors, dtype=np.int64)
    return np.lcm.reduce(factors // np.gcd(G.residue_matrix, factors), axis=1)


def _prime_order_representatives(G: AbelianGroup, orders: np.ndarray) -> np.ndarray:
    """Residues of one generator of each subgroup of prime order, as rows.

    An element x of prime order p has coordinates c_j n_j / p with c_j in
    [0, p), and its nonzero multiples scale c by 1, ..., p - 1, so exactly one
    generator of <x> has its first nonzero c_j equal to 1.  The element orders
    above 1 that no smaller one divides are the primes dividing |G|, since
    each of those primes is an element order (Cauchy).
    """
    values = np.unique(orders[orders > 1])
    primes = [m for m in values if not (m % values[values < m] == 0).any()]
    res = G.residue_matrix
    first = (res != 0).argmax(axis=1)
    lead = res[np.arange(G.order), first]
    factors = np.array(G.factors, dtype=np.int64)
    return res[np.isin(orders, primes) & (lead * orders == factors[first])]


def _automorphism_batches(
    G: AbelianGroup, batch_size: int = AUT_BATCH_SIZE
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (image_index_tuples, image_residues) for the automorphisms of G.

    Candidates run in mixed-radix order over generator-image index tuples,
    batch_size at a time; a batch yields its bijective candidates in order,
    with image_residues[b, i] the residues of the image of e_i.  A candidate
    is a homomorphism, so it is bijective iff its kernel is trivial, and a
    nontrivial kernel contains a whole subgroup of prime order: the test maps
    one generator of each such subgroup and rejects the candidate if any
    lands on 0.
    """
    if G.order > AUT_MAX_ORDER:
        raise AutEnumerationError(
            f"enumeration infeasible: order {G.order} exceeds {AUT_MAX_ORDER}"
        )
    orders = _element_orders(G)
    # Per generator position, the elements whose order divides the modulus.
    allowed = [np.nonzero(n % orders == 0)[0] for n in G.factors]
    total = prod(len(a) for a in allowed)
    if total > AUT_MAX_CANDIDATES:
        raise AutEnumerationError(
            f"enumeration infeasible: {total} candidate image tuples exceed "
            f"{AUT_MAX_CANDIDATES}"
        )
    k = G.rank
    res = G.residue_matrix
    reps = _prime_order_representatives(G, orders)

    sizes = [len(a) for a in allowed]
    radix = np.ones(k, dtype=np.int64)
    for pos in range(k - 2, -1, -1):
        radix[pos] = radix[pos + 1] * sizes[pos + 1]

    for start in range(0, total, batch_size):
        stop = min(start + batch_size, total)
        flat = np.arange(start, stop, dtype=np.int64)
        # Decode flat candidate ids into per-position allowed-image indices.
        img_idx = np.empty((stop - start, k), dtype=np.int64)
        rem = flat
        for pos in range(k):
            digit, rem = np.divmod(rem, radix[pos])
            img_idx[:, pos] = allowed[pos][digit]
        mats = res[img_idx]  # (B, k, k): row i = residues of image of e_i
        in_kernel = np.ones((stop - start, len(reps)), dtype=bool)
        for j, n in enumerate(G.factors):
            in_kernel &= mats[:, :, j] @ reps.T % n == 0  # coordinate j of sigma(rep)
        ok = ~in_kernel.any(axis=1)
        if ok.any():
            yield img_idx[ok], mats[ok]


def enumerate_automorphisms(
    G: AbelianGroup, batch_size: int = AUT_BATCH_SIZE
) -> Iterator[GroupAutomorphism]:
    """Every automorphism of G exactly once, in deterministic candidate order."""
    elems = G.elements()
    for img_idx, _mats in _automorphism_batches(G, batch_size):
        for row in img_idx:
            yield GroupAutomorphism(G, tuple(elems[i] for i in row))


def count_automorphisms(G: AbelianGroup) -> int:
    return sum(len(img_idx) for img_idx, _ in _automorphism_batches(G))
