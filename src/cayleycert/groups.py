"""Finite abelian groups presented as products of cyclic factors.

Vertex numbering everywhere in the toolkit is the mixed-radix enumeration
order fixed here, and a group's arithmetic is its read-only index tables
(residues, negation and element orders) and its translation action: the
view translates(v) of a vector v over G, t[i, j] = v[g_j - g_i], behind both
Cayley adjacency and subset products.  An element is its index and a subset
an index array; residue tuples appear only at the text/JSON boundary
(contains, index_of, element_of, residue_matrix rows).  Groups are additive:
the difference convention a - b replaces the multiplicative a*b^-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graphs import check_order_budget, is_permutation

GroupElement = tuple[int, ...]

#: Enumeration limit for _automorphism_batches.
AUT_MAX_CANDIDATES = 10**8
#: Candidates tested per automorphism batch; a scan that stops early has
#: paid for its own batch only.
AUT_BATCH_SIZE = 1024


class AutEnumerationError(RuntimeError):
    """Automorphism enumeration would exceed the configured budget."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AbelianGroup:
    """Z_{n1} x ... x Z_{nk} with the factor order given (never canonicalized)."""

    factors: tuple[int, ...]

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(n) for n in factors)
        if not factors or any(n < 2 for n in factors):
            raise ValueError(f"factors must all be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self.factors)

    # --- codec: residue tuple <-> index -------------------------------------

    def contains(self, g: GroupElement) -> bool:
        return len(g) == len(self.factors) and all(
            0 <= r < n for r, n in zip(g, self.factors)
        )

    def index_of(self, g: GroupElement) -> int:
        if not self.contains(g):
            raise ValueError(f"{tuple(g)} is not a reduced element of {self}")
        idx = 0
        for r, n in zip(g, self.factors):
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

    # --- read-only index tables, built on first use -------------------------

    @cached_property
    def residue_matrix(self) -> np.ndarray:
        """(order x rank) int64 array; row i = residues of the element with
        index i.  Every other table derives from it, so the order budget
        checked here guards them all."""
        check_order_budget("group", self.order)
        residues = np.unravel_index(np.arange(self.order, dtype=np.int64), self.factors)
        return _read_only(np.stack(residues, axis=1).astype(np.int64, copy=False))

    @cached_property
    def index_weights(self) -> np.ndarray:
        """Mixed-radix weights w with index = residues . w."""
        w = np.ones(self.rank, dtype=np.int64)
        for pos in range(self.rank - 2, -1, -1):
            w[pos] = w[pos + 1] * self.factors[pos + 1]
        return _read_only(w)

    @cached_property
    def neg_table(self) -> np.ndarray:
        """Index negation table N[i] = index_of(-g_i)."""
        factors = np.array(self.factors, dtype=np.int64)
        tab = ((-self.residue_matrix % factors) @ self.index_weights).astype(np.int32)
        return _read_only(tab)

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Order of every element, by index."""
        factors = np.array(self.factors, dtype=np.int64)
        return _read_only(np.lcm.reduce(factors // np.gcd(self.residue_matrix, factors), axis=1))

    def translates(self, v: np.ndarray) -> np.ndarray:
        """Read-only view t of a vector v over G with t[i, j] = v[g_j - g_i],
        shaped factors + factors: one axis per factor for i, then for j.

        No index table and no n x n copy: v, shaped as the factors, is
        wrap-padded by n_p - 1 in front of each axis (prod(2 n_p - 1) entries
        in all), and its window of length n_p starting at n_p - 1 - i_p holds
        v at the residues j_p - i_p mod n_p for j_p = 0, ..., n_p - 1.
        """
        padded = np.pad(np.reshape(v, self.factors), [(n - 1, 0) for n in self.factors], mode="wrap")
        return sliding_window_view(padded, self.factors)[(slice(None, None, -1),) * self.rank]

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

    def as_permutation(self) -> np.ndarray:
        """The induced permutation on element indices."""
        G = self.group
        res = G.residue_matrix
        mat = np.array(self.generator_images, dtype=np.int64)
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
        if G.factors[i] % G.element_orders[G.index_of(img)] != 0:
            raise ValueError(
                f"order of image {img} does not divide factor modulus {G.factors[i]}"
            )
    sigma = GroupAutomorphism(G, images)
    perm = sigma.as_permutation()
    if not is_permutation(perm):
        raise ValueError(f"generator images {images} do not induce a bijection")
    return sigma


def _prime_order_representatives(G: AbelianGroup) -> np.ndarray:
    """Residues of one generator of each subgroup of prime order, as rows.

    An element x of prime order p has coordinates c_j n_j / p with c_j in
    [0, p), and its nonzero multiples scale c by 1, ..., p - 1, so exactly one
    generator of <x> has its first nonzero c_j equal to 1.  The element orders
    above 1 that no smaller one divides are the primes dividing |G|, since
    each of those primes is an element order (Cauchy).
    """
    orders = G.element_orders
    values = np.unique(orders[orders > 1])
    primes = [m for m in values if not (m % values[values < m] == 0).any()]
    res = G.residue_matrix
    first = (res != 0).argmax(axis=1)
    lead = res[np.arange(G.order), first]
    factors = np.array(G.factors, dtype=np.int64)
    return res[np.isin(orders, primes) & (lead * orders == factors[first])]


def _automorphism_batches(G: AbelianGroup) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (image_index_tuples, image_residues) for the automorphisms of G.

    Candidates run in mixed-radix order over generator-image index tuples,
    AUT_BATCH_SIZE at a time; a batch yields its bijective candidates in order,
    with image_residues[b, i] the residues of the image of e_i.  A candidate
    is a homomorphism, so it is bijective iff its kernel is trivial, and a
    nontrivial kernel contains a whole subgroup of prime order: the test maps
    one generator of each such subgroup and rejects the candidate if any
    lands on 0.
    """
    orders = G.element_orders
    # Per generator position, the elements whose order divides the modulus.
    allowed = [np.nonzero(n % orders == 0)[0] for n in G.factors]
    total = prod(len(a) for a in allowed)
    if total > AUT_MAX_CANDIDATES:
        raise AutEnumerationError(
            f"enumeration infeasible: {total} candidate image tuples exceed "
            f"{AUT_MAX_CANDIDATES}"
        )
    res = G.residue_matrix
    reps = _prime_order_representatives(G)
    for start in range(0, total, AUT_BATCH_SIZE):
        stop = min(start + AUT_BATCH_SIZE, total)
        # Decode flat candidate ids into per-position allowed-image indices.
        digits = np.unravel_index(np.arange(start, stop, dtype=np.int64), [len(a) for a in allowed])
        img_idx = np.stack([a[d] for a, d in zip(allowed, digits)], axis=1)
        mats = res[img_idx]  # (B, k, k): row i = residues of image of e_i
        in_kernel = np.ones((stop - start, len(reps)), dtype=bool)
        for j, n in enumerate(G.factors):
            in_kernel &= mats[:, :, j] @ reps.T % n == 0  # coordinate j of sigma(rep)
        ok = ~in_kernel.any(axis=1)
        if ok.any():
            yield img_idx[ok], mats[ok]

