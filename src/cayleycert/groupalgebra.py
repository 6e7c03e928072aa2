"""Subset products in Z[G] and exact partial-difference-set / Schur-ring
identity checks.

Every identity checked here is a product of subsets of G.  A subset is an
index array into the group enumeration, and the product X*Y is the int64
coefficient vector counting, for each w, the pairs (x, y) in X x Y with
x + y = w: the sum over x in X of the multiplicity of w - x in Y, read off
the translates of Y's multiplicities (AbelianGroup.translates), an exact
integer count with no transforms and no floating point.

For a connection set S (identity-free) and N = G minus (S u {e}), every
product of two of e, S and N is a fixed integer combination of e, S, G and
S^2 (Ma, "A survey of partial difference sets", Des. Codes Cryptogr. 4
(1994)), since X*G = |X| G for every subset X and e + S + N = G:

    S*e = e*S = S
    S*N = N*S = |S| G - S - S^2
    N*N = (|G| - 2 - 2|S|) G + e + 2S + S^2

So the SRG-equation, mixed-product and Schur-closure checks all read one
S^2, computed once per ConnectionSet (square); verify_pds counts its own
D * D^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import ConnectionSet, complement_connection_set
from .graphs import ROW_BLOCK, check_order_budget
from .groups import AbelianGroup


def ga_mul(group: AbelianGroup, x, y) -> np.ndarray:
    """X*Y for index arrays x, y: coefficient of w = #{(i, j) : g_i + g_j = w}.

    That is the sum over i in x of the multiplicity in y of w - g_i: the
    rows at x of the translates of y's multiplicities, gathered ROW_BLOCK at
    a time and summed into int64.  Repeated entries count once per repeat.
    Multiplicities all at most 255 (a set's) are uint8 and a block sums in
    int32, exact as ROW_BLOCK * 255 < 2^31; others are int32 and sum in
    int64.  A count is at most |X|*|Y|, so int64 is exact.  The order budget
    is checked before any vector of the group's order is allocated.
    """
    check_order_budget("group", group.order)
    mult = np.bincount(np.asarray(y, dtype=np.intp), minlength=group.order)
    small = mult.max(initial=0) <= 255
    t = group.translates(mult.astype(np.uint8 if small else np.int32))
    x = np.asarray(x, dtype=np.intp)
    out = np.zeros(group.factors, dtype=np.int64)
    for start in range(0, len(x), ROW_BLOCK):
        rows = t[np.unravel_index(x[start : start + ROW_BLOCK], group.factors)]
        out += rows.sum(axis=0, dtype=np.int32 if small else np.int64)
    return out.reshape(group.order)


# --- identity checks --------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact identity check; witness pins the first violation."""

    ok: bool
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def _compare(group: AbelianGroup, actual: np.ndarray, expected: np.ndarray) -> CheckResult:
    """actual == expected, with the first differing element as the witness."""
    diff = np.nonzero(actual != expected)[0]
    if diff.size == 0:
        return CheckResult(ok=True)
    i = int(diff[0])
    return CheckResult(
        ok=False,
        witness={
            "element": list(group.element_of(i)),
            "actual": int(actual[i]),
            "expected": int(expected[i]),
        },
    )


def verify_pds(group: AbelianGroup, D, lam: int, mu: int) -> CheckResult:
    """Is the index array D a (|G|, |D|, lam, mu) partial difference set?

    Counts representations g = d1 - d2 with d1, d2 in D as the product
    D * D^(-1); the coefficient at each nonidentity g must be lam (g in D)
    or mu (g not in D), and |D| at the identity (index 0).
    """
    d = np.asarray(D, dtype=np.int64)
    if d.ndim != 1 or ((d < 0) | (d >= group.order)).any() or np.unique(d).size != d.size:
        raise ValueError(f"D must be distinct element indices in [0, {group.order})")
    actual = ga_mul(group, d, group.neg_table[d])
    expected = np.full(group.order, mu, dtype=np.int64)
    expected[d] = lam
    expected[0] = d.size
    return _compare(group, actual, expected)


def square(conn: ConnectionSet) -> np.ndarray:
    """S*S, read-only, computed once per ConnectionSet instance and kept in
    its __dict__, as cached_property keeps a value."""
    if "square" not in conn.__dict__:
        conn.__dict__["square"] = ga_mul(conn.group, conn.members, conn.members)
        conn.__dict__["square"].setflags(write=False)
    return conn.__dict__["square"]


def verify_srg_equation(conn: ConnectionSet, params: tuple[int, int, int, int]) -> CheckResult:
    """Exact check of S^2 = mu*G + (lam-mu)*S + (k-mu)*e in Z[G]."""
    group = conn.group
    n, k, lam, mu = params
    if n != group.order or k != conn.size:
        raise ValueError(
            f"params {params} disagree with |G|={group.order}, |S|={conn.size}"
        )
    actual = square(conn)
    expected = np.full(n, mu, dtype=np.int64)
    expected[conn.indices()] = lam
    expected[0] += k - mu
    return _compare(group, actual, expected)


def verify_mixed_product(conn: ConnectionSet, t: int) -> CheckResult:
    """Exact check of S * (G minus (S u {e})) = t * (G minus {e}) in Z[G],
    the left side read off S^2 as |S| G - S - S^2."""
    group = conn.group
    if group.order != 4 * t + 1 or conn.size != 2 * t:
        raise ValueError(
            f"mixed product needs |G| = 4t+1 and |S| = 2t; "
            f"got |G|={group.order}, |S|={conn.size}, t={t}"
        )
    actual = conn.size - square(conn)
    actual[conn.indices()] -= 1
    expected = np.full(group.order, t, dtype=np.int64)
    expected[0] = 0
    return _compare(group, actual, expected)


def verify_schur_partition(conn: ConnectionSet) -> CheckResult:
    """Closure of span{e, S, N} under multiplication, N = G minus (S u {e}).

    The three parts are disjoint and cover G, so a product lies in their
    integer span iff it is constant on each part.  Each product is an integer
    combination of e, S, G and S^2, so the span is closed iff S^2 is constant
    on each part.  The products before S*S in the order e*e, e*S, e*N, S*e,
    S*S, ... are e and S, so a non-constant S^2 is the first failure, and the
    witness names it and its first non-constant part (never e, one element).
    """
    sq = square(conn)
    for part, idx in (("S", conn.indices()), ("N", complement_connection_set(conn).indices())):
        vals = sq[idx]
        bad = np.flatnonzero(vals != vals[:1])
        if bad.size:
            where = idx[bad[0]]
            return CheckResult(
                ok=False,
                witness={
                    "product": "S*S",
                    "part": part,
                    "first_value": int(vals[0]),
                    "other_value": int(sq[where]),
                    "at_element": list(conn.group.element_of(where)),
                },
            )
    return CheckResult(ok=True)
