"""Subset products in Z[G] and exact partial-difference-set / Schur-ring
identity checks.

Every identity checked here is a product of subsets of G.  A subset is an
index array into the group enumeration, and the product X*Y is the int64
coefficient vector counting, for each w, the pairs (x, y) in X x Y with
x + y = w: the sum over x in X of the multiplicity of w - x in Y, read off
the translates of Y's multiplicities (AbelianGroup.translates), an exact
integer count with no transforms and no floating point.
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
    rows at x of the translates of y's int32 multiplicities, gathered
    ROW_BLOCK at a time and summed in int64.  Repeated entries count once per
    repeat.  A count is at most |X|*|Y|, so int64 is exact.  The order budget
    is checked before any vector of the group's order is allocated.
    """
    check_order_budget("group", group.order)
    mult = np.bincount(np.asarray(y, dtype=np.intp), minlength=group.order).astype(np.int32)
    t = group.translates(mult)
    x = np.asarray(x, dtype=np.intp)
    out = np.zeros(group.factors, dtype=np.int64)
    for start in range(0, len(x), ROW_BLOCK):
        rows = t[np.unravel_index(x[start : start + ROW_BLOCK], group.factors)]
        out += rows.sum(axis=0, dtype=np.int64)
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


def verify_srg_equation(
    group: AbelianGroup, conn: ConnectionSet, params: tuple[int, int, int, int]
) -> CheckResult:
    """Exact check of S^2 = mu*G + (lam-mu)*S + (k-mu)*e in Z[G]."""
    n, k, lam, mu = params
    if n != group.order or k != conn.size:
        raise ValueError(
            f"params {params} disagree with |G|={group.order}, |S|={conn.size}"
        )
    s = conn.indices()
    actual = ga_mul(group, s, s)
    expected = np.full(n, mu, dtype=np.int64)
    expected[s] = lam
    expected[0] += k - mu
    return _compare(group, actual, expected)


def verify_mixed_product(
    group: AbelianGroup, conn: ConnectionSet, t: int
) -> CheckResult:
    """Exact check of S * (G minus (S u {e})) = t * (G minus {e}) in Z[G]."""
    if group.order != 4 * t + 1 or conn.size != 2 * t:
        raise ValueError(
            f"mixed product needs |G| = 4t+1 and |S| = 2t; "
            f"got |G|={group.order}, |S|={conn.size}, t={t}"
        )
    actual = ga_mul(group, conn.indices(), complement_connection_set(conn).indices())
    expected = np.full(group.order, t, dtype=np.int64)
    expected[0] = 0
    return _compare(group, actual, expected)


def verify_schur_partition(group: AbelianGroup, conn: ConnectionSet) -> CheckResult:
    """Closure of span{e, S, N} under multiplication, N = G minus (S u {e}).

    The three parts are disjoint and cover G, so a product lies in their
    integer span iff it is constant on each part; the first non-constant
    product is returned as the witness.
    """
    parts = {"e": [0], "S": conn.indices(), "N": complement_connection_set(conn).indices()}
    parts = {name: np.array(idx, dtype=np.int64) for name, idx in parts.items() if idx}
    for name_x, x in parts.items():
        for name_y, y in parts.items():
            prod = ga_mul(group, x, y)
            for part_name, idx in parts.items():
                vals = prod[idx]
                if not (vals == vals[0]).all():
                    where = idx[np.nonzero(vals != vals[0])[0][0]]
                    return CheckResult(
                        ok=False,
                        witness={
                            "product": f"{name_x}*{name_y}",
                            "part": part_name,
                            "first_value": int(vals[0]),
                            "other_value": int(prod[where]),
                            "at_element": list(group.element_of(int(where))),
                        },
                    )
    return CheckResult(ok=True)
