"""Connection sets and Cayley graphs over abelian groups.

Vertices are numbered by the group's mixed-radix enumeration; indices i, j
are adjacent iff g_i - g_j lies in the connection set.  Inverse-closure of
the set makes the relation symmetric.  The adjacency is the translates of
the set's indicator (AbelianGroup.translates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .graphs import DenseGraph, SelfCheckError, check_order_budget
from .groups import AbelianGroup, GroupElement, parse_group_spec


class InvalidConnectionSetError(ValueError):
    """Raised with the full list of violations, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class ConnectionSet:
    """An identity-free, inverse-closed subset of an abelian group."""

    group: AbelianGroup
    elements: frozenset[GroupElement]

    @property
    def size(self) -> int:
        return len(self.elements)

    def indices(self) -> list[int]:
        """Sorted vertex indices of the set elements, a fresh list (a tuple
        would index a numpy array as one multi-axis index)."""
        return list(self._indices)

    @cached_property
    def _indices(self) -> tuple[int, ...]:
        """residues @ index_weights, once per set.  An element that is not a
        reduced residue tuple raises ValueError, as index_of does."""
        G = self.group
        try:
            res = np.array(list(self.elements), dtype=np.int64).reshape(self.size, G.rank)
        except (ValueError, OverflowError):  # ragged, wrong length or out of int64
            res = None
        if res is None or ((res < 0) | (res >= np.array(G.factors))).any():
            for g in self.elements:
                G.index_of(g)
        return tuple(np.sort(res @ G.index_weights).tolist())


def validate_connection_set(
    group: AbelianGroup, elements: Iterable[GroupElement]
) -> ConnectionSet:
    """Check identity-freeness and closure under negation; report every violation."""
    elems = frozenset(tuple(g) for g in elements)
    conn = ConnectionSet(group, elems)
    try:
        idx = np.array(conn.indices(), dtype=np.intp)
    except ValueError:
        bad = [g for g in sorted(elems) if not group.contains(g)]
        raise InvalidConnectionSetError(
            [f"{g} is not a reduced element of {group}" for g in bad]
        ) from None
    violations = ["identity element present"] if group.identity in elems else []
    neg = group.neg_table[idx]  # its build checks the order budget, before any allocation here
    present = np.zeros(group.order, dtype=bool)
    present[idx] = True
    absent = np.flatnonzero(~present[neg]).tolist()
    if absent:
        listed = sorted(elems)  # reduced tuples sort in index order
        for i in absent:
            g = listed[i]
            violations.append(f"{g} present but -{g} = {group.element_of(int(neg[i]))} absent")
    if violations:
        raise InvalidConnectionSetError(violations)
    return conn


def build_cayley(conn: ConnectionSet) -> DenseGraph:
    """Cay(G, S): vertex i ~ j iff g_i - g_j in S; the graph is |S|-regular
    and marked vertex-transitive, as the translations are automorphisms.

    A[i, j] is the indicator of S at g_j - g_i: the translates of that
    indicator, G.translates, copied once into a C-contiguous n x n array.
    The indicator is checked in O(n), also under python -O: it is 0/1 as
    written here, 0 at the identity and equal to itself at -g.  So A is 0/1,
    A[i, i] = indicator[0] = 0 and A[j, i] = indicator[g_i - g_j] = A[i, j],
    and DenseGraph's n x n checks are not run again.  A set that holds the
    identity or is not inverse-closed (one built without
    validate_connection_set) raises SelfCheckError.
    """
    G = conn.group
    n = G.order
    check_order_budget("group", n)
    indicator = np.zeros(n, dtype=np.uint8)
    indicator[conn.indices()] = 1
    if indicator[0]:
        raise SelfCheckError("the connection set holds the identity")
    unpaired = np.flatnonzero(indicator != indicator[G.neg_table])
    if unpaired.size:
        g = G.element_of(int(unpaired[0]))
        raise SelfCheckError(f"the connection set is not inverse-closed at {g}")
    A = np.ascontiguousarray(G.translates(indicator).reshape(n, n))
    return DenseGraph._proven(A, vertex_transitive=True)


def complement_connection_set(conn: ConnectionSet) -> ConnectionSet:
    """G minus (S and the identity); the Cayley graph of it is the complement."""
    G = conn.group
    res = G.residue_matrix  # its build checks the order budget, before any allocation here
    keep = np.ones(G.order, dtype=bool)
    keep[0] = False  # the identity
    keep[conn.indices()] = False
    return ConnectionSet(G, frozenset(map(tuple, res[keep].tolist())))


def lex_product(s1: ConnectionSet, s2: ConnectionSet) -> ConnectionSet:
    """Connection set of the lexicographic product Cay(G1,S1)[Cay(G2,S2)]:
    {(a, g) : a in S1, g in G2} union {(e, s) : s in S2} over G1 x G2."""
    g1, g2 = s1.group, s2.group
    product = AbelianGroup(g1.factors + g2.factors)
    n2 = g2.order
    idx = [a * n2 + g for a in s1.indices() for g in range(n2)] + s2.indices()
    elems = map(tuple, product.residue_matrix[idx].tolist())
    return validate_connection_set(product, elems)


# --- connection-set file format -------------------------------------------------


def connection_set_to_text(conn: ConnectionSet) -> str:
    """Header "group Z9xZ9", then one comma-separated element tuple per line."""
    G = conn.group
    rows = G.residue_matrix[conn.indices()].tolist()
    return "\n".join([f"group {G}"] + [",".join(map(str, g)) for g in rows]) + "\n"


def connection_set_from_text(text: str) -> ConnectionSet:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("group "):
        raise ValueError("connection-set file must start with a 'group <spec>' header")
    group = parse_group_spec(lines[0][6:])
    elems = []
    for lineno, line in enumerate(lines[1:], 2):
        try:
            tup = tuple(int(x) for x in line.split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad element tuple {line!r}") from exc
        elems.append(tup)
    return validate_connection_set(group, elems)
