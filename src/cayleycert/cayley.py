"""Connection sets and Cayley graphs over abelian groups.

Vertices are numbered by the group's mixed-radix enumeration; indices i, j
are adjacent iff g_i - g_j lies in the connection set.  Inverse-closure of
the set makes the relation symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import DenseGraph, check_order_budget
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
        """Sorted vertex indices of the set elements."""
        return sorted(self.group.index_of(g) for g in self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements


def validate_connection_set(
    group: AbelianGroup, elements: Iterable[GroupElement]
) -> ConnectionSet:
    """Check identity-freeness and closure under negation; report every violation."""
    elems = frozenset(tuple(g) for g in elements)
    violations = [
        f"{g} is not a reduced element of {group}" for g in sorted(elems) if not group.contains(g)
    ]
    if not violations:
        if group.identity in elems:
            violations.append("identity element present")
        listed = sorted(elems)
        idx = [group.index_of(g) for g in listed]
        neg = group.neg_table  # its build checks the order budget, before any allocation here
        present = np.zeros(group.order, dtype=bool)
        present[idx] = True
        for g, minus in zip(listed, neg[idx].tolist()):
            if not present[minus]:
                violations.append(f"{g} present but -{g} = {group.element_of(minus)} absent")
    if violations:
        raise InvalidConnectionSetError(violations)
    return ConnectionSet(group, elems)


def build_cayley(conn: ConnectionSet) -> DenseGraph:
    """Cay(G, S): vertex i ~ j iff g_i - g_j in S; the graph is |S|-regular."""
    G = conn.group
    n = G.order
    check_order_budget("group", n)
    A = np.zeros((n, n), dtype=bool)
    s_idx = conn.indices()
    if s_idx:
        A[np.arange(n)[:, None], G.add_table[:, s_idx]] = True
    return DenseGraph(A)


def complement_connection_set(conn: ConnectionSet) -> ConnectionSet:
    """G minus (S and the identity); the Cayley graph of it is the complement."""
    G = conn.group
    keep = np.ones(G.order, dtype=bool)
    keep[0] = False  # the identity
    keep[conn.indices()] = False
    return ConnectionSet(G, frozenset(map(tuple, G.residue_matrix[keep].tolist())))


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
    lines = [f"group {conn.group}"]
    for g in sorted(conn.elements, key=conn.group.index_of):
        lines.append(",".join(map(str, g)))
    return "\n".join(lines) + "\n"


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
