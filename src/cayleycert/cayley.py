"""Connection sets and Cayley graphs over abelian groups.

Vertices are numbered by the group's mixed-radix enumeration; indices i, j
are adjacent iff g_i - g_j lies in the connection set.  Inverse-closure of
the set makes the relation symmetric.  The adjacency is the translates of
the set's indicator (AbelianGroup.translates).  A set is its ascending index
array, as residue tuples only in text and JSON (validate_connection_set).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
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
    """An identity-free, inverse-closed subset of an abelian group as the
    ascending indices of its elements, valid by construction.

    The constructor is the one check of a connection set, also under
    python -O: the group's order budget first, before any table of its
    order; then distinct integer indices within [0, |G|), given in any order
    (a non-integer raises TypeError, a repeat or an out-of-range index
    ValueError); then one InvalidConnectionSetError listing the identity and
    each element whose negative is absent."""

    group: AbelianGroup
    members: tuple[int, ...]

    def __init__(self, group: AbelianGroup, members: Iterable[int]):
        check_order_budget("group", group.order)
        members = tuple(sorted(map(operator.index, members)))
        if not all(a < b for a, b in zip((-1, *members), (*members, group.order))):
            raise ValueError(f"connection-set indices must be distinct within [0, {group.order})")
        idx = list(members)
        violations = ["identity element present"] if idx[:1] == [0] else []
        neg = group.neg_table[idx]
        present = np.zeros(group.order, dtype=bool)
        present[idx] = True
        for i in np.flatnonzero(~present[neg]).tolist():
            g = group.element_of(idx[i])
            violations.append(f"{g} present but -{g} = {group.element_of(int(neg[i]))} absent")
        if violations:
            raise InvalidConnectionSetError(violations)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    def indices(self) -> list[int]:
        """A fresh list, which numpy reads as an index array (not a tuple)."""
        return list(self.members)

    @cached_property
    def elements(self) -> frozenset[GroupElement]:
        """The residue tuples of the elements, for the text and JSON boundary."""
        return frozenset(map(tuple, self.group.residue_matrix[self.indices()].tolist()))


def validate_connection_set(group: AbelianGroup, elements: Iterable[GroupElement]) -> ConnectionSet:
    """The one residue tuple -> index codec: every unreduced element is
    reported, in sorted order, before the indices reach ConnectionSet."""
    elems = list(frozenset(tuple(g) for g in elements))
    try:
        res = np.array(elems, dtype=np.int64).reshape(len(elems), group.rank)
        reduced = bool(((res >= 0) & (res < np.array(group.factors))).all())
    except (ValueError, OverflowError):  # ragged, wrong length or out of int64
        reduced = False
    if not reduced:
        bad = [g for g in sorted(elems) if not group.contains(g)]
        raise InvalidConnectionSetError([f"{g} is not a reduced element of {group}" for g in bad])
    return ConnectionSet(group, res @ group.index_weights)


def build_cayley(conn: ConnectionSet) -> DenseGraph:
    """Cay(G, S): vertex i ~ j iff g_i - g_j in S; the graph is |S|-regular
    and carries S as its connection_set, which marks it vertex-transitive:
    the translations are automorphisms.

    A[i, j] is the indicator of S at g_j - g_i: the translates of that
    indicator, G.translates, copied once into a C-contiguous n x n array.
    The indicator is 0/1 as written here, and the ConnectionSet type proves
    it 0 at the identity and equal to itself at -g.  So A is 0/1,
    A[i, i] = indicator[0] = 0 and A[j, i] = indicator[g_i - g_j] = A[i, j],
    and DenseGraph's n x n checks are not run again.
    """
    G = conn.group
    n = G.order
    indicator = np.zeros(n, dtype=np.uint8)
    indicator[conn.indices()] = 1
    A = np.ascontiguousarray(G.translates(indicator).reshape(n, n))
    return DenseGraph._proven(A, conn)


def complement_connection_set(conn: ConnectionSet) -> ConnectionSet:
    """G minus (S and the identity); the Cayley graph of it is the complement."""
    keep = np.ones(conn.group.order, dtype=bool)
    keep[0] = False  # the identity
    keep[conn.indices()] = False
    return ConnectionSet(conn.group, np.flatnonzero(keep))


def lex_product(s1: ConnectionSet, s2: ConnectionSet) -> ConnectionSet:
    """Connection set of the lexicographic product Cay(G1,S1)[Cay(G2,S2)]:
    {(a, g) : a in S1, g in G2} union {(e, s) : s in S2} over G1 x G2."""
    g1, g2 = s1.group, s2.group
    product = AbelianGroup(g1.factors + g2.factors)
    n2 = g2.order
    idx = [a * n2 + g for a in s1.indices() for g in range(n2)] + s2.indices()
    return ConnectionSet(product, idx)


# --- connection-set file format -------------------------------------------------


def connection_set_to_text(conn: ConnectionSet) -> str:
    """Header "group Z9xZ9", then one comma-separated element tuple per line."""
    G = conn.group
    rows = G.residue_matrix[conn.indices()].tolist()
    return "\n".join([f"group {G}"] + [",".join(map(str, g)) for g in rows]) + "\n"


def parse_element(text: str, where: str) -> GroupElement:
    """The residue tuple written "3,4"; a field that is not an integer raises
    ValueError naming {where} and the text."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(f"{where}: bad element tuple {text!r}") from None


def connection_set_from_text(text: str) -> ConnectionSet:
    """The .set format; a parse error names its line, blank lines counted."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].lower().startswith("group "):
        raise ValueError("connection-set file must start with a 'group <spec>' header")
    group = parse_group_spec(lines[0][1][6:])
    return validate_connection_set(group, [parse_element(ln, f"line {i}") for i, ln in lines[1:]])
