"""The named connection-set families: Paley, Peisert, and the Davis sets
over Z_{p^2} x Z_{p^2}, plus the Paley-type order feasibility predicate.

Every family produces an (|G|-1)/2-sized validated connection set; davis()
asserts its internal subgroup bookkeeping instead of assuming it, because a
miscounted generator list must fail loudly rather than emit a wrong graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import isqrt
from typing import Optional

from .cayley import ConnectionSet, validate_connection_set
from .fields import (
    FieldElement,
    FiniteField,
    make_field,
    poly_str,
    prime_power_decomposition,
    is_prime,
)
from .graphs import check_order_budget
from .groups import AbelianGroup, GroupElement


class ConstructionError(RuntimeError):
    """Internal consistency failure of a construction, with a witness."""


@dataclass(frozen=True)
class ConstructionReport:
    """What was built and from which choices (field modulus, generator, ...)."""

    family: str
    params: dict
    group: AbelianGroup
    connection_set: ConnectionSet
    field_info: Optional[dict] = None
    notes: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "params": self.params,
            "group": str(self.group),
            "set_size": self.connection_set.size,
            "elements": [list(g) for g in sorted(self.connection_set.elements)],
        }
        if self.field_info is not None:
            out["field"] = self.field_info
        if self.notes:
            out["notes"] = self.notes
        return out


def _field_report(F: FiniteField, primitive: Optional[FieldElement] = None) -> dict:
    info = {
        "p": F.p,
        "r": F.r,
        "modulus": list(F.modulus),
        "modulus_str": poly_str(F.modulus),
    }
    if primitive is not None:
        info["primitive_element"] = list(primitive)
    return info


def _expect_half_size(conn: ConnectionSet, family: str) -> None:
    n = conn.group.order
    if conn.size != (n - 1) // 2:
        raise ConstructionError(
            f"{family}: |S| = {conn.size}, expected (|G|-1)/2 = {(n - 1) // 2}"
        )


def paley(q: int) -> ConstructionReport:
    """Cay(Z_p^r, squares of GF(q)); needs q a prime power with q = 1 mod 4."""
    check_order_budget("field", q)
    pr = prime_power_decomposition(q)
    if pr is None:
        raise ValueError(f"q = {q} is not a prime power")
    if q % 4 != 1:
        raise ValueError(
            f"Paley graph needs q = 1 mod 4 (else squares are not inverse-closed); "
            f"got q = {q} = {q % 4} mod 4"
        )
    p, r = pr
    F = make_field(p, r)
    group = F.additive_group()
    conn = validate_connection_set(group, (F.coords(a) for a in F.squares()))
    _expect_half_size(conn, "paley")
    return ConstructionReport(
        family="paley",
        params={"q": q, "p": p, "r": r},
        group=group,
        connection_set=conn,
        field_info=_field_report(F),
    )


def peisert(q: int, generator: Optional[FieldElement] = None) -> ConstructionReport:
    """Cay(Z_p^r, {a^i : i = 0,1 mod 4}); needs p = 3 mod 4 and r even."""
    check_order_budget("field", q)
    pr = prime_power_decomposition(q)
    if pr is None:
        raise ValueError(f"q = {q} is not a prime power")
    p, r = pr
    F = make_field(p, r)
    S_field = F.peisert_set(generator)  # validates p mod 4 and parity of r
    a = F.primitive_element() if generator is None else generator
    group = F.additive_group()
    conn = validate_connection_set(group, (F.coords(x) for x in S_field))
    _expect_half_size(conn, "peisert")
    return ConstructionReport(
        family="peisert",
        params={"q": q, "p": p, "r": r},
        group=group,
        connection_set=conn,
        field_info=_field_report(F, primitive=a),
    )


def _davis_generator_lists(
    p: int,
) -> tuple[list[GroupElement], list[GroupElement]]:
    """Generators of the order-p^2 cyclic subgroups feeding C and D.

    C: <(1,1)>, <(1,2)>, ..., <(1, p(p-1)/2)>, <(p,1)>, <(2p,1)>, ..., <((p-1)p/2, 1)>
    D: <(1,0)>, <(0,1)>, <(1, (p^2-p)/2 + 1)>, ..., <(1, (p^2+1)/2 - 2)>

    The trailing D range is read literally; it is empty for p = 3 and always
    contains (p+1)/2 - 2 values, so the D list has (p+1)/2 subgroups.
    """
    c_gens: list[GroupElement] = [(1, j) for j in range(1, p * (p - 1) // 2 + 1)]
    c_gens += [(i * p, 1) for i in range(1, (p - 1) // 2 + 1)]
    lo = (p * p - p) // 2 + 1
    hi = (p * p + 1) // 2 - 2
    d_gens: list[GroupElement] = [(1, 0), (0, 1)]
    d_gens += [(1, j) for j in range(lo, hi + 1)]
    return c_gens, d_gens


def davis(p: int) -> ConstructionReport:
    """The Davis-type Paley partial difference set over Z_{p^2} x Z_{p^2}.

    C collects the order-p^2 elements of one batch of cyclic subgroups of
    order p^2, D all non-identity elements of another; S = C union D.
    """
    check_order_budget("group", p**4)
    if p == 2 or not is_prime(p):
        raise ValueError(f"davis construction needs an odd prime, got {p}")
    n = p * p
    group = AbelianGroup((n, n))
    c_gens, d_gens = _davis_generator_lists(p)

    subgroups: dict[GroupElement, frozenset[GroupElement]] = {}
    for g in c_gens + d_gens:
        if group.element_order(g) != n:
            raise ConstructionError(f"generator {g} does not have order {n}")
        subgroups[g] = group.cyclic_subgroup(g)
    seen = {}
    for g, H in subgroups.items():
        key = frozenset(H)
        if key in seen:
            raise ConstructionError(f"subgroups <{seen[key]}> and <{g}> coincide")
        seen[key] = g

    C: set[GroupElement] = set()
    for g in c_gens:
        C.update(x for x in subgroups[g] if group.element_order(x) == n)
    D: set[GroupElement] = set()
    for g in d_gens:
        D.update(x for x in subgroups[g] if x != group.identity)

    expected_c = (n - 1) // 2 * (n - p)
    expected_d = (p + 1) // 2 * (n - 1)
    if len(C) != expected_c:
        raise ConstructionError(f"|C| = {len(C)}, expected {expected_c}")
    if len(D) != expected_d:
        raise ConstructionError(f"|D| = {len(D)}, expected {expected_d}")
    overlap = C & D
    if overlap:
        raise ConstructionError(f"C and D intersect, e.g. {sorted(overlap)[0]}")
    S = C | D
    if len(S) != (n * n - 1) // 2:
        raise ConstructionError(
            f"|S| = {len(S)}, expected (p^4-1)/2 = {(n * n - 1) // 2}"
        )
    conn = validate_connection_set(group, S)
    notes = {
        "c_generators": [list(g) for g in c_gens],
        "d_generators": [list(g) for g in d_gens],
        "d_range_reading": (
            "literal trailing range [(p^2-p)/2+1, (p^2+1)/2-2]"
            + (" (empty)" if not d_gens[2:] else "")
            + "; matches the cardinality-derived count (p+1)/2"
        ),
        "c_size": len(C),
        "d_size": len(D),
    }
    return ConstructionReport(
        family="davis",
        params={"p": p},
        group=group,
        connection_set=conn,
        notes=notes,
    )


def paley_type_order_feasible(m: int) -> tuple[bool, str]:
    """Order test for abelian groups carrying a Paley-type partial difference
    set: prime powers congruent to 1 mod 4 qualify, and otherwise only n^4 or
    9 n^4 for odd n > 1 are possible."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    pr = prime_power_decomposition(m)
    if pr is not None:
        p, r = pr
        if m % 4 == 1:
            return True, f"prime power {p}^{r} congruent to 1 mod 4"
        return False, f"prime power {p}^{r} congruent to {m % 4} mod 4"
    root = _fourth_root(m)
    if root is not None and root > 1 and root % 2 == 1:
        return True, f"n^4 with odd n = {root} > 1"
    if m % 9 == 0:
        root = _fourth_root(m // 9)
        if root is not None and root > 1 and root % 2 == 1:
            return True, f"9 n^4 with odd n = {root} > 1"
    return False, "not a prime power = 1 mod 4, not n^4 nor 9 n^4 for odd n > 1"


def _fourth_root(m: int) -> Optional[int]:
    root = isqrt(isqrt(m))  # floor of the fourth root, exact for any size
    return root if root**4 == m else None
