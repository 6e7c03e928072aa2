"""The benchmark's workloads: seeded inputs, operations and their checks.

Every operation drives a public entry point of cayleycert in this process,
mostly ``cayleycert.cli.main`` on files written during set-up, and is checked
against values computed by ``checker`` from the benchmark's own copy of each
input.  The seed only changes the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checker as ck
from checker import expect

# Program functions are looked up on their modules at call time, so that the
# traced run sees these calls too.
from cayleycert import cayley, cli, families, iso
from cayleycert.groups import AbelianGroup

#: Lexicographic products P_a[P_b] of Paley graphs.
PRODUCTS = ((9, 13), (13, 9), (13, 13), (9, 25), (17, 13))


@dataclass
class Op:
    """One timed call into the program and the check of its answer.

    known_fault marks an operation that fails on every seed because of a
    fault in the program; it is counted failed, not incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False


@dataclass
class Instance:
    """A benchmark-side copy of one input: its group, connection set and graph."""

    name: str
    factors: tuple
    elements: list
    relabel: Optional[np.ndarray] = None  # vertex u of the file is vertex relabel[u] here

    @cached_property
    def ind(self) -> np.ndarray:
        return ck.indicator(self.factors, self.elements)

    @property
    def n(self) -> int:
        return self.ind.size

    @property
    def k(self) -> int:
        return len(self.elements)

    @cached_property
    def params(self) -> Optional[tuple]:
        return ck.cayley_srg_params(self.factors, self.ind)

    @cached_property
    def adjacency(self) -> np.ndarray:
        A = ck.cayley_adjacency(self.factors, self.ind)
        if self.relabel is not None:
            A = A[np.ix_(self.relabel, self.relabel)]
        return A

    @cached_property
    def triangle_pair(self) -> tuple[int, int]:
        A = self.adjacency
        return ck.triangles(A), ck.triangles(ck.complement_adjacency(A))


def _family_instance(family: str, q: int) -> Instance:
    conn = getattr(families, family)(q).connection_set
    return Instance(f"{family}{q}", conn.group.factors, sorted(conn.elements))


def _product_instance(a: int, b: int) -> Instance:
    conn = cayley.lex_product(families.paley(a).connection_set, families.paley(b).connection_set)
    return Instance(f"P{a}[P{b}]", conn.group.factors, sorted(conn.elements))


def _random_symmetric_set(factors: tuple, rng: np.random.Generator) -> list:
    """A seeded inverse-closed set of size (n-1)/2: one of g, -g for each pair."""
    n = int(np.prod(factors))
    res = ck.residues(factors)
    neg = ck.indices(factors, (-res) % np.asarray(factors))
    reps = [i for i in range(1, n) if i < neg[i]]
    chosen = rng.permutation(reps)[: len(reps) // 2]
    idx = np.concatenate([chosen, neg[chosen]])
    return sorted(tuple(int(x) for x in res[i]) for i in idx)


def _non_selfcomplementary(factors: tuple, rng: np.random.Generator, name: str) -> Instance:
    """A seeded random Cayley graph that is neither strongly regular nor
    self-complementary, the latter shown by triangle counts that differ from
    its complement's; draws repeat, in seed order, until both hold."""
    while True:
        inst = Instance(name, factors, _random_symmetric_set(factors, rng))
        a, b = inst.triangle_pair
        if a != b and inst.params is None:
            return inst


# --- running the command line in-process -------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def cli_op(name: str, argv: list[str], check: Callable[[int, dict], None]) -> Op:
    return Op(name, lambda: cli_call(argv), lambda result: check(*result))


# --- checks on verify reports ------------------------------------------------------------


def check_graph_counts(doc: dict, inst: Instance) -> None:
    expect(doc["vertices"] == inst.n, f"{inst.name}: vertices {doc['vertices']} != {inst.n}")
    expect(doc["edges"] == inst.n * inst.k // 2, f"{inst.name}: edge count {doc['edges']}")


#: The structure reports of ``verify``, each asked for by the flag of its name.
STRUCTURE_CHECKS = ("srg", "dr", "pds", "schur")


def check_structure(checks: dict, inst: Instance, names=STRUCTURE_CHECKS) -> None:
    """The named structure reports against the benchmark's own counts."""
    expect(set(names) <= set(checks), f"{inst.name}: reports {sorted(checks)} lack some of {names}")
    params = inst.params
    if params is None:
        for name in names:
            expect(checks[name]["passed"] is False, f"{inst.name}: {name} passed on a non-SRG")
        if "schur" in names:
            expect(checks["schur"]["schur_closure"] is False, f"{inst.name}: Schur closure on a non-SRG")
        return
    n, k, lam, mu = params
    want = ck.conference(inst.n)
    expect(params == want, f"{inst.name}: counted parameters {params} are not {want}")
    if n <= 900:
        expect(ck.square_identity_holds(inst.adjacency, params),
               f"{inst.name}: A^2 recount disagrees with {params}")
    t = want[3]
    if "srg" in names:
        srg = checks["srg"]
        expect(srg["passed"] and tuple(srg["params"]) == params, f"{inst.name}: srg {srg}")
        expect(srg.get("conference_t") == t and srg["beta"] == lam - mu
               and srg["delta"] == (lam - mu) ** 2 + 4 * (k - mu), f"{inst.name}: srg derived values {srg}")
    if "dr" in names:
        dr = checks["dr"]
        expect(dr["passed"] and dr["intersection_array"] == {"b": [k, k - lam - 1], "c": [1, mu]},
               f"{inst.name}: intersection array {dr}")
    if "pds" in names:
        pds = checks["pds"]
        expect(pds["passed"] and pds["lambda"] == lam and pds["mu"] == mu and pds["pds"]
               and pds["srg_equation"] and pds["agreement"], f"{inst.name}: pds {pds}")
    if "schur" in names:
        schur = checks["schur"]
        expect(schur["passed"] and schur["schur_closure"] and schur["mixed_product_t"] == t
               and schur["mixed_product"], f"{inst.name}: schur {schur}")


def check_group_selfcomp(sc: dict, inst: Instance) -> None:
    cert = sc["certificate"]
    expect(sc["passed"] and sc["self_complementary"] is True
           and cert["kind"] == "group-automorphism", f"{inst.name}: selfcomp {sc['decided_by']}")
    ck.check_complementing_permutation(inst.adjacency, cert["permutation"])
    ck.check_group_certificate(inst.factors, inst.ind, cert["generator_images"], cert["permutation"])
    scanned = cert["automorphisms_scanned"]
    expect(1 <= scanned <= ck.aut_order(inst.factors), f"{inst.name}: scanned {scanned}")


def check_graph_selfcomp(sc: dict, inst: Instance) -> None:
    """Positive answers need a checked bijection; negative ones are accepted
    only where the triangle counts of graph and complement differ."""
    cert = sc["certificate"]
    a, b = inst.triangle_pair
    if a != b:
        expect(sc["self_complementary"] is False and cert["kind"] == "invariant-refutation"
               and cert["invariant"] == "triangles" and tuple(cert["values"]) == (a, b),
               f"{inst.name}: expected a triangle refutation ({a}, {b}), got {cert}")
        return
    expect(sc["passed"] and sc["self_complementary"] is True and cert["kind"] == "vertex-bijection",
           f"{inst.name}: selfcomp {sc['decided_by']}")
    ck.check_complementing_permutation(inst.adjacency, cert["permutation"])


# --- workloads ---------------------------------------------------------------------------


SCAN_FAMILIES = (
    [("paley", q) for q in (49, 121, 169, 289)]
    + [("peisert", q) for q in (49, 121)]
    + [("davis", 3)]
)
#: Products checked with --selfcomp; P9[P25] is checked without it.
SCAN_PRODUCTS = ((9, 13), (13, 9), (13, 13), (17, 13))
#: Checked without --selfcomp.  davis(5) is not self-complementary.  For the
#: others the scan's cost depends on where the seeded relabelling puts the
#: first hit, which would let the seed, not the program, set wall_s: 1 to 4 s
#: over Z23^2, 1 to 7 s over Z29^2 and 16 to 60 s over Z3^4; 0.4 to 0.9 s over
#: Z19^2 and for P9[P25], against 0.3 s for the inputs that keep --selfcomp.
STRUCTURE_ONLY = [
    ("paley", 81), ("peisert", 81), ("paley", 361), ("peisert", 361),
    ("paley", 529), ("peisert", 529), ("paley", 841), ("davis", 5),
]
STRUCTURE_ONLY_PRODUCTS = ((9, 25),)
#: davis(7), n = 2401, gets --srg alone: with --dr --pds --schur too one
#: verify takes about 15 s, a single timing per run that spread by a quarter
#: between runs of the same code, and whole rounds could not be repeated.
SRG_ONLY = [("davis", 7)]
#: Non-self-complementary sets whose scan must rule out every automorphism;
#: its cost does not depend on the set.
EXHAUSTIVE_SCAN_GROUPS = ((9, 9), (13, 13))
#: paley_type_order_feasible inputs that families._fourth_root misclassifies.
FOURTH_ROOT_FAULTS = (15**80, 9 * 15**80)


def _order_queries(rng: np.random.Generator) -> list[int]:
    odd = [int(x) for x in rng.choice(np.arange(3, 1000, 2), size=3, replace=False)]
    primes = [p for p in range(3, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    p1 = int(rng.choice([p for p in primes if p % 4 == 1]))
    p3 = int(rng.choice([p for p in primes if p % 4 == 3]))
    return [81, 45, 5625, odd[0] ** 4, 9 * odd[1] ** 4, 2 * odd[2] ** 4, p1**3, p3, p3**2 * 5]


def _order_op(m: int, known_fault: bool = False) -> Op:
    def check(result):
        ok, _reason = result
        expect(ok == ck.order_feasible(m), f"order {m}: feasible={ok}")

    return Op(f"order:{m}", lambda: families.paley_type_order_feasible(m), check, known_fault)


def _scan_op(inst: Instance, path: Path) -> Op:
    def run():
        return iso.selfcomp_by_group_automorphism(cayley.connection_set_from_text(path.read_text()))

    def check(result):
        cert, scanned = result
        want = ck.aut_order(inst.factors)
        expect(cert is None and scanned == want, f"{inst.name}: scan gave {cert}, {scanned} != {want}")

    return Op(f"scan:{inst.name}", run, check)


def _write_set(path: Path, inst: Instance) -> None:
    conn = cayley.validate_connection_set(AbelianGroup(inst.factors), inst.elements)
    path.write_text(cayley.connection_set_to_text(conn))


def prepare_certify(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    insts = [_family_instance(f, q) for f, q in SCAN_FAMILIES]
    insts += [_product_instance(a, b) for a, b in SCAN_PRODUCTS]
    plan = [(i, STRUCTURE_CHECKS, True) for i in insts]
    plan += [(_family_instance(f, q), STRUCTURE_CHECKS, False) for f, q in STRUCTURE_ONLY]
    plan += [(_product_instance(a, b), STRUCTURE_CHECKS, False) for a, b in STRUCTURE_ONLY_PRODUCTS]
    plan += [(_family_instance(f, q), ("srg",), False) for f, q in SRG_ONLY]
    ops: list[Op] = []
    for inst, names, selfcomp in plan:
        M = ck.random_automorphism(inst.factors, rng)
        moved = Instance(inst.name, inst.factors, ck.move_set(inst.factors, inst.elements, M))
        path = workdir / f"{inst.name}.set"
        _write_set(path, moved)
        flags = [f"--{name}" for name in names] + (["--selfcomp"] if selfcomp else [])

        def check(code, doc, inst=moved, names=names, selfcomp=selfcomp):
            expect(code == (0 if inst.params else 1), f"{inst.name}: exit code {code}")
            check_graph_counts(doc, inst)
            check_structure(doc["checks"], inst, names)
            if selfcomp:
                check_group_selfcomp(doc["checks"]["selfcomp"], inst)

        ops.append(cli_op(f"verify:{inst.name}", ["verify", str(path), *flags], check))
    for factors in EXHAUSTIVE_SCAN_GROUPS:
        inst = _non_selfcomplementary(factors, rng, "random" + "x".join(f"Z{m}" for m in factors))
        path = workdir / f"{inst.name}.set"
        _write_set(path, inst)
        ops.append(_scan_op(inst, path))
    ops += [_order_op(m) for m in _order_queries(rng)]
    ops += [_order_op(m, known_fault=True) for m in FOURTH_ROOT_FAULTS]
    return ops


#: Circulant orders: 1 mod 4, so the regular-graph precheck passes them on.
CIRCULANT_ORDERS = (205, 237, 265)
#: paley(361) is left out: its screens take about 10 s, a single timing per
#: run that set slowest_op_s alone and left room for one round.
GRAPH6_FAMILIES = (("paley", 169), ("peisert", 121), ("davis", 3))


def prepare_graph6(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    insts = [_family_instance(f, q) for f, q in GRAPH6_FAMILIES]
    insts += [_product_instance(a, b) for a, b in PRODUCTS]
    insts += [_non_selfcomplementary((n,), rng, f"circulant{n}") for n in CIRCULANT_ORDERS]
    ops: list[Op] = []
    for base in insts:
        inst = Instance(base.name, base.factors, base.elements, rng.permutation(base.n))
        path = workdir / f"{inst.name}.g6"
        path.write_text(ck.to_graph6(inst.adjacency) + "\n")

        def check(code, doc, inst=inst):
            sc = doc["checks"]["selfcomp"]
            expect(code == (0 if sc["self_complementary"] else 1), f"{inst.name}: exit code {code}")
            check_graph_counts(doc, inst)
            check_graph_selfcomp(sc, inst)

        ops.append(cli_op(f"selfcomp:{inst.name}", ["verify", str(path), "--selfcomp"], check))
    return ops


FINGERPRINT_PRIMES = (2, 3, 5, 7)


def check_fingerprint(report: dict, inst: Instance) -> None:
    """--invariants of a relabelled vertex-transitive conference graph."""
    A, params = inst.adjacency, inst.params
    n, k, lam, _mu = params
    expect(params == ck.conference(n), f"{inst.name}: counted parameters {params}")
    want = {
        "passed": True,
        "n": n,
        "degree_multiset": {str(k): n},
        "regular": True,
        "triangles": n * k * lam // 6,
        "four_cliques": ck.four_cliques_vertex_transitive(A),
        "mod_ranks": {
            f"p{p}_shift{s}": ck.srg_rank_mod_p(A, params, p, s)
            for p in FINGERPRINT_PRIMES
            for s in (0, 1)
        },
        "diameter": 2,
    }
    expect(ck.triangles(A) == want["triangles"], f"{inst.name}: trace(A^3)/6 disagrees with n k lambda / 6")
    expect(report == want, f"{inst.name}: fingerprint {report} != {want}")


def prepare_fingerprint(seed: int, workdir: Path) -> list[Op]:
    """Relabelled davis(5) and its complement, the paper's negative case: the
    two agree on every fingerprint field."""
    rng = np.random.default_rng([seed, 3])
    base = _family_instance("davis", 5)
    rest = ~base.ind
    rest[0] = False
    ops: list[Op] = []
    for name, elements in (("davis5", base.elements), ("davis5-complement", ck.residues(base.factors)[rest].tolist())):
        inst = Instance(name, base.factors, elements, rng.permutation(base.n))
        path = workdir / f"{name}.g6"
        path.write_text(ck.to_graph6(inst.adjacency) + "\n")

        def check(code, doc, inst=inst):
            expect(code == 0, f"{inst.name}: exit code {code}")
            check_graph_counts(doc, inst)
            check_fingerprint(doc["checks"]["invariants"], inst)

        ops.append(cli_op(f"invariants:{name}", ["verify", str(path), "--invariants"], check))
    return ops


WORKLOADS = {
    "davis5-fingerprint": prepare_fingerprint,
    "certify-cayley": prepare_certify,
    "selfcomp-graph6": prepare_graph6,
}
