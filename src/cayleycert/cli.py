"""Command-line front end: construct families, verify certificates, and
reproduce the computational claims end to end.

One JSON document per run goes to stdout (byte-identical across runs for
identical inputs and version; timings only with --timings); the
human-readable table goes to stderr.  Exit codes: 0 all requested checks
passed, 1 a check refuted, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import prod
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__
from .cayley import (
    ConnectionSet,
    build_cayley,
    connection_set_from_text,
    connection_set_to_text,
    is_connected_cayley,
    lex_product,
)
from .families import (
    ConstructionReport,
    davis,
    paley,
    paley_type_order_feasible,
    peisert,
)
from .graphs import (
    DenseGraph,
    check_order_budget,
    check_srg,
    complement,
    diameter,
    from_edge_list,
    from_graph6,
    intersection_array,
    to_graph6,
)
from .groupalgebra import (
    verify_mixed_product,
    verify_pds,
    verify_schur_partition,
    verify_srg_equation,
)
from .iso import (
    Fingerprint,
    fingerprint,
    is_self_complementary,
    selfcomp_by_group_automorphism,
    verify_certificate,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _header(command: str) -> dict:
    return {"tool": "cayleycert", "version": __version__, "command": command}


def _emit(report: dict, timings: Optional[dict], want_timings: bool) -> None:
    if want_timings and timings:
        report = dict(report)
        report["timings_s"] = {k: round(v, 3) for k, v in timings.items()}
    print(json.dumps(report, indent=2, sort_keys=True))


# --- construct -------------------------------------------------------------------


#: Family -> (its parameter option, the order of the group built from the
#: parameter, a constructor from the parameter and --generator).  The
#: constructors read paley/peisert/davis from the module when they run, so a
#: function rebound on this module is the one called.
_FAMILIES = {
    "paley": ("q", lambda q: q, lambda q, gen: paley(q)),
    "peisert": ("q", lambda q: q, lambda q, gen: peisert(q, _generator(gen))),
    "davis": ("p", lambda p: p**4, lambda p, gen: davis(p)),
}


def _generator(text: Optional[str]) -> Optional[tuple[int, ...]]:
    return tuple(int(c) for c in text.split(",")) if text else None


def _parse_operand(spec: str) -> tuple[tuple, int]:
    """Parse "family:param" (e.g. paley:13, davis:3) for lexprod operands."""
    family, _, param = spec.partition(":")
    try:
        value = int(param)
    except ValueError:
        raise ValueError(f"operand {spec!r} is not family:integer")
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r} in operand {spec!r}")
    return _FAMILIES[family], value


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        if args.family == "lexprod":
            if not args.left or not args.right:
                raise ValueError("lexprod needs --left and --right family:param")
            operands = [_parse_operand(args.left), _parse_operand(args.right)]
            check_order_budget("group", prod(order(v) for (_, order, _), v in operands))
            left, right = (build(v, None) for (_, _, build), v in operands)
            conn = lex_product(left.connection_set, right.connection_set)
            report = ConstructionReport(
                family="lexprod",
                params={"left": args.left, "right": args.right},
                group=conn.group,
                connection_set=conn,
                notes={"left": left.to_json_dict(), "right": right.to_json_dict()},
            )
            stem = f"lexprod_{args.left}_{args.right}".replace(":", "")
        else:
            flag, _, build = _FAMILIES[args.family]
            value = getattr(args, flag)
            if value is None:
                raise ValueError(f"{args.family} needs --{flag}")
            report = build(value, args.generator)
            stem = f"{args.family}{value}"
    except (ValueError, ArithmeticError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph = build_cayley(report.connection_set)
    set_path = out / f"{stem}.set"
    g6_path = out / f"{stem}.g6"
    json_path = out / f"{stem}.json"
    set_path.write_text(connection_set_to_text(report.connection_set))
    g6_path.write_text(to_graph6(graph) + "\n")
    doc = {
        **_header("construct"),
        "construction": report.to_json_dict(),
        "files": {
            "connection_set": str(set_path),
            "graph6": str(g6_path),
            "report": str(json_path),
        },
        "vertices": graph.n,
        "degree": report.connection_set.size,
    }
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _emit(doc, None, False)
    _eprint(f"wrote {set_path}, {g6_path}, {json_path}")
    return EXIT_OK


# --- verify ----------------------------------------------------------------------


def _load_input(path: str, fmt: Optional[str]) -> tuple[DenseGraph, Optional[ConnectionSet]]:
    p = Path(path)
    text = p.read_text()
    if fmt is None:
        if p.suffix == ".set":
            fmt = "set"
        elif p.suffix in (".g6", ".graph6"):
            fmt = "graph6"
        else:
            fmt = "edgelist"
    if fmt == "set":
        conn = connection_set_from_text(text)
        return build_cayley(conn), conn
    if fmt == "graph6":
        return from_graph6(text.splitlines()[0]), None
    if fmt == "edgelist":
        return from_edge_list(text), None
    raise ValueError(f"unknown input format {fmt!r}")


def _inline_connection_set(group_spec: str, set_text: str) -> tuple[DenseGraph, ConnectionSet]:
    """Inline sets for small groups: --group Z13 --set "1;3;4;9;10;12"
    (elements separated by ';', residues within an element by ',')."""
    from .cayley import validate_connection_set
    from .groups import parse_group_spec

    group = parse_group_spec(group_spec)
    elems = []
    for chunk in set_text.split(";"):
        chunk = chunk.strip()
        if chunk:
            elems.append(tuple(int(x) for x in chunk.split(",")))
    conn = validate_connection_set(group, elems)
    return build_cayley(conn), conn


def _check_srg(graph: DenseGraph, conn: Optional[ConnectionSet], args) -> dict:
    res = check_srg(graph)
    out: dict = {"passed": res.is_srg}
    if res.is_srg:
        params = res.params
        out["params"] = list(params.as_tuple())
        out["beta"] = params.beta
        out["delta"] = params.delta
        if params.conference_t is not None:
            out["conference_t"] = params.conference_t
    else:
        out["reason"] = res.reason
        if res.witness is not None:
            out["witness"] = json.loads(json.dumps(res.witness))
    return out


def _check_dr(graph: DenseGraph, conn: Optional[ConnectionSet], args) -> dict:
    res = intersection_array(graph)
    out: dict = {"passed": res.is_distance_regular}
    if res.is_distance_regular:
        out["intersection_array"] = {
            "b": list(res.array.bs),
            "c": list(res.array.cs),
        }
    else:
        out["reason"] = res.reason
        if res.witness is not None:
            out["witness"] = json.loads(json.dumps(res.witness))
    return out


def _check_pds(graph: DenseGraph, conn: ConnectionSet, args) -> dict:
    srg = check_srg(graph)
    if not srg.is_srg:
        return {"passed": False, "reason": f"not strongly regular: {srg.reason}"}
    n, k, lam, mu = srg.params.as_tuple()
    pds = verify_pds(conn.group, conn.elements, lam, mu)
    eq = verify_srg_equation(conn.group, conn, (n, k, lam, mu))
    out = {
        "passed": bool(pds) and bool(eq),
        "lambda": lam,
        "mu": mu,
        "pds": bool(pds),
        "srg_equation": bool(eq),
        "agreement": bool(pds) == bool(eq),
    }
    if pds.witness:
        out["witness"] = pds.witness
    return out


def _check_schur(graph: DenseGraph, conn: ConnectionSet, args) -> dict:
    schur = verify_schur_partition(conn.group, conn)
    out = {"passed": bool(schur), "schur_closure": bool(schur)}
    if schur.witness:
        out["witness"] = schur.witness
    srg = check_srg(graph)
    if srg.is_srg and srg.params.conference_t is not None:
        t = srg.params.conference_t
        mixed = verify_mixed_product(conn.group, conn, t)
        out["mixed_product_t"] = t
        out["mixed_product"] = bool(mixed)
        out["passed"] = out["passed"] and bool(mixed)
    return out


def _check_selfcomp(graph: DenseGraph, conn: Optional[ConnectionSet], args) -> dict:
    decision = is_self_complementary(
        graph,
        hint=conn,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
    )
    return {
        "passed": decision.isomorphic is True,
        "self_complementary": decision.isomorphic,
        "decided_by": decision.decided_by,
        "certificate": decision.certificate.to_json_dict(),
    }


def _check_invariants(graph: DenseGraph, conn: Optional[ConnectionSet], args) -> dict:
    fp = fingerprint(graph)
    degree_counts: dict[str, int] = {}
    for d in fp.degrees:
        degree_counts[str(d)] = degree_counts.get(str(d), 0) + 1
    diam = diameter(graph)
    out = {
        "passed": True,
        "n": fp.n,
        "degree_multiset": degree_counts,
        "regular": len(degree_counts) == 1,
        "triangles": fp.triangles,
        "four_cliques": fp.four_cliques,
        "mod_ranks": {f"p{p}_shift{s}": r for ((p, s), r) in fp.mod_ranks},
        "diameter": "disconnected" if diam is None else diam,
    }
    if conn is not None:
        out["connected_cayley"] = is_connected_cayley(conn)
    return out


class Check(NamedTuple):
    """One verify check: its flag, its runner and whether it needs the group
    of a connection set, which a bare graph input does not carry."""

    name: str
    run: Callable[[DenseGraph, Optional[ConnectionSet], argparse.Namespace], dict]
    needs_group: bool
    help: str


#: The verify checks, in report order.
CHECKS = (
    Check("srg", _check_srg, False, "strong regularity"),
    Check("dr", _check_dr, False, "distance regularity"),
    Check("pds", _check_pds, True, "partial difference set (set input)"),
    Check("schur", _check_schur, True, "Schur-ring closure (set input)"),
    Check("selfcomp", _check_selfcomp, False, "self-complementarity"),
    Check("invariants", _check_invariants, False, "fingerprint record"),
)


def _flags(checks) -> str:
    return "/".join(f"--{c.name}" for c in checks)


def cmd_verify(args: argparse.Namespace) -> int:
    timings: dict[str, float] = {}
    try:
        if args.group or args.set:
            if not (args.group and args.set):
                raise ValueError("--group and --set must be given together")
            if args.input is not None:
                raise ValueError("give either an input file or --group/--set, not both")
            graph, conn = _inline_connection_set(args.group, args.set)
        elif args.input is not None:
            graph, conn = _load_input(args.input, args.format)
        else:
            raise ValueError("no input (file argument or --group/--set)")
    except (OSError, ValueError) as exc:
        _eprint(f"error: cannot read input: {exc}")
        return EXIT_USAGE

    requested = [c for c in CHECKS if getattr(args, c.name)]
    if not requested:
        _eprint(f"error: no checks requested (use {_flags(CHECKS)})")
        return EXIT_USAGE
    if conn is None and any(c.needs_group for c in requested):
        _eprint(
            f"error: {_flags(c for c in CHECKS if c.needs_group)} need the group structure; "
            "supply a connection-set (.set) input instead of a bare graph"
        )
        return EXIT_USAGE

    checks: dict[str, dict] = {}
    for check in requested:
        t0 = time.monotonic()
        checks[check.name] = check.run(graph, conn, args)
        timings[check.name] = time.monotonic() - t0

    all_passed = all(c["passed"] for c in checks.values())
    report = {
        **_header("verify"),
        "parameters": {
            "input": args.input if args.input else {"group": args.group, "set": args.set},
            "checks": list(checks),
        },
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "checks": checks,
        "all_passed": all_passed,
    }
    _emit(report, timings, args.timings)
    for name, result in checks.items():
        status = "pass" if result["passed"] else "FAIL"
        _eprint(f"{name:<12} {status}   ({timings[name]:.2f}s)")
    return EXIT_OK if all_passed else EXIT_REFUTED


# --- reproduce-paper ---------------------------------------------------------------


def _certified_selfcomp(g: DenseGraph, hint: Optional[ConnectionSet] = None):
    """The self-complementarity decision, and whether it is positive with a
    permutation that verify_certificate re-checks edge for edge."""
    d = is_self_complementary(g, hint=hint)
    certified = d.isomorphic is True and verify_certificate(
        g, complement(g), d.certificate.permutation
    )
    return d, certified


def _srg_list(srg) -> Optional[list[int]]:
    return list(srg.params.as_tuple()) if srg.is_srg else None


def _claim_paley_family() -> dict:
    details = {}
    ok = True
    for q in (5, 9, 13, 25):
        rep = paley(q)
        g = build_cayley(rep.connection_set)
        srg = check_srg(g)
        t = (q - 1) // 4
        diam = diameter(g)
        d, certified = _certified_selfcomp(g, rep.connection_set)
        want = (4 * t + 1, 2 * t, t - 1, t)
        ok = ok and srg.is_srg and srg.params.as_tuple() == want and q == 4 * t + 1
        ok = ok and diam == 2 and certified
        details[f"q{q}"] = {
            "srg": _srg_list(srg),
            "diameter": diam,
            "selfcomp": d.isomorphic,
            "certificate": d.certificate.kind,
        }
    return {"passed": ok, "details": details}


def _claim_peisert_family() -> dict:
    details = {}
    ok = True
    for q, want in ((9, (9, 4, 1, 2)), (49, (49, 24, 11, 12))):
        rep = peisert(q)
        g = build_cayley(rep.connection_set)
        srg = check_srg(g)
        d, certified = _certified_selfcomp(g, rep.connection_set)
        ok = ok and srg.is_srg and srg.params.as_tuple() == want and certified
        details[f"q{q}"] = {"srg": _srg_list(srg), "selfcomp": d.isomorphic}
    return {"passed": ok, "details": details}


def _claim_davis3_pds() -> dict:
    rep = davis(3)
    conn = rep.connection_set
    srg = check_srg(build_cayley(conn))
    details = {
        "set_size": conn.size,
        "pds_19_20": bool(verify_pds(rep.group, conn.elements, 19, 20)),
        "srg_equation": bool(verify_srg_equation(rep.group, conn, (81, 40, 19, 20))),
        "mixed_product_t20": bool(verify_mixed_product(rep.group, conn, 20)),
        "schur": bool(verify_schur_partition(rep.group, conn)),
        "srg": _srg_list(srg),
    }
    checks = ("pds_19_20", "srg_equation", "mixed_product_t20", "schur")
    ok = rep.group.factors == (9, 9) and conn.size == 40 and all(details[k] for k in checks)
    return {"passed": ok and details["srg"] == [81, 40, 19, 20], "details": details}


def _claim_davis3_selfcomp() -> dict:
    rep = davis(3)
    d, certified = _certified_selfcomp(build_cayley(rep.connection_set), rep.connection_set)
    return {
        "passed": certified,
        "details": {"decided_by": d.decided_by, "certificate": d.certificate.kind},
    }


def _claim_davis5_pds() -> dict:
    rep = davis(5)
    pds = verify_pds(rep.group, rep.connection_set.elements, 155, 156)
    return {
        "passed": rep.connection_set.size == 312 and bool(pds),
        "details": {"set_size": rep.connection_set.size, "pds_155_156": bool(pds)},
    }


def _claim_davis5_scan() -> dict:
    # no certificate is inconclusive by design, never a negative proof
    cert, scanned = selfcomp_by_group_automorphism(davis(5).connection_set)
    return {
        "passed": cert is None and scanned == 300000,
        "details": {"certificate_found": cert is not None, "scanned": scanned},
    }


def _claim_lexprod() -> dict:
    conn = lex_product(paley(5).connection_set, paley(5).connection_set)
    g = build_cayley(conn)
    d, certified = _certified_selfcomp(g)  # full decider, no hint
    srg = check_srg(g)
    ok = conn.group.factors == (5, 5) and conn.size == 12 and certified
    ok = ok and d.certificate.kind == "vertex-bijection"
    return {
        "passed": ok and not srg.is_srg and srg.witness is not None,
        "details": {
            "selfcomp": d.isomorphic,
            "decided_by": d.decided_by,
            "srg_refuted": not srg.is_srg,
            "srg_reason": srg.reason,
        },
    }


def _claim_order_feasibility() -> dict:
    (f81, r81), (f45, r45), (f5625, r5625) = map(paley_type_order_feasible, (81, 45, 5625))
    return {
        "passed": f81 and not f45 and f5625,
        "details": {"81": r81, "45": r45, "5625": r5625},
    }


def _claim_davis5_decision() -> dict:
    rep = davis(5)
    g = build_cayley(rep.connection_set)
    d = is_self_complementary(g, hint=rep.connection_set, scan_automorphisms=False)
    cert = d.certificate
    # only the edge-neighborhood profile separates the graph from its complement
    ok = d.isomorphic is False and d.decided_by == "edge profile screen"
    ok = ok and cert.kind == "invariant-refutation"
    return {
        "passed": ok and cert.invariant == "edge-neighborhood-edge-profile",
        "details": {"selfcomp": d.isomorphic, "decided_by": d.decided_by, "invariant": cert.invariant},
    }


def _claim_davis5_fingerprint_agree() -> dict:
    g = build_cayley(davis(5).connection_set)
    fp, fp_complement = fingerprint(g), fingerprint(complement(g))
    differing = [f for f in Fingerprint.FIELDS if getattr(fp, f) != getattr(fp_complement, f)]
    return {
        "passed": not differing,
        "details": {"fields": list(Fingerprint.FIELDS), "differing": differing},
    }


class Claim(NamedTuple):
    """One claim: reproduce-paper runs it, and the acceptance tests require
    it to pass within bound_s seconds."""

    id: str
    claim: str
    tier: str  # "standard", or "extended" for reproduce-paper --extended only
    run: Callable[[], dict]  # -> {"passed": bool, "details": dict}
    bound_s: float


#: Every claim, in report order: the standard tier, then the extended one.
CLAIMS = (
    Claim("paley-family", "P_q for q in {5,9,13,25}: conference SRG, diameter 2, self-complementary with certificate",
          "standard", _claim_paley_family, 10.0),
    Claim("peisert-family", "P*_q for q in {9,49}: SRG (9,4,1,2)/(49,24,11,12), self-complementary with certificate",
          "standard", _claim_peisert_family, 30.0),
    Claim("davis3-pds", "davis(3): |S|=40 over Z9xZ9, PDS(19,20), SRG equation, mixed product t=20, Schur closure, SRG(81,40,19,20)",
          "standard", _claim_davis3_pds, 30.0),
    Claim("davis3-selfcomp", "davis(3) graph is self-complementary (the positive computer-checked case)",
          "standard", _claim_davis3_selfcomp, 30.0),
    Claim("davis5-pds", "davis(5): |S|=312, PDS(155,156) over Z25xZ25",
          "standard", _claim_davis5_pds, 150.0),
    Claim("davis5-scan", "davis(5): no self-complementarity certificate among all 300000 group automorphisms (inconclusive by design)",
          "standard", _claim_davis5_scan, 150.0),
    Claim("lexprod", "P5[P5] is self-complementary (full decider) but not strongly regular",
          "standard", _claim_lexprod, 10.0),
    Claim("order-feasibility", "orders 81 and 9*5^4 feasible, 45 infeasible",
          "standard", _claim_order_feasibility, 5.0),
    Claim("davis5-decision", "davis(5) graph is NOT self-complementary (full decision, any sound path)",
          "extended", _claim_davis5_decision, 1800.0),
    Claim("davis5-fingerprint-agree", "davis(5) graph and its complement agree on every fingerprint field: degrees, SRG parameters, triangles, 4-cliques, mod-p ranks, distance distribution",
          "extended", _claim_davis5_fingerprint_agree, 1800.0),
)


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = [c for c in CLAIMS if args.extended or c.tier == "standard"]
    report = {**_header("reproduce-paper"), "tier": "extended" if args.extended else "standard"}
    if args.list:
        report["claims"] = [{"id": r.id, "claim": r.claim} for r in rows]
        _emit(report, None, False)
        for r in rows:
            _eprint(f"{r.id:<18} {r.claim}")
        return EXIT_OK

    results = []
    timings: dict[str, float] = {}
    for r in rows:
        t0 = time.monotonic()
        outcome = r.run()
        timings[r.id] = time.monotonic() - t0
        results.append({"id": r.id, "claim": r.claim, **outcome})
        _eprint(f"{r.id:<18} {'pass' if outcome['passed'] else 'FAIL'}   ({timings[r.id]:.1f}s)")
    report["claims"] = results
    report["all_passed"] = all(r["passed"] for r in results)
    _emit(report, timings, args.timings)
    return EXIT_OK if report["all_passed"] else EXIT_REFUTED


# --- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycert",
        description=(
            "Construct self-complementary strongly regular Cayley graph families "
            "and certify their properties exactly."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cayleycert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family instance and write its files")
    c.add_argument("family", choices=["paley", "peisert", "davis", "lexprod"])
    c.add_argument("--q", type=int, help="field order for paley/peisert")
    c.add_argument("--p", type=int, help="odd prime for davis")
    c.add_argument("--generator", help="override Peisert primitive element, e.g. '1,1'")
    c.add_argument("--left", help="lexprod left operand family:param")
    c.add_argument("--right", help="lexprod right operand family:param")
    c.add_argument("--out", default=".", help="output directory")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run exact checks on a graph or connection set")
    v.add_argument("input", nargs="?", help="input file (.set, .g6, or edge list)")
    v.add_argument("--format", choices=["set", "graph6", "edgelist"])
    v.add_argument("--group", help="inline group spec, e.g. Z13 (with --set)")
    v.add_argument("--set", help="inline connection set, e.g. '1;3;4;9;10;12'")
    for check in CHECKS:
        v.add_argument(f"--{check.name}", action="store_true", help=check.help)
    v.add_argument("--node-budget", type=int, default=10**8)
    v.add_argument("--time-budget", type=float, default=None)
    v.add_argument("--timings", action="store_true", help="include timings in the JSON")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("reproduce-paper", help="re-run the computational claims")
    r.add_argument("--extended", action="store_true", help="include the davis(5) full decision")
    r.add_argument("--list", action="store_true", help="print the claim matrix without running")
    r.add_argument("--timings", action="store_true", help="include timings in the JSON")
    r.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
