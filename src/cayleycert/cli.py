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
from pathlib import Path
from typing import Optional

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
    check_srg,
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
from .iso import fingerprint, is_self_complementary, selfcomp_by_group_automorphism

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _emit(report: dict, timings: Optional[dict], want_timings: bool) -> None:
    if want_timings and timings:
        report = dict(report)
        report["timings_s"] = {k: round(v, 3) for k, v in timings.items()}
    print(json.dumps(report, indent=2, sort_keys=True))


# --- construct -------------------------------------------------------------------


def _build_family(spec: str) -> ConstructionReport:
    """Parse "family:param" (e.g. paley:13, davis:3) for lexprod operands."""
    try:
        family, _, param = spec.partition(":")
        value = int(param)
    except ValueError:
        raise ValueError(f"operand {spec!r} is not family:integer")
    if family == "paley":
        return paley(value)
    if family == "peisert":
        return peisert(value)
    if family == "davis":
        return davis(value)
    raise ValueError(f"unknown family {family!r} in operand {spec!r}")


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        if args.family == "paley":
            if args.q is None:
                raise ValueError("paley needs --q")
            report = paley(args.q)
            stem = f"paley{args.q}"
        elif args.family == "peisert":
            if args.q is None:
                raise ValueError("peisert needs --q")
            generator = None
            if args.generator:
                generator = tuple(int(c) for c in args.generator.split(","))
            report = peisert(args.q, generator)
            stem = f"peisert{args.q}"
        elif args.family == "davis":
            if args.p is None:
                raise ValueError("davis needs --p")
            report = davis(args.p)
            stem = f"davis{args.p}"
        else:  # lexprod
            if not args.left or not args.right:
                raise ValueError("lexprod needs --left and --right family:param")
            left = _build_family(args.left)
            right = _build_family(args.right)
            conn = lex_product(left.connection_set, right.connection_set)
            report = ConstructionReport(
                family="lexprod",
                params={"left": args.left, "right": args.right},
                group=conn.group,
                connection_set=conn,
                notes={"left": left.to_json_dict(), "right": right.to_json_dict()},
            )
            stem = f"lexprod_{args.left}_{args.right}".replace(":", "")
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
        "tool": "cayleycert",
        "version": __version__,
        "command": "construct",
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


def _check_srg(graph: DenseGraph) -> dict:
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


def _check_dr(graph: DenseGraph) -> dict:
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


def _check_pds(graph: DenseGraph, conn: ConnectionSet) -> dict:
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


def _check_schur(graph: DenseGraph, conn: ConnectionSet) -> dict:
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
    out = {
        "passed": decision.isomorphic is True,
        "self_complementary": decision.isomorphic,
        "decided_by": decision.decided_by,
        "certificate": decision.certificate.to_json_dict(),
    }
    return out


def _check_invariants(graph: DenseGraph, conn: Optional[ConnectionSet]) -> dict:
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

    requested = [
        name
        for name, on in (
            ("srg", args.srg),
            ("dr", args.dr),
            ("pds", args.pds),
            ("schur", args.schur),
            ("selfcomp", args.selfcomp),
            ("invariants", args.invariants),
        )
        if on
    ]
    if not requested:
        _eprint("error: no checks requested (use --srg/--dr/--pds/--schur/--selfcomp/--invariants)")
        return EXIT_USAGE
    if conn is None and ("pds" in requested or "schur" in requested):
        _eprint(
            "error: --pds/--schur need the group structure; "
            "supply a connection-set (.set) input instead of a bare graph"
        )
        return EXIT_USAGE

    checks: dict[str, dict] = {}
    for name in requested:
        t0 = time.monotonic()
        if name == "srg":
            checks[name] = _check_srg(graph)
        elif name == "dr":
            checks[name] = _check_dr(graph)
        elif name == "pds":
            checks[name] = _check_pds(graph, conn)
        elif name == "schur":
            checks[name] = _check_schur(graph, conn)
        elif name == "selfcomp":
            checks[name] = _check_selfcomp(graph, conn, args)
        elif name == "invariants":
            checks[name] = _check_invariants(graph, conn)
        timings[name] = time.monotonic() - t0

    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "tool": "cayleycert",
        "version": __version__,
        "command": "verify",
        "parameters": {
            "input": args.input if args.input else {"group": args.group, "set": args.set},
            "checks": requested,
        },
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "checks": checks,
        "all_passed": all_passed,
    }
    _emit(report, timings, args.timings)
    for name in requested:
        status = "pass" if checks[name]["passed"] else "FAIL"
        _eprint(f"{name:<12} {status}   ({timings[name]:.2f}s)")
    return EXIT_OK if all_passed else EXIT_REFUTED


# --- reproduce-paper ---------------------------------------------------------------


def _claim_rows(extended: bool) -> list[dict]:
    rows = [
        {
            "id": "paley-family",
            "claim": "P_q for q in {5,9,13,25}: conference SRG, diameter 2, self-complementary with certificate",
        },
        {
            "id": "peisert-family",
            "claim": "P*_q for q in {9,49}: SRG (9,4,1,2)/(49,24,11,12), self-complementary with certificate",
        },
        {
            "id": "davis3-pds",
            "claim": "davis(3): |S|=40 over Z9xZ9, PDS(19,20), SRG equation, mixed product t=20, Schur closure, SRG(81,40,19,20)",
        },
        {
            "id": "davis3-selfcomp",
            "claim": "davis(3) graph is self-complementary (the positive computer-checked case)",
        },
        {
            "id": "davis5-pds",
            "claim": "davis(5): |S|=312, PDS(155,156) over Z25xZ25",
        },
        {
            "id": "davis5-scan",
            "claim": "davis(5): no self-complementarity certificate among all 300000 group automorphisms (inconclusive by design)",
        },
        {
            "id": "lexprod",
            "claim": "P5[P5] is self-complementary (full decider) but not strongly regular",
        },
        {
            "id": "order-feasibility",
            "claim": "orders 81 and 9*5^4 feasible, 45 infeasible",
        },
    ]
    if extended:
        rows.append(
            {
                "id": "davis5-decision",
                "claim": "davis(5) graph is NOT self-complementary (full decision, any sound path)",
            }
        )
    return rows


def _run_claim(row_id: str) -> dict:
    if row_id == "paley-family":
        details = {}
        ok = True
        for q in (5, 9, 13, 25):
            rep = paley(q)
            g = build_cayley(rep.connection_set)
            srg = check_srg(g)
            t = (q - 1) // 4
            want = (4 * t + 1, 2 * t, t - 1, t)
            d = is_self_complementary(g, hint=rep.connection_set)
            good = (
                srg.is_srg
                and srg.params.as_tuple() == want
                and diameter(g) == 2
                and d.isomorphic is True
            )
            ok = ok and good
            details[f"q{q}"] = {
                "srg": list(srg.params.as_tuple()) if srg.is_srg else None,
                "diameter": diameter(g),
                "selfcomp": d.isomorphic,
                "certificate": d.certificate.kind,
            }
        return {"passed": ok, "details": details}
    if row_id == "peisert-family":
        details = {}
        ok = True
        for q, want in ((9, (9, 4, 1, 2)), (49, (49, 24, 11, 12))):
            rep = peisert(q)
            g = build_cayley(rep.connection_set)
            srg = check_srg(g)
            d = is_self_complementary(g, hint=rep.connection_set)
            good = srg.is_srg and srg.params.as_tuple() == want and d.isomorphic is True
            ok = ok and good
            details[f"q{q}"] = {
                "srg": list(srg.params.as_tuple()) if srg.is_srg else None,
                "selfcomp": d.isomorphic,
            }
        return {"passed": ok, "details": details}
    if row_id == "davis3-pds":
        rep = davis(3)
        conn = rep.connection_set
        g = build_cayley(conn)
        srg = check_srg(g)
        pds = verify_pds(rep.group, conn.elements, 19, 20)
        eq = verify_srg_equation(rep.group, conn, (81, 40, 19, 20))
        mixed = verify_mixed_product(rep.group, conn, 20)
        schur = verify_schur_partition(rep.group, conn)
        ok = (
            conn.size == 40
            and bool(pds)
            and bool(eq)
            and bool(mixed)
            and bool(schur)
            and srg.is_srg
            and srg.params.as_tuple() == (81, 40, 19, 20)
        )
        return {
            "passed": ok,
            "details": {
                "set_size": conn.size,
                "pds_19_20": bool(pds),
                "srg_equation": bool(eq),
                "mixed_product_t20": bool(mixed),
                "schur": bool(schur),
                "srg": list(srg.params.as_tuple()) if srg.is_srg else None,
            },
        }
    if row_id == "davis3-selfcomp":
        rep = davis(3)
        g = build_cayley(rep.connection_set)
        d = is_self_complementary(g, hint=rep.connection_set)
        return {
            "passed": d.isomorphic is True,
            "details": {"decided_by": d.decided_by, "certificate": d.certificate.kind},
        }
    if row_id == "davis5-pds":
        rep = davis(5)
        pds = verify_pds(rep.group, rep.connection_set.elements, 155, 156)
        return {
            "passed": rep.connection_set.size == 312 and bool(pds),
            "details": {"set_size": rep.connection_set.size, "pds_155_156": bool(pds)},
        }
    if row_id == "davis5-scan":
        rep = davis(5)
        cert, scanned = selfcomp_by_group_automorphism(rep.connection_set)
        return {
            "passed": cert is None and scanned == 300000,
            "details": {"certificate_found": cert is not None, "scanned": scanned},
        }
    if row_id == "lexprod":
        conn = lex_product(paley(5).connection_set, paley(5).connection_set)
        g = build_cayley(conn)
        d = is_self_complementary(g)  # full decider, no hint
        srg = check_srg(g)
        return {
            "passed": d.isomorphic is True and not srg.is_srg,
            "details": {
                "selfcomp": d.isomorphic,
                "decided_by": d.decided_by,
                "srg_refuted": not srg.is_srg,
                "srg_reason": srg.reason,
            },
        }
    if row_id == "order-feasibility":
        f81, r81 = paley_type_order_feasible(81)
        f45, r45 = paley_type_order_feasible(45)
        f5625, r5625 = paley_type_order_feasible(5625)
        return {
            "passed": f81 and not f45 and f5625,
            "details": {"81": r81, "45": r45, "5625": r5625},
        }
    if row_id == "davis5-decision":
        rep = davis(5)
        g = build_cayley(rep.connection_set)
        d = is_self_complementary(g, hint=rep.connection_set, scan_automorphisms=False)
        return {
            "passed": d.isomorphic is False,
            "details": {
                "selfcomp": d.isomorphic,
                "decided_by": d.decided_by,
                "invariant": d.certificate.invariant,
            },
        }
    raise AssertionError(row_id)


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = _claim_rows(args.extended)
    if args.list:
        report = {
            "tool": "cayleycert",
            "version": __version__,
            "command": "reproduce-paper",
            "tier": "extended" if args.extended else "standard",
            "claims": [{"id": r["id"], "claim": r["claim"]} for r in rows],
        }
        _emit(report, None, False)
        for r in rows:
            _eprint(f"{r['id']:<18} {r['claim']}")
        return EXIT_OK

    results = []
    timings: dict[str, float] = {}
    all_ok = True
    for r in rows:
        t0 = time.monotonic()
        outcome = _run_claim(r["id"])
        timings[r["id"]] = time.monotonic() - t0
        all_ok = all_ok and outcome["passed"]
        results.append({"id": r["id"], "claim": r["claim"], **outcome})
        _eprint(
            f"{r['id']:<18} {'pass' if outcome['passed'] else 'FAIL'}"
            f"   ({timings[r['id']]:.1f}s)"
        )
    report = {
        "tool": "cayleycert",
        "version": __version__,
        "command": "reproduce-paper",
        "tier": "extended" if args.extended else "standard",
        "claims": results,
        "all_passed": all_ok,
    }
    _emit(report, timings, args.timings)
    return EXIT_OK if all_ok else EXIT_REFUTED


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
    v.add_argument("--srg", action="store_true", help="strong regularity")
    v.add_argument("--dr", action="store_true", help="distance regularity")
    v.add_argument("--pds", action="store_true", help="partial difference set (set input)")
    v.add_argument("--schur", action="store_true", help="Schur-ring closure (set input)")
    v.add_argument("--selfcomp", action="store_true", help="self-complementarity")
    v.add_argument("--invariants", action="store_true", help="fingerprint record")
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
