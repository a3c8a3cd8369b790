"""Command-line front door.

Exit codes: 0 success / property holds, 1 usage or input error, 2 property
fails (a crown was found when checking crown-freeness, or a suite failed),
3 budget exceeded (a non-exhaustive result was still emitted).  JSON output
is a stable contract carrying a top-level "schema" field; text output is
human-oriented only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import discharging, lemmas
from .crowns import find_crown, link_graph
from .graphs import LinearThreeGraph, degree_vector, parse_json_graph, parse_l3g
from .search import exact_ex, lower_bound_construction, random_linear_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY_FAILS = 2
EXIT_BUDGET = 3


def _load_graph(path: str) -> LinearThreeGraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return parse_json_graph(text)
    return parse_l3g(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(obj: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(obj, indent=2))
    else:
        print(text)


def cmd_check(args) -> int:
    H = _load_graph(args.file)
    w = find_crown(H)
    if w is None:
        _emit({"schema": "crownfree/check-v1", "crown_free": True},
              args.json, "crown-free")
        return EXIT_OK
    obj = {"schema": "crownfree/check-v1", "crown_free": False, "witness": w.to_json_obj(H)}
    _emit(obj, args.json, json.dumps(obj["witness"]))
    return EXIT_PROPERTY_FAILS


def cmd_exact(args) -> int:
    cert = exact_ex(
        args.n,
        max_seconds=args.max_seconds,
        max_nodes=args.max_nodes,
    )
    obj = {"schema": "crownfree/certificate-v2", **cert.to_json_obj()}
    text = (
        f"ex({cert.n}, crown) = {cert.value} "
        f"({'exhaustive' if cert.exhaustive else 'INCOMPLETE'}; "
        f"{cert.nodes_explored} nodes, {cert.elapsed_seconds:.2f}s)"
    )
    _emit(obj, args.json, text)
    return EXIT_OK if cert.exhaustive else EXIT_BUDGET


def cmd_construct(args) -> int:
    sys.stdout.write(lower_bound_construction(args.n).to_l3g())
    return EXIT_OK


def cmd_random(args) -> int:
    sys.stdout.write(random_linear_graph(args.n, args.m, args.seed).to_l3g())
    return EXIT_OK


def cmd_link(args) -> int:
    H = _load_graph(args.file)
    G = link_graph(H, args.edge)
    if args.dot:
        sys.stdout.write(G.to_dot())
    else:
        obj = {
            "schema": "crownfree/link-v1",
            "base": list(G.base),
            "vertices": sorted(G.vertices),
            "colored_edges": [list(e) for e in G.colored_edges],
        }
        print(json.dumps(obj, indent=2))
    return EXIT_OK


def cmd_discharge(args) -> int:
    H = _load_graph(args.file)
    degs = H.degrees()
    n = H.n
    large = sorted(discharging.large_set(H))
    per_edge = []
    for edge in H.edges:
        s, s_star = discharging._star_sums(degs, edge)
        per_edge.append({
            "edge": list(edge),
            "degree_vector": degree_vector(degs, edge),
            "s": s,
            "s_star": s_star,
        })
    rhs = discharging.lemma2_rhs(n, len(large))
    obj = {
        "schema": "crownfree/discharge-v1",
        "n": n,
        "m": len(H.edges),
        "degrees": degs,
        "large_vertices": large,
        "edges": per_edge,
        "t_star": discharging.t_star(H),
        "lemma2_rhs": {"num": rhs.numerator, "den": rhs.denominator,
                       "gt_14": rhs > 14, "gt_15": rhs > 15},
    }
    # the redistribution trace only applies when the degree sum is 5n + l
    try:
        trace = discharging.build_discharge_sequence(degs)
        obj["trace"] = trace.to_json_obj()
    except discharging.DegreePreconditionError as exc:
        obj["trace"] = None
        obj["trace_skipped_reason"] = str(exc)
    lines = [
        f"n={n} m={len(H.edges)} T*={obj['t_star']} L={large}",
        f"lemma2 rhs = {rhs} (>{14}: {rhs > 14}, >{15}: {rhs > 15})",
    ]
    if obj["trace"] is None:
        lines.append(f"trace skipped: {obj['trace_skipped_reason']}")
    else:
        lines.append(f"trace: k={len(obj['trace']['steps'])} residue={obj['trace']['residue']}")
    _emit(obj, args.json, "\n".join(lines))
    return EXIT_OK


def cmd_lemmas(args) -> int:
    names = list(lemmas.ALL_SUITES) if args.suite == "all" else [args.suite]
    reports = [lemmas.run_suite(nm, seed=args.seed, count=args.count) for nm in names]
    obj = {"schema": "crownfree/reports-v1", "reports": [r.to_json_obj() for r in reports]}
    lines = [r.summary() for r in reports]
    if args.suite == "order11":
        lines.append(str(lemmas.min_counterexample_order()))
    _emit(obj, args.json, "\n".join(lines))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_PROPERTY_FAILS


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crownfree",
                                description="Crown-free linear 3-graph toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a graph and report crown-freeness")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("exact", help="exact crown Turán number by exhaustive search")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--max-seconds", type=float, default=None)
    c.add_argument("--max-nodes", type=int, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_exact)

    c = sub.add_parser("construct", help="lower-bound construction in L3G format")
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("random", help="seeded random linear graph in L3G format")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(func=cmd_random)

    c = sub.add_parser("link", help="colored link graph of an edge")
    c.add_argument("file")
    c.add_argument("--edge", type=int, required=True)
    c.add_argument("--dot", action="store_true")
    c.set_defaults(func=cmd_link)

    c = sub.add_parser("discharge", help="degrees, star sums, T*, and the trace")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_discharge)

    c = sub.add_parser("lemmas", help="run the lemma replay suites")
    c.add_argument("--suite", default="all",
                   choices=["all"] + sorted(lemmas.ALL_SUITES))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--count", type=_positive_int, default=1000)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_lemmas)

    return p


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # LinearityError is a ValueError; an edge id that names no edge is
    # edge()'s IndexError; an n too large to index a list is an
    # OverflowError, and one too large to allocate a list of is a MemoryError
    except (ValueError, IndexError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
