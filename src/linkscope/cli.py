"""Batch command-line front-end.

Exit codes: 0 success, 2 file or parse problems, 3 violated preconditions,
4 resource caps: the path cap of ``identify``, and measurements with more
digits than the interpreter's limit for printing integers (checked before any
reduction).  ``place`` searches no paths; its cap counts the constructed rows
fed and their rounds, and once it is spent before full rank
``verify_placement`` gives None: ``place`` exits 0 and reports
``"verified": null``.
All reports are JSON on stdout, built from the library's own records and
rendered by one rule, ``_plain``, the encoder's hook: a set prints as its
sorted members, a link (u, v) with u < v as "u-v", and a rational as its
exact "p/q" string ("p" when it is an integer).  JSON writes a tuple as a
list without calling the hook, so the two links that stand alone, a
``recovered`` key and a witness's ``link``, take ``_edge_str`` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .connectivity import bridges, cut_vertices, vertex_connectivity
from .errors import (
    DuplicateEdgeError,
    GraphParseError,
    LinkscopeError,
    NotFoundError,
    PathExplosionError,
    SelfLoopError,
)
from .graph import Graph, edge, parse_graph, parse_int, reachable, serialize, validate_monitors
from .identifiability import (
    DEFAULT_PATH_CAP,
    build_matrix,
    enumerate_monitor_paths,
    identifiable_links,
    recover,
    simulate,
)
from .placement import mmp, verify_placement
from .tomography import (
    condition_1,
    condition_2,
    prop2_characterization,
    prop5_both_sides,
    prop6_both_sides,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4

# the check that decided each ``verify_placement`` verdict
_EVIDENCE = {True: "constructed paths", False: "extended graph", None: None}


def _edge_str(e) -> str:
    return f"{e[0]}-{e[1]}"


def _plain(obj):
    """The report form of what JSON has no form for: a set is its sorted
    members, each link as "u-v", and a Fraction is its exact string.  Any
    other type is a TypeError, so no value reaches a report unrendered."""
    if isinstance(obj, (set, frozenset)):
        return [_edge_str(x) if isinstance(x, tuple) else x for x in sorted(obj)]
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"no report form for {type(obj).__name__}")


def _load_graph(path: str) -> Graph:
    # "utf-8-sig" drops a leading byte-order mark
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())


def _parse_monitors(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise GraphParseError(f"malformed monitor list {text!r}") from None


def _parse_link(text: str):
    parts = text.split("-")
    if len(parts) != 2:
        raise GraphParseError(f"malformed link {text!r}, expected 'u-v'")
    try:
        return edge(parse_int(parts[0]), parse_int(parts[1]))
    except ValueError:
        raise GraphParseError(f"malformed link {text!r}") from None


def _load_weights(path: str) -> dict:
    mapping = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphParseError(f"expected 'u v value', got {line!r}", lineno)
            if "e" in parts[2].lower():
                # Fraction would build 10**exponent with no bound on its size
                raise GraphParseError(f"exponent not allowed in weight {parts[2]!r}", lineno)
            if "_" in parts[2] or not parts[2].isascii():
                # Fraction reads digit-group underscores and non-ASCII digits
                raise GraphParseError(f"malformed weight line {line!r}", lineno)
            try:
                u, v = parse_int(parts[0]), parse_int(parts[1])
                value = Fraction(parts[2])
            except (ValueError, ZeroDivisionError):
                raise GraphParseError(f"malformed weight line {line!r}", lineno) from None
            if u < 0 or v < 0:
                raise GraphParseError("node ids must be non-negative", lineno)
            if u == v:
                raise SelfLoopError(f"self-loop at node {u}", lineno)
            link = edge(u, v)
            if link in mapping:
                raise DuplicateEdgeError(f"duplicate weight for link {u} {v}", lineno)
            mapping[link] = value
    return mapping


def _default_cap() -> int:
    env = os.environ.get("LINKSCOPE_PATH_CAP")
    if env is None:
        return DEFAULT_PATH_CAP
    try:
        cap = parse_int(env)
    except ValueError:
        raise GraphParseError(f"bad LINKSCOPE_PATH_CAP value {env!r}") from None
    if cap < 1:
        raise ValueError("cap must be positive")
    return cap


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True, default=_plain))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    monitors = validate_monitors(g, _parse_monitors(args.monitors), minimum=2)
    report: dict = {
        "graph": {"nodes": g.nodes, "edges": g.edges},
        "monitors": monitors,
        "bridges": bridges(g),
        "cut_vertices": cut_vertices(g),
        "vertex_connectivity": vertex_connectivity(g),
    }
    if len(monitors) == 2:
        m1, m2 = monitors
        interior = g.nodes - {m1, m2}
        report["condition1"] = condition_1(g, monitors)
        report["condition2"] = condition_2(g, monitors)
        report["prop2"] = (
            prop2_characterization(g, monitors) if g.node_count >= 4 else None
        )
        # the interior is what deleting both monitors leaves
        report["interior_connected"] = not interior or len(
            reachable(g.adj, (min(interior),), monitors)
        ) == len(interior)
        report["exterior_links"] = {e for e in g.edges if m1 in e or m2 in e}
    else:
        lhs5, rhs5 = prop5_both_sides(g, monitors)
        lhs6, rhs6 = prop6_both_sides(g, monitors)
        report["prop5"] = {"lhs": lhs5, "rhs": rhs5}
        report["prop6"] = {"lhs": lhs6, "rhs": rhs6}
    _emit(report)
    return EXIT_OK


def _cmd_place(args) -> int:
    g = _load_graph(args.graph)
    cap = _default_cap()  # a bad value exits before the placement runs
    trace = mmp(g, args.seed)
    verified = verify_placement(g, trace.monitors, cap=cap)
    report = {
        **trace._asdict(),
        "k_min": trace.k_min,
        "verified": verified,
        "evidence": _EVIDENCE[verified],
        "tiebreak": {"policy": "lowest" if args.seed is None else "seeded", "seed": args.seed},
        "per_triconnected": [r._asdict() for r in trace.per_triconnected],
        "per_biconnected": [r._asdict() for r in trace.per_biconnected],
        "decomposition": {
            "blocks": [
                {
                    **block._asdict(),
                    "c_b": block.c_b,
                    "triconnected_components": [{**comp._asdict(), "s_t": comp.s_t} for comp in comps],
                }
                for block, comps in trace.decomposition
            ]
        },
    }
    _emit(report)
    return EXIT_OK


def _cmd_identify(args) -> int:
    g = _load_graph(args.graph)
    monitors = validate_monitors(g, _parse_monitors(args.monitors), minimum=2)
    cap = _default_cap()
    report: dict = {"monitors": monitors}
    values = None
    if args.weights:
        # simulate checks that the weights cover the graph and are positive
        matrix, values = simulate(g, monitors, _load_weights(args.weights), cap)
        # str() refuses integers longer than the interpreter's digit limit;
        # check before the reduction (0, also on interpreters without a
        # limit, means unlimited)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            bound = 10**limit
            if any(abs(x.numerator) >= bound or x.denominator >= bound for x in values):
                print(
                    f"error: a measurement has more than {limit} digits, the limit for printing an integer",
                    file=sys.stderr,
                )
                return EXIT_CAP
        verdict, recovered = recover(matrix, values)
        report["measurements"] = values
        report["recovered"] = {_edge_str(e): x for e, x in recovered.items()}
    else:
        matrix = build_matrix(g, enumerate_monitor_paths(g, monitors, cap))
        verdict = identifiable_links(matrix)
    report.update(verdict._asdict(), paths=len(matrix.paths), fully_identifiable=verdict.fully_identifiable)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8") as fh:
            for i, path in enumerate(matrix.paths):
                row = "".join("1" if c in matrix.rows[i] else "0" for c in range(len(matrix.edge_index)))
                value = str(values[i]) if values is not None else ""
                fh.write(f"{','.join(str(v) for v in path)} ; {row} ; {value}\n")
    _emit(report)
    return EXIT_OK


def _cmd_witness(args) -> int:
    from .witness import find_lemma3_witness, find_lemma4_witness, find_nonseparating_cycle

    g = _load_graph(args.graph)
    monitors = validate_monitors(g, _parse_monitors(args.monitors), minimum=2)
    link = _parse_link(args.link)
    if args.kind == "nonsep":
        cycle = find_nonseparating_cycle(g, link, monitors, args.exclude_monitors)
        report = {"kind": args.kind, "found": cycle is not None}
        if cycle is not None:
            report["cycle"] = cycle
    else:
        if args.exclude_monitors:
            raise ValueError("--exclude-monitors applies only to --kind nonsep")
        find = find_lemma3_witness if args.kind == "lemma3" else find_lemma4_witness
        w = find(g, link, monitors)
        report = {"kind": args.kind, "found": w is not None}
        if w is not None:
            report.update(vars(w), link=_edge_str(w.link))
    _emit(report)
    return EXIT_OK


def _cmd_corpus_dump(args) -> int:
    from .corpus import named_fixtures

    fixtures = named_fixtures()
    if args.name not in fixtures:
        raise NotFoundError(f"unknown fixture {args.name!r}; have {sorted(fixtures)}")
    g, monitors = fixtures[args.name]
    text = f"# monitors: {','.join(str(m) for m in monitors)}\n" + serialize(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="linkscope")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate identifiability conditions")
    p.add_argument("graph")
    p.add_argument("--monitors", required=True, help="comma-separated node ids")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("place", help="compute a minimum monitor placement")
    p.add_argument("graph")
    p.add_argument("--seed", type=parse_int, help="sample each stage's free choice with this seed")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("identify", help="rank oracle, simulation and recovery")
    p.add_argument("graph")
    p.add_argument("--monitors", required=True)
    p.add_argument("--weights", help="file of 'u v value' rational weights")
    p.add_argument("--dump-matrix", help="write 'path ; incidence ; value' rows here")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("witness", help="search cycle/path witness structures")
    p.add_argument("graph")
    p.add_argument("--monitors", required=True)
    p.add_argument("--link", required=True, help="target link as 'u-v'")
    p.add_argument("--kind", choices=("lemma3", "lemma4", "nonsep"), required=True)
    p.add_argument("--exclude-monitors", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("corpus", help="fixture utilities")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    d = corpus_sub.add_parser("dump", help="write a named fixture as edge-list text")
    d.add_argument("name")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_corpus_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except PathExplosionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CAP
    except (OSError, UnicodeDecodeError, GraphParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except (LinkscopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PRECONDITION
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
