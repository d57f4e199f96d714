"""Command-line interface: parsing, dispatch and the writers over the
library calls; ``verify`` runs the suites of ``clstruct.verify``.

    clstruct graphs --q 3
    clstruct structures --q 2 --format json
    clstruct trace --input scheme.txt
    clstruct reduce --input scheme.txt --format json
    clstruct expand --input scheme.txt --vertex 0
    clstruct render --input scheme.txt --format svg
    clstruct verify --level default --seed 0

Exit codes: 0 success, 1 usage error, 2 malformed or invalid input,
3 budget or size cap exceeded, 4 verification failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import classify
from . import multigraph as mg
from . import reduce as rd
from . import scheme as sch
from .errors import BudgetExceeded, ClstructError, ParseError, TooLarge


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(prog="clstruct",
                description="Cut-locus structures on multigraphs: "
                            "catalogs, boundary tracing, reductions.")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("graphs", help="list cubic multigraphs by cycle rank")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("structures",
                       help="classify structures for a rank or a graph file")
    s.add_argument("--q", type=int)
    s.add_argument("--input")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--threads", type=_int_at_least(1), default=1)
    s.add_argument("--budget", type=_int_at_least(0),
                   default=classify.DEFAULT_BUDGET)

    t = sub.add_parser("trace", help="boundary-trace a scheme file")
    t.add_argument("--input", required=True)
    t.add_argument("--format", choices=("text", "json"), default="text")

    r = sub.add_parser("reduce", help="expand a scheme to cubic form")
    r.add_argument("--input", required=True)
    r.add_argument("--shape", choices=("comb", "balanced"), default="comb")
    r.add_argument("--format", choices=("text", "json"), default="text")

    e = sub.add_parser("expand", help="expand one high-degree vertex")
    e.add_argument("--input", required=True)
    e.add_argument("--vertex", type=int, required=True)
    e.add_argument("--shape", choices=("comb", "balanced"), default="comb")
    e.add_argument("--format", choices=("text", "json"), default="text")

    n = sub.add_parser("render", help="draw a scheme (x = switched edge)")
    n.add_argument("--input", required=True)
    n.add_argument("--format", choices=("text", "json", "dot", "svg"),
                   default="text")

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("--level", choices=("default", "extended"),
                   default="default")
    v.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handler = {
        "graphs": _cmd_graphs,
        "structures": _cmd_structures,
        "trace": _cmd_trace,
        "reduce": _cmd_reduce,
        "expand": _cmd_expand,
        "render": _cmd_render,
        "verify": _cmd_verify,
    }[args.verb]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (`clstruct ... | head`): stop quietly, and
        # send what is still buffered to the null device, not to the
        # closed pipe at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (BudgetExceeded, TooLarge) as exc:
        print(f"clstruct: error: {exc}", file=sys.stderr)
        return 3
    except (ClstructError, OSError) as exc:
        print(f"clstruct: error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as the parsers do (str.splitlines) up to the bad byte
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not UTF-8 text: {exc.reason} "
                               f"at byte {exc.start}") from None


# --- verb handlers ---

def _cmd_graphs(args) -> int:
    graphs = classify.generate_cubic_graphs(args.q)
    if args.format == "json":
        doc = {"q": args.q, "count": len(graphs),
               "graphs": [{"n_vertices": g.n_vertices,
                           "edges": g.edges}
                          for g in graphs]}
        print(classify._json(doc), end="")
        return 0
    if not graphs:
        print(f"no cubic multigraphs with q = {args.q} "
              f"(cubic needs V = 2(q-1) > 0)")
        return 0
    print(f"{len(graphs)} cubic multigraphs with q = {args.q}")
    for i, g in enumerate(graphs):
        print(classify._graph_line(i, g))
    return 0


def _cmd_structures(args) -> int:
    if (args.q is None) == (args.input is None):
        print("clstruct: error: structures needs exactly one of --q/--input",
              file=sys.stderr)
        return 1
    if args.q is not None:
        cat = classify.catalog(args.q, threads=args.threads,
                               budget=args.budget)
    else:
        _name, g = mg.parse_graph(_read(args.input))
        classes = classify.equivalence_classes(g, threads=args.threads,
                                               budget=args.budget)
        cat = classify.Catalog(mg.cycle_rank(g), (g,), (classes,),
                               len(classes))
    out = (classify.catalog_to_json(cat) if args.format == "json"
           else classify.catalog_to_text(cat))
    print(out, end="")
    return 0


def _trace_doc(name, s):
    surface = sch.surface_type(s)
    b = surface.boundary
    strip = b == 1 if mg.is_cyclic_part(s.graph) else None
    return {
        "name": name,
        "boundary_circles": b,
        "strip": strip,
        "switched_edges": sorted(sch.switched_edges(s)),
        "orientable": surface.orientable,
        "euler_patch": surface.euler_patch,
        "euler_closed": surface.euler_closed,
        "capped_surface": surface.capped_name,
    }


def _cmd_trace(args) -> int:
    name, s = sch.parse_scheme(_read(args.input))
    doc = _trace_doc(name, s)
    if args.format == "json":
        print(classify._json(doc), end="")
        return 0
    switched = " ".join(str(e) for e in doc["switched_edges"]) or "none"
    strip = {True: "yes", False: "no",
             None: "n/a (graph is not its cyclic part)"}[doc["strip"]]
    print(f"scheme: {doc['name']}")
    print(f"boundary circles: {doc['boundary_circles']}")
    print(f"strip: {strip}")
    print(f"switched edges: {switched}")
    print(f"orientable: {'yes' if doc['orientable'] else 'no'}")
    print(f"euler characteristic: patch {doc['euler_patch']}, "
          f"capped {doc['euler_closed']}")
    print(f"capped surface: {doc['capped_surface']}")
    return 0


def _scheme_doc(name, s):
    return {"name": name,
            "n_vertices": s.graph.n_vertices,
            "edges": s.graph.edges,
            "rotation": [[sch.dart_name(h) for h in cyc]
                         for cyc in s.rotation],
            "signs": s.signs,
            "text": sch.format_scheme(name, s)}


def _step_doc(step):
    return {"kind": step.kind, "vertex": step.vertex, "edge": step.edge,
            "new_vertices": step.new_vertices,
            "new_edges": step.new_edges,
            "dart_map": step.dart_map}


def _cmd_reduce(args) -> int:
    name, s = sch.parse_scheme(_read(args.input))
    result, steps = rd.reduce_to_cubic(s, tree_shape=args.shape)
    if args.format == "json":
        doc = {"steps": [_step_doc(st) for st in steps],
               "scheme": _scheme_doc(f"{name}-cubic", result)}
        print(classify._json(doc), end="")
        return 0
    for i, st in enumerate(steps):
        print(f"# step {i}: expand vertex {st.vertex} "
              f"-> internal edges {list(st.new_edges)}")
    print(sch.format_scheme(f"{name}-cubic", result), end="")
    return 0


def _cmd_expand(args) -> int:
    name, s = sch.parse_scheme(_read(args.input))
    result = rd.expand_vertex(s, args.vertex, tree_shape=args.shape)
    if args.format == "json":
        doc = {"scheme": _scheme_doc(f"{name}-expanded", result)}
        print(classify._json(doc), end="")
        return 0
    print(f"# expanded vertex {args.vertex} ({args.shape})")
    print(sch.format_scheme(f"{name}-expanded", result), end="")
    return 0


# --- rendering ---

def _layout(g):
    """Deterministic circular layout, radius 160, canvas 400x400."""
    pos = {}
    n = g.n_vertices
    for v in range(n):
        angle = 2 * math.pi * v / max(n, 1)
        pos[v] = (200 + 160 * math.sin(angle), 200 - 160 * math.cos(angle))
    return pos


def _edge_mark(s, e) -> str:
    return "x" if s.signs[e] == 1 else "="


def _cmd_render(args) -> int:
    name, s = sch.parse_scheme(_read(args.input))
    g = s.graph
    if args.format == "text":
        print(f"render {name}")
        for v in range(g.n_vertices):
            print(f"vertex {v}")
        for e, (u, v) in enumerate(g.edges):
            print(f"edge {e} {u}-{v} {_edge_mark(s, e)}")
        return 0
    if args.format == "json":
        pos = _layout(g)
        doc = {"name": name,
               "layout": {str(v): [round(x, 1), round(y, 1)]
                          for v, (x, y) in pos.items()},
               "edges": [{"id": e, "u": u, "v": v, "mark": _edge_mark(s, e)}
                         for e, (u, v) in enumerate(g.edges)]}
        print(classify._json(doc), end="")
        return 0
    if args.format == "dot":
        quoted = name.replace("\\", "\\\\").replace('"', '\\"')
        lines = [f'graph "{quoted}" {{']
        for v in range(g.n_vertices):
            lines.append(f"  {v};")
        for e, (u, v) in enumerate(g.edges):
            lines.append(f'  {u} -- {v} [label="{_edge_mark(s, e)}"];')
        lines.append("}")
        print("\n".join(lines))
        return 0
    print(_render_svg(name, s), end="")
    return 0


def _xml_text(text: str) -> str:
    """Escape text for XML character data (quotes need no escape there)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_svg(name, s) -> str:
    g = s.graph
    pos = _layout(g)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" width="400" '
             'height="400" viewBox="0 0 400 400">',
             f'  <title>{_xml_text(name)}</title>']
    # parallel edges are counted per unordered pair; an edge written the
    # other way round from its class's first gets the opposite offset,
    # which puts it on the side its k asks for
    seen_pair = {}
    for e, (u, v) in enumerate(g.edges):
        mark = _edge_mark(s, e)
        pair = (min(u, v), max(u, v))
        first, k = seen_pair.get(pair, ((u, v), 0))
        seen_pair[pair] = first, k + 1
        x1, y1 = pos[u]
        x2, y2 = pos[v]
        if u == v:
            r = 18 + 14 * k
            cx, cy = x1, y1 - r
            parts.append(f'  <circle cx="{cx:.1f}" cy="{cy:.1f}" '
                         f'r="{r:.1f}" fill="none" stroke="black"/>')
            lx, ly = cx, cy - r - 4
        else:
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            off = 22 * k * (1 if k % 2 else -1) * (1 if k else 0)
            if (u, v) != first:
                off = -off
            cx, cy = mx - dy / norm * off, my + dx / norm * off
            parts.append(f'  <path d="M {x1:.1f} {y1:.1f} Q {cx:.1f} '
                         f'{cy:.1f} {x2:.1f} {y2:.1f}" fill="none" '
                         f'stroke="black"/>')
            lx, ly = (x1 + 2 * cx + x2) / 4, (y1 + 2 * cy + y2) / 4 - 4
        parts.append(f'  <text x="{lx:.1f}" y="{ly:.1f}" '
                     f'text-anchor="middle" font-size="14">{mark}</text>')
    for v, (x, y) in pos.items():
        parts.append(f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="10" '
                     f'fill="white" stroke="black"/>')
        parts.append(f'  <text x="{x:.1f}" y="{y + 4:.1f}" '
                     f'text-anchor="middle" font-size="11">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_verify(args) -> int:
    from . import verify  # imported here so the other verbs never load it
    return verify.run_verify(args.level, args.seed)
