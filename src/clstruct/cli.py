"""Command-line interface: parsing, dispatch and the writers over the
library calls; ``verify`` runs the suites of ``clstruct.verify``.

    clstruct graphs --q 3
    clstruct structures --q 2 --format json
    clstruct trace --input scheme.txt
    clstruct reduce --input scheme.txt --format json
    clstruct expand --input scheme.txt --vertex 0
    clstruct render --input scheme.txt --format svg
    clstruct verify --level default --seed 0

Each subparser names its handler, which returns the exact text of its
verb's output; ``main`` alone writes it and picks the exit code.  Only
``verify`` streams its report and returns ``verify.run_verify``'s code.

Every CLI call pays this module's import, so it loads only what all
verbs share: ``multigraph``, ``scheme`` (with the JSON writer
``scheme._json``) and ``reduce``.  ``graphs`` and ``structures`` import
``clstruct.classify`` in their handlers and ``verify`` imports
``clstruct.verify``; ``trace``, ``reduce``, ``expand`` and ``render``
load neither.  The ``--budget`` default, ``classify.DEFAULT_BUDGET``,
is put in by ``structures`` when the flag is absent.

Exit codes: 0 success, 1 usage error, 2 malformed or invalid input,
3 budget or size cap exceeded, 4 verification failure.  2 and 3 follow
the exception class, with one ``clstruct: error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

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
    g.set_defaults(handler=_cmd_graphs)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--format", choices=("text", "json"), default="text")

    s = sub.add_parser("structures",
                       help="classify structures for a rank or a graph file")
    s.set_defaults(handler=_cmd_structures)
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--q", type=int)
    source.add_argument("--input")
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.add_argument("--threads", type=_int_at_least(1), default=1)
    s.add_argument("--budget", type=_int_at_least(0))

    t = sub.add_parser("trace", help="boundary-trace a scheme file")
    t.set_defaults(handler=_cmd_trace)
    t.add_argument("--input", required=True)
    t.add_argument("--format", choices=("text", "json"), default="text")

    r = sub.add_parser("reduce", help="expand a scheme to cubic form")
    r.set_defaults(handler=_cmd_reduce)
    r.add_argument("--input", required=True)
    r.add_argument("--shape", choices=("comb", "balanced"), default="comb")
    r.add_argument("--format", choices=("text", "json"), default="text")

    e = sub.add_parser("expand", help="expand one high-degree vertex")
    e.set_defaults(handler=_cmd_expand)
    e.add_argument("--input", required=True)
    e.add_argument("--vertex", type=int, required=True)
    e.add_argument("--shape", choices=("comb", "balanced"), default="comb")
    e.add_argument("--format", choices=("text", "json"), default="text")

    n = sub.add_parser("render", help="draw a scheme (x = switched edge)")
    n.set_defaults(handler=_cmd_render)
    n.add_argument("--input", required=True)
    n.add_argument("--format", choices=("text", "json", "dot", "svg"),
                   default="text")

    v = sub.add_parser("verify", help="run the invariant suites")
    v.set_defaults(handler=_cmd_verify)
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
    try:
        out = args.handler(args)
        # verify streams its report itself and returns its exit code
        code, out = (out, "") if isinstance(out, int) else (0, out)
        sys.stdout.write(out)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (`clstruct ... | head`): stop quietly, and
        # send what is still buffered to the null device, not to the
        # closed pipe at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ClstructError, OSError) as exc:
        print(f"clstruct: error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (BudgetExceeded, TooLarge)) else 2


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


# --- verb handlers: each returns the exact text of its output ---

def _cmd_graphs(args) -> str:
    from . import classify  # imported here: the scheme verbs never load it
    graphs = classify.generate_cubic_graphs(args.q)
    if args.format == "json":
        return sch._json({"q": args.q, "count": len(graphs),
                          "graphs": [{"n_vertices": g.n_vertices,
                                      "edges": g.edges}
                                     for g in graphs]})
    if not graphs:
        return (f"no cubic multigraphs with q = {args.q} "
                f"(cubic needs V = 2(q-1) > 0)\n")
    lines = [f"{len(graphs)} cubic multigraphs with q = {args.q}"]
    lines += [classify._graph_line(i, g) for i, g in enumerate(graphs)]
    return "\n".join(lines) + "\n"


def _cmd_structures(args) -> str:
    from . import classify
    # to the library None means no budget; an absent flag means the default
    budget = classify.DEFAULT_BUDGET if args.budget is None else args.budget
    if args.q is not None:
        cat = classify.catalog(args.q, threads=args.threads, budget=budget)
    else:
        _name, g = mg.parse_graph(_read(args.input))
        classes = classify.equivalence_classes(g, threads=args.threads,
                                               budget=budget)
        cat = classify.Catalog(mg.cycle_rank(g), (g,), (classes,),
                               len(classes))
    return (classify.catalog_to_json(cat) if args.format == "json"
            else classify.catalog_to_text(cat))


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


def _cmd_trace(args) -> str:
    name, s = sch.parse_scheme(_read(args.input))
    doc = _trace_doc(name, s)
    if args.format == "json":
        return sch._json(doc)
    switched = " ".join(str(e) for e in doc["switched_edges"]) or "none"
    strip = {True: "yes", False: "no",
             None: "n/a (graph is not its cyclic part)"}[doc["strip"]]
    return (f"scheme: {doc['name']}\n"
            f"boundary circles: {doc['boundary_circles']}\n"
            f"strip: {strip}\n"
            f"switched edges: {switched}\n"
            f"orientable: {'yes' if doc['orientable'] else 'no'}\n"
            f"euler characteristic: patch {doc['euler_patch']}, "
            f"capped {doc['euler_closed']}\n"
            f"capped surface: {doc['capped_surface']}\n")


def _scheme_doc(name, s):
    return {"name": name,
            "n_vertices": s.graph.n_vertices,
            "edges": s.graph.edges,
            "rotation": [[sch.dart_name(h) for h in cyc]
                         for cyc in s.rotation],
            "signs": s.signs,
            "text": sch.format_scheme(name, s)}


def _cmd_reduce(args) -> str:
    name, s = sch.parse_scheme(_read(args.input))
    result, steps = rd.reduce_to_cubic(s, tree_shape=args.shape)
    if args.format == "json":
        return sch._json({"steps": [st._asdict() for st in steps],
                          "scheme": _scheme_doc(f"{name}-cubic", result)})
    return "".join([f"# step {i}: expand vertex {st.vertex} "
                    f"-> internal edges {list(st.new_edges)}\n"
                    for i, st in enumerate(steps)]
                   + [sch.format_scheme(f"{name}-cubic", result)])


def _cmd_expand(args) -> str:
    name, s = sch.parse_scheme(_read(args.input))
    result = rd.expand_vertex(s, args.vertex, tree_shape=args.shape)
    if args.format == "json":
        return sch._json(
            {"scheme": _scheme_doc(f"{name}-expanded", result)})
    return (f"# expanded vertex {args.vertex} ({args.shape})\n"
            + sch.format_scheme(f"{name}-expanded", result))


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


def _cmd_render(args) -> str:
    name, s = sch.parse_scheme(_read(args.input))
    g = s.graph
    if args.format == "text":
        lines = [f"render {name}"]
        lines += [f"vertex {v}" for v in range(g.n_vertices)]
        lines += [f"edge {e} {u}-{v} {_edge_mark(s, e)}"
                  for e, (u, v) in enumerate(g.edges)]
        return "\n".join(lines) + "\n"
    if args.format == "json":
        pos = _layout(g)
        return sch._json(
            {"name": name,
             "layout": {str(v): [round(x, 1), round(y, 1)]
                        for v, (x, y) in pos.items()},
             "edges": [{"id": e, "u": u, "v": v, "mark": _edge_mark(s, e)}
                       for e, (u, v) in enumerate(g.edges)]})
    if args.format == "dot":
        quoted = name.replace("\\", "\\\\").replace('"', '\\"')
        lines = [f'graph "{quoted}" {{']
        lines += [f"  {v};" for v in range(g.n_vertices)]
        lines += [f'  {u} -- {v} [label="{_edge_mark(s, e)}"];'
                  for e, (u, v) in enumerate(g.edges)]
        return "\n".join(lines) + "\n}\n"
    return _render_svg(name, s)


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
