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
verbs share: ``argparse``, ``errors``, ``multigraph`` and ``scheme``.
The handlers import the rest: ``graphs`` and ``structures`` load
``clstruct.classify``, ``verify`` loads ``clstruct.verify``, ``reduce``
and ``expand`` load ``clstruct.reduce``, and ``render`` loads
``clstruct.render``.  ``json`` loads at the first JSON document a call
writes (``scheme._write``).  The ``--budget`` default,
``classify.DEFAULT_BUDGET``, is put in by ``structures`` when the flag
is absent.

Exit codes: 0 success, 1 usage error, 2 malformed or invalid input,
3 budget or size cap exceeded, 4 verification failure.  2 and 3 follow
the exception class, with one ``clstruct: error:`` line on stderr.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import multigraph as mg
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
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0  # a byte-order mark
    try:
        return data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = start + exc.start  # counted in the file, mark included
        # number lines as the parsers do (str.splitlines) up to the bad byte
        line = len((data[start:bad].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not UTF-8 text: {exc.reason} "
                               f"at byte {bad}") from None


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
    from . import reduce as rd  # imported here: only reduce and expand use it
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
    from . import reduce as rd
    name, s = sch.parse_scheme(_read(args.input))
    result = rd.expand_vertex(s, args.vertex, tree_shape=args.shape)
    if args.format == "json":
        return sch._json(
            {"scheme": _scheme_doc(f"{name}-expanded", result)})
    return (f"# expanded vertex {args.vertex} ({args.shape})\n"
            + sch.format_scheme(f"{name}-expanded", result))


def _cmd_render(args) -> str:
    from . import render  # imported here: no other verb draws
    name, s = sch.parse_scheme(_read(args.input))
    return render.render(name, s, args.format)


def _cmd_verify(args) -> int:
    from . import verify  # imported here so the other verbs never load it
    return verify.run_verify(args.level, args.seed)
