"""Reduction moves between schemes of equal cycle rank.

Contracting an unswitched non-loop edge merges its endpoints and
splices their rotations; expanding a vertex of degree d > 3 replaces it
with a cubic tree whose leaves carry the original darts in the original
cyclic order and whose internal edges are unswitched.  Both moves
preserve the boundary count, orientability, the capped Euler
characteristic, and the cycle rank, so every scheme reduces to a scheme
on a cubic graph with the same surface data.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import multigraph as mg
from .errors import (ClstructError, DegreeTooSmall, LoopContraction,
                     NoSuchVertex, NotCyclicPart, SwitchedContraction,
                     UnknownTreeShape)
from .scheme import Scheme, _anchor


@dataclass(frozen=True)
class ReductionStep:
    """Record of one move, with enough detail to replay or invert it.

    dart_map sends surviving old darts to their new ids (a bijection on
    darts not destroyed by the move); new_vertices / new_edges list ids
    created by an expansion (its internal tree).  ``reduce_to_cubic``
    records only "expand" steps: their ``edge`` is None and their
    dart_map is the identity, since an expansion keeps every old dart.
    """

    kind: str  # "contract" or "expand"
    vertex: int | None
    edge: int | None
    new_vertices: tuple[int, ...]
    new_edges: tuple[int, ...]
    dart_map: tuple[tuple[int, int], ...]


def high_degree_count(g: mg.Multigraph) -> int:
    """Number of vertices of degree greater than 3."""
    return sum(1 for d in g.degrees() if d > 3)


def contract_unswitched(s: Scheme, e: int) -> Scheme:
    """Contract a non-loop edge with sign 0.

    With e = (u, v), the merged vertex takes the place of u and v
    disappears: vertex ids above v and edge ids above e shift down by
    one, dart ids above those of e by two.  The merged rotation
    replaces dart e.0 inside the rotation of u by the rotation of v
    read from just after dart e.1 around; this is exactly what
    flattening the band of e into the two vertex disks does to the
    boundary order.

    ``s`` must be a valid scheme with anchored rotations, as
    ``make_scheme`` returns; the result is then one too, and is built
    without validating it again.
    """
    g = s.graph
    if not (0 <= e < g.n_edges):
        raise ClstructError(f"no edge {e}")
    u, v = g.edges[e]
    if u == v:
        raise LoopContraction(f"edge {e} is a loop")
    if s.signs[e] != 0:
        raise SwitchedContraction(f"edge {e} is switched; flip a vertex first")

    h, k = 2 * e, 2 * e + 1
    ru, rv = s.rotation[u], s.rotation[v]
    iu, iv = ru.index(h), rv.index(k)
    rotation = list(s.rotation)
    rotation[u] = _anchor(ru[:iu] + rv[iv + 1:] + rv[:iv] + ru[iu + 1:])
    del rotation[v]

    # new id of each old vertex: v becomes u, ids above v drop by one
    ids = [*range(v), u - (u > v), *range(v, g.n_vertices - 1)]
    # the shift keeps the order of the darts left, so every anchor holds
    rotation = tuple(tuple([t - 2 if t > h else t for t in cyc])
                     for cyc in rotation)
    edges = tuple([(ids[a], ids[b])
                   for a, b in g.edges[:e] + g.edges[e + 1:]])
    signs = s.signs[:e] + s.signs[e + 1:]
    # contracting a non-loop edge keeps the graph connected
    return Scheme(mg.Multigraph(g.n_vertices - 1, edges), rotation, signs)


def expand_vertex(s: Scheme, v: int, tree_shape: str = "comb") -> Scheme:
    """Replace a vertex of degree d > 3 by a cubic tree.

    The d darts at v attach to the tree leaves in their original cyclic
    order; the d - 3 tree edges are unswitched.  A root edge joins
    the tree over the first k darts to the tree over the rest.  Each
    tree vertex holds the dart that hangs it from its parent and splits
    its own darts in two parts; a one-dart part stays at the vertex, a
    longer part hangs below it on a new edge.  tree_shape picks the
    split: "comb" (the default) takes k = 2 and then one dart at a time,
    a caterpillar; "balanced" takes k = (d + 1) // 2 and then the first
    half rounded up.  The choice never affects class-level results.

    The first tree vertex reuses the id of v.  The other tree vertices
    are appended after the existing vertices, and the tree edges (the
    root edge first) after the existing edges, both in pre-order, so
    every old dart keeps its id.

    ``s`` must be a valid scheme with anchored rotations, as
    ``make_scheme`` returns; the result is then one too, and is built
    without validating it again.
    """
    g = s.graph
    if not (0 <= v < g.n_vertices):
        raise NoSuchVertex(f"no vertex {v}")
    x = s.rotation[v]
    d = len(x)
    if d <= 3:
        raise DegreeTooSmall(f"vertex {v} has degree {d}, need > 3")
    if tree_shape not in ("comb", "balanced"):
        raise UnknownTreeShape(f"unknown tree shape {tree_shape!r}")

    n, m = g.n_vertices, g.n_edges
    k = 2 if tree_shape == "comb" else (d + 1) // 2
    ids = itertools.chain([v], range(n, n + d - 3))
    rotation = list(s.rotation) + [None] * (d - 3)
    ends = [list(ab) for ab in g.edges]
    ends += [[None, None] for _ in range(d - 3)]
    # (lo, hi, up, f): the tree vertex over darts x[lo:hi], hung on dart
    # up, whose subtree numbers its edges from f.  A subtree over j darts
    # has j - 2 edges, so ids follow from the sizes; the stack pops the
    # tree vertices in pre-order.
    stack = [(k, d, 2 * m + 1, m + k - 1), (0, k, 2 * m, m + 1)]
    while stack:
        lo, hi, up, f = stack.pop()
        w = next(ids)
        mid = lo + 1 if tree_shape == "comb" else lo + (hi - lo + 1) // 2
        darts = [up]
        below = []
        for a, b, e in ((lo, mid, f), (mid, hi, f + mid - lo - 1)):
            if b - a == 1:
                darts.append(x[a])
            else:
                darts.append(2 * e)
                below.append((a, b, 2 * e + 1, e + 1))
        stack += reversed(below)
        rotation[w] = _anchor(darts)
        for t in darts:
            ends[t >> 1][t & 1] = w
    # a tree in place of v keeps the graph connected
    return Scheme(mg.Multigraph(n + d - 3, tuple(map(tuple, ends))),
                  tuple(rotation), s.signs + (0,) * (d - 3))


def reduce_to_cubic(s: Scheme, tree_shape: str = "comb"):
    """Expand every vertex of degree > 3; returns (scheme, steps).

    One expansion per high-degree vertex (lowest id first), each
    installing a full cubic tree, so the number of steps equals the
    initial high_degree_count.  Cycle rank and boundary data are
    preserved throughout; the steps invert by contracting each
    expansion's internal edges.
    """
    if not mg.is_cyclic_part(s.graph):
        raise NotCyclicPart("reduction expects the cyclic part")
    steps = []
    # an expansion leaves every other vertex's degree as it was
    for v in [v for v, d in enumerate(s.graph.degrees()) if d > 3]:
        g = s.graph
        s = expand_vertex(s, v, tree_shape)
        steps.append(ReductionStep(
            "expand", v, None, tuple(range(g.n_vertices, s.graph.n_vertices)),
            tuple(range(g.n_edges, s.graph.n_edges)),
            tuple((h, h) for h in range(g.n_darts))))
    return s, tuple(steps)
