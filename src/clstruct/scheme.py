"""Signed rotation systems and the surfaces they describe.

A scheme fattens a multigraph into a surface with boundary: every
vertex becomes a disk whose boundary visits the incident darts in the
given cyclic order, and every edge becomes a band joining its two
darts.  The sign of an edge says whether its band has an odd number of
half-twists (1) or an even number (0), with every vertex disk carrying
the same canonical "up" side.  Under that convention the sign table is
exactly the per-edge switch parity: an edge is switched when its sign
is 1.

Two independent routes compute the number of boundary circles:
``boundary_trace`` walks dart-sides with a successor rule, while
``oracle_boundary_count`` builds the surface as glued polygons and
follows free arcs and rectangle sides from corner to corner.  They
must always agree; the second exists purely to check the first.
"""
from __future__ import annotations

from typing import NamedTuple

from . import multigraph as mg
from .errors import BadRotation, MissingSign, NoSuchVertex, ParseError
from .multigraph import Multigraph


class Scheme(NamedTuple):
    """A multigraph with a rotation system and edge signs.

    ``rotation[v]`` is the cyclic dart order at vertex v, stored
    anchored at its smallest dart.  ``signs[e]`` is 0 or 1.
    """

    graph: Multigraph
    rotation: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]


def _anchor(cycle):
    """Rotate a cyclic sequence so its smallest element comes first."""
    cycle = tuple(cycle)
    if not cycle:
        return cycle
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def make_scheme(g: Multigraph, rotation, signs) -> Scheme:
    """Validated constructor; normalizes every rotation to its anchor.

    Each rotation must list exactly the darts of its vertex
    (``g.darts()``)."""
    rotation = tuple(tuple(c) for c in rotation)
    if len(rotation) != g.n_vertices:
        raise BadRotation(
            f"rotation lists {len(rotation)} vertices, graph has "
            f"{g.n_vertices}")
    for v, (cyc, darts) in enumerate(zip(rotation, g.darts())):
        if tuple(sorted(cyc)) != darts:
            raise BadRotation(
                f"rotation at vertex {v} must list darts "
                f"{darts} exactly once, got {cyc}", v)
    try:
        signs = tuple(int(x) for x in signs)
    except (TypeError, ValueError):
        raise MissingSign(f"signs must be integers, got {signs!r}") from None
    if len(signs) != g.n_edges:
        raise MissingSign(
            f"{len(signs)} signs for {g.n_edges} edges")
    if any(x not in (0, 1) for x in signs):
        raise MissingSign(f"signs must be 0 or 1, got {signs}")
    return Scheme(g, tuple(_anchor(c) for c in rotation), signs)


# --- boundary tracing ---
#
# States are dart-sides (h, s) with s in {0, 1}, encoded as 2h + s.
# Crossing the band of h lands on its partner dart k = h ^ 1 with side
# s' = s xor sign(edge), that is on state 2k + s' = (2h + s) ^ 2 ^ sign;
# the walk then turns around the vertex disk of k: to the rotation
# successor of k when s' = 0, to the predecessor when s' = 1.  Orbits of
# this successor come in mirror pairs (the two sides of one boundary
# circle), so b = orbits / 2, plus one circle per dartless vertex (a
# bare disk).
#
# The turn is one merged table per rotation, indexed by the state
# 2k + s' and holding the next state 2h' + s' (h' the successor of k
# when s' = 0, its predecessor when s' = 1), so a whole step is
# ``turn[state ^ 2 ^ signs[state >> 2]]``.


class BoundaryTrace(NamedTuple):
    """Successor orbits, their mirror pairing, and the boundary count."""

    orbits: tuple[tuple[int, ...], ...]
    pairing: tuple[int, ...]
    b: int


def _turn_table(n_darts: int, rotation) -> list:
    """Next state after turning around a vertex disk, by entry state."""
    turn = [0] * (2 * n_darts)
    for cyc in rotation:
        prev = cyc[-1] if cyc else 0
        for h in cyc:  # prev is h's predecessor, h prev's successor
            turn[2 * prev] = 2 * h
            turn[2 * h + 1] = 2 * prev + 1
            prev = h
    return turn


def _single_orbit_strip(turn, table, masks) -> bool:
    """True when the orbit of dart-side (0, 0) has n_darts states, the
    signs read from the packed ``table``: state 2h + s steps as if its
    edge had sign 1 when ``table & masks[2h + s]``.

    Its mirror orbit then has n_darts states as well, so together they
    are all 2 n_darts states and the patch has one boundary circle.
    The walk stops as soon as it passes n_darts.  With no darts the
    patch is the point disk, which is a strip.  Exact on connected
    graphs, where only the point graph has a dartless vertex.
    """
    n_darts = len(turn) >> 1
    if not n_darts:
        return True
    st = 0
    for steps in range(1, n_darts + 1):
        st = turn[st ^ 3 if table & masks[st] else st ^ 2]
        if not st:
            return steps == n_darts
    return False


def boundary_trace(s: Scheme) -> BoundaryTrace:
    """Orbits of the dart-side successor rule; see the module notes."""
    g = s.graph
    nd = g.n_darts
    signs = s.signs
    turn = _turn_table(nd, s.rotation)

    orbit_of = [-1] * (2 * nd)
    orbits = []
    for start in range(2 * nd):
        if orbit_of[start] >= 0:
            continue
        idx = len(orbits)
        cur = []
        st = start
        while orbit_of[st] < 0:
            orbit_of[st] = idx
            cur.append(st)
            st = turn[st ^ 2 ^ signs[st >> 2]]
        assert st == start, "successor must be a permutation"
        orbits.append(tuple(cur))

    # mirror pairing: R(h, side) = (partner(h), side xor sign xor 1),
    # read off each orbit's first state, then checked on every state
    pairing = [orbit_of[o[0] ^ 3 ^ signs[o[0] >> 2]] for o in orbits]
    for st, idx in enumerate(orbit_of):
        j = orbit_of[st ^ 3 ^ signs[st >> 2]]
        assert j == pairing[idx], "reversal must map orbits to orbits"
        assert j != idx and pairing[j] == idx, \
            "reversal pairing must be a perfect matching"

    b = len(orbits) // 2 + s.rotation.count(())  # a bare disk is one circle
    return BoundaryTrace(tuple(orbits), tuple(pairing), b)


def is_strip(s: Scheme) -> bool:
    """True when the patch has exactly one boundary circle."""
    mg._check_cyclic_part(s.graph, "the strip test")
    return boundary_trace(s).b == 1


def oracle_boundary_count(s: Scheme) -> int:
    """Independent boundary count via explicit polygon gluing.

    Builds the patch from scratch: each vertex of degree d is a 2d-gon
    whose boundary alternates band-attachment arcs and free arcs (in
    rotation order), and each edge is a rectangle.  A rectangle end is
    glued to its arc orientation-reversing at the first dart; at the
    second dart it is glued reversing for sign 0 and preserving for
    sign 1 (the half-twist).  Shares nothing with boundary_trace.

    Every polygon corner ends one attachment arc, and every rectangle
    corner is glued to one arc end, so each glued point is a polygon
    corner and a rectangle corner, named by the polygon corner.  It
    ends one free arc and one free rectangle side, and the boundary
    circles are the cycles that take the two in turn.  The corners of
    the vertices are laid out one after another in vertex order, and
    dart h's arc runs from corner ``arc[h]`` to ``arc[h] + 1``.
    """
    n = 2 * s.graph.n_darts
    arc = [0] * (n >> 1)
    free = [-1] * n  # the far corner of the free arc at each corner
    o = 0
    for cyc in s.rotation:
        d2 = 2 * len(cyc)
        for i, h in enumerate(cyc):
            a = o + 2 * i
            c = o + (2 * i + 2) % d2
            arc[h] = a
            free[a + 1], free[c] = c, a + 1
        o += d2
    band = [-1] * n  # the far corner of the rectangle side at each corner
    for e, x in enumerate(s.signs):
        a0, a1 = arc[2 * e], arc[2 * e + 1]
        # rectangle corners p0..p3 glue to the arc ends a0 + 1, a0, then
        # a1 + 1, a1 (reversing) or a1, a1 + 1 (preserving); its free
        # sides are p1 p2 and p3 p0
        p0, p1 = a0 + 1, a0
        p2, p3 = (a1, a1 + 1) if x else (a1 + 1, a1)
        band[p1], band[p2], band[p3], band[p0] = p2, p1, p0, p3
    # n ends were set in each list, so none left unset means one each
    assert -1 not in free and -1 not in band, \
        "every corner must end one free arc and one rectangle side"
    seen = [False] * n
    circles = 0
    for x in range(n):
        if seen[x]:
            continue
        circles += 1
        while not seen[x]:
            y = free[x]
            seen[x] = seen[y] = True
            x = band[y]
    return circles + s.rotation.count(())  # a bare disk is one circle


def switched_edges(s: Scheme):
    """Edge ids with sign 1."""
    return frozenset(e for e, x in enumerate(s.signs) if x == 1)


def vertex_flip(s: Scheme, v: int) -> Scheme:
    """Turn the disk of v over: reverse its rotation, toggle the signs
    of its non-loop edges.  A loop at v keeps its sign (both of its
    band ends flip, which cancels).

    ``s`` must be a valid scheme with anchored rotations, as
    ``make_scheme`` returns; the result is then one too, and is built
    without validating it again.  The reversed rotation of v keeps its
    least dart first, so it is anchored without a search."""
    if not (0 <= v < s.graph.n_vertices):
        raise NoSuchVertex(f"no vertex {v}")
    rotation = list(s.rotation)
    cyc = rotation[v]
    rotation[v] = cyc[:1] + cyc[:0:-1]
    signs = list(s.signs)
    for h in s.rotation[v]:  # a loop has both darts here: toggled twice
        signs[h >> 1] ^= 1
    # valid by construction: the same darts per vertex, signs still 0/1
    return Scheme(s.graph, tuple(rotation), tuple(signs))


class SurfaceType(NamedTuple):
    """Patch invariants and the closed surface obtained by capping.

    euler_patch = V - E; euler_closed = euler_patch + boundary.  For an
    orientable patch the capped surface has genus
    (2 - euler_closed) / 2, otherwise it has 2 - euler_closed
    crosscaps.
    """

    euler_patch: int
    boundary: int
    orientable: bool
    euler_closed: int
    genus: int | None
    crosscaps: int | None

    @property
    def capped_name(self) -> str:
        if self.orientable:
            if self.genus == 0:
                return "sphere"
            if self.genus == 1:
                return "torus"
            return f"orientable surface of genus {self.genus}"
        if self.crosscaps == 1:
            return "projective plane"
        if self.crosscaps == 2:
            return "Klein bottle"
        return f"non-orientable surface with {self.crosscaps} crosscaps"


def is_orientable(s: Scheme) -> bool:
    """A patch is orientable iff its signs are vertex-flip-equivalent
    to all 0 (equivalently, every cycle has even sign sum).

    Orientability is a property of the switching class, so one pass
    decides it: flipping a set F of vertices toggles exactly the
    non-loop edges with one end in F, so the signs are equivalent to
    all 0 iff every loop has sign 0 and the vertices can be given sides
    with sign(e) = side(u) xor side(v) on every non-loop edge.  A
    search 2-colours each connected piece from its smallest vertex and
    fails on the first edge that contradicts the sides already given;
    O(V + E).
    """
    g = s.graph
    signs = s.signs
    adj = [[] for _ in range(g.n_vertices)]
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            if signs[e]:
                return False
        else:
            adj[a].append((b, signs[e]))
            adj[b].append((a, signs[e]))
    side = [-1] * g.n_vertices
    for root in range(g.n_vertices):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w, x in adj[u]:
                want = side[u] ^ x
                if side[w] < 0:
                    side[w] = want
                    stack.append(w)
                elif side[w] != want:
                    return False
    return True


def surface_type(s: Scheme) -> SurfaceType:
    """The patch invariants of s and its capped surface, from one
    boundary trace and ``is_orientable``.  Callers that already know
    the boundary count (a strip has b = 1) or the orientability use
    ``_surface`` and skip the trace or the 2-colouring."""
    return _surface(s.graph, boundary_trace(s).b, is_orientable(s))


def _surface(g: Multigraph, b: int, orient: bool) -> SurfaceType:
    """``surface_type`` of a scheme on g whose patch has b boundary
    circles and is orientable iff ``orient``."""
    euler_patch = g.n_vertices - g.n_edges
    euler_closed = euler_patch + b
    if orient:
        genus = (2 - euler_closed) // 2
        return SurfaceType(euler_patch, b, True, euler_closed, genus, None)
    return SurfaceType(euler_patch, b, False, euler_closed, None,
                       2 - euler_closed)


def component_subscheme(s: Scheme, component: mg.Component) -> Scheme:
    """Restrict a scheme to one 2-connected component.

    The graph is ``mg._restrict`` of the component, vertices and edges
    reindexed densely in increasing old-id order; each rotation keeps
    only the darts of surviving edges, in the same cyclic order.

    ``s`` must be a valid scheme with anchored rotations, as
    ``make_scheme`` returns, and ``component`` one of
    ``mg.bridges_and_components(s.graph).components``; the result is
    then a valid scheme too, and is built without validating it again.
    """
    return _subscheme(s, mg._restrict(s.graph, component.vertices,
                                      component.edges))


def _subscheme(s: Scheme, part) -> Scheme:
    """s restricted to ``part``, ``mg._restrict`` of s's graph: maps
    only rotations and signs, so one part serves every scheme on it."""
    sub, vmap, emap = part
    # dropping darts can drop a rotation's smallest one: anchor again
    rotation = tuple(_anchor([2 * emap[h >> 1] + (h & 1)
                              for h in s.rotation[v] if (h >> 1) in emap])
                     for v in vmap)
    return Scheme(sub, rotation, tuple([s.signs[e] for e in emap]))


# --- text format ---

def _parse_dart(lineno, token, n_edges):
    parts = token.split(".")
    if len(parts) != 2 or parts[1] not in ("0", "1"):
        raise ParseError(lineno, f"bad dart {token!r}, expected <edge>.0|.1")
    try:
        e = int(parts[0])
    except ValueError:
        raise ParseError(lineno, f"bad dart {token!r}") from None
    if not (0 <= e < n_edges):
        raise ParseError(lineno, f"dart {token!r} references unknown edge")
    return 2 * e + int(parts[1])


def dart_name(h: int) -> str:
    return f"{h >> 1}.{h & 1}"


def parse_scheme(text: str):
    """Parse the scheme text format; returns (name, Scheme).

    Extends the graph format with

        rotation <vertex-id> <dart> <dart> ...
        sign <edge-id> <0|1>

    where darts are written ``<edge-id>.0`` / ``<edge-id>.1``.  Every
    vertex with darts needs a rotation line and every edge a sign line.
    Graph errors are reported first, then rotation and sign lines in file
    order, all from one scan (``multigraph._parse``): a bad rotation at its
    rotation line, else its vertex line, and a missing sign at its edge line.
    """
    name, g, vertex_lines, edge_lines, scheme_lines = mg._parse(text)
    rotations = {}
    signs = {}
    for lineno, parts in scheme_lines:
        if parts[0] == "rotation":
            if len(parts) < 2:
                raise ParseError(lineno, "expected: rotation <vertex> <darts>")
            v = mg._int_token(lineno, parts[1])
            if not (0 <= v < g.n_vertices):
                raise ParseError(lineno, f"rotation for unknown vertex {v}")
            if v in rotations:
                raise ParseError(lineno, f"duplicate rotation for vertex {v}")
            rotations[v] = [_parse_dart(lineno, t, g.n_edges)
                            for t in parts[2:]]
            vertex_lines[v] = lineno  # a bad rotation is reported here
        else:  # a sign line
            if len(parts) != 3:
                raise ParseError(lineno, "expected: sign <edge> <0|1>")
            e = mg._int_token(lineno, parts[1])
            if not (0 <= e < g.n_edges):
                raise ParseError(lineno, f"sign for unknown edge {e}")
            if e in signs:
                raise ParseError(lineno, f"duplicate sign for edge {e}")
            if parts[2] not in ("0", "1"):
                raise ParseError(lineno, "sign value must be 0 or 1")
            signs[e] = int(parts[2])
    if len(signs) != g.n_edges:
        missing = sorted(set(range(g.n_edges)) - set(signs))
        raise MissingSign(f"line {edge_lines[missing[0]][0]}: "
                          f"no sign for edges {missing}")
    rotation = [rotations.get(v, ()) for v in range(g.n_vertices)]
    try:
        s = make_scheme(g, rotation, [signs[e] for e in range(g.n_edges)])
    except BadRotation as exc:
        v = exc.vertex
        raise BadRotation(f"line {vertex_lines[v]}: {exc}", v) from None
    return name, s


def format_scheme(name: str, s: Scheme) -> str:
    lines = [mg.format_graph(name, s.graph).rstrip("\n")]
    for v in range(s.graph.n_vertices):
        if s.rotation[v]:
            darts = " ".join(dart_name(h) for h in s.rotation[v])
            lines.append(f"rotation {v} {darts}")
    for e, x in enumerate(s.signs):
        lines.append(f"sign {e} {x}")
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    """The JSON layout of every document: the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2)`` and a final newline.
    ``classify.catalog_to_json`` writes the same layout for its one
    fixed document without building the document."""
    return _write(doc, "\n") + "\n"


def _write(x, nl: str) -> str:
    """The JSON text of x; nl is a newline and the indent of the line x
    starts on.  A JSON text holds no raw newline (strings escape it),
    so every newline ``json.dumps`` writes is a line break."""
    import json  # loaded at the first write: most CLI calls write no JSON
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", nl)
