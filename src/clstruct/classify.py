"""Exhaustive search: cubic graphs, realizable signs, structure classes.

The cubic graphs of rank q come from those of rank q-1 by edge
insertion (``generate_cubic_graphs``), one insertion per automorphism
orbit, deduplicated by canonical form.

The searchable objects are schemes (rotation system + signs).  A sign
table is *realizable* on a graph when some rotation turns it into a
strip (one boundary circle).  Realizable sign tables are then grouped
into structure classes: two tables are equivalent when, after an
automorphism of the graph, they agree on every 2-connected component
up to complementing whole components, with bridge values disregarded.

Enumeration conventions: rotations are generated anchored (each cyclic
order starts at its smallest dart), giving (deg(v)-1)! options per
vertex, and are deliberately not quotiented by reflection — the
reflected rotations are genuinely different schemes and may carry the
realizability witnesses.  The last vertex's option changes fastest.
The walk is lazy (``_rotations``): a vertex's options are made only
when the walk reaches them, so a walk that stops early never lists
them all.

Search: a vertex flip (reverse the rotation at v, toggle the signs of
its non-loop edges) keeps the boundary count and maps anchored
rotations onto anchored rotations, so realizability is a property of a
sign table's coset modulo the cut space (sums of vertex cuts), and each
coset holds 2^(V-1) tables.  Per 2-connected component the 2^q tables
that are 0 on a spanning tree represent the cosets; one walk over the
rotations tests every representative still unrealized with a
single-orbit strip test, and each realizable one contributes its whole
coset.  The zero coset, the span of the vertex cuts, holds exactly the
orientable tables (Stahl, J. Graph Theory 2, 1978).  A component of odd
q never realizes it (a strip caps to Euler characteristic 2 - q, and
an orientable surface has an even one), so its walk leaves it out and
may stop before the last rotation.  Classes are orbits on normal forms
(``equivalence_classes``), and each gets as witness the first rotation
of the graph, in enumeration order, that makes its representative a
strip, found per component (they share no vertex) by one more walk and
lifted into the graph.  Both walks test packed tables by flip transport
(``_strip_witnesses``): flipping the vertices of degree 3 at their
second option takes a rotation to a base rotation and its table to
another of the coset, so one turn table per base (one per component of
a cubic graph) serves the whole walk, and both walks keep a memo of the
transported tables.  Each component is restricted and packed once
(``_components``), for both walks, the class keys and the surfaces.
The budget bounds every walk (``_check_walk``): each component is
checked (``_components``) before the first strip test and before the
graph's automorphisms are listed.  The search runs on the calling
thread (``threads`` arguments are accepted and ignored: under the GIL
a pool only adds work), and documents are written by ``json.dumps``
through ``scheme._write``.  The CLI imports this module only in the
verbs that classify (``graphs``, ``structures``; ``verify`` through
its suites), so the scheme verbs never load it.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from . import multigraph as mg
from . import scheme as sch
from .errors import BudgetExceeded, TooLarge
from .multigraph import Multigraph
from .scheme import Scheme


def __getattr__(name):
    # perfbench/tracer.py reads and replaces classify.ThreadPoolExecutor
    # when it installs; the search starts no thread, so the name is
    # imported only on that read, keeping concurrent.futures (and the
    # logging it loads) out of every CLI start.  Delete this hook once
    # the tracer no longer patches the name (ROADMAP item 1).
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Default cap on (rotations x signs) enumeration size.
DEFAULT_BUDGET = 10_000_000

#: Largest cycle rank generate_cubic_graphs and catalog accept.
MAX_Q = 5
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # sign digits to sign bytes


def scheme_count(g: Multigraph) -> int:
    """Number of schemes on g: prod_v (deg(v)-1)! times 2^E."""
    count = 1 << g.n_edges
    for d in g.degrees():
        count *= math.factorial(max(d - 1, 0))
    return count


def _rotations(g: Multigraph):
    """All anchored rotation systems, in deterministic order: the last
    vertex's option changes fastest, and each vertex keeps its least
    dart first and permutes the others in lexicographic order.  An
    odometer over one option iterator per vertex, held on a stack, so a
    vertex's (deg(v)-1)! options are made only as the walk reaches them.
    """
    darts = g.darts()
    n = len(darts)

    def options(v):
        return (darts[v][:1] + p
                for p in itertools.permutations(darts[v][1:]))

    stack, rotation = [], []
    while True:
        while len(rotation) < n:  # later vertices start at their first
            stack.append(options(len(rotation)))
            rotation.append(next(stack[-1]))
        yield tuple(rotation)
        while stack:  # advance the last vertex with an option left
            rotation.pop()
            option = next(stack[-1], None)
            if option is not None:
                rotation.append(option)
                break
            stack.pop()
        else:
            return


def _check_walk(g: Multigraph, budget: int | None, what: str) -> None:
    """Raise BudgetExceeded when g has more schemes than ``budget``;
    every rotation walk over g's sign tables checks here first."""
    total = scheme_count(g)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"{total} schemes on {what} exceed the budget {budget}")


def enumerate_schemes(g: Multigraph, budget: int | None = DEFAULT_BUDGET):
    """Yield every scheme on g exactly once (rotations x sign tables)."""
    _check_walk(g, budget, "this graph")
    for rotation in _rotations(g):
        for signs in itertools.product((0, 1), repeat=g.n_edges):
            yield Scheme(g, rotation, signs)


def _pack_signs(signs) -> int:
    """A sign table as an int with edge 0 in the top bit, so that int
    order is the order in which ``enumerate_schemes`` lists tables."""
    x = 0
    for bit in signs:
        x = 2 * x + bit
    return x


def _bits(x: int, n_edges: int) -> str:
    """The n_edges signs that ``_pack_signs`` packs to x, as a string of
    0s and 1s (a leading 1 keeps the leading zeros, and gives "" when
    n_edges = 0)."""
    return f"{(1 << n_edges) | x:b}"[1:]


def _unpack_signs(x: int, n_edges: int) -> tuple:
    """The n_edges signs that ``_pack_signs`` packs to x, as a tuple."""
    return tuple(_bits(x, n_edges).encode().translate(_DIGITS))


def generate_cubic_graphs(q: int) -> tuple:
    """All connected cubic multigraphs with cycle rank q, up to
    isomorphism, in canonical order.  Cubic and connected force
    V = 2(q-1) and E = 3(q-1), so q = 1 gives an empty result.
    Capped at MAX_Q.

    Built by edge insertion from rank 2 up, as in McKay's isomorph-free
    generation (J. Algorithms 26, 1998).  Rank 2 holds the dumbbell and
    the theta graph.  Each child of a rank-(q-1) graph H adds two
    vertices by one of two moves: subdivide two edges of H (possibly the
    same edge twice) and join the two new vertices, or subdivide one
    edge of H and hang a new vertex carrying a loop on it.  Only one
    move per orbit of the automorphism group of H is made
    (``_edge_insertions``), and the children are deduplicated by
    ``canonical_form``.

    Every graph G of rank q >= 3 is a child of some graph of rank q-1.
    If G has a loop, remove its vertex with the loop and suppress the
    neighbour, which then has degree 2.  Otherwise G has a non-bridge
    edge, since a cubic graph is not a tree: delete it and suppress
    both ends.  Either way the result is connected and cubic of rank
    q-1, and the matching move rebuilds G from it.
    """
    if q > MAX_Q:
        raise TooLarge(f"q={q} exceeds the cap {MAX_Q}")
    if q < 2:
        return ()
    dumbbell = Multigraph(2, ((0, 0), (0, 1), (1, 1)))
    theta = Multigraph(2, ((0, 1),) * 3)
    seen = {mg.canonical_form(dumbbell), mg.canonical_form(theta)}
    for _rank in range(3, q + 1):
        parents, seen = seen, set()
        for n, edges in parents:
            for child in _edge_insertions(n, edges):
                seen.add(mg.canonical_form(Multigraph(n + 2, child)))
    return tuple(mg.build(vcount, list(es))
                 for (vcount, es) in sorted(seen))


def _edge_insertions(n: int, edges: tuple):
    """Edge lists of the children of the cubic graph (n, edges), one per
    orbit of its automorphism group on the insertion moves; the new
    vertices are a = n and b = n + 1.

    An automorphism of the graph maps a move on edge i, or on the edge
    pair {i, j}, to the same move on the image edges, and the two
    children are isomorphic.  So a move on edge i (the loop move, or a
    and b both on i) is kept only when no edge permutation of
    ``mg.automorphisms`` takes i below i, and a move on edges i < j
    only when none takes {i, j} to a lexicographically smaller pair:
    the least move of each orbit.
    """
    eperms = {ep for (_vp, ep) in mg.automorphisms(Multigraph(n, edges))}
    a, b = n, n + 1
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        if all(ep[i] >= i for ep in eperms):
            # a on edge i, b hung from a with a loop
            yield rest + ((u, a), (a, v), (a, b), (b, b))
            # a and b both on edge i, joined by a second edge
            yield rest + ((u, a), (a, b), (b, v), (a, b))
        # a on edge i, b on a later edge j, joined
        for j in range(i + 1, len(edges)):
            if any((min(ep[i], ep[j]), max(ep[i], ep[j])) < (i, j)
                   for ep in eperms):
                continue
            x, y = edges[j]
            yield rest[:j - 1] + rest[j:] + ((u, a), (a, v), (x, b),
                                             (b, y), (a, b))


def realizable_signs(g: Multigraph, threads: int = 1,
                     budget: int | None = DEFAULT_BUDGET):
    """All sign tables for which some rotation yields a strip.

    Works per 2-connected component and recombines: a scheme is a strip
    exactly when each component subscheme is one, so a sign table is
    realizable iff its restriction to every component is realizable on
    that component, with bridge signs free.  On a component of cycle
    rank c only the coset representatives (tables 0 on a spanning tree)
    are searched, rotation-outer: 2^c of them, or 2^c - 1 when c is odd,
    since then the zero coset is never realized.  Each realizable one
    stands for its whole coset of vertex-flip toggles.  Returns them
    sorted.  ``threads`` is accepted and ignored: the search runs on the
    calling thread, since under the GIL a thread pool only adds work.
    """
    parts, bridges = _components(g, budget)
    found = [0]
    for sub, _vmap, _emap, edge_bit in parts:
        mine, _span = _component_realizable(sub, edge_bit)
        found = [x | y for x in found for y in mine]
    for bit in bridges:
        found += [x | bit for x in found]
    return tuple([_unpack_signs(t, g.n_edges) for t in sorted(found)])


def _components(g: Multigraph, budget: int | None):
    """(parts, bridges): g's 2-connected components, each restricted
    once by ``mg._restrict`` as (graph, vertex map, edge map, edge
    bits), and the bits of g's bridges.  The bits pack as
    ``_pack_signs`` does: edge e of g on bit E - 1 - e, and the
    component's edge i on edge_bits[i].

    Every component's budget is checked here (``_check_walk``), before
    any walk and before anything else is built for the search.
    """
    mg._check_cyclic_part(g, "classification")
    decomp = mg.bridges_and_components(g)
    bit = [1 << e for e in range(g.n_edges - 1, -1, -1)]
    parts = []
    for comp in decomp.components:
        sub, vmap, emap = mg._restrict(g, comp.vertices, comp.edges)
        _check_walk(sub, budget, "a component")
        parts.append((sub, vmap, emap, [bit[e] for e in emap]))
    return parts, [bit[e] for e in decomp.bridges]


def _component_realizable(sub: Multigraph, edge_bit) -> tuple:
    """(realizable, span) on a 2-connected component ``sub`` of a
    graph, its edge i packed on bit ``edge_bit[i]`` of the graph's
    tables (as ``_components`` gives them), 0 on every other edge.

    span is the zero coset: the sums of sub's vertex cuts, 2^(V-1)
    tables, which are exactly its orientable ones.  realizable lists
    every table of each realizable coset.  The walk over sub's rotations
    (one ``_strip_witnesses`` walk over the representatives) ends once
    every coset representative has a strip rotation; the caller has
    checked its budget.  The zero coset is left out of the walk when
    sub's cycle rank c is odd: a strip caps to Euler characteristic
    2 - c, and an orientable surface has an even one."""
    _tree, free = mg._spanning_tree(sub)
    reps = [0]
    for e in free:
        reps += [x | edge_bit[e] for x in reps]
    del reps[:len(free) % 2]  # the zero coset comes first
    found = _strip_witnesses(sub, edge_bit, reps)
    span = [0]
    for cut in _cuts(sub, edge_bit)[:-1]:
        span += [x ^ cut for x in span]
    # every table of a realizable coset: rep xor a sum of vertex cuts
    return [rep ^ x for rep in found for x in span], span


def _cuts(g: Multigraph, edge_bit) -> list:
    """Per vertex of g, the bits (edge i on ``edge_bit[i]``) of its
    non-loop edges: the signs a flip at the vertex toggles."""
    cuts = [0] * g.n_vertices
    for bit, (a, b) in zip(edge_bit, g.edges):
        if a != b:
            cuts[a] ^= bit
            cuts[b] ^= bit
    return cuts


def _strip_witnesses(g: Multigraph, edge_bit, tables) -> dict:
    """Map each table, packed with g's edge i on bit ``edge_bit[i]``, to
    the first rotation, in ``_rotations`` order, that makes it a strip;
    tables no rotation makes a strip are absent.

    Rotation-outer, by flip transport: the two options of a vertex of
    degree 3 are each other's reverse, so flipping those at their
    second option takes (rotation, t) to (base, t ^ their cuts) with
    the same boundary count.  One turn table per base tests every table
    still without a witness, and a memo per base keeps each transported
    table's result until a vertex of degree > 3 changes option and so
    moves the base.  The walk ends once no table is left.  A rotation is
    skipped when its mirror image (every order reversed: the same
    boundary count) comes earlier.

    The memo never hits in the realizability walk, whose tables lie in
    distinct cosets: two of them are never transported to one table,
    and two rotations of one base transport a table to itself only when
    they differ at every vertex, all of degree 3: mirror images, of
    which the walk tests one.  So it costs that walk no strip test.
    """
    first = g.darts()
    cuts = _cuts(g, edge_bit)
    three = [v for v, darts in enumerate(first) if len(darts) == 3]
    masks = [bit for bit in edge_bit for _ in range(4)]  # by dart-side
    strip = sch._single_orbit_strip
    pending = list(tables)
    witnesses = {}
    base = None
    for rotation in _rotations(g):
        if not pending:
            break
        if rotation[0][:0:-1] < rotation[0][1:]:  # vertex 0 is the slowest
            continue
        flips, at_base = 0, list(rotation) if three else rotation
        for v in three:
            if rotation[v] != first[v]:
                flips ^= cuts[v]
                at_base[v] = first[v]
        if at_base != base:
            base, memo = at_base, {}
            turn = sch._turn_table(2 * len(edge_bit), base)
        hits = []
        for t in pending:
            key = t ^ flips
            if key not in memo:
                memo[key] = strip(turn, key, masks)
            if memo[key]:
                hits.append(t)
        if hits:
            witnesses.update(dict.fromkeys(hits, rotation))
            pending = [t for t in pending if t not in witnesses]
    return witnesses


def _witness_rotations(g: Multigraph, parts, tables) -> list:
    """The first rotation, in ``_rotations(g)`` order, that makes each
    of the realizable packed ``tables`` a strip; ``parts`` are g's
    2-connected components as ``_components`` restricted them.

    A scheme is a strip iff each component subscheme is one, and that
    sees only the cyclic order of its component's darts at each vertex.
    The components share no vertex, so g's first strip rotation joins
    each component's first (``_strip_witnesses`` on the tables masked to
    it, once per distinct mask), lifted by ``_lift``, to the first
    option at every other vertex; each distinct combination is joined
    once.
    """
    first = g.darts()
    keys = [()] * len(tables)  # per table, its components' witnesses
    for sub, _vmap, _emap, edge_bit in parts:
        bits = sum(edge_bit)
        restricted = [t & bits for t in tables]
        walked = _strip_witnesses(sub, edge_bit, dict.fromkeys(restricted))
        keys = [key + (walked[t],) for key, t in zip(keys, restricted)]
    rotations = {}  # the components' strip rotations -> rotation of g
    for key in keys:
        if key not in rotations:
            rotation = list(first)
            for (_sub, vmap, emap, _bits), walk in zip(parts, key):
                edges = list(emap)  # g's edges in sub's order
                for v, i in vmap.items():
                    others = [h for h in first[v] if h >> 1 not in emap]
                    rotation[v] = _lift([2 * edges[h >> 1] + (h & 1)
                                         for h in walk[i]], others)
            rotations[key] = tuple(rotation)
    return [rotations[key] for key in keys]


def _lift(cycle, others) -> tuple:
    """The first option at a vertex whose component darts take the
    anchored cyclic order ``cycle``, with ``others`` the vertex's other
    darts in ascending order: the two lists merged, least head first.

    The option's first dart is the vertex's least.  Each later place
    takes the least dart that may come next: the next dart of
    ``cycle``, or any dart of ``others``.  (The component darts may
    start their cycle anywhere, but starting at its least dart,
    ``cycle[0]``, is never later.)  The lift keeps order: where two
    cycles first differ, the one with the lesser dart places it first.
    So a component's first strip rotation lifts to the first rotation
    of g that induces a strip rotation on the component.
    """
    out, i = [], 0
    for h in others:
        while i < len(cycle) and cycle[i] < h:
            out.append(cycle[i])
            i += 1
        out.append(h)
    return tuple(out + cycle[i:])


class StructureClass(NamedTuple):
    """One equivalence class of realizable sign tables on a graph.

    tables holds the members packed by ``_pack_signs`` (edge 0 in the
    top bit), ascending; ``members`` and ``representative`` unpack
    them, or the first of them, into sign tuples on each read.  witness is
    the first rotation, in ``_rotations`` order, that makes the
    representative a strip; surface describes the capped surface of
    that strip (shared by all members on the cubic catalogs).
    """

    graph: Multigraph
    tables: tuple
    witness: tuple
    surface: sch.SurfaceType

    @property
    def representative(self) -> tuple:
        """The least sign tuple of the class, unpacked from tables[0]."""
        return _unpack_signs(self.tables[0], self.graph.n_edges)

    @property
    def members(self) -> tuple:
        """The sorted sign tuples of the class, unpacked from tables."""
        return tuple([_unpack_signs(t, self.graph.n_edges)
                      for t in self.tables])


def equivalence_classes(g: Multigraph, threads: int = 1,
                        budget: int | None = DEFAULT_BUDGET):
    """Group realizable sign tables into structure classes.

    lam ~ lam' iff some automorphism of g followed by complementing a
    subset of 2-connected components maps one to the other, ignoring
    bridge coordinates.  Classes come sorted by representative
    (lexicographically least member).

    Tables stay packed (``_pack_signs``).  A table's normal form clears
    the bridges and complements each component whose least edge is 1.
    The walk is over normal forms, not tables: a component's forms come
    from its realizable restrictions, the graph's are their sums, and a
    class is an orbit of the automorphisms on forms, listed once.  Its
    members are the realizable preimages of its forms.  The packed
    representatives get their witness (``_witness_rotations``) and are
    strips under it, so a surface has b = 1, and it is orientable iff
    its representative, masked to each component, lies in that
    component's zero coset (``_component_realizable``): bridge signs
    are sums of vertex cuts, so they never change it.  The vertex cap
    of the automorphisms (``mg.MAX_VERTICES``) is checked first, then
    the cyclic part and every component's budget (``_components``), and
    only then are the automorphisms listed (k! edge permutations for k
    parallel edges) and the components walked.  ``threads`` is accepted
    and ignored.
    """
    mg._check_cap(g, "automorphisms")
    parts, bridges = _components(g, budget)
    eperms = {ep for (_vp, ep) in mg.automorphisms(g)}
    E = g.n_edges
    comps = []  # (least edge's bit, all edges' bits, realizable, zero coset)
    normals = [0]
    for sub, _vmap, _emap, edge_bit in parts:
        top, bits = max(edge_bit), sum(edge_bit)
        found, span = map(set, _component_realizable(sub, edge_bit))
        comps.append((top, bits, found, span))
        mine = {t ^ bits if t & top else t for t in found}
        normals = [x | y for x in normals for y in mine]

    # An automorphism then the normal form is linear over GF(2) on forms:
    # a bit goes to its image, or from a component's least edge to the
    # rest of the component.  images[k] packs bit k's images under all
    # but the identity, E bits each; tables sums them per 4-bit chunk.
    lowest = {top: bits ^ top for top, bits, _found, _span in comps}
    to = [lowest.get(1 << k, 1 << k) for k in range(E - 1, -1, -1)]
    perms = [ep for ep in eperms if ep != tuple(range(E))]
    images = [0] * E
    for i, ep in enumerate(perms):
        for new, old in enumerate(ep):
            images[E - 1 - old] |= to[new] << (E * i)
    tables = []
    for shift in range(0, E, 4):
        t = [0]
        for b in images[shift:shift + 4]:
            t += [y ^ b for y in t]
        tables.append((shift, t))
    mask, shifts = (1 << E) - 1, [E * i for i in range(len(perms))]

    seen, groups = set(), []
    for x in normals:
        if x in seen:
            continue
        img = 0
        for shift, t in tables:
            img ^= t[x >> shift & 15]
        orbit = {x, *[img >> i & mask for i in shifts]}
        seen |= orbit
        ts = list(orbit)  # each component as it is or complemented
        for _top, bits, found, _span in comps:
            ts = [z for y in ts for z in (y, y ^ bits) if z & bits in found]
        for bit in bridges:
            ts += [y | bit for y in ts]
        groups.append(sorted(ts))
    groups.sort()  # by representative: each class's least member
    witnesses = _witness_rotations(g, parts, [ts[0] for ts in groups])
    surfaces = {o: sch._surface(g, 1, o) for o in (False, True)}
    classes = []
    for ts, w in zip(groups, witnesses):
        orientable = all(ts[0] & bits in span
                         for _top, bits, _found, span in comps)
        classes.append(StructureClass(g, tuple(ts), w, surfaces[orientable]))
    return tuple(classes)


class Catalog(NamedTuple):
    """Full classification for one cycle rank."""

    q: int
    graphs: tuple
    classes: tuple  # classes[i] lists the StructureClasses of graphs[i]
    total: int


def catalog(q: int, threads: int = 1,
            budget: int | None = DEFAULT_BUDGET) -> Catalog:
    """Every cubic graph of cycle rank q (``generate_cubic_graphs``)
    with its structure classes (``equivalence_classes``), in canonical
    order, and the number of classes in all.  ``threads`` is accepted
    and ignored."""
    graphs = generate_cubic_graphs(q)
    per_graph = tuple([equivalence_classes(g, threads=threads, budget=budget)
                       for g in graphs])
    total = sum(len(cs) for cs in per_graph)
    return Catalog(q, graphs, per_graph, total)


def catalog_to_json(cat: Catalog) -> str:
    """Deterministic JSON rendering: the bytes ``scheme._json`` gives
    the catalog document, written in one flat pass into one list.

    The layout is fixed, so each class is the ``_CLASS`` template with
    its keys in sorted order.  Members and representatives are joined
    from lookup texts of their packed tables (``_bit_texts``), and the
    text of each distinct witness rotation and surface is made once.
    """
    rotations = {}
    surfaces = {}
    out = ['{\n  "graphs": [']
    for gi, (g, classes) in enumerate(zip(cat.graphs, cat.classes)):
        out.append(_GRAPH % ("," if gi else "",
                             sch._write(g.edges, "\n      ")))
        # each member's text opens with its "," separator; [1:] drops one
        k, rows = _bit_texts([t for c in classes for t in c.tables],
                             g.n_edges, "\n            ", ",\n            [")
        k, reps = _bit_texts([c.tables[0] for c in classes], g.n_edges,
                             "\n          ", "[")
        end = 0
        for ci, c in enumerate(classes):
            start, end = end, end + k * len(c.tables)
            if c.witness not in rotations:
                rotations[c.witness] = sch._write(
                    [list(map(sch.dart_name, cyc)) for cyc in c.witness],
                    "\n          ")
            sf = c.surface
            key = (sf.euler_closed,
                   sf.genus if sf.orientable else sf.crosscaps,
                   sf.orientable)
            if key not in surfaces:
                surfaces[key] = sch._write(dict(zip(_SURFACE_KEYS, key)),
                                           "\n          ")
            out.append(_CLASS % ("," if ci else "",
                                 "".join(rows[start:end])[1:],
                                 "".join(reps[k * ci:k * ci + k]),
                                 surfaces[key], rotations[c.witness]))
        out.append("\n      ]\n    }" if classes else "]\n    }")
    out.append("\n  ]" if cat.graphs else "]")
    out.append(',\n  "q": %d,\n  "totals": %d\n}\n' % (cat.q, cat.total))
    return "".join(out)


# The catalog's fixed layout, keys in sorted order: a graph up to its
# classes, then each class, whose member rows are never empty.
_GRAPH = '%s\n    {\n      "canonical_edges": %s,\n      "classes": ['
_CLASS = ('%s\n        {\n          "members": [%s\n          ],'
          '\n          "representative_signs": %s,\n          "surface": %s,'
          '\n          "witness_rotation": %s\n        }')
_SURFACE_KEYS = ("euler_closed", "genus_or_crosscaps", "orientable")


def _bit_texts(tables, width: int, nl: str, head: str) -> tuple:
    """(k, texts): each k texts in turn write one of the tables, packed
    by ``_pack_signs``, as the JSON array of its ``width`` bits opened
    by head; nl is a newline and the indent of the array's last line.
    The texts are those of ``_bit_chunks``, shared, not made per table.
    """
    chunks = _bit_chunks(width, nl, head)
    k = len(chunks)
    texts = [None] * (k * len(tables))
    for i, (shift, table) in enumerate(chunks):
        texts[i::k] = [table[t >> shift & 255] for t in tables]
    return k, texts


@functools.lru_cache(maxsize=64)
def _bit_chunks(width: int, nl: str, head: str) -> tuple:
    """(shift, texts) per chunk of at most 8 bits of a ``width``-bit
    table, the top chunk first: texts[v] writes the chunk's bits v, the
    top chunk opening the array with head and the bottom chunk closing
    it.  A table of width 0 is one chunk, the empty array."""
    if not width:
        return ((0, [head + "]"]),)
    bit = "," + nl + "  "
    chunks = []
    for shift in range((width - 1) // 8 * 8, -1, -8):
        n = min(width - shift, 8)
        first = head + nl + "  " if shift + n == width else bit
        last = "" if shift else nl + "]"
        chunks.append((shift, [first + bit.join(_bits(v, n)) + last
                               for v in range(1 << n)]))
    return tuple(chunks)


def _graph_line(i: int, g: Multigraph) -> str:
    edges = " ".join(f"({u},{v})" for (u, v) in g.edges)
    return f"graph {i}: V={g.n_vertices} edges {edges}"


def catalog_to_text(cat: Catalog) -> str:
    lines = [f"q = {cat.q}: {len(cat.graphs)} cubic graphs, "
             f"{cat.total} structure classes"]
    for gi, (g, classes) in enumerate(zip(cat.graphs, cat.classes)):
        lines.append(_graph_line(gi, g))
        E = g.n_edges
        for ci, c in enumerate(classes):
            members = " ".join([_bits(t, E) for t in c.tables])
            lines.append(
                f"  class {ci}: representative {_bits(c.tables[0], E)}"
                f"; members {members}; {c.surface.capped_name}")
    return "\n".join(lines) + "\n"
