"""Finite connected multigraphs with loops.

Vertices are dense integers ``0..V-1``.  Edge ``e`` with endpoints
``(u, v)`` owns two darts (edge-ends): dart ``2e`` at ``u`` and dart
``2e + 1`` at ``v``.  A loop owns two distinct darts at the same vertex
and therefore contributes 2 to the degree.

Everything here targets small instances.  Canonical forms come from
an exact labeling search, pruned by prefix bounds, that finds the
lexicographically least relabeled edge list and keeps its sorted edge
rows up to date as labels are placed and lifted; automorphism groups
from a backtracking search that extends a vertex map along a
breadth-first order.  Both keep a ten-vertex cap (``MAX_VERTICES``).
Nothing else here is meant to scale.
"""
from __future__ import annotations

import itertools
from collections import defaultdict
from typing import NamedTuple

from .errors import (Disconnected, EndpointOutOfRange, NotCyclicPart,
                     ParseError, TooLarge)

#: Vertex cap of canonical_form and automorphisms.
MAX_VERTICES = 10


class Multigraph(NamedTuple):
    """Immutable multigraph: a vertex count plus a tuple of endpoint pairs."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_darts(self) -> int:
        return 2 * len(self.edges)

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for (u, w) in self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n_vertices
        for (u, w) in self.edges:
            deg[u] += 1
            deg[w] += 1
        return tuple(deg)

    def darts(self) -> tuple[tuple[int, ...], ...]:
        """The darts at every vertex, each in increasing dart id order,
        from one pass over the edges."""
        out = [[] for _ in range(self.n_vertices)]
        for e, (u, w) in enumerate(self.edges):
            out[u].append(2 * e)
            out[w].append(2 * e + 1)
        return tuple(map(tuple, out))


def build(n_vertices: int, edges) -> Multigraph:
    """Validated constructor: endpoints in range, graph connected."""
    if n_vertices < 1:
        raise EndpointOutOfRange("a graph needs at least one vertex")
    edges = tuple((int(u), int(v)) for (u, v) in edges)
    for e, (u, v) in enumerate(edges):
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise EndpointOutOfRange(
                f"edge {e} endpoints {(u, v)} outside 0..{n_vertices - 1}")
    g = Multigraph(n_vertices, edges)
    if not _connected(g):
        raise Disconnected(f"graph on {n_vertices} vertices is not connected")
    return g


class _UnionFind:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False when they were one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _connected(g: Multigraph) -> bool:
    """True when g is connected."""
    dsu = _UnionFind(g.n_vertices)
    return sum(dsu.union(u, v) for u, v in g.edges) == g.n_vertices - 1


def _restrict(g: Multigraph, vertices, edges):
    """The subgraph on the given vertices and edges, both reindexed
    densely in increasing old-id order; returns (graph, vertex_map,
    edge_map), the maps sending old ids to new ones.  The pieces must
    make a connected graph (a component, a cyclic part): not checked.
    """
    vmap = {v: i for i, v in enumerate(sorted(vertices))}
    emap = {e: i for i, e in enumerate(sorted(edges))}
    ends = g.edges
    sub = Multigraph(len(vmap), tuple([(vmap[ends[e][0]], vmap[ends[e][1]])
                                       for e in emap]))
    return sub, vmap, emap


def cycle_rank(g: Multigraph) -> int:
    """Dimension of the binary cycle space: E - V + 1 for connected graphs."""
    return g.n_edges - g.n_vertices + 1


class Component(NamedTuple):
    """A 2-connected component: a bridge-free edge set with its vertices."""

    edges: frozenset
    vertices: frozenset


class Decomposition(NamedTuple):
    """Bridges plus 2-connected components; together they partition E."""

    bridges: tuple[int, ...]
    components: tuple[Component, ...]


def bridges_and_components(g: Multigraph) -> Decomposition:
    """Bridges and the non-vertex components left after deleting them.

    A bridge is an edge whose removal disconnects the graph; loops are
    never bridges.  Each 2-connected component is reported as its edge
    set together with the vertices those edges touch.  Bridges come
    from one depth-first search with lowpoints (Tarjan, Inf. Process.
    Lett. 2 (1974)), O(V + E): the tree edge into w is a bridge iff no
    other edge (parallel ones included) leaves w's subtree upwards.
    """
    ends = g.edges
    darts = g.darts()
    order = [0] + [-1] * (g.n_vertices - 1)  # discovery index
    low = [0] * g.n_vertices  # least index the subtree reaches
    found = 1
    bridges = []
    stack = [(0, -1, iter(darts[0]))]  # vertex, tree edge in, darts left
    while stack:
        v, up, todo = stack[-1]
        for h in todo:
            w = ends[h >> 1][~h & 1]
            if order[w] < 0:
                order[w] = low[w] = found
                found += 1
                stack.append((w, h >> 1, iter(darts[w])))
                break
            if h >> 1 != up:
                low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] > order[u]:
                    bridges.append(up)
    bridges = tuple(sorted(bridges))
    bridge_set = set(bridges)
    kept = [e for e in range(g.n_edges) if e not in bridge_set]

    dsu = _UnionFind(g.n_vertices)
    for e in kept:
        dsu.union(*g.edges[e])
    grouped = defaultdict(set)  # kept ascends: keys by least edge
    for e in kept:
        grouped[dsu.find(g.edges[e][0])].add(e)
    return Decomposition(bridges, tuple(
        Component(frozenset(es), frozenset(v for e in es for v in g.edges[e]))
        for es in grouped.values()))


class CyclicPart(NamedTuple):
    """Cyclic part of a graph with the surviving-id mappings.

    vertex_map / edge_map send old ids to ids in the reduced graph;
    deleted vertices and edges are absent.
    """

    graph: Multigraph
    vertex_map: dict
    edge_map: dict


def cyclic_part(g: Multigraph) -> CyclicPart:
    """Iteratively strip degree-1 vertices (with their edges).

    If nothing with an edge survives, the result is the single-vertex
    graph placed at the smallest surviving vertex id (or vertex 0 of the
    original graph when everything was stripped away).
    """
    alive_v = set(range(g.n_vertices))
    alive_e = set(range(g.n_edges))
    while True:
        deg = defaultdict(int)
        for e in alive_e:
            u, v = g.edges[e]
            deg[u] += 1
            deg[v] += 1
        leaves = {v for v in alive_v if deg[v] == 1}
        if not leaves:
            break
        alive_v -= leaves
        alive_e = {e for e in alive_e
                   if not (set(g.edges[e]) & leaves)}
    # drop isolated leftovers (possible when stripping ate a whole path)
    if alive_e:
        used = {v for e in alive_e for v in g.edges[e]}
        alive_v &= used
    else:
        keep = min(alive_v) if alive_v else 0
        alive_v = {keep}
    return CyclicPart(*_restrict(g, alive_v, alive_e))


def is_cyclic_part(g: Multigraph) -> bool:
    """True when g equals its own cyclic part (no degree-1 vertices)."""
    return g.n_vertices == 1 or all(d >= 2 for d in g.degrees())


def _spanning_tree(g: Multigraph):
    """Tree edges taken greedily by lowest id (loops never join), and
    the remaining edges; both lists ascend."""
    dsu = _UnionFind(g.n_vertices)
    tree = []
    extra = []
    for e, (u, v) in enumerate(g.edges):
        (tree if dsu.union(u, v) else extra).append(e)
    return tree, extra


# --- isomorphism machinery (two pruned searches) ---

def _least_form(g: Multigraph) -> tuple:
    """The lex-least relabeled edge list.

    A relabeling hands out new ids block by block in ascending degree
    order, so any two isomorphic graphs range over the same relabeled
    edge lists; the least sorted list of ``(min, max)`` pairs is the
    canonical form.

    Labels 0, 1, ... are assigned one at a time, each to an unlabeled
    vertex of the degree block it belongs to.  Once labels ``< k`` are
    placed, let ``a`` be the smallest label whose vertex still has an
    unlabeled neighbour.  Every edge of the final list that starts
    below ``a``, or at ``a`` and ends below ``k``, is already known and
    forms a prefix; the next entry is at least ``(a, k)``, or
    ``(k, k)`` when there is no such ``a``.  A branch whose prefix or
    bound is worse than the best complete list is dropped.  When some
    candidate for label k is joined to ``a``, only the candidates with
    the most edges to ``a`` are tried: any other puts a larger entry at
    that position.  Ties are kept, but two complete labelings that give
    the same list differ by an automorphism, and a candidate that such
    an automorphism, fixing every labeled vertex, takes from a tried one
    is skipped: its branch gives the same lists.  Edge ``(x, y)`` is
    coded ``x*n + y``.

    The rows are kept incrementally, not rebuilt at each node: giving
    label k to v appends ``y*n + k`` to the row of each labeled
    neighbour y, which keeps every row sorted since k is the largest
    label, and backtracking pops it.  A count per vertex of its edges to
    unlabeled vertices moves ``a`` forward without a rescan, and the
    candidates come from the neighbours of ``a``.  The prefix is the
    finished rows plus row ``a``.  Each node keeps the tie
    automorphisms that fix its labeled vertices and adds to them only
    those found since it last looked.  The search tree and the pruning
    are those of the search that rebuilt every row, so the least list
    is the same.
    """
    n = g.n_vertices
    deg = g.degrees()
    nbrs = [{} for _ in range(n)]
    for (u, w) in g.edges:
        nbrs[u][w] = nbrs[u].get(w, 0) + 1
        if u != w:
            nbrs[w][u] = nbrs[w].get(u, 0) + 1
    adj = [sorted(d.items()) for d in nbrs]  # (neighbour, multiplicity)
    label_deg = sorted(deg)
    block = {}
    for v, d in enumerate(deg):
        block.setdefault(d, []).append(v)
    unl = [deg[v] - 2 * nbrs[v].get(v, 0) for v in range(n)]  # to unlabeled
    rows = [[] for _ in range(n)]  # by label y: the codes y*n + z, z >= y
    lab = [-1] * n
    order = []
    best = best_order = None
    auts = []  # automorphisms found at ties, as lists p with v -> p[v]

    def search(k, done, start):
        """done: the rows of the labels below start, all finished."""
        nonlocal best, best_order
        while start < k and not unl[order[start]]:
            done = done + rows[start]
            start += 1
        a = start if start < k else -1
        prefix = done + rows[a] if a >= 0 else done
        if best is not None:
            if prefix > best:  # as prefix > best[:len(prefix)]
                return
            m = len(prefix)
            if m < len(best):
                bound = a * n + k if a >= 0 else k * n + k
                if bound > best[m] and prefix == best[:m]:
                    return
        if k == n:
            if best is None or prefix < best:
                best, best_order = prefix, order[:]
            elif prefix == best:
                p = [0] * n
                for v, w in zip(order, best_order):
                    p[v] = w
                auts.append(p)
            return
        d = label_deg[k]
        cands = None
        if a >= 0:  # the unlabeled ones of d with the most edges to a
            top = 0
            for w, m in adj[order[a]]:
                if lab[w] < 0 and deg[w] == d:
                    if m > top:
                        top, cands = m, [w]
                    elif m == top:
                        cands.append(w)
        if cands is None:
            cands = [v for v in block[d] if lab[v] < 0]
        tried = set()
        fixing, seen = [], 0  # the auts that fix order, of auts[:seen]
        for v in cands:
            if v in tried:
                continue
            lab[v] = k
            order.append(v)
            for w, m in adj[v]:
                y = lab[w]
                if y >= 0:
                    rows[y] += [y * n + k] * m
                if w != v:
                    unl[w] -= m
            search(k + 1, done, start)
            for w, m in adj[v]:
                y = lab[w]
                if y >= 0:
                    del rows[y][-m:]
                if w != v:
                    unl[w] += m
            order.pop()
            lab[v] = -1
            if len(cands) == 1:
                break
            tried.add(v)
            if auts and len(tried) < len(cands):  # skip v's images
                # order is fixed at this node, so only auts[seen:] are new
                fixing += [p for p in auts[seen:]
                           if all(p[u] == u for u in order)]
                seen = len(auts)
                stack = [v]
                while stack:
                    x = stack.pop()
                    for p in fixing:
                        if p[x] not in tried:
                            tried.add(p[x])
                            stack.append(p[x])

    search(0, [], 0)
    return tuple(divmod(c, n) for c in best)


def _vertex_automorphisms(g: Multigraph) -> list:
    """Every vertex permutation ``phi`` (v goes to ``phi[v]``) that
    keeps the number of edges between every two vertices, ascending.

    The vertices are placed in breadth-first order, so each one after
    the first of its piece goes to a neighbour of its parent's image.
    A candidate must have as many loops as the vertex, the same
    multiplicities, sorted, and the same ones to every vertex placed
    before it.
    """
    n = g.n_vertices
    mult = [[0] * n for _ in range(n)]
    for u, w in g.edges:
        mult[u][w] += 1
        if u != w:
            mult[w][u] += 1
    profile = [sorted(row) for row in mult]
    order, parent = [], [-1] * n
    for root in range(n):
        if root in order:
            continue
        queue = [root]
        for u in queue:  # the queue grows as it is walked
            for w in range(n):
                if mult[u][w] and w not in queue:
                    parent[w] = u
                    queue.append(w)
        order += queue
    phi, used, out = [-1] * n, [False] * n, []

    def extend(k):
        if k == n:
            out.append(tuple(phi))
            return
        u = order[k]
        row = mult[u]
        cands = range(n) if parent[u] < 0 else [
            x for x in range(n) if mult[phi[parent[u]]][x]]
        for x in cands:
            if used[x] or mult[x][x] != row[u] or profile[x] != profile[u] \
                    or any(row[w] != mult[x][phi[w]] for w in order[:k]):
                continue
            phi[u], used[x] = x, True
            extend(k + 1)
            used[x] = False

    extend(0)
    return sorted(out)


def _check_cap(g: Multigraph, what: str) -> None:
    """Raise TooLarge when g has more than MAX_VERTICES vertices;
    ``what`` names the capped step."""
    if g.n_vertices > MAX_VERTICES:
        raise TooLarge(f"{g.n_vertices} vertices exceeds the {what} cap "
                       f"{MAX_VERTICES}")


def _check_cyclic_part(g: Multigraph, what: str) -> None:
    """Raise NotCyclicPart, naming g's first vertex of degree below 2,
    when g is not its own cyclic part; ``what`` names the step."""
    if not is_cyclic_part(g):
        deg = g.degrees()
        v = next(v for v, d in enumerate(deg) if d < 2)
        raise NotCyclicPart(f"{what} needs the cyclic part: vertex {v} "
                            f"has degree {deg[v]}")


def canonical_form(g: Multigraph):
    """Canonical label: (V, lexicographically least relabeled edge list).

    Equal exactly for isomorphic graphs.  The least list is taken over
    the relabelings that number the vertices in ascending degree order;
    a pruned search (``_least_form``) finds it without trying them
    all.  Capped at MAX_VERTICES.
    """
    _check_cap(g, "canonical_form")
    return (g.n_vertices, _least_form(g))


def isomorphic(g: Multigraph, h: Multigraph) -> bool:
    """Graph isomorphism for small instances via canonical forms."""
    if g.n_vertices != h.n_vertices or g.n_edges != h.n_edges:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


def automorphisms(g: Multigraph):
    """All automorphisms as (vertex permutation, edge permutation) pairs.

    The vertex permutations are those of ``_vertex_automorphisms``, in
    ascending order, so the identity comes first.  Each is paired
    with every edge bijection that respects it: parallel edges may be
    permuted freely within their endpoint class.  The result always
    contains the identity pair and is closed under composition.  Capped
    at MAX_VERTICES.
    """
    _check_cap(g, "automorphisms")
    vperms = _vertex_automorphisms(g)

    by_pair = defaultdict(list)
    for e, (u, v) in enumerate(g.edges):
        by_pair[(u, v) if u <= v else (v, u)].append(e)
    parallel = [p for p in sorted(by_pair) if len(by_pair[p]) > 1]
    out = []
    for phi in vperms:
        image = defaultdict(list)
        for e, (u, v) in enumerate(g.edges):
            x, y = phi[u], phi[v]
            image[(x, y) if x <= y else (y, x)].append(e)
        eperm = [None] * g.n_edges
        for p, targets in by_pair.items():  # the one way of a single edge
            eperm[image[p][0]] = targets[0]
        # per class of parallel edges, all ways to assign sources onto
        # targets
        for choice in itertools.product(*[itertools.permutations(by_pair[p])
                                          for p in parallel]):
            for p, targets in zip(parallel, choice):
                for src, dst in zip(image[p], targets):
                    eperm[src] = dst
            out.append((phi, tuple(eperm)))
    return tuple(out)


# --- text format ---

def parse_graph(text: str):
    """Parse the graph text format; returns (name, Multigraph).

    Format, one item per line ('#' starts a comment):

        graph <name>
        vertex <id>
        edge <id> <u> <v>

    Vertex and edge ids must be dense (0..V-1 / 0..E-1), each declared
    once; endpoints must reference declared vertices.  The name must
    hold no character that XML 1.0 cannot carry (a C0 control other
    than whitespace, a surrogate, U+FFFE, U+FFFF), so that every writer,
    SVG included, can print it.  A disconnected graph is reported at
    its graph line.
    """
    name = None
    vertices = {}
    edge_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if name is not None:
                raise ParseError(lineno, "duplicate graph line")
            if len(parts) != 2:
                raise ParseError(lineno, "expected: graph <name>")
            name = parts[1]
            # split() removed the C0 whitespace, so any c < " " left is
            # a control character XML 1.0 excludes
            bad = next((c for c in name if c < " " or c in "\ufffe\uffff"
                        or "\ud800" <= c <= "\udfff"), None)
            if bad is not None:
                raise ParseError(lineno, f"graph name holds U+{ord(bad):04X}, "
                                         "which XML cannot carry")
            graph_line = lineno
        elif kind == "vertex":
            if len(parts) != 2:
                raise ParseError(lineno, "expected: vertex <id>")
            vid = _int_token(lineno, parts[1])
            if vid in vertices:
                raise ParseError(lineno, f"duplicate vertex id {vid}")
            vertices[vid] = lineno
        elif kind == "edge":
            if len(parts) != 4:
                raise ParseError(lineno, "expected: edge <id> <u> <v>")
            eid, u, v = (_int_token(lineno, t) for t in parts[1:])
            if eid in edge_lines:
                raise ParseError(lineno, f"duplicate edge id {eid}")
            edge_lines[eid] = (lineno, u, v)
        elif kind in ("rotation", "sign"):
            continue  # scheme-format lines; ignored by the graph parser
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    if name is None:
        raise ParseError(1, "missing graph line")
    if not vertices:
        raise ParseError(1, "graph declares no vertices")
    if sorted(vertices) != list(range(len(vertices))):
        raise ParseError(min(vertices.values()),
                         "vertex ids must be dense 0..V-1")
    if sorted(edge_lines) != list(range(len(edge_lines))):
        bad = min(line for line, _u, _v in edge_lines.values())
        raise ParseError(bad, "edge ids must be dense 0..E-1")
    edges = []
    for eid in range(len(edge_lines)):
        lineno, u, v = edge_lines[eid]
        if u not in vertices or v not in vertices:
            raise ParseError(lineno, f"edge {eid} references unknown vertex")
        edges.append((u, v))
    try:
        return name, build(len(vertices), edges)
    except Disconnected as exc:
        raise Disconnected(f"line {graph_line}: {exc}") from None


def _int_token(lineno, token):
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {token!r}") from None


def format_graph(name: str, g: Multigraph) -> str:
    lines = [f"graph {name}"]
    lines += [f"vertex {v}" for v in range(g.n_vertices)]
    lines += [f"edge {e} {u} {v}" for e, (u, v) in enumerate(g.edges)]
    return "\n".join(lines) + "\n"
