"""Test-only helpers shared by several test modules."""
from collections import defaultdict

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import reduce as rd
from clstruct import scheme as sch
from clstruct import verify
from clstruct.errors import (ClstructError, LoopContraction, NoSuchVertex,
                             SwitchedContraction)
from clstruct.multigraph import Multigraph
from clstruct.scheme import Scheme, _anchor


def fundamental_cycle_basis(g: Multigraph) -> tuple:
    """One fundamental cycle per non-tree edge of a deterministic tree.

    The spanning tree takes edges greedily by lowest id (loops are never
    tree edges).  Returns edge sets ordered by their non-tree edge id;
    the list length equals cycle_rank(g).
    """
    tree, extra = mg._spanning_tree(g)
    tree_adj = defaultdict(list)
    for e in tree:
        u, v = g.edges[e]
        tree_adj[u].append((v, e))
        tree_adj[v].append((u, e))

    def tree_path(a, b):
        """Edge ids along the unique tree path from a to b."""
        prev = {a: (None, None)}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                break
            for (y, e) in tree_adj[x]:
                if y not in prev:
                    prev[y] = (x, e)
                    stack.append(y)
        path = []
        x = b
        while prev[x][0] is not None:
            x, e = prev[x]
            path.append(e)
        return path

    basis = []
    for e in extra:
        u, v = g.edges[e]
        if u == v:
            basis.append(frozenset([e]))
        else:
            basis.append(frozenset([e] + tree_path(u, v)))
    return tuple(basis)


def oracle_witness_rotation(g: Multigraph, signs) -> tuple:
    """The first rotation, in ``_rotations`` order, that makes a
    realizable sign table a strip: every rotation of the whole graph
    traced in turn, no decomposition."""
    for rotation in cf._rotations(g):
        if sch.boundary_trace(sch.Scheme(g, rotation, signs)).b == 1:
            return rotation
    raise AssertionError(f"no strip rotation for realizable signs {signs}")


def packed_strip_args(signs) -> tuple:
    """(table, masks) for ``scheme._single_orbit_strip`` from a sign
    tuple: the table packed by ``_pack_signs``, and per dart-side state
    2h + s the bit of h's edge."""
    n_edges = len(signs)
    masks = [1 << (n_edges - 1 - (st >> 2)) for st in range(4 * n_edges)]
    return cf._pack_signs(signs), masks


def count_strip_tests(monkeypatch) -> list:
    """Count ``scheme._single_orbit_strip`` calls, the strip tests of
    every search walk, in the returned one-item list."""
    kernel = sch._single_orbit_strip
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(sch, "_single_orbit_strip", counted)
    return calls


def reference_least_form(g: Multigraph) -> tuple:
    """The lex-least relabeled edge list, by ``multigraph._least_form``
    as it was before it kept its rows incrementally: each node rebuilds
    the rows of the labels from ``start`` on out of the neighbour dicts,
    and scans all n vertices for the candidates of label k.  The search
    tree and the pruning are those ``_least_form`` documents, so the
    two must return the same list on every graph.
    """
    n = g.n_vertices
    deg = g.degrees()
    nbrs = [{} for _ in range(n)]
    for (u, w) in g.edges:
        nbrs[u][w] = nbrs[u].get(w, 0) + 1
        if u != w:
            nbrs[w][u] = nbrs[w].get(u, 0) + 1
    label_deg = sorted(deg)
    lab = [-1] * n
    order = []
    best = best_order = None
    auts = []  # automorphisms found at ties, as lists p with v -> p[v]

    def search(k, done, start):
        """done: the rows of order[:start], complete at the caller."""
        nonlocal best, best_order
        prefix = done
        a = -1
        for x in range(start, k):
            row = []
            for w, m in nbrs[order[x]].items():
                y = lab[w]
                if y < 0:
                    a = x
                elif y >= x:
                    row += [x * n + y] * m
            row.sort()
            prefix = prefix + row
            if a >= 0:
                break
            done, start = prefix, x + 1
        if best is not None:
            m = len(prefix)
            head = best[:m]
            if prefix > head:
                return
            if prefix == head and m < len(best):
                bound = a * n + k if a >= 0 else k * n + k
                if bound > best[m]:
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
        cands = [v for v in range(n) if lab[v] < 0 and deg[v] == label_deg[k]]
        if a >= 0:
            joins = [nbrs[order[a]].get(v, 0) for v in cands]
            top = max(joins)
            if top:
                cands = [v for v, m in zip(cands, joins) if m == top]
        tried = set()
        for v in cands:
            if v in tried:
                continue
            lab[v] = k
            order.append(v)
            search(k + 1, done, start)
            order.pop()
            lab[v] = -1
            tried.add(v)
            if auts and len(tried) < len(cands):  # skip v's images
                fixing = [p for p in auts if all(p[u] == u for u in order)]
                stack = [v]
                while stack:
                    x = stack.pop()
                    for p in fixing:
                        if p[x] not in tried:
                            tried.add(p[x])
                            stack.append(p[x])

    search(0, [], 0)
    return tuple(divmod(c, n) for c in best)


def reference_cyclic_part(g: Multigraph) -> mg.CyclicPart:
    """``multigraph.cyclic_part`` as it was before it lowered degrees
    per stripped edge: every round recounts the degree of every
    surviving edge, O(V * E).  Both strip every current leaf at once,
    so the two must return the same record on every graph.
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
    return mg.CyclicPart(*mg._restrict(g, alive_v, alive_e))


def reference_wedge_walk(q, tables=None):
    """``verify.wedge_classes_reached`` as it was before it contracted
    each forest in edge-id order: every contraction order is walked,
    and a ``seen`` set of every scheme reached keeps a scheme from
    being walked twice.  The two must reach the same one-vertex
    schemes.
    """
    wedge = mg.build(1, [(0, 0)] * q)
    classes = cf.equivalence_classes(wedge)
    index_of = {t: i for i, c in enumerate(classes) for t in c.tables}
    reached = set()
    seen = set()
    stack = [s for _g, (schemes, counts, _starts, _orient)
             in verify._tabled_graphs(tables, qs=(q,))
             for s, b in zip(schemes, counts) if b == 1]
    while stack:
        s = stack.pop()
        key = (s.graph.n_vertices, s.graph.edges, s.rotation, s.signs)
        if key in seen:
            continue
        seen.add(key)
        if s.graph.n_vertices == 1:
            reached.add(index_of.get(cf._pack_signs(s.signs)))
            continue
        for e, (u, v) in enumerate(s.graph.edges):
            if u != v and s.signs[e] == 0:
                stack.append(rd.contract_unswitched(s, e))
    return reached, len(classes)


def reference_contract_unswitched(s: Scheme, e: int) -> Scheme:
    """``reduce.contract_unswitched`` as it was before it kept the
    cycles below the contracted darts and renumbered endpoints without
    an id list: every cycle is shifted and every endpoint looked up."""
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


def reference_vertex_flip(s: Scheme, v: int) -> Scheme:
    """``scheme.vertex_flip`` as it was before it reversed an anchored
    rotation in place of anchoring the reversed one again."""
    if not (0 <= v < s.graph.n_vertices):
        raise NoSuchVertex(f"no vertex {v}")
    rotation = list(s.rotation)
    rotation[v] = _anchor(reversed(rotation[v]))
    signs = list(s.signs)
    for h in s.rotation[v]:  # a loop has both darts here: toggled twice
        signs[h >> 1] ^= 1
    # valid by construction: the same darts per vertex, signs still 0/1
    return Scheme(s.graph, tuple(rotation), tuple(signs))
