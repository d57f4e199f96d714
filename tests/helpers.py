"""Test-only helpers shared by several test modules."""
from collections import defaultdict

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import scheme as sch
from clstruct.multigraph import Multigraph


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
