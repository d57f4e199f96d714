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
