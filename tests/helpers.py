"""Test-only helpers shared by several test modules."""
from collections import defaultdict

from clstruct import multigraph as mg
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
