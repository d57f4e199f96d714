"""Seeded input generators for the benchmark (standard library only).

Both generators write the text formats that ``clstruct`` reads, so the
program under test receives nothing but files.  The same seed always
gives the same files.
"""
import random

#: Seed of the pairing-model draw that fixes the rank-5 graphs.
POOL_SEED = 0
#: One graph of each kind per classify job.  Bridgeless graphs cost
#: several times more than graphs that split into components, so the job
#: holds a fixed share of each (1 of 3 bridgeless).
KINDS = ("bridgeless", "loops", "bridges")


def _connected(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == n


def _bridges(n, edges):
    """Non-loop edges whose removal disconnects the graph."""
    return [e for e, (u, v) in enumerate(edges)
            if u != v and not _connected(n, edges[:e] + edges[e + 1:])]


def pairing_cubic(rng, n):
    """Connected cubic multigraph on n vertices by the pairing model:
    three points per vertex, a uniform perfect matching of the points,
    redrawn until connected.  Loops and parallel edges are kept."""
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = [tuple(sorted(points[i:i + 2]))
                 for i in range(0, len(points), 2)]
        if _connected(n, edges):
            return edges


def graph_kind(n, edges):
    if any(u == v for u, v in edges):
        return "loops"
    return "bridges" if _bridges(n, edges) else "bridgeless"


def pool_graphs(q=5):
    """{kind: edges}: the first pairing-model draw of each kind in KINDS,
    from POOL_SEED."""
    n = 2 * (q - 1)
    rng = random.Random(POOL_SEED)
    found = {}
    while len(found) < len(KINDS):
        edges = pairing_cubic(rng, n)
        found.setdefault(graph_kind(n, edges), edges)
    return found


def format_graph(name, n, edges):
    lines = [f"graph {name}"]
    lines += [f"vertex {v}" for v in range(n)]
    lines += [f"edge {e} {u} {v}" for e, (u, v) in enumerate(edges)]
    return "\n".join(lines) + "\n"


def classify_graphs(seed, q=5):
    """[(kind, file text)]: the pool graphs as drawn, with the vertex
    and edge lines of each file in an order shuffled by seed.

    The graphs themselves do not depend on the seed.  The search cost of
    one rank-5 graph moves by up to 1.6x when only its vertices and edges
    are relabeled, since the search then meets its witnesses in another
    order; a job of three graphs cannot average that out, so relabeling
    by seed would make the job size, not the program, set the spread
    between seeds.
    """
    n = 2 * (q - 1)
    rng = random.Random(seed)
    graphs = pool_graphs(q)
    out = []
    for kind in KINDS:
        head, *body = format_graph(f"q{q}-{kind}", n,
                                   graphs[kind]).splitlines()
        rng.shuffle(body)
        out.append((kind, "\n".join([head] + body) + "\n"))
    return out


def random_scheme(rng, max_vertices=5, max_edges=9):
    """(n, edges, rotation, signs) of a random cyclic part (every degree
    at least 2) with at least one vertex of degree greater than 3: a
    random spanning tree plus random extra edges, redrawn until valid."""
    def valid(n, edges):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        return min(deg) >= 2 and max(deg) > 3

    while True:
        n = rng.randint(1, max_vertices)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        while len(edges) < max_edges and not (valid(n, edges)
                                              and rng.random() < 0.3):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            edges.append((u, v))
        if valid(n, edges):
            break
    rng.shuffle(edges)
    darts = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        darts[u].append(2 * e)
        darts[v].append(2 * e + 1)
    for ds in darts:
        rng.shuffle(ds)
    signs = [rng.randint(0, 1) for _ in edges]
    return n, edges, darts, signs


def format_scheme(name, n, edges, rotation, signs):
    lines = [format_graph(name, n, edges).rstrip("\n")]
    for v, ds in enumerate(rotation):
        lines.append(f"rotation {v} " +
                     " ".join(f"{h >> 1}.{h & 1}" for h in ds))
    lines += [f"sign {e} {x}" for e, x in enumerate(signs)]
    return "\n".join(lines) + "\n"


def scheme_files(seed, count):
    """[(stem, file text)] of count random schemes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        stem = f"s{i:04d}"
        out.append((stem, format_scheme(stem, *random_scheme(rng))))
    return out
