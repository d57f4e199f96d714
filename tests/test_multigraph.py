import itertools
import random
import time
from collections import defaultdict

import pytest

from clstruct import classify, verify
from clstruct import multigraph as mg
from clstruct.errors import (Disconnected, EndpointOutOfRange, ParseError,
                             TooLarge)
from helpers import (fundamental_cycle_basis, reference_cyclic_part,
                     reference_least_form)


def theta():
    return mg.build(2, [(0, 1), (0, 1), (0, 1)])


def dumbbell():
    return mg.build(2, [(0, 0), (0, 1), (1, 1)])


def k4():
    return mg.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_build_basics():
    g = dumbbell()
    assert g.n_edges == 3
    assert g.n_darts == 6
    assert g.degrees() == (3, 3)
    # dart h belongs to edge h//2, at the h%2 end
    assert g.darts()[0] == (0, 1, 2)
    assert g.darts()[1] == (3, 4, 5)


def test_build_point_and_loop():
    point = mg.build(1, [])
    assert point.n_edges == 0
    assert point.degrees() == (0,)
    loop = mg.build(1, [(0, 0)])
    assert loop.degree(0) == 2  # a loop counts twice


def test_build_rejects_bad_input():
    with pytest.raises(EndpointOutOfRange):
        mg.build(2, [(0, 2)])
    with pytest.raises(EndpointOutOfRange):
        mg.build(0, [])
    with pytest.raises(Disconnected):
        mg.build(2, [(0, 0), (1, 1)])
    with pytest.raises(Disconnected):
        mg.build(3, [(0, 1)])


def test_cycle_rank():
    assert mg.cycle_rank(theta()) == 2
    assert mg.cycle_rank(dumbbell()) == 2
    assert mg.cycle_rank(k4()) == 3
    assert mg.cycle_rank(mg.build(1, [])) == 0
    assert mg.cycle_rank(mg.build(3, [(0, 1), (1, 2)])) == 0


def test_bridges_theta():
    d = mg.bridges_and_components(theta())
    assert d.bridges == ()
    assert len(d.components) == 1
    assert d.components[0].edges == frozenset({0, 1, 2})


def test_bridges_dumbbell():
    d = mg.bridges_and_components(dumbbell())
    assert d.bridges == (1,)
    assert [sorted(c.edges) for c in d.components] == [[0], [2]]
    assert [sorted(c.vertices) for c in d.components] == [[0], [1]]


def test_bridges_path():
    g = mg.build(3, [(0, 1), (1, 2)])
    d = mg.bridges_and_components(g)
    assert d.bridges == (0, 1)
    assert d.components == ()


def test_loops_are_never_bridges():
    g = mg.build(1, [(0, 0)])
    assert mg.bridges_and_components(g).bridges == ()


def path(n):
    return mg.build(n, [(v, v + 1) for v in range(n - 1)])


def star(n, centre):
    return mg.build(n, [(centre, v) for v in range(n) if v != centre])


def test_cyclic_part_strips_trees():
    # path with a pendant triangle: leaves vanish, triangle survives
    g = mg.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 3)])
    part = mg.cyclic_part(g)
    assert part.graph.n_vertices == 2
    assert part.graph.n_edges == 2
    assert part.vertex_map == {2: 0, 3: 1}
    assert part.edge_map == {2: 0, 4: 1}


def test_cyclic_part_of_tree_is_point():
    # every round strips all current leaves: a star keeps its centre, a
    # 5-vertex path its middle, and a 4-vertex path, whose last two
    # vertices go in one round, vertex 0
    cases = [(mg.build(4, [(0, 1), (1, 2), (1, 3)]), 1), (star(6, 3), 3),
             (path(5), 2), (path(4), 0), (path(2), 0), (path(1), 0)]
    for g, kept in cases:
        part = mg.cyclic_part(g)
        assert part.graph == mg.build(1, [])
        assert part.vertex_map == {kept: 0}
        assert part.edge_map == {}


def test_cyclic_part_idempotent():
    g = dumbbell()
    part = mg.cyclic_part(g)
    assert part.graph == g
    assert mg.is_cyclic_part(g)
    assert not mg.is_cyclic_part(mg.build(2, [(0, 1)]))
    assert mg.is_cyclic_part(mg.build(1, []))


def test_cyclic_part_matches_reference():
    # the same whole record, maps included, as the loop that recounted
    # every degree each round: seeded draws (pendant trees on cycles,
    # loops, parallel edges), and every path, star and seeded tree
    rng = random.Random(33)
    graphs = [verify.random_multigraph(rng, 12, 4) for _ in range(1500)]
    for n in range(1, 14):
        graphs.append(path(n))
        graphs += [star(n, c) for c in range(n)]
        for _ in range(20):
            ids = list(range(n))
            rng.shuffle(ids)
            graphs.append(mg.build(n, [(ids[rng.randrange(v)], ids[v])
                                       for v in range(1, n)]))
    assert sum(mg.cycle_rank(g) == 0 for g in graphs) > 300
    for g in graphs:
        assert mg.cyclic_part(g) == reference_cyclic_part(g), g


def test_cyclic_part_strips_a_long_pendant_path_in_linear_time():
    n = 3000
    g = mg.build(n + 3, [(0, 1), (1, 2), (2, 0)]
                 + [(v, v + 1) for v in range(2, n + 2)])
    t0 = time.perf_counter()
    part = mg.cyclic_part(g)
    assert time.perf_counter() - t0 < 1.0
    assert part.graph == mg.build(3, [(0, 1), (1, 2), (2, 0)])
    assert part.vertex_map == {0: 0, 1: 1, 2: 2}
    assert part.edge_map == {0: 0, 1: 1, 2: 2}


def test_bridges_components_and_tree_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(300):
        g = verify.random_multigraph(rng)  # loops and parallel edges
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.n_vertices))
        h.add_edges_from(g.edges)
        d = mg.bridges_and_components(g)
        assert sorted(tuple(sorted(g.edges[e])) for e in d.bridges) == \
            sorted(tuple(sorted(b)) for b in nx.bridges(h)), g
        h.remove_edges_from([g.edges[e] for e in d.bridges])
        expected = set()
        for vs in nx.connected_components(h):
            es = frozenset(e for e, (u, _v) in enumerate(g.edges)
                           if u in vs and e not in d.bridges)
            if es:
                expected.add((es, frozenset(vs)))
        assert {(c.edges, c.vertices) for c in d.components} == expected, g

        tree, extra = mg._spanning_tree(g)
        assert len(tree) == g.n_vertices - 1
        assert sorted(tree + extra) == list(range(g.n_edges))
        t = nx.Graph()
        t.add_nodes_from(range(g.n_vertices))
        t.add_edges_from(g.edges[e] for e in tree)
        assert nx.is_tree(t), g


def remove_and_test_decomposition(g):
    """``mg.bridges_and_components`` as it was before the lowpoint
    search: each spanning-tree edge is a bridge iff g without it is
    disconnected, O(V * E).  Test-only reference."""
    def connected_without(skip):
        dsu = mg._UnionFind(g.n_vertices)
        joins = sum(dsu.union(u, v) for e, (u, v) in enumerate(g.edges)
                    if e != skip)
        return joins == g.n_vertices - 1

    bridges = tuple(e for e in mg._spanning_tree(g)[0]
                    if not connected_without(e))
    kept = [e for e in range(g.n_edges) if e not in bridges]
    dsu = mg._UnionFind(g.n_vertices)
    for e in kept:
        dsu.union(*g.edges[e])
    grouped = defaultdict(set)
    for e in kept:
        grouped[dsu.find(g.edges[e][0])].add(e)
    components = []
    for root in sorted(grouped, key=lambda r: min(grouped[r])):
        es = frozenset(grouped[root])
        vs = frozenset(v for e in es for v in g.edges[e])
        components.append(mg.Component(es, vs))
    return mg.Decomposition(bridges, tuple(components))


def test_lowpoint_bridges_match_remove_and_test(census):
    rng = random.Random(17)
    drawn = [verify.random_multigraph(rng) for _ in range(300)]
    assert sum(bool(mg.bridges_and_components(g).bridges)
               for g in drawn) > 100
    assert sum(any(u == v for u, v in g.edges) for g in drawn) > 100
    assert sum(len(set(g.edges)) < g.n_edges for g in drawn) > 100
    graphs = [g for q in (2, 3, 4, 5) for g in census[q]] + drawn
    graphs += [mg.build(1, []), mg.build(2, [(0, 1)] * 2),
               mg.build(3, [(0, 1), (1, 2)])]
    for g in graphs:
        assert mg.bridges_and_components(g) == \
            remove_and_test_decomposition(g), g


def test_fundamental_cycle_basis():
    basis = fundamental_cycle_basis(theta())
    assert len(basis) == 2
    for cyc in basis:
        assert len(cyc) == 2
    basis = fundamental_cycle_basis(dumbbell())
    assert sorted(map(sorted, basis)) == [[0], [2]]


def test_automorphism_counts():
    # pairs (vertex permutation, edge permutation)
    assert len(mg.automorphisms(theta())) == 12
    assert len(mg.automorphisms(k4())) == 24
    # every edge image is forced once the vertex swap is chosen
    assert len(mg.automorphisms(dumbbell())) == 2


def test_automorphisms_form_a_group():
    auts = mg.automorphisms(dumbbell())
    vperms = {vp for vp, _ in auts}
    assert (0, 1) in vperms
    eperms = {ep for _, ep in auts}
    # closure under composition
    for a in eperms:
        for b in eperms:
            assert tuple(a[b[i]] for i in range(3)) in eperms


def test_isomorphism():
    assert mg.isomorphic(theta(), mg.build(2, [(1, 0), (0, 1), (1, 0)]))
    assert not mg.isomorphic(theta(), dumbbell())
    relabeled = mg.build(2, [(1, 1), (0, 1), (0, 0)])
    assert mg.canonical_form(dumbbell()) == mg.canonical_form(relabeled)
    assert mg.canonical_form(theta()) != mg.canonical_form(dumbbell())


def test_labeling_cap_is_ten_vertices():
    cycle = mg.build(11, [(v, (v + 1) % 11) for v in range(11)])
    with pytest.raises(TooLarge, match="canonical_form cap 10"):
        mg.canonical_form(cycle)
    with pytest.raises(TooLarge, match="automorphisms cap 10"):
        mg.automorphisms(cycle)
    ten = mg.build(10, [(v, (v + 1) % 10) for v in range(10)])
    assert len(mg.automorphisms(ten)) == 20


# --- brute-force oracle for the labeling and automorphism searches ---

def _block_maps(g, targets):
    """Every map sending the degree blocks of g (ascending degree) onto
    targets(blocks), block by block."""
    by_deg = defaultdict(list)
    for v, d in enumerate(g.degrees()):
        by_deg[d].append(v)
    blocks = [by_deg[d] for d in sorted(by_deg)]
    for perms in itertools.product(*(itertools.permutations(b)
                                     for b in targets(blocks))):
        phi = [0] * g.n_vertices
        for block, perm in zip(blocks, perms):
            for v, w in zip(block, perm):
                phi[v] = w
        yield tuple(phi)


def _relabeled_edges(g, phi):
    return tuple(sorted(tuple(sorted((phi[u], phi[v]))) for (u, v) in g.edges))


def _new_ids(blocks):
    """Ids 0..V-1 handed out block by block."""
    out, start = [], 0
    for b in blocks:
        out.append(range(start, start + len(b)))
        start += len(b)
    return out


def oracle_canonical_form(g):
    """Least relabeled edge list over every relabeling."""
    return (g.n_vertices,
            min(_relabeled_edges(g, phi) for phi in _block_maps(g, _new_ids)))


def oracle_automorphisms(g):
    """Every vertex permutation that keeps the edge multiset, paired with
    every edge bijection that respects it."""
    own = _relabeled_edges(g, range(g.n_vertices))
    by_pair = defaultdict(list)
    for e, (u, v) in enumerate(g.edges):
        by_pair[tuple(sorted((u, v)))].append(e)
    out = []
    for phi in _block_maps(g, lambda blocks: blocks):
        if _relabeled_edges(g, phi) != own:
            continue
        image = defaultdict(list)
        for e, (u, v) in enumerate(g.edges):
            image[tuple(sorted((phi[u], phi[v])))].append(e)
        options = [[tuple(zip(image[p], pi))
                    for pi in itertools.permutations(by_pair[p])]
                   for p in sorted(by_pair)]
        for choice in itertools.product(*options):
            eperm = [None] * g.n_edges
            for group in choice:
                for (src, dst) in group:
                    eperm[src] = dst
            out.append((phi, tuple(eperm)))
    return out


def _assert_matches_oracle(g):
    assert mg.canonical_form(g) == oracle_canonical_form(g), g
    auts = mg.automorphisms(g)
    assert auts[0] == (tuple(range(g.n_vertices)), tuple(range(g.n_edges)))
    assert sorted(auts) == sorted(oracle_automorphisms(g)), g


def _labeled_cubic(n: int):
    """All labeled 3-regular multigraphs on n vertices (backtracking)."""
    residual = [3] * n
    edges = []
    results = []

    def fill(v):
        if v == n:
            results.append(tuple(edges))
            return
        for loops in range(residual[v] // 2, -1, -1):
            residual[v] -= 2 * loops
            edges.extend([(v, v)] * loops)
            spread(v, v + 1)
            residual[v] += 2 * loops
            del edges[len(edges) - loops:]

    def spread(v, w):
        """Distribute residual[v] over cross edges to vertices >= w."""
        if residual[v] == 0:
            fill(v + 1)
            return
        if w == n:
            return
        top = min(residual[v], residual[w])
        for k in range(top, -1, -1):
            residual[v] -= k
            residual[w] -= k
            edges.extend([(v, w)] * k)
            spread(v, w + 1)
            residual[v] += k
            residual[w] += k
            del edges[len(edges) - k:]

    fill(0)
    return results


def _connected_labeled_cubic(n):
    out = []
    for edges in _labeled_cubic(n):
        g = mg.Multigraph(n, edges)
        if mg._connected(g):
            out.append(g)
    return out


@pytest.mark.parametrize("n", [2, 4])
def test_search_matches_oracle_on_every_labeled_cubic_graph(n):
    for g in _connected_labeled_cubic(n):
        _assert_matches_oracle(g)


def test_search_matches_oracle_on_sampled_six_vertex_cubic_graphs():
    rng = random.Random(6)
    for g in rng.sample(_connected_labeled_cubic(6), 200):
        _assert_matches_oracle(g)


def test_search_matches_oracle_on_random_multigraphs():
    # loops, parallel edges and several degree blocks
    rng = random.Random(7)
    for _ in range(300):
        _assert_matches_oracle(verify.random_multigraph(rng, max_vertices=7))


def test_search_matches_oracle_on_disconnected_graphs():
    # not built by mg.build, but both functions accept them
    for n, edges in [(2, ()), (3, ((0, 0),)), (4, ((0, 1), (2, 3))),
                     (4, ((0, 1), (0, 1), (2, 3), (3, 3)))]:
        _assert_matches_oracle(mg.Multigraph(n, edges))


def test_cubic_census_against_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.n_vertices))
        h.add_edges_from(g.edges)
        return h

    # OEIS A005967: connected cubic multigraphs with loops on 2(q-1) nodes
    census = {q: classify.generate_cubic_graphs(q) for q in (2, 3, 4)}
    assert {q: len(gs) for q, gs in census.items()} == {2: 2, 3: 5, 4: 17}
    graphs = [to_nx(g) for g in census[4]]
    for a, b in itertools.combinations(graphs, 2):
        assert not nx.is_isomorphic(a, b)


# --- the edge-insertion generator against the labeled oracle ---

@pytest.fixture(scope="module")
def census():
    return {q: classify.generate_cubic_graphs(q) for q in (2, 3, 4, 5)}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_edge_insertion_matches_labeled_oracle(q, census):
    forms = {mg.canonical_form(g)
             for g in _connected_labeled_cubic(2 * (q - 1))}
    assert census[q] == tuple(mg.build(n, es) for (n, es) in sorted(forms))


def test_census_counts_through_rank_5(census):
    # OEIS A005967: connected cubic multigraphs with loops on 2(q-1) nodes
    assert {q: len(gs) for q, gs in census.items()} == \
        {2: 2, 3: 5, 4: 17, 5: 71}


def test_rank_5_graphs_are_cubic_and_connected(census):
    for g in census[5]:
        assert g.degrees() == (3,) * 8, g
        assert mg._connected(g), g
        assert mg.cycle_rank(g) == 5, g


def test_rank_5_graphs_pairwise_non_isomorphic_by_networkx(census):
    nx = pytest.importorskip("networkx")
    graphs = []
    for g in census[5]:
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.n_vertices))
        h.add_edges_from(g.edges)
        graphs.append(h)
    for a, b in itertools.combinations(graphs, 2):
        assert not nx.is_isomorphic(a, b)


# --- orbit pruning against the unpruned insertion walk ---

def _unpruned_insertions(n, edges):
    """Edge lists of every child of the cubic graph (n, edges) under the
    two insertion moves, on every edge and every edge pair, with no
    orbit pruning; the new vertices are a = n and b = n + 1."""
    a, b = n, n + 1
    for i, (u, v) in enumerate(edges):
        rest = edges[:i] + edges[i + 1:]
        yield rest + ((u, a), (a, v), (a, b), (b, b))
        yield rest + ((u, a), (a, b), (b, v), (a, b))
        for j in range(i, len(rest)):
            x, y = rest[j]
            yield rest[:j] + rest[j + 1:] + ((u, a), (a, v), (x, b),
                                             (b, y), (a, b))


def _unpruned_census(q):
    """generate_cubic_graphs(q) by the unpruned insertion walk."""
    seen = {mg.canonical_form(mg.build(2, [(0, 0), (0, 1), (1, 1)])),
            mg.canonical_form(mg.build(2, [(0, 1)] * 3))}
    for _rank in range(3, q + 1):
        seen = {mg.canonical_form(mg.Multigraph(n + 2, child))
                for n, edges in seen
                for child in _unpruned_insertions(n, edges)}
    return tuple(mg.build(n, es) for (n, es) in sorted(seen))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_orbit_pruned_insertion_matches_the_unpruned_walk(q, census):
    assert census[q] == _unpruned_census(q)


def _canonical_form_inputs(q, monkeypatch):
    """Every graph generate_cubic_graphs(q) passes to canonical_form."""
    calls = []
    form = mg.canonical_form

    def counting(g):
        calls.append(g)
        return form(g)

    monkeypatch.setattr(mg, "canonical_form", counting)
    classify.generate_cubic_graphs(q)
    return calls


@pytest.mark.parametrize("q, most", [(4, 60), (5, 398)])
def test_orbit_pruning_bounds_canonical_form_calls(q, most, monkeypatch):
    # the unpruned walk makes 155 calls at q = 4 and 1,073 at q = 5
    assert len(_canonical_form_inputs(q, monkeypatch)) <= most


def _assert_rows_match_the_rebuilding_search(graphs):
    for g in graphs:
        assert mg._least_form(g) == reference_least_form(g), g


def test_incremental_rows_match_the_rebuilding_search(monkeypatch):
    # the only check at 8-10 vertices: the brute-force oracle stops at 7
    graphs = _canonical_form_inputs(5, monkeypatch)
    assert len(graphs) == 398
    rng = random.Random(10)
    graphs += [verify.random_multigraph(rng, max_vertices=10, max_extra=8)
               for _ in range(500)]
    assert max(g.n_vertices for g in graphs) == 10
    _assert_rows_match_the_rebuilding_search(graphs)


@pytest.mark.slow
def test_incremental_rows_match_the_rebuilding_search_at_rank_6(
        monkeypatch):
    monkeypatch.setattr(classify, "MAX_Q", 6)
    graphs = _canonical_form_inputs(6, monkeypatch)
    assert len(graphs) == 3142
    _assert_rows_match_the_rebuilding_search(graphs)


def test_rank_6_census_past_the_cap(monkeypatch):
    monkeypatch.setattr(classify, "MAX_Q", 6)
    graphs = classify.generate_cubic_graphs(6)
    # OEIS A005967
    assert len(graphs) == 388
    for g in graphs:
        assert g.degrees() == (3,) * 10, g
        assert mg._connected(g), g
        assert mg.cycle_rank(g) == 6, g


def _without_vertex(n, edges, x):
    """Delete x and its edges; the vertices above x move down by one."""
    return n - 1, [(u - (u > x), v - (v > x)) for (u, v) in edges
                   if x not in (u, v)]


def _suppress(n, edges, x):
    """Replace the degree-2 vertex x and its two edges by one edge."""
    ends = [w for (u, v) in edges for (a, w) in ((u, v), (v, u)) if a == x]
    assert len(ends) == 2 and x not in ends
    return _without_vertex(n, edges + [tuple(ends)], x)


def _inverse_steps(g):
    """Every graph one inverse insertion step takes g to: remove a
    vertex carrying a loop and suppress its neighbour, or delete a
    non-bridge edge and suppress both of its ends."""
    bridges = set(mg.bridges_and_components(g).bridges)
    n, edges = g.n_vertices, list(g.edges)
    for e, (u, v) in enumerate(edges):
        if u == v:
            (y,) = [w for (a, b) in edges if (a == u) != (b == u)
                    for w in (a, b) if w != u]
            yield _suppress(*_without_vertex(n, edges, u), y - (y > u))
        elif e not in bridges:
            rest = edges[:e] + edges[e + 1:]
            yield _suppress(*_suppress(n, rest, max(u, v)), min(u, v))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_every_graph_has_a_parent_one_rank_down(q, census):
    below = {mg.canonical_form(h) for h in census[q - 1]}
    for g in census[q]:
        steps = list(_inverse_steps(g))
        assert steps, g
        for n, edges in steps:
            h = mg.build(n, edges)
            assert h.degrees() == (3,) * n, g
            assert mg.canonical_form(h) in below, g


def test_parse_and_format_round_trip():
    g = dumbbell()
    text = mg.format_graph("dumbbell", g)
    name, parsed = mg.parse_graph(text)
    assert name == "dumbbell"
    assert parsed == g


def test_parse_reports_line_numbers():
    text = "graph g\nvertex 0\nedge 0 0 1\n"
    with pytest.raises(ParseError) as err:
        mg.parse_graph(text)
    assert err.value.line == 3
    with pytest.raises(ParseError, match="line 1"):
        mg.parse_graph("vertex 0\n")


def test_parse_refuses_names_xml_cannot_carry():
    # every C0 control that is not whitespace, the surrogates, U+FFFE
    # and U+FFFF are refused; the rest of Unicode is kept
    for ch in ("\x00", "\x01", "\x08", "\x0e", "\x1b", "\ud800",
               "\udfff", "\ufffe", "\uffff"):
        with pytest.raises(ParseError, match="line 2") as err:
            mg.parse_graph(f"# a name\ngraph a{ch}b\nvertex 0\n")
        assert f"U+{ord(ch):04X}" in str(err.value)
    for ch in ("\x7f", "\u00e9", "\ud7ff", "\ue000", "\ufffd",
               "\U00010000"):
        assert mg.parse_graph(f"graph a{ch}b\nvertex 0\n")[0] == f"a{ch}b"


def test_parse_requires_dense_ids():
    with pytest.raises(ParseError):
        mg.parse_graph("graph g\nvertex 0\nvertex 2\n")
    with pytest.raises(ParseError):
        mg.parse_graph("graph g\nvertex 0\nedge 1 0 0\n")
