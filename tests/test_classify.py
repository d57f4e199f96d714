import collections
import concurrent.futures
import hashlib
import itertools
import json
import math
import random
import threading
import tracemalloc

import pytest

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import scheme as sch
from clstruct import verify
from clstruct.errors import BudgetExceeded, TooLarge
from helpers import (count_strip_tests, oracle_witness_rotation,
                     packed_strip_args)

# The rank-3 cubic multigraphs, frozen from an exhaustive backtracking
# enumeration deduplicated by canonical form and cross-checked against an
# independent networkx-based isomorphism bucketing of all labeled degree
# sequences (see notes outside the package).
RANK3_GRAPHS = [
    [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3)],
    [(0, 0), (0, 1), (1, 2), (1, 3), (2, 2), (3, 3)],
    [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)],
    [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
]


def wedge(q):
    return mg.build(1, [(0, 0)] * q)


def theta():
    return mg.build(2, [(0, 1)] * 3)


def dumbbell():
    return mg.build(2, [(0, 0), (0, 1), (1, 1)])


def loops_each_end(k):
    """k loops at each end of a bridge: both vertices have degree 2k + 1."""
    return mg.build(2, [(0, 0)] * k + [(0, 1)] + [(1, 1)] * k)


def test_generate_cubic_graphs_small_ranks():
    assert cf.generate_cubic_graphs(1) == ()
    got = [list(g.edges) for g in cf.generate_cubic_graphs(2)]
    assert got == [[(0, 0), (0, 1), (1, 1)], [(0, 1), (0, 1), (0, 1)]]
    got = [list(g.edges) for g in cf.generate_cubic_graphs(3)]
    assert got == RANK3_GRAPHS


def test_generate_cubic_graphs_are_cubic_and_distinct():
    graphs = cf.generate_cubic_graphs(3)
    for g in graphs:
        assert set(g.degrees()) == {3}
        assert mg.cycle_rank(g) == 3
    for a, b in itertools.combinations(graphs, 2):
        assert not mg.isomorphic(a, b)


def test_generate_cubic_graphs_cap():
    with pytest.raises(TooLarge):
        cf.generate_cubic_graphs(6)


def test_scheme_count():
    assert cf.scheme_count(theta()) == 32  # (2!)^2 * 2^3
    assert cf.scheme_count(dumbbell()) == 32
    assert cf.scheme_count(mg.build(1, [])) == 1
    assert cf.scheme_count(wedge(2)) == 24


def test_enumerate_schemes_counts_and_budget():
    assert sum(1 for _ in cf.enumerate_schemes(theta())) == 32
    seen = set(cf.enumerate_schemes(theta()))
    assert len(seen) == 32  # no duplicates after anchoring
    with pytest.raises(BudgetExceeded):
        list(cf.enumerate_schemes(theta(), budget=31))


# --- the rotation walk, against the product of option lists ---

def option_lists(g):
    """Per vertex, its (deg(v)-1)! anchored options as a list: the least
    dart first, the others permuted in lexicographic order."""
    per_vertex = []
    for darts in g.darts():
        per_vertex.append([darts[:1] + p
                           for p in itertools.permutations(darts[1:])])
    return per_vertex


def test_rotations_are_the_product_of_the_option_lists():
    graphs = [g for q in (2, 3, 4) for g in cf.generate_cubic_graphs(q)]
    graphs += [mg.build(1, []), loops_each_end(2), wedge(4)]
    rng = random.Random(29)
    drawn = 0
    while drawn < 120:
        g = mg.cyclic_part(verify.random_multigraph(rng, 5, 5)).graph
        if max(g.degrees(), default=0) <= 6:
            graphs.append(g)
            drawn += 1
    for g in graphs:
        assert list(cf._rotations(g)) == \
            list(itertools.product(*option_lists(g))), g


def test_first_rotation_makes_one_option_per_vertex():
    # a five-loop wedge has 9! = 362,880 options at its one vertex
    g = wedge(5)
    tracemalloc.start()
    try:
        first = next(cf._rotations(g))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (tuple(range(10)),)
    assert peak < 1 << 20


def test_strip_walks_on_a_high_degree_vertex_stay_small():
    # the five-loop wedge has no vertex of degree 3, so every rotation
    # walked is a base of its own and is tested without a memo
    g = wedge(5)
    tracemalloc.start()
    try:
        classes = cf.equivalence_classes(g, budget=12_000_000)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 3
    assert peak < 1 << 20


def test_rotations_walk_a_long_cycle():
    n = 3000
    g = mg.build(n, [(v, (v + 1) % n) for v in range(n)])
    assert next(cf._rotations(g)) == g.darts()


def test_every_component_budget_is_checked_before_any_strip_test(
        monkeypatch):
    # a two-loop component with 3! * 2^2 = 24 schemes comes first, then
    # a five-loop one with 9! * 2^5 = 11,612,160: neither is walked
    g = mg.build(2, [(0, 0), (0, 0), (0, 1)] + [(1, 1)] * 5)
    calls = count_strip_tests(monkeypatch)
    for search in (cf.realizable_signs, cf.equivalence_classes):
        with pytest.raises(BudgetExceeded, match="^11612160 schemes on a "
                           "component exceed the budget 10000000$"):
            search(g)
    assert calls[0] == 0


def test_realizable_signs_loop_and_wedges():
    assert cf.realizable_signs(mg.build(1, [(0, 0)])) == ((1,),)
    assert len(cf.realizable_signs(wedge(2))) == 4
    w3 = cf.realizable_signs(wedge(3))
    assert len(w3) == 7
    assert (0, 0, 0) not in w3


def test_realizable_signs_dumbbell_forces_loops():
    got = cf.realizable_signs(dumbbell())
    assert got == ((1, 0, 1), (1, 1, 1))  # loops twisted, bridge free


def test_realizable_signs_theta_is_everything():
    assert len(cf.realizable_signs(theta())) == 8


def oracle_whole_graph_realizable(g):
    """Every scheme of the whole graph traced, no decomposition."""
    found = set()
    for s in cf.enumerate_schemes(g):
        if s.signs not in found and sch.boundary_trace(s).b == 1:
            found.add(s.signs)
    return tuple(sorted(found))


@pytest.mark.parametrize("g", [dumbbell(), theta(), wedge(3),
                               mg.build(3, [(0, 0), (0, 1), (1, 2), (2, 2)])])
def test_componentwise_matches_whole_graph_scan(g):
    assert cf.realizable_signs(g) == oracle_whole_graph_realizable(g)


def test_equivalence_classes_dumbbell():
    classes = cf.equivalence_classes(dumbbell())
    assert len(classes) == 1
    assert sorted(classes[0].members) == [(1, 0, 1), (1, 1, 1)]


def test_equivalence_classes_theta():
    classes = cf.equivalence_classes(theta())
    members = sorted(sorted(c.members) for c in classes)
    assert members == [
        [(0, 0, 0), (1, 1, 1)],
        [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0)],
    ]
    by_rep = {c.representative: c for c in classes}
    assert by_rep[(0, 0, 0)].surface.orientable
    assert by_rep[(0, 0, 0)].surface.capped_name == "torus"
    assert not by_rep[(0, 0, 1)].surface.orientable
    assert by_rep[(0, 0, 1)].surface.capped_name == "Klein bottle"


def test_equivalence_classes_wedges():
    assert len(cf.equivalence_classes(wedge(1))) == 1
    classes = cf.equivalence_classes(wedge(2))
    assert sorted(sorted(c.members) for c in classes) == [
        [(0, 0), (1, 1)], [(0, 1), (1, 0)]]
    classes = cf.equivalence_classes(wedge(3))
    assert sorted(len(c.members) for c in classes) == [1, 6]


def test_witnesses_are_strips():
    # the representative with its witness, and every member with the
    # first strip rotation of the per-table oracle
    g = theta()
    for c in cf.equivalence_classes(g):
        pairs = [(c.representative, c.witness)]
        pairs += [(lam, oracle_witness_rotation(g, lam)) for lam in c.members]
        for signs, rot in pairs:
            s = sch.make_scheme(g, [list(r) for r in rot], list(signs))
            assert sch.boundary_trace(s).b == 1
            assert sch.oracle_boundary_count(s) == 1


def test_catalog_rank2():
    cat = cf.catalog(2)
    assert cat.q == 2
    assert cat.total == 3
    assert [len(c) for c in cat.classes] == [1, 2]


def test_catalog_rank3():
    cat = cf.catalog(3)
    assert cat.total == 18
    assert sorted(len(c) for c in cat.classes) == [1, 1, 5, 5, 6]
    # odd rank: every class is non-orientable with euler characteristic -1
    for classes in cat.classes:
        for c in classes:
            assert not c.surface.orientable
            assert c.surface.euler_closed == -1
            assert c.surface.crosscaps == 3


def test_rank5_strip_tests_are_pinned(monkeypatch):
    # counts of the algorithm, not of timing: the realizability walk
    # tests coset representatives, each in its own coset, so it has no
    # memo to hit (10,742 with the memo and without); the witness walk
    # of catalog(5) adds the rest
    graphs = cf.generate_cubic_graphs(5)
    calls = count_strip_tests(monkeypatch)
    for g in graphs:
        cf.realizable_signs(g)
    assert len(graphs) == 71
    assert calls[0] == 10_742
    calls[0] = 0
    cf.catalog(5)
    assert calls[0] == 22_873


def test_catalog_rank5(monkeypatch):
    # the whole rank-5 catalog, its JSON and text bytes pinned, each
    # representative checked with its witness rotation by the
    # polygon-gluing oracle.  Flip transport and its memo keep the
    # search within 25,000 strip tests (55,359 when each rotation was
    # tested with its own turn table).
    calls = count_strip_tests(monkeypatch)
    cat = cf.catalog(5)
    assert calls[0] <= 25_000
    assert len(cat.graphs) == 71
    assert cat.total == 8187
    assert sum(len(c.members) for cs in cat.classes for c in cs) == 116608
    text = cf.catalog_to_json(cat)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "fd0b7185abd859d7ecbcb02adf5083b49b3b6227a9bbe4fef6789c1b4cacf42a"
    text = cf.catalog_to_text(cat)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "b614fe2670efa238ddfad4755eecab2daea81fa1ea620580640b67bc6a6c237c"
    for g, classes in zip(cat.graphs, cat.classes):
        for c in classes:
            s = sch.Scheme(g, c.witness, c.representative)
            assert sch.oracle_boundary_count(s) == 1, (g, c.representative)
            assert not c.surface.orientable
            assert c.surface.crosscaps == 5


def test_catalog_classes_share_surface_type():
    # each member traced with its own first strip rotation
    for q in (2, 3):
        cat = cf.catalog(q)
        for g, classes in zip(cat.graphs, cat.classes):
            for c in classes:
                types = set()
                for signs in c.members:
                    rot = oracle_witness_rotation(g, signs)
                    s = sch.make_scheme(g, [list(r) for r in rot],
                                        list(signs))
                    t = sch.surface_type(s)
                    types.add((t.orientable, t.euler_closed))
                assert len(types) == 1


def test_catalog_json_is_deterministic_and_thread_safe():
    base = cf.catalog_to_json(cf.catalog(3))
    assert base == cf.catalog_to_json(cf.catalog(3))
    for threads in (2, 5, 8):
        assert base == cf.catalog_to_json(cf.catalog(3, threads=threads))


@pytest.fixture(scope="module")
def rank4_catalog():
    return cf.catalog(4)


def test_rank4_catalog_json_digest(rank4_catalog):
    text = cf.catalog_to_json(rank4_catalog)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "5edc1af61fc70a18149a44c76c26f09d6d44f9ed89a77c336016f6f6138e2001"


def test_rank4_catalog_text_digest(rank4_catalog):
    text = cf.catalog_to_text(rank4_catalog)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "3370cb2ebb5e449d44befb6a3cc3177380ae7cbe2b02f671269246332a0ac330"


def graph_catalog(g):
    """The one-graph catalog that ``structures --input`` writes."""
    classes = cf.equivalence_classes(g)
    return cf.Catalog(mg.cycle_rank(g), (g,), (classes,), len(classes))


def plain_catalog_doc(cat):
    """The catalog document built from the unpacked class fields, with
    no packed tables and nothing shared between classes."""
    def surface(sf):
        return {"orientable": sf.orientable,
                "euler_closed": sf.euler_closed,
                "genus_or_crosscaps": (sf.genus if sf.orientable
                                       else sf.crosscaps)}

    return {"q": cat.q, "totals": cat.total, "graphs": [
        {"canonical_edges": [list(e) for e in g.edges],
         "classes": [{"representative_signs": list(c.representative),
                      "members": [list(m) for m in c.members],
                      "witness_rotation": [[f"{h >> 1}.{h & 1}" for h in cyc]
                                           for cyc in c.witness],
                      "surface": surface(c.surface)}
                     for c in classes]}
        for g, classes in zip(cat.graphs, cat.classes)]}


def cycle_graph(n):
    return mg.build(n, [(v, (v + 1) % n) for v in range(n)])


def test_catalog_json_matches_json_dumps(rank4_catalog):
    # the flat catalog writer against json.dumps on the plain document:
    # every catalog at q <= 3 and 3 seeded rank-4 graphs.  The point
    # graph has tables of width 0 and the one-loop graph of width 1.
    # Rank 4 and the 9-cycle (9 edges) cross the 8-bit chunks of the
    # member lookup tables, and so does a 10-cycle with three loops (13
    # edges; a 13-cycle is over the automorphisms' vertex cap).
    looped_cycle = mg.build(10, cycle_graph(10).edges + ((0, 0), (3, 3),
                                                        (6, 6)))
    cats = [cf.catalog(q) for q in (1, 2, 3)]
    picks = random.Random(4).sample(range(len(rank4_catalog.graphs)), 3)
    cats.append(cf.Catalog(4, tuple(rank4_catalog.graphs[i] for i in picks),
                           tuple(rank4_catalog.classes[i] for i in picks),
                           sum(len(rank4_catalog.classes[i]) for i in picks)))
    cats += [graph_catalog(g) for g in (loops_each_end(2), wedge(3),
                                        loops_each_end(3), mg.build(1, []),
                                        wedge(1), cycle_graph(9),
                                        looped_cycle)]
    for cat in cats:
        doc = plain_catalog_doc(cat)
        assert cf.catalog_to_json(cat) == \
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # tables of one, two and three chunks, on either side of each edge
    rng = random.Random(5)
    for width in range(26):
        tables = [0, (1 << width) - 1] + [rng.getrandbits(width)
                                          for _ in range(20)]
        k, texts = cf._bit_texts(tables, width, "\n", "[")
        assert ["".join(texts[i:i + k]) for i in range(0, len(texts), k)] \
            == [json.dumps(cf._unpack_signs(t, width), indent=2)
                for t in tables]


def test_catalog_json_schema():
    doc = json.loads(cf.catalog_to_json(cf.catalog(2)))
    assert doc["q"] == 2
    assert doc["totals"] == 3
    assert len(doc["graphs"]) == 2
    g = doc["graphs"][1]
    assert g["canonical_edges"] == [[0, 1], [0, 1], [0, 1]]
    cls = g["classes"][0]
    assert cls["representative_signs"] == [0, 0, 0]
    assert [0, 0, 0] in cls["members"] and [1, 1, 1] in cls["members"]
    assert set(cls["surface"]) == {"orientable", "euler_closed",
                                   "genus_or_crosscaps"}
    rot = cls["witness_rotation"]
    assert len(rot) == 2 and all("." in d for d in rot[0])


def test_catalog_budget():
    with pytest.raises(BudgetExceeded):
        cf.catalog(3, budget=10)


def test_budget_bounds_each_component_walk():
    # a bridge between two two-loop components: 4!^2 * 2^5 = 18,432
    # schemes on the graph, 3! * 2^2 = 24 on each component.  Every
    # walk runs on a component, so 24 is the exact threshold.
    g = loops_each_end(2)
    for search in (cf.realizable_signs, cf.equivalence_classes):
        with pytest.raises(BudgetExceeded):
            search(g, budget=23)
    assert cf.realizable_signs(g, budget=24) == cf.realizable_signs(g)
    classes = cf.equivalence_classes(g, budget=24)
    assert len(classes) == 3
    assert classes == cf.equivalence_classes(g, budget=None)


def _component_graphs(g):
    return [mg._restrict(g, c.vertices, c.edges)[0]
            for c in mg.bridges_and_components(g).components]


def test_strip_tests_stay_within_two_walks_per_component(monkeypatch):
    # realizability walks each component over its coset representatives,
    # the witness search over the distinct restrictions of the class
    # representatives: each at most scheme_count(component) strip tests
    calls = count_strip_tests(monkeypatch)
    graphs = [loops_each_end(2), loops_each_end(3)]
    rng = random.Random(17)
    while len(graphs) < 40:
        g = mg.cyclic_part(verify.random_multigraph(rng, 5, 5)).graph
        if (max(g.degrees(), default=0) > 3 and
                sum(map(cf.scheme_count, _component_graphs(g))) <= 20_000):
            graphs.append(g)
    for g in graphs:
        calls[0] = 0
        cf.equivalence_classes(g)
        assert 0 < calls[0] <= 2 * sum(map(cf.scheme_count,
                                           _component_graphs(g))), g


# --- the per-table search, kept as a test-only oracle ---
#
# Before the coset search, every sign table of a component was tried
# against every rotation in turn, and each realizable member searched
# the rotations again for its witness (``oracle_witness_rotation`` in
# helpers).  Both are kept here, with the class key that tried every
# combination of component complements, to check the coset search and
# the per-component witness search against.

def _oracle_component_realizable(sub):
    found = []
    for signs in itertools.product((0, 1), repeat=sub.n_edges):
        for rotation in cf._rotations(sub):
            if sch.boundary_trace(sch.Scheme(sub, rotation, signs)).b == 1:
                found.append(signs)
                break
    return found


def oracle_realizable_signs(g):
    decomp = mg.bridges_and_components(g)
    per_component = []
    for comp in decomp.components:
        comp_edges = sorted(comp.edges)
        sub = mg._restrict(g, comp.vertices, comp.edges)[0]
        per_component.append((comp_edges,
                              _oracle_component_realizable(sub)))
    out = []
    bridge_list = list(decomp.bridges)
    for picks in itertools.product(*[r for (_es, r) in per_component]):
        base = [0] * g.n_edges
        for (comp_edges, _r), local in zip(per_component, picks):
            for pos, e in enumerate(comp_edges):
                base[e] = local[pos]
        for bvals in itertools.product((0, 1), repeat=len(bridge_list)):
            lam = list(base)
            for e, x in zip(bridge_list, bvals):
                lam[e] = x
            out.append(tuple(lam))
    return tuple(sorted(out))


def oracle_equivalence_classes(g):
    realizable = oracle_realizable_signs(g)
    decomp = mg.bridges_and_components(g)
    comp_edge_lists = [sorted(c.edges) for c in decomp.components]
    eperms = sorted({ep for (_vp, ep) in mg.automorphisms(g)})

    def class_key(lam):
        best = None
        for ep in eperms:
            base = [lam[ep[e]] for e in range(g.n_edges)]
            for flips in itertools.product((0, 1),
                                           repeat=len(comp_edge_lists)):
                cur = list(base)
                for ci, flip in enumerate(flips):
                    if flip:
                        for e in comp_edge_lists[ci]:
                            cur[e] ^= 1
                for e in decomp.bridges:
                    cur[e] = 0
                key = tuple(cur)
                if best is None or key < best:
                    best = key
        return best

    grouped = {}
    for lam in realizable:
        grouped.setdefault(class_key(lam), []).append(lam)
    classes = []
    for members in grouped.values():
        witness = oracle_witness_rotation(g, members[0])
        rep = sch.Scheme(g, witness, members[0])
        tables = tuple(cf._pack_signs(m) for m in members)
        classes.append(cf.StructureClass(g, tables, witness,
                                         sch.surface_type(rep)))
    classes.sort(key=lambda c: c.representative)
    return tuple(classes)


@pytest.fixture(scope="module")
def rank4_graphs():
    return cf.generate_cubic_graphs(4)


def seeded_cyclic_parts():
    """100 seeded cyclic parts with loops, bridges and vertices of
    degree > 3, each with an edge and at most 20,000 schemes."""
    rng = random.Random(11)
    graphs = []
    while len(graphs) < 100:
        g = mg.cyclic_part(verify.random_multigraph(rng, 5, 5)).graph
        if g.n_edges and cf.scheme_count(g) <= 20_000:
            graphs.append(g)
    return graphs


def test_coset_search_matches_per_table_oracle(rank4_graphs):
    graphs = [g for q in (2, 3) for g in cf.generate_cubic_graphs(q)]
    graphs += random.Random(4).sample(rank4_graphs, 3)
    # the point graph, which the seeded cyclic parts leave out
    graphs += [wedge(2), wedge(3), mg.build(1, [])]
    graphs += seeded_cyclic_parts()
    for g in graphs:
        assert cf.realizable_signs(g) == oracle_realizable_signs(g), g
        # every StructureClass field: representative, members,
        # witness and surface
        assert cf.equivalence_classes(g) == oracle_equivalence_classes(g), g


def _zero_cosets(g):
    """Per component of g: the bits of its edges and its zero coset."""
    parts, _bridges = cf._components(g, cf.DEFAULT_BUDGET)
    return [(sum(edge_bit), set(cf._component_realizable(sub, edge_bit)[1]))
            for sub, _vmap, _emap, edge_bit in parts]


def test_classes_hold_sorted_packed_tables_and_parity_surfaces(
        rank4_catalog):
    cases = list(zip(rank4_catalog.graphs, rank4_catalog.classes))
    cases += [(g, cf.equivalence_classes(g)) for g in seeded_cyclic_parts()]
    for g, classes in cases:
        cosets = _zero_cosets(g)
        for c in classes:
            members = c.members
            assert members == tuple(sorted(members))
            assert members[0] == c.representative
            assert tuple(map(cf._pack_signs, members)) == c.tables
            for m, t in zip(members, c.tables):
                zero = all(t & bits in span for bits, span in cosets)
                assert zero == sch.is_orientable(sch.Scheme(g, c.witness,
                                                            m)), (g, m)
            assert c.surface.orientable == \
                sch.is_orientable(sch.Scheme(g, c.witness, members[0]))


def test_component_spans_are_the_orientable_tables(rank4_graphs):
    # each component's zero coset has 2^(V-1) tables and never sets a
    # loop's sign; up to 12 edges it is every table is_orientable takes
    graphs = [g for q in (2, 3) for g in cf.generate_cubic_graphs(q)]
    graphs += list(rank4_graphs)
    graphs += random.Random(6).sample(cf.generate_cubic_graphs(5), 10)
    graphs += seeded_cyclic_parts() + [wedge(2), wedge(3)]
    compared = 0
    for g in graphs:
        parts, _bridges = cf._components(g, cf.DEFAULT_BUDGET)
        for sub, _vmap, _emap, edge_bit in parts:
            _found, span = cf._component_realizable(sub, edge_bit)
            assert len(set(span)) == len(span) == 2 ** (sub.n_vertices - 1)
            loops = sum(bit for bit, (a, b) in zip(edge_bit, sub.edges)
                        if a == b)
            assert not any(t & loops for t in span), g
            if sub.n_edges > 12:
                continue
            rotation = sub.darts()
            orientable = {
                sum(bit for bit, x in zip(edge_bit, signs) if x)
                for signs in itertools.product((0, 1), repeat=sub.n_edges)
                if sch.is_orientable(sch.Scheme(sub, rotation, signs))}
            assert set(span) == orientable, g
            compared += 1
    assert compared >= 100


def test_coset_search_is_the_same_with_threads():
    for g in cf.generate_cubic_graphs(3):
        base = cf.realizable_signs(g)
        for threads in (2, 3, 8):
            assert cf.realizable_signs(g, threads=threads) == base


def _cut_toggles(g):
    return [tuple(int((a == v) != (b == v)) for (a, b) in g.edges)
            for v in range(g.n_vertices)]


def test_realizable_sets_are_unions_of_flip_cosets(rank4_graphs):
    total = 0
    for q in (2, 3, 4):
        graphs = rank4_graphs if q == 4 else cf.generate_cubic_graphs(q)
        for g in graphs:
            realizable = set(cf.realizable_signs(g))
            for cut in _cut_toggles(g):
                assert {tuple(x ^ c for x, c in zip(lam, cut))
                        for lam in realizable} == realizable
            tree, _free = mg._spanning_tree(g)
            cosets = sum(1 for lam in realizable
                         if not any(lam[e] for e in tree))
            assert len(realizable) == cosets << (g.n_vertices - 1)
            total += cosets
    assert total == 151


def test_single_orbit_kernel_agrees_with_the_tracer():
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            for rotation in cf._rotations(g):
                turn = sch._turn_table(g.n_darts, rotation)
                for signs in itertools.product((0, 1), repeat=g.n_edges):
                    s = sch.Scheme(g, rotation, signs)
                    assert sch._single_orbit_strip(
                        turn, *packed_strip_args(signs)) == \
                        (sch.boundary_trace(s).b == 1)
    point = sch.make_scheme(mg.build(1, []), [()], [])
    assert sch.boundary_trace(point).b == 1
    assert sch._single_orbit_strip(sch._turn_table(0, point.rotation), 0, [])


def harer_zagier_orientable_strips(k):
    """Strips among the all-0 schemes on the k-loop wedge.

    An anchored rotation of the wedge's 2k darts is a side pairing of a
    2k-gon with its k edges labelled and oriented, read from a marked
    side.  A strip is a pairing that glues the 2k-gon to a surface with
    one vertex, of genus k/2.  There are eps_g(2g) = (4g)!/(4^g (2g+1)!)
    such pairings at k = 2g (J. Harer and D. Zagier, "The Euler
    characteristic of the moduli space of curves", Invent. Math. 85
    (1986)), none at odd k, so eps_{k/2}(k) k! 2^k / (2k) strips.
    """
    if k % 2:
        return 0
    g = k // 2
    eps = math.factorial(4 * g) // (4 ** g * math.factorial(2 * g + 1))
    return eps * math.factorial(k) * 2 ** k // (2 * k)


def orientable_wedge_strips(g):
    """The rotations that make the all-0 scheme on g a strip, by the
    packed kernel, in ``_rotations`` order."""
    masks = [0] * (2 * g.n_darts)  # all signs 0: never read as 1
    return (rotation for rotation in cf._rotations(g)
            if sch._single_orbit_strip(
                sch._turn_table(g.n_darts, rotation), 0, masks))


def test_orientable_wedge_strips_match_harer_zagier():
    assert [harer_zagier_orientable_strips(k) for k in range(1, 6)] == \
        [0, 2, 0, 1008, 0]
    for k in range(1, 6):
        g = wedge(k)
        strips = list(orientable_wedge_strips(g))
        assert len(strips) == harer_zagier_orientable_strips(k)
        if k <= 4:  # and the tracer picks out the same rotations
            assert strips == [
                rotation for rotation in cf._rotations(g)
                if sch.boundary_trace(
                    sch.Scheme(g, rotation, (0,) * k)).b == 1]


@pytest.mark.slow
def test_orientable_wedge_strips_match_harer_zagier_at_k6():
    # 11! = 39,916,800 rotations; about a minute
    assert harer_zagier_orientable_strips(6) == 5702400
    assert sum(1 for _ in orientable_wedge_strips(wedge(6))) == 5702400


def zagier_dipole_strips(n):
    """Strips among the all-0 schemes on the n-edge dipole.

    With the darts of each vertex read in the order of their edges, an
    anchored rotation pair is a pair of n-cycles (s, t), and the all-0
    scheme has one boundary circle exactly when the face permutation
    s t is an n-cycle.  For each s there are as many such t as ways to
    write a given n-cycle as a product of two n-cycles: 2 (n-1)!/(n+1) at odd n and none at even n
    (D. Zagier, "On the distribution of the number of cycles of elements
    in symmetric groups", Nieuw Arch. Wisk. 13 (1995); R. P. Stanley,
    "Two enumerative results on cycles of permutations", Europ. J.
    Combin. 32 (2011)).  So 2 ((n-1)!)^2/(n+1) strips at odd n.
    """
    if n % 2 == 0:
        return 0
    return 2 * math.factorial(n - 1) ** 2 // (n + 1)


def test_orientable_dipole_strips_match_zagier():
    assert [zagier_dipole_strips(n) for n in range(2, 7)] == \
        [0, 2, 0, 192, 0]
    for n in range(2, 7):  # n = 6: 120^2 = 14,400 rotation pairs
        g = mg.build(2, [(0, 1)] * n)
        # edge e has dart 2e at vertex 0 and 2e + 1 at vertex 1; each
        # cyclic order starts at its smallest dart
        at = [[(v,) + rest for rest in itertools.permutations(
            range(v + 2, 2 * n, 2))] for v in (0, 1)]
        traced = oracle = 0
        for r0 in at[0]:
            for r1 in at[1]:
                s = sch.make_scheme(g, [r0, r1], [0] * n)
                traced += sch.boundary_trace(s).b == 1
                oracle += sch.oracle_boundary_count(s) == 1
        assert traced == oracle == zagier_dipole_strips(n)


def genus_distribution(g, boundary_count):
    """Rotations of g by the genus of their all-0 (orientable) scheme,
    with b from boundary_count: V - E + b = 2 - 2 genus."""
    dist = [0] * (mg.cycle_rank(g) // 2 + 1)
    zeros = (0,) * g.n_edges
    for rotation in cf._rotations(g):
        b = boundary_count(sch.Scheme(g, rotation, zeros))
        genus, odd = divmod(2 - (g.n_vertices - g.n_edges + b), 2)
        assert not odd
        dist[genus] += 1
    return dist


@pytest.mark.parametrize("q, edges, expected", [
    (3, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [2, 14]),
    (4, [(a, b) for a in range(3) for b in range(3, 6)], [0, 40, 24]),
], ids=["K4", "K3,3"])
def test_genus_distributions_match_gross_furst(q, edges, expected):
    # the published genus distributions of K4 and K3,3 (J. L. Gross and
    # M. L. Furst, "Hierarchy for imbedding-distribution invariants of a
    # graph", J. Graph Theory 11 (1987)), by the tracer and the oracle
    g = mg.build(2 * (q - 1), edges)
    # a generated graph is its own canonical form (V, edges)
    assert mg.canonical_form(g) in cf.generate_cubic_graphs(q)
    assert genus_distribution(g, lambda s: sch.boundary_trace(s).b) == \
        expected
    assert genus_distribution(g, sch.oracle_boundary_count) == expected


@pytest.mark.slow
def test_rank_6_classes_are_pinned(monkeypatch):
    # the rank-6 trust gate: every class of the 388 graphs, past the
    # rank cap and with no budget, hashed in generation and class order
    # (about 20 s).  A seeded sample of 1,000 representatives is a strip
    # under its witness by the polygon-gluing oracle.
    monkeypatch.setattr(cf, "MAX_Q", 6)
    graphs = cf.generate_cubic_graphs(6)
    assert len(graphs) == 388
    sampled = set(random.Random(6).sample(range(378200), 1000))
    digest = hashlib.sha256()
    n_classes = n_members = 0
    for g in graphs:
        for c in cf.equivalence_classes(g, budget=None):
            digest.update(repr((g.edges, c.representative, c.tables,
                                c.witness, c.surface)).encode())
            if n_classes in sampled:
                s = sch.Scheme(g, c.witness, c.representative)
                assert sch.oracle_boundary_count(s) == 1, (g, c.tables[0])
            n_classes += 1
            n_members += len(c.tables)
    assert (n_classes, n_members) == (378200, 4742656)
    assert digest.hexdigest() == \
        "448cd43e52e392f93d6bb5a9fc307e3ac0db14784b07cabc5e8fbf12695ea1d2"


_BITS = bytes.maketrans(bytes([0, 1]), b"01")


def _byte_table(bits):
    """The OR of bits[j] over the set bits j of each byte value."""
    table = [0]
    for bit in bits:
        table += [v | bit for v in table]
    return table


def burnside_classes(g):
    """The class count of g from ``realizable_signs``, the components
    and the automorphisms alone, after asserting that every
    automorphism maps the realizable set R into itself.

    By Burnside, over the distinct edge permutations A, it is (1/|A|)
    times the sum over sigma of #{x in N : sigma x xor x in M}: N the
    normal forms of R (bridge bits cleared, a component complemented
    when its least edge is 1), M the span of the component masks and
    the bridge bits.  Tables pack with edge 0 in the top bit, and sigma
    moves them through two 8-bit lookup tables, so E <= 16."""
    E = g.n_edges
    assert E <= 16
    bit = [1 << (E - 1 - e) for e in range(E)]
    realizable = [int(bytes(t).translate(_BITS), 2)
                  for t in cf.realizable_signs(g, budget=None)]
    decomp = mg.bridges_and_components(g)
    comps = [(sum(bit[e] for e in c.edges), bit[min(c.edges)])
             for c in decomp.components]
    span = [0]
    for mask in [m for m, _least in comps] + [bit[e] for e in decomp.bridges]:
        span += [m ^ mask for m in span]
    span = set(span)
    bridges = sum(bit[e] for e in decomp.bridges)
    normal = set()
    for x in realizable:
        x &= ~bridges
        for mask, least in comps:
            if x & least:
                x ^= mask
        normal.add(x)
    realized = set(realizable)
    eperms = {ep for _vp, ep in mg.automorphisms(g)}
    fixed = 0
    for ep in eperms:
        # x'[e] = x[ep[e]]: the bit of edge ep[e] moves to edge e's bit
        move = [0] * 16
        for e, f in enumerate(ep):
            move[E - 1 - f] = bit[e]
        low, high = _byte_table(move[:8]), _byte_table(move[8:])
        assert realized.issuperset(
            [low[x & 255] | high[x >> 8] for x in realizable]), (g, ep)
        fixed += sum((low[x & 255] | high[x >> 8]) ^ x in span
                     for x in normal)
    assert fixed % len(eperms) == 0
    return fixed // len(eperms)


def check_burnside(q, total):
    n = 0
    for g in cf.generate_cubic_graphs(q):
        classes = burnside_classes(g)
        assert classes == len(cf.equivalence_classes(g, budget=None)), g
        n += classes
    assert n == total


@pytest.mark.parametrize("q, total", [(3, 18), (4, 292), (5, 8187)])
def test_realizable_sets_are_closed_and_classes_match_burnside(q, total):
    check_burnside(q, total)


@pytest.mark.slow
def test_rank_6_realizable_sets_are_closed_and_classes_match_burnside(
        monkeypatch):
    # the rest of the rank-6 trust gate: closure under the automorphisms
    # and the class count by Burnside on each of the 388 graphs
    monkeypatch.setattr(cf, "MAX_Q", 6)
    check_burnside(6, 378200)


def necklace_edges(k):
    """k digons joined in a ring: vertices 2i and 2i+1 share edges 3i
    and 3i+1, and edge 3i+2 joins 2i+1 to the next digon's 2i+2."""
    edges = []
    for i in range(k):
        edges += [(2 * i, 2 * i + 1)] * 2
        edges.append((2 * i + 1, (2 * i + 2) % (2 * k)))
    return edges


def necklace_rule_tables(k):
    """The sign tables of the k-digon necklace in which at most one
    digon has an even sign sum (ROADMAP item 8's digon-necklace rule):
    4^k (k + 1) tables, 2(k + 1) cosets of the 2^(2k - 1) vertex-flip
    toggles."""
    return {t for t in itertools.product((0, 1), repeat=3 * k)
            if sum((t[3 * i] + t[3 * i + 1]) % 2 == 0
                   for i in range(k)) <= 1}


@pytest.mark.parametrize("k, tables", [(2, 48), (3, 256), (4, 1280),
                                       (5, 6144)])
def test_digon_necklaces_realize_at_most_one_even_digon(k, tables):
    expected = necklace_rule_tables(k)
    assert len(expected) == tables == 2 * (k + 1) * 2 ** (2 * k - 1)
    g = mg.build(2 * k, necklace_edges(k))
    assert set(cf.realizable_signs(g, budget=None)) == expected


def _union_find_roots(n, edges):
    """Union-find root of every vertex over the given edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return [find(x) for x in range(n)]


def xuong_xi(n, edges):
    """Xuong's xi: the least number, over all spanning trees, of cotree
    components with an odd number of edges (N. H. Xuong, JCTB 26
    (1979)), by brute force over every set of n - 1 edges."""
    least = len(edges)
    for tree in itertools.combinations(range(len(edges)), n - 1):
        if len(set(_union_find_roots(n, [edges[e] for e in tree]))) > 1:
            continue
        cotree = [edges[e] for e in range(len(edges)) if e not in tree]
        roots = _union_find_roots(n, cotree)
        sizes = collections.Counter(roots[u] for u, _ in cotree)
        least = min(least, sum(c % 2 for c in sizes.values()))
    return least


def _bridgeless(g):
    """True when deleting any one edge leaves g connected."""
    return all(len(set(_union_find_roots(
        g.n_vertices, g.edges[:e] + g.edges[e + 1:]))) == 1
        for e in range(g.n_edges))


def test_zero_table_is_realizable_exactly_when_xuong_xi_is_zero():
    # an orientable one-face embedding exists iff xi = 0 (ROADMAP item 8)
    graphs = [g for q in (2, 3, 4, 5) for g in cf.generate_cubic_graphs(q)
              if _bridgeless(g)]
    assert len(graphs) == 24
    seen = set()
    for g in graphs:
        zero = (0,) * g.n_edges in cf.realizable_signs(g)
        assert zero == (xuong_xi(g.n_vertices, g.edges) == 0), g
        seen.add(zero)
    assert seen == {False, True}


def test_every_class_caps_to_euler_characteristic_two_minus_q(rank4_graphs):
    # a strip has one boundary circle, so euler_closed = V - E + 1 = 2 - q
    for q in (2, 3, 4):
        for classes in cf.catalog(q).classes:
            for c in classes:
                assert c.surface.euler_closed == 2 - q
                assert c.surface.boundary == 1


def test_component_coset_closed_forms(rank4_graphs):
    ranks = set()
    for q in (2, 3, 4):
        graphs = rank4_graphs if q == 4 else cf.generate_cubic_graphs(q)
        for g in graphs:
            for comp in mg.bridges_and_components(g).components:
                sub = mg._restrict(g, comp.vertices, comp.edges)[0]
                c = mg.cycle_rank(sub)
                ranks.add(c)
                realizable = cf.realizable_signs(sub)
                tree, _free = mg._spanning_tree(sub)
                cosets = sum(1 for lam in realizable
                             if not any(lam[e] for e in tree))
                if c == 1:
                    # a cycle is a strip only with an odd sign sum
                    assert cosets == 1, sub
                if c % 2:
                    assert (0,) * sub.n_edges not in realizable, sub
    assert {1, 2, 3, 4} <= ranks


def test_zero_coset_is_never_tested_at_odd_component_rank(monkeypatch,
                                                         rank4_graphs):
    # every strip test's component, read off its turn table: the
    # rotation's cycles are its vertices, and it has 4 states per edge
    kernel = sch._single_orbit_strip
    tested = []

    def recorded(turn, table, masks):
        n_darts = len(turn) // 2
        seen, n_vertices = set(), 0
        for h in range(n_darts):
            if h not in seen:
                n_vertices += 1
                while h not in seen:
                    seen.add(h)
                    h = turn[2 * h] // 2
        rank = len(turn) // 4 - n_vertices + 1
        tested.append((rank, table != 0))
        return kernel(turn, table, masks)

    monkeypatch.setattr(sch, "_single_orbit_strip", recorded)
    graphs = [wedge(1), wedge(2), wedge(3), loops_each_end(2)]
    graphs += [g for q in (2, 3) for g in cf.generate_cubic_graphs(q)]
    graphs += list(rank4_graphs) + seeded_cyclic_parts()[:30]
    for g in graphs:
        cf.realizable_signs(g)
        cf.equivalence_classes(g)
    # the recorder sees both ranks; the zero table only at even rank
    assert (3, True) in tested and (4, False) in tested
    assert not [rank for rank, nonzero in tested
                if rank % 2 and not nonzero]


def test_odd_rank_walk_stops_once_the_nonzero_cosets_are_found(
        monkeypatch):
    # a bridgeless rank-5 graph that realizes all 31 nonzero cosets
    # finds them before the last of its 2^8 rotations.  The walk makes
    # one turn table per base, so it counts the rotations it draws.
    rotations = cf._rotations
    drawn = [0]

    def counted(g):
        for rotation in rotations(g):
            drawn[0] += 1
            yield rotation

    monkeypatch.setattr(cf, "_rotations", counted)
    for g in cf.generate_cubic_graphs(5):
        if mg.bridges_and_components(g).bridges:
            continue
        drawn[0] = 0
        found = cf.realizable_signs(g)
        if len(found) == 31 << (g.n_vertices - 1):
            assert drawn[0] < sum(1 for _ in rotations(g))
            return
    raise AssertionError("no bridgeless rank-5 graph realizes 31 cosets")


# --- the walk with a turn table per rotation, kept as a test-only oracle ---
#
# Before flip transport, the strip walk built a turn table for every
# rotation it walked and tested sign tuples with the kernel below.  Both
# are kept here to check the walk by flip transport against.

def tuple_single_orbit_strip(turn, signs):
    """``scheme._single_orbit_strip`` reading a sign tuple."""
    n_darts = len(turn) >> 1
    if not n_darts:
        return True
    st = 0
    for steps in range(1, n_darts + 1):
        st = turn[st ^ 2 ^ signs[st >> 2]]
        if not st:
            return steps == n_darts
    return False


def oracle_strip_witnesses(g, tables):
    """Map each sign tuple to the first rotation, in ``_rotations``
    order, that makes it a strip, skipping a rotation whose mirror image
    comes earlier: one turn table per rotation walked."""
    pending = list(tables)
    witnesses = {}
    for rotation in cf._rotations(g):
        if not pending:
            break
        if rotation[0][:0:-1] < rotation[0][1:]:  # vertex 0 is the slowest
            continue
        turn = sch._turn_table(g.n_darts, rotation)
        still = []
        for signs in pending:
            if tuple_single_orbit_strip(turn, signs):
                witnesses[signs] = rotation
            else:
                still.append(signs)
        pending = still
    return witnesses


def test_flip_transport_matches_a_turn_table_per_rotation(rank4_graphs):
    # every table of every realizable coset on every component.  Some
    # seeded components have vertices of degree 3 and of degree > 3, so
    # the walk moves to a new base and drops its memo.
    graphs = [g for q in (2, 3) for g in cf.generate_cubic_graphs(q)]
    graphs += list(rank4_graphs)
    graphs += random.Random(5).sample(cf.generate_cubic_graphs(5), 10)
    graphs += seeded_cyclic_parts() + [wedge(2), wedge(3)]
    mixed = 0
    for g in graphs:
        E = g.n_edges
        parts, _bridges = cf._components(g, cf.DEFAULT_BUDGET)
        for sub, _vmap, emap, edge_bit in parts:
            degrees = sub.degrees()
            mixed += 3 in degrees and max(degrees) > 3
            assert edge_bit == [1 << (E - 1 - e) for e in emap]
            tables, _span = cf._component_realizable(sub, edge_bit)
            walked = cf._strip_witnesses(sub, edge_bit, tables)
            signs = {tuple(int(t & bit > 0) for bit in edge_bit): t
                     for t in tables}
            oracle = oracle_strip_witnesses(sub, signs)
            assert len(oracle) == len(tables), g
            assert walked == {signs[lam]: rotation
                              for lam, rotation in oracle.items()}, g
    assert mixed >= 10


# --- witnesses per component, against the whole-graph oracle ---

def _induced(option, darts):
    """The cyclic order an anchored option induces on some of its darts,
    anchored again."""
    return sch._anchor([h for h in option if h in darts])


def test_lift_is_the_least_option_with_its_induced_order():
    # vertices of degree 4 to 6 in a component, with bridge darts too
    checked = {4: 0, 5: 0, 6: 0}
    rng = random.Random(23)
    while min(checked.values()) < 6:
        g = mg.cyclic_part(verify.random_multigraph(rng, 6, 6)).graph
        if max(g.degrees(), default=0) > 6:
            continue  # (deg - 1)! options per vertex
        decomp = mg.bridges_and_components(g)
        bridge_darts = {2 * e + end for e in decomp.bridges for end in (0, 1)}
        options = option_lists(g)
        at = g.darts()
        for comp in decomp.components:
            for v in comp.vertices:
                darts = at[v]
                others = [h for h in darts if h in bridge_darts]
                if len(darts) not in checked or not others:
                    continue
                own = {h for h in darts if h not in bridge_darts}
                for option in options[v]:
                    cycle = _induced(option, own)
                    least = min(o for o in options[v]
                                if _induced(o, own) == cycle)
                    assert cf._lift(list(cycle), others) == least
                checked[len(darts)] += 1


def _sampled_graphs():
    graphs = [g for q in (2, 3, 4) for g in cf.generate_cubic_graphs(q)]
    graphs += random.Random(5).sample(cf.generate_cubic_graphs(5), 10)
    # cyclic parts with loops, bridges and vertices of degree > 3
    rng = random.Random(11)
    drawn = 0
    while drawn < 60:
        g = mg.cyclic_part(verify.random_multigraph(rng, 5, 5)).graph
        if max(g.degrees(), default=0) > 3 and cf.scheme_count(g) <= 20_000:
            graphs.append(g)
            drawn += 1
    return graphs


def test_witnesses_are_the_first_strip_rotation_of_the_graph():
    for g in _sampled_graphs():
        for c in cf.equivalence_classes(g):
            assert c.witness == oracle_witness_rotation(g,
                                                        c.representative), g


def test_equivalence_classes_are_the_same_with_threads():
    for g in cf.generate_cubic_graphs(3):
        base = cf.equivalence_classes(g)
        for threads in (2, 3):
            assert cf.equivalence_classes(g, threads=threads) == base


def test_threads_start_no_pool_and_no_thread(monkeypatch):
    # threads is accepted and ignored: even a bridgeless rank-5 graph,
    # whose one component has 31 coset representatives, is searched on
    # the calling thread
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__",
                        refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    g = next(g for g in cf.generate_cubic_graphs(5)
             if not mg.bridges_and_components(g).bridges)
    assert cf.equivalence_classes(g, threads=2) == cf.equivalence_classes(g)
