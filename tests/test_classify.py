import hashlib
import itertools
import json
import random

import pytest

from clstruct import classify as cf
from clstruct import cli
from clstruct import multigraph as mg
from clstruct import scheme as sch
from clstruct.errors import BudgetExceeded, TooLarge

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
    for c in cf.equivalence_classes(theta()):
        for signs, rot in zip(c.members, c.witnesses):
            s = sch.make_scheme(theta(), [list(r) for r in rot], list(signs))
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


def test_catalog_rank5():
    # about 2 s: the whole rank-5 catalog, its JSON bytes pinned, each
    # representative checked with its witness rotation by the
    # polygon-gluing oracle
    cat = cf.catalog(5)
    assert len(cat.graphs) == 71
    assert cat.total == 8187
    assert sum(len(c.members) for cs in cat.classes for c in cs) == 116608
    text = cf.catalog_to_json(cat)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "fd0b7185abd859d7ecbcb02adf5083b49b3b6227a9bbe4fef6789c1b4cacf42a"
    for g, classes in zip(cat.graphs, cat.classes):
        for c in classes:
            s = sch.Scheme(g, c.witnesses[0], c.representative)
            assert sch.oracle_boundary_count(s) == 1, (g, c.representative)
            assert not c.surface.orientable
            assert c.surface.crosscaps == 5


def test_catalog_classes_share_surface_type():
    for q in (2, 3):
        for g, classes in zip(cf.catalog(q).graphs, cf.catalog(q).classes):
            for c in classes:
                types = set()
                for signs, rot in zip(c.members, c.witnesses):
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


def test_rank4_catalog_json_digest():
    text = cf.catalog_to_json(cf.catalog(4))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        "5edc1af61fc70a18149a44c76c26f09d6d44f9ed89a77c336016f6f6138e2001"


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


def test_budget_bounds_the_whole_graph_witness_walk():
    # a bridge between two two-loop components: 4!^2 * 2^5 = 18,432
    # schemes on the graph, 3! * 2^2 = 24 on each component
    g = mg.build(2, [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)])
    assert cf.realizable_signs(g, budget=100) == cf.realizable_signs(g)
    with pytest.raises(BudgetExceeded):
        cf.equivalence_classes(g, budget=100)
    assert len(cf.equivalence_classes(g)) == 3


# --- the per-table search, kept as a test-only oracle ---
#
# Before the coset search, every sign table of a component was tried
# against every rotation in turn, and each realizable member searched
# the rotations again for its witness.  Both are kept here, with the
# class key that tried every combination of component complements, to
# check the coset search and the rotation-outer witness walk against.

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


def oracle_witness_rotation(g, signs):
    for rotation in cf._rotations(g):
        if sch.boundary_trace(sch.Scheme(g, rotation, signs)).b == 1:
            return rotation
    raise AssertionError(f"no strip rotation for realizable signs {signs}")


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
        witnesses = tuple(oracle_witness_rotation(g, lam) for lam in members)
        rep = sch.Scheme(g, witnesses[0], members[0])
        classes.append(cf.StructureClass(g, members[0], tuple(members),
                                         witnesses, sch.surface_type(rep)))
    classes.sort(key=lambda c: c.representative)
    return tuple(classes)


@pytest.fixture(scope="module")
def rank4_graphs():
    return cf.generate_cubic_graphs(4)


def test_coset_search_matches_per_table_oracle(rank4_graphs):
    graphs = [g for q in (2, 3) for g in cf.generate_cubic_graphs(q)]
    graphs += random.Random(4).sample(rank4_graphs, 3)
    graphs += [wedge(2), wedge(3), mg.build(1, [])]
    # cyclic parts with loops, bridges and vertices of degree > 3; the
    # point graph they often reduce to is already in the list
    rng = random.Random(11)
    drawn = 0
    while drawn < 100:
        g = mg.cyclic_part(cli.random_multigraph(rng, 5, 5)).graph
        if g.n_edges and cf.scheme_count(g) <= 20_000:
            graphs.append(g)
            drawn += 1
    for g in graphs:
        assert cf.realizable_signs(g) == oracle_realizable_signs(g), g
        # every StructureClass field: representative, members,
        # witnesses and surface
        assert cf.equivalence_classes(g) == oracle_equivalence_classes(g), g


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
                    assert sch._single_orbit_strip(turn, signs) == \
                        (sch.boundary_trace(s).b == 1)
    point = sch.make_scheme(mg.build(1, []), [()], [])
    assert sch.boundary_trace(point).b == 1
    assert sch._single_orbit_strip(sch._turn_table(0, point.rotation), ())


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


# --- witnesses by flip transport, against the walks they replace ---

def test_lexmin_xor_matches_brute_force():
    rng = random.Random(29)
    for width in range(1, 9):
        universe = range(1 << width)
        for size in {1, min(3, 1 << width), 1 << (width - 1), 1 << width}:
            for _ in range(20):
                rs = sorted(rng.sample(universe, size))
                for m in universe:
                    assert cf._lexmin_xor(rs, m) == min(r ^ m for r in rs)


def _strip_rotation_indices(sub, signs):
    """Every rotation of sub traced, no half walk, no flip argument."""
    return [i for i, rotation in enumerate(cf._rotations(sub))
            if sch.boundary_trace(sch.Scheme(sub, rotation, signs)).b == 1]


def test_strip_rotation_sets_are_mirror_closed_and_move_with_flips():
    checked = 0
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            for comp in mg.bridges_and_components(g).components:
                sub = mg._restrict(g, comp.vertices, comp.edges)[0]
                option = cf._option_bits(sub)
                full = sum(option)
                _tree, free = mg._spanning_tree(sub)
                for bits in itertools.product((0, 1), repeat=len(free)):
                    rep = [0] * sub.n_edges
                    for e, x in zip(free, bits):
                        rep[e] = x
                    rs = _strip_rotation_indices(sub, rep)
                    assert sorted(r ^ full for r in rs) == rs
                    got = cf._strip_rotation_sets(sub, [tuple(rep)], option)
                    assert got == ([(tuple(rep), rs)] if rs else [])
                    for v, cut in enumerate(_cut_toggles(sub)):
                        moved = [x ^ c for x, c in zip(rep, cut)]
                        assert _strip_rotation_indices(sub, moved) == \
                            sorted(r ^ option[v] for r in rs)
                    checked += 1
    assert checked == 42


def test_transported_witnesses_match_the_whole_graph_walk(rank4_graphs):
    rank5 = random.Random(5).sample(cf.generate_cubic_graphs(5), 10)
    for g in list(rank4_graphs) + rank5:
        found, _decomp = cf._realizable(g, 1, cf.DEFAULT_BUDGET)
        assert None not in [i for _t, i in found]
        walked = cf._strip_witnesses(
            g, [cf._unpack_signs(t, g.n_edges) for t, _i in found])
        assert {lam: w for c in cf.equivalence_classes(g)
                for lam, w in zip(c.members, c.witnesses)} == walked, g


def test_equivalence_classes_are_the_same_with_threads():
    for g in cf.generate_cubic_graphs(3):
        base = cf.equivalence_classes(g)
        for threads in (2, 3):
            assert cf.equivalence_classes(g, threads=threads) == base
