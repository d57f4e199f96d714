import hashlib
import itertools
import random

import pytest

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import reduce as rd
from clstruct import scheme as sch
from clstruct.cli import random_scheme, roundtrip_once
from clstruct.errors import (ClstructError, DegreeTooSmall, LoopContraction,
                             NoSuchVertex, NotCyclicPart, SwitchedContraction,
                             UnknownTreeShape)


def wedge_scheme(rotation, signs):
    q = len(signs)
    return sch.make_scheme(mg.build(1, [(0, 0)] * q), [rotation], signs)


def theta_scheme(signs):
    g = mg.build(2, [(0, 1)] * 3)
    return sch.make_scheme(g, [(0, 2, 4), (1, 3, 5)], signs)


def test_high_degree_count():
    assert rd.high_degree_count(mg.build(2, [(0, 1)] * 3)) == 0
    assert rd.high_degree_count(mg.build(1, [(0, 0)] * 2)) == 1
    assert rd.high_degree_count(mg.build(1, [(0, 0)] * 3)) == 1


def test_contract_theta_edge_gives_two_loop_wedge():
    s = theta_scheme([0, 0, 0])
    t = rd.contract_unswitched(s, 0)
    assert t.graph.n_vertices == 1
    assert t.graph.edges == ((0, 0), (0, 0))
    assert t.signs == (0, 0)
    # rotation splices the far vertex in place of the contracted dart
    assert sch.boundary_trace(t).b == sch.boundary_trace(s).b


def test_contract_dumbbell_bridge():
    g = mg.build(2, [(0, 0), (0, 1), (1, 1)])
    s = sch.make_scheme(g, [(0, 1, 2), (3, 4, 5)], [1, 0, 1])
    t = rd.contract_unswitched(s, 1)
    assert t.graph.edges == ((0, 0), (0, 0))
    assert t.signs == (1, 1)
    assert sch.boundary_trace(t).b == 1


def test_contract_refuses_loops_and_switched_edges():
    s = wedge_scheme((0, 1, 2, 3), [0, 0])
    with pytest.raises(LoopContraction):
        rd.contract_unswitched(s, 0)
    with pytest.raises(SwitchedContraction):
        rd.contract_unswitched(theta_scheme([1, 0, 0]), 0)


@pytest.mark.parametrize("e", [-1, 3])
def test_contract_rejects_edge_ids_out_of_range(e):
    # -1 would reach Python's negative indexing, 3 = E the end of a tuple
    with pytest.raises(ClstructError, match=f"no edge {e}"):
        rd.contract_unswitched(theta_scheme([0, 0, 0]), e)


def test_moves_build_valid_schemes_on_every_cubic_scheme():
    """The moves skip validation; on every rank-2/3 cubic scheme each
    component subscheme and each contraction of an unswitched non-loop
    edge must be what mg.build and make_scheme would build."""
    count = 0
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            comps = mg.bridges_and_components(g).components
            for s in cf.enumerate_schemes(g):
                made = [sch.component_subscheme(s, c) for c in comps]
                made += [rd.contract_unswitched(s, e)
                         for e, (u, v) in enumerate(g.edges)
                         if u != v and s.signs[e] == 0]
                for r in made:
                    assert mg.build(r.graph.n_vertices, r.graph.edges) \
                        == r.graph
                    assert sch.make_scheme(r.graph, r.rotation,
                                           r.signs) == r
                count += len(made)
    assert count == 10_336 + 12_352  # subschemes + contractions


def test_contract_preserves_boundary_everywhere():
    for signs in itertools.product((0, 1), repeat=3):
        s = theta_scheme(list(signs))
        for e in range(3):
            if signs[e] == 1:
                continue
            t = rd.contract_unswitched(s, e)
            assert sch.boundary_trace(t).b == sch.boundary_trace(s).b
            assert sch.oracle_boundary_count(t) == sch.boundary_trace(t).b


def test_expand_interleaved_wedge_gives_theta():
    s = wedge_scheme((0, 2, 1, 3), [0, 0])
    t = rd.expand_vertex(s, 0, "comb")
    assert t.graph.edges == ((0, 1), (0, 1), (0, 1))
    assert t.signs == (0, 0, 0)
    assert sch.boundary_trace(t).b == 1


def test_expand_nested_wedge_gives_dumbbell_shape():
    s = wedge_scheme((0, 1, 2, 3), [0, 0])
    t = rd.expand_vertex(s, 0, "comb")
    assert sorted(t.graph.edges) == [(0, 0), (0, 1), (1, 1)]
    assert sch.boundary_trace(t).b == sch.boundary_trace(s).b == 3


def test_expand_rejects_low_degree_and_bad_shape():
    with pytest.raises(DegreeTooSmall):
        rd.expand_vertex(theta_scheme([0, 0, 0]), 0)
    with pytest.raises(UnknownTreeShape):
        rd.expand_vertex(wedge_scheme((0, 2, 1, 3), [0, 0]), 0, "spiral")


@pytest.mark.parametrize("v", [-1, 1])
def test_expand_rejects_vertex_ids_out_of_range(v):
    with pytest.raises(NoSuchVertex, match=f"no vertex {v}"):
        rd.expand_vertex(wedge_scheme((0, 2, 1, 3), [0, 0]), v)


def test_expand_keeps_old_edge_ids_and_appends():
    s = wedge_scheme((0, 2, 4, 1, 3, 5), [1, 1, 1])
    t = rd.expand_vertex(s, 0, "comb")
    assert t.graph.n_edges == 6
    assert t.signs[:3] == (1, 1, 1)
    assert t.signs[3:] == (0, 0, 0)  # internal tree edges are unswitched
    assert set(t.graph.degrees()) == {3}


def test_expand_preserves_boundary_both_shapes_exhaustive():
    """Every scheme on the 2- and 3-loop wedges, both tree shapes."""
    for q in (2, 3):
        for s in cf.enumerate_schemes(mg.build(1, [(0, 0)] * q)):
            b = sch.boundary_trace(s).b
            for shape in ("comb", "balanced"):
                t = rd.expand_vertex(s, 0, shape)
                assert sch.boundary_trace(t).b == b
                assert sch.oracle_boundary_count(t) == b


def test_roundtrip_exact_on_wedges():
    for q in (2, 3):
        for s in cf.enumerate_schemes(mg.build(1, [(0, 0)] * q)):
            assert roundtrip_once(s, 0, "comb")
            assert roundtrip_once(s, 0, "balanced")


def test_roundtrip_on_seeded_random_schemes():
    rng = random.Random(20260815)
    done = 0
    while done < 100:
        s = random_scheme(rng)
        highs = [v for v in range(s.graph.n_vertices)
                 if s.graph.degree(v) > 3]
        if not highs:
            continue
        v = rng.choice(highs)
        assert roundtrip_once(s, v, rng.choice(("comb", "balanced")))
        done += 1


def test_reduce_to_cubic_identity_on_cubic():
    s = theta_scheme([1, 1, 0])
    t, steps = rd.reduce_to_cubic(s)
    assert steps == ()
    assert t == s


def test_reduce_to_cubic_wedge3():
    s = wedge_scheme((0, 2, 4, 1, 3, 5), [1, 1, 1])
    t, steps = rd.reduce_to_cubic(s)
    assert len(steps) == 1
    assert steps[0].kind == "expand"
    assert steps[0].vertex == 0
    assert rd.high_degree_count(t.graph) == 0
    assert t.graph.n_vertices == 4
    assert sch.boundary_trace(t).b == sch.boundary_trace(s).b


def test_reduce_to_cubic_two_fat_vertices():
    g = mg.build(2, [(0, 1)] * 4)
    s = sch.make_scheme(g, [(0, 2, 4, 6), (1, 3, 5, 7)], [0, 1, 0, 1])
    t, steps = rd.reduce_to_cubic(s, tree_shape="balanced")
    assert len(steps) == 2
    assert rd.high_degree_count(t.graph) == 0
    assert sch.boundary_trace(t).b == sch.boundary_trace(s).b
    assert sch.is_orientable(t) == sch.is_orientable(s)


def test_reduce_to_cubic_requires_cyclic_part():
    g = mg.build(2, [(0, 1)])
    s = sch.make_scheme(g, [(0,), (1,)], [0])
    with pytest.raises(NotCyclicPart):
        rd.reduce_to_cubic(s)


def test_contraction_reaches_every_wedge_class():
    from clstruct.cli import wedge_classes_reached
    for q in (2, 3):
        reached, total = wedge_classes_reached(q)
        assert reached == set(range(total))


# --- golden ids: every output of the moves, byte for byte ---

SHAPES = ("comb", "balanced")


def reversed_scheme(s):
    """The same surface with every edge written from its other end, so
    that non-loop edges run from the larger to the smaller vertex id."""
    g = mg.build(s.graph.n_vertices, [(b, a) for a, b in s.graph.edges])
    return sch.make_scheme(g, [[h ^ 1 for h in c] for c in s.rotation],
                           s.signs)


def move_texts(s):
    """format_scheme of every expansion (both shapes) of every vertex of
    degree > 3, of every contraction of an unswitched non-loop edge, and
    of reduce_to_cubic (both shapes, steps included) on a cyclic part."""
    g = s.graph
    for v in range(g.n_vertices):
        if g.degree(v) > 3:
            for shape in SHAPES:
                yield sch.format_scheme("e", rd.expand_vertex(s, v, shape))
    for e, (a, b) in enumerate(g.edges):
        if a != b and s.signs[e] == 0:
            yield sch.format_scheme("c", rd.contract_unswitched(s, e))
    if mg.is_cyclic_part(g):
        for shape in SHAPES:
            t, steps = rd.reduce_to_cubic(s, shape)
            yield sch.format_scheme("r", t) + repr(steps)


def golden_schemes():
    """Every 2- and 3-loop wedge scheme; every rotation of the 4-loop
    wedge, its sign table cycling through all 16 (the moves carry signs
    unchanged on a wedge); every scheme on the cubic graphs of rank 2
    and 3; 2,000 seeded random schemes, every other one with reversed
    edges."""
    for q in (2, 3):
        yield from cf.enumerate_schemes(mg.build(1, [(0, 0)] * q))
    wedge4 = mg.build(1, [(0, 0)] * 4)
    for i, s in enumerate(cf.enumerate_schemes(wedge4)):
        if i % 16 == (i // 16) % 16:
            yield s
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            yield from cf.enumerate_schemes(g)
    rng = random.Random(7)
    for i in range(2000):
        s = random_scheme(rng)
        yield reversed_scheme(s) if i % 2 else s


# recorded with the previous caterpillar/recursive builders and the
# dict-based contraction
GOLDEN_RESULTS = 59_636
GOLDEN_SHA256 = ("27481b8f173c1890739f5fdeb68fec24"
                 "907f57cb69d592bee629cddb4435e095")


def test_reduce_outputs_match_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for s in golden_schemes():
        for text in move_texts(s):
            digest.update(text.encode())
            count += 1
    assert (count, digest.hexdigest()) == (GOLDEN_RESULTS, GOLDEN_SHA256)


def test_expand_700_loop_wedge_both_shapes():
    """A comb over 1,400 darts is a chain of 1,398 tree vertices."""
    rng = random.Random(700)
    darts = list(range(1400))
    rng.shuffle(darts)
    s = sch.make_scheme(mg.build(1, [(0, 0)] * 700), [darts],
                        [rng.randint(0, 1) for _ in range(700)])
    b = sch.oracle_boundary_count(s)
    for shape in SHAPES:
        t = rd.expand_vertex(s, 0, shape)
        assert set(t.graph.degrees()) == {3}
        assert sch.boundary_trace(t).b == sch.oracle_boundary_count(t) == b
