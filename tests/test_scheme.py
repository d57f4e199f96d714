import itertools
import random
from collections import defaultdict

import pytest

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import scheme as sch
from clstruct import verify
from clstruct.errors import (BadRotation, MissingSign, NoSuchVertex,
                             NotCyclicPart, ParseError)
from helpers import fundamental_cycle_basis


def loop_scheme(sign):
    return sch.make_scheme(mg.build(1, [(0, 0)]), [(0, 1)], [sign])


def theta_scheme(signs, rot0=(0, 2, 4), rot1=(1, 3, 5)):
    g = mg.build(2, [(0, 1)] * 3)
    return sch.make_scheme(g, [rot0, rot1], signs)


def all_schemes_on(g):
    rot_choices = []
    for darts in g.darts():
        if len(darts) <= 1:
            rot_choices.append([tuple(darts)])
        else:
            first = darts[0]
            rot_choices.append([(first,) + rest
                                for rest in itertools.permutations(darts[1:])])
    for rots in itertools.product(*rot_choices):
        for signs in itertools.product((0, 1), repeat=g.n_edges):
            yield sch.make_scheme(g, list(rots), list(signs))


def test_make_scheme_validation():
    g = mg.build(1, [(0, 0)])
    with pytest.raises(BadRotation):
        sch.make_scheme(g, [(0, 0)], [0])
    with pytest.raises(BadRotation):
        sch.make_scheme(g, [(0,)], [0])
    with pytest.raises(MissingSign):
        sch.make_scheme(g, [(0, 1)], [])
    with pytest.raises(MissingSign):
        sch.make_scheme(g, [(0, 1)], [2])


THETA = mg.build(2, [(0, 1)] * 3)
DUMBBELL = mg.build(2, [(0, 0), (0, 1), (1, 1)])

# Messages of the per-vertex check that scanned the edges once per
# vertex, recorded from it; gathering the darts in one pass keeps them.
BAD_ROTATIONS = [
    ("missing dart", THETA, [(0, 2), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (0, 2)"),
    ("duplicated dart", THETA, [(0, 2, 2), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (0, 2, 2)"),
    ("every dart and one twice", THETA, [(0, 2, 4, 4), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (0, 2, 4, 4)"),
    ("dart listed at two vertices", THETA, [(0, 2, 4), (1, 3, 4)],
     "rotation at vertex 1 must list darts (1, 3, 5) exactly once, "
     "got (1, 3, 4)"),
    ("dart at the wrong vertex", THETA, [(0, 2, 5), (1, 3, 4)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (0, 2, 5)"),
    ("loop dart at the wrong vertex", DUMBBELL, [(0, 2, 4), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 1, 2) exactly once, "
     "got (0, 2, 4)"),
    ("short second vertex", DUMBBELL, [(0, 1, 2), (3, 5)],
     "rotation at vertex 1 must list darts (3, 4, 5) exactly once, "
     "got (3, 5)"),
    ("wrong vertex count", THETA, [(0, 2, 4)],
     "rotation lists 1 vertices, graph has 2"),
    ("float dart", THETA, [(0.5, 2, 4), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (0.5, 2, 4)"),
    ("bool dart", THETA, [(True, 2, 4), (0, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (True, 2, 4)"),
    ("dart out of range", THETA, [(0, 2, 6), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (0, 2, 6)"),
    ("negative dart", THETA, [(-1, 2, 4), (1, 3, 5)],
     "rotation at vertex 0 must list darts (0, 2, 4) exactly once, "
     "got (-1, 2, 4)"),
]


@pytest.mark.parametrize("case", BAD_ROTATIONS,
                         ids=[c[0] for c in BAD_ROTATIONS])
def test_bad_rotation_messages(case):
    _name, g, rotation, message = case
    with pytest.raises(BadRotation) as info:
        sch.make_scheme(g, rotation, [0] * g.n_edges)
    assert str(info.value) == message


def test_rotation_is_anchored():
    g = mg.build(2, [(0, 1)] * 3)
    a = sch.make_scheme(g, [(0, 2, 4), (1, 3, 5)], [0, 0, 0])
    b = sch.make_scheme(g, [(2, 4, 0), (3, 5, 1)], [0, 0, 0])
    assert a == b


def test_point_disk():
    s = sch.make_scheme(mg.build(1, []), [()], [])
    assert sch.boundary_trace(s).b == 1
    assert sch.is_strip(s)


def test_loop_closed_forms():
    assert sch.boundary_trace(loop_scheme(0)).b == 2  # annulus
    assert sch.boundary_trace(loop_scheme(1)).b == 1  # Mobius band


def test_theta_parallel_rotations():
    trace = sch.boundary_trace(theta_scheme([0, 0, 0]))
    assert trace.b == 1
    # reversing one rotation gives the planar embedding: E - V + 2 faces
    trace = sch.boundary_trace(theta_scheme([0, 0, 0], rot1=(1, 5, 3)))
    assert trace.b == 3


def test_trace_orbits_partition_all_states():
    s = theta_scheme([1, 0, 1])
    trace = sch.boundary_trace(s)
    states = sorted(h for orbit in trace.orbits for h in orbit)
    assert states == list(range(4 * s.graph.n_edges))


def test_trace_pairing_is_a_perfect_matching():
    s = theta_scheme([0, 1, 0])
    trace = sch.boundary_trace(s)
    assert len(trace.pairing) == len(trace.orbits)
    for i, j in enumerate(trace.pairing):
        assert j != i  # an orbit is never its own mirror
        assert trace.pairing[j] == i
    assert trace.b * 2 == len(trace.orbits)


@pytest.mark.parametrize("sign,b", [(0, 2), (1, 1)])
def test_oracle_matches_tracer_on_loops(sign, b):
    s = loop_scheme(sign)
    assert sch.oracle_boundary_count(s) == b


def test_oracle_matches_tracer_exhaustively_q2():
    graphs = [mg.build(2, [(0, 0), (0, 1), (1, 1)]),
              mg.build(2, [(0, 1)] * 3)]
    for g in graphs:
        for s in all_schemes_on(g):
            assert sch.boundary_trace(s).b == sch.oracle_boundary_count(s)


def test_oracle_matches_tracer_on_a_rank3_graph():
    g = mg.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    count = 0
    for s in all_schemes_on(g):
        assert sch.boundary_trace(s).b == sch.oracle_boundary_count(s)
        count += 1
    assert count == (2 ** 4) * (2 ** 6)


def dict_numbered_oracle(s):
    """The polygon-gluing oracle as it was before its points were
    numbered by offsets: a dict numbers the points by tuple keys on
    first use, and a set holds the segments seen.  Test-only reference
    for ``sch.oracle_boundary_count``."""
    g = s.graph
    point_id = {}

    def pid(key):
        if key not in point_id:
            point_id[key] = len(point_id)
        return point_id[key]

    arc_ends = {}
    free_segments = []
    isolated = 0
    for v in range(g.n_vertices):
        cyc = s.rotation[v]
        d = len(cyc)
        if d == 0:
            isolated += 1
            continue
        for i, h in enumerate(cyc):
            a = pid(("corner", v, 2 * i))
            b = pid(("corner", v, 2 * i + 1))
            c = pid(("corner", v, (2 * i + 2) % (2 * d)))
            arc_ends[h] = (a, b)
            free_segments.append((b, c))

    gluings = []
    band_sides = []
    for e in range(g.n_edges):
        p0 = pid(("band", e, 0))
        p1 = pid(("band", e, 1))
        p2 = pid(("band", e, 2))
        p3 = pid(("band", e, 3))
        band_sides.append((p1, p2))
        band_sides.append((p3, p0))
        a0, b0 = arc_ends[2 * e]
        a1, b1 = arc_ends[2 * e + 1]
        gluings.append((p0, b0))
        gluings.append((p1, a0))
        if s.signs[e] == 0:
            gluings.append((p2, b1))
            gluings.append((p3, a1))
        else:
            gluings.append((p2, a1))
            gluings.append((p3, b1))

    dsu = mg._UnionFind(len(point_id))
    for (a, b) in gluings:
        dsu.union(a, b)

    segments = free_segments + band_sides
    seg_ends = [(dsu.find(a), dsu.find(b)) for (a, b) in segments]
    incident = defaultdict(list)
    for i, (a, b) in enumerate(seg_ends):
        incident[a].append(i)
        incident[b].append(i)
    for node, inc in incident.items():
        assert len(inc) == 2, "unglued segments must form circles"

    seen = set()
    circles = 0
    for i in range(len(segments)):
        if i in seen:
            continue
        circles += 1
        seen.add(i)
        stack = [i]
        while stack:
            j = stack.pop()
            for node in seg_ends[j]:
                for k in incident[node]:
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
    return circles + isolated


def test_oracle_matches_its_dict_numbered_version():
    cubic = [s for q in (2, 3) for g in cf.generate_cubic_graphs(q)
             for s in cf.enumerate_schemes(g)]
    assert len(cubic) == 5184
    point = [sch.make_scheme(mg.build(1, []), [()], [])]
    wedge = list(cf.enumerate_schemes(mg.build(1, [(0, 0)] * 3)))
    assert len(wedge) == 960
    rng = random.Random(11)
    drawn = [verify.random_scheme(rng) for _ in range(2000)]
    loops = sum(any(u == v for u, v in s.graph.edges) for s in drawn)
    parallels = sum(len(set(s.graph.edges)) < s.graph.n_edges for s in drawn)
    assert loops > 300 and parallels > 300
    for s in cubic + point + wedge + drawn:
        assert sch.oracle_boundary_count(s) == dict_numbered_oracle(s), s


def test_is_strip_requires_cyclic_part():
    g = mg.build(2, [(0, 1)])
    s = sch.make_scheme(g, [(0,), (1,)], [0])
    with pytest.raises(NotCyclicPart):
        sch.is_strip(s)
    assert sch.boundary_trace(s).b == 1  # tracing itself still works


def test_companion_and_switched_edges():
    s = theta_scheme([1, 0, 1])
    assert s.signs == (1, 0, 1)  # the companion: per-edge switch parities
    assert sch.switched_edges(s) == frozenset({0, 2})


def test_vertex_flip_reverses_rotation_and_toggles_signs():
    g = mg.build(2, [(0, 0), (0, 1), (1, 1)])
    s = sch.make_scheme(g, [(0, 1, 2), (3, 4, 5)], [0, 0, 0])
    f = sch.vertex_flip(s, 0)
    # loop at 0 keeps its sign, the bridge toggles, the far loop is untouched
    assert f.signs == (0, 1, 0)
    assert f.rotation[1] == s.rotation[1]
    assert sch.vertex_flip(f, 0) == s  # involution


@pytest.mark.parametrize("v", [-1, 2])
def test_vertex_flip_rejects_vertex_ids_out_of_range(v):
    with pytest.raises(NoSuchVertex, match=f"no vertex {v}"):
        sch.vertex_flip(theta_scheme([0, 0, 0]), v)


def edge_scan_flip(s, v):
    """``sch.vertex_flip`` as it was before it toggled the edges of the
    darts at v: every edge is scanned, and a non-loop edge with one end
    at v toggles.  Test-only reference."""
    rotation = list(s.rotation)
    rotation[v] = sch._anchor(reversed(rotation[v]))
    signs = list(s.signs)
    for e, (a, b) in enumerate(s.graph.edges):
        if (a == v) != (b == v):
            signs[e] ^= 1
    return sch.Scheme(s.graph, tuple(rotation), tuple(signs))


def test_vertex_flip_matches_the_edge_scan():
    cubic = [s for q in (2, 3) for g in cf.generate_cubic_graphs(q)
             for s in cf.enumerate_schemes(g)]
    assert len(cubic) == 5184
    rng = random.Random(13)
    drawn = [verify.random_scheme(rng) for _ in range(2000)]
    assert sum(any(u == v for u, v in s.graph.edges) for s in drawn) > 300
    for s in cubic + drawn:
        for v in range(s.graph.n_vertices):
            assert sch.vertex_flip(s, v) == edge_scan_flip(s, v), (s, v)


def test_vertex_flip_preserves_boundary_and_orientability():
    for signs in itertools.product((0, 1), repeat=3):
        s = theta_scheme(list(signs))
        b = sch.boundary_trace(s).b
        orient = sch.is_orientable(s)
        for v in (0, 1):
            f = sch.vertex_flip(s, v)
            assert sch.boundary_trace(f).b == b
            assert sch.is_orientable(f) == orient


def test_orientability_from_cycle_signs():
    assert sch.is_orientable(theta_scheme([0, 0, 0]))
    # every 2-edge cycle needs an even sign sum: all three must agree
    assert sch.is_orientable(theta_scheme([1, 1, 1]))
    assert not sch.is_orientable(theta_scheme([1, 1, 0]))
    assert not sch.is_orientable(theta_scheme([1, 0, 0]))
    assert not sch.is_orientable(loop_scheme(1))
    assert sch.is_orientable(loop_scheme(0))


def cycle_parity_orientable(s):
    """The fundamental-cycle test: every basis cycle has even sign sum."""
    return all(sum(s.signs[e] for e in cyc) % 2 == 0
               for cyc in fundamental_cycle_basis(s.graph))


def test_orientability_matches_cycle_parity():
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            for s in cf.enumerate_schemes(g):
                assert sch.is_orientable(s) == cycle_parity_orientable(s)
    rng = random.Random(3)
    loops = parallels = 0
    for _ in range(300):
        s = verify.random_scheme(rng)
        assert sch.is_orientable(s) == cycle_parity_orientable(s), s
        edges = s.graph.edges
        loops += any(u == v for u, v in edges)
        parallels += len(set(edges)) < len(edges)
    assert loops > 50 and parallels > 50


def test_surface_type_point():
    s = sch.make_scheme(mg.build(1, []), [()], [])
    t = sch.surface_type(s)
    assert (t.boundary, t.euler_patch, t.euler_closed) == (1, 1, 2)
    assert t.orientable and t.genus == 0
    assert t.capped_name == "sphere"


def test_surface_type_torus_and_klein():
    bouquet = mg.build(1, [(0, 0), (0, 0)])
    torus = sch.make_scheme(bouquet, [(0, 2, 1, 3)], [0, 0])
    t = sch.surface_type(torus)
    assert (t.boundary, t.orientable, t.genus, t.crosscaps) == (1, True, 1, None)
    assert t.capped_name == "torus"

    klein = sch.make_scheme(bouquet, [(0, 1, 2, 3)], [1, 1])
    t = sch.surface_type(klein)
    assert sch.boundary_trace(klein).b == 1
    assert (t.orientable, t.genus, t.crosscaps) == (False, None, 2)
    assert t.capped_name == "Klein bottle"


def test_surface_type_strip_euler():
    # for a strip the capped surface has euler characteristic 2 - q
    s = theta_scheme([1, 0, 0])
    t = sch.surface_type(s)
    assert sch.boundary_trace(s).b == 1
    assert t.euler_closed == 0
    assert t.crosscaps == 2


def test_component_subscheme_dumbbell():
    g = mg.build(2, [(0, 0), (0, 1), (1, 1)])
    s = sch.make_scheme(g, [(0, 2, 1), (4, 3, 5)], [1, 0, 1])
    decomp = mg.bridges_and_components(g)
    subs = [sch.component_subscheme(s, c) for c in decomp.components]
    assert [t.graph.n_edges for t in subs] == [1, 1]
    assert [t.signs for t in subs] == [(1,), (1,)]
    assert [sch.boundary_trace(t).b for t in subs] == [1, 1]


def test_component_subscheme_whole_graph():
    s = theta_scheme([0, 1, 1])
    comp = mg.bridges_and_components(s.graph).components[0]
    assert sch.component_subscheme(s, comp) == s


def test_format_parse_round_trip():
    s = theta_scheme([1, 0, 1], rot0=(0, 4, 2))
    text = sch.format_scheme("t", s)
    name, parsed = sch.parse_scheme(text)
    assert name == "t"
    assert parsed == s


def test_parse_scheme_errors():
    base = ("graph g\nvertex 0\nedge 0 0 0\n")
    with pytest.raises(MissingSign):
        sch.parse_scheme(base + "rotation 0 0.0 0.1\n")
    with pytest.raises(ParseError, match="line 4"):
        sch.parse_scheme(base + "rotation 0 0.0 0.2\nsign 0 1\n")
    with pytest.raises(ParseError):
        sch.parse_scheme(base + "rotation 0 0.0 0.1\nsign 0 1\nsign 0 1\n")
    with pytest.raises(BadRotation):
        sch.parse_scheme(base + "sign 0 1\n")  # rotation line missing


# a two-vertex, two-edge graph on lines 1-5, then its scheme lines from 6
_DIPOLE2 = "graph g\nvertex 0\nvertex 1\nedge 0 0 1\nedge 1 0 1\n"
_ROTATIONS = "rotation 0 0.0 1.0\nrotation 1 0.1 1.1\n"
_SIGNS = "sign 0 0\nsign 1 1\n"


@pytest.mark.parametrize("text, exc, message", [
    (_DIPOLE2 + "rotation\n" + _SIGNS, ParseError,
     "line 6: expected: rotation <vertex> <darts>"),
    (_DIPOLE2 + _ROTATIONS + "sign 0\nsign 1 1\n", ParseError,
     "line 8: expected: sign <edge> <0|1>"),
    (_DIPOLE2 + _ROTATIONS + "sign 0 0 1\nsign 1 1\n", ParseError,
     "line 8: expected: sign <edge> <0|1>"),
    (_DIPOLE2 + "rotation 2 0.0\n" + _SIGNS, ParseError,
     "line 6: rotation for unknown vertex 2"),
    (_DIPOLE2 + "rotation x 0.0\n" + _SIGNS, ParseError,
     "line 6: expected an integer, got 'x'"),
    (_DIPOLE2 + _ROTATIONS + "sign 2 0\n", ParseError,
     "line 8: sign for unknown edge 2"),
    (_DIPOLE2 + _ROTATIONS + "rotation 0 1.0 0.0\n" + _SIGNS, ParseError,
     "line 8: duplicate rotation for vertex 0"),
    (_DIPOLE2 + _ROTATIONS + _SIGNS + "sign 1 0\n", ParseError,
     "line 10: duplicate sign for edge 1"),
    (_DIPOLE2 + "rotation 0 0.2 1.0\n", ParseError,
     "line 6: bad dart '0.2', expected <edge>.0|.1"),
    (_DIPOLE2 + "rotation 0 x.0 1.0\n", ParseError, "line 6: bad dart 'x.0'"),
    (_DIPOLE2 + "rotation 0 0.0 2.0\n", ParseError,
     "line 6: dart '2.0' references unknown edge"),
    (_DIPOLE2 + _ROTATIONS + "sign 0 2\n", ParseError,
     "line 8: sign value must be 0 or 1"),
    (_DIPOLE2 + _ROTATIONS + "sign 0 0\n", MissingSign,
     "line 5: no sign for edges [1]"),
    (_DIPOLE2 + "rotation 0 0.0 1.0\n" + _SIGNS, BadRotation,
     "line 3: rotation at vertex 1 must list darts (1, 3) exactly once, "
     "got ()"),
    (_DIPOLE2 + "rotation 0 0.1 1.1\nrotation 1 0.0 1.0\n" + _SIGNS,
     BadRotation, "line 6: rotation at vertex 0 must list darts (0, 2) "
     "exactly once, got (1, 3)"),
    # graph errors come first, even below a malformed rotation line
    ("graph g\nvertex 0\nrotation\nedge 0 0 3\n", ParseError,
     "line 4: edge 0 references unknown vertex"),
    ("graph g\nvertex 0\nedge 0 0 0\nrotation 0 x.0\nbogus\n", ParseError,
     "line 5: unknown directive 'bogus'"),
])
def test_parse_scheme_error_messages_are_pinned(text, exc, message):
    with pytest.raises(exc) as info:
        sch.parse_scheme(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_parse_scheme_reads_directives_in_any_order():
    ordered = _DIPOLE2 + _ROTATIONS + _SIGNS
    shuffled = ("sign 1 1\nrotation 1 0.1 1.1\n" + _DIPOLE2
                + "rotation 0 0.0 1.0\n# a comment\n\nsign 0 0\n")
    assert sch.parse_scheme(shuffled) == sch.parse_scheme(ordered)
    assert sch.parse_scheme(ordered)[1].signs == (0, 1)
