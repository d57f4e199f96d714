"""Property tests over random schemes, drawn by hypothesis.

Every test runs a fixed number of derandomized examples with no example
database, so a run is deterministic and leaves no files behind.
"""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import reduce as rd
from clstruct import scheme as sch
from helpers import packed_strip_args

FIXED = settings(max_examples=150, derandomize=True, database=None,
                 deadline=None)


@st.composite
def graphs(draw, max_vertices=5, max_extra=5):
    """Connected multigraphs: a random spanning tree plus extra edges,
    which may be loops or parallel edges."""
    n = draw(st.integers(1, max_vertices))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=max_extra))
    return mg.build(n, draw(st.permutations(edges)))


@st.composite
def schemes(draw, cyclic=False):
    g = draw(graphs())
    if cyclic:
        g = mg.cyclic_part(g).graph
    rotation = [draw(st.permutations(darts)) for darts in g.darts()]
    signs = draw(st.lists(st.integers(0, 1), min_size=g.n_edges,
                          max_size=g.n_edges))
    return sch.make_scheme(g, rotation, signs)


@FIXED
@given(schemes())
def test_tracer_matches_oracle(s):
    assert sch.boundary_trace(s).b == sch.oracle_boundary_count(s)


@FIXED
@given(schemes(cyclic=True))
def test_single_orbit_kernel_matches_tracer(s):
    turn = sch._turn_table(s.graph.n_darts, s.rotation)
    assert sch._single_orbit_strip(turn, *packed_strip_args(s.signs)) == \
        (sch.boundary_trace(s).b == 1)


@FIXED
@given(schemes(), st.data())
def test_vertex_flip_keeps_boundary_and_orientability(s, data):
    v = data.draw(st.integers(0, s.graph.n_vertices - 1))
    f = sch.vertex_flip(s, v)
    assert sch.boundary_trace(f).b == sch.boundary_trace(s).b
    assert sch.is_orientable(f) == sch.is_orientable(s)
    assert sch.vertex_flip(f, v) == s


NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.",
    min_size=1, max_size=12)


@FIXED
@given(NAMES, schemes())
def test_parse_format_round_trip(name, s):
    text = sch.format_scheme(name, s)
    assert sch.parse_scheme(text) == (name, s)
    assert sch.format_scheme(*sch.parse_scheme(text)) == text


@FIXED
@given(schemes())
def test_internal_constructors_build_valid_schemes(s):
    # the four moves build their Scheme without mg.build or
    # make_scheme, and must give what those would
    g = s.graph
    made = [sch.vertex_flip(s, v) for v in range(g.n_vertices)]
    made += [sch.component_subscheme(s, comp)
             for comp in mg.bridges_and_components(g).components]
    made += [rd.contract_unswitched(s, e)
             for e, (u, v) in enumerate(g.edges)
             if u != v and s.signs[e] == 0]
    made += [rd.expand_vertex(s, v, shape)
             for v in range(g.n_vertices) if g.degree(v) > 3
             for shape in ("comb", "balanced")]
    for r in made:
        assert mg.build(r.graph.n_vertices, r.graph.edges) == r.graph
        assert sch.make_scheme(r.graph, r.rotation, r.signs) == r


# Text with the characters JSON must escape, next to plain and non-ASCII
# ones (the default alphabet leaves out only surrogates).
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f'),
                              st.characters()), max_size=8)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-2 ** 100, 2 ** 100), JSON_TEXT,
    st.floats(allow_nan=False, allow_infinity=False))
# Lists of only ints and bools, and tuples, which json.dumps writes as
# arrays.
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(st.integers() | st.booleans(), max_size=5),
        st.lists(st.integers(), max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, kids, max_size=5)),
    max_leaves=30)


@FIXED
@given(JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert cf._json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
