"""The invariant suites of ``clstruct verify``, and seeded inputs.

``run_verify`` runs the ``suite_*`` checks, each of one fact of the
structure theory and returning None or a one-line failure.  They call
the library through module attributes (``sch.boundary_trace``, ...),
so a replaced library function reaches every suite.
"""
import random

from . import classify
from . import multigraph as mg
from . import reduce as rd
from . import scheme as sch


# --- randomized inputs (shared by verify and the test suite) ---

def random_multigraph(rng, max_vertices=8, max_extra=6):
    """Seeded connected multigraph: a random spanning tree plus extras."""
    n = rng.randint(1, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((min(u, v), max(u, v)))
    rng.shuffle(edges)
    return mg.build(n, edges)


def random_scheme(rng, g=None, max_vertices=8, max_extra=6):
    if g is None:
        g = random_multigraph(rng, max_vertices, max_extra)
    rotation = []
    for darts in map(list, g.darts()):
        rng.shuffle(darts)
        rotation.append(darts)
    signs = [rng.randint(0, 1) for _ in range(g.n_edges)]
    return sch.make_scheme(g, rotation, signs)


# --- invariant suites ---

# seeded draws per run of the random suites
ROUND_TRIP_CASES = 100
RANDOM_ORACLE_CASES = 2000
RANK4_CASES = 200

def _boundary_table(tables, g):
    """Every scheme on g with its exact boundary count, traced once.

    Returns (schemes, counts, starts).  ``schemes`` lists
    ``classify.enumerate_schemes(g)`` in its order: rotation by
    rotation, each rotation's sign tables in ``classify._pack_signs``
    order, so the scheme at position i has the packed table
    i & (2^E - 1), E = g.n_edges.  ``counts[i]`` is
    ``sch.boundary_trace(schemes[i]).b``, and ``starts`` maps each
    anchored rotation to the position of its first scheme.  Built on
    first use and kept in the dict ``tables``, keyed by graph, so that
    the suites of one run enumerate and trace g once.  A vertex flip or
    component subscheme of an enumerated scheme is again an enumerated
    scheme (rotations stay anchored), so its count is the lookup
    ``counts[starts[rotation] + packed table]``.
    """
    table = tables.get(g)
    if table is None:
        schemes = list(classify.enumerate_schemes(g))
        counts = bytearray([sch.boundary_trace(s).b for s in schemes])
        starts = {schemes[i].rotation: i
                  for i in range(0, len(schemes), 1 << g.n_edges)}
        table = tables[g] = schemes, counts, starts
    return table


def _tabled_graphs(tables=None, qs=(2, 3)):
    """(g, table) per cubic graph g of the ranks qs, table being its
    ``_boundary_table`` in ``tables``, a new dict when None.  The graphs
    of rank q are generated once and kept in ``tables`` under q."""
    tables = {} if tables is None else tables
    for q in qs:
        graphs = tables.get(q)
        if graphs is None:
            graphs = tables[q] = classify.generate_cubic_graphs(q)
        for g in graphs:
            yield g, _boundary_table(tables, g)


def _orientable(memo, t, s):
    """``sch.is_orientable(s)``, made once per packed sign table t of
    one graph and kept in that graph's dict ``memo``."""
    orient = memo.get(t)
    if orient is None:
        orient = memo[t] = sch.is_orientable(s)
    return orient


def suite_closed_forms():
    point = sch.make_scheme(mg.build(1, []), [()], [])
    if sch.boundary_trace(point).b != 1:
        return "point disk must have one boundary circle"
    loop = mg.build(1, [(0, 0)])
    annulus = sch.make_scheme(loop, [(0, 1)], [0])
    mobius = sch.make_scheme(loop, [(0, 1)], [1])
    if sch.boundary_trace(annulus).b != 2:
        return "untwisted loop must give an annulus (b=2)"
    if sch.boundary_trace(mobius).b != 1:
        return "twisted loop must give a Mobius band (b=1)"
    bouquet = mg.build(1, [(0, 0), (0, 0)])
    torus = sch.make_scheme(bouquet, [(0, 2, 1, 3)], [0, 0])
    ttype = sch.surface_type(torus)
    if (ttype.boundary, ttype.orientable, ttype.genus) != (1, True, 1):
        return "interleaved unswitched two-loop bouquet must cap to a torus"
    theta = mg.build(2, [(0, 1), (0, 1), (0, 1)])
    tscheme = sch.make_scheme(theta, [(0, 2, 4), (1, 3, 5)], [0, 0, 0])
    if sch.boundary_trace(tscheme).b != 1:
        return "unswitched parallel-rotation theta must be a strip"
    return None


def suite_tracer_vs_oracle(tables=None):
    for g, (schemes, counts, _starts) in _tabled_graphs(tables):
        for s, b in zip(schemes, counts):
            if b != sch.oracle_boundary_count(s):
                return f"tracer/oracle mismatch on {g.edges} {s.signs}"
    return None


def suite_flip_invariance(tables=None):
    for g, (schemes, counts, starts) in _tabled_graphs(tables):
        mask = (1 << g.n_edges) - 1
        memo = {}
        for i, s in enumerate(schemes):
            b = counts[i]
            orient = _orientable(memo, i & mask, s)
            for v in range(g.n_vertices):
                f = sch.vertex_flip(s, v)
                start = starts.get(f.rotation)
                if start is None:
                    return (f"flip at {v} is not an enumerated scheme on "
                            f"{g.edges} {s.signs}")
                ft = classify._pack_signs(f.signs)
                if counts[start + ft] != b:
                    return f"flip at {v} changed b on {g.edges} {s.signs}"
                if _orientable(memo, ft, f) != orient:
                    return f"flip at {v} changed orientability"
    return None


def suite_strip_decomposition(tables=None):
    tables = {} if tables is None else tables
    for g, (schemes, counts, _starts) in _tabled_graphs(tables):
        parts = [mg._restrict(g, comp.vertices, comp.edges)
                 for comp in mg.bridges_and_components(g).components]
        part_tables = [_boundary_table(tables, part[0]) for part in parts]
        for s, b in zip(schemes, counts):
            bs = []
            for part, table in zip(parts, part_tables):
                t = sch._subscheme(s, part)
                if t.graph is not part[0]:  # then it needs its own table
                    table = _boundary_table(tables, t.graph)
                _schemes, sub_counts, sub_starts = table
                start = sub_starts.get(t.rotation)
                if start is None:
                    return (f"component subscheme is not an enumerated "
                            f"scheme on {g.edges} {s.signs}")
                bs.append(sub_counts[start + classify._pack_signs(t.signs)])
            if b != 1 + sum(x - 1 for x in bs):
                return (f"boundary count {b} disagrees with component "
                        f"counts {bs} on {g.edges} {s.signs}")
            if (b == 1) != all(x == 1 for x in bs):
                return "strip iff all component subschemes are strips failed"
    return None


def suite_cycle_components_switched(tables=None):
    for g, (schemes, counts, _starts) in _tabled_graphs(tables):
        decomp = mg.bridges_and_components(g)
        for s, b in zip(schemes, counts):
            if b != 1:
                continue
            for comp in decomp.components:
                if len(comp.edges) != len(comp.vertices):
                    continue  # not a simple-cycle component
                if sum(s.signs[e] for e in comp.edges) % 2 == 0:
                    return (f"cycle component {sorted(comp.edges)} of a "
                            f"strip has even sign sum on {g.edges} "
                            f"{s.signs}")
    return None


def suite_odd_rank_non_orientable(tables=None):
    for g, (schemes, counts, _starts) in _tabled_graphs(tables, qs=(3,)):
        mask = (1 << g.n_edges) - 1
        memo = {}
        for i, s in enumerate(schemes):
            if counts[i] == 1 and _orientable(memo, i & mask, s):
                return f"orientable strip with odd rank: {g.edges} {s.signs}"
    return None


def roundtrip_once(s, v, tree_shape="comb"):
    """expand_vertex followed by contracting its internal edges must
    restore the scheme exactly (ids included)."""
    return _contracts_back(s, rd.expand_vertex(s, v, tree_shape))


def _contracts_back(s, expanded):
    """Whether contracting the internal edges of ``expanded``, an
    expansion of s, restores s exactly."""
    result = expanded
    for e in range(expanded.graph.n_edges - 1, s.graph.n_edges - 1, -1):
        result = rd.contract_unswitched(result, e)
    return result == s


def suite_round_trips(seed=0):
    for q in (2, 3):
        wedge = mg.build(1, [(0, 0)] * q)
        for s in classify.enumerate_schemes(wedge):
            b = sch.boundary_trace(s).b
            for shape in ("comb", "balanced"):
                expanded = rd.expand_vertex(s, 0, shape)
                if not _contracts_back(s, expanded):
                    return f"wedge round trip failed ({shape}, {s.signs})"
                if sch.boundary_trace(expanded).b != b:
                    return f"expansion changed b ({shape}, {s.signs})"
    rng = random.Random(seed)
    done = 0
    while done < ROUND_TRIP_CASES:
        s = random_scheme(rng)
        highs = [v for v in range(s.graph.n_vertices)
                 if s.graph.degree(v) > 3]
        if not highs:
            continue
        v = rng.choice(highs)
        shape = rng.choice(("comb", "balanced"))
        if not roundtrip_once(s, v, shape):
            return f"random round trip failed (seed case {done})"
        done += 1
    return None


def wedge_classes_reached(q, tables=None):
    """Wedge classes reachable by contracting cubic strips of rank q.

    Walks every contraction order from the cubic strips down to
    single-vertex schemes; returns (reached, total classes).  A
    single-vertex scheme in no class adds None to ``reached``.  The
    strips are the listed schemes with count 1 in ``tables`` (see
    ``_boundary_table``).

    The walk contracts before its ``seen`` check on purpose: a child's
    key (its graph, rotation and signs) exists only once its
    contraction has built it.  ``seen`` keeps a scheme reached by two
    orders from being walked twice, so every unswitched non-loop edge
    of every scheme reached is contracted once, whatever the walk
    order: 28 contractions at q = 2, 13,160 at q = 3.
    """
    wedge = mg.build(1, [(0, 0)] * q)
    classes = classify.equivalence_classes(wedge)
    index_of = {t: i for i, c in enumerate(classes) for t in c.tables}
    reached = set()
    seen = set()
    stack = [s for _g, (schemes, counts, _starts)
             in _tabled_graphs(tables, qs=(q,))
             for s, b in zip(schemes, counts) if b == 1]
    while stack:
        s = stack.pop()
        key = (s.graph.n_vertices, s.graph.edges, s.rotation, s.signs)
        if key in seen:
            continue
        seen.add(key)
        if s.graph.n_vertices == 1:
            reached.add(index_of.get(classify._pack_signs(s.signs)))
            continue
        for e, (u, v) in enumerate(s.graph.edges):
            if u != v and s.signs[e] == 0:
                stack.append(rd.contract_unswitched(s, e))
    return reached, len(classes)


def suite_wedge_reachability(tables=None):
    for q in (2, 3):
        reached, total = wedge_classes_reached(q, tables)
        if None in reached:
            return (f"q={q}: contractions of strips reach a one-vertex "
                    f"scheme in no wedge class")
        if reached != set(range(total)):
            return (f"q={q}: contractions reach {sorted(reached)} "
                    f"of {total} wedge classes")
    return None


def suite_random_tracer_vs_oracle(seed=0):
    rng = random.Random(seed)
    for i in range(RANDOM_ORACLE_CASES):
        s = random_scheme(rng)
        if sch.boundary_trace(s).b != sch.oracle_boundary_count(s):
            return f"mismatch on random case {i}"
    return None


def suite_rank4_spot_checks(seed=0):
    rng = random.Random(seed)
    graphs = classify.generate_cubic_graphs(4)
    for i in range(RANK4_CASES):
        g = graphs[rng.randrange(len(graphs))]
        s = random_scheme(rng, g=g)
        if sch.boundary_trace(s).b != sch.oracle_boundary_count(s):
            return f"mismatch on q=4 case {i}"
        v = rng.randrange(g.n_vertices)
        if sch.boundary_trace(sch.vertex_flip(s, v)).b != \
                sch.boundary_trace(s).b:
            return f"flip changed b on q=4 case {i}"
    return None


def run_verify(level="default", seed=0) -> int:
    """Run the invariant suites; returns a process exit code (0 or 4).

    The suites that walk every scheme share one ``_boundary_table`` per
    graph, so each graph is generated and enumerated once and each
    scheme traced once per run; the oracle still counts every scheme
    on its own.
    """
    tables = {}
    suites = [
        ("closed-form boundary cases", suite_closed_forms),
        ("tracer vs oracle, exhaustive q=2,3",
         lambda: suite_tracer_vs_oracle(tables)),
        ("vertex flip invariance", lambda: suite_flip_invariance(tables)),
        ("strip decomposition over components",
         lambda: suite_strip_decomposition(tables)),
        ("switched edge in every cycle component",
         lambda: suite_cycle_components_switched(tables)),
        ("odd rank forces non-orientable strips",
         lambda: suite_odd_rank_non_orientable(tables)),
        ("expansion round trips", lambda: suite_round_trips(seed)),
        ("wedge reachability by contraction",
         lambda: suite_wedge_reachability(tables)),
    ]
    if level == "extended":
        suites += [
            ("tracer vs oracle, random V<=8",
             lambda: suite_random_tracer_vs_oracle(seed)),
            ("rank-4 spot checks", lambda: suite_rank4_spot_checks(seed)),
        ]
    failures = 0
    for name, fn in suites:
        detail = fn()
        if detail is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(suites) - failures}/{len(suites)} suites passed")
    return 0 if failures == 0 else 4
