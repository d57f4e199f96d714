"""The work of one `clstruct verify` run: what it enumerates, how often
it decides orientability, how it reads packed sign tables, how many
contractions the wedge walk makes, what it reaches and the memory it
takes, and how many traces the rank-4 spot checks make."""
import collections
import tracemalloc

from clstruct import classify, verify
from clstruct import multigraph as mg
from clstruct import reduce as rd
from clstruct import scheme as sch
from helpers import reference_wedge_walk


def test_a_run_enumerates_each_graph_once(monkeypatch, capsys):
    # 7 cubic graphs, 3 component graphs and the two round-trip wedges;
    # 52 calls when every table suite enumerated its graphs again
    calls = collections.Counter()
    real = classify.enumerate_schemes

    def counted(g, *args, **kwargs):
        calls[g] += 1
        return real(g, *args, **kwargs)
    monkeypatch.setattr(classify, "enumerate_schemes", counted)
    assert verify.run_verify("default", 1) == 0
    capsys.readouterr()
    assert max(calls.values()) == 1
    assert sum(calls.values()) == 12


def test_a_run_decides_orientability_once_per_table(monkeypatch, capsys):
    # one call per packed sign table of each of the 10 tabled graphs;
    # 489 when the flip and odd-rank suites each kept their own memo
    calls = [0]
    real = sch.is_orientable

    def counted(s):
        calls[0] += 1
        return real(s)
    monkeypatch.setattr(sch, "is_orientable", counted)
    assert verify.run_verify("default", 1) == 0
    capsys.readouterr()
    assert calls[0] == 359


def test_list_position_gives_the_packed_sign_table():
    # the suites read a listed scheme's packed table off its position
    tables = {}
    assert verify.suite_strip_decomposition(tables) is None
    graphs = [g for g in tables if isinstance(g, mg.Multigraph)]
    cubic = [g for q in (2, 3) for g in tables[q]]
    assert len(graphs) == 10 and set(cubic) < set(graphs)
    for g in graphs:
        schemes, counts, starts, orient = tables[g]
        mask = (1 << g.n_edges) - 1
        assert len(schemes) == len(counts) == len(starts) << g.n_edges
        assert len(orient) == mask + 1
        for i, s in enumerate(schemes):
            assert i & mask == classify._pack_signs(s.signs)
            assert starts[s.rotation] == i - (i & mask)
            assert orient[i & mask] == sch.is_orientable(s)


def test_wedge_walk_contracts_every_order(monkeypatch):
    # each forest of unswitched edges of each strip is contracted once,
    # in edge-id order; 13,160 at q = 3 when every order was walked and
    # a seen set kept a scheme from being walked twice
    calls = [0]
    real = rd.contract_unswitched

    def counted(s, e):
        calls[0] += 1
        return real(s, e)
    monkeypatch.setattr(rd, "contract_unswitched", counted)
    for q, contractions in ((2, 28), (3, 9024)):
        calls[0] = 0
        reached, total = verify.wedge_classes_reached(q)
        assert reached == set(range(total))
        assert calls[0] == contractions


def test_wedge_walk_reaches_the_schemes_of_every_order(monkeypatch):
    # the one-vertex schemes themselves, not only their classes, are
    # those of the walk over every contraction order
    found = set()
    real = rd.contract_unswitched

    def recorded(s, e):
        t = real(s, e)
        if t.graph.n_vertices == 1:
            found.add(t)
        return t
    monkeypatch.setattr(rd, "contract_unswitched", recorded)
    tables = {}
    for q, n_schemes in ((2, 10), (3, 276)):
        walks = []
        for walk in (verify.wedge_classes_reached, reference_wedge_walk):
            found.clear()
            walks.append((walk(q, tables), frozenset(found)))
        assert walks[0] == walks[1]
        (reached, total), schemes = walks[0]
        assert reached == set(range(total))
        assert len(schemes) == n_schemes


def test_wedge_walk_memory_is_pinned():
    # the walk keeps only its stack; a seen set of every scheme reached
    # peaked at ~3.8 MB here
    tables = {}
    list(verify._tabled_graphs(tables, qs=(3,)))
    tracemalloc.start()
    try:
        reached, total = verify.wedge_classes_reached(3, tables)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reached == set(range(total))
    assert peak < 1 << 20


def test_rank4_spot_checks_trace_each_scheme_once(monkeypatch):
    # each sampled scheme and its flip, traced once each; 600 when the
    # flip comparison traced the sampled scheme again
    calls = [0]
    real = sch.boundary_trace

    def counted(s):
        calls[0] += 1
        return real(s)
    monkeypatch.setattr(sch, "boundary_trace", counted)
    assert verify.suite_rank4_spot_checks(0) is None
    assert verify.RANK4_CASES == 200
    assert calls[0] == 400
