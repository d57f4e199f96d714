"""Acceptance gate: one test per acceptance criterion, exact values.

Each test pins the externally supplied target numbers verbatim.  Three
rank-3 targets (criterion 1's graph count, criterion 2's total, and
criterion 3's multiset) disagree with the exhaustively cross-validated
enumeration this package produces (5 graphs, 18 classes, {1,1,5,5,6});
those assertions are kept as stated rather than weakened, so they fail
against this implementation.  Everything else passes.
"""
import itertools
import json
import random
import time

from clstruct import classify as cf
from clstruct import cli
from clstruct import multigraph as mg
from clstruct import scheme as sch
from helpers import oracle_witness_rotation


def _catalog_json(q, threads=1):
    return cf.catalog_to_json(cf.catalog(q, threads=threads))


def test_criterion_1_cubic_graph_counts(capsys):
    start = time.perf_counter()
    assert cli.main(["graphs", "--q", "2", "--format", "json"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert cli.main(["graphs", "--q", "3", "--format", "json"]) == 0
    three = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    for doc in (two, three):
        graphs = [mg.build(g["n_vertices"], [tuple(e) for e in g["edges"]])
                  for g in doc["graphs"]]
        for a, b in itertools.combinations(graphs, 2):
            assert not mg.isomorphic(a, b)
    assert elapsed < 5.0
    assert two["count"] == 2
    assert three["count"] == 6  # supplied target, kept verbatim


def test_criterion_2_structure_totals(capsys):
    start = time.perf_counter()
    assert cli.main(["structures", "--q", "2", "--format", "json",
                     "--threads", "1"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert cli.main(["structures", "--q", "3", "--format", "json",
                     "--threads", "1"]) == 0
    three = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    assert elapsed < 60.0
    assert two["totals"] == 3
    assert three["totals"] == 17  # supplied target, kept verbatim


def test_criterion_3_per_graph_multisets():
    cat2 = cf.catalog(2)
    assert sorted(len(c) for c in cat2.classes) == [1, 2]
    cat3 = cf.catalog(3)
    counts = sorted(len(c) for c in cat3.classes)
    assert counts == [1, 1, 3, 4, 4, 4]  # supplied target, kept verbatim


def test_criterion_4_closed_form_traces():
    point = sch.make_scheme(mg.build(1, []), [()], [])
    assert sch.boundary_trace(point).b == 1

    loop = mg.build(1, [(0, 0)])
    assert sch.boundary_trace(sch.make_scheme(loop, [(0, 1)], [0])).b == 2
    assert sch.boundary_trace(sch.make_scheme(loop, [(0, 1)], [1])).b == 1

    bouquet = mg.build(1, [(0, 0), (0, 0)])
    torus = sch.make_scheme(bouquet, [(0, 2, 1, 3)], [0, 0])
    t = sch.surface_type(torus)
    assert t.boundary == 1
    assert t.orientable
    assert t.capped_name == "torus"


def test_criterion_5_tracer_equals_oracle():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            for s in cf.enumerate_schemes(g):
                checked += 1
                if sch.boundary_trace(s).b != sch.oracle_boundary_count(s):
                    mismatches += 1
    rng = random.Random(42)
    for _ in range(10_000):
        s = cli.random_scheme(rng, max_vertices=8)
        checked += 1
        if sch.boundary_trace(s).b != sch.oracle_boundary_count(s):
            mismatches += 1
    elapsed = time.perf_counter() - start

    assert mismatches == 0
    assert checked == 64 + 5120 + 10_000
    assert elapsed < 300.0


def test_criterion_6_invariant_suite():
    # vertex-flip invariance and decomposition identities, exhaustively
    assert cli.suite_flip_invariance() is None
    assert cli.suite_strip_decomposition() is None
    assert cli.suite_cycle_components_switched() is None
    assert cli.suite_odd_rank_non_orientable() is None
    # orientable => even capped Euler characteristic
    for q in (2, 3):
        for g in cf.generate_cubic_graphs(q):
            for s in cf.enumerate_schemes(g):
                if sch.is_orientable(s):
                    t = sch.surface_type(s)
                    assert t.euler_closed % 2 == 0
    # members of one class share the surface type of its representative,
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
                assert types == {(c.surface.orientable,
                                  c.surface.euler_closed)}


def test_criterion_7_round_trips_and_reachability():
    rng = random.Random(20260815)
    done = 0
    while done < 100:
        s = cli.random_scheme(rng)
        highs = [v for v in range(s.graph.n_vertices)
                 if s.graph.degree(v) > 3]
        if not highs:
            continue
        v = rng.choice(highs)
        assert cli.roundtrip_once(s, v, rng.choice(("comb", "balanced")))
        done += 1
    for q in (2, 3):
        reached, total = cli.wedge_classes_reached(q)
        assert reached == set(range(total))


def test_criterion_8_byte_determinism():
    for q in (2, 3):
        base = _catalog_json(q)
        assert _catalog_json(q) == base
        for threads in range(1, 9):
            assert _catalog_json(q, threads=threads) == base
