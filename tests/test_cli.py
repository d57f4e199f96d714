import concurrent.futures
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from clstruct import classify as cf
from clstruct import cli
from clstruct import multigraph as mg
from clstruct import reduce as rd
from clstruct import scheme as sch
from clstruct import verify
from clstruct.errors import ClstructError
from helpers import count_strip_tests

THETA = """\
graph theta
vertex 0
vertex 1
edge 0 0 1
edge 1 0 1
edge 2 0 1
rotation 0 0.0 1.0 2.0
rotation 1 0.1 1.1 2.1
sign 0 1
sign 1 0
sign 2 0
"""

WEDGE3 = """\
graph wedge3
vertex 0
edge 0 0 0
edge 1 0 0
edge 2 0 0
rotation 0 0.0 1.0 2.0 0.1 1.1 2.1
sign 0 1
sign 1 1
sign 2 1
"""

# graph-only files with no cubic vertex.  hub has a two-loop component
# at each end of a bridge, so both vertices have degree 5; loops3 has a
# three-loop component at each end, 6!^2 * 2^7 = 66M schemes on the
# graph but 5! * 2^3 = 960 on each component.
HUB = """\
graph hub
vertex 0
vertex 1
edge 0 0 0
edge 1 0 0
edge 2 0 1
edge 3 1 1
edge 4 1 1
"""

LOOPS3 = """\
graph loops3
vertex 0
vertex 1
edge 0 0 0
edge 1 0 0
edge 2 0 0
edge 3 0 1
edge 4 1 1
edge 5 1 1
edge 6 1 1
"""

HUB_SCHEME = HUB + """\
rotation 0 0.0 1.0 0.1 1.1 2.0
rotation 1 2.1 3.0 4.0 3.1 4.1
sign 0 1
sign 1 0
sign 2 0
sign 3 0
sign 4 1
"""

# a path is not its own cyclic part: vertex 0 has degree 1
PATH = """\
graph path
vertex 0
vertex 1
edge 0 0 1
rotation 0 0.0
rotation 1 0.1
sign 0 0
"""

WEDGE3_GRAPH = """\
graph wedge3
vertex 0
edge 0 0 0
edge 1 0 0
edge 2 0 0
"""

WEDGE5_GRAPH = """\
graph wedge5
vertex 0
edge 0 0 0
edge 1 0 0
edge 2 0 0
edge 3 0 0
edge 4 0 0
"""


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.txt"
    p.write_text(THETA)
    return str(p)


@pytest.fixture
def wedge_file(tmp_path):
    p = tmp_path / "wedge3.txt"
    p.write_text(WEDGE3)
    return str(p)


def test_graphs_text(capsys):
    assert cli.main(["graphs", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 cubic multigraphs" in out
    assert "(0,0) (0,1) (1,1)" in out


def test_graphs_empty_rank(capsys):
    assert cli.main(["graphs", "--q", "1"]) == 0
    assert "no cubic multigraphs" in capsys.readouterr().out


def test_graphs_json(capsys):
    assert cli.main(["graphs", "--q", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 5
    assert len(doc["graphs"]) == 5


def test_graphs_rank_5(capsys):
    assert cli.main(["graphs", "--q", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "71 cubic multigraphs with q = 5"
    assert [line.split(":")[0] for line in lines[1:]] == \
        [f"graph {i}" for i in range(71)]


def test_structures_by_rank(capsys):
    assert cli.main(["structures", "--q", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["totals"] == 3


def test_structures_from_file(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("graph g\nvertex 0\nvertex 1\nedge 0 0 1\n"
                 "edge 1 0 1\nedge 2 0 1\n")
    assert cli.main(["structures", "--input", str(p)]) == 0
    out = capsys.readouterr().out
    assert "2 structure classes" in out


def test_structures_needs_exactly_one_source(capsys):
    assert cli.main(["structures"]) == 1
    assert cli.main(["structures", "--q", "2", "--input", "x"]) == 1


def test_trace_text(theta_file, capsys):
    assert cli.main(["trace", "--input", theta_file]) == 0
    out = capsys.readouterr().out
    assert "boundary circles: 1" in out
    assert "strip: yes" in out
    assert "switched edges: 0" in out
    assert "capped surface: Klein bottle" in out


def test_trace_json(theta_file, capsys):
    assert cli.main(["trace", "--input", theta_file, "--format",
                     "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["boundary_circles"] == 1
    assert doc["strip"] is True
    assert doc["orientable"] is False
    assert doc["euler_closed"] == 0


def test_reduce_text_round_trips_through_parser(wedge_file, tmp_path,
                                                capsys):
    assert cli.main(["reduce", "--input", wedge_file]) == 0
    out = capsys.readouterr().out
    assert "# step 0: expand vertex 0" in out
    reparsed = tmp_path / "cubic.txt"
    reparsed.write_text(out)
    assert cli.main(["trace", "--input", str(reparsed)]) == 0
    assert "boundary circles: 3" in capsys.readouterr().out


def test_reduce_json(wedge_file, capsys):
    assert cli.main(["reduce", "--input", wedge_file, "--format",
                     "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["steps"]) == 1
    assert doc["steps"][0]["kind"] == "expand"
    assert doc["scheme"]["n_vertices"] == 4


def test_expand_single_vertex(wedge_file, capsys):
    assert cli.main(["expand", "--input", wedge_file, "--vertex", "0",
                     "--shape", "balanced"]) == 0
    out = capsys.readouterr().out
    assert "# expanded vertex 0 (balanced)" in out
    assert out.count("vertex") >= 4


def test_expand_of_a_missing_vertex_exits_2(wedge_file, capsys):
    assert cli.main(["expand", "--input", wedge_file, "--vertex", "99"]) == 2
    assert capsys.readouterr().err == "clstruct: error: no vertex 99\n"


def test_render_text(theta_file, capsys):
    assert cli.main(["render", "--input", theta_file]) == 0
    out = capsys.readouterr().out
    assert "edge 0 0-1 x" in out
    assert "edge 1 0-1 =" in out


def test_render_dot(theta_file, capsys):
    assert cli.main(["render", "--input", theta_file, "--format",
                     "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('graph "theta"')
    assert '0 -- 1 [label="x"];' in out


def test_render_svg_parses_as_xml(theta_file, capsys):
    assert cli.main(["render", "--input", theta_file, "--format",
                     "svg"]) == 0
    out = capsys.readouterr().out
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    texts = [t.text for t in root.iter()
             if t.tag.endswith("text") and t.text in ("x", "=")]
    assert texts.count("x") == 1 and texts.count("=") == 2


def test_render_json_layout_is_deterministic(theta_file, capsys):
    assert cli.main(["render", "--input", theta_file, "--format",
                     "json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["render", "--input", theta_file, "--format",
                     "json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert set(doc["layout"]) == {"0", "1"}
    assert [e["mark"] for e in doc["edges"]] == ["x", "=", "="]


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["bogus"]) == 1
    assert cli.main(["graphs"]) == 1
    assert cli.main(["graphs", "--q", "two"]) == 1


def test_bad_input_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("graph g\nvertex 0\nedge 0 0 5\n")
    assert cli.main(["trace", "--input", str(p)]) == 2
    assert "line 3" in capsys.readouterr().err
    assert cli.main(["trace", "--input", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize("verb, text, line", [
    # a bad rotation at its rotation line
    ("trace", THETA.replace("rotation 1 0.1 1.1 2.1", "rotation 1 0.1 1.1"),
     8),
    # a missing rotation at its vertex line
    ("trace", THETA.replace("rotation 1 0.1 1.1 2.1\n", ""), 3),
    # an unsigned edge at its edge line
    ("trace", THETA.replace("sign 1 0\n", ""), 5),
    # a disconnected graph at its graph line
    ("trace", "# two loops\ngraph g\nvertex 0\nvertex 1\nedge 0 0 0\n"
              "edge 1 1 1\nrotation 0 0.0 0.1\nrotation 1 1.0 1.1\n"
              "sign 0 0\nsign 1 0\n", 2),
    ("structures", "graph g\nvertex 0\nvertex 1\nvertex 2\nedge 0 0 1\n", 1),
])
def test_invalid_scheme_files_exit_2_with_a_line(tmp_path, capsys, verb,
                                                 text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    assert cli.main([verb, "--input", str(p)]) == 2
    assert capsys.readouterr().err.startswith(
        f"clstruct: error: line {line}: ")


def test_caps_and_budgets_exit_3(capsys):
    assert cli.main(["graphs", "--q", "7"]) == 3
    assert cli.main(["structures", "--q", "3", "--budget", "10"]) == 3


def test_structures_over_the_vertex_cap_exit_3(tmp_path, capsys,
                                              monkeypatch):
    # the cap comes before any strip test, also on a graph that is not
    # its own cyclic part: vertex 11 hangs on a bridge
    cycle = [(v, (v + 1) % 11) for v in range(11)]
    calls = count_strip_tests(monkeypatch)
    for n, edges in ((11, cycle), (12, cycle + [(0, 11)])):
        p = tmp_path / "big.txt"
        p.write_text(mg.format_graph("big", mg.build(n, edges)))
        assert cli.main(["structures", "--input", str(p)]) == 3
        assert capsys.readouterr() == ("", (
            f"clstruct: error: {n} vertices exceeds the automorphisms "
            f"cap 10\n"))
    assert calls[0] == 0


def test_verify_default_passes(capsys):
    assert cli.main(["verify", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_verify_failure_exits_4(monkeypatch, capsys):
    for name in ("suite_tracer_vs_oracle", "suite_flip_invariance",
                 "suite_strip_decomposition",
                 "suite_cycle_components_switched",
                 "suite_odd_rank_non_orientable", "suite_round_trips",
                 "suite_wedge_reachability"):
        monkeypatch.setattr(verify, name, lambda *a, **k: None)
    monkeypatch.setattr(verify, "suite_closed_forms",
                        lambda: "simulated defect")
    assert cli.main(["verify"]) == 4
    out = capsys.readouterr().out
    assert "FAIL closed-form boundary cases: simulated defect" in out
    assert "7/8 suites passed" in out


# Planted defects: the suites share exact boundary tables, and each must
# still notice a wrong tracer, flip or component restriction on its own.

def _plant(monkeypatch, name, wrong):
    """Replace sch.<name> by a version that passes the real result
    through ``wrong``."""
    real = getattr(sch, name)
    monkeypatch.setattr(sch, name, lambda *a: wrong(real(*a), *a))


@pytest.mark.parametrize("suite", ["suite_tracer_vs_oracle",
                                   "suite_flip_invariance",
                                   "suite_strip_decomposition"])
def test_table_suites_catch_a_wrong_tracer(monkeypatch, suite):
    def one_more_on_odd_sign_sums(t, s):
        if sum(s.signs) % 2:
            return sch.BoundaryTrace(t.orbits, t.pairing, t.b + 1)
        return t
    _plant(monkeypatch, "boundary_trace", one_more_on_odd_sign_sums)
    assert getattr(verify, suite)() is not None


def test_flip_suite_catches_a_wrong_flip(monkeypatch):
    def toggle_edge_0_too(f, s, v):
        return sch.Scheme(f.graph, f.rotation, (1 - f.signs[0],) + f.signs[1:])
    _plant(monkeypatch, "vertex_flip", toggle_edge_0_too)
    assert verify.suite_flip_invariance() is not None


def test_oracle_suite_catches_a_wrong_oracle(monkeypatch):
    _plant(monkeypatch, "oracle_boundary_count",
           lambda b, s: b + sum(s.signs) % 2)
    assert "tracer/oracle mismatch" in verify.suite_tracer_vs_oracle()


@pytest.mark.parametrize("suite, detail", [
    ("suite_flip_invariance", "changed orientability"),
    ("suite_odd_rank_non_orientable", "orientable strip with odd rank")])
def test_suites_catch_an_orientability_wrong_on_edge_0(monkeypatch, suite,
                                                      detail):
    # wrong only on the tables with edge 0 switched: one per graph and
    # table is made, so the suites must still compare it across tables
    _plant(monkeypatch, "is_orientable",
           lambda orient, s: orient != (s.signs[0] == 1))
    assert detail in getattr(verify, suite)()


def test_wedge_walk_fails_on_an_unclassified_wedge(monkeypatch, capsys):
    real = rd.contract_unswitched

    def zero_wedge_signs(s, e):
        t = real(s, e)
        if t.graph.n_vertices > 1 or t.graph.n_edges != 3:
            return t
        return sch.Scheme(t.graph, t.rotation, (0, 0, 0))
    monkeypatch.setattr(rd, "contract_unswitched", zero_wedge_signs)
    reached, total = verify.wedge_classes_reached(3)
    assert reached == {None} and total == 2
    assert cli.main(["verify"]) == 4
    out = capsys.readouterr().out
    assert ("FAIL wedge reachability by contraction: q=3: contractions of "
            "strips reach a one-vertex scheme in no wedge class") in out


def _unanchored(t, v):
    rotation = list(t.rotation)
    rotation[v] = rotation[v][1:] + rotation[v][:1]
    return sch.Scheme(t.graph, tuple(rotation), t.signs)


def test_flip_suite_fails_on_an_unanchored_flip(monkeypatch):
    _plant(monkeypatch, "vertex_flip", lambda f, s, v: _unanchored(f, v))
    assert "not an enumerated scheme" in verify.suite_flip_invariance()


def test_decomposition_suite_fails_on_an_unanchored_restriction(monkeypatch):
    _plant(monkeypatch, "_subscheme",
           lambda t, s, part: _unanchored(t, 0))
    assert "not an enumerated scheme" in verify.suite_strip_decomposition()


def test_decomposition_suite_reads_a_foreign_graph_from_its_own_table(
        monkeypatch):
    # a restriction onto another graph than the part's (here with a loop
    # added at vertex 0) must be counted on that graph's own table, not
    # reported as missing from the part's
    def add_a_loop(t, s, part):
        g = t.graph
        rotation = (t.rotation[0] + (2 * g.n_edges, 2 * g.n_edges + 1),)
        return sch.Scheme(mg.build(g.n_vertices, g.edges + ((0, 0),)),
                          rotation + t.rotation[1:], t.signs + (0,))
    _plant(monkeypatch, "_subscheme", add_a_loop)
    assert "disagrees with component counts" in \
        verify.suite_strip_decomposition()


def test_decomposition_suite_catches_a_wrong_restriction(monkeypatch):
    def drop_first_switched(t, s, part):
        if 1 not in t.signs:
            return t
        signs = list(t.signs)
        signs[signs.index(1)] = 0
        return sch.Scheme(t.graph, t.rotation, tuple(signs))
    _plant(monkeypatch, "_subscheme", drop_first_switched)
    assert verify.suite_strip_decomposition() is not None


def test_non_utf8_input_exits_2(tmp_path, capsys):
    p = tmp_path / "bom16.txt"
    p.write_bytes(b"\xff\xfeg\x00r\x00a\x00p\x00h\x00")
    assert cli.main(["trace", "--input", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("clstruct: error: line 1: not UTF-8 text")
    p.write_bytes(THETA.encode().replace(b"vertex 1", b"vertex \xe9"))
    assert cli.main(["structures", "--input", str(p)]) == 2
    assert "line 3: not UTF-8 text" in capsys.readouterr().err


ODD_NAME = 'a<b&"\\'


def test_render_svg_escapes_the_name(tmp_path, capsys):
    p = tmp_path / "odd.txt"
    p.write_text(THETA.replace("graph theta", f"graph {ODD_NAME}"))
    assert cli.main(["render", "--input", str(p), "--format", "svg"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    titles = [t.text for t in root.iter() if t.tag.endswith("title")]
    assert titles == [ODD_NAME]


def test_render_svg_of_theta_is_pinned(theta_file, capsys):
    assert cli.main(["render", "--input", theta_file, "--format",
                     "svg"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "4388ff53adf4d58ccb8241197f9b168484b41bc4993e93451460afb45e8421db"


# THETA with edge 1 written from vertex 1 to vertex 0
THETA_REVERSED = (THETA.replace("edge 1 0 1", "edge 1 1 0")
                  .replace("rotation 0 0.0 1.0", "rotation 0 0.0 1.1")
                  .replace("rotation 1 0.1 1.1", "rotation 1 0.1 1.0"))


def _svg_marks(path, capsys):
    """(x, y, mark) of each edge's label in the SVG of a scheme file."""
    assert cli.main(["render", "--input", path, "--format", "svg"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    return [(t.get("x"), t.get("y"), t.text) for t in root.iter()
            if t.tag.endswith("text") and t.text in ("x", "=")]


def test_render_svg_draws_reversed_parallel_edges_apart(tmp_path, capsys,
                                                        theta_file):
    p = tmp_path / "reversed.txt"
    p.write_text(THETA_REVERSED)
    marks = _svg_marks(str(p), capsys)
    assert len({(x, y) for x, y, _mark in marks}) == 3
    # the edge written the other way round keeps its place in the picture
    assert marks == _svg_marks(theta_file, capsys)


def test_render_svg_keeps_a_printable_non_ascii_name(tmp_path, capsys):
    p = tmp_path / "name.txt"
    p.write_text(THETA.replace("graph theta", "graph \u00e9"),
                 encoding="utf-8")
    assert cli.main(["render", "--input", str(p), "--format", "svg"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    titles = [t.text for t in root.iter() if t.tag.endswith("title")]
    assert titles == ["\u00e9"]


@pytest.mark.parametrize("argv", [
    ["trace"], ["render", "--format", "svg"], ["structures"]],
    ids=["trace", "render-svg", "structures"])
def test_names_xml_cannot_carry_exit_2(tmp_path, capsys, argv):
    p = tmp_path / "ctl.txt"
    p.write_text(THETA.replace("graph theta", "graph a\x01b"))
    assert cli.main(argv[:1] + ["--input", str(p)] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("clstruct: error: line 1: ")


def test_render_dot_quotes_the_name(tmp_path, capsys):
    p = tmp_path / "odd.txt"
    p.write_text(THETA.replace("graph theta", f"graph {ODD_NAME}"))
    assert cli.main(["render", "--input", str(p), "--format", "dot"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    # a quoted id: backslash escapes the next character, '"' ends it
    match = re.fullmatch(r'graph "((?:[^"\\]|\\.)*)" \{', first)
    assert match is not None
    assert re.sub(r"\\(.)", r"\1", match.group(1)) == ODD_NAME


def test_plain_names_render_unchanged(theta_file, capsys):
    assert cli.main(["render", "--input", theta_file, "--format",
                     "svg"]) == 0
    assert "  <title>theta</title>\n" in capsys.readouterr().out
    assert cli.main(["render", "--input", theta_file, "--format",
                     "dot"]) == 0
    assert capsys.readouterr().out.startswith('graph "theta" {\n')


@pytest.mark.parametrize("argv", [
    ["--threads", "0"], ["--threads", "-2"], ["--budget", "-1"],
    ["--threads", "one"]])
def test_structures_rejects_bad_counts(argv, capsys):
    assert cli.main(["structures", "--q", "2"] + argv) == 1
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("text, digest", [
    (HUB, "342685ac47fe4f1695185eb77f4ae51eb7c84ea1ff256fd10f5269c466ab8de4"),
    (WEDGE3_GRAPH,
     "518baa3681d7591abb5857e56b549b4099b7c8d0d98daf09be535116a810058d"),
    (LOOPS3,
     "0edb7fcc8bbce6e2e275f84b086ad8f2e269179e89f71b2c474a07257e9c5dc2"),
], ids=["hub", "wedge3", "loops3"])
def test_non_cubic_structures_json_is_pinned(tmp_path, capsys, text, digest):
    p = tmp_path / "graph.txt"
    p.write_text(text)
    assert cli.main(["structures", "--input", str(p), "--format",
                     "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


POINT_TEXT = ("q = 0: 1 cubic graphs, 1 structure classes\n"
              "graph 0: V=1 edges \n"
              "  class 0: representative ; members ; sphere\n")

POINT_JSON = """\
{
  "graphs": [
    {
      "canonical_edges": [],
      "classes": [
        {
          "members": [
            []
          ],
          "representative_signs": [],
          "surface": {
            "euler_closed": 2,
            "genus_or_crosscaps": 0,
            "orientable": true
          },
          "witness_rotation": [
            []
          ]
        }
      ]
    }
  ],
  "q": 0,
  "totals": 1
}
"""


@pytest.mark.parametrize("argv, digest", [
    (["graphs", "--q", "3"],
     "b1f5b32b39ab2f9ed0b5b6d06974de7eeca6a6c5c2711eea7290a1a2763cd50c"),
    (["graphs", "--q", "5"],
     "eb22aafedf31bbd721bca046f70e2b4aac136b9a22e92f224ef2e0d693002f01"),
    (["trace", "--input", "theta_file"],
     "32051349a044577a6e989b96c6013826e7b1100e19737c474e685b64b84e1376"),
    (["trace", "--input", "wedge_file"],
     "9786c0c6f5eeb792aca37b4f6a1ae70f4e4e2598897ca553a6ec50d033be76e8"),
    (["reduce", "--input", "theta_file"],
     "c63a0ce7c311bc2065e4ed7dd018985e78fced3178e2cd1f1097682372131b59"),
    (["reduce", "--input", "wedge_file"],
     "2706b3e8a532e899b70da590594698af1acd84fc8a0647b66ef753cf05a1593e"),
    (["expand", "--input", "wedge_file", "--vertex", "0", "--shape",
      "balanced"],
     "5532b530012d803a162d38d55fa7cfbff8a880d4a130f5913b381c1008e92261"),
    (["render", "--input", "theta_file"],
     "91c7e08bfe428907e98631423c21c4191c6dff59cca927c4dcf6a4540985eac1"),
    (["render", "--input", "wedge_file"],
     "d0f19ca779a1aaa73d0c00654abf7a11e46de224e4935846db7eb9d8d4ebe8da"),
], ids=["graphs-q3", "graphs-q5", "trace-theta", "trace-wedge",
        "reduce-theta", "reduce-wedge", "expand-wedge", "render-theta",
        "render-wedge"])
def test_verb_json_is_pinned(request, capsys, argv, digest):
    # each fixture name in argv stands for the path of its scheme file
    argv = [request.getfixturevalue(a) if a.endswith("_file") else a
            for a in argv]
    assert cli.main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fmt, expected", [("text", POINT_TEXT),
                                           ("json", POINT_JSON)],
                         ids=["text", "json"])
def test_point_graph_structures_are_pinned(tmp_path, capsys, fmt, expected):
    # no edges: its one table has width 0, and format(0, "00b") is "0"
    p = tmp_path / "pt.txt"
    p.write_text("graph pt\nvertex 0\n")
    assert cli.main(["structures", "--input", str(p), "--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_non_cubic_witness_walk_is_budgeted(tmp_path, capsys):
    # every walk runs on a component: hub's have 3! * 2^2 = 24 schemes
    p = tmp_path / "hub.txt"
    p.write_text(HUB)
    assert cli.main(["structures", "--input", str(p), "--budget",
                     "23"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("clstruct: error: ")
    assert cli.main(["structures", "--input", str(p), "--budget", "24",
                     "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "342685ac47fe4f1695185eb77f4ae51eb7c84ea1ff256fd10f5269c466ab8de4"


def test_any_package_error_exits_2(monkeypatch, capsys):
    def fail(args):
        raise ClstructError("no such thing")
    monkeypatch.setattr(cli, "_cmd_graphs", fail)
    assert cli.main(["graphs", "--q", "2"]) == 2
    assert capsys.readouterr().err == "clstruct: error: no such thing\n"


def test_structures_accepts_zero_budget(capsys):
    # zero is a valid budget; it is exceeded, which is exit 3
    assert cli.main(["structures", "--q", "2", "--budget", "0"]) == 3


def test_closed_stdout_ends_quietly():
    # `clstruct graphs --q 5 | head -n 1`: the reader leaves after one
    # line.  A pipe of one page is smaller than the output, so the
    # program is still writing when the pipe closes.
    fcntl = pytest.importorskip("fcntl")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "clstruct", "graphs", "--q", "5"],
        stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    first = b""
    while not first.endswith(b"\n"):
        chunk = os.read(r, 1)
        assert chunk, "no complete first line"
        first += chunk
    os.close(r)
    _out, err = proc.communicate(timeout=60)
    assert first == b"71 cubic multigraphs with q = 5\n"
    assert err == b""
    assert proc.returncode == 0


def _run_fresh(*args):
    """Run python with args in a fresh process on this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, timeout=60,
                          capture_output=True, text=True, check=True)


def _cli_import_loads():
    """The modules ``import clstruct.cli`` adds in a fresh process."""
    # every CLI call pays this import; pytest itself loads dataclasses
    # and concurrent.futures, so only a fresh process can see what the
    # import adds
    code = ("import sys; before = set(sys.modules); import clstruct.cli; "
            "print(*sorted(set(sys.modules) - before))")
    loaded = _run_fresh("-c", code).stdout.split()
    assert "clstruct.cli" in loaded
    return loaded


def test_cli_import_loads_no_dataclasses_and_no_verify():
    loaded = _cli_import_loads()
    for name in ("dataclasses", "inspect", "clstruct.verify",
                 "clstruct.classify"):
        assert name not in loaded


def test_cli_import_loads_no_thread_pool():
    loaded = _cli_import_loads()
    for name in ("concurrent.futures", "logging", "traceback"):
        assert name not in loaded
    # the benchmark tracer still reads the name, through the hook
    assert cf.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
    with pytest.raises(AttributeError, match="no_such_name"):
        cf.no_such_name


def test_verify_verb_imports_its_suites():
    out = _run_fresh("-m", "clstruct", "verify", "--seed", "1").stdout
    assert out.splitlines()[-1] == "8/8 suites passed"


def test_classifying_verbs_import_the_classifier():
    # the CLI module no longer loads clstruct.classify: graphs and
    # structures import it in their handlers
    out = _run_fresh("-m", "clstruct", "graphs", "--q", "3").stdout
    assert out.splitlines()[0] == "5 cubic multigraphs with q = 3"
    out = _run_fresh("-m", "clstruct", "structures", "--q", "2",
                     "--format", "json").stdout
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "2bff8aeca20ec1b68def0e8a58973c603ab082badb7bbc4601318629fb812f71"


def test_eleven_loop_wedge_exits_3_in_bounded_memory(tmp_path):
    # 21! * 2^11 schemes on its one component.  The budget check comes
    # before the automorphisms, which would list 11! edge permutations
    # (several GB): under a 512 MB address-space limit the run must
    # still end with exit 3 and the budget line.
    resource = pytest.importorskip("resource")
    p = tmp_path / "wedge11.txt"
    p.write_text(mg.format_graph("wedge11", mg.build(1, [(0, 0)] * 11)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "clstruct", "structures", "--input", str(p)],
        capture_output=True, env=env, preexec_fn=limit, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == (
        b"clstruct: error: 104634249567660933120000 schemes on a component"
        b" exceed the budget 10000000\n")


def test_five_loop_wedge_is_budgeted_and_pinned(tmp_path, capsys):
    # 9! * 2^5 = 11,612,160 schemes on its one component, over the
    # default budget
    p = tmp_path / "wedge5.txt"
    p.write_text(WEDGE5_GRAPH)
    assert cli.main(["structures", "--input", str(p)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("clstruct: error: 11612160 schemes on a component "
                   "exceed the budget 10000000\n")
    assert cli.main(["structures", "--input", str(p), "--budget",
                     "12000000", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "0e45e30f271f7bf14e813598e1d710d592b6386d859f9cc75b3a873fd2bbc2c9"


@pytest.mark.parametrize("verb, what", [("structures", "classification"),
                                        ("reduce", "reduction")])
def test_a_path_exits_2_naming_its_degree_1_vertex(tmp_path, capsys, verb,
                                                   what):
    p = tmp_path / "path.txt"
    p.write_text(PATH)
    assert cli.main([verb, "--input", str(p)]) == 2
    assert capsys.readouterr() == ("", (
        f"clstruct: error: {what} needs the cyclic part: vertex 0 has "
        f"degree 1\n"))


# Edits of the corpus files: a token is replaced by one of these.
_TOKENS = ("0", "1", "2", "5", "-1", "0.0", "0.1", "1.1", "2.0", "x",
           "vertex", "sign", "edge", "")


def _mutant(rng, text):
    """text after one to three seeded line or token edits."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[rng.randrange(len(words))] = rng.choice(_TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def test_outputs_on_a_seeded_corpus_are_pinned(tmp_path, capsys):
    # every verb/format pair on the theta and hub schemes and 200 seeded
    # edits of them, plus the verbs that read no file.  Usage errors
    # stay out: argparse words them differently across Python versions.
    rng = random.Random(0)
    texts = [THETA, HUB_SCHEME] + [_mutant(rng, (THETA, HUB_SCHEME)[i % 2])
                                   for i in range(200)]
    calls = [[verb, "--q", "3", "--format", fmt]
             for verb in ("graphs", "structures") for fmt in ("text", "json")]
    calls.append(["verify", "--seed", "0"])
    pairs = [("structures", "text"), ("structures", "json"),
             ("trace", "text"), ("trace", "json"), ("reduce", "text"),
             ("reduce", "json"), ("expand", "text"), ("expand", "json"),
             ("render", "text"), ("render", "json"), ("render", "dot"),
             ("render", "svg")]
    for i, text in enumerate(texts):
        p = tmp_path / f"s{i}.txt"
        p.write_text(text, encoding="utf-8")
        for verb, fmt in pairs:
            vertex = ["--vertex", "0"] if verb == "expand" else []
            calls.append([verb, "--input", str(p), "--format", fmt, *vertex])
    digest = hashlib.sha256()
    for argv in calls:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        digest.update(repr((code, out, err.replace(str(tmp_path), "<tmp>")))
                      .encode("utf-8"))
    assert digest.hexdigest() == \
        "0d27647f45e63b703e51134a752fbdb71fb52f5f96905cbe702e03b66dd07dc5"
