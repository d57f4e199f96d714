"""The four workloads: their inputs, their CLI calls and output checks.

A job is the fixed list of ``clstruct`` calls one workload makes; a run
repeats the job.  ``prepare`` uses the standard library only, so
run.py can write inputs without importing the program.  ``check`` runs
in the worker after timing and uses the program's independent boundary
oracle.
"""
import hashlib
import json
import os

import gen

WORKLOADS = ("census_q4", "classify_q5", "verify_default", "scheme_verbs")
SCHEME_FILES = 800
CLASSIFY_THREADS = 2

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def prepare(name, seed, workdir):
    """Write the inputs of one workload; returns the job spec."""
    if name == "census_q4":
        ops = [["structures", "--q", "4", "--format", "json"]]
        return {"ops": ops}
    if name == "verify_default":
        ops = [["verify", "--level", "default", "--seed", str(seed)]]
        return {"ops": ops}
    if name == "classify_q5":
        ops, labels = [], []
        for label, text in gen.classify_graphs(seed):
            path = os.path.join(workdir, f"{label}.graph")
            _write(path, text)
            ops.append(["structures", "--input", path, "--format", "json",
                        "--threads", str(CLASSIFY_THREADS)])
            labels.append(label)
        return {"ops": ops, "labels": labels}
    if name == "scheme_verbs":
        ops = []
        for stem, text in gen.scheme_files(seed, SCHEME_FILES):
            path = os.path.join(workdir, f"{stem}.scheme")
            _write(path, text)
            ops += [["trace", "--input", path, "--format", "json"],
                    ["reduce", "--input", path, "--format", "json"],
                    ["render", "--input", path, "--format", "svg"]]
        return {"ops": ops}
    raise ValueError(f"unknown workload {name!r}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- output checks (run in the worker, clstruct importable) ---

def _strip_classes_ok(doc, sch, mg):
    """Every class's representative with its witness rotation must give
    exactly one boundary circle by the polygon-gluing oracle."""
    for graph in doc["graphs"]:
        edges = [tuple(e) for e in graph["canonical_edges"]]
        n = 1 + max(v for e in edges for v in e)
        g = mg.build(n, edges)
        for c in graph["classes"]:
            rotation = [[2 * int(e) + int(s) for e, s in
                         (d.split(".") for d in cyc)]
                        for cyc in c["witness_rotation"]]
            s = sch.make_scheme(g, rotation, c["representative_signs"])
            if sch.oracle_boundary_count(s) != 1:
                return False
    return True


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check(name, spec, i, rc, out):
    """True when the output of call i of a job is correct."""
    from clstruct import multigraph as mg
    from clstruct import scheme as sch
    if rc != 0:
        return False
    if name == "verify_default":
        return "8/8 suites passed" in out.splitlines()
    if name in ("census_q4", "classify_q5"):
        doc = json.loads(out)
        exp = EXPECTED[name]
        if name == "census_q4":
            counts = (sha256(out) == exp["stdout_sha256"]
                      and len(doc["graphs"]) == exp["graphs"]
                      and doc["totals"] == exp["classes"])
        else:
            label = spec["labels"][i]
            counts = (sha256(out) == exp["stdout_sha256"][label]
                      and len(doc["graphs"]) == 1 and doc["q"] == 5
                      and doc["totals"] == exp["classes"][label])
        return (counts and doc["totals"] == sum(
            len(g["classes"]) for g in doc["graphs"])
            and _strip_classes_ok(doc, sch, mg))
    # scheme_verbs: ops come in (trace, reduce, render) triples per file.
    path = spec["ops"][i][2]
    _name, s = sch.parse_scheme(_read(path))
    verb = spec["ops"][i][0]
    if verb == "trace":
        return json.loads(out)["boundary_circles"] == \
            sch.oracle_boundary_count(s)
    if verb == "reduce":
        _n, r = sch.parse_scheme(json.loads(out)["scheme"]["text"])
        return (max(r.graph.degrees()) <= 3 and
                sch.oracle_boundary_count(r) == sch.oracle_boundary_count(s))
    return out.count('fill="white"') == s.graph.n_vertices
