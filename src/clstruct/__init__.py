"""Cut-locus structures on finite multigraphs.

A *scheme* pairs a connected multigraph with a rotation system (a cyclic
order of darts around every vertex) and a sign per edge marking whether
its band is glued with a half twist.  Thickening vertices to disks and
edges to bands yields a compact surface whose boundary circles the
tracer counts; a scheme on a graph with no degree-one vertices whose
surface has exactly one boundary circle is a *strip*, the combinatorial
form of a cut-locus structure.

The package enumerates and classifies strips on small cubic graphs,
decides realizability of sign assignments, reduces high-degree vertices
to cubic trees and back, and renders schemes.  See the ``clstruct``
command for the CLI.
"""
from . import errors
from .classify import (Catalog, StructureClass, catalog, catalog_to_json,
                       catalog_to_text, enumerate_schemes,
                       equivalence_classes, generate_cubic_graphs,
                       realizable_signs, scheme_count)
from .multigraph import (Component, Decomposition, Multigraph,
                         automorphisms, bridges_and_components, build,
                         canonical_form, cycle_rank, cyclic_part,
                         format_graph, is_cyclic_part, isomorphic,
                         parse_graph)
from .reduce import (ReductionStep, contract_unswitched, expand_vertex,
                     high_degree_count, reduce_to_cubic)
from .scheme import (BoundaryTrace, Scheme, SurfaceType, boundary_trace,
                     component_subscheme, dart_name, format_scheme,
                     is_orientable, is_strip, make_scheme,
                     oracle_boundary_count, parse_scheme, surface_type,
                     switched_edges, vertex_flip)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Multigraph", "Component", "Decomposition", "build", "cycle_rank",
    "bridges_and_components", "cyclic_part", "is_cyclic_part",
    "canonical_form", "isomorphic",
    "automorphisms", "parse_graph", "format_graph",
    "Scheme", "BoundaryTrace", "SurfaceType", "make_scheme",
    "boundary_trace", "oracle_boundary_count", "is_strip",
    "switched_edges", "vertex_flip", "is_orientable", "surface_type",
    "component_subscheme", "parse_scheme", "format_scheme", "dart_name",
    "Catalog", "StructureClass", "generate_cubic_graphs", "scheme_count",
    "enumerate_schemes", "realizable_signs", "equivalence_classes",
    "catalog", "catalog_to_json", "catalog_to_text",
    "ReductionStep", "contract_unswitched", "expand_vertex",
    "reduce_to_cubic", "high_degree_count",
    "__version__",
]
