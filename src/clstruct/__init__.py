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

Import each name from its module: ``clstruct.multigraph``,
``clstruct.scheme``, ``clstruct.classify``, ``clstruct.reduce`` and
``clstruct.errors``.  The package itself loads none of them, so a CLI
call loads only the modules its verb uses.
"""
__version__ = "0.1.0"
