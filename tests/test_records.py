"""The ten records of the library (multigraphs, schemes, traces, surfaces,
reduction steps, classes, catalogs and the decomposition pieces): their
fields, immutability, equality, hash, slots and repr."""
import pytest

from clstruct import classify as cf
from clstruct import multigraph as mg
from clstruct import reduce as rd
from clstruct import scheme as sch


def _theta():
    return mg.build(2, [(0, 1)] * 3)


def _theta_torus():
    return sch.make_scheme(_theta(), [(0, 2, 4), (1, 3, 5)], [0, 0, 0])


def _dumbbell():
    return mg.build(2, [(0, 0), (0, 1), (1, 1)])


def _expand_step():
    wedge = mg.build(1, [(0, 0), (0, 0)])
    _result, steps = rd.reduce_to_cubic(
        sch.make_scheme(wedge, [(0, 1, 2, 3)], [0, 0]))
    return steps[0]


# each factory builds its record from scratch, so two calls give two
# records with equal fields
RECORDS = {
    mg.Multigraph: (_theta, ("n_vertices", "edges")),
    mg.Component: (lambda: mg.bridges_and_components(_dumbbell())
                   .components[0], ("edges", "vertices")),
    mg.Decomposition: (lambda: mg.bridges_and_components(_dumbbell()),
                       ("bridges", "components")),
    mg.CyclicPart: (lambda: mg.cyclic_part(
        mg.build(3, [(0, 1), (1, 1), (1, 2)])),
        ("graph", "vertex_map", "edge_map")),
    sch.Scheme: (_theta_torus, ("graph", "rotation", "signs")),
    sch.BoundaryTrace: (lambda: sch.boundary_trace(_theta_torus()),
                        ("orbits", "pairing", "b")),
    sch.SurfaceType: (lambda: sch.surface_type(_theta_torus()),
                      ("euler_patch", "boundary", "orientable",
                       "euler_closed", "genus", "crosscaps")),
    rd.ReductionStep: (_expand_step, ("kind", "vertex", "edge",
                                      "new_vertices", "new_edges",
                                      "dart_map")),
    cf.StructureClass: (lambda: cf.equivalence_classes(_theta())[0],
                        ("graph", "tables", "witness", "surface")),
    cf.Catalog: (lambda: cf.catalog(2), ("q", "graphs", "classes", "total")),
}

each_record = pytest.mark.parametrize(
    "kind", list(RECORDS), ids=[k.__name__ for k in RECORDS])


@each_record
def test_fields_keep_their_names_and_order(kind):
    make, fields = RECORDS[kind]
    record = make()
    assert type(record) is kind
    assert kind._fields == fields


@each_record
def test_assigning_a_field_raises(kind):
    make, fields = RECORDS[kind]
    record = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@each_record
def test_equal_fields_give_equal_records_and_hashes(kind):
    make, _fields = RECORDS[kind]
    a, b = make(), make()
    assert a is not b
    assert a == b
    if kind is mg.CyclicPart:
        # its id maps are dicts, so it has no hash, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@each_record
def test_records_have_no_instance_dict(kind):
    make, _fields = RECORDS[kind]
    assert not hasattr(make(), "__dict__")


@each_record
def test_records_are_tuples_of_their_fields(kind):
    # the tuple semantics the records gained: they iterate, unpack and
    # equal the plain tuple of their fields
    make, fields = RECORDS[kind]
    record = make()
    assert isinstance(record, tuple)
    assert tuple(record) == tuple(getattr(record, f) for f in fields)
    assert record == tuple(record)


def test_reprs_are_unchanged():
    assert repr(mg.build(2, [(0, 1)] * 3)) == \
        "Multigraph(n_vertices=2, edges=((0, 1), (0, 1), (0, 1)))"
    assert repr(sch.surface_type(_theta_torus())) == \
        ("SurfaceType(euler_patch=-1, boundary=1, orientable=True, "
         "euler_closed=0, genus=1, crosscaps=None)")
