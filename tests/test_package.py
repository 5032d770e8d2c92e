"""The lazy package namespace and the library's record types.

`rigidlift/__init__.py` resolves its exported names on first access
(PEP 562), and the records are `typing.NamedTuple` classes, or a plain
class for `OrCycMorphism`, so that importing the package pulls in neither
every module nor `dataclasses`."""

import sys

import pytest
from helpers import fresh_interpreter

import rigidlift
from rigidlift.divisor import Divisor
from rigidlift.graphio import fixture_path, load_morphism
from rigidlift.multigraph import Arch, EdgePath
from rigidlift.orcyc import MatroidLift, NotLiftable, make_morphism
from rigidlift.orientation import (
    AcyclicWitness,
    MoveKind,
    NotPartiallyOrientable,
    OrientationMove,
    SourcelessWitness,
    base_orientation,
)

EXPORTED = [
    "AcyclicWitness", "Arch", "Classification", "Divisor", "DivisorClass", "EdgePath",
    "EdgeState", "MatroidLift", "Multigraph", "NotLiftable", "NotPartiallyOrientable",
    "OrCycMorphism", "OrientationMove", "PartialOrientation", "RigidliftError",
    "SourcelessWitness", "abel_jacobi", "apply_move", "base_orientation", "build_graph",
    "canonical_divisor", "chern_class", "classify_gminus1", "compose", "compute_signs",
    "connectivity_profile", "cut_reversal", "cycle_reversal", "cycle_through_edges",
    "diagram_defect", "dual_orientation", "edge_slide", "effectiveness_certificate",
    "enumerate_picard", "extend_to_nonspecial", "find_arches", "format_divisor",
    "format_orientation", "fundamental_cycles", "identity_morphism", "in_theta",
    "inverse_morphism", "is_acyclic", "is_effective_class", "is_rigid", "is_sourceless",
    "laplacian_fire", "lift_divisor_to_orientation", "lift_matroid_isomorphism",
    "lift_to_graph_isomorphism", "linearly_equivalent", "load_fixture", "load_graph",
    "load_morphism", "lowering_divisor", "make_morphism", "nonrigidity_witness",
    "parse_divisor", "parse_graph", "parse_orientation", "pushforward_class",
    "pushforward_orientation", "q_reduce", "rigidity_divisor", "s1_image_preserved",
    "series_classes", "spanning_tree_count", "theta_divisor", "theta_preserved",
    "torsor_act", "validate_cyclic_bijection", "whitney_move",
]


# -- the namespace -------------------------------------------------------------


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 72
    assert sorted(rigidlift.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(rigidlift))
    assert rigidlift.__version__ == "0.1.0"


def test_each_name_is_the_object_of_its_defining_module():
    for name in EXPORTED:
        obj = getattr(rigidlift, name)
        assert obj.__module__.startswith("rigidlift."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from rigidlift import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED
    assert namespace["make_morphism"] is make_morphism


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rigidlift.no_such_name
    assert not hasattr(rigidlift, "homology_model")


def test_bare_import_loads_no_submodule_until_asked():
    code = (
        "import sys, rigidlift\n"
        "before = sorted(m for m in sys.modules if m.startswith('rigidlift'))\n"
        "orcyc = rigidlift.orcyc\n"
        "assert orcyc is sys.modules['rigidlift.orcyc']\n"
        "assert rigidlift.make_morphism is orcyc.make_morphism\n"
        "print(before, orcyc.__name__)"
    )
    assert fresh_interpreter(code) == "['rigidlift'] rigidlift.orcyc"


# -- the records ---------------------------------------------------------------


@pytest.mark.parametrize(
    "record, fields, defaults",
    [
        (EdgePath, ("edges", "signs", "vertices"), {}),
        (Arch, ("edges", "tips", "complement"), {}),
        (OrientationMove, ("kind", "edges", "slide"), {"edges": frozenset(), "slide": ()}),
        (
            NotPartiallyOrientable,
            ("test_divisor", "reduced_form", "class_orientable"),
            {"class_orientable": False},
        ),
        (SourcelessWitness, ("orientation", "effective_divisor"), {}),
        (AcyclicWitness, ("orientation", "dominated_divisor"), {}),
        (MatroidLift, ("edge_map", "vertex_map", "base_edge", "rigid_candidate", "tried"), {}),
        (NotLiftable, ("base_edge", "tried"), {}),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_record_fields_defaults_and_immutability(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    instance = record(*range(len(fields) - len(defaults)))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(instance, field, None)


def test_records_of_one_shape_are_told_apart_by_type_only(K):
    """NamedTuples compare as tuples, so an acyclic and a sourceless witness
    with the same fields are equal; callers dispatch with `isinstance`."""
    o, d = base_orientation(K), Divisor(K, {"w3": 1})
    acyclic, sourceless = AcyclicWitness(o, d), SourcelessWitness(o, d)
    assert acyclic == sourceless
    assert isinstance(acyclic, AcyclicWitness) and not isinstance(sourceless, AcyclicWitness)
    assert not isinstance(NotLiftable("e1", ("e1",)), MatroidLift)
    assert OrientationMove(MoveKind.CYCLE_REVERSAL).edges == frozenset()
    path = EdgePath.walk("a", [("e1", 1, "b"), ("e2", -1, "a")])
    assert path.is_cycle and path.coefficients() == {"e1": 1, "e2": -1}


def test_morphisms_compare_and_hash_by_their_fields():
    g, h, edge_map = load_morphism(fixture_path("GH.morphism.json"))
    m1, m2 = make_morphism(g, h, edge_map), make_morphism(g, h, edge_map)
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    assert m1.sign_dict == m2.sign_dict  # cached properties still work
    assert len({m1, m2}) == 1
    swapped = dict(edge_map)
    swapped["e3"], swapped["e6"] = edge_map["e6"], edge_map["e3"]
    m3 = make_morphism(g, h, swapped)
    assert m3 != m1 and m1 != m3
    assert m1 != (m1.source, m1.target, m1.edge_map, m1.signs)
