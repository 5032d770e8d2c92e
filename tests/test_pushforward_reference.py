"""The integer pushforward of `rigidlift.orcyc` against the rational
reference model of `rigidlift.homology`: every Jacobian map must equal the
iota -> pushforward_cochain -> iota-inverse formula it replaced."""

from functools import lru_cache
from pathlib import Path

from helpers import enumerate_small_graphs, fresh_interpreter, sample_morphisms
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidlift
from rigidlift.divisor import Divisor, DivisorClass, vertex_divisor
from rigidlift.homology import (
    Cochain,
    h_edge,
    iota,
    iota_inverse,
    lattice_for,
    p_vertex,
    pushforward_cochain,
)
from rigidlift.orcyc import (
    diagram_defect,
    is_rigid,
    lift_to_graph_isomorphism,
    lowering_divisor,
    pushforward_class,
    pushforward_orientation,
    rigidity_divisor,
)
from rigidlift.orientation import (
    EdgeState,
    PartialOrientation,
    base_orientation,
    chern_class,
)


@lru_cache(maxsize=None)
def morphisms():
    return tuple(sample_morphisms(enumerate_small_graphs(5, 8, 2), 400))


# -- the rational reference formulas ----------------------------------------


def reference_pushforward_class(m, cls):
    x, k = iota(m.source, cls.representative)
    return DivisorClass(m.target, iota_inverse(m.target, pushforward_cochain(m, x), k))


def reference_rigidity_divisor(m):
    g, h = m.source, m.target
    xg, _ = iota(g, chern_class(base_orientation(g)))
    xh, _ = iota(h, chern_class(base_orientation(h)))
    defect = pushforward_cochain(m, xg) - xh
    for e, sgn in m.signs:
        if sgn == -1:
            defect = defect + h_edge(lattice_for(h), m.map_edge(e))
    return DivisorClass(h, iota_inverse(h, defect, 0))


def reference_diagram_defect(m, u):
    g, h = m.source, m.target
    xg, _ = iota(g, chern_class(u))
    xh, _ = iota(h, chern_class(pushforward_orientation(m, u)))
    return DivisorClass(h, iota_inverse(h, pushforward_cochain(m, xg) - xh, 0))


def reference_lowering_divisor(m, edge_set):
    g, h = m.source, m.target
    total = Cochain(h)
    for e in edge_set:
        total = total + p_vertex(h, h.t(m.map_edge(e))) - pushforward_cochain(
            m, p_vertex(g, g.t(e))
        )
    return DivisorClass(h, iota_inverse(h, lattice_for(h).project(total), 0))


def reference_locate(m, p):
    """Every target vertex r with phi_*(P_p) equivalent to P_r."""
    g, h = m.source, m.target
    pushed = lattice_for(h).project(pushforward_cochain(m, p_vertex(g, p)))
    cls = DivisorClass(h, iota_inverse(h, pushed, 0))
    t0 = vertex_divisor(h, h.base_head)
    return [r for r in h.vertex_ids if DivisorClass(h, vertex_divisor(h, r) - t0) == cls]


# -- strategies ----------------------------------------------------------------


@st.composite
def morphism_cases(draw):
    m = draw(st.sampled_from(morphisms()))
    g = m.source
    coeffs = {v: draw(st.integers(-3, 3)) for v in g.vertex_ids}
    coeffs[g.base_head] -= sum(coeffs.values())
    states = {
        e: draw(st.sampled_from([EdgeState.FORWARD, EdgeState.BACKWARD, EdgeState.UNORIENTED]))
        for e in g.edge_ids
    }
    edge_set = draw(st.sets(st.sampled_from(g.edge_ids)))
    return m, DivisorClass(g, Divisor(g, coeffs)), PartialOrientation(g, states), edge_set


# -- the differential test -----------------------------------------------------


def test_sample_has_rigid_and_non_rigid_morphisms():
    assert len(morphisms()) == 400
    assert {is_rigid(m) for m in morphisms()} == {True, False}


@settings(max_examples=300, deadline=None)
@given(case=morphism_cases())
def test_integer_pushforward_equals_rational_reference(case):
    m, cls, u, edge_set = case
    assert cls.degree == 0
    assert pushforward_class(m, cls) == reference_pushforward_class(m, cls)
    assert rigidity_divisor(m) == reference_rigidity_divisor(m)
    assert diagram_defect(m, u) == reference_diagram_defect(m, u)
    assert lowering_divisor(m, edge_set) == reference_lowering_divisor(m, edge_set)


@settings(max_examples=100, deadline=None)
@given(m=st.deferred(lambda: st.sampled_from([m for m in morphisms() if is_rigid(m)])))
def test_lift_vertex_map_equals_rational_locate(m):
    _, vertex_map = lift_to_graph_isomorphism(m)
    for p, r in vertex_map.items():
        assert reference_locate(m, p) == [r]


# -- the import boundary -------------------------------------------------------


def test_production_imports_neither_homology_nor_fractions():
    """`import rigidlift.cli` loads no module that only some subcommands run
    (orientation, orcyc), nor the reference model, nor `dataclasses` (which
    pulls in inspect and ast) or `fractions`."""
    code = (
        "import sys, rigidlift, rigidlift.cli; "
        "print(sorted(m for m in ('dataclasses', 'fractions', 'rigidlift.homology', "
        "'rigidlift.orcyc', 'rigidlift.orientation') if m in sys.modules))"
    )
    assert fresh_interpreter(code) == "[]"


def test_divisor_theta_run_loads_only_the_divisor_layer():
    """`rigidlift divisor K theta`, run as `python -m rigidlift.cli` does,
    loads the package and the four modules every command loads a graph
    through, and no other rigidlift module."""
    code = (
        "import contextlib, io, runpy, sys\n"
        "sys.argv = ['rigidlift', '--no-timings', 'divisor', sys.argv[1], 'theta']\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    try:\n"
        "        runpy.run_module('rigidlift.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        "assert '\"count\": 9' in out.getvalue(), out.getvalue()\n"
        "print(sorted(m for m in sys.modules if m.startswith('rigidlift')))"
    )
    graph = Path(rigidlift.__file__).resolve().parent / "fixtures" / "K.graph"
    loaded = fresh_interpreter(code, str(graph))
    assert loaded == str(
        ["rigidlift", "rigidlift.divisor", "rigidlift.errors", "rigidlift.graphio", "rigidlift.multigraph"]
    )
