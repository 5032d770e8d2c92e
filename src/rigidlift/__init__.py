"""rigidlift: divisors, partial orientations and rigidity of cyclic
bijections on multigraphs.

The package namespace is lazy (PEP 562): each exported name is imported
from its module on first access, so `python -m rigidlift.cli` loads only
the modules its subcommand runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("RigidliftError",)),
        ("multigraph", (
            "Arch", "EdgePath", "Multigraph", "build_graph", "connectivity_profile",
            "cycle_through_edges", "find_arches", "fundamental_cycles", "series_classes",
            "spanning_tree_count", "whitney_move",
        )),
        ("divisor", (
            "Classification", "Divisor", "DivisorClass", "abel_jacobi", "canonical_divisor",
            "classify_gminus1", "enumerate_picard", "in_theta", "is_effective_class",
            "laplacian_fire", "linearly_equivalent", "q_reduce", "theta_divisor",
        )),
        ("orientation", (
            "AcyclicWitness", "EdgeState", "NotPartiallyOrientable", "OrientationMove",
            "PartialOrientation", "SourcelessWitness", "apply_move", "base_orientation",
            "chern_class", "cut_reversal", "cycle_reversal", "dual_orientation", "edge_slide",
            "effectiveness_certificate", "extend_to_nonspecial", "is_acyclic", "is_sourceless",
            "lift_divisor_to_orientation", "torsor_act",
        )),
        ("orcyc", (
            "MatroidLift", "NotLiftable", "OrCycMorphism", "compose", "compute_signs",
            "diagram_defect", "identity_morphism", "inverse_morphism", "is_rigid",
            "lift_matroid_isomorphism", "lift_to_graph_isomorphism", "lowering_divisor",
            "make_morphism", "nonrigidity_witness", "pushforward_class",
            "pushforward_orientation", "rigidity_divisor", "s1_image_preserved",
            "theta_preserved", "validate_cyclic_bijection",
        )),
        ("graphio", (
            "format_divisor", "format_orientation", "load_fixture", "load_graph",
            "load_morphism", "parse_divisor", "parse_graph", "parse_orientation",
        )),
    )
    for name in names
}
_SUBMODULES = frozenset(
    ("cli", "divisor", "errors", "graphio", "homology", "multigraph", "orcyc", "orientation")
)

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
