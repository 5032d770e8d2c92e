"""Command-line interface: info, rigidity, lift-matroid, divisor, orient,
selftest.  All commands emit JSON with a top-level schema field; output is
deterministic for identical inputs when --no-timings is given."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import (
    EnumerationBoundExceeded,
    InvalidCyclicBijection,
    NoCommonCycle,
    NotBijection,
    NotTwoConnected,
    NotTwoEdgeConnected,
    ParseError,
    RigidliftError,
    ValidationError,
)
from .divisor import (
    DEFAULT_MAX_CLASSES,
    classify_gminus1,
    is_effective_class,
    q_reduce,
    theta_divisor,
)
from .graphio import (
    fixture_path,
    format_divisor,
    format_orientation,
    load_edge_map,
    load_graph,
    load_morphism,
    parse_divisor,
    parse_orientation,
)
from .multigraph import connectivity_profile, id_key, series_classes, spanning_tree_count

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _class_report(cls):
    return {
        "representative": format_divisor(cls.representative),
        "degree": cls.degree,
    }


def _sorted_map(d):
    return {str(k): v for k, v in sorted(d.items(), key=lambda kv: id_key(kv[0]))}


def cmd_info(args):
    g = load_graph(args.graph)
    two_conn, edge_conn = connectivity_profile(g)
    report = {
        "genus": g.genus,
        "vertices": list(g.vertex_ids),
        "edges": {e: list(g.ends(e)) for e in g.edge_ids},
        "base_edge": g.base_edge,
        "is_2_connected": two_conn,
        "edge_connectivity": edge_conn,
        "spanning_trees": spanning_tree_count(g),
    }
    if edge_conn >= 2:
        report["series_classes"] = [list(b) for b in series_classes(g)]
    return report, EXIT_OK


def cmd_rigidity(args):
    from .orcyc import lift_to_graph_isomorphism, make_morphism, nonrigidity_witness, rigidity_divisor

    g, h, edge_map = load_morphism(args.morphism)
    try:
        m = make_morphism(g, h, edge_map)
    except RigidliftError as exc:
        raise ValidationError(str(exc)) from exc
    rig = rigidity_divisor(m)
    rigid = rig.is_zero
    report = {
        "edge_map": _sorted_map(m.edge_dict),
        "signs": _sorted_map(m.sign_dict),
        "rigidity_divisor": _class_report(rig),
        "is_rigid": rigid,
    }
    if rigid:
        psi, vmap = lift_to_graph_isomorphism(m)
        report["lift"] = {
            "psi": _sorted_map(psi),
            "vertex_map": _sorted_map(vmap),
        }
    else:
        witness, image = nonrigidity_witness(m)
        report["witness"] = {
            "theta_element": _class_report(witness),
            "image": _class_report(image),
        }
    code = EXIT_OK
    if args.expect_rigid and not rigid:
        code = EXIT_DOMAIN
    return report, code


def cmd_lift_matroid(args):
    from .orcyc import MatroidLift, lift_matroid_isomorphism

    g = load_graph(args.graph_g)
    h = load_graph(args.graph_h)
    edge_map = load_edge_map(g, h, args.map_file)
    try:
        result = lift_matroid_isomorphism(g, h, edge_map)
    except (NotBijection, InvalidCyclicBijection, NoCommonCycle, NotTwoConnected, NotTwoEdgeConnected) as exc:
        raise ValidationError(str(exc)) from exc
    if isinstance(result, MatroidLift):
        report = {
            "liftable": True,
            "base_edge": result.base_edge,
            "rigid_candidate": result.rigid_candidate,
            "edge_map": _sorted_map(dict(result.edge_map)),
            "vertex_map": _sorted_map(dict(result.vertex_map)),
            "tried": list(result.tried),
        }
        return report, EXIT_OK
    report = {
        "liftable": False,
        "base_edge": result.base_edge,
        "tried": list(result.tried),
    }
    return report, EXIT_DOMAIN


def cmd_divisor(args):
    g = load_graph(args.graph)
    sub = args.subcommand
    if sub == "theta":
        theta = theta_divisor(g, max_classes=args.max_classes)
        classes = sorted(
            (_class_report(c) for c in theta), key=lambda r: r["representative"]
        )
        return {"theta": classes, "count": len(classes)}, EXIT_OK
    if args.divisor is None:
        raise ParseError(f"subcommand {sub!r} requires a divisor string")
    d = parse_divisor(g, args.divisor)
    if sub == "reduce":
        q = args.q if args.q is not None else g.base_head
        return {"reduced": format_divisor(q_reduce(g, d, q)), "q": q}, EXIT_OK
    if sub == "effective":
        return {"effective_class": is_effective_class(g, d)}, EXIT_OK
    if sub == "classify":
        return {"classification": classify_gminus1(g, d).value}, EXIT_OK
    raise ParseError(f"unknown divisor subcommand {sub!r}")


def cmd_orient(args):
    from .orientation import (
        AcyclicWitness,
        PartialOrientation,
        chern_class,
        effectiveness_certificate,
        lift_divisor_to_orientation,
    )

    g = load_graph(args.graph)
    sub = args.subcommand
    if sub == "chern":
        u = parse_orientation(g, args.data)
        return {"chern_class": format_divisor(chern_class(u))}, EXIT_OK
    d = parse_divisor(g, args.data)
    if sub == "liftdiv":
        x = frozenset(args.unoriented.split(",")) if args.unoriented else frozenset()
        result = lift_divisor_to_orientation(g, d, x)
        if isinstance(result, PartialOrientation):
            return {
                "orientation": format_orientation(result),
                "chern_class": format_divisor(chern_class(result)),
            }, EXIT_OK
        return {
            "not_partially_orientable": True,
            "class_partially_orientable": result.class_orientable,
            "test_divisor": format_divisor(result.test_divisor),
            "reduced_form": format_divisor(result.reduced_form),
        }, EXIT_DOMAIN
    if sub == "certify":
        witness = effectiveness_certificate(g, d)
        if isinstance(witness, AcyclicWitness):
            return {
                "branch": "acyclic",
                "orientation": format_orientation(witness.orientation),
                "dominated_divisor": format_divisor(witness.dominated_divisor),
            }, EXIT_OK
        return {
            "branch": "sourceless",
            "orientation": format_orientation(witness.orientation),
            "effective_divisor": format_divisor(witness.effective_divisor),
        }, EXIT_OK
    raise ParseError(f"unknown orient subcommand {sub!r}")


def cmd_selftest(args):
    """Reproduce the shipped fixture analyses and verify every claim."""
    from .divisor import Divisor, enumerate_picard
    from .orientation import base_orientation, chern_class
    from .orcyc import (
        is_rigid,
        lift_to_graph_isomorphism,
        make_morphism,
        nonrigidity_witness,
        pushforward_class,
        rigidity_divisor,
        theta_preserved,
    )

    checks = {}

    def check(name, ok):
        checks[name] = bool(ok)

    g, h, em = load_morphism(fixture_path("GH.morphism.json"))
    m = make_morphism(g, h, em)
    check(
        "GH_signs",
        m.sign_dict
        == {"e1": 1, "e2": 1, "e3": -1, "e4": -1, "e5": 1, "e6": -1, "e7": 1},
    )
    check("G_chern", chern_class(base_orientation(g)) == Divisor(g, {"v3": 1, "v4": 1}))
    check("H_chern", chern_class(base_orientation(h)) == Divisor(h, {"w2": 1, "w5": 1}))
    check("GH_rigid", is_rigid(m) and rigidity_divisor(m).is_zero)
    check("GH_theta_preserved", theta_preserved(m, max_classes=args.max_classes))
    psi, vmap = lift_to_graph_isomorphism(m)
    check("GH_lift_series_fixing", all(v in ("r3", "r6", "r7") or k == v for k, v in psi.items()))

    j, k, em2 = load_morphism(fixture_path("JK.morphism.json"))
    m2 = make_morphism(j, k, em2)
    check(
        "JK_signs",
        m2.sign_dict == {"e1": 1, "e2": 1, "e3": -1, "e4": 1, "e5": -1, "e6": 1},
    )
    check(
        "J_chern",
        chern_class(base_orientation(j)) == Divisor(j, {"v3": 1, "v4": 2, "v1": -1}),
    )
    check("K_chern", chern_class(base_orientation(k)) == Divisor(k, {"w3": 1, "w4": 1}))
    check("JK_not_rigid", not is_rigid(m2))
    witness, image = nonrigidity_witness(m2)
    check(
        "JK_witness_verified",
        witness in theta_divisor(j, max_classes=args.max_classes)
        and image not in theta_divisor(k, max_classes=args.max_classes)
        and pushforward_class(m2, witness) == image,
    )
    check(
        "K_reduce_example",
        q_reduce(k, Divisor(k, {"w2": 1, "w3": 3, "w4": -4}), "w4")
        == Divisor(k, {"w3": 1, "w1": 1, "w4": -2}),
    )
    for name, graph in (("G", g), ("H", h), ("J", j), ("K", k)):
        check(
            f"{name}_picard_order",
            len(enumerate_picard(graph, 0, args.max_classes)) == spanning_tree_count(graph),
        )
    ok = all(checks.values())
    return {"checks": checks, "ok": ok}, EXIT_OK if ok else EXIT_DOMAIN


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rigidlift",
        description="Divisors, partial orientations and rigidity of cyclic "
        "bijections on multigraphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--no-timings", action="store_true", help="omit timings from the report"
    )
    parser.add_argument(
        "--max-classes",
        type=int,
        default=None,
        help="bound on the divisor classes that divisor theta and selftest "
        "enumerate (default 10^6; env RIGIDLIFT_MAX_CLASSES)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="graph invariants")
    p.add_argument("graph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("rigidity", help="rigidity analysis of a morphism file")
    p.add_argument("morphism")
    p.add_argument("--expect-rigid", action="store_true", help="exit 1 unless rigid")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("lift-matroid", help="lift a matroid isomorphism")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("map_file")
    p.set_defaults(func=cmd_lift_matroid)

    p = sub.add_parser("divisor", help="divisor operations")
    p.add_argument("graph")
    p.add_argument("subcommand", choices=["reduce", "effective", "classify", "theta"])
    p.add_argument("divisor", nargs="?", default=None)
    p.add_argument("--q", default=None, help="reduction vertex (reduce only)")
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("orient", help="orientation operations")
    p.add_argument("graph")
    p.add_argument("subcommand", choices=["chern", "liftdiv", "certify"])
    p.add_argument("data", help="orientation string (chern) or divisor string")
    p.add_argument(
        "--unoriented", default=None, help="comma-separated unoriented edge set"
    )
    p.set_defaults(func=cmd_orient)

    p = sub.add_parser("selftest", help="reproduce the fixture analyses")
    p.set_defaults(func=cmd_selftest)
    return parser


def _max_classes(args):
    """--max-classes, else RIGIDLIFT_MAX_CLASSES, else the default."""
    value = args.max_classes
    if value is None:
        env = os.environ.get("RIGIDLIFT_MAX_CLASSES")
        try:
            value = int(env) if env else DEFAULT_MAX_CLASSES
        except ValueError as exc:
            raise ParseError(f"RIGIDLIFT_MAX_CLASSES is not an integer: {env!r}") from exc
    if value < 0:
        raise ValidationError(f"the class bound must be non-negative, not {value}")
    return value


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        args.max_classes = _max_classes(args)
        report, code = args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args, start)
        return EXIT_INPUT
    except RigidliftError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, EnumerationBoundExceeded):
            error.update(limit=exc.limit, reached=exc.reached)
        _emit({"error": error}, args, start)
        return EXIT_DOMAIN
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        _emit({"error": {"type": "InternalError", "message": message}}, args, start)
        return EXIT_DOMAIN
    report = {"schema": "1", "command": args.command, **report}
    _emit(report, args, start)
    return code


def _emit(report, args, start):
    report.setdefault("schema", "1")
    if not args.no_timings:
        report["timings"] = {"total_s": round(time.perf_counter() - start, 6)}
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    sys.exit(main())
