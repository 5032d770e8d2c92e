#!/usr/bin/env python3
"""Reproduce the shipped fixture analyses end to end and print a report.

Covers: sign functions, reference Chern classes, rigidity divisors, the
graph-isomorphism lift for the rigid pair, a verified non-rigidity witness
for the non-rigid pair, theta divisor sizes, and matroid-isomorphism lifting
for both pairs.
"""

import argparse
import os
import sys

# The checkout's own library, whatever the working directory.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from rigidlift.divisor import Divisor, enumerate_picard, q_reduce, theta_divisor  # noqa: E402
from rigidlift.graphio import fixture_path, format_divisor, load_morphism  # noqa: E402
from rigidlift.multigraph import id_key, series_classes, spanning_tree_count  # noqa: E402
from rigidlift.orcyc import (  # noqa: E402
    MatroidLift,
    is_rigid,
    lift_matroid_isomorphism,
    lift_to_graph_isomorphism,
    make_morphism,
    nonrigidity_witness,
    pushforward_class,
    rigidity_divisor,
    theta_preserved,
)
from rigidlift.orientation import base_orientation, chern_class  # noqa: E402


def _sorted(d):
    """d with its keys in id order, so the printed maps do not depend on the
    order they were built in."""
    return dict(sorted(d.items(), key=lambda kv: id_key(kv[0])))


def report_pair(title, morphism_file):
    g, h, emap = load_morphism(fixture_path(morphism_file))
    m = make_morphism(g, h, emap)
    print(f"== {title} ==")
    print(f"  source: genus {g.genus}, {len(g.vertices)} vertices, "
          f"{len(g.edge_ids)} edges, base {g.base_edge}")
    print(f"  target: genus {h.genus}, {len(h.vertices)} vertices, "
          f"{len(h.edge_ids)} edges, base {h.base_edge}")
    print(f"  series classes (source): {series_classes(g)}")
    print(f"  series classes (target): {series_classes(h)}")
    print(f"  signs: {m.sign_dict}")
    print(f"  c(reference orientation, source): "
          f"{format_divisor(chern_class(base_orientation(g)))}")
    print(f"  c(reference orientation, target): "
          f"{format_divisor(chern_class(base_orientation(h)))}")
    rig = rigidity_divisor(m)
    print(f"  rigidity divisor: {format_divisor(rig.representative)} "
          f"(zero: {rig.is_zero})")
    print(f"  is_rigid: {is_rigid(m)}  theta_preserved: {theta_preserved(m)}")
    if is_rigid(m):
        psi, vmap = lift_to_graph_isomorphism(m)
        moved = {k: v for k, v in psi.items() if k != v}
        print(f"  lift: series correction {_sorted(moved)}, vertex map {_sorted(vmap)}")
    else:
        s, image = nonrigidity_witness(m)
        ok = (
            s in theta_divisor(g)
            and image not in theta_divisor(h)
            and pushforward_class(m, s) == image
        )
        print(f"  witness: {format_divisor(s.representative)} -> "
              f"{format_divisor(image.representative)} (verified: {ok})")
    result = lift_matroid_isomorphism(g, h, emap)
    if isinstance(result, MatroidLift):
        print(f"  matroid lift: liftable via base {result.base_edge}, "
              f"tried {list(result.tried)}")
    else:
        print(f"  matroid lift: not liftable, tried {list(result.tried)}")
    print(f"  |Pic^0| source/target: {len(enumerate_picard(g, 0))} / "
          f"{len(enumerate_picard(h, 0))} "
          f"(tree counts {spanning_tree_count(g)} / {spanning_tree_count(h)})")
    print(f"  |theta| source/target: {len(theta_divisor(g))} / "
          f"{len(theta_divisor(h))}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args()
    report_pair("rigid pair (G -> H)", "GH.morphism.json")
    report_pair("non-rigid pair (J -> K)", "JK.morphism.json")

    # Worked reduction example on K.
    _, k, _ = load_morphism(fixture_path("JK.morphism.json"))
    d = Divisor(k, {"w2": 1, "w3": 3, "w4": -4})
    print("== divisor reduction example on K ==")
    print(f"  {format_divisor(d)} reduced at w4: "
          f"{format_divisor(q_reduce(k, d, 'w4'))}")


if __name__ == "__main__":
    main()
