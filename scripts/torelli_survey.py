#!/usr/bin/env python3
"""Survey the agreement of the four rigidity characterisations.

Enumerates all 2-connected, 2-edge-connected multigraphs up to isomorphism
within the given size bounds, samples valid morphisms across them, and
checks that the four predicates (zero rigidity divisor, commuting diagram on
full orientations, theta preservation, degree-1 image preservation) agree on
every sampled morphism.  The `done` line ends with the seconds spent in
catalogue enumeration, in sampling and in each predicate; a predicate is
charged for the morphism data it is the first to build: `is_rigid` builds
phi_* and E_phi, which the others reuse, and `theta_preserved` builds the
reduced vertex images (`OrCycMorphism.reduced_images`), which
`s1_image_preserved` then reads with no q-reduction.
"""

import argparse
import os
import sys
import time

# The checkout's own library and test helpers, whatever the working directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import enumerate_small_graphs, sample_morphisms  # noqa: E402

from rigidlift.orcyc import (  # noqa: E402
    diagram_defect,
    is_rigid,
    s1_image_preserved,
    theta_preserved,
)
from rigidlift.orientation import base_orientation  # noqa: E402

PREDICATES = (
    ("is_rigid", is_rigid),
    ("diagram_defect", lambda m: diagram_defect(m, base_orientation(m.source)).is_zero),
    ("theta_preserved", theta_preserved),
    ("s1_image_preserved", s1_image_preserved),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=5)
    parser.add_argument("--max-edges", type=int, default=8)
    parser.add_argument("--morphisms", type=int, default=1000)
    args = parser.parse_args()

    start = time.perf_counter()
    graphs = enumerate_small_graphs(
        max_vertices=args.max_vertices, max_edges=args.max_edges, min_genus=2
    )
    seconds = {"enumeration": time.perf_counter() - start}
    print(f"{len(graphs)} graphs enumerated "
          f"({time.perf_counter() - start:.1f}s)")

    morphisms = sample_morphisms(graphs, args.morphisms)
    seconds["sampling"] = time.perf_counter() - start - seconds["enumeration"]
    print(f"{len(morphisms)} morphisms sampled")

    seconds.update((name, 0.0) for name, _ in PREDICATES)
    rigid = 0
    disagreements = []
    for i, m in enumerate(morphisms, 1):
        flags = []
        for name, predicate in PREDICATES:
            before = time.perf_counter()
            flags.append(predicate(m))
            seconds[name] += time.perf_counter() - before
        flags = tuple(flags)
        if len(set(flags)) != 1:
            disagreements.append((m, flags))
        elif flags[0]:
            rigid += 1
        if i % 200 == 0:
            print(f"  {i} checked ({time.perf_counter() - start:.1f}s)")

    print(f"done in {time.perf_counter() - start:.1f}s: "
          f"{rigid} rigid, {len(morphisms) - rigid - len(disagreements)} "
          f"non-rigid, {len(disagreements)} disagreements; seconds: "
          + ", ".join(f"{name} {t:.2f}" for name, t in seconds.items()))
    for m, flags in disagreements[:10]:
        print(f"  DISAGREEMENT {m}: {flags}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
