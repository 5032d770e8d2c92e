"""The four workloads.

Each workload builds its inputs when constructed (the set-up) and then hands
out one cycle of operations at a time.  An operation's `run` is timed alone;
its answer is checked afterwards by `check`, outside the timed region, and
`weight` is |Pic^0| of the graph it works on.  Library functions are looked
up on their modules at call time, so the tracer's wrappers are seen.
"""

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle
from oracle import Plain, expect


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    weight: int


class Library:
    """The rigidlift modules, by import path: the package attribute
    `rigidlift.divisor` is a function that shadows the submodule."""

    MODULES = ("multigraph", "divisor", "homology", "orientation", "orcyc", "graphio", "cli")

    def __init__(self):
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"rigidlift.{name}"))


# -- survey ------------------------------------------------------------------


class Survey:
    """Criterion 3 on the small-graph catalogue: the four rigidity
    predicates must agree on every morphism.

    A cycle visits a quarter of the catalogue; the quarters take turns and
    cost about the same.  A visit takes a new relabelled, re-oriented copy of the
    graph, based at its e1 or e2, and runs two morphisms on it: an identity
    or a series transposition, then a Whitney flip, possibly composed with
    that transposition.  The second reuses the first's theta divisor, and
    no graph is seen in two cycles, so all cycles cost the same."""

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.rng = random.Random(seed)
        mg = lib.multigraph
        graphs = gen.catalogue(mg.build_graph, mg.connectivity_profile, 5, 8, 2)
        self.problems = []
        if len(graphs) != 109:
            self.problems.append(f"catalogue has {len(graphs)} graphs, expected 109")
        entries = []
        for g in graphs:
            triples = [(e, *g.ends(e)) for e in g.edge_ids]
            blocks = [b for b in mg.series_classes(g) if len(b) >= 2]
            arches = [(a.edges, a.tips) for a in mg.find_arches(g)]
            entries.append((triples, blocks, arches, oracle.spanning_tree_count(Plain(g.edges, g.base_edge))))
        entries.sort(key=lambda entry: (entry[3], len(entry[0])))
        self.quarters = ([], [], [], [])
        for i, entry in enumerate(entries):
            turn = i % 8  # dealt 0, 1, 2, 3, 3, 2, 1, 0, ... by rising cost
            self.quarters[min(turn, 7 - turn)].append(entry)
        for quarter in self.quarters:
            self.rng.shuffle(quarter)

    def cycle(self, c):
        return [op for entry in self.quarters[c % 4] for op in self._visit(*entry)]

    def _visit(self, triples, blocks, arches, tau):
        rng, mg = self.rng, self.lib.multigraph
        copy, vmap, emap = gen.relabel(triples, rng, "u", "e")
        # Bases as in criterion 3: the catalogue's edges e1 and e2.
        base = emap[rng.choice(("e1", "e2"))]
        g = mg.build_graph(copy, base)
        ident = {e: e for e, _, _ in copy}
        swaps = [
            (emap[a], emap[b])
            for block in blocks
            for a, b in itertools.combinations(block, 2)
            if base not in (emap[a], emap[b])
        ]
        moves = [
            ({emap[e] for e in edges}, (vmap[v], vmap[w]))
            for edges, (v, w) in arches
            if base not in {emap[e] for e in edges}
        ]
        sigma = None
        if swaps:
            a, b = rng.choice(swaps)
            sigma = dict(ident)
            sigma[a], sigma[b] = b, a
        first = ("series", g, sigma) if sigma and rng.random() < 0.5 else ("identity", g, ident)
        if moves:
            edges, tips = rng.choice(moves)
            moved = mg.build_graph(gen.whitney_reglue(copy, edges, tips), base)
            second = ("composed", moved, sigma) if sigma and rng.random() < 0.5 else ("whitney", moved, ident)
        elif sigma and first[0] == "identity":
            second = ("series", g, sigma)
        else:
            second = ("identity", g, ident)
        return [self._op(kind, g, h, edge_map, tau) for kind, h, edge_map in (first, second)]

    def _op(self, kind, g, h, edge_map, tau):
        orcyc, orientation = self.lib.orcyc, self.lib.orientation

        def run():
            m = orcyc.make_morphism(g, h, edge_map)
            return (
                orcyc.is_rigid(m),
                orcyc.diagram_defect(m, orientation.base_orientation(g)).is_zero,
                orcyc.theta_preserved(m),
                orcyc.s1_image_preserved(m),
            )

        def check(flags):
            expect(len(set(flags)) == 1, f"predicates disagree: {flags}")
            expect(flags[0] or kind in ("whitney", "composed"), f"{kind} morphism reported non-rigid")

        return Op(f"survey {kind} {g!r}", run, check, tau)


# -- lift --------------------------------------------------------------------


class Lift:
    """Rigid morphisms between relabelled copies of cycle-plus-chords graphs,
    lifted to graph isomorphisms.  Both sides are new graphs in every op.

    The five graphs have 15-17 vertices and cost about the same, so the
    median op is drawn from every op of a run, not from one rung."""

    RUNGS = ((15, 8), (16, 7), (16, 8), (16, 9), (17, 8))

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.rng = random.Random(seed)
        self.problems = []
        self.rungs = []
        for n, chords in self.RUNGS:
            triples, base = gen.cycle_plus_chords(n, chords)
            plain = Plain.from_triples(triples, base)
            self.rungs.append((triples, base, oracle.spanning_tree_count(plain), oracle.series_classes(plain)))

    def cycle(self, c):
        return [self._op(*rung) for rung in self.rungs]

    def _op(self, triples, base, tau, series):
        rng, mg, orcyc = self.rng, self.lib.multigraph, self.lib.orcyc
        src_triples, _, to_src = gen.relabel(triples, rng, "a", "e", fixed=(base,))
        dst_triples, _, to_dst = gen.relabel(triples, rng, "b", "f", fixed=(base,))
        src_base, dst_base = to_src[base], to_dst[base]
        edge_map = {to_src[e]: to_dst[e] for e in to_src}
        blocks = sorted({tuple(sorted(b - {base})) for b in series.values() if len(b - {base}) >= 2})
        if blocks and rng.random() < 0.5:
            a, b = rng.sample(rng.choice(blocks), 2)
            edge_map[to_src[a]], edge_map[to_src[b]] = to_dst[b], to_dst[a]
        dst_series = {to_dst[e]: {to_dst[f] for f in block} for e, block in series.items()}
        g = mg.build_graph(src_triples, src_base)
        h = mg.build_graph(dst_triples, dst_base)
        src, dst = Plain.from_triples(src_triples, src_base), Plain.from_triples(dst_triples, dst_base)

        def run():
            m = orcyc.make_morphism(g, h, edge_map)
            rigid = orcyc.is_rigid(m)
            psi, vertex_map = orcyc.lift_to_graph_isomorphism(m)
            return rigid, psi, vertex_map, orcyc.s1_image_preserved(m)

        def check(result):
            rigid, psi, vertex_map, s1 = result
            expect(rigid and s1, f"rigid={rigid}, s1_image_preserved={s1}")
            expect(sorted(psi) == sorted(dst.edges), "psi is not defined on every target edge")
            lifted = {e: psi[edge_map[e]] for e in src.edges}
            expect(oracle.is_isomorphism(src, dst, lifted, vertex_map), "lift is not a graph isomorphism")
            expect(all(psi[r] in dst_series[r] for r in psi), "psi is not series-fixing")

        return Op(f"lift cc{len(src.vertices)}", run, check, tau)


# -- theta -------------------------------------------------------------------


class Theta:
    """Picard and theta enumeration on a ladder of new graphs: no cache can
    hit and no homology runs."""

    # (name, structure, |Theta| pinned from the seed commit).  W5 and cc6+5
    # have about the same |Pic^0| and cost, well apart from the others, so
    # the median op is one of these two, drawn from a third of the ops.
    RUNGS = (
        ("cc5+5", gen.cycle_plus_chords(5, 5), 68),
        ("cc6+4", gen.cycle_plus_chords(6, 4), 67),
        ("W5", gen.wheel(5), 91),
        ("cc6+5", gen.cycle_plus_chords(6, 5), 110),
        ("cc7+5", gen.cycle_plus_chords(7, 5), 145),
        ("W6", gen.wheel(6), 258),
    )

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.rng = random.Random(seed)
        self.problems = []
        self.rungs = [
            (name, triples, base, size, oracle.spanning_tree_count(Plain.from_triples(triples, base)))
            for name, (triples, base), size in self.RUNGS
        ]

    def cycle(self, c):
        return [self._op(*rung) for rung in self.rungs]

    def _op(self, name, triples, base, theta_size, tau):
        divisor = self.lib.divisor
        copy, _, emap = gen.relabel(triples, self.rng, fixed=(base,))
        copy_base = emap[base]
        g = self.lib.multigraph.build_graph(copy, copy_base)
        plain = Plain.from_triples(copy, copy_base)

        def run():
            return divisor.theta_divisor(g), divisor.enumerate_picard(g, 0)

        def check(result):
            theta, pic = result
            expect(len(pic) == tau, f"{name}: |Pic^0| = {len(pic)}, spanning trees {tau}")
            expect(len(theta) == theta_size, f"{name}: |Theta| = {len(theta)}, expected {theta_size}")
            expect(theta <= pic, f"{name}: Theta is not inside Pic^0")
            for cls in theta:
                expect(oracle.in_theta(plain, dict(cls.representative.items())), f"{name}: {cls} not in Theta")

        return Op(f"theta {name}", run, check, tau)


# -- cli ---------------------------------------------------------------------

# Pinned structures for the generated CLI inputs; the seed relabels them.
# Exhaustive search over all 2^|E \ X| orientations (oracle.realisable)
# shows that no orientation with unoriented set X has a Chern class
# equivalent to d, although d + 1 is effective.
NOT_REALISABLE = (
    (
        [("c0", "v0", "v1"), ("c1", "v1", "v2"), ("c2", "v2", "v3"), ("c3", "v3", "v4"),
         ("c4", "v4", "v5"), ("c5", "v5", "v6"), ("c6", "v6", "v0"), ("h0", "v1", "v0"),
         ("h1", "v0", "v5"), ("h2", "v2", "v3"), ("h3", "v0", "v6"), ("h4", "v1", "v4")],
        "c0", ("c1", "c3"), {"v0": -1, "v3": 3, "v4": 1},
    ),
    (
        [("c0", "v0", "v1"), ("c1", "v1", "v2"), ("c2", "v2", "v3"), ("c3", "v3", "v4"),
         ("c4", "v4", "v5"), ("c5", "v5", "v6"), ("c6", "v6", "v7"), ("c7", "v7", "v0"),
         ("h0", "v4", "v1"), ("h1", "v6", "v5"), ("h2", "v7", "v5"), ("h3", "v7", "v3"),
         ("h4", "v0", "v2"), ("h5", "v7", "v6")],
        "c0", ("c3", "h0"), {"v2": 1, "v3": -1, "v4": 1, "v5": 2, "v6": 1},
    ),
)

# Graphs of genus 4 and 5 with an arch whose Whitney flip is not rigid.
WHITNEY_PAIRS = (
    (
        [("c0", "v0", "v1"), ("c1", "v1", "v2"), ("c2", "v2", "v3"), ("c3", "v3", "v4"),
         ("c4", "v4", "v5"), ("c5", "v5", "v0"), ("h0", "v0", "v5"), ("h1", "v0", "v2"),
         ("h2", "v1", "v2")],
        "c0", {"c3", "c4", "c5", "h0"}, ("v0", "v3"),
    ),
    (
        [("c0", "v0", "v1"), ("c1", "v1", "v2"), ("c2", "v2", "v3"), ("c3", "v3", "v4"),
         ("c4", "v4", "v5"), ("c5", "v5", "v0"), ("h0", "v1", "v2"), ("h1", "v0", "v3"),
         ("h2", "v3", "v1"), ("h3", "v0", "v5")],
        "c0", {"c3", "c4", "c5", "h3"}, ("v0", "v3"),
    ),
)

K_THETA_SIZE = 9


def _parse_graph_file(path):
    edges, base = {}, None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == "edge":
            edges[tokens[1]] = (tokens[2], tokens[3])
        elif tokens and tokens[0] == "base":
            base = tokens[1]
    return Plain(edges, base)


def _format_divisor(d):
    return "div " + " ".join(f"{v}:{c}" for v, c in sorted(d.items()))


class Cli:
    """Every `rigidlift` subcommand, one fresh process per op, on the
    bundled fixtures and on medium inputs written at set-up.  With
    `inprocess`, ops call `rigidlift.cli.main` instead (the traced run)."""

    def __init__(self, lib, seed, workdir, inprocess=False):
        self.lib = lib
        self.inprocess = inprocess
        self.src = Path(lib.graphio.__file__).resolve().parent.parent
        self.problems = []
        rng = random.Random(seed)
        fixtures = Path(lib.graphio.__file__).resolve().parent / "fixtures"
        fx = {n: str(fixtures / f"{n}.graph") for n in "GHJK"}
        plain = {n: _parse_graph_file(p) for n, p in fx.items()}
        tau = {n: oracle.spanning_tree_count(p) for n, p in plain.items()}
        gh, jk = str(fixtures / "GH.morphism.json"), str(fixtures / "JK.morphism.json")
        gh_map = json.loads(Path(gh).read_text())["edge_map"]
        jk_map = json.loads(Path(jk).read_text())["edge_map"]
        k = plain["K"]
        reduce_in = {"w2": 1, "w3": 3, "w4": -4}
        self.commands = [
            ("info", ["info", fx["K"]], 0, self._check_info(k), tau["K"]),
            ("rigidity GH", ["rigidity", gh], 0, self._check_lift(plain["G"], plain["H"], gh_map), tau["G"]),
            ("rigidity JK", ["rigidity", jk], 0, self._check_witness(plain["J"], plain["K"], jk_map), tau["J"]),
            ("rigidity JK --expect-rigid", ["rigidity", jk, "--expect-rigid"], 1,
             lambda r: expect(r["is_rigid"] is False, "JK reported rigid"), tau["J"]),
            ("lift-matroid GH", ["lift-matroid", fx["G"], fx["H"], gh], 0,
             self._check_matroid(plain["G"], plain["H"]), tau["G"]),
            ("divisor reduce", ["divisor", fx["K"], "reduce", _format_divisor(reduce_in), "--q", "w4"], 0,
             lambda r: expect(oracle.parse_divisor(r["reduced"]) == oracle.q_reduce(k, reduce_in, "w4"),
                              f"reduce gave {r['reduced']}"), tau["K"]),
            ("divisor effective", ["divisor", fx["K"], "effective", "div w1:2 w2:-1"], 0,
             lambda r: expect(r["effective_class"] == oracle.is_effective_class(k, {"w1": 2, "w2": -1}),
                              "wrong effectiveness"), tau["K"]),
            ("divisor classify", ["divisor", fx["K"], "classify", "div w1:1 w2:1"], 0,
             lambda r: expect(r["classification"] == ("Special" if oracle.is_effective_class(k, {"w1": 1, "w2": 1})
                                                      else "Nonspecial"), "wrong classification"), tau["K"]),
            ("divisor theta", ["divisor", fx["K"], "theta"], 0, self._check_theta(k), tau["K"]),
            ("orient chern", ["orient", fx["K"], "chern", "orient r1:F r2:F r3:B r4:F r5:B r6:F"], 0,
             lambda r: expect(oracle.parse_divisor(r["chern_class"]) == oracle.chern(
                 k, {"r1": "F", "r2": "F", "r3": "B", "r4": "F", "r5": "B", "r6": "F"}), "wrong Chern class"),
             tau["K"]),
            ("orient liftdiv K", ["orient", fx["K"], "liftdiv", "div w1:-1", "--unoriented", "r2,r3,r5"], 0,
             self._check_liftdiv(k, {"w1": -1}, {"r2", "r3", "r5"}), tau["K"]),
            ("orient certify K", ["orient", fx["K"], "certify", "div w1:1 w2:1"], 0,
             self._check_certify(k, {"w1": 1, "w2": 1}), tau["K"]),
            ("selftest", ["selftest"], 0,
             lambda r: expect(r["ok"] is True and all(r["checks"].values()), "selftest failed"),
             sum(tau.values())),
            ("input error", ["divisor", fx["K"], "reduce", "div nowhere:1"], 2,
             lambda r: expect(r["error"]["type"] == "ValidationError", f"error {r['error']}"), tau["K"]),
        ]
        self.commands += self._generated(rng, Path(workdir))

    def _generated(self, rng, workdir):
        out = []

        def write(name, triples, base):
            copy, vmap, emap = gen.relabel(triples, rng, fixed=(base,))
            path = workdir / f"{name}.graph"
            gen.write_graph(path, copy, emap[base])
            return path, Plain.from_triples(copy, emap[base]), vmap, emap

        # Realisable liftdiv: d is the Chern class of a random orientation.
        for n, chords in ((6, 4), (7, 5)):
            path, p, _, _ = write(f"real{n}", *gen.cycle_plus_chords(n, chords))
            unoriented = set(rng.sample(sorted(e for e in p.edges if e != p.base), 2))
            states = {e: rng.choice("FB") for e in p.edges if e not in unoriented}
            d = oracle.chern(p, states)
            out.append((f"orient liftdiv {len(p.edges)}E", [
                "orient", str(path), "liftdiv", _format_divisor(d), "--unoriented", ",".join(sorted(unoriented))],
                0, self._check_liftdiv(p, d, unoriented), oracle.spanning_tree_count(p)))
        for i, (triples, base, unoriented, d) in enumerate(NOT_REALISABLE):
            path, p, vmap, emap = write(f"unreal{i}", triples, base)
            x = {emap[e] for e in unoriented}
            dd = {vmap[v]: c for v, c in d.items()}
            out.append((f"orient liftdiv {len(p.edges)}E not realisable", [
                "orient", str(path), "liftdiv", _format_divisor(dd), "--unoriented", ",".join(sorted(x))],
                1, self._check_not_realisable(p, dd), oracle.spanning_tree_count(p)))
        for i, (triples, base, arch, tips) in enumerate(WHITNEY_PAIRS):
            src_path, src, vmap, emap = write(f"whitney{i}", triples, base)
            moved = gen.whitney_reglue(
                [(e, a, b) for e, (a, b) in src.edges.items()], {emap[e] for e in arch},
                (vmap[tips[0]], vmap[tips[1]]))
            dst_triples, _, to_dst = gen.relabel(moved, rng, "y", "g", fixed=(emap[base],))
            dst_base = to_dst[emap[base]]
            dst_path = workdir / f"whitney{i}t.graph"
            gen.write_graph(dst_path, dst_triples, dst_base)
            dst = Plain.from_triples(dst_triples, dst_base)
            edge_map = {e: to_dst[e] for e in src.edges}
            morphism = workdir / f"whitney{i}.morphism.json"
            gen.write_morphism(morphism, src_path, dst_path, edge_map)
            tau = oracle.spanning_tree_count(src)
            out.append((f"rigidity genus {src.genus} witness", ["rigidity", str(morphism)], 0,
                        self._check_witness(src, dst, edge_map), tau))
            # certify: an effective class of degree g - 1 (sourceless
            # witness) and a class of degree -1 (acyclic witness).
            q = {src.vertices[0]: src.genus - 1}
            out.append((f"orient certify genus {src.genus}", [
                "orient", str(src_path), "certify", _format_divisor(q)], 0, self._check_certify(src, q), tau))
            q = oracle.add({v: 1 for v in src.vertices[:2]}, {src.base_head: -3})
            out.append((f"orient certify genus {src.genus} acyclic", [
                "orient", str(src_path), "certify", _format_divisor(q)], 0, self._check_certify(src, q), tau))
        return out

    # -- running ---------------------------------------------------------

    def cycle(self, c):
        return [self._op(*command) for command in self.commands]

    def _op(self, label, args, expected_code, check_report, weight):
        argv = ["--no-timings", *args]
        if self.inprocess:
            cli = self.lib.cli

            def run():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                return code, out.getvalue(), err.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=str(self.src))
            env.pop("RIGIDLIFT_MAX_CLASSES", None)

            def run():
                proc = subprocess.run(
                    [sys.executable, "-m", "rigidlift.cli", *argv],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                return proc.returncode, proc.stdout, proc.stderr

        def check(result):
            code, stdout, stderr = result
            expect("Traceback" not in stderr, f"{label}: traceback\n{stderr}")
            expect(code == expected_code, f"{label}: exit {code}, expected {expected_code}\n{stderr}")
            report = json.loads(stdout)
            expect(report.get("schema") == "1", f"{label}: no schema field")
            check_report(report)

        return Op(f"cli {label}", run, check, weight)

    # -- checks ----------------------------------------------------------

    @staticmethod
    def _check_info(p):
        def check(r):
            expect(r["genus"] == p.genus, "wrong genus")
            expect(r["spanning_trees"] == oracle.spanning_tree_count(p), "wrong spanning tree count")
            expect(r["is_2_connected"] is True and r["edge_connectivity"] >= 2, "wrong connectivity")
            expect({frozenset(b) for b in r["series_classes"]} == set(oracle.series_classes(p).values()),
                   "wrong series classes")
        return check

    @staticmethod
    def _check_lift(src, dst, edge_map):
        def check(r):
            expect(r["is_rigid"] is True, "rigid morphism reported non-rigid")
            expect(oracle.signs_valid(src, dst, edge_map, r["signs"]), "invalid signs")
            psi, vertex_map = r["lift"]["psi"], r["lift"]["vertex_map"]
            lifted = {e: psi[edge_map[e]] for e in src.edges}
            expect(oracle.is_isomorphism(src, dst, lifted, vertex_map), "lift is not a graph isomorphism")
            series = oracle.series_classes(dst)
            expect(all(psi[e] in series[e] for e in psi), "psi is not series-fixing")
        return check

    @staticmethod
    def _check_witness(src, dst, edge_map):
        def check(r):
            expect(r["is_rigid"] is False, "non-rigid morphism reported rigid")
            expect(r["edge_map"] == edge_map, "edge map echoed wrongly")
            signs = r["signs"]
            expect(oracle.signs_valid(src, dst, edge_map, signs), "invalid signs")
            witness = oracle.parse_divisor(r["witness"]["theta_element"]["representative"])
            image = oracle.parse_divisor(r["witness"]["image"]["representative"])
            expect(oracle.in_theta(src, witness), "witness not in Theta(source)")
            expect(not oracle.in_theta(dst, image), "witness image in Theta(target)")
            expect(oracle.equivalent(dst, oracle.pushforward(src, dst, edge_map, signs, witness), image),
                   "image is not the pushforward of the witness")
        return check

    @staticmethod
    def _check_matroid(g, h):
        def check(r):
            expect(r["liftable"] is True, "fixture matroid isomorphism not lifted")
            expect(oracle.is_isomorphism(g, h, r["edge_map"], r["vertex_map"]), "not a graph isomorphism")
        return check

    @staticmethod
    def _check_theta(p):
        def check(r):
            reps = [oracle.parse_divisor(c["representative"]) for c in r["theta"]]
            expect(r["count"] == len(reps) == K_THETA_SIZE, f"|Theta(K)| = {r['count']}")
            expect(len({tuple(sorted(d.items())) for d in reps}) == len(reps), "repeated theta class")
            expect(all(oracle.in_theta(p, d) for d in reps), "class outside Theta(K)")
        return check

    @staticmethod
    def _check_liftdiv(p, d, unoriented):
        def check(r):
            states = oracle.parse_orientation(r["orientation"])
            expect({e for e, s in states.items() if s == "U"} == set(unoriented), "wrong unoriented set")
            chern = oracle.chern(p, states)
            expect(oracle.parse_divisor(r["chern_class"]) == chern, "wrong Chern class")
            expect(oracle.equivalent(p, chern, d), "Chern class not equivalent to the input")
        return check

    @staticmethod
    def _check_not_realisable(p, d):
        test = oracle.add(d, {v: 1 for v in p.vertices})

        def check(r):
            expect(r["not_partially_orientable"] is True, "orientation claimed")
            expect(r["class_partially_orientable"] is True, "class reported not orientable")
            expect(oracle.parse_divisor(r["test_divisor"]) == test, "wrong test divisor")
            reduced = oracle.parse_divisor(r["reduced_form"])
            expect(oracle.is_q_reduced(p, reduced, p.base_head) and oracle.equivalent(p, reduced, test),
                   "wrong reduced form")
        return check

    @staticmethod
    def _check_certify(p, q):
        def check(r):
            states = oracle.parse_orientation(r["orientation"])
            if r["branch"] == "sourceless":
                eff = oracle.parse_divisor(r["effective_divisor"])
                expect(oracle.is_sourceless(p, states), "orientation has a source")
                expect(oracle.chern(p, states) == eff, "Chern class differs from the effective divisor")
                expect(min(eff.values(), default=0) >= 0 and oracle.equivalent(p, eff, q), "bad effective divisor")
            else:
                expect(r["branch"] == "acyclic", f"unknown branch {r['branch']}")
                dom = oracle.parse_divisor(r["dominated_divisor"])
                chern = oracle.chern(p, states)
                expect(oracle.is_acyclic(p, states), "orientation has a directed cycle")
                expect(all(chern.get(v, 0) >= dom.get(v, 0) for v in p.vertices), "Chern class does not dominate")
                expect(oracle.equivalent(p, dom, q), "dominated divisor not equivalent to the input")
        return check


WORKLOADS = {"survey": Survey, "lift": Lift, "theta": Theta, "cli": Cli}
