"""Shared oracles and generators for the test suite."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

from rigidlift.multigraph import (
    Arch,
    build_graph,
    connectivity_profile,
    find_arches,
    series_classes,
    whitney_move,
)
from rigidlift.orcyc import compose, identity_morphism, make_morphism
from rigidlift.orientation import PartialOrientation, chern_class


def _connected(n, edge_pairs):
    adj = {i: set() for i in range(n)}
    for a, b in edge_pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@lru_cache(maxsize=None)
def _perm_pair_tables(n):
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in itertools.permutations(range(n)):
        tables.append(
            tuple(index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs)
        )
    return pairs, tables


def enumerate_small_graphs(max_vertices=5, max_edges=8, min_genus=2):
    """All 2-connected, 2-edge-connected multigraphs up to isomorphism with
    the given size bounds and genus >= min_genus, as based Multigraphs
    (deterministic vertex labels, edge ids e1.., base e1)."""
    graphs = []
    for n in range(2, max_vertices + 1):
        verts = [f"u{i}" for i in range(n)]
        pairs, tables = _perm_pair_tables(n)
        seen = set()
        lo = n + min_genus - 1
        for m in range(lo, max_edges + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(pairs)), m
            ):
                deg = [0] * n
                for pi in combo:
                    a, b = pairs[pi]
                    deg[a] += 1
                    deg[b] += 1
                if any(d < 2 for d in deg):
                    continue
                edge_pairs = [pairs[pi] for pi in combo]
                if not _connected(n, edge_pairs):
                    continue
                canon = min(tuple(sorted(t[pi] for pi in combo)) for t in tables)
                if canon in seen:
                    continue
                seen.add(canon)
                g = build_graph(
                    [
                        (f"e{i + 1}", verts[a], verts[b])
                        for i, (a, b) in enumerate(edge_pairs)
                    ],
                    "e1",
                )
                two, k = connectivity_profile(g)
                if not two or k < 2:
                    continue
                graphs.append(g)
    return graphs


@lru_cache(maxsize=None)
def catalogue():
    """The 109 graphs of enumerate_small_graphs(5, 8, 2), built once."""
    return tuple(enumerate_small_graphs(max_vertices=5, max_edges=8, min_genus=2))


def cycle_plus_chords(n, chords, seed):
    """An n-cycle plus `chords` random chords (parallel edges allowed), with
    random edge orientations and base edge."""
    rng = random.Random(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    triples = []
    for k, (a, b) in enumerate(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        triples.append((f"c{k}", f"y{a}", f"y{b}"))
    return build_graph(triples, rng.choice(triples)[0])


def seventeen_free_edges(seed):
    """(g, d, x): g = cycle_plus_chords(12, 8, 1) with a random set x of
    three edges unoriented, so 2^17 orientations of the other edges, and d
    the Chern class of an orientation with three other random edges
    unoriented.  Seeds 0-7 give the first fits 31104, None, 10493, None,
    None, 80929, 86718 and 106808 in the product scan's order."""
    g = cycle_plus_chords(12, 8, 1)
    rng = random.Random(seed)
    edges = list(g.edge_ids)
    x = frozenset(rng.sample(edges, 3))
    other = frozenset(rng.sample(edges, 3))
    u = PartialOrientation(g, {e: rng.choice("FB") for e in edges if e not in other})
    return g, chern_class(u), x


def two_sum_whitney_flip(n, seed):
    """The Whitney flip of an 8-vertex chorded cycle glued at two opposite
    vertices into an (n - 6)-vertex one, each with chords on half as many
    vertex pairs as it has vertices: an n-vertex graph of genus n/2 + 4 or
    so.  The flip is built from that 2-separation directly, with no arch
    search; the base edge lies in the large half, which stays."""
    big = n - 6
    halves = (cycle_plus_chords(big, big // 2, seed), cycle_plus_chords(8, 4, seed + 1))
    tips = {"Ry0": "Ly0", "Ry4": f"Ly{big // 2}"}
    triples = []
    for tag, half in zip("LR", halves):
        for e in half.edge_ids:
            o, t = (f"{tag}{v}" for v in half.ends(e))
            triples.append((f"{tag}{e}", tips.get(o, o), tips.get(t, t)))
    g = build_graph(triples, f"L{halves[0].base_edge}")
    moved = frozenset(e for e, _, _ in triples if e.startswith("R"))
    arch = Arch(moved, tuple(tips.values()), frozenset(g.edge_ids) - moved)
    return whitney_move(g, arch)[1]


def series_transposition_morphisms(g, limit=None):
    """Valid self-morphisms swapping two edges of one series class."""
    out = []
    for block in series_classes(g):
        if len(block) < 2:
            continue
        a, b = block[0], block[1]
        emap = {e: e for e in g.edge_ids}
        emap[a], emap[b] = b, a
        if g.base_edge in (a, b):
            continue
        out.append(make_morphism(g, g, emap))
        if limit and len(out) >= limit:
            break
    return out


def whitney_morphisms(g, limit=2):
    """Morphisms arising from Whitney moves on arches avoiding the base."""
    out = []
    try:
        arches = find_arches(g)
    except Exception:
        return out
    for arch in arches:
        if g.base_edge in arch.edges:
            continue
        _, morphism = whitney_move(g, arch)
        out.append(morphism)
        if len(out) >= limit:
            break
    return out


def sample_morphisms(graphs, target_count, rng=None, bases_per_graph=2):
    """A deterministic stream of valid morphisms across graphs and bases."""
    rng = rng or random.Random(0)
    out = []
    round_no = 0
    while len(out) < target_count:
        progressed = False
        for g in graphs:
            if len(out) >= target_count:
                break
            bases = list(g.edge_ids[:bases_per_graph])
            for base in bases:
                gb = g.with_base(base)
                candidates = []
                if round_no == 0:
                    candidates.append(identity_morphism(gb))
                    candidates.extend(series_transposition_morphisms(gb, limit=1))
                    candidates.extend(whitney_morphisms(gb, limit=1))
                elif round_no == 1:
                    candidates.extend(series_transposition_morphisms(gb, limit=3)[1:])
                    candidates.extend(whitney_morphisms(gb, limit=3)[1:])
                else:
                    # Compositions for extra variety.
                    ws = whitney_morphisms(gb, limit=1)
                    ss = series_transposition_morphisms(gb, limit=1)
                    if ws and ss:
                        candidates.append(compose(ws[0], ss[0]))
                    if len(ws) == 1:
                        # Whitney move applied on the moved graph again.
                        more = whitney_morphisms(ws[0].target, limit=1)
                        if more:
                            candidates.append(compose(more[0], ws[0]))
                for m in candidates:
                    out.append(m)
                    progressed = True
                    if len(out) >= target_count:
                        break
                if len(out) >= target_count:
                    break
        round_no += 1
        if not progressed and round_no > 3:
            break
    return out


def _pair(source, target, source_base, target_base, edge_map):
    g, h = build_graph(source, source_base), build_graph(target, target_base)
    return g, h, {e: edge_map.get(e, e) for e in g.edge_ids}


def digon_cycle_pair():
    """A rigid morphism between non-isomorphic graphs, with the base in a
    series class of size 3: a 5-cycle with two adjacent digons onto the same
    cycle with the digons apart.  The map swaps e5 and e7 and fixes the rest."""
    return _pair(
        [("e1", "u0", "u1"), ("e2", "u0", "u1"), ("e3", "u0", "u2"), ("e4", "u0", "u2"),
         ("e5", "u1", "u3"), ("e6", "u2", "u4"), ("e7", "u3", "u4")],
        [("e1", "u3", "u1"), ("e2", "u3", "u1"), ("e3", "u0", "u2"), ("e4", "u0", "u2"),
         ("e5", "u1", "u0"), ("e6", "u2", "u4"), ("e7", "u3", "u4")],
        "e7", "e5", {"e5": "e7", "e7": "e5"},
    )


def base_reversing_pair():
    """An identity map of edge ids whose every lift reverses the base e1,
    which is alone in its series class (so the morphism is not rigid)."""
    return _pair(
        [("e1", "u0", "u1"), ("e2", "u0", "u1"), ("e3", "u0", "u2"), ("e4", "u0", "u2"),
         ("e5", "u0", "u3"), ("e6", "u1", "u2"), ("e7", "u1", "u3")],
        [("e1", "u0", "u1"), ("e2", "u1", "u0"), ("e3", "u1", "u2"), ("e4", "u1", "u2"),
         ("e5", "u0", "u3"), ("e6", "u0", "u2"), ("e7", "u1", "u3")],
        "e1", "e1", {},
    )


def brute_force_lift(g, h, edge_map):
    """The vertex map of a graph isomorphism psi . edge_map with psi
    series-fixing, or None: a search over all vertex bijections for one
    under which each series class of g has, as a multiset, the end pairs of
    its image class."""
    classes = series_classes(g)
    targets = [Counter(frozenset(h.ends(edge_map[e])) for e in block) for block in classes]
    for perm in itertools.permutations(h.vertex_ids):
        pi = dict(zip(g.vertex_ids, perm))
        if all(
            Counter(frozenset((pi[a], pi[b])) for a, b in map(g.ends, block)) == target
            for block, target in zip(classes, targets)
        ):
            return pi
    return None


def brute_force_spanning_trees(g):
    """Independent spanning-tree count: try all edge subsets of tree size."""
    n = len(g.vertices) - 1
    count = 0
    for subset in itertools.combinations(g.edge_ids, n):
        parent = {v: v for v in g.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            a, b = g.ends(e)
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            count += 1
    return count


def random_multigraph(rng, max_vertices=7, max_extra_edges=6):
    """A random connected loopless multigraph with a base edge."""
    n = rng.randint(2, max_vertices)
    verts = [f"x{i}" for i in range(n)]
    edges = []
    # Random spanning tree first, then extra edges.
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"e{len(edges) + 1}", verts[j], verts[i]))
    for _ in range(rng.randint(1, max_extra_edges)):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        edges.append((f"e{len(edges) + 1}", verts[a], verts[b]))
    return build_graph(edges, "e1")


def fresh_interpreter(code, *args):
    """The stripped stdout of `python -c code args` in a new interpreter
    that imports rigidlift from this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()
