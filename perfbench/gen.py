"""Seeded input generators.  Graphs are lists of (edge id, tail, head)
triples plus a base edge id; the workloads build library graphs from them.

The structures of the ladder rungs are fixed (their random chords come from
a constant per-rung seed), while the workload seed chooses labels, edge ids,
orientations and morphisms.  Every seed thus feeds the program the same
amount of work in new clothes, which keeps the run-to-run spread small.
"""

import itertools
import json
import random


def wheel(n):
    """Hub joined to an n-cycle; base edge is the spoke s0 (hub -> r0)."""
    triples = []
    for i in range(n):
        triples.append((f"s{i}", "hub", f"r{i}"))
        triples.append((f"c{i}", f"r{i}", f"r{(i + 1) % n}"))
    return triples, "s0"


def cycle_plus_chords(n, chords):
    """An n-cycle plus `chords` random chords, fixed by (n, chords)."""
    rng = random.Random(f"cycle-plus-chords-{n}-{chords}")
    triples = [(f"c{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    for k in range(chords):
        a, b = rng.sample(range(n), 2)
        triples.append((f"h{k}", f"v{a}", f"v{b}"))
    return triples, "c0"


def relabel(triples, rng, vprefix="x", eprefix="f", fixed=()):
    """A relabelled copy: new vertex names, permuted edge ids, and every
    edge not in `fixed` reversed with probability 1/2.  Returns the copy and
    the vertex and edge maps from the original."""
    verts = sorted({v for _, a, b in triples for v in (a, b)})
    names = [f"{vprefix}{i}" for i in range(len(verts))]
    rng.shuffle(names)
    vmap = dict(zip(verts, names))
    ids = [f"{eprefix}{i}" for i in range(len(triples))]
    rng.shuffle(ids)
    emap = {}
    out = []
    for (e, a, b), new in zip(triples, ids):
        a, b = vmap[a], vmap[b]
        if e not in fixed and rng.random() < 0.5:
            a, b = b, a
        out.append((new, a, b))
        emap[e] = new
    return out, vmap, emap


def whitney_reglue(triples, edges, tips):
    """Swap the two tips on the endpoints of the arch edges."""
    v, w = tips
    swap = {v: w, w: v}
    return [
        (e, swap.get(a, a), swap.get(b, b)) if e in edges else (e, a, b)
        for e, a, b in triples
    ]


def write_graph(path, triples, base):
    lines = [f"edge {e} {a} {b}" for e, a, b in triples] + [f"base {base}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_morphism(path, source, target, edge_map):
    data = {"source": source.name, "target": target.name, "edge_map": edge_map}
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


# -- the survey catalogue ----------------------------------------------------


def _connected(n, pairs):
    adj = {i: [] for i in range(n)}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def catalogue(build_graph, connectivity_profile, max_vertices, max_edges, min_genus):
    """All 2-connected, 2-edge-connected multigraphs up to isomorphism with
    the given bounds, labelled u0.. / e1.. with base e1.

    Isomorphism classes are told apart by a canonical form: the least sorted
    edge-pair list over the vertex permutations that sort vertices by degree.
    """
    graphs = []
    for n in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: i for i, p in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        by_degrees = {}
        seen = set()
        for m in range(n + min_genus - 1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(range(len(pairs)), m):
                deg = [0] * n
                for i in combo:
                    a, b = pairs[i]
                    deg[a] += 1
                    deg[b] += 1
                if min(deg) < 2:
                    continue
                edge_pairs = [pairs[i] for i in combo]
                if not _connected(n, edge_pairs):
                    continue
                key = tuple(deg)
                tables = by_degrees.get(key)
                if tables is None:
                    tables = by_degrees[key] = [
                        [index[tuple(sorted((p[a], p[b])))] for a, b in pairs]
                        for p in perms
                        if all(
                            p[a] < p[b]
                            for a in range(n)
                            for b in range(n)
                            if deg[a] < deg[b]
                        )
                    ]
                canon = min(tuple(sorted(t[i] for i in combo)) for t in tables)
                if canon in seen:
                    continue
                seen.add(canon)
                g = build_graph(
                    [(f"e{i + 1}", f"u{a}", f"u{b}") for i, (a, b) in enumerate(edge_pairs)],
                    "e1",
                )
                two_connected, edge_connectivity = connectivity_profile(g)
                if two_connected and edge_connectivity >= 2:
                    graphs.append(g)
    return graphs
