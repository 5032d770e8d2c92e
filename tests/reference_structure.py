"""The graph-structure layer as first written, kept as a test oracle:
2-connectivity by removing each vertex in turn, edge connectivity by
max-flows that rescan a capacity dict, series classes by testing every
pair of edges for a cut, fundamental cycles by a breadth-first search in
the spanning tree, and signs from one cycle through the base per edge."""

from collections import deque
from itertools import combinations

from rigidlift.errors import NotTwoEdgeConnected
from rigidlift.multigraph import EdgePath, cycle_through_edges, id_key, spanning_tree_edges
from rigidlift.orcyc import _traverse_edge_subset_cycle


def is_connected(g, removed_edges=frozenset(), removed_vertices=frozenset()):
    remaining = [v for v in g.vertex_ids if v not in removed_vertices]
    if not remaining:
        return True
    seen = {remaining[0]}
    stack = [remaining[0]]
    while stack:
        v = stack.pop()
        for e in g.incident(v):
            if e in removed_edges:
                continue
            w = g.other_end(e, v)
            if w in removed_vertices or w in seen:
                continue
            seen.add(w)
            stack.append(w)
    return len(seen) == len(remaining)


def max_flow(g, s, t):
    cap = {}
    for e in g.edge_ids:
        u, v = g.ends(e)
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap[(v, u)] = cap.get((v, u), 0) + 1
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for (a, b), c in cap.items():
                if a == u and c > 0 and b not in parent:
                    parent[b] = (a, b)
                    queue.append(b)
        if t not in parent:
            return flow
        arcs = []
        node = t
        while parent[node] is not None:
            arcs.append(parent[node])
            node = parent[node][0]
        push = min(cap[a] for a in arcs)
        for a, b in arcs:
            cap[(a, b)] -= push
            cap[(b, a)] = cap.get((b, a), 0) + push
        flow += push


def connectivity_profile(g):
    """(is 2-connected, exact edge connectivity)."""
    if len(g.vertices) < 2:
        return (False, 0)
    two_connected = is_connected(g) and all(
        is_connected(g, removed_vertices={v}) for v in g.vertex_ids
    )
    s = g.vertex_ids[0]
    k = min(max_flow(g, s, t) for t in g.vertex_ids if t != s)
    return (two_connected, k)


def series_classes(g):
    """Edges joined whenever removing the pair disconnects the graph."""
    _, k = connectivity_profile(g)
    if k < 2:
        raise NotTwoEdgeConnected("series classes require a 2-edge-connected graph")
    parent = {e: e for e in g.edge_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in combinations(g.edge_ids, 2):
        if not is_connected(g, removed_edges={a, b}):
            parent[find(a)] = find(b)
    blocks = {}
    for e in g.edge_ids:
        blocks.setdefault(find(e), []).append(e)
    return sorted(
        (tuple(sorted(b, key=id_key)) for b in blocks.values()),
        key=lambda b: id_key(b[0]),
    )


def tree_path(g, tree, src, dst):
    prev = {src: None}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            break
        for e in sorted(g.incident(v), key=id_key):
            if e not in tree:
                continue
            w = g.other_end(e, v)
            if w not in prev:
                prev[w] = (e, v)
                queue.append(w)
    steps = []
    node = dst
    while prev[node] is not None:
        e, v = prev[node]
        steps.append((e, 1 if g.t(e) == node else -1, node))
        node = v
    steps.reverse()
    return EdgePath(
        tuple(e for e, _, _ in steps),
        tuple(s for _, s, _ in steps),
        (src,) + tuple(w for _, _, w in steps),
    )


def fundamental_cycles(g):
    tree = set(spanning_tree_edges(g))
    cycles = []
    for e in g.edge_ids:
        if e in tree:
            continue
        back = tree_path(g, tree, g.t(e), g.o(e))
        cycles.append(
            EdgePath((e,) + back.edges, (1,) + back.signs, (g.o(e),) + back.vertices)
        )
    return cycles


def compute_signs(g, h, edge_map, seed=None):
    """For each edge u, the sign ratio on one simple cycle through the base
    and u and on its image."""
    base = g.base_edge
    signs = {base: 1}
    for u in g.edge_ids:
        if u == base:
            continue
        cyc = cycle_through_edges(g, base, u, seed=seed)
        src_signs = dict(zip(cyc.edges, cyc.signs))
        img_signs = _traverse_edge_subset_cycle(h, {edge_map[e] for e in cyc.edges})
        flip = img_signs[edge_map[base]]
        signs[u] = img_signs[edge_map[u]] * flip * src_signs[u] * src_signs[base]
    return signs
