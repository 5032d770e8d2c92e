"""The graph-structure layer as first written, kept as a test oracle:
2-connectivity by removing each vertex in turn, edge connectivity by
max-flows that rescan a capacity dict, series classes by testing every
pair of edges for a cut, fundamental cycles by a breadth-first search in
the spanning tree, the cycle basis and the signs as a walk of every
fundamental cycle in the source's tree and in its image (`walk_basis`,
`walk_signs`), signs from one cycle through the base per edge with its
image traversed as a simple cycle, the lift to a graph isomorphism
that rebuilds phi_* and the vertex-class table on every call and grows
the vertex map edge by edge, and Θ preservation as a comparison of the
two enumerated Θ sets."""

import random
from collections import deque
from itertools import combinations

from rigidlift.divisor import Divisor, DivisorClass, theta_divisor, vertex_divisor
from rigidlift.errors import (
    InternalError,
    InvalidCyclicBijection,
    MorphismNotRigid,
    NoCommonCycle,
    NotTwoEdgeConnected,
)
from rigidlift.multigraph import EdgePath, bfs_tree, cycle_through_edges, id_key
from rigidlift.orcyc import (
    _require_genus,
    _verify_isomorphism,
    pushforward_orientation,
)
from rigidlift.orientation import base_orientation, chern_class


def bfs_tree_loop(g, root):
    """The breadth-first tree loop as first written: each vertex's edges
    through the public `incident` and `other_end`."""
    steps, seen, queue = [], {root}, [root]
    for u in queue:
        for e in g.incident(u):
            w = g.other_end(e, u)
            if w not in seen:
                seen.add(w)
                steps.append((u, e, w))
                queue.append(w)
    return steps


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
    tree = {e for _, e, _ in bfs_tree(g, g.base_head)}
    cycles = []
    for e in g.edge_ids:
        if e in tree:
            continue
        back = tree_path(g, tree, g.t(e), g.o(e))
        cycles.append(
            EdgePath((e,) + back.edges, (1,) + back.signs, (g.o(e),) + back.vertices)
        )
    return cycles


def _walk(g, up, depth, src, dst):
    """(edge, sign, vertex reached) along src -> dst in the tree of up, depth."""
    rising, falling = [], []
    a, b = src, dst
    while a != b:
        if depth[a] >= depth[b]:
            e, p = up[a]
            rising.append((e, 1 if g.t(e) == p else -1, p))
            a = p
        else:
            e, p = up[b]
            falling.append((e, 1 if g.t(e) == b else -1, b))
            b = p
    return rising + falling[::-1]


def _rooted(g, edges, root):
    """(up, depth) of the tree that `edges` form in g, from root: up maps
    each vertex reached but root to (edge to its parent, parent)."""
    near = {v: [] for v in g.vertex_ids}
    for e in edges:
        a, b = g.ends(e)
        near[a].append((e, b))
        near[b].append((e, a))
    up, depth, order = {}, {root: 0}, [root]
    for u in order:
        for e, w in near[u]:
            if w not in depth:
                up[w], depth[w] = (e, u), depth[u] + 1
                order.append(w)
    return up, depth


def walk_basis(g, seed=None):
    """(cycles, signatures, forward, tree) of `multigraph.cycle_basis` by
    walking each fundamental cycle: one EdgePath per non-tree edge e in
    edge-id order, crossing e tail-to-head and returning from t(e) to o(e)
    through `bfs_tree` from t(base) (from a vertex drawn from `seed` when
    given); per edge, the bitmask of the cycles through it and of those
    that cross it tail-to-head."""
    root = g.base_head if seed is None else random.Random(seed).choice(g.vertex_ids)
    tree = tuple(bfs_tree(g, root))
    up, depth = _rooted(g, [e for _, e, _ in tree], root)
    tree_edges = {e for _, e, _ in tree}
    cycles = []
    bits = dict.fromkeys(g.edge_ids, 0)
    forward = dict.fromkeys(g.edge_ids, 0)
    for e in g.edge_ids:
        if e in tree_edges:
            continue
        o, t = g.ends(e)
        steps = [(e, 1, t)] + _walk(g, up, depth, t, o)
        for f, sign, _ in steps:
            bits[f] |= 1 << len(cycles)
            if sign == 1:
                forward[f] |= 1 << len(cycles)
        cycles.append(EdgePath.walk(o, steps))
    return cycles, tuple(bits.values()), tuple(forward.values()), tree


def walk_parity(g, h, edge_map):
    """Whether the image of each walked fundamental cycle of g meets every
    vertex of h in an even number of edge ends (genera equal)."""
    if g.genus != h.genus:
        return False
    for cyc in walk_basis(g)[0]:
        odd = set()
        for e in cyc.edges:
            odd.symmetric_difference_update(h.ends(edge_map[e]))
        if odd:
            return False
    return True


def walk_signs(g, h, edge_map, seed=None):
    """The sign function as `orcyc.compute_signs` first read it: the image
    of each fundamental cycle walked in the image of the source's tree,
    one sign ratio per edge of each cycle, spread from the base across
    cycles that share an edge, with every cycle's ratios checked against
    the signs already known."""
    if g.genus != h.genus:
        raise InvalidCyclicBijection("source and target genera differ")
    cycles, _, _, tree = walk_basis(g, seed)
    up, depth = _rooted(h, [edge_map[e] for _, e, _ in tree], h.base_head)
    if len(depth) != len(h.vertex_ids):
        raise InvalidCyclicBijection("the image of a spanning tree is not a spanning tree")
    ratios, cycles_of = [], {}
    for cyc in cycles:
        r = edge_map[cyc.edges[0]]
        img = {f: s for f, s, _ in _walk(h, up, depth, h.t(r), h.o(r))}
        img[r] = 1
        ratio = {e: s * img.get(edge_map[e], 0) for e, s in zip(cyc.edges, cyc.signs)}
        if len(img) != len(ratio) or 0 in ratio.values():
            raise InvalidCyclicBijection("image of a simple cycle is not a simple cycle")
        for e in cyc.edges:
            cycles_of.setdefault(e, []).append(len(ratios))
        ratios.append(ratio)
    base = g.base_edge
    if base not in cycles_of:
        raise NoCommonCycle(f"the base {base!r} lies on no cycle")
    signs = {base: 1}
    queue = deque((i, base) for i in cycles_of[base])
    reached = {i for i, _ in queue}
    while queue:
        i, known = queue.popleft()
        eps = signs[known] * ratios[i][known]
        for e, ratio in ratios[i].items():
            if signs.setdefault(e, eps * ratio) != eps * ratio:
                raise InvalidCyclicBijection(f"cycles disagree on the sign of {e!r}")
            for j in cycles_of[e]:
                if j not in reached:
                    reached.add(j)
                    queue.append((j, e))
    for u in g.edge_ids:
        if u not in signs:
            raise NoCommonCycle(f"no simple cycle through {base!r} and {u!r}")
    return signs


def _traverse_edge_subset_cycle(h, edge_set):
    """{edge: +1/-1}: the traversal signs of the simple cycle edge_set of h,
    in the direction that crosses its lowest edge id tail-to-head."""
    incid = {}
    for e in edge_set:
        for v in h.ends(e):
            incid.setdefault(v, []).append(e)
    if any(len(es) != 2 for es in incid.values()):
        raise InvalidCyclicBijection("image of a simple cycle is not a simple cycle")
    start_edge = min(edge_set, key=id_key)
    signs = {start_edge: 1}
    stop, current = h.ends(start_edge)
    prev_edge = start_edge
    while current != stop:
        a, b = incid[current]
        nxt = b if a == prev_edge else a
        o, t = h.ends(nxt)
        if o == current:
            signs[nxt], current = 1, t
        else:
            signs[nxt], current = -1, o
        prev_edge = nxt
    if len(signs) != len(edge_set):
        raise InvalidCyclicBijection("image cycle does not close up")
    return signs


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


def pushforward(m):
    """phi_* on divisors, built afresh on every call."""
    g, h = m.source, m.target
    emap, sgn = dict(m.edge_map), dict(m.signs)
    img = {g.base_head: {}}
    queue = deque([g.base_head])
    while queue:
        u = queue.popleft()
        for e in g.incident(u):
            w = g.other_end(e, u)
            if w in img:
                continue
            c = sgn[e] if g.t(e) == w else -sgn[e]
            r = emap[e]
            step = dict(img[u])
            step[h.t(r)] = step.get(h.t(r), 0) + c
            step[h.o(r)] = step.get(h.o(r), 0) - c
            img[w] = step
            queue.append(w)
    t0 = h.base_head

    def push(d):
        coeffs = {t0: d.degree}
        for v, k in d.items():
            for w, a in img[v].items():
                coeffs[w] = coeffs.get(w, 0) + k * a
        return Divisor(h, coeffs)

    return push


def is_rigid(m):
    _require_genus(m)
    o_g = base_orientation(m.source)
    image = pushforward(m)(chern_class(o_g))
    return DivisorClass(m.target, image - chern_class(pushforward_orientation(m, o_g))).is_zero


def s1_image_preserved(m):
    _require_genus(m)
    g, h = m.source, m.target
    push = pushforward(m)
    src = {DivisorClass(h, push(vertex_divisor(g, v))) for v in g.vertices}
    return src == {DivisorClass(h, vertex_divisor(h, w)) for w in h.vertices}


def theta_preserved(m):
    """Push every class of Θ of the source, reduce each image into a class
    of the target, and compare the set with Θ of the target."""
    _require_genus(m)
    g, h = m.source, m.target
    push = pushforward(m)
    return {DivisorClass(h, push(c.representative)) for c in theta_divisor(g)} == theta_divisor(h)


def lift_to_graph_isomorphism(m):
    _require_genus(m)
    if not is_rigid(m):
        raise MorphismNotRigid("only rigid morphisms lift")
    g, h = m.source, m.target
    emap = dict(m.edge_map)
    push = pushforward(m)
    vertices_of_class = {}
    for r in h.vertex_ids:
        vertices_of_class.setdefault(DivisorClass(h, vertex_divisor(h, r)), []).append(r)
    block_of = {r: block for block in series_classes(h) for r in block}

    def locate(p):
        matches = vertices_of_class.get(DivisorClass(h, push(vertex_divisor(g, p))), [])
        if len(matches) != 1:
            raise InternalError(f"vertex image for {p!r} is not unique: {matches}")
        return matches[0]

    vertex_map = {g.base_head: h.base_head, g.base_tail: h.base_tail}
    assigned = {g.base_edge: h.base_edge}
    used = {h.base_edge}
    pending = [e for e in g.edge_ids if e != g.base_edge]
    while pending:
        progressed = False
        for e in list(pending):
            ends = g.ends(e)
            mapped = [v for v in ends if v in vertex_map]
            if not mapped:
                continue
            for p in ends:
                if p not in vertex_map:
                    vertex_map[p] = locate(p)
            a, b = (vertex_map[ends[0]], vertex_map[ends[1]])
            candidates = [
                r
                for r in block_of[emap[e]]
                if r not in used and frozenset(h.ends(r)) == frozenset((a, b))
            ]
            if not candidates:
                raise InternalError(
                    f"no unused series-class edge between {a!r} and {b!r} for {e!r}"
                )
            choice = min(candidates, key=id_key)
            assigned[e] = choice
            used.add(choice)
            pending.remove(e)
            progressed = True
        if not progressed:
            raise InternalError("lift construction stalled; graph disconnected?")

    psi = {emap[e]: assigned[e] for e in g.edge_ids}
    _verify_isomorphism(g, h, assigned, vertex_map)
    for r, r2 in psi.items():
        if r2 not in block_of[r]:
            raise InternalError("correction permutation is not series fixing")
    return psi, vertex_map


def vertex_image(m):
    """Source vertex p -> the target vertex r with phi_*[p] = [r], or None:
    q-reduces every target vertex class and every pushed source vertex."""
    g, h = m.source, m.target
    push = pushforward(m)
    vertex_of_class = {DivisorClass(h, vertex_divisor(h, r)): r for r in h.vertex_ids}
    return {
        p: vertex_of_class.get(DivisorClass(h, push(vertex_divisor(g, p))))
        for p in g.vertex_ids
    }


def find_arches(g):
    """Every proper edge subset whose vertex set meets its complement's in
    exactly two tips, each side spanning at least 3 vertices, sorted as
    `multigraph.find_arches` sorts them.  Subsets are bit masks over
    g.edge_ids; a vertex lies on a side when one of its edges does."""
    edges = g.edge_ids
    full = (1 << len(edges)) - 1
    incident = {v: 0 for v in g.vertex_ids}
    for i, e in enumerate(edges):
        for u in g.ends(e):
            incident[u] |= 1 << i
    arches = []
    for mask in range(1, full):
        x_verts = [v for v in g.vertex_ids if incident[v] & mask]
        comp_verts = [v for v in g.vertex_ids if incident[v] & ~mask & full]
        tips = tuple(v for v in x_verts if v in comp_verts)
        if len(tips) == 2 and len(x_verts) >= 3 and len(comp_verts) >= 3:
            x = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
            arches.append((tips, x, frozenset(edges) - x))
    return sorted(arches, key=lambda a: ([id_key(t) for t in a[0]], sorted(id_key(e) for e in a[1])))
