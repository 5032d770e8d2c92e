"""The graph-structure layer as first written, kept as a test oracle:
2-connectivity by removing each vertex in turn, edge connectivity by
max-flows that rescan a capacity dict, series classes by testing every
pair of edges for a cut, fundamental cycles by a breadth-first search in
the spanning tree, signs from one cycle through the base per edge with
its image traversed as a simple cycle, the lift to a graph isomorphism
that rebuilds phi_* and the vertex-class table on every call and grows
the vertex map edge by edge, and Θ preservation as a comparison of the
two enumerated Θ sets."""

from collections import deque
from itertools import combinations

from rigidlift.divisor import Divisor, DivisorClass, theta_divisor, vertex_divisor
from rigidlift.errors import (
    InternalError,
    InvalidCyclicBijection,
    MorphismNotRigid,
    NotTwoEdgeConnected,
)
from rigidlift.multigraph import EdgePath, bfs_tree, cycle_through_edges, id_key
from rigidlift.orcyc import (
    _require_genus,
    _verify_isomorphism,
    pushforward_orientation,
)
from rigidlift.orientation import base_orientation, chern_class


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
