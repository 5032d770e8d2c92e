"""Directed multigraphs with stable edge ids.

Parallel edges are allowed, loops are forbidden, and every graph carries a
base orientation (the tail/head data of each edge) together with a
distinguished base edge.  All operations are pure; graphs are immutable
after construction.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BaseEdgeInArch,
    Disconnected,
    DuplicateEdgeId,
    EnumerationBoundExceeded,
    LoopEdge,
    MissingBaseEdge,
    NoCommonCycle,
    NotTwoConnected,
    NotTwoEdgeConnected,
)

MAX_ARCHES = 10**4  # find_arches raises past this many arches (each holds two edge sets)
# cycle_through_edges raises past this many depth-first steps: ten times the
# most that one call takes in the test suite (82,981).
MAX_PATH_STEPS = 830_000


def id_key(x):
    """Canonical sort key for caller-supplied (string or integer) ids."""
    return (x.__class__.__name__, x)


class Multigraph:
    """A connected, loopless directed multigraph with a base edge."""

    __slots__ = ("_vertices", "_edges", "_base", "_incidence", "_edge_ids", "_index", "_key", "_hash")

    def __init__(self, vertices, edges, base_edge):
        self._vertices = frozenset(vertices)
        self._edges = dict(edges)
        self._base = base_edge
        self._edge_ids = tuple(sorted(self._edges, key=id_key))
        self._incidence = {v: [] for v in self._vertices}
        for e in self._edge_ids:
            o, t = self._edges[e]
            self._incidence[o].append(e)
            self._incidence[t].append(e)
        self._key = (
            tuple(sorted(self._vertices, key=id_key)),
            tuple((e, self._edges[e]) for e in self._edge_ids),
            base_edge,
        )
        self._index = {v: i for i, v in enumerate(self._key[0])}
        self._hash = hash(self._key)

    # -- basic accessors -----------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return dict(self._edges)

    @property
    def edge_ids(self):
        """The edge ids in `id_key` order."""
        return self._edge_ids

    @property
    def vertex_ids(self):
        """The vertex ids in `id_key` order."""
        return self._key[0]

    @property
    def vertex_index(self):
        """Vertex -> its position in vertex_ids (read-only)."""
        return self._index

    @property
    def base_edge(self):
        return self._base

    def o(self, e):
        return self._edges[e][0]

    def t(self, e):
        return self._edges[e][1]

    def ends(self, e):
        return self._edges[e]

    def other_end(self, e, v):
        o, t = self._edges[e]
        return t if v == o else o

    @property
    def base_tail(self):
        return self.o(self._base)

    @property
    def base_head(self):
        return self.t(self._base)

    def incident(self, v):
        """A new list of the edges at v in `id_key` order (filled from
        edge_ids)."""
        return list(self._incidence[v])

    def degree(self, v):
        return len(self._incidence[v])

    @property
    def genus(self):
        return len(self._edges) - len(self._vertices) + 1

    def has_edge(self, e):
        return e in self._edges

    def edges_between(self, u, v):
        pair = frozenset((u, v))
        return [e for e in self._incidence[u] if frozenset(self._edges[e]) == pair]

    def with_base(self, base_edge):
        if base_edge not in self._edges:
            raise MissingBaseEdge(f"edge {base_edge!r} not in graph")
        if base_edge == self._base:
            return self
        return Multigraph(self._vertices, self._edges, base_edge)

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"Multigraph({len(self._vertices)} vertices, "
            f"{len(self._edges)} edges, base={self._base!r})"
        )


class EdgePath(NamedTuple):
    """A walk through the graph: edges in order with traversal signs.

    ``signs[i]`` is +1 when ``edges[i]`` is crossed tail-to-head and -1
    otherwise.  ``vertices`` lists the visited vertices, one more than the
    number of edges; a cycle closes up (first vertex equals last).
    """

    edges: tuple
    signs: tuple
    vertices: tuple

    @classmethod
    def walk(cls, start, steps):
        """The path from start along (edge, sign, vertex reached) steps."""
        return cls(
            tuple(e for e, _, _ in steps),
            tuple(s for _, s, _ in steps),
            (start,) + tuple(w for _, _, w in steps),
        )

    @property
    def is_cycle(self):
        return len(self.vertices) > 1 and self.vertices[0] == self.vertices[-1]

    def coefficients(self):
        """Edge -> net traversal sign (each edge of a simple path appears once)."""
        out = {}
        for e, s in zip(self.edges, self.signs):
            out[e] = out.get(e, 0) + s
            if out[e] == 0:
                del out[e]
        return out


class Arch(NamedTuple):
    """An edge subset meeting its complement in exactly two tip vertices."""

    edges: frozenset
    tips: tuple
    complement: frozenset


# -- construction ------------------------------------------------------------


def build_graph(edge_list, base_edge):
    """Validate and build a Multigraph from (edge-id, tail, head) triples."""
    edges = {}
    vertices = set()
    for eid, tail, head in edge_list:
        if eid in edges:
            raise DuplicateEdgeId(f"duplicate edge id {eid!r}")
        if tail == head:
            raise LoopEdge(f"edge {eid!r} is a loop at {tail!r}")
        edges[eid] = (tail, head)
        vertices.add(tail)
        vertices.add(head)
    if base_edge not in edges:
        raise MissingBaseEdge(f"base edge {base_edge!r} not among edges")
    g = Multigraph(vertices, edges, base_edge)
    if len(bfs_tree(g, g.base_tail)) != len(g.vertices) - 1:
        raise Disconnected("underlying graph is not connected")
    return g


# -- invariants --------------------------------------------------------------


def biconnectivity(g):
    """(no cut vertex, no bridge), read off the cycle signatures.  A bridge
    is an edge of zero signature.  With 3 or more vertices g has no cut
    vertex iff its cycle matroid is connected (Whitney), that is iff it is
    bridgeless and the signatures tie every fundamental cycle to cycle 0
    (`tie_bits`)."""
    signatures = cycle_basis(g, None).signatures
    bridgeless = all(signatures)
    if len(g.vertices) < 3 or not bridgeless:
        return (len(g.vertices) == 2, bridgeless)
    return (tie_bits([(s, 0) for s in signatures], 0, g.genus)[0] == (1 << g.genus) - 1, True)


def connectivity_profile(g):
    """Return (is 2-connected, exact edge connectivity)."""
    if len(g.vertices) < 2:
        return (False, 0)
    two_connected, _ = biconnectivity(g)
    s = g.vertex_ids[0]
    k = min(_max_flow(g, s, t) for t in g.vertex_ids if t != s)
    return (two_connected, k)


def _max_flow(g, s, t):
    """Number of edge-disjoint s-t paths, by breadth-first augmenting paths
    on residual capacities kept per adjacency list."""
    cap = {v: {} for v in g.vertex_ids}
    for e in g.edge_ids:
        u, v = g.ends(e)
        cap[u][v] = cap[u].get(v, 0) + 1
        cap[v][u] = cap[v].get(u, 0) + 1
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for w, c in cap[u].items():
                if c > 0 and w not in parent:
                    parent[w] = u
                    queue.append(w)
        if t not in parent:
            return flow
        arcs = []
        w = t
        while parent[w] is not None:
            arcs.append((parent[w], w))
            w = parent[w]
        push = min(cap[u][w] for u, w in arcs)
        for u, w in arcs:
            cap[u][w] -= push
            cap[w][u] += push
        flow += push


def series_classes(g):
    """Partition edges into series classes (pairs whose removal disconnects),
    each class and the list of classes in edge-id order (`series_table`).
    The table shares one tuple per class, so classes are told apart by identity."""
    return list({id(block): block for block, _ in series_table(g).values()}.values())


@lru_cache(maxsize=256)
def series_table(g):
    """Edge -> (its series class, its direction on the class's circuit).

    In a bridgeless graph two edges form a cut exactly when they lie on the
    same fundamental cycles, so the classes are the edges of equal
    signature; an edge on no fundamental cycle is a bridge.  The circuit is
    the class's first fundamental cycle, and the direction +1 or -1 as that
    cycle crosses the edge tail-to-head or not.  Edges are met in edge-id
    order, so each class and the table come out in that order."""
    basis = cycle_basis(g, None)
    blocks = {}
    for e, signature in zip(g.edge_ids, basis.signatures):
        if not signature:
            raise NotTwoEdgeConnected("series classes require a 2-edge-connected graph")
        blocks.setdefault(signature, []).append(e)
    class_of = {e: block for block in map(tuple, blocks.values()) for e in block}
    masks = zip(g.edge_ids, basis.signatures, basis.forward)
    return {e: (class_of[e], 1 if forward & s & -s else -1) for e, s, forward in masks}


# -- cycles ------------------------------------------------------------------


def cycle_through_edges(g, a, b, seed=None):
    """A simple cycle through both edges, deterministic unless seeded.  The
    search over simple paths is exponential; it raises past MAX_PATH_STEPS
    steps, each extending the path by one edge."""
    if a == b or not (g.has_edge(a) and g.has_edge(b)):
        raise NoCommonCycle(f"need two distinct edges, got {a!r}, {b!r}")
    rng = random.Random(seed) if seed is not None else None
    start, first_stop = g.o(a), g.t(a)

    def frame(v):
        candidates = g.incident(v)
        if rng is not None:
            rng.shuffle(candidates)
        return v, iter(candidates)

    # Depth-first search over simple paths extending edge `a` forward, on an
    # explicit stack of (vertex, iterator over its candidate edges).  Every
    # frame but the first was entered by one step of `path`, undone on exit.
    path = [(a, 1, first_stop)]
    used_edges = {a}
    visited = {start, first_stop}
    stack = [frame(first_stop)]
    steps = 0
    while stack:
        current, candidates = stack[-1]
        for e in candidates:
            if e in used_edges:
                continue
            o, t = g.ends(e)
            w, sign = (t, 1) if o == current else (o, -1)
            if w == start:
                if b in used_edges or e == b:
                    return EdgePath.walk(start, path + [(e, sign, w)])
            elif w not in visited:
                break
        else:
            stack.pop()
            if stack:
                e, _, w = path.pop()
                used_edges.discard(e)
                visited.discard(w)
            continue
        steps += 1
        if steps > MAX_PATH_STEPS:
            raise EnumerationBoundExceeded(MAX_PATH_STEPS, MAX_PATH_STEPS + 1, "search steps")
        path.append((e, sign, w))
        used_edges.add(e)
        visited.add(w)
        stack.append(frame(w))
    raise NoCommonCycle(f"no simple cycle through {a!r} and {b!r}")


class CycleBasis(NamedTuple):
    """A spanning tree as its `bfs_tree` steps, and two GF(2) masks per edge
    (aligned with `edge_ids`) over its fundamental cycles, bit i the cycle
    of the i-th non-tree edge e in edge-id order, which crosses e
    tail-to-head and returns from t(e) to o(e) through the tree:
    `signatures`, the cycles through the edge, and `forward`, those of them
    that cross it tail-to-head."""

    tree: tuple
    signatures: tuple
    forward: tuple


@lru_cache(maxsize=256)
def cycle_basis(g, seed):
    """The `CycleBasis` of g, walking no cycle (`cycle_masks`): its tree is
    `bfs_tree` from t(base), or from a vertex drawn from `seed` if one is
    given; pass `seed` positionally, so that one graph has one cache entry."""
    root = g.base_head if seed is None else random.Random(seed).choice(g.vertex_ids)
    tree = tuple(bfs_tree(g, root))
    tree_edges = {e for _, e, _ in tree}
    chords = (e for e in g.edge_ids if e not in tree_edges)
    masks = cycle_masks(g, tree, {e: 1 << i for i, e in enumerate(chords)})
    return CycleBasis(tree, *zip(*(masks[e] for e in g.edge_ids)))


def cycle_masks(g, tree, bits):
    """Edge -> (signature, forward) as in `CycleBasis`, for a spanning tree of
    g as (u, e, w) steps, parents first, and `bits`: non-tree edge -> its
    cycle's bit.  A tree step lies on the cycles of the non-tree edges with
    one end below it, and such a cycle climbs across it iff that edge's head
    is below: both masks are per-vertex masks XOR-ed up the tree."""
    ends = dict.fromkeys(g.vertex_ids, 0)  # vertex -> bits of the non-tree edges at it
    heads = dict.fromkeys(g.vertex_ids, 0)  # vertex -> bits of those with their head there
    masks = {}
    for e, b in bits.items():
        o, t = g.ends(e)
        ends[o] ^= b
        ends[t] ^= b
        heads[t] ^= b
        masks[e] = (b, b)
    for u, e, w in reversed(tree):
        s = ends[w]
        climbing = heads[w] & s
        masks[e] = (s, climbing if g.t(e) == u else s ^ climbing)
        ends[u] ^= s
        heads[u] ^= heads[w]
    return masks


def tie_bits(rows, start, width):
    """(tied, x): the bits tied to bit `start` and a solution x on them with
    x_start = 0, each row (mask, parity) tying its bits i, j by
    x_i ^ parity_i = x_j ^ parity_j (a contradiction is not detected here).
    Classes merge smaller into larger, so a bit moves at most log2(width)
    times, and a row that merges nothing costs a few mask operations."""
    owner = list(range(width))  # bit -> the key of its class
    members = [[i] for i in range(width)]  # key -> the bits of its class
    span = [1 << i for i in range(width)]  # key -> the same as a mask
    value = [0] * width  # key -> x on its class, up to complement
    for s, d in rows:
        i = (s & -s).bit_length() - 1
        while s & ~span[owner[i]]:
            a = owner[i]
            rest = s & ~span[a]
            j = (rest & -rest).bit_length() - 1
            b = owner[j]
            if (value[a] ^ d) >> i & 1 != (value[b] ^ d) >> j & 1:
                value[b] ^= span[b]
            if len(members[a]) < len(members[b]):
                a, b = b, a
            span[a] |= span[b]
            value[a] |= value[b]
            members[a] += members[b]
            for k in members[b]:
                owner[k] = a
    key = owner[start]
    return span[key], value[key] ^ (span[key] if value[key] >> start & 1 else 0)


def fundamental_cycles(g):
    """genus(g) independent simple cycles, built on demand from
    `cycle_basis`: one per non-tree edge f in edge-id order, crossing f
    tail-to-head and returning from t(f) to o(f) along the edges that share
    its bit of signature (two at each vertex of the cycle)."""
    basis = cycle_basis(g, None)
    signature = dict(zip(g.edge_ids, basis.signatures))
    tree_edges = {e for _, e, _ in basis.tree}
    cycles = []
    for f in (f for f in g.edge_ids if f not in tree_edges):
        (o, v), bit = g.ends(f), signature[f]
        steps = [(f, 1, v)]
        while v != o:
            e = next(e for e in g.incident(v) if signature[e] & bit and e != steps[-1][0])
            v = g.other_end(e, v)
            steps.append((e, 1 if g.t(e) == v else -1, v))
        cycles.append(EdgePath.walk(o, steps))
    return cycles


def bfs_tree(g, root, edges=None):
    """The breadth-first search tree from root of g, or of the edges of g in
    the set `edges` if one is given, as (u, e, w) steps in visiting order: e
    joins the reached vertex u to the new vertex w, so a parent comes before
    its children.  Each vertex's edges are taken in edge-id order."""
    steps, seen, queue = [], {root}, [root]
    incidence, ends = g._incidence, g._edges
    for u in queue:
        for e in incidence[u]:
            o, w = ends[e]
            if w == u:
                w = o
            if w not in seen and (edges is None or e in edges):
                seen.add(w)
                steps.append((u, e, w))
                queue.append(w)
    return steps


def components(g, removed_vertices=(), removed_edges=()):
    """Vertex -> index of its connected component once the given vertices
    and edges are removed (removed vertices are left out): one `bfs_tree`
    over the kept edges from each vertex not yet reached.  Components are
    numbered 0, 1, ... in the order of their first vertex in vertex_ids."""
    kept = set(g.edge_ids).difference(removed_edges, *(g._incidence[v] for v in removed_vertices))
    comp, count = {}, 0
    for v in g.vertex_ids:
        if v in comp or v in removed_vertices:
            continue
        comp[v] = count
        for _, _, w in bfs_tree(g, v, kept):
            comp[w] = count
        count += 1
    return comp


def shortest_path(g, src, dst):
    """Deterministic BFS path: the path from src to dst in bfs_tree(g, src)."""
    up = {w: (u, e) for u, e, w in bfs_tree(g, src)}
    steps = []
    node = dst
    while node != src:
        u, e = up[node]
        steps.append((e, 1 if g.t(e) == node else -1, node))
        node = u
    return EdgePath.walk(src, steps[::-1])


# -- arches and Whitney moves ------------------------------------------------


def find_arches(g):
    """All arches, found by testing every 2-vertex separator {v, w}.  In a
    2-connected graph every component of g - {v, w} meets both v and w, so
    a union of bridges at {v, w} spans at least 3 vertices exactly when it
    holds a component's bridge: the arches there are the unions in which
    both the union and its complement hold one: (2^k - 2) 2^d for k component
    bridges and d v-w edges, counted against MAX_ARCHES before listing."""
    two_conn, _ = biconnectivity(g)
    if not two_conn:
        raise NotTwoConnected("arches require a 2-connected graph")
    arches = []
    for v, w in combinations(g.vertex_ids, 2):
        removed = {v, w}
        comp_of = components(g, removed_vertices=removed)
        bridges, direct = {}, []
        for e in g.edge_ids:
            inner = [u for u in g.ends(e) if u not in removed]
            if inner:
                bridges.setdefault(comp_of[inner[0]], set()).add(e)
            else:
                direct.append({e})
        parts = list(bridges.values())
        k = len(parts)
        if k < 2:
            continue
        if len(arches) + (((1 << k) - 2) << len(direct)) > MAX_ARCHES:
            raise EnumerationBoundExceeded(MAX_ARCHES, MAX_ARCHES + 1, "arches")
        parts += direct
        all_bridges = (1 << k) - 1
        for mask in range(1, 1 << len(parts)):
            if not 0 < mask & all_bridges < all_bridges:
                continue
            x = set()
            for i, part in enumerate(parts):
                if mask & (1 << i):
                    x |= part
            comp = set(g.edge_ids) - x
            arches.append(Arch(frozenset(x), (v, w), frozenset(comp)))
    arches.sort(key=lambda a: (tuple(map(id_key, a.tips)), sorted(map(id_key, a.edges))))
    return arches


def whitney_move(g, arch):
    """Reglue the arch with its tips swapped; edges keep their orientation.

    Returns the new graph together with the identity-on-edge-ids morphism,
    whose sign function is -1 exactly on the arch edges.
    """
    if g.base_edge in arch.edges:
        raise BaseEdgeInArch("base edge may not lie in the moved arch")
    v, w = arch.tips
    swap = {v: w, w: v}
    triples = []
    for e in g.edge_ids:
        a, b = g.ends(e)
        if e in arch.edges:
            a, b = swap.get(a, a), swap.get(b, b)
        triples.append((e, a, b))
    moved = build_graph(triples, g.base_edge)
    from .orcyc import make_morphism

    morphism = make_morphism(g, moved, {e: e for e in g.edge_ids})
    return moved, morphism


# -- counting ----------------------------------------------------------------


def spanning_tree_count(g):
    """Number of spanning trees: the reduced Laplacian determinant, by
    fraction-free (Bareiss) integer elimination."""
    verts = [v for v in g.vertex_ids][1:]
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    mat = [[0] * n for _ in range(n)]
    for e in g.edge_ids:
        a, b = g.ends(e)
        if a in index:
            mat[index[a]][index[a]] += 1
        if b in index:
            mat[index[b]][index[b]] += 1
        if a in index and b in index:
            mat[index[a]][index[b]] -= 1
            mat[index[b]][index[a]] -= 1
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k] != 0), None)
        if pivot is None:
            return 0
        mat[k], mat[pivot] = mat[pivot], mat[k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                mat[r][c] = (mat[r][c] * mat[k][k] - mat[r][k] * mat[k][c]) // prev
        prev = mat[k][k]
    return abs(prev)
