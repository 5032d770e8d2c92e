"""Directed multigraphs with stable edge ids.

Parallel edges are allowed, loops are forbidden, and every graph carries a
base orientation (the tail/head data of each edge) together with a
distinguished base edge.  All operations are pure; graphs are immutable
after construction.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BaseEdgeInArch,
    Disconnected,
    DuplicateEdgeId,
    LoopEdge,
    MissingBaseEdge,
    NoCommonCycle,
    NotTwoConnected,
    NotTwoEdgeConnected,
)


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


@dataclass(frozen=True)
class EdgePath:
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


@dataclass(frozen=True)
class Arch:
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
    """(no cut vertex, no bridge), read off the cycle basis.  A bridge is an
    edge of zero signature.  With 3 or more vertices g has no cut vertex iff
    its cycle matroid is connected (Whitney), that is iff it is bridgeless
    and its fundamental cycles form one class under sharing an edge; the
    class of cycle 0 is spread once, each newly reached cycle pushed once."""
    basis = cycle_basis(g, None)
    bridgeless = all(basis.signatures)
    if len(g.vertices) < 3 or not bridgeless:
        return (len(g.vertices) == 2, bridgeless)
    signature = dict(zip(g.edge_ids, basis.signatures))
    reached, stack = 1, [0]
    while stack:
        for e in basis.cycles[stack.pop()].edges:
            new = signature[e] & ~reached
            reached |= new
            while new:
                low = new & -new
                stack.append(low.bit_length() - 1)
                new ^= low
    return (reached == (1 << len(basis.cycles)) - 1, True)


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
    """Partition edges into series classes (pairs whose removal disconnects).

    In a bridgeless graph two edges form a cut exactly when they lie on the
    same fundamental cycles, so the classes are the edges of equal
    signature; an edge on no fundamental cycle is a bridge.  Each class and
    the list of classes come out in edge-id order, since edges are met in
    that order."""
    blocks = {}
    for e, signature in zip(g.edge_ids, cycle_basis(g, None).signatures):
        if not signature:
            raise NotTwoEdgeConnected("series classes require a 2-edge-connected graph")
        blocks.setdefault(signature, []).append(e)
    return [tuple(b) for b in blocks.values()]


# -- cycles ------------------------------------------------------------------


def cycle_through_edges(g, a, b, seed=None):
    """A simple cycle through both edges, deterministic unless seeded."""
    if a == b or not (g.has_edge(a) and g.has_edge(b)):
        raise NoCommonCycle(f"need two distinct edges, got {a!r}, {b!r}")
    rng = random.Random(seed) if seed is not None else None
    start, first_stop = g.o(a), g.t(a)
    target = start

    def frame(v):
        candidates = g.incident(v)
        if rng is not None:
            rng.shuffle(candidates)
        return [v, candidates, 0]

    # Depth-first search over simple paths extending edge `a` forward, on an
    # explicit stack of [vertex, its candidate edges, next position].  Every
    # frame but the first was entered by one step of `path`, undone on exit.
    path = [(a, 1, first_stop)]
    used_edges = {a}
    visited = {start, first_stop}
    stack = [frame(first_stop)]
    res = None
    while stack and res is None:
        top = stack[-1]
        current, candidates, pos = top
        if pos == len(candidates):
            stack.pop()
            if stack:
                e, _, w = path.pop()
                used_edges.discard(e)
                visited.discard(w)
            continue
        top[2] = pos + 1
        e = candidates[pos]
        if e in used_edges:
            continue
        w = g.other_end(e, current)
        sign = 1 if g.o(e) == current else -1
        if w == target:
            if b in used_edges or e == b:
                res = path + [(e, sign, w)]
            continue
        if w in visited:
            continue
        path.append((e, sign, w))
        used_edges.add(e)
        visited.add(w)
        stack.append(frame(w))
    if res is None:
        raise NoCommonCycle(f"no simple cycle through {a!r} and {b!r}")
    return EdgePath.walk(start, res)


class CycleBasis(NamedTuple):
    """Fundamental cycles of one spanning tree, one per non-tree edge in
    edge-id order; each edge's GF(2) signature (aligned with `edge_ids`):
    the bitmask of the fundamental cycles that contain it; and the tree as
    its `bfs_tree` steps."""

    cycles: tuple
    signatures: tuple
    tree: tuple


@lru_cache(maxsize=256)
def cycle_basis(g, seed):
    """The fundamental cycles, edge signatures and spanning tree of g.  The
    tree is `bfs_tree` from t(base) when `seed` is None, else from a vertex
    drawn from `seed`; pass `seed` positionally, so that one graph has one
    cache entry.  Each cycle crosses its non-tree edge e tail-to-head and
    returns from t(e) to o(e) through the tree."""
    root = g.base_head if seed is None else random.Random(seed).choice(g.vertex_ids)
    tree = tuple(bfs_tree(g, root))
    up = {w: (e, u) for u, e, w in tree}  # vertex -> (tree edge to its parent, parent)
    depth = {root: 0}
    for u, _, w in tree:
        depth[w] = depth[u] + 1

    def tree_steps(src, dst):
        """(edge, sign, vertex reached) along the tree path src -> dst."""
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

    tree_edges = {e for _, e, _ in tree}
    cycles = []
    bits = dict.fromkeys(g.edge_ids, 0)
    for e in g.edge_ids:
        if e in tree_edges:
            continue
        o, t = g.ends(e)
        steps = [(e, 1, t)] + tree_steps(t, o)
        for f, _, _ in steps:
            bits[f] |= 1 << len(cycles)
        cycles.append(EdgePath.walk(o, steps))
    return CycleBasis(tuple(cycles), tuple(bits.values()), tree)


def fundamental_cycles(g):
    """genus(g) independent simple cycles from the breadth-first tree at t(base)."""
    return list(cycle_basis(g, None).cycles)


def bfs_tree(g, root):
    """The breadth-first search tree of g from root as (u, e, w) steps in
    visiting order: e joins the reached vertex u to the new vertex w.  Each
    vertex's edges are taken in edge-id order."""
    steps, seen, queue = [], {root}, [root]
    for u in queue:
        for e in g.incident(u):
            w = g.other_end(e, u)
            if w not in seen:
                seen.add(w)
                steps.append((u, e, w))
                queue.append(w)
    return steps


def components(g, removed_vertices=(), removed_edges=()):
    """Vertex -> index of its connected component once the given vertices
    and edges are removed (removed vertices are left out).  Components are
    numbered 0, 1, ... in the order of their first vertex in vertex_ids."""
    comp, count = {}, 0
    for v in g.vertex_ids:
        if v in comp or v in removed_vertices:
            continue
        comp[v] = count
        stack = [v]
        while stack:
            x = stack.pop()
            for e in g.incident(x):
                y = g.other_end(e, x)
                if y in comp or y in removed_vertices or e in removed_edges:
                    continue
                comp[y] = count
                stack.append(y)
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
    both the union and its complement hold one."""
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
    return sorted(
        arches,
        key=lambda a: (
            tuple(id_key(t) for t in a.tips),
            tuple(sorted((id_key(e) for e in a.edges))),
        ),
    )


def whitney_move(g, arch):
    """Reglue the arch with its tips swapped; edges keep their orientation.

    Returns the new graph together with the identity-on-edge-ids morphism,
    whose sign function is -1 exactly on the arch edges.
    """
    if g.base_edge in arch.edges:
        raise BaseEdgeInArch("base edge may not lie in the moved arch")
    v, w = arch.tips

    def swap(x):
        if x == v:
            return w
        if x == w:
            return v
        return x

    triples = []
    for e in g.edge_ids:
        a, b = g.ends(e)
        if e in arch.edges:
            a, b = swap(a), swap(b)
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
