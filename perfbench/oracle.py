"""Reference computations that check the program's answers.

Nothing here imports rigidlift: a graph is a `Plain` (edge id -> (tail,
head) plus a base edge id), a divisor is a dict vertex -> int, and an
orientation is a dict edge id -> "F" | "B" | "U".  A defect in the library
therefore cannot hide itself by breaking the check in the same way.
"""

from collections import deque


class WrongAnswer(Exception):
    """An operation returned an answer that a check rejects."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


class Plain:
    """A multigraph as plain data."""

    __slots__ = ("edges", "base", "vertices", "adj")

    def __init__(self, edges, base):
        self.edges = dict(edges)
        self.base = base
        verts = set()
        for a, b in self.edges.values():
            verts.update((a, b))
        self.vertices = sorted(verts)
        self.adj = {v: [] for v in self.vertices}
        for e, (a, b) in self.edges.items():
            self.adj[a].append((e, b))
            self.adj[b].append((e, a))

    @classmethod
    def from_triples(cls, triples, base):
        return cls({e: (a, b) for e, a, b in triples}, base)

    @property
    def genus(self):
        return len(self.edges) - len(self.vertices) + 1

    @property
    def base_head(self):
        return self.edges[self.base][1]


# -- text formats ------------------------------------------------------------


def parse_divisor(text):
    out = {}
    for tok in text.split():
        if tok == "div":
            continue
        v, _, c = tok.partition(":")
        out[v] = out.get(v, 0) + int(c)
    return clean(out)


def parse_orientation(text):
    return dict(tok.split(":") for tok in text.split() if tok != "orient")


def clean(d):
    return {v: c for v, c in d.items() if c}


def add(d1, d2, k=1):
    out = dict(d1)
    for v, c in d2.items():
        out[v] = out.get(v, 0) + k * c
    return clean(out)


# -- counting ----------------------------------------------------------------


def spanning_tree_count(p):
    """Reduced-Laplacian determinant by fraction-free (Bareiss) elimination."""
    index = {v: i for i, v in enumerate(p.vertices[1:])}
    n = len(index)
    if n == 0:
        return 1
    m = [[0] * n for _ in range(n)]
    for a, b in p.edges.values():
        ia, ib = index.get(a), index.get(b)
        if ia is not None:
            m[ia][ia] += 1
        if ib is not None:
            m[ib][ib] += 1
        if ia is not None and ib is not None:
            m[ia][ib] -= 1
            m[ib][ia] -= 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _connected_without(p, removed):
    start = p.vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e, w in p.adj[v]:
            if e not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(p.vertices)


def series_classes(p):
    """Edge classes of a 2-edge-connected graph: e ~ f iff {e, f} is a cut."""
    edges = sorted(p.edges)
    parent = {e: e for e in edges}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if not _connected_without(p, {e, f}):
                parent[find(e)] = find(f)
    classes = {}
    for e in edges:
        classes.setdefault(find(e), set()).add(e)
    return {e: frozenset(classes[find(e)]) for e in edges}


# -- divisors ----------------------------------------------------------------


def _fire(p, d, fired, times):
    for a, b in p.edges.values():
        if (a in fired) != (b in fired):
            src, dst = (a, b) if a in fired else (b, a)
            d[src] -= times
            d[dst] += times


def q_reduce(p, d, q):
    """The q-reduced divisor equivalent to d: clear debt ring by ring
    towards q, then fire unburnt sets until Dhar's burning reaches every
    vertex."""
    d = {v: d.get(v, 0) for v in p.vertices}
    dist = {q: 0}
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for _, w in p.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    for k in range(max(dist.values()), 0, -1):
        ball = {v for v in p.vertices if dist[v] < k}
        ring = [v for v in p.vertices if dist[v] == k]
        gain = {v: sum(1 for _, w in p.adj[v] if w in ball) for v in ring}
        while True:
            short = [v for v in ring if d[v] < 0]
            if not short:
                break
            times = max((-d[v] + gain[v] - 1) // gain[v] for v in short)
            _fire(p, d, ball, times)
    while True:
        burnt = {q}
        heat = dict.fromkeys(p.vertices, 0)
        stack = [q]
        while stack:
            x = stack.pop()
            for _, w in p.adj[x]:
                if w in burnt:
                    continue
                heat[w] += 1
                if heat[w] > d[w]:
                    burnt.add(w)
                    stack.append(w)
        if len(burnt) == len(p.vertices):
            return clean(d)
        _fire(p, d, set(p.vertices) - burnt, 1)


def equivalent(p, d1, d2):
    q = p.vertices[0]
    return q_reduce(p, d1, q) == q_reduce(p, d2, q)


def is_effective_class(p, d):
    q = p.vertices[0]
    return q_reduce(p, d, q).get(q, 0) >= 0


def in_theta(p, c):
    """Degree-0 class c with c + (genus - 1) t(base) effective."""
    return sum(c.values()) == 0 and is_effective_class(
        p, add(c, {p.base_head: p.genus - 1})
    )


def is_q_reduced(p, d, q):
    return q_reduce(p, d, q) == clean(d)


# -- orientations ------------------------------------------------------------


def chern(p, states):
    """Heads of the oriented edges minus every vertex once."""
    out = dict.fromkeys(p.vertices, -1)
    for e, (a, b) in p.edges.items():
        s = states.get(e, "U")
        if s == "F":
            out[b] += 1
        elif s == "B":
            out[a] += 1
    return clean(out)


def _arcs(p, states):
    for e, (a, b) in p.edges.items():
        s = states.get(e, "U")
        if s == "F":
            yield a, b
        elif s == "B":
            yield b, a


def is_sourceless(p, states):
    heads = {h for _, h in _arcs(p, states)}
    return heads == set(p.vertices)


def is_acyclic(p, states):
    indeg = dict.fromkeys(p.vertices, 0)
    out = {v: [] for v in p.vertices}
    for t, h in _arcs(p, states):
        out[t].append(h)
        indeg[h] += 1
    ready = [v for v in p.vertices if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == len(p.vertices)


def realisable(p, d, unoriented):
    """Exhaustive search: some orientation of the edges outside `unoriented`
    has Chern class equivalent to d."""
    free = sorted(e for e in p.edges if e not in unoriented)
    for mask in range(1 << len(free)):
        states = {e: "F" if mask >> i & 1 else "B" for i, e in enumerate(free)}
        if equivalent(p, chern(p, states), d):
            return True
    return False


# -- morphisms ---------------------------------------------------------------


def _boundary(p, chain):
    """Divisor of a 1-chain: each edge e contributes y(e) (t(e) - o(e))."""
    out = {}
    for e, y in chain.items():
        a, b = p.edges[e]
        out[b] = out.get(b, 0) + y
        out[a] = out.get(a, 0) - y
    return clean(out)


def _tree(p):
    """BFS spanning tree from the first vertex: vertex -> (edge, parent)."""
    root = p.vertices[0]
    up = {root: None}
    order = [root]
    for v in order:
        for e, w in sorted(p.adj[v]):
            if w not in up:
                up[w] = (e, v)
                order.append(w)
    return up, order


def chain_for(p, d):
    """A tree-supported integer chain whose boundary is the degree-0 d."""
    up, order = _tree(p)
    excess = {v: d.get(v, 0) for v in p.vertices}
    chain = {}
    for v in reversed(order[1:]):
        e, parent = up[v]
        s = excess[v]
        chain[e] = s if p.edges[e][1] == v else -s
        excess[parent] += s
    return chain


def push_chain(src, dst, edge_map, signs, chain):
    return _boundary(dst, {edge_map[e]: signs[e] * y for e, y in chain.items()})


def pushforward(src, dst, edge_map, signs, d):
    """Image of the degree-0 class of d: [boundary y] -> [boundary phi_* y]."""
    return push_chain(src, dst, edge_map, signs, chain_for(src, d))


def signs_valid(src, dst, edge_map, signs):
    """sgn(base) = +1 and every fundamental cycle pushes to a cycle."""
    if signs.get(src.base) != 1 or set(signs) != set(src.edges):
        return False
    up, _ = _tree(src)
    tree = {pe[0] for pe in up.values() if pe}
    for f in src.edges:
        if f in tree:
            continue
        a, b = src.edges[f]
        cycle = chain_for(src, {a: 1, b: -1})
        cycle[f] = cycle.get(f, 0) + 1
        if push_chain(src, dst, edge_map, signs, cycle):
            return False
    return True


def is_isomorphism(src, dst, edge_map, vertex_map):
    """edge_map and vertex_map are bijections that preserve incidence."""
    if sorted(vertex_map) != src.vertices or sorted(vertex_map.values()) != dst.vertices:
        return False
    if sorted(edge_map) != sorted(src.edges) or sorted(edge_map.values()) != sorted(dst.edges):
        return False
    for e, (a, b) in src.edges.items():
        if sorted(dst.edges[edge_map[e]]) != sorted((vertex_map[a], vertex_map[b])):
            return False
    return True
