"""The divisor layer as first written, kept as a test oracle: q-reduction by
whole-set firing on Divisor objects, Picard enumeration by a breadth-first
search over all moves p - q, and the theta divisor by shift-and-reduce.
Results are plain q-reduced Divisors (class representatives at t(base)).
`DictDivisor` is the Divisor class as first written, a vertex -> coefficient
dict, kept as the oracle for the coefficient-tuple payload."""

from collections import deque

from rigidlift.divisor import Divisor
from rigidlift.errors import EnumerationBoundExceeded, ValidationError
from rigidlift.multigraph import id_key


class DictDivisor:
    """An integer-valued function on the vertices of a fixed graph."""

    __slots__ = ("graph", "_coeffs", "_hash")

    def __init__(self, graph, coeffs=None):
        self.graph = graph
        clean = {}
        for v, c in (coeffs or {}).items():
            if v not in graph.vertices:
                raise ValidationError(f"vertex {v!r} not in graph")
            if c:
                clean[v] = int(c)
        self._coeffs = clean
        self._hash = hash((graph, tuple(sorted(clean.items(), key=lambda kv: id_key(kv[0])))))

    def __getitem__(self, v):
        return self._coeffs.get(v, 0)

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: id_key(kv[0]))

    @property
    def degree(self):
        return sum(self._coeffs.values())

    @property
    def is_effective(self):
        return all(c >= 0 for c in self._coeffs.values())

    def __add__(self, other):
        self._check(other)
        out = dict(self._coeffs)
        for v, c in other._coeffs.items():
            out[v] = out.get(v, 0) + c
        return DictDivisor(self.graph, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DictDivisor(self.graph, {v: -c for v, c in self._coeffs.items()})

    def __rmul__(self, k):
        return DictDivisor(self.graph, {v: int(k) * c for v, c in self._coeffs.items()})

    def _check(self, other):
        if not isinstance(other, DictDivisor) or other.graph != self.graph:
            raise ValidationError("divisors live on different graphs")

    def __eq__(self, other):
        if not isinstance(other, DictDivisor):
            return NotImplemented
        return self.graph == other.graph and self._coeffs == other._coeffs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self._coeffs:
            return "Divisor(0)"
        terms = " ".join(f"{v}:{c}" for v, c in self.items())
        return f"Divisor({terms})"


def _fire_set(g, d, vertex_set, times=1):
    delta = {v: 0 for v in g.vertices}
    for e in g.edge_ids:
        a, b = g.ends(e)
        if (a in vertex_set) != (b in vertex_set):
            src, dst = (a, b) if a in vertex_set else (b, a)
            delta[src] -= times
            delta[dst] += times
    return d + Divisor(g, delta)


def _bfs_distances(g, q):
    dist = {q: 0}
    queue = deque([q])
    while queue:
        v = queue.popleft()
        for e in sorted(g.incident(v), key=id_key):
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def q_reduce(g, d, q):
    """The unique q-reduced divisor linearly equivalent to d."""
    if q not in g.vertices:
        raise ValidationError(f"vertex {q!r} not in graph")
    dist = _bfs_distances(g, q)
    coeffs = {v: d[v] for v in g.vertices}
    d = Divisor(g, coeffs)
    max_dist = max(dist.values())

    # Phase 1: clear debt working outward-in.
    for k in range(max_dist, 0, -1):
        ring = [v for v in g.vertex_ids if dist[v] == k]
        ball = {v for v in g.vertices if dist[v] < k}
        while any(d[v] < 0 for v in ring):
            gain = {}
            for v in ring:
                if d[v] >= 0:
                    continue
                gain[v] = sum(1 for e in g.incident(v) if g.other_end(e, v) in ball)
            times = max((-d[v] + gain[v] - 1) // gain[v] for v in gain)
            d = _fire_set(g, d, ball, max(times, 1))

    # Phase 2: Dhar's burning algorithm, one firing of the unburnt set per burn.
    while True:
        burnt = {q}
        changed = True
        while changed:
            changed = False
            for v in g.vertex_ids:
                if v in burnt:
                    continue
                incoming = sum(1 for e in g.incident(v) if g.other_end(e, v) in burnt)
                if incoming > d[v]:
                    burnt.add(v)
                    changed = True
        if len(burnt) == len(g.vertices):
            return d
        d = _fire_set(g, d, set(g.vertices) - burnt)


def dhar_burn_order(g, d, q):
    """Burning order from q: at each step rescan for the first burnable vertex."""
    order = [q]
    burnt = {q}
    while len(burnt) < len(g.vertices):
        for v in g.vertex_ids:
            if v in burnt:
                continue
            incoming = sum(1 for e in g.incident(v) if g.other_end(e, v) in burnt)
            if incoming > d[v]:
                order.append(v)
                burnt.add(v)
                break
        else:
            raise ValidationError("divisor is not q-reduced: burning stalls")
    return order


def enumerate_picard(g, degree, max_classes):
    """Representatives of all classes of the given degree, by BFS over p - q."""
    q0 = g.base_head
    start = q_reduce(g, Divisor(g, {q0: degree}), q0)
    seen = {start}
    frontier = deque([start])
    verts = g.vertex_ids
    while frontier:
        rep = frontier.popleft()
        for p in verts:
            for q in verts:
                if p == q:
                    continue
                nxt = q_reduce(g, rep + Divisor(g, {p: 1, q: -1}), q0)
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > max_classes:
                        raise EnumerationBoundExceeded(max_classes, len(seen))
                    frontier.append(nxt)
    return frozenset(seen)


def theta_divisor(g, base_edge, max_classes):
    """Representatives of the degree-0 classes c with c + (g-1) t(base_edge)
    effective."""
    return theta_among(g, base_edge, enumerate_picard(g, 0, max_classes))


def theta_among(g, base_edge, reps):
    """The representatives in reps (degree 0, reduced at t(base of g)) whose
    class c has c + (g-1) t(base_edge) effective."""
    t0 = g.with_base(base_edge).base_head
    q0 = g.base_head
    shift = Divisor(g, {t0: g.genus - 1})
    return frozenset(rep for rep in reps if q_reduce(g, rep + shift, q0)[q0] >= 0)
