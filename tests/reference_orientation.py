"""The orientation searches as first written: the torsor action by a fresh
breadth-first search over a new orientation object at every step, the
in-degree flow by its own alternating-path search, and the lift with an
unoriented set by building each candidate orientation, or by the plain
product scan with its candidate budget.  The differential tests in
tests/test_orientation_reference.py compare `rigidlift.orientation` against
them."""

from collections import deque
from itertools import product

from rigidlift.divisor import Divisor, DivisorClass, all_vertices_divisor
from rigidlift.errors import DegreeMismatch, EnumerationBoundExceeded, InternalError, InvalidMove
from rigidlift.orientation import EdgeState, NotPartiallyOrientable, PartialOrientation, chern_class


def _oriented_path(u, src, dst):
    """(edges of an oriented path src -> dst, None), or, if there is none,
    (None, the vertices reachable from src)."""
    prev = {src: None}
    arcs_from = {}
    for tail, head, e in u.arcs():  # in edge-id order
        arcs_from.setdefault(tail, []).append((head, e))
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            break
        for w, e in arcs_from.get(v, ()):
            if w not in prev:
                prev[w] = (e, v)
                queue.append(w)
    if dst not in prev:
        return None, set(prev)
    path = []
    node = dst
    while prev[node] is not None:
        e, v = prev[node]
        path.append(e)
        node = v
    path.reverse()
    return path, None


def torsor_act(g, d, u):
    """Act on a full orientation by a degree-0 divisor via cut/path reversals."""
    if not u.is_full:
        raise InvalidMove("torsor action requires a full orientation")
    dd = d if isinstance(d, Divisor) else d.representative
    if dd.degree != 0:
        raise DegreeMismatch("torsor action requires a degree-0 divisor")
    positives, negatives = [], []
    for v, c in dd.items():
        if c > 0:
            positives.extend([v] * c)
        else:
            negatives.extend([v] * (-c))
    bound = max(1, len(g.vertices) * len(g.edge_ids))
    for p, q in zip(positives, negatives):
        steps = 0
        while True:
            path, reach = _oriented_path(u, p, q)
            if path is not None:
                break
            cut = [e for e in g.edge_ids if (g.o(e) in reach) != (g.t(e) in reach)]
            if not cut:
                raise InternalError("no cut available; graph disconnected?")
            u = u.reverse_edges(cut)
            steps += 1
            if steps > bound:
                raise InternalError("torsor action failed to terminate")
        u = u.reverse_edges(path)
    return u


def lift_with_unoriented_set(g, d, x):
    """The first orientation of E minus x, forward before backward in
    edge-id order, whose Chern class is linearly equivalent to d, or None."""
    target = DivisorClass(g, d)
    free = [e for e in g.edge_ids if e not in x]
    for choice in product((EdgeState.FORWARD, EdgeState.BACKWARD), repeat=len(free)):
        u = PartialOrientation(g, dict(zip(free, choice)))
        if DivisorClass(g, chern_class(u)) == target:
            return u
    return None


def lift_by_product_scan(g, d, x, limit, fits=None):
    """`lift_divisor_to_orientation(g, d, x)` for x non-empty as a product
    scan: the orientations of E minus x, heads t(e) (forward) before o(e) in
    edge-id order, numbered from 1, with EnumerationBoundExceeded(limit,
    limit + 1) on reaching candidate limit + 1, as `_budgeted` numbers them
    for MAX_CANDIDATES = limit.  Returns (the answer, the number of the first
    fit or None).  A candidate's class depends only on its head counts, so
    `fits` keeps whether each count vector fits, and calls for the same g
    and d may share it."""
    test = d + all_vertices_divisor(g)
    test_class = DivisorClass(g, test)
    if not test_class.is_effective:
        return NotPartiallyOrientable(test, test_class.representative), None
    target = DivisorClass(g, d)
    free = [e for e in g.edge_ids if e not in x]
    index = g.vertex_index
    fits = {} if fits is None else fits
    for n, heads in enumerate(product(*((g.t(e), g.o(e)) for e in free)), 1):
        if n > limit:
            raise EnumerationBoundExceeded(limit, limit + 1, "candidates")
        coeffs = [-1] * len(index)
        for h in heads:
            coeffs[index[h]] += 1
        key = tuple(coeffs)
        if key not in fits:
            fits[key] = DivisorClass(g, Divisor._of(g, key)) == target
        if fits[key]:
            return PartialOrientation._of_heads(g, dict(zip(free, heads))), n
    return NotPartiallyOrientable(test, test_class.representative, True), None


def orient_with_indegrees(g, demand):
    """Partial orientation with prescribed in-degree per vertex, or None."""
    verts = list(g.vertex_ids)
    need = {v: demand[v] for v in verts}
    if any(n < 0 for n in need.values()):
        return None
    assign = {}  # edge -> chosen head

    def augment(v):
        """Find an augmenting path giving v one more in-edge."""
        seen_edges = set()
        parent = {v: None}  # vertex -> (edge used to reach it)
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for e in g.incident(x):
                if e in seen_edges:
                    continue
                seen_edges.add(e)
                if e not in assign:
                    assign[e] = x
                    node = x
                    while parent[node] is not None:
                        pe = parent[node]
                        prev = g.other_end(pe, node)
                        assign[pe] = prev
                        node = prev
                    return True
                other = assign[e]
                if other != x and other not in parent:
                    parent[other] = e
                    queue.append(other)
        return False

    for v in verts:
        for _ in range(need[v]):
            if not augment(v):
                return None
    states = {}
    for e, head in assign.items():
        states[e] = EdgeState.FORWARD if g.t(e) == head else EdgeState.BACKWARD
    return PartialOrientation(g, states)
