"""Partial orientations: Chern classes, equivalence moves, the Pic^0 torsor
action, divisor <-> orientation lifting, effectiveness certificates and
biorientation duality."""

from __future__ import annotations

import enum
import heapq
from itertools import combinations, product
from typing import NamedTuple

from .errors import (
    BiorientedPresent,
    DegreeMismatch,
    DegreeTooHigh,
    EnumerationBoundExceeded,
    InternalError,
    InvalidMove,
    QIsEffective,
    ValidationError,
)
from .divisor import (
    Divisor,
    DivisorClass,
    all_vertices_divisor,
    dhar_burn_order,
    q_reduce,
)
from .multigraph import components, id_key

# The two exhaustive scans, over the heads of the oriented edges in
# `lift_divisor_to_orientation` and over compositions in
# `_effective_representatives`, raise on reaching candidate MAX_CANDIDATES + 1.
MAX_CANDIDATES = 2**16


def _budgeted(candidates):
    """The candidates, numbered from 1; EnumerationBoundExceeded on reaching
    candidate MAX_CANDIDATES + 1."""
    for n, candidate in enumerate(candidates, 1):
        if n > MAX_CANDIDATES:
            raise EnumerationBoundExceeded(MAX_CANDIDATES, MAX_CANDIDATES + 1, "candidates")
        yield candidate


class EdgeState(enum.Enum):
    FORWARD = "F"
    BACKWARD = "B"
    UNORIENTED = "U"
    BIORIENTED = "X"


_FLIP = {
    EdgeState.FORWARD: EdgeState.BACKWARD,
    EdgeState.BACKWARD: EdgeState.FORWARD,
}


class PartialOrientation:
    """Per-edge state relative to the graph's base orientation."""

    __slots__ = ("graph", "_states", "_hash")

    def __init__(self, graph, states):
        self.graph = graph
        full = {}
        for e in graph.edge_ids:
            s = states.get(e, EdgeState.UNORIENTED)
            if not isinstance(s, EdgeState):
                s = EdgeState(s)
            full[e] = s
        for e in states:
            if not graph.has_edge(e):
                raise ValidationError(f"edge {e!r} not in graph")
        self._states = full
        self._hash = hash((graph, tuple(full[e] for e in graph.edge_ids)))

    @classmethod
    def _of_heads(cls, graph, head):
        """The orientation pointing each edge of `head` at head[e]; every
        other edge is unoriented."""
        return cls(
            graph,
            {e: EdgeState.FORWARD if graph.t(e) == h else EdgeState.BACKWARD for e, h in head.items()},
        )

    def state(self, e):
        return self._states[e]

    def sgn(self, e):
        s = self._states[e]
        if s is EdgeState.FORWARD:
            return 1
        if s is EdgeState.BACKWARD:
            return -1
        if s is EdgeState.UNORIENTED:
            return 0
        raise BiorientedPresent(f"edge {e!r} is bioriented")

    @property
    def unoriented_set(self):
        return frozenset(
            e for e in self.graph.edge_ids if self._states[e] is EdgeState.UNORIENTED
        )

    @property
    def is_full(self):
        return all(
            s in (EdgeState.FORWARD, EdgeState.BACKWARD) for s in self._states.values()
        )

    def head(self, e):
        """Head of an oriented edge in this orientation."""
        s = self._states[e]
        if s is EdgeState.FORWARD:
            return self.graph.t(e)
        if s is EdgeState.BACKWARD:
            return self.graph.o(e)
        raise InvalidMove(f"edge {e!r} is not (singly) oriented")

    def tail(self, e):
        return self.graph.other_end(e, self.head(e))

    def arcs(self):
        """(tail, head, edge) triples; a bioriented edge contributes both."""
        out = []
        for e in self.graph.edge_ids:
            s = self._states[e]
            o, t = self.graph.ends(e)
            if s is EdgeState.FORWARD:
                out.append((o, t, e))
            elif s is EdgeState.BACKWARD:
                out.append((t, o, e))
            elif s is EdgeState.BIORIENTED:
                out.append((o, t, e))
                out.append((t, o, e))
        return out

    def reverse_edges(self, edge_set):
        states = dict(self._states)
        for e in edge_set:
            if states[e] not in _FLIP:
                raise InvalidMove(f"edge {e!r} is not (singly) oriented")
            states[e] = _FLIP[states[e]]
        return PartialOrientation(self.graph, states)

    def with_states(self, updates):
        states = dict(self._states)
        states.update(updates)
        return PartialOrientation(self.graph, states)

    def __eq__(self, other):
        if not isinstance(other, PartialOrientation):
            return NotImplemented
        return self.graph == other.graph and self._states == other._states

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = " ".join(f"{e}:{self._states[e].value}" for e in self.graph.edge_ids)
        return f"PartialOrientation({body})"


def base_orientation(g):
    """Gamma itself: every edge forward."""
    return PartialOrientation(g, {e: EdgeState.FORWARD for e in g.edge_ids})


def orientation_from_order(g, order):
    """Acyclic full orientation: each edge points at its later endpoint."""
    pos = {v: i for i, v in enumerate(order)}
    return PartialOrientation._of_heads(g, {e: max(g.ends(e), key=pos.__getitem__) for e in g.edge_ids})


def chern_class(u, allow_bioriented=False):
    """Sum of heads over oriented edges minus the sum of all vertices."""
    g = u.graph
    index = g.vertex_index
    coeffs = [-1] * len(index)
    for e in g.edge_ids:
        s = u.state(e)
        if s is EdgeState.BIORIENTED:
            if not allow_bioriented:
                raise BiorientedPresent(f"edge {e!r} is bioriented")
            o, t = g.ends(e)
            coeffs[index[o]] += 1
            coeffs[index[t]] += 1
        elif s is not EdgeState.UNORIENTED:
            coeffs[index[u.head(e)]] += 1
    return Divisor._of(g, coeffs)


def is_sourceless(u):
    """Every vertex has at least one incoming oriented edge."""
    indeg = {v: 0 for v in u.graph.vertices}
    for _, head, _ in u.arcs():
        indeg[head] += 1
    return all(c > 0 for c in indeg.values())


def _topological_order(u):
    """Kahn's algorithm over the arcs of u, smallest ready vertex first, or
    None if the arcs contain a directed cycle (a bioriented edge is a
    2-cycle)."""
    g = u.graph
    heads_from = {v: [] for v in g.vertex_ids}
    indeg = dict.fromkeys(g.vertex_ids, 0)
    for tail, head, _ in u.arcs():
        heads_from[tail].append(head)
        indeg[head] += 1
    ready = [(id_key(v), v) for v in g.vertex_ids if indeg[v] == 0]  # sorted: a heap
    order = []
    while ready:
        _, v = heapq.heappop(ready)
        order.append(v)
        for w in heads_from[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (id_key(w), w))
    return order if len(order) == len(indeg) else None


def is_acyclic(u):
    """No consistently oriented cycle among the oriented edges."""
    return _topological_order(u) is not None


# -- equivalence moves -------------------------------------------------------


class MoveKind(enum.Enum):
    CYCLE_REVERSAL = "CycleReversal"
    CUT_REVERSAL = "CutReversal"
    EDGE_SLIDE = "EdgeSlide"


class OrientationMove(NamedTuple):
    kind: MoveKind
    edges: frozenset = frozenset()
    slide: tuple = ()  # (oriented edge l, unoriented edge r, pivot vertex v)


def cycle_reversal(edges):
    return OrientationMove(MoveKind.CYCLE_REVERSAL, frozenset(edges))


def cut_reversal(edges):
    return OrientationMove(MoveKind.CUT_REVERSAL, frozenset(edges))


def edge_slide(l, r, v):
    return OrientationMove(MoveKind.EDGE_SLIDE, frozenset(), (l, r, v))


def _check_consistent_cycle(u, edges):
    degree = {}
    indeg = {}
    for e in edges:
        if u.state(e) not in _FLIP:
            raise InvalidMove(f"edge {e!r} is not oriented")
        h, t = u.head(e), u.tail(e)
        degree[h] = degree.get(h, 0) + 1
        degree[t] = degree.get(t, 0) + 1
        indeg[h] = indeg.get(h, 0) + 1
    if any(d != 2 for d in degree.values()) or any(indeg.get(v, 0) != 1 for v in degree):
        raise InvalidMove("payload is not a consistently oriented disjoint cycle union")


def _check_consistent_cut(u, edges):
    edges = set(edges)
    for e in edges:
        if u.state(e) not in _FLIP:
            raise InvalidMove(f"edge {e!r} is not oriented")
    comp = components(u.graph, removed_edges=edges)
    side = {}
    for e in edges:
        ct, ch = comp[u.tail(e)], comp[u.head(e)]
        if ct == ch:
            raise InvalidMove("cut payload contains a non-separating edge")
        if side.get(ct) == "B" or side.get(ch) == "A":
            raise InvalidMove("cut is not consistently oriented")
        side[ct] = "A"
        side[ch] = "B"


def apply_move(u, move):
    """Apply an equivalence move; the Chern class is preserved."""
    for e in (*move.edges, *move.slide[:2]):
        if not u.graph.has_edge(e):
            raise ValidationError(f"edge {e!r} not in graph")
    if move.kind is MoveKind.CYCLE_REVERSAL:
        _check_consistent_cycle(u, move.edges)
        return u.reverse_edges(move.edges)
    if move.kind is MoveKind.CUT_REVERSAL:
        _check_consistent_cut(u, move.edges)
        return u.reverse_edges(move.edges)
    if move.kind is MoveKind.EDGE_SLIDE:
        l, r, v = move.slide
        if u.state(l) not in _FLIP or u.head(l) != v:
            raise InvalidMove(f"edge {l!r} must be oriented toward {v!r}")
        if u.state(r) is not EdgeState.UNORIENTED or v not in u.graph.ends(r):
            raise InvalidMove(f"edge {r!r} must be unoriented and touch {v!r}")
        new_r = EdgeState.FORWARD if u.graph.t(r) == v else EdgeState.BACKWARD
        return u.with_states({l: EdgeState.UNORIENTED, r: new_r})
    raise InvalidMove(f"unknown move kind {move.kind!r}")


# -- torsor action and lifting -----------------------------------------------


def _reverse_path(g, head, src, stop):
    """Breadth-first search from src along oriented edges, each vertex's
    edges in `g.incident` order; `head` maps each oriented edge to its head
    and has no entry for an unoriented one.  At the first vertex x taken
    from the queue with stop(x), reverse the path src -> x in `head` and
    return (x, None); if there is none, return (None, the vertices reached).
    The one search behind the torsor action and the in-degree flow."""
    prev = {src: None}  # vertex -> the edge it was reached by
    queue = [src]
    for x in queue:
        if stop(x):
            node = x
            while prev[node] is not None:
                e = prev[node]
                node = g.other_end(e, node)
                head[e] = node
            return x, None
        for e in g.incident(x):
            w = head.get(e, x)  # x itself unless e is oriented away from x
            if w not in prev:
                prev[w] = e
                queue.append(w)
    return None, set(prev)


def torsor_act(g, d, u):
    """Act on a full orientation by a degree-0 divisor via cut/path reversals.

    The result has Chern class linearly equivalent to chern_class(u) + d.
    For each pair (p, q) of a chip of d and an antichip, `_reverse_path`
    reverses an oriented path p -> q, which shifts the class by exactly
    p - q; while there is none, the directed cut around the vertices
    reached from p is reversed, which fires that set and shifts the class
    by a principal divisor.  The work is done on one head map.
    """
    dd = d if isinstance(d, Divisor) else d.representative
    if u.graph != g or dd.graph != g:
        raise ValidationError("torsor action on another graph's orientation or divisor")
    if not u.is_full:
        raise InvalidMove("torsor action requires a full orientation")
    if dd.degree != 0:
        raise DegreeMismatch("torsor action requires a degree-0 divisor")
    positives, negatives = [], []
    for v, c in dd.items():
        if c > 0:
            positives.extend([v] * c)
        else:
            negatives.extend([v] * (-c))
    head = {e: u.head(e) for e in g.edge_ids}
    bound = max(1, len(g.vertices) * len(g.edge_ids))
    for p, q in zip(positives, negatives):
        steps = 0
        while True:
            _, reach = _reverse_path(g, head, p, lambda x: x == q)
            if reach is None:
                break
            cut = [e for e in g.edge_ids if (g.o(e) in reach) != (g.t(e) in reach)]
            if not cut:
                raise InternalError("no cut available; graph disconnected?")
            for e in cut:
                head[e] = g.other_end(e, head[e])
            steps += 1
            if steps > bound:
                raise InternalError("torsor action failed to terminate")
    return PartialOrientation._of_heads(g, head)


class NotPartiallyOrientable(NamedTuple):
    """Certificate that O(G, X) contains no orientation with the requested
    class.  When ``class_orientable`` is False the effectiveness test
    |d + sum(v)| = 0 failed, so the class is not partially orientable at
    all; when it is True the class is realisable with some unoriented set
    of the right size, but exhaustive search showed the requested set
    cannot realise it."""

    test_divisor: Divisor
    reduced_form: Divisor
    class_orientable: bool = False


def lift_divisor_to_orientation(g, d, unoriented_set=frozenset()):
    """An orientation in O(G, X) with Chern class ~ d, or a certificate.  For
    X non-empty the orientations of E - X are tried in turn (`_budgeted`)."""
    x = frozenset(unoriented_set)
    for e in x:
        if not g.has_edge(e):
            raise ValidationError(f"edge {e!r} not in graph")
    expected = (len(g.edge_ids) - len(x)) - len(g.vertices)
    if d.degree != expected:
        raise DegreeMismatch(
            f"degree {d.degree} incompatible with {len(x)} unoriented edges "
            f"(expected {expected})"
        )
    test = d + all_vertices_divisor(g)
    test_class = DivisorClass(g, test)
    if not test_class.is_effective:
        return NotPartiallyOrientable(test, test_class.representative)
    if not x:
        gamma = base_orientation(g)
        delta = d - chern_class(gamma)
        return torsor_act(g, delta, gamma)
    target = DivisorClass(g, d)
    free = [e for e in g.edge_ids if e not in x]
    index = g.vertex_index
    # Every choice of heads, t(e) (forward) before o(e), as chern_class sums them.
    for heads in _budgeted(product(*((g.t(e), g.o(e)) for e in free))):
        coeffs = [-1] * len(index)
        for h in heads:
            coeffs[index[h]] += 1
        if DivisorClass(g, Divisor._of(g, coeffs)) == target:
            return PartialOrientation._of_heads(g, dict(zip(free, heads)))
    return NotPartiallyOrientable(test, test_class.representative, True)


# -- effectiveness certificates ----------------------------------------------


class SourcelessWitness(NamedTuple):
    orientation: PartialOrientation
    effective_divisor: Divisor


class AcyclicWitness(NamedTuple):
    orientation: PartialOrientation
    dominated_divisor: Divisor


def _orient_with_indegrees(g, demand):
    """Partial orientation with prescribed in-degree per vertex, or None.

    Each edge may be oriented toward one of its endpoints or left unoriented;
    solved as a unit-capacity flow (edges -> vertices).  Each unit of demand
    at v is one `_reverse_path` from v to the first vertex x with a free
    (unoriented) edge, whose first free edge is then pointed at x."""
    if any(demand[v] < 0 for v in g.vertex_ids):
        return None
    head = {}

    def has_free_edge(x):
        return any(e not in head for e in g.incident(x))

    for v in g.vertex_ids:
        for _ in range(demand[v]):
            x, _ = _reverse_path(g, head, v, has_free_edge)
            if x is None:
                return None
            head[next(e for e in g.incident(x) if e not in head)] = x
    return PartialOrientation._of_heads(g, head)


def _effective_representatives(g, reduced):
    """Effective divisors in the class whose representative reduced at
    t(base) is `reduced`, in a deterministic order, starting with it; each
    other candidate costs one q-reduction, and they are `_budgeted`."""
    q0 = g.base_head
    yield reduced
    slots = reduced.degree + len(g.vertex_ids) - 1
    # Stars and bars: n - 1 bars among `slots` places cut the degree into n
    # parts, and bar positions in lexicographic order give the parts in
    # lexicographic order.
    for bars in _budgeted(combinations(range(slots), len(g.vertex_ids) - 1)):
        coeffs = [b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))]
        d = Divisor._of(g, coeffs)
        if d != reduced and q_reduce(g, d, q0) == reduced:
            yield d


def effectiveness_certificate(g, q):
    """A verified sourceless or acyclic witness for the class of q."""
    gen = g.genus
    if q.degree > gen - 1:
        raise DegreeTooHigh(f"degree {q.degree} exceeds genus - 1 = {gen - 1}")
    q0 = g.base_head
    reduced = q_reduce(g, q, q0)
    if reduced[q0] >= 0:
        for b in _effective_representatives(g, reduced):
            w = _orient_with_indegrees(g, {v: b[v] + 1 for v in g.vertex_ids})
            if w is None:
                continue
            if not is_sourceless(w) or chern_class(w) != b:
                raise InternalError("sourceless witness failed verification")
            return SourcelessWitness(w, b)
        raise InternalError("no sourceless witness found for effective class")
    return _acyclic_witness(g, reduced)


def _acyclic_witness(g, reduced):
    """The verified acyclic witness of a class whose reduced form at t(base)
    is `reduced`, negative there: the full orientation of its burn order."""
    u = orientation_from_order(g, dhar_burn_order(g, reduced, g.base_head))
    c = chern_class(u)
    if not is_acyclic(u) or any(c[v] < reduced[v] for v in g.vertex_ids):
        raise InternalError("acyclic witness failed verification")
    return AcyclicWitness(u, reduced)


def complete_acyclically(g, u):
    """Extend an acyclic partial orientation to a full one via a topological
    total order; existing arcs are preserved and in-degrees only grow."""
    order = _topological_order(u)
    if order is None:
        raise InvalidMove("orientation is not acyclic")
    return orientation_from_order(g, order)


def extend_to_nonspecial(g, q):
    """Effective T with q + T ~ c(U) nonspecial, U the acyclic certificate's
    full orientation; q is reduced once, and QIsEffective if it is effective."""
    reduced = q_reduce(g, q, g.base_head)
    if reduced[g.base_head] >= 0:
        raise QIsEffective("input class is effective")
    return chern_class(_acyclic_witness(g, reduced).orientation) - reduced


# -- duality -----------------------------------------------------------------

_DUAL = {
    EdgeState.FORWARD: EdgeState.BACKWARD,
    EdgeState.BACKWARD: EdgeState.FORWARD,
    EdgeState.UNORIENTED: EdgeState.BIORIENTED,
    EdgeState.BIORIENTED: EdgeState.UNORIENTED,
}


def dual_orientation(u):
    """Reverse every oriented edge and swap unoriented <-> bioriented.

    Satisfies c(*U) = K - c(U), with bioriented edges contributing both
    endpoints to the Chern sum."""
    return PartialOrientation(u.graph, {e: _DUAL[u.state(e)] for e in u.graph.edge_ids})
