"""Partial orientations: Chern classes, equivalence moves, the Pic^0 torsor
action, divisor <-> orientation lifting, effectiveness certificates and
biorientation duality."""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from .errors import (
    BiorientedPresent,
    DegreeMismatch,
    DegreeTooHigh,
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

    def state(self, e):
        return self._states[e]

    def states(self):
        return dict(self._states)

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
    states = {}
    for e in g.edge_ids:
        o, t = g.ends(e)
        states[e] = EdgeState.FORWARD if pos[o] < pos[t] else EdgeState.BACKWARD
    return PartialOrientation(g, states)


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


@dataclass(frozen=True)
class OrientationMove:
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
    """Act on a full orientation by a degree-0 divisor via cut/path reversals.

    The result has Chern class linearly equivalent to chern_class(u) + d;
    path reversals shift the class by exactly p - q, while the cut reversals
    used to create those paths shift it by principal divisors.
    """
    if not u.is_full:
        raise InvalidMove("torsor action requires a full orientation")
    if isinstance(d, Divisor):
        dd = d
    else:
        dd = d.representative
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
            cut = [
                e
                for e in g.edge_ids
                if (g.o(e) in reach) != (g.t(e) in reach)
            ]
            if not cut:
                raise InternalError("no cut available; graph disconnected?")
            u = u.reverse_edges(cut)
            steps += 1
            if steps > bound:
                raise InternalError("torsor action failed to terminate")
        # Reversing an oriented path p -> q shifts the Chern class by p - q.
        u = u.reverse_edges(path)
    return u


@dataclass(frozen=True)
class NotPartiallyOrientable:
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
    """An orientation in O(G, X) with Chern class ~ d, or a certificate."""
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
    for choice in product((EdgeState.FORWARD, EdgeState.BACKWARD), repeat=len(free)):
        states = dict(zip(free, choice))
        u = PartialOrientation(g, states)
        if DivisorClass(g, chern_class(u)) == target:
            return u
    return NotPartiallyOrientable(test, test_class.representative, True)


# -- effectiveness certificates ----------------------------------------------


@dataclass(frozen=True)
class SourcelessWitness:
    orientation: PartialOrientation
    effective_divisor: Divisor


@dataclass(frozen=True)
class AcyclicWitness:
    orientation: PartialOrientation
    dominated_divisor: Divisor


def _orient_with_indegrees(g, demand):
    """Partial orientation with prescribed in-degree per vertex, or None.

    Each edge may be oriented toward one of its endpoints or left unoriented;
    solved as a unit-capacity flow (edges -> vertices)."""
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
                    # Orient the free edge toward x, then walk back along the
                    # alternating path, re-pointing each stolen edge at the
                    # vertex it was explored from.
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


def _effective_representatives(g, reduced):
    """Effective divisors in the class whose representative reduced at
    t(base) is `reduced`, in a deterministic order, starting with it; each
    other candidate costs one q-reduction."""
    q0 = g.base_head
    yield reduced
    slots = reduced.degree + len(g.vertex_ids) - 1
    # Stars and bars: n - 1 bars among `slots` places cut the degree into n
    # parts, and bar positions in lexicographic order give the parts in
    # lexicographic order.
    for bars in combinations(range(slots), len(g.vertex_ids) - 1):
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
