"""Divisor arithmetic: Laplacian, q-reduction, effectiveness, Abel-Jacobi,
Picard enumeration and the discrete theta divisor."""

from __future__ import annotations

import enum
import heapq
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    EnumerationBoundExceeded,
    GenusTooSmall,
    ValidationError,
    WrongDegree,
)
from .multigraph import bfs_tree, spanning_tree_count

DEFAULT_MAX_CLASSES = 10**6


class Divisor:
    """An integer-valued function on the vertices of a fixed graph, held as
    one coefficient per vertex in `graph.vertex_ids` order."""

    __slots__ = ("graph", "vector")

    def __init__(self, graph, coeffs=None):
        index = graph.vertex_index
        vector = [0] * len(index)
        for v, c in (coeffs or {}).items():
            if v not in index:
                raise ValidationError(f"vertex {v!r} not in graph")
            vector[index[v]] = int(c)
        self.graph = graph
        self.vector = tuple(vector)

    @classmethod
    def _of(cls, graph, vector):
        """The divisor with coefficient vector[i] at graph.vertex_ids[i]."""
        d = cls.__new__(cls)
        d.graph = graph
        d.vector = tuple(vector)
        return d

    def __getitem__(self, v):
        i = self.graph.vertex_index.get(v)
        return 0 if i is None else self.vector[i]

    def items(self):
        return [(v, c) for v, c in zip(self.graph.vertex_ids, self.vector) if c]

    @property
    def degree(self):
        return sum(self.vector)

    @property
    def is_effective(self):
        return all(c >= 0 for c in self.vector)

    def __add__(self, other):
        self._check(other)
        return Divisor._of(self.graph, (a + b for a, b in zip(self.vector, other.vector)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Divisor._of(self.graph, (-c for c in self.vector))

    def __rmul__(self, k):
        k = int(k)
        return Divisor._of(self.graph, (k * c for c in self.vector))

    def _check(self, other):
        if not isinstance(other, Divisor) or other.graph != self.graph:
            raise ValidationError("divisors live on different graphs")

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.graph == other.graph and self.vector == other.vector

    def __hash__(self):
        return hash((self.graph, self.vector))

    def __repr__(self):
        if not any(self.vector):
            return "Divisor(0)"
        terms = " ".join(f"{v}:{c}" for v, c in self.items())
        return f"Divisor({terms})"


def vertex_divisor(g, v, mult=1):
    return Divisor(g, {v: mult})


def all_vertices_divisor(g):
    return Divisor(g, {v: 1 for v in g.vertices})


def laplacian_fire(g, script):
    """Image of a firing script under the Laplacian (adjacency minus degree)."""
    index = g.vertex_index
    out = [0] * len(index)
    for v, times in script.items():
        if v not in index:
            raise ValidationError(f"vertex {v!r} not in graph")
        for e in g.incident(v):
            out[index[g.other_end(e, v)]] += times
            out[index[v]] -= times
    return Divisor._of(g, out)


class _Core(NamedTuple):
    nbrs: tuple  # per index: ((neighbour index, edge multiplicity), ...)
    depth: tuple  # per index: BFS distance from q
    q: int  # index of q


@lru_cache(maxsize=256)
def _core(g, q):
    """The vertex-indexed view of g rooted at q that reduction, burning and
    enumeration work on: index i is g.vertex_ids[i]; neighbour lists with
    edge multiplicities and BFS depths from q."""
    index = g.vertex_index
    mult = [{} for _ in index]
    for e in g.edge_ids:
        a, b = g.ends(e)
        i, j = index[a], index[b]
        mult[i][j] = mult[i].get(j, 0) + 1
        mult[j][i] = mult[j].get(i, 0) + 1
    nbrs = tuple(tuple(sorted(m.items())) for m in mult)
    depth = [0] * len(index)
    for u, _, w in bfs_tree(g, q):
        depth[index[w]] = depth[index[u]] + 1
    return _Core(nbrs, tuple(depth), index[q])


def _burn(core, c):
    """Dhar's burning from q: vertex i catches fire once more edges join it
    to burnt vertices than c[i].  Returns the burnt flags and, per vertex,
    the number of edges to burnt vertices (exact for unburnt vertices)."""
    nbrs, qi = core.nbrs, core.q
    burnt = [False] * len(c)
    counts = [0] * len(c)
    burnt[qi] = True
    stack = [qi]
    while stack:
        i = stack.pop()
        for j, m in nbrs[i]:
            if not burnt[j]:
                counts[j] += m
                if counts[j] > c[j]:
                    burnt[j] = True
                    stack.append(j)
    return burnt, counts


def q_reduce(g, d, q):
    """The unique q-reduced divisor linearly equivalent to d."""
    if q not in g.vertices:
        raise ValidationError(f"vertex {q!r} not in graph")
    core = _core(g, q)
    nbrs, depth = core.nbrs, core.depth
    if d.graph.vertex_ids != g.vertex_ids:
        raise ValidationError("divisor is not on the vertices of the graph")
    c = list(d.vector)

    # Phase 1: clear debt working outward-in; firing the ball of radius k-1
    # only adds chips at distance k, enough of them to clear ring k at once.
    levels = [[] for _ in range(max(depth) + 1)]
    for i, k in enumerate(depth):
        levels[k].append(i)
    for k in range(len(levels) - 1, 0, -1):
        times = 0
        for i in levels[k]:
            if c[i] < 0:
                gain = sum(m for j, m in nbrs[i] if depth[j] < k)
                times = max(times, (gain - c[i] - 1) // gain)
        if times:
            for i in levels[k - 1]:
                for j, m in nbrs[i]:
                    if depth[j] == k:
                        c[i] -= times * m
                        c[j] += times * m

    # Phase 2: Dhar's burning algorithm; fire the unburnt set as many times
    # in a row as it stays legal, then burn again.
    while True:
        burnt, counts = _burn(core, c)
        unburnt = [i for i, b in enumerate(burnt) if not b]
        if not unburnt:
            return Divisor._of(g, c)
        times = min(c[i] // counts[i] for i in unburnt if counts[i])
        for i in unburnt:
            c[i] -= times * counts[i]
            for j, m in nbrs[i]:
                if burnt[j]:
                    c[j] += times * m


def dhar_burn_order(g, d, q):
    """Burning order from q for a q-reduced divisor d (q first; all burn):
    `_certify`'s burn, in which the first burnable vertex in id order burns."""
    if q not in g.vertices:
        raise ValidationError(f"vertex {q!r} not in graph")
    if d.graph.vertex_ids != g.vertex_ids:
        raise ValidationError("divisor is not on the vertices of the graph")
    if any(k < 0 for v, k in d.items() if v != q):
        raise ValidationError("divisor is not q-reduced: negative off q")
    order, _ = _certify(_core(g, q), d.vector)
    if len(order) < len(g.vertex_ids):
        raise ValidationError("divisor is not q-reduced: burning stalls")
    return [g.vertex_ids[i] for i in order]


def linearly_equivalent(g, d1, d2):
    if d1.degree != d2.degree:
        return False
    q = g.base_head
    return q_reduce(g, d1, q) == q_reduce(g, d2, q)


def is_effective_class(g, d):
    """True iff d is linearly equivalent to an effective divisor."""
    q = g.base_head
    return q_reduce(g, d, q)[q] >= 0


def canonical_divisor(g):
    return Divisor(g, {v: g.degree(v) - 2 for v in g.vertices})


class DivisorClass:
    """A divisor class, canonicalized by q-reduction at t(base edge)."""

    __slots__ = ("graph", "representative", "_hash")

    def __init__(self, graph, d):
        self.graph = graph
        self.representative = q_reduce(graph, d, graph.base_head)
        self._hash = hash((graph, self.representative))

    @classmethod
    def _of_reduced(cls, graph, rep):
        """The class of rep, which is already reduced at t(base edge)."""
        self = cls.__new__(cls)
        self.graph = graph
        self.representative = rep
        self._hash = hash((graph, rep))
        return self

    @property
    def degree(self):
        return self.representative.degree

    @property
    def is_zero(self):
        return self.degree == 0 and not self.representative.items()

    @property
    def is_effective(self):
        return self.representative[self.graph.base_head] >= 0

    def __add__(self, other):
        if isinstance(other, DivisorClass):
            other = other.representative
        return DivisorClass(self.graph, self.representative + other)

    def __sub__(self, other):
        if isinstance(other, DivisorClass):
            other = other.representative
        return DivisorClass(self.graph, self.representative - other)

    def __neg__(self):
        return DivisorClass(self.graph, -self.representative)

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.graph == other.graph and self.representative == other.representative

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DivisorClass({self.representative!r}, deg={self.degree})"


def abel_jacobi(g, points):
    """Class of sum(points) - n * t(base edge)."""
    t0 = g.base_head
    coeffs = {}
    n = 0
    for p in points:
        if p not in g.vertices:
            raise ValidationError(f"vertex {p!r} not in graph")
        coeffs[p] = coeffs.get(p, 0) + 1
        n += 1
    coeffs[t0] = coeffs.get(t0, 0) - n
    return DivisorClass(g, Divisor(g, coeffs))


def _certify(core, s):
    """One Dhar burn of the configuration s on V - q that always burns the
    lowest-index burnable vertex next.  Returns the burn order, which is
    short when some vertex never burns (s is not superstable), and the
    certificate room[v] = (edges from v to vertices burnt before v) - 1 - s[v],
    which is >= 0 off q when all burn.  The burn order orients each edge
    from its earlier end to its later one: an acyclic orientation with
    unique source q and s <= indeg - 1, so any s' <= s + room is superstable
    by the same order."""
    nbrs, qi = core.nbrs, core.q
    n = len(s)
    counts = [0] * n
    room = [0] * n
    lit = [False] * n
    lit[qi] = True
    ready = [qi]
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        room[i] = counts[i] - 1 - s[i]
        for j, m in nbrs[i]:
            counts[j] += m
            if not lit[j] and counts[j] > s[j]:
                lit[j] = True
                heapq.heappush(ready, j)
    return order, room


def _superstables(core, nodes, max_size, frontier=None):
    """Grow the certified superstable search on V - q from `nodes`, a stack
    of search nodes (s, room, first, |s|) whose children are still to be
    grown, each with |s| < max_size (room None: not burnt yet).  Yield
    (s, |s|) for each superstable child s with |s| <= max_size, as a list
    indexed like core (s[q] = 0; the caller must not modify it).  A child of
    size max_size is not grown; it goes to `frontier` when one is given, so
    a later call can resume the search from it.  `_Search` runs it once per
    graph: Θ is the cut at g - 1, Pic^0 resumes from Θ's frontier, and
    every Pic^d is a translate of Pic^0.

    Superstables form an order ideal, so a depth-first search from the zero
    configuration reaches each one once, from its canonical parent: s minus
    one chip on its last non-zero vertex.  Each node carries its `_certify`
    room; a child s + e_i with room[i] > 0 is superstable by the parent's
    burn order and inherits that room less one at i, so only the other
    children are burnt.  A child with s[i] + 1 >= deg(i) can never burn and
    is skipped outright."""
    nbrs, qi = core.nbrs, core.q
    n = len(nbrs)
    others = [i for i in range(n) if i != qi]
    degree = [sum(m for _, m in nbrs[i]) for i in range(n)]
    while nodes:
        s, room, first, size = nodes.pop()
        if room is None:
            room = _certify(core, s)[1]
        size += 1
        for p in range(first, len(others)):
            i = others[p]
            if s[i] + 1 >= degree[i]:
                continue
            child = s.copy()
            child[i] += 1
            if room[i] > 0:
                child_room = room.copy()
                child_room[i] -= 1
            else:
                order, child_room = _certify(core, child)
                if len(order) < n:
                    continue
            yield child, size
            if size < max_size:
                nodes.append((child, child_room, p, size))
            elif frontier is not None:
                frontier.append((child, child_room, p, size))


def _class_of(g, qi, s, degree, size):
    """The class whose representative reduced at q (index qi) is
    s + (degree - size) q, for a superstable s of size |s| = size."""
    rep = s.copy()
    rep[qi] = degree - size
    return DivisorClass._of_reduced(g, Divisor._of(g, rep))


class _Search:
    """The certified superstable search of g at q = t(base of g), one per
    graph (see `_search`).  With tau = |Pic^0| (the spanning-tree count):

    - `theta` is Θ at q, the classes s - |s| q with |s| <= g - 1: at q a
      degree-0 class is s - |s| q for a superstable s, and s + (g - 1 - |s|) q
      is also q-reduced, so c + (g - 1) q is effective iff |s| <= g - 1.
      `frontier` holds the search nodes of size g - 1, whose children the
      cut at g - 1 does not grow.
    - `pic0` is Pic^0: `theta` plus the top level |s| = g, grown from the
      frontier by the same child rule, so it burns only configurations of
      size g and builds only |Pic^0| - |Θ| new classes.  The frontier is then
      dropped.  Asked for first, Pic^0 grows Θ on the way."""

    __slots__ = ("graph", "core", "tau", "theta", "frontier", "pic0")

    def __init__(self, g):
        self.graph = g
        self.core = _core(g, g.base_head)
        self.tau = spanning_tree_count(g)
        self.theta = self.frontier = self.pic0 = None

    def check_bound(self, max_classes):
        """Raise EnumerationBoundExceeded, with the limit and reached count
        of a search stopped at the first class over max(max_classes, 1),
        when |Pic^0| is over that bound."""
        bound = max(max_classes, 1)
        if self.tau > bound:
            raise EnumerationBoundExceeded(max_classes, bound + 1)

    def theta_classes(self):
        if self.theta is None:
            g, core = self.graph, self.core
            zero = [0] * len(core.nbrs)
            root = (zero, None, 0, 0)
            nodes, self.frontier = ([root], []) if g.genus > 1 else ([], [root])
            found = _superstables(core, nodes, g.genus - 1, self.frontier)
            self.theta = frozenset([_class_of(g, core.q, zero, 0, 0)]).union(
                _class_of(g, core.q, s, 0, size) for s, size in found
            )
        return self.theta

    def pic0_classes(self):
        if self.pic0 is None:
            g, core = self.graph, self.core
            if g.genus == 0:
                self.pic0 = frozenset([_class_of(g, core.q, [0] * len(core.nbrs), 0, 0)])
            else:
                theta = self.theta_classes()
                top = _superstables(core, list(self.frontier), g.genus)
                self.pic0 = theta.union(_class_of(g, core.q, s, 0, size) for s, size in top)
            self.frontier = None
        return self.pic0


@lru_cache(maxsize=256)
def _search(g):
    """The one certified superstable search of g, shared by Θ, Pic^0 and
    every Pic^d."""
    return _Search(g)


def enumerate_picard(g, degree, max_classes=DEFAULT_MAX_CLASSES):
    """All divisor classes of the given degree (finite; desk scale).

    With q = t(base edge), the q-reduced divisors of degree d are exactly
    s + (d - |s|) q for the superstable configurations s on V - q, and
    |s| <= g for each of them.  Pic^0 is g's one certified superstable search
    (`_Search`): Θ, its prefix |s| <= g - 1, then the top level resumed from
    Θ's frontier, about one Dhar burn per class and no q-reduction.  Pic^d is
    Pic^0 translated by d q, with no burn.  Raises EnumerationBoundExceeded
    when |Pic^d| (the spanning-tree count) is over max(max_classes, 1), as a
    search stopped at the first class over that bound would."""
    search = _search(g)
    search.check_bound(max_classes)
    pic0 = search.pic0_classes()
    if degree == 0:
        return pic0
    qi = search.core.q
    out = []
    for c in pic0:
        rep = list(c.representative.vector)
        rep[qi] += degree
        out.append(DivisorClass._of_reduced(g, Divisor._of(g, rep)))
    return frozenset(out)


def in_theta(g, cls):
    """Whether the class cls on g lies in Θ at q = t(base of g): deg(cls) = 0
    and cls + (g - 1) q is effective.  The representative is reduced at q, so
    no q-reduction is needed."""
    d = cls.representative + vertex_divisor(g, g.base_head, g.genus - 1)
    return cls.degree == 0 and d.is_effective


def theta_divisor(g, max_classes=DEFAULT_MAX_CLASSES):
    """Degree-0 classes c with c + (g-1)t(base) effective (the theta divisor):
    the |s| <= g - 1 prefix of g's one certified search, which Pic^0 later
    resumes.  Θ at another edge e is theta_divisor(g.with_base(e)).  Raises
    EnumerationBoundExceeded when |Pic^0| exceeds max_classes, as
    enumerate_picard(g, 0, max_classes) would, on a cache hit too."""
    if g.genus < 1:
        raise GenusTooSmall("theta divisor needs genus >= 1")
    search = _search(g)
    search.check_bound(max_classes)
    return search.theta_classes()


class Classification(enum.Enum):
    SPECIAL = "Special"
    NONSPECIAL = "Nonspecial"


def classify_gminus1(g, d):
    if d.degree != g.genus - 1:
        raise WrongDegree(
            f"expected degree {g.genus - 1}, got {d.degree}"
        )
    return Classification.SPECIAL if is_effective_class(g, d) else Classification.NONSPECIAL
