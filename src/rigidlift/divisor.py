"""Divisor arithmetic: Laplacian, q-reduction, effectiveness, Abel-Jacobi,
Picard enumeration and the discrete theta divisor."""

from __future__ import annotations

import enum
import heapq
from collections import Counter
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


def _integer(c, what):
    """c as an int.  A value that is not an integer raises ValidationError
    instead of being truncated; 2.0 and Fraction(4, 2) are integers."""
    try:
        k = int(c)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != c:
        raise ValidationError(f"{what} {c!r} is not an integer")
    return k


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
            vector[index[v]] = _integer(c, "coefficient")
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
        k = _integer(k, "multiplier")
        return Divisor._of(self.graph, (k * c for c in self.vector))

    def _check(self, other):
        if not isinstance(other, Divisor) or other.graph != self.graph:
            raise ValidationError("divisors live on different graphs")

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.graph == other.graph and self.vector == other.vector

    def __hash__(self):
        # The vector alone: __eq__ still tells two graphs apart.
        return hash(self.vector)

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
        times = _integer(times, "firing count")
        for e in g.incident(v):
            out[index[g.other_end(e, v)]] += times
            out[index[v]] -= times
    return Divisor._of(g, out)


class _Core(NamedTuple):
    nbrs: tuple  # per index: ((neighbour index, edge multiplicity), ...)
    degree: tuple  # per index: total edge multiplicity to neighbours
    depth: tuple  # per index: BFS distance from q
    q: int  # index of q


@lru_cache(maxsize=256)
def _core(g, q):
    """The vertex-indexed view of g rooted at q that reduction, burning and
    enumeration work on: index i is g.vertex_ids[i]; neighbour lists with
    edge multiplicities, degrees and BFS depths from q."""
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
    degree = tuple(sum(m for _, m in ns) for ns in nbrs)
    return _Core(nbrs, degree, tuple(depth), index[q])


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


def _check_on(g, d):
    """Raise ValidationError unless d is a divisor on g: d.graph is g, or has
    g's vertex ids and each edge id with the same unordered ends (g rebased,
    or with some edges reversed)."""
    h = d.graph
    if h is not g and (
        h.vertex_ids != g.vertex_ids
        or h.edge_ids != g.edge_ids
        or any(set(h.ends(e)) != set(g.ends(e)) for e in g.edge_ids)
    ):
        raise ValidationError("divisor is not on the vertices and edges of the graph")


def q_reduce(g, d, q):
    """The unique q-reduced divisor linearly equivalent to d."""
    if q not in g.vertices:
        raise ValidationError(f"vertex {q!r} not in graph")
    core = _core(g, q)
    nbrs, depth = core.nbrs, core.depth
    _check_on(g, d)
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
    _check_on(g, d)
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
        self._hash = hash(self.representative.vector)

    @classmethod
    def _of_reduced(cls, graph, rep):
        """The class of rep, which is already reduced at t(base edge)."""
        self = cls.__new__(cls)
        self.graph = graph
        self.representative = rep
        self._hash = hash(rep.vector)
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
    d = Divisor(g, Counter(points))
    return DivisorClass(g, d - vertex_divisor(g, g.base_head, d.degree))


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


def _grow(core, level):
    """The next level of the certified superstable search on V - q.  `level`
    holds the search nodes (s, room, first) of the superstables s with
    |s| = k: s is a list indexed like core with s[q] = 0, room its `_certify`
    room (None: not burnt yet) and first the vertex index of its last chip.
    Returns the nodes of the superstables with |s| = k + 1 as a new list;
    `level` and its lists are left unchanged.

    Superstables form an order ideal, so growing level by level from the
    zero configuration reaches each one once, from its canonical parent: s
    minus one chip on its last non-zero vertex.  A child s + e_i with
    room[i] > 0 is superstable by the parent's burn order and inherits that
    room less one at i, so only the other children are burnt.  A child with
    s[i] + 1 >= deg(i) can never burn and is skipped outright."""
    nbrs, degree, qi = core.nbrs, core.degree, core.q
    n = len(nbrs)
    out = []
    for s, room, first in level:
        if room is None:
            room = _certify(core, s)[1]
        for i in range(first, n):
            if i == qi or s[i] + 1 >= degree[i]:
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
            out.append((child, child_room, i))
    return out


def _level_classes(g, qi, level, size):
    """The degree-0 classes s - size q (q at index qi) of the nodes (s, room,
    first) of one search level |s| = size: each representative is reduced
    at q."""
    of, of_reduced = Divisor._of, DivisorClass._of_reduced
    out = []
    for s, _, _ in level:
        rep = s.copy()
        rep[qi] = -size
        out.append(of_reduced(g, of(g, rep)))
    return out


class _Search:
    """The certified superstable search of g at q = t(base of g), one per
    graph (see `_search`), grown one level |s| at a time by `_grow` from
    level 0, the zero configuration.  At q each degree-0 class is s - |s| q
    for one superstable s, with |s| <= g.  tau = |Pic^0| (the spanning-tree
    count) is None until a class bound is over Hadamard's bound on it (see
    `check_bound`), and each other field is set only once it is wholly
    computed:

    - `theta` is Θ at q, the classes of levels 0 to g - 1: s + (g - 1 - |s|) q
      is also q-reduced, so s - |s| q + (g - 1) q is effective iff
      |s| <= g - 1.  `top` keeps the nodes of level g - 1.
    - `pic0` is Pic^0: `theta` plus the classes of level g, grown from `top`,
      so it burns only configurations of size g and builds only
      |Pic^0| - |Θ| new classes.  `top` is then dropped.  Asked for first,
      Pic^0 grows Θ on the way."""

    __slots__ = ("graph", "core", "tau", "theta", "top", "pic0")

    def __init__(self, g):
        self.graph = g
        self.core = _core(g, g.base_head)
        self.tau = self.theta = self.top = self.pic0 = None

    def check_bound(self, max_classes):
        """Raise EnumerationBoundExceeded, with the limit and reached count
        of a search stopped at the first class over max(max_classes, 1),
        when |Pic^0| is over that bound.  The reduced Laplacian at q is
        positive definite with the degrees on its diagonal, so by Hadamard's
        inequality tau <= the product of the degrees off q; tau itself is
        counted (once) only when that product is over the bound."""
        bound = max(max_classes, 1)
        core = self.core
        product = 1
        for i, d in enumerate(core.degree):
            if i != core.q:
                product *= d
                if product > bound:
                    break
        else:
            return
        if self.tau is None:
            self.tau = spanning_tree_count(self.graph)
        if self.tau > bound:
            raise EnumerationBoundExceeded(max_classes, bound + 1)

    def theta_classes(self):
        if self.theta is None:
            g, core = self.graph, self.core
            zero = [0] * len(core.nbrs)
            level = [(zero, None, 0)]
            classes = _level_classes(g, core.q, level, 0)
            for size in range(1, g.genus):
                level = _grow(core, level)
                classes += _level_classes(g, core.q, level, size)
            self.theta, self.top = frozenset(classes), level
        return self.theta

    def pic0_classes(self):
        if self.pic0 is None:
            theta = self.theta_classes()
            g, core = self.graph, self.core
            level = _grow(core, self.top)
            self.pic0 = theta.union(_level_classes(g, core.q, level, g.genus))
            self.top = None
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
    |s| <= g for each of them.  Pic^0 is the levels |s| = 0, ..., g of g's
    one certified superstable search (`_Search`): Θ's levels 0 to g - 1, then
    level g grown from Θ's top level, about one Dhar burn per class and no
    q-reduction.  Pic^d is Pic^0 translated by d q, with no burn.  Raises
    EnumerationBoundExceeded when |Pic^d| (the spanning-tree count) is over
    max(max_classes, 1), as a search stopped at the first class over that
    bound would."""
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
    the levels |s| = 0, ..., g - 1 of g's one certified search, whose level g
    Pic^0 adds.  Θ at another edge e is theta_divisor(g.with_base(e)).  Raises
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
