"""The rational reference model of the Jacobian: exact cochain arithmetic,
the cycle lattice, projection, the vectors h_l and P_v, the bridges iota /
iota-inverse between divisor classes and lattice data, and the cochain
pushforward of a morphism.  No floating point anywhere.

No library code calls this module; `rigidlift.orcyc` works on integer
chains.  It stays in the package as the independent oracle that the tests
compare the integer pushforward against, and because the benchmark in
`perfbench/` imports it and traces its functions."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegralClass, NotInCycleSpace, ValidationError
from .divisor import Divisor
from .multigraph import bfs_tree, fundamental_cycles, id_key, shortest_path


class Cochain:
    """A rational-valued function on edges of a fixed graph."""

    __slots__ = ("graph", "_coeffs", "_hash")

    def __init__(self, graph, coeffs=None):
        self.graph = graph
        clean = {}
        for e, c in (coeffs or {}).items():
            if not graph.has_edge(e):
                raise ValidationError(f"edge {e!r} not in graph")
            c = Fraction(c)
            if c:
                clean[e] = c
        self._coeffs = clean
        self._hash = hash((graph, tuple(sorted(clean.items(), key=lambda kv: id_key(kv[0])))))

    def __getitem__(self, e):
        return self._coeffs.get(e, Fraction(0))

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: id_key(kv[0]))

    @property
    def is_zero(self):
        return not self._coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Cochain(self.graph, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Cochain(self.graph, {e: -c for e, c in self._coeffs.items()})

    def __rmul__(self, k):
        k = Fraction(k)
        return Cochain(self.graph, {e: k * c for e, c in self._coeffs.items()})

    def inner(self, other):
        self._check(other)
        small, big = self._coeffs, other._coeffs
        if len(big) < len(small):
            small, big = big, small
        return sum((c * big[e] for e, c in small.items() if e in big), Fraction(0))

    def _check(self, other):
        if not isinstance(other, Cochain) or other.graph != self.graph:
            raise ValidationError("cochains live on different graphs")

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return self.graph == other.graph and self._coeffs == other._coeffs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self._coeffs:
            return "Cochain(0)"
        return "Cochain(" + " ".join(f"{e}:{c}" for e, c in self.items()) + ")"


def edge_indicator(g, e):
    return Cochain(g, {e: 1})


def path_cochain(g, path):
    """The algebraic path alpha(P): signed sum of crossed edge indicators."""
    coeffs = {}
    for e, s in zip(path.edges, path.signs):
        coeffs[e] = coeffs.get(e, 0) + s
    return Cochain(g, coeffs)


def _solve(matrix, rhs):
    """Exact Gaussian elimination: solve matrix * x = rhs over the rationals."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


class CycleLattice:
    """The lattice H^1(G, Z) in its fundamental-cycle basis."""

    def __init__(self, graph):
        self.graph = graph
        self.basis = [path_cochain(graph, c) for c in fundamental_cycles(graph)]
        n = len(self.basis)
        self.gram = [
            [self.basis[i].inner(self.basis[j]) for j in range(n)] for i in range(n)
        ]

    def pairings(self, x):
        return [b.inner(x) for b in self.basis]

    def coordinates(self, x):
        """Rational coordinates of project(x) in the fundamental basis."""
        if not self.basis:
            return []
        return _solve(self.gram, self.pairings(x))

    def project(self, x):
        out = Cochain(self.graph)
        for c, b in zip(self.coordinates(x), self.basis):
            if c:
                out = out + c * b
        return out

    def in_cycle_space(self, x):
        return self.project(x) == x

    def lattice_equivalent(self, x, y):
        for z in (x, y):
            if not self.in_cycle_space(z):
                raise NotInCycleSpace(f"{z!r} is not in the cycle space")
        return all(c.denominator == 1 for c in self.coordinates(x - y))

    def contains(self, x):
        """Membership of x in the integer lattice itself."""
        return self.lattice_equivalent(x, Cochain(self.graph))


@lru_cache(maxsize=None)
def lattice_for(g):
    return CycleLattice(g)


def project(lat, x):
    return lat.project(x)


def h_edge(lat, e):
    """h_e: the projection of the edge indicator to the cycle space."""
    return lat.project(edge_indicator(lat.graph, e))


def lattice_equivalent(lat, x, y):
    return lat.lattice_equivalent(x, y)


def p_vertex(g, v):
    """P_v: projected algebraic path from t(base edge) to v."""
    lat = lattice_for(g)
    return lat.project(path_cochain(g, shortest_path(g, g.base_head, v)))


def iota(g, d):
    """Bridge Pic -> (cycle space mod lattice, degree).

    Pairs the negative chips of d - (deg d) * t(base) with the positive ones
    and sums the projected algebraic paths from each negative to its positive
    partner.  The cochain is well defined modulo the lattice.
    """
    n = d.degree
    shifted = d - Divisor(g, {g.base_head: n})
    positives, negatives = [], []
    for v in sorted(g.vertex_ids, key=id_key):
        c = shifted[v]
        if c > 0:
            positives.extend([v] * c)
        elif c < 0:
            negatives.extend([v] * (-c))
    assert len(positives) == len(negatives)
    lat = lattice_for(g)
    total = Cochain(g)
    for q, p in zip(negatives, positives):
        total = total + path_cochain(g, shortest_path(g, q, p))
    return lat.project(total), n


def integral_lift(g, x):
    """An integer cochain y with project(y) = x, or NonIntegralClass.

    y differs from x by a coboundary; a vertex potential is propagated along
    the breadth-first tree from t(base) so that y vanishes on tree edges, then
    integrality is checked on the remaining edges.
    """
    lat = lattice_for(g)
    if not lat.in_cycle_space(x):
        raise NotInCycleSpace(f"{x!r} is not in the cycle space")
    root = g.base_head
    pot = {root: Fraction(0)}
    for u, e, w in bfs_tree(g, root):
        # enforce y(e) = x(e) + pot[t(e)] - pot[o(e)] = 0
        if g.t(e) == w:
            pot[w] = pot[u] - x[e]
        else:
            pot[w] = pot[u] + x[e]
    coeffs = {}
    for e in g.edge_ids:
        y = x[e] + pot[g.t(e)] - pot[g.o(e)]
        if y:
            if y.denominator != 1:
                raise NonIntegralClass(f"no integral representative for {x!r}")
            coeffs[e] = int(y)
    return Cochain(g, coeffs)


def iota_inverse(g, x, k):
    """Bridge (cycle space, degree) -> divisor: k*t(base) + sum a_l (t(l)-o(l))."""
    y = integral_lift(g, x)
    coeffs = {g.base_head: k}
    for e, a in y.items():
        a = int(a)
        coeffs[g.t(e)] = coeffs.get(g.t(e), 0) + a
        coeffs[g.o(e)] = coeffs.get(g.o(e), 0) - a
    return Divisor(g, coeffs)


def pushforward_cochain(m, x):
    """phi_* x: the source cochain x carried to the target, twisted by sgn."""
    emap, sgn = m.edge_dict, m.sign_dict
    return Cochain(m.target, {emap[e]: sgn[e] * c for e, c in x.items()})
