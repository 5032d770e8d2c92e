"""Morphisms of based oriented graphs given by cyclic (matroid) bijections:
sign computation, pushforwards, rigidity and lowering divisors, theta
preservation, non-rigidity witnesses and lifting to graph isomorphisms."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import mul
from typing import NamedTuple

from .errors import (
    BaseNotPreserved,
    CompositionMismatch,
    GenusTooSmall,
    InternalError,
    InvalidCyclicBijection,
    MorphismIsRigid,
    MorphismNotRigid,
    NoCommonCycle,
    NoSeriesFixingLift,
    NotBijection,
    NotTwoConnected,
    NotTwoEdgeConnected,
    QIsEffective,
    ValidationError,
)
from .divisor import (
    DEFAULT_MAX_CLASSES,
    Divisor,
    DivisorClass,
    in_theta,
    q_reduce,
    theta_divisor,
    vertex_divisor,
)
from .multigraph import (
    Multigraph,
    biconnectivity,
    cycle_basis,
    cycle_masks,
    id_key,
    rooted_tree,
    series_classes,
    series_table,
    tie_bits,
)
from .orientation import (
    EdgeState,
    PartialOrientation,
    chern_class,
    extend_to_nonspecial,
)


def _require_bijection(g, h, edge_map, require_base):
    if set(edge_map) != set(g.edge_ids) or set(edge_map.values()) != set(h.edge_ids):
        raise NotBijection("edge_map is not a bijection between the edge sets")
    if len(set(edge_map.values())) != len(edge_map):
        raise NotBijection("edge_map is not injective")
    if require_base and edge_map[g.base_edge] != h.base_edge:
        image = edge_map[g.base_edge]
        raise BaseNotPreserved(f"base {g.base_edge!r} maps to {image!r}, not {h.base_edge!r}")


def validate_cyclic_bijection(g, h, edge_map, require_base=True):
    """True iff edge_map carries the cycle space of g onto that of h: the
    genera agree and the image of each fundamental cycle of g meets every
    vertex of h in an even number of edge ends (XOR of the signatures)."""
    _require_bijection(g, h, edge_map, require_base)
    if g.genus != h.genus:
        return False
    odd = dict.fromkeys(h.vertex_ids, 0)
    for e, signature in zip(g.edge_ids, cycle_basis(g, None).signatures):
        for v in h.ends(edge_map[e]):
            odd[v] ^= signature
    return not any(odd.values())


class OrCycMorphism:
    """A base-preserving cyclic bijection with its computed sign function.
    Its action on Pic is computed at most once and cached.  Two morphisms
    are equal when their four fields are."""

    def __init__(self, source, target, edge_map, signs):
        self.source = source
        self.target = target
        self.edge_map = edge_map  # sorted ((source edge, target edge), ...)
        self.signs = signs  # sorted ((source edge, +1 | -1), ...)

    def _key(self):
        return (self.source, self.target, self.edge_map, self.signs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def edge_dict(self):
        return dict(self.edge_map)

    @cached_property
    def sign_dict(self):
        return dict(self.signs)

    def map_edge(self, e):
        return self.edge_dict[e]

    def sgn(self, e):
        return self.sign_dict[e]

    @cached_property
    def push(self):
        """phi_* on divisors: a function d -> D on the target with phi_*[d] = [D].

        p_v is the integer chain of the path from t0 = t(base) to v in the
        source's breadth-first tree (`cycle_basis`), so [v - t0] = [boundary
        p_v].  A signed permutation that carries the cycle lattice onto itself
        also carries the cut lattice onto itself, so phi_*[boundary y] =
        [boundary phi_*(y)] for every integer chain y.  With
        img(v) = boundary phi_*(p_v), phi_*[d] = [deg(d) t0' + sum_v d(v) img(v)];
        img(v) is kept as (target vertex index, coefficient) pairs."""
        g, h = self.source, self.target
        emap, sgn = self.edge_dict, self.sign_dict
        index = h.vertex_index
        img = {g.base_head: ()}
        for u, e, w in cycle_basis(g, None).tree:
            c = sgn[e] if g.t(e) == w else -sgn[e]
            r = emap[e]
            img[w] = img[u] + ((index[h.t(r)], c), (index[h.o(r)], -c))
        chains = [img[v] for v in g.vertex_ids]
        t0 = index[h.base_head]

        def push(d):
            out = [0] * len(index)
            out[t0] = d.degree
            for k, chain in zip(d.vector, chains):
                if k:
                    for i, a in chain:
                        out[i] += k * a
            return Divisor._of(h, out)

        return push

    @cached_property
    def rigidity(self):
        """E_phi = phi_*[c(O_G)] - [c(phi_O(O_G))] (see `rigidity_divisor`):
        `diagram_defect` at O_G, which points each edge e at t(e), read off
        the edges with no orientation object."""
        g = self.source
        index = g.vertex_index
        chern = [-1] * len(index)
        for e in g.edge_ids:
            chern[index[g.t(e)]] += 1
        return _defect(self, Divisor._of(g, chern), [1] * len(g.edge_ids))

    @cached_property
    def _walk(self):
        """(images, reduced): images maps each source vertex v to the target
        vertex r with phi_*[v] = [r], or None, and reduced maps each v with
        r None to the pairs of R_v (see `reduced_images`).

        A walk down the tree of `push` from t0 (r = q).  Across an edge
        u -> w, phi_*[w] = phi_*[u] + c [t(r) - o(r)], r = phi(e) and c = +-sgn(e)
        as the step crosses e tail-to-head or not.  The edges of a series
        class of H, each oriented along one directed circuit C, have one
        class [head - tail]: two of them form a 2-edge cut that C crosses once
        each way, and firing the side that holds one's tail moves a chip
        across each.  phi carries e's series class onto r's, and the image of
        the class's circuit (`series_table`) crosses phi(f) from o to t iff
        sgn(f) times f's direction on it is +1.  So if phi_*[u] = [x] and x
        is the tail of phi(f) for an f of the class (tail and head taken the
        way the step runs along C; for f = e, the end of r the step leaves),
        w goes to its head y.  Otherwise push(w) is q-reduced once: [w] is a
        vertex class iff that form is one chip, and else it is kept minus q."""
        g, h = self.source, self.target
        emap, sgn, series = self.edge_dict, self.sign_dict, series_table(g)
        qi = h.vertex_index[h.base_head]
        images, reduced = {g.base_head: h.base_head}, {}
        for u, e, w in cycle_basis(g, None).tree:
            x, y = images[u], None
            block, way = series[e]
            way = way if g.t(e) == w else -way  # +1 iff the step runs along C
            for f in block:
                o, t = h.ends(emap[f])
                tail, head = (o, t) if way * series[f][1] * sgn[f] == 1 else (t, o)
                if tail == x:
                    y = head
                    break
            if y is None:
                form = DivisorClass(h, self.push(vertex_divisor(g, w))).representative
                chips = form.items()
                if len(chips) == 1 and chips[0][1] == 1:
                    y = chips[0][0]
                else:
                    r_w = list(form.vector)
                    r_w[qi] -= 1
                    reduced[w] = tuple((i, a) for i, a in enumerate(r_w) if a)
            images[w] = y
        return images, reduced

    @cached_property
    def reduced_images(self):
        """Source vertex v -> (R_v, r): the nonzero (target index, coefficient)
        pairs, in any order, of R_v, the reduced form of phi_*(v - t0) at
        q = t0' = t(base'), and the r of `vertex_image`.  Where r is a vertex,
        R_v = r - q, or 0 for r = q: in a 2-edge-connected graph the chip r
        is reduced (Dhar's burning: each component of H - r meets r in 2 or
        more edges).  Elsewhere `_walk` kept R_v."""
        h = self.target
        index, q = h.vertex_index, h.base_head
        images, reduced = self._walk
        minus_q = (index[q], -1)
        return {
            v: (reduced[v] if r is None else () if r == q else ((index[r], 1), minus_q), r)
            for v, r in images.items()
        }

    @cached_property
    def vertex_image(self):
        """Source vertex p -> the target vertex r with phi_*[p] = [r], or None."""
        return self._walk[0]

    def __repr__(self):
        return f"OrCycMorphism({self.source!r} -> {self.target!r})"


def _freeze_map(d, keys):
    """d as sorted pairs; keys are its keys in id order (edge or vertex ids)."""
    return tuple((k, d[k]) for k in keys)


def compute_signs(g, h, edge_map, seed=None):
    """The unique sign function with sgn(base) = +1.

    phi is cyclic iff phi(T), T the source's tree (`cycle_basis`), spans h
    and each edge has its image's signature, the bit of C_f (the cycle of f
    in T) standing for that of phi(f) in phi(T) (Whitney 1933); else
    InvalidCyclicBijection.  C_f and its image cross f and phi(f) forwards,
    so sgn(e) = eps_f src(e) img(phi e) on C_f, eps_f = +-1, and
    src(e) img(phi e) = -1 iff the bit of C_f lies in D(e), the XOR of the
    `forward` masks of e and phi(e).  `tie_bits` spreads eps from the base
    through each edge's bits; it reaches every cycle iff the cycle matroid
    of g is connected: for 3 or more vertices, iff g is 2-connected.  A
    connected regular matroid has one signing up to scaling (Brylawski-Lucas
    1976), so cycles cannot disagree on a sign; that check stays as a guard.
    A base on no cycle raises NoCommonCycle.  `seed` roots T at a vertex
    drawn from it; the answer does not depend on it."""
    if g.genus != h.genus:
        raise InvalidCyclicBijection("source and target genera differ")
    basis = cycle_basis(g, seed)
    tree = rooted_tree(h, [edge_map[e] for _, e, _ in basis.tree], h.base_head)
    if len(tree) != len(h.vertex_ids) - 1:
        raise InvalidCyclicBijection("the image of a spanning tree is not a spanning tree")
    in_tree = {e for _, e, _ in basis.tree}
    bits = {edge_map[e]: b for e, b in zip(g.edge_ids, basis.signatures) if e not in in_tree}
    image = cycle_masks(h, tree, bits)
    rows = {e: (s, f ^ image[edge_map[e]][1]) for e, s, f in zip(g.edge_ids, basis.signatures, basis.forward)}
    if any(image[edge_map[e]][0] != s for e, (s, _) in rows.items()):
        raise InvalidCyclicBijection("image of a simple cycle is not a simple cycle")
    base = g.base_edge
    signature, d = rows[base]
    if not signature:
        raise NoCommonCycle(f"the base {base!r} lies on no cycle")
    start = (signature & -signature).bit_length() - 1
    reached, eps = tie_bits(rows.values(), start, g.genus)
    if d >> start & 1:  # sgn(base) = +1: eps = D(base) on the base's cycles
        eps ^= reached
    signs = {}
    for e, (signature, d) in rows.items():  # in edge-id order
        if not signature & reached:
            raise NoCommonCycle(f"no simple cycle through {base!r} and {e!r}")
        x = (d ^ eps) & signature
        if x and x != signature:
            raise InvalidCyclicBijection(f"cycles disagree on the sign of {e!r}")
        signs[e] = -1 if x else 1
    return signs


def make_morphism(g, h, edge_map):
    """The morphism of a base-preserving cyclic bijection, with its signs.
    `compute_signs` compares the genera and the signatures of each edge and
    its image, so it raises InvalidCyclicBijection wherever
    `validate_cyclic_bijection` fails; that test is not repeated.
    Signs that reach every edge make phi an isomorphism of cycle matroids
    that they prove connected, so both graphs are 2-connected, and only a
    failure asks `biconnectivity` which graph is not."""
    _require_bijection(g, h, edge_map, True)
    try:
        signs = compute_signs(g, h, edge_map)
    except (InvalidCyclicBijection, NoCommonCycle):
        for graph in (g, h):
            two_conn, bridgeless = biconnectivity(graph)
            if not two_conn:
                raise NotTwoConnected(f"{graph!r} is not 2-connected")
            if not bridgeless:
                raise NotTwoEdgeConnected(f"{graph!r} is not 2-edge-connected")
        raise
    keys = g.edge_ids
    return OrCycMorphism(g, h, _freeze_map(edge_map, keys), _freeze_map(signs, keys))


def identity_morphism(g):
    return make_morphism(g, g, {e: e for e in g.edge_ids})


def compose(m2, m1):
    """m2 after m1; signs obey the product rule."""
    if m1.target != m2.source:
        raise CompositionMismatch("target of the first morphism is not the source of the second")
    emap1, emap2 = m1.edge_dict, m2.edge_dict
    sgn1, sgn2 = m1.sign_dict, m2.sign_dict
    emap = {e: emap2[emap1[e]] for e in emap1}
    signs = {e: sgn2[emap1[e]] * sgn1[e] for e in emap1}
    keys = m1.source.edge_ids
    return OrCycMorphism(m1.source, m2.target, _freeze_map(emap, keys), _freeze_map(signs, keys))


def inverse_morphism(m):
    forward = m.edge_dict
    emap = {t: s for s, t in forward.items()}
    signs = {forward[s]: sg for s, sg in m.signs}
    keys = m.target.edge_ids
    return OrCycMorphism(m.target, m.source, _freeze_map(emap, keys), _freeze_map(signs, keys))


# -- pushforwards ------------------------------------------------------------


def pushforward_orientation(m, u):
    if u.graph != m.source:
        raise ValidationError("the orientation is not on the source")
    emap, sgn = m.edge_dict, m.sign_dict
    states = {}
    for e in m.source.edge_ids:
        s = u.state(e)
        if s in (EdgeState.UNORIENTED, EdgeState.BIORIENTED):
            states[emap[e]] = s
        else:
            val = (1 if s is EdgeState.FORWARD else -1) * sgn[e]
            states[emap[e]] = EdgeState.FORWARD if val == 1 else EdgeState.BACKWARD
    return PartialOrientation(m.target, states)


def pushforward_class(m, cls):
    """phi_*[cls] as a class on the target (any degree)."""
    return DivisorClass(m.target, m.push(cls.representative))


# -- rigidity ----------------------------------------------------------------


def rigidity_divisor(m):
    """E_phi = phi_*[c(O_G)] - [c(O_H)] + sum over sign -1 edges e of
    [t(phi e) - o(phi e)] as a degree-0 class on the target.  That sum is
    c(O_H) - c(phi_O(O_G)), so E_phi is the diagram defect of O_G.  It is
    computed once per morphism."""
    return m.rigidity


def lowering_divisor(m, edge_set):
    """L_X = sum over X of ([t(phi(e)) - t0'] - phi_*[t(e) - t0]), which is
    [sum over X of t(phi(e))] - phi_*[sum over X of t(e)]."""
    g, h = m.source, m.target
    emap = m.edge_dict
    for e in edge_set:
        if not g.has_edge(e):
            raise ValidationError(f"edge {e!r} not in the source")
    heads = Divisor(h, Counter(h.t(emap[e]) for e in edge_set))
    tails = Divisor(g, Counter(g.t(e) for e in edge_set))
    return DivisorClass(h, heads - m.push(tails))


def diagram_defect(m, u):
    """phi_*[c(U)] - [c(phi_O(U))] as a degree-0 class on the target.  U must
    be on the source (ValidationError), then `chern_class` refuses a
    bioriented edge; c(phi_O(U)) is read off U's states and the signs.  At
    the base orientation O_G the defect is E_phi, reduced once per morphism."""
    if u.graph != m.source:
        raise ValidationError("the orientation is not on the source")
    if all(u.state(e) is EdgeState.FORWARD for e in m.source.edge_ids):
        return m.rigidity
    return _defect(m, chern_class(u), map(u.sgn, m.source.edge_ids))


def _defect(m, chern, states):
    """phi_*[chern] - [c(phi_O(U))], chern = c(U) and `states` +1, -1 or 0 per
    source edge (id order) as U points e at t(e), at o(e) or not: phi_O(U) points
    phi(e) at t(phi e) iff its state is sgn(e).  A zero vector is not reduced."""
    h = m.target
    emap, sgn, index = m.edge_dict, m.sign_dict, h.vertex_index
    d = [a + 1 for a in m.push(chern).vector]  # minus c(phi_O(U)): + 1 per vertex, - its heads
    for e, s in zip(m.source.edge_ids, states):
        if s:
            o, t = h.ends(emap[e])
            d[index[t if s == sgn[e] else o]] -= 1
    d = Divisor._of(h, d)
    return DivisorClass(h, d) if any(d.vector) else DivisorClass._of_reduced(h, d)


def _require_genus(m):
    if m.source.genus < 2 or m.target.genus < 2:
        raise GenusTooSmall("rigidity analysis requires genus >= 2")


def is_rigid(m):
    """E_phi = 0.  For a base alone in its series class the four criterion-3
    predicates (this, `diagram_defect` at the base orientation,
    `theta_preserved`, `s1_image_preserved`) agree; in a larger class Θ
    cannot see the order of the class's edges (see `_lift`)."""
    _require_genus(m)
    return rigidity_divisor(m).is_zero


def theta_preserved(m, max_classes=DEFAULT_MAX_CLASSES):
    """Whether phi_* carries Θ of the source onto Θ of the target, each at
    its own q = t(base).  Every constructor of OrCycMorphism yields a cyclic
    bijection, so |Θ_G| = |Θ_H| (the number of superstables of each size is
    read off T(1, y) of the cycle matroid, Merino) and τ_G = τ_H (its bases):
    only Θ_G is enumerated, and its bound max_classes on τ_G raises exactly
    when one on τ_H would.  phi_* is a group isomorphism of Pic^0, so
    phi_*Θ_G = Θ_H iff `_theta_escapes` yields no class of Θ_G."""
    _require_genus(m)
    return next(_theta_escapes(m, theta_divisor(m.source, max_classes=max_classes)), None) is None


def _theta_escapes(m, classes):
    """The classes among `classes` (of Θ_G), in order, that phi_* carries out
    of Θ_H.  R_v (`reduced_images`, R_t0 = 0) is >= 0 off q, so
    w_v = -R_v(q) >= 0.  A class s - |s| t0 of Θ_G (s superstable) goes to
    the class of D - (g - 1) q, D = sum s(v) R_v + (g - 1) q, which is >= 0
    off q with D(q) = g - 1 - sum s(v) w_v: when that sum is at most g - 1
    the image lies in Θ_H, else D, summed from the pairs, is reduced once."""
    h = m.target
    q, qi = h.base_head, h.vertex_index[h.base_head]
    reduced = [m.reduced_images[v][0] for v in m.source.vertex_ids]  # R_v in source order
    weight = [-dict(pairs).get(qi, 0) for pairs in reduced]
    slack = m.source.genus - 1
    for c in classes:
        s = c.representative.vector
        if sum(map(mul, s, weight)) > slack:
            d = [0] * len(h.vertex_ids)
            d[qi] = slack
            for k, pairs in zip(s, reduced):
                if k:
                    for i, a in pairs:
                        d[i] += k * a
            if q_reduce(h, Divisor._of(h, d), q).vector[qi] < 0:
                yield c


def s1_image_preserved(m):
    """Whether the image of the degree-1 Abel-Jacobi map is carried over:
    {phi_*[v]} = {[w]}, both sides translated by the base heads; as
    |V(G)| = |V(H)|, iff the vertex images are a bijection onto V(H)."""
    _require_genus(m)
    return set(m.vertex_image.values()) == set(m.target.vertex_ids)


def nonrigidity_witness(m, max_classes=DEFAULT_MAX_CLASSES):
    """(s, phi_*s), s in Θ of the source and phi_*s not in Θ of the target.
    For the first target vertex v with q = E_phi + v not effective that
    works, s = phi^-1_*[q + T] - (g - 1) t0 (T from `extend_to_nonspecial`):
    the defect phi_*[c(U)] - [c(phi_O U)] is E_phi for every full U.  Tests
    are by `in_theta`; Θ of the source is enumerated, under max_classes, only
    for the fallback, which takes the first class `_theta_escapes` yields."""
    if is_rigid(m):
        raise MorphismIsRigid("morphism is rigid; no witness exists")
    g, h = m.source, m.target
    shift = vertex_divisor(g, g.base_head, g.genus - 1)
    inv = inverse_morphism(m)
    for v in h.vertex_ids:
        q = m.rigidity.representative + vertex_divisor(h, v)
        try:
            t = extend_to_nonspecial(h, q)
        except QIsEffective:
            continue
        s = DivisorClass(g, inv.push(q + t) - shift)
        image = pushforward_class(m, s)
        if in_theta(g, s) and not in_theta(h, image):
            return s, image
    # Fallback: the first class of the source's Θ, in order, that phi_* carries out.
    theta_g = theta_divisor(g, max_classes=max_classes)
    for s in _theta_escapes(m, sorted(theta_g, key=lambda c: tuple(c.representative.items()))):
        return s, pushforward_class(m, s)
    raise InternalError("non-rigid morphism but theta image matches")


# -- lifting -----------------------------------------------------------------


def lift_to_graph_isomorphism(m):
    """For a rigid morphism, a series-fixing psi and a vertex map such that
    psi composed with the edge map is a graph isomorphism (`_lift`), else
    NoSeriesFixingLift.  For a base alone in its series class the four
    criterion-3 predicates agree, and a rigid morphism lifts fixing the base."""
    if not is_rigid(m):
        raise MorphismNotRigid("only rigid morphisms lift")
    found, tried = _lift(m)
    if found is None:
        raise NoSeriesFixingLift(f"no series-fixing lift at the anchors {list(tried)}")
    return found


def _anchored(m, anchor, reverse):
    """tau phi onto the target based at `anchor`, reversed if `reverse`; tau
    swaps phi(base) and the anchor, which lie on the same cycles.  Only the
    base differs from m's target, so 2-connectivity is not checked again."""
    g, h = m.source, m.target
    w = h.base_edge
    pairs = tuple((e, anchor if r == w else w if r == anchor else r) for e, r in m.edge_map)
    edges = h.edges
    if reverse:
        edges[anchor] = edges[anchor][::-1]
    target = Multigraph(h.vertices, edges, anchor)
    signs = compute_signs(g, target, dict(pairs))
    return OrCycMorphism(g, target, pairs, _freeze_map(signs, g.edge_ids))


def _lift(m):
    """((psi, vertex map) or None, the anchors tried in order).  Θ sees only
    the 3-edge-connectivization (Caporaso-Viviani), not which edge w' of the
    series class of phi(base) takes the base, nor which way round, so each
    anchor w', phi(base) first, is tried both ways round (`_anchored`).  A
    lift there makes tau phi rigid, so only then are its vertex images (up to
    one q-reduction each) read: they must be a bijection, and each edge e must
    have exactly one edge of phi(e)'s class joining the images of its ends.
    That candidate is verified; psi = {phi(e): assigned(e)} absorbs tau."""
    g, h = m.source, m.target
    emap = m.edge_dict
    # Series classes are a matroid invariant: phi carries the source's onto the target's.
    images = [tuple(emap[e] for e in block) for block in series_classes(g)]
    block_of = {r: image for image in images for r in image}
    joining = {}  # (series class, pair of ends) -> the edges of the class joining them
    for r in h.edge_ids:
        joining.setdefault((block_of[r], frozenset(h.ends(r))), []).append(r)
    w = h.base_edge
    anchors = tuple(sorted(block_of[w], key=lambda r: (r != w, id_key(r))))
    for k, anchor in enumerate(anchors):
        for reverse in (False, True):
            anchored = m if anchor == w and not reverse else _anchored(m, anchor, reverse)
            vertex_map = dict(anchored.vertex_image) if anchored.rigidity.is_zero else {}
            if not _is_onto(vertex_map, h.vertices):
                continue
            choices = [
                joining.get((block_of[emap[e]], frozenset(vertex_map[p] for p in g.ends(e))), ())
                for e in g.edge_ids
            ]
            if any(len(c) != 1 for c in choices):
                continue
            assigned = {e: c[0] for e, c in zip(g.edge_ids, choices)}
            _verify_isomorphism(g, h, assigned, vertex_map)
            psi = {emap[e]: assigned[e] for e in g.edge_ids}
            if any(r2 not in block_of[r] for r, r2 in psi.items()):
                raise InternalError("correction permutation is not series fixing")
            return (psi, vertex_map), anchors[: k + 1]
    return None, anchors


def _is_onto(mapping, codomain):
    """Whether the values of mapping are the set codomain, each once."""
    return len(mapping) == len(codomain) and set(mapping.values()) == codomain


def _verify_isomorphism(g, h, edge_map, vertex_map):
    if vertex_map.keys() != g.vertices or not _is_onto(vertex_map, h.vertices):
        raise InternalError("vertex map is not a bijection")
    if not _is_onto(edge_map, set(h.edge_ids)):
        raise InternalError("edge map is not a bijection")
    for e in g.edge_ids:
        if frozenset(h.ends(edge_map[e])) != frozenset(vertex_map[p] for p in g.ends(e)):
            raise InternalError(f"adjacency not preserved at edge {e!r}")


class MatroidLift(NamedTuple):
    edge_map: tuple
    vertex_map: tuple
    base_edge: object
    rigid_candidate: object
    tried: tuple


class NotLiftable(NamedTuple):
    base_edge: object
    tried: tuple


def lift_matroid_isomorphism(g, h, edge_map):
    """Lift a base-free matroid isomorphism to a graph isomorphism, up to
    series-fixing automorphisms of the target: `_lift` at the source's first
    edge.  The four criterion-3 predicates agree for a base alone in its
    series class, but a lift may reverse it, so `is_rigid` there decides nothing."""
    base = g.edge_ids[0]
    _require_bijection(g, h, edge_map, False)
    m = make_morphism(g.with_base(base), h.with_base(edge_map[base]), edge_map)
    _require_genus(m)
    found, tried = _lift(m)
    if found is None:
        return NotLiftable(base, tried)
    psi, vmap = found
    final = _freeze_map({e: psi[edge_map[e]] for e in g.edge_ids}, g.edge_ids)
    return MatroidLift(final, _freeze_map(vmap, g.vertex_ids), base, tried[-1], tried)
