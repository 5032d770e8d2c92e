"""Differential tests: the cycle-signature series classes and
2-connectivity and the fundamental-cycle signs against the graph-structure
layer as first written (tests/reference_structure.py), the lift op against
its form that scans each edge's series class (same file), and the matroid
lift against a brute force over vertex bijections (tests/helpers.py)."""

import random
import sys
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_structure as ref
from helpers import (
    brute_force_lift,
    catalogue,
    cycle_plus_chords,
    random_multigraph,
    sample_morphisms,
    series_transposition_morphisms,
    two_sum_whitney_flip,
    whitney_morphisms,
)

from rigidlift.divisor import Divisor, DivisorClass, q_reduce, theta_divisor, vertex_divisor
from rigidlift.errors import (
    BaseNotPreserved,
    BiorientedPresent,
    EnumerationBoundExceeded,
    InternalError,
    InvalidCyclicBijection,
    LoopEdge,
    NoCommonCycle,
    NotBijection,
    NotTwoConnected,
    NotTwoEdgeConnected,
    RigidliftError,
    ValidationError,
)
from rigidlift.multigraph import (
    EdgePath,
    Multigraph,
    bfs_tree,
    biconnectivity,
    build_graph,
    components,
    connectivity_profile,
    cycle_basis,
    find_arches,
    fundamental_cycles,
    series_classes,
    series_table,
    spanning_tree_count,
)
from rigidlift.orientation import EdgeState, PartialOrientation, base_orientation
from rigidlift.orcyc import (
    MatroidLift,
    compose,
    compute_signs,
    diagram_defect,
    identity_morphism,
    inverse_morphism,
    is_rigid,
    lift_matroid_isomorphism,
    lift_to_graph_isomorphism,
    make_morphism,
    pushforward_class,
    rigidity_divisor,
    s1_image_preserved,
    theta_preserved,
    validate_cyclic_bijection,
)
from rigidlift.orcyc import _lift, _verify_isomorphism


def _triples(g, tag):
    return [(f"{tag}{e}", f"{tag}{g.o(e)}", f"{tag}{g.t(e)}") for e in g.edge_ids]


def glued(g1, g2, bridge):
    """g1 and g2 sharing one vertex (a cut vertex with no bridge), or joined
    by a new bridge edge."""
    left, right = _triples(g1, "L"), _triples(g2, "R")
    a, b = f"L{g1.vertex_ids[0]}", f"R{g2.vertex_ids[0]}"
    if bridge:
        right.append(("bridge", a, b))
    else:
        right = [(e, a if x == b else x, a if y == b else y) for e, x, y in right]
    return build_graph(left + right, left[0][0])


def parallel_class(k):
    return build_graph([(f"p{i}", "a", "b") for i in range(k)], "p0")


@st.composite
def graphs(draw):
    """Catalogue graphs, random multigraphs (bridges and cut vertices
    included), two graphs glued at a vertex or by a bridge, and 2-vertex
    graphs of 1-4 parallel edges."""
    kind = draw(st.sampled_from(("catalogue", "random", "glued", "bridged", "parallel")))
    if kind == "catalogue":
        return draw(st.sampled_from(catalogue()))
    if kind == "random":
        return random_multigraph(random.Random(draw(st.integers(0, 2**16))))
    if kind == "parallel":
        return parallel_class(draw(st.integers(1, 4)))
    parts = st.one_of(
        st.sampled_from(catalogue()),
        st.integers(2, 5).map(lambda k: parallel_class(k) if k < 3 else cycle_plus_chords(k, 0, k)),
    )
    return glued(draw(parts), draw(parts), bridge=kind == "bridged")


@settings(max_examples=300, deadline=None)
@given(g=graphs())
def test_connectivity_matches_reference(g):
    two_connected, k = ref.connectivity_profile(g)
    assert connectivity_profile(g) == (two_connected, k)
    assert biconnectivity(g) == (two_connected, k >= 2)


@settings(max_examples=300, deadline=None)
@given(g=graphs())
def test_series_classes_match_reference(g):
    try:
        expected = ref.series_classes(g)
    except NotTwoEdgeConnected:
        with pytest.raises(NotTwoEdgeConnected):
            series_classes(g)
        return
    assert series_classes(g) == expected


def _signature_partition(g, seed):
    """(the classes of edges of equal non-zero signature, the bridges)."""
    classes = {}
    for e, signature in zip(g.edge_ids, cycle_basis(g, seed).signatures):
        classes.setdefault(signature, set()).add(e)
    bridges = frozenset(classes.pop(0, ()))
    return {frozenset(c) for c in classes.values()}, bridges


def assert_seeded_bases_partition_like_the_default(g):
    """Whichever vertex a seed roots the tree at, the basis has the masks of
    the walked basis, whose genus cycles are closed and simple, and the
    same series classes and bridges."""
    expected = _signature_partition(g, None)
    for seed in (None, *range(10)):
        cycles, signatures, forward, tree = ref.walk_basis(g, seed)
        assert cycle_basis(g, seed) == (tree, signatures, forward)
        assert len(cycles) == g.genus
        for cyc in cycles:
            assert cyc.is_cycle and len(set(cyc.vertices)) == len(cyc.edges)
            for e, (a, b) in zip(cyc.edges, zip(cyc.vertices, cyc.vertices[1:])):
                assert {a, b} == set(g.ends(e))
        assert _signature_partition(g, seed) == expected


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_fundamental_cycles_match_reference(g):
    assert fundamental_cycles(g) == ref.fundamental_cycles(g)
    assert_seeded_bases_partition_like_the_default(g)


def _bfs_distances(g, root):
    dist, queue = {root: 0}, deque([root])
    while queue:
        v = queue.popleft()
        for e in g.incident(v):
            w = g.other_end(e, v)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def assert_shortest_path_tree(g):
    """cycle_basis(g, None).tree is a shortest-path tree from t(base), and
    each fundamental cycle is no longer than its edge plus two shortest
    paths from t(base)."""
    dist = _bfs_distances(g, g.base_head)
    basis = cycle_basis(g, None)
    reached = {g.base_head}
    for u, e, w in basis.tree:
        assert set(g.ends(e)) == {u, w} and u in reached and w not in reached
        assert dist[w] == dist[u] + 1
        reached.add(w)
    assert reached == g.vertices
    tree_edges = {e for _, e, _ in basis.tree}
    for cyc in fundamental_cycles(g):
        e = cyc.edges[0]
        assert e not in tree_edges and cyc.signs[0] == 1
        assert len(cyc.edges) <= dist[g.o(e)] + dist[g.t(e)] + 1


def test_cycle_basis_tree_is_a_shortest_path_tree_on_the_catalogue():
    for g in catalogue():
        for base in g.edge_ids:
            assert_shortest_path_tree(g.with_base(base))


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_cycle_basis_tree_is_a_shortest_path_tree(g):
    assert_shortest_path_tree(g)


def assert_tree_of_edges(g, root, edges):
    """`bfs_tree` over the edge subset `edges` takes the steps of the
    oracle's `rooted_tree` (as a set: both are the tree that a forest's
    edges form from root, or the same search when `edges` come in edge-id
    order), and reaches each step's parent before its child.  Returns
    whether the tree spans g."""
    steps = bfs_tree(g, root, set(edges))
    assert set(steps) == set(ref.rooted_tree(g, edges, root))
    reached = {root}
    for u, _, w in steps:
        assert u in reached
        reached.add(w)
    return len(steps) == len(g.vertex_ids) - 1


def test_bfs_tree_matches_the_incident_loop():
    """`bfs_tree` reads the incidence lists and the edge ends inline; from
    every root its steps equal those of the loop through `incident` and
    `other_end`: on the catalogue, on parallel classes, on random
    multigraphs, and on loops, which the constructor takes but `build_graph`
    refuses.  Over random edge subsets, some spanning and some not, it
    takes the steps of the oracle's `rooted_tree`."""
    rng = random.Random(7)
    graphs = list(catalogue()) + [parallel_class(k) for k in (1, 2, 5)]
    graphs += [random_multigraph(rng) for _ in range(100)]
    graphs.append(Multigraph("ab", {"e1": ("a", "b"), "e2": ("b", "a"), "e3": ("b", "b"), "e4": ("a", "a")}, "e1"))
    spanning = Counter()
    for g in graphs:
        for root in g.vertex_ids:
            assert bfs_tree(g, root) == ref.bfs_tree_loop(g, root)
            for p in (0.3, 0.6, 0.9):
                subset = [e for e in g.edge_ids if rng.random() < p]
                spanning[assert_tree_of_edges(g, root, subset)] += 1
    assert min(spanning[True], spanning[False]) > 300
    with pytest.raises(LoopEdge):
        build_graph([("e1", "a", "b"), ("e2", "b", "b")], "e1")


def _arch_graphs():
    """The 2-connected graphs of at most 12 edges among the catalogue,
    300 random multigraphs, and k parallel edges beside two 2-edge paths
    between the same two vertices."""
    rng = random.Random(0)
    candidates = list(catalogue()) + [random_multigraph(rng) for _ in range(300)]
    paths = [("a1", "u", "a"), ("a2", "a", "v"), ("b1", "u", "b"), ("b2", "b", "v")]
    for k in range(1, 5):
        candidates.append(build_graph([(f"p{i}", "u", "v") for i in range(k)] + paths, "a1"))
    return [g for g in candidates if len(g.edge_ids) <= 12 and biconnectivity(g)[0]]


def test_components_match_the_depth_first_search():
    """`components`, one `bfs_tree` over the kept edges per component,
    numbers the components as the depth-first search of the oracle does:
    on every catalogue graph with each vertex pair removed, as `find_arches`
    removes them, and with random edge sets removed, as the cut check of a
    move removes its payload."""
    rng = random.Random(28)
    split = Counter()
    for g in catalogue():
        for pair in combinations(g.vertex_ids, 2):
            comp = components(g, removed_vertices=set(pair))
            assert comp == ref.components(g, removed_vertices=set(pair))
            split["vertices"] += max(comp.values(), default=0) > 0
        for _ in range(10):
            removed = {e for e in g.edge_ids if rng.random() < 0.5}
            comp = components(g, removed_edges=removed)
            assert comp == ref.components(g, removed_edges=removed)
            split["edges"] += max(comp.values()) > 0
    assert min(split["vertices"], split["edges"]) > 100


def test_find_arches_matches_brute_force():
    graphs = _arch_graphs()
    assert len(graphs) > 200
    for g in graphs:
        found = [(a.tips, a.edges, a.complement) for a in find_arches(g)]
        assert found == ref.find_arches(g)


def test_find_arches_stops_past_its_bound(monkeypatch):
    """With `MAX_ARCHES` exactly at the reference's count the arches are
    listed; one below it, and on 8 parallel edges beside two 2-edge paths
    (512 arches) under a bound of 100, the search raises before listing them."""
    module = sys.modules["rigidlift.multigraph"]
    for g in _arch_graphs()[::10]:
        expected = ref.find_arches(g)
        monkeypatch.setattr(module, "MAX_ARCHES", len(expected))
        found = [(a.tips, a.edges, a.complement) for a in find_arches(g)]
        assert found == expected
        if expected:
            monkeypatch.setattr(module, "MAX_ARCHES", len(expected) - 1)
            with pytest.raises(EnumerationBoundExceeded) as exc:
                find_arches(g)
            assert (exc.value.limit, exc.value.reached) == (len(expected) - 1, len(expected))
    monkeypatch.undo()
    paths = [("a1", "u", "a"), ("a2", "a", "v"), ("b1", "u", "b"), ("b2", "b", "v")]
    bundle = build_graph([(f"p{i}", "u", "v") for i in range(8)] + paths, "a1")
    assert len(find_arches(bundle)) == 512
    monkeypatch.setattr(module, "MAX_ARCHES", 100)
    with pytest.raises(EnumerationBoundExceeded) as exc:
        find_arches(bundle)
    assert (exc.value.limit, exc.value.reached) == (100, 101)


def test_bowtie_is_two_edge_connected_with_a_cut_vertex():
    triangle = cycle_plus_chords(3, 0, 0)
    g = glued(triangle, triangle, bridge=False)
    assert biconnectivity(g) == (False, True)
    assert connectivity_profile(g) == ref.connectivity_profile(g) == (False, 2)
    assert [len(b) for b in series_classes(g)] == [3, 3]


def test_biconnectivity_on_a_long_necklace_and_a_long_ladder():
    """One spread over the cycles, not a fixed point over the signatures:
    300 triangles chained at shared vertices, and a ladder of 500 rungs."""
    necklace = []
    for i in range(300):
        a, m, b = f"c{i}", f"m{i}", f"c{i + 1}"
        necklace += [(3 * i, a, m), (3 * i + 1, m, b), (3 * i + 2, b, a)]
    assert biconnectivity(build_graph(necklace, 0)) == (False, True)
    ladder = [(i, f"a{i}", f"b{i}") for i in range(500)]
    for i in range(499):
        ladder += [(500 + i, f"a{i}", f"a{i + 1}"), (1000 + i, f"b{i}", f"b{i + 1}")]
    assert biconnectivity(build_graph(ladder, 0)) == (True, True)


def test_bowtie_is_refused_where_2_connectivity_is_required():
    triangle = cycle_plus_chords(3, 0, 0)
    g = glued(triangle, triangle, bridge=False)
    with pytest.raises(NotTwoConnected):
        make_morphism(g, g, {e: e for e in g.edge_ids})
    with pytest.raises(NotTwoConnected):
        find_arches(g)


@lru_cache(maxsize=None)
def _morphisms():
    """Sampled morphisms of the catalogue (identities, series swaps, Whitney
    moves and their compositions) and Whitney moves of cycle-plus-chords."""
    out = sample_morphisms(catalogue(), 400)
    for seed in range(30):
        out.extend(whitney_morphisms(cycle_plus_chords(6 + seed % 4, 3, seed), limit=3))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_signs_match_reference(data):
    m = data.draw(st.sampled_from(_morphisms()))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**16)))
    g, h, emap = m.source, m.target, m.edge_dict
    expected = ref.compute_signs(g, h, emap)
    assert ref.compute_signs(g, h, emap, seed=seed) == expected
    assert compute_signs(g, h, emap, seed=seed) == expected


def test_signs_outside_the_base_block_raise_like_the_reference():
    triangle = cycle_plus_chords(3, 0, 0)
    g = glued(triangle, triangle, bridge=False)
    emap = {e: e for e in g.edge_ids}
    with pytest.raises(NoCommonCycle):
        ref.compute_signs(g, g, emap)
    with pytest.raises(NoCommonCycle):
        compute_signs(g, g, emap)


def relabelled(g, rng):
    """An isomorphic copy with fresh vertex and edge names, and the edge map."""
    verts = list(g.vertex_ids)
    rng.shuffle(verts)
    vname = {v: f"z{i}" for i, v in enumerate(verts)}
    edges = list(g.edge_ids)
    rng.shuffle(edges)
    ename = {e: f"f{i}" for i, e in enumerate(edges)}
    h = build_graph([(ename[e], vname[g.o(e)], vname[g.t(e)]) for e in g.edge_ids], ename[g.base_edge])
    return h, ename


def _signed_images_close_up(g, h, edge_map, signs):
    """Whether the signed image of each reference fundamental cycle of g has
    zero boundary in h.  With sgn(base) = +1 this fixes the sign function of
    a 2-connected g."""
    for cyc in ref.fundamental_cycles(g):
        boundary = Counter()
        for e, s in zip(cyc.edges, cyc.signs):
            r = edge_map[e]
            boundary[h.t(r)] += s * signs[e]
            boundary[h.o(r)] -= s * signs[e]
        if any(boundary.values()):
            return False
    return True


def test_signs_match_reference_on_large_relabellings_and_flips():
    """The signs from the image of the spanning tree, at the default root
    and at seeds 0-4, on a relabelled copy and three Whitney flips of
    cycle_plus_chords(n, n/2).  At 32 vertices the answer is the
    reference's, one cycle through the base per edge; at 64 that cycle
    search ran past 20 s for one edge, so the answer is held to the law
    that fixes it."""
    flips = 0
    for n in (32, 64):
        g = cycle_plus_chords(n, n // 2, n)
        h, emap = relabelled(g, random.Random(n))
        cases = [(g, h, emap)] + [(m.source, m.target, m.edge_dict) for m in whitney_morphisms(g, limit=3)]
        flips += len(cases) - 1
        for source, target, edge_map in cases:
            signs = compute_signs(source, target, edge_map)
            if n == 32:
                assert signs == ref.compute_signs(source, target, edge_map)
            else:
                assert signs[source.base_edge] == 1
                assert _signed_images_close_up(source, target, edge_map, signs)
                e = next(e for e in source.edge_ids if e != source.base_edge)
                wrong = {**signs, e: -signs[e]}
                assert not _signed_images_close_up(source, target, edge_map, wrong)
            for seed in range(5):
                assert compute_signs(source, target, edge_map, seed) == signs
    assert flips == 6


def test_morphism_path_runs_no_flow_and_no_cycle_search(monkeypatch):
    g = cycle_plus_chords(16, 8, 3)
    h, emap = relabelled(g, random.Random(3))

    def forbidden(*args, **kwargs):
        raise AssertionError("called off the morphism path")

    structure = sys.modules["rigidlift.multigraph"]
    monkeypatch.setattr(structure, "cycle_through_edges", forbidden)
    monkeypatch.setattr(structure, "_max_flow", forbidden)
    # The signs, the series table and the vertex images read the cycle
    # masks: no fundamental cycle is built, in the source or the target.
    monkeypatch.setattr(structure, "fundamental_cycles", forbidden)
    monkeypatch.setattr(EdgePath, "__init__", forbidden)
    # A valid morphism is 2-connected by its signs alone.
    monkeypatch.setattr(sys.modules["rigidlift.orcyc"], "biconnectivity", forbidden)
    # E_phi is computed from coefficient vectors, with no orientation object.
    monkeypatch.setattr(PartialOrientation, "__init__", forbidden)
    cycle_basis.cache_clear()
    m = make_morphism(g, h, emap)
    assert is_rigid(m)
    psi, vertex_map = lift_to_graph_isomorphism(m)
    assert len(psi) == len(h.edge_ids) and len(vertex_map) == len(g.vertices)
    # One cycle-mask pass, on g: the signs compare the masks of h's edges
    # with it, and the series classes of h are the images of those of g.
    assert cycle_basis.cache_info().misses == 1


@lru_cache(maxsize=None)
def _based_morphisms():
    """Every catalogue graph at every base edge, with up to three Whitney
    moves and two series transpositions, plus the sampled morphisms."""
    out = list(sample_morphisms(catalogue(), 400))
    for g in catalogue():
        for base in g.edge_ids:
            gb = g.with_base(base)
            out.extend(whitney_morphisms(gb, limit=3))
            out.extend(series_transposition_morphisms(gb, limit=2))
    return tuple(out)


def _signs_or_error(fn, g, h, emap, seed=None):
    try:
        return fn(g, h, emap, seed)
    except RigidliftError as exc:
        return type(exc)


def test_signs_match_the_walk_at_scale():
    """The signs from the cycle masks against the walk of every fundamental
    cycle (`reference_structure.walk_signs`): equal signs or the same error
    on every based catalogue morphism, at the default root and, for every
    tenth, at seeds 0-9, where the image of the source's tree, rooted by
    `bfs_tree` over its edges, spans the target as the oracle's
    `rooted_tree` does; on 3,000 catalogue bijections, where the signature
    test also agrees with the parity of each walked cycle's image; on
    Whitney flips of chorded cycles at 32-128 vertices (the arch search
    takes 1.5 s at 128) and of 2-sums at 32-256; and on a relabelled
    1,024-vertex chorded cycle."""
    for k, m in enumerate(_based_morphisms()):
        g, h, emap = m.source, m.target, m.edge_dict
        assert compute_signs(g, h, emap) == ref.walk_signs(g, h, emap) == m.sign_dict
        assert assert_tree_of_edges(h, h.base_head, [emap[e] for _, e, _ in cycle_basis(g, None).tree])
        for seed in range(10) if k % 10 == 0 else ():
            assert compute_signs(g, h, emap, seed) == ref.walk_signs(g, h, emap, seed) == m.sign_dict
    outcomes = Counter()
    for g, h, emap in _edge_maps(random.Random(11), 3000):
        expected = _signs_or_error(ref.walk_signs, g, h, emap)
        assert _signs_or_error(compute_signs, g, h, emap) == expected
        assert validate_cyclic_bijection(g, h, emap) == ref.walk_parity(g, h, emap)
        outcomes[expected if isinstance(expected, type) else "signs"] += 1
    assert set(outcomes) == {"signs", InvalidCyclicBijection} and min(outcomes.values()) > 300
    large = [two_sum_whitney_flip(n, 0) for n in (32, 64, 128, 256)]
    for n in (32, 64, 128):
        large += whitney_morphisms(cycle_plus_chords(n, n // 2, n), limit=2)
    for m in large:
        for seed in (None, 0, 1):
            signs = compute_signs(m.source, m.target, m.edge_dict, seed)
            assert signs == ref.walk_signs(m.source, m.target, m.edge_dict, seed) == m.sign_dict
    assert len(large) == 10
    g = cycle_plus_chords(1024, 512, 1)
    h, emap = relabelled(g, random.Random(1024))
    assert compute_signs(g, h, emap) == ref.walk_signs(g, h, emap)


def _outcome(fn, m):
    try:
        return fn(m)
    except RigidliftError as exc:
        return type(exc)


def assert_lift(g, h, edge_map, psi, vertex_map):
    """psi is a series-fixing permutation of the edges of h, and
    psi . edge_map with vertex_map is a graph isomorphism g -> h."""
    class_of = {r: block for block in series_classes(h) for r in block}
    assert set(psi) == set(psi.values()) == set(h.edge_ids)
    assert all(psi[r] in class_of[r] for r in h.edge_ids)
    assert len(set(vertex_map.values())) == len(vertex_map) == len(h.vertices)
    for e in g.edge_ids:
        a, b = g.ends(e)
        assert {vertex_map[a], vertex_map[b]} == set(h.ends(psi[edge_map[e]]))


def test_lift_and_s1_match_reference_at_every_base():
    rigid_outcomes = Counter()
    reference_failures = 0
    for m in _based_morphisms():
        rigid = is_rigid(m)
        assert rigid == ref.is_rigid(m)
        assert s1_image_preserved(m) == ref.s1_image_preserved(m)
        if (m.source.base_edge,) in series_classes(m.source):
            assert s1_image_preserved(m) == rigid
        lifted = _outcome(lift_to_graph_isomorphism, m)
        expected = _outcome(ref.lift_to_graph_isomorphism, m)
        if expected is InternalError:
            # The reference sends the base to the base, head to head; the
            # lift found another edge of its series class for it.
            reference_failures += 1
            assert rigid and not isinstance(lifted, type)
            assert_lift(m.source, m.target, m.edge_dict, *lifted)
        else:
            assert lifted == expected
        if rigid:
            rigid_outcomes[lifted if isinstance(lifted, type) else "lift"] += 1
    # Every rigid morphism lifts, with the base inside a series class too.
    assert reference_failures == 2
    assert set(rigid_outcomes) == {"lift"} and rigid_outcomes["lift"] > 1000


def _random_divisors(g, rng, count):
    return [Divisor(g, {v: rng.randint(-3, 3) for v in g.vertex_ids}) for _ in range(count)]


def assert_lift_matches_the_class_scan(m, rng):
    """The dicts kept from make_morphism, phi_* on random divisors, E_phi,
    the vertex-image walk and `_lift` (psi, vertex map, anchors tried)
    against the oracles that scan each edge's series class."""
    assert m.edge_dict == dict(m.edge_map) and m.sign_dict == dict(m.signs)
    push = ref.chain_push(m)
    for d in _random_divisors(m.source, rng, 3):
        assert m.push(d).vector == push(d).vector
    assert m.rigidity == ref.chain_rigidity(m)
    assert m._walk == ref.scan_walk(m)
    assert _outcome(_lift, m) == _outcome(ref.series_lift, m)


def test_lift_matches_the_class_scan_at_every_base():
    rng = random.Random(31)
    kinds = Counter()
    for m in _based_morphisms():
        assert_lift_matches_the_class_scan(m, rng)
        found, tried = _lift(m)
        kinds[found is not None, len(tried)] += 1
    assert sum(kinds.values()) == 2509
    assert kinds[True, 1] > 1000 and kinds[True, 2] > 100 and kinds[True, 3] > 0
    assert kinds[False, 1] > 100 and kinds[False, 3] > 0


def _long_class_transposition(n):
    """A relabelled copy of cycle_plus_chords(n, 2, 1) after a transposition
    of two edges a third of the way apart in the longest series class off
    the base."""
    g = cycle_plus_chords(n, 2, 1)
    h, emap = relabelled(g, random.Random(n))
    block = max((b for b in series_classes(h) if h.base_edge not in b), key=len)
    to_src = {r: e for e, r in emap.items()}
    a, b = block[len(block) // 3], block[2 * len(block) // 3]
    emap[to_src[a]], emap[to_src[b]] = b, a
    return g, h, emap, len(block)


def test_lift_matches_the_class_scan_on_long_series_classes():
    rng = random.Random(64)
    for n in (64, 128, 256, 512, 1024):
        g, h, emap, length = _long_class_transposition(n)
        assert length >= n // 5
        m = make_morphism(g, h, emap)
        assert_lift_matches_the_class_scan(m, rng)
        psi, vertex_map = lift_to_graph_isomorphism(m)
        assert_lift(g, h, emap, psi, vertex_map)
        assert psi != {r: r for r in h.edge_ids}


def _verification(g, h, edge_map, vertex_map, verify):
    try:
        verify(g, h, edge_map, vertex_map)
    except InternalError as exc:
        return str(exc)
    return None


def test_verify_isomorphism_matches_the_frozenset_oracle():
    """Each lift found at every base is accepted by both verifications, and
    both refuse it, with the same message, after two edges with different
    ends swap images, after a vertex is dropped, or after two vertex
    images swap."""
    rng = random.Random(5)
    outcomes = Counter()
    for m in _based_morphisms():
        found, _ = _lift(m)
        if found is None:
            continue
        (psi, vertex_map), g, h = found, m.source, m.target
        assigned = {e: psi[m.edge_dict[e]] for e in g.edge_ids}
        e, f = rng.sample(g.edge_ids, 2)
        swapped_vertices = dict(vertex_map)
        u, v = rng.sample(list(g.vertices), 2)
        swapped_vertices[u], swapped_vertices[v] = vertex_map[v], vertex_map[u]
        dropped = dict(vertex_map)
        del dropped[u]
        cases = [
            (assigned, vertex_map),
            ({**assigned, e: assigned[f], f: assigned[e]}, vertex_map),
            (assigned, swapped_vertices),
            (assigned, dropped),
        ]
        for edge_map, vmap in cases:
            expected = _verification(g, h, edge_map, vmap, ref.verify_isomorphism)
            assert _verification(g, h, edge_map, vmap, _verify_isomorphism) == expected
            outcomes[expected if expected is None else expected.split()[0]] += 1
    assert outcomes[None] > 2000 and outcomes["adjacency"] > 1000 and outcomes["vertex"] > 1000


def test_lift_op_work_is_linear_in_the_edges(monkeypatch):
    """One lift op on a 1,024-vertex chorded cycle whose series classes are
    hundreds of edges long reads each edge's ends a bounded number of times:
    about 12 reads per edge, where a scan of the step's series class at
    each tree step makes about 249,000 reads here."""
    g, h, emap, _ = _long_class_transposition(1024)
    cycle_basis.cache_clear()
    series_table.cache_clear()
    reads = [0]
    for name in ("ends", "o", "t"):
        original = getattr(Multigraph, name)

        def counting(graph, e, original=original):
            reads[0] += 1
            return original(graph, e)

        monkeypatch.setattr(Multigraph, name, counting)
    _lift_op(g, h, emap)
    assert reads[0] <= 16 * len(g.edge_ids)


def test_series_classes_are_the_table_objects_in_edge_id_order():
    for g in catalogue() + (cycle_plus_chords(1024, 2, 1),):
        table = series_table(g)
        classes = series_classes(g)
        assert classes == list(dict.fromkeys(block for block, _ in table.values()))
        assert all(table[block[0]][0] is block for block in classes)


def test_matroid_lift_matches_brute_force():
    maps = dict.fromkeys((m.source, m.target, m.edge_map) for m in _based_morphisms())
    outcomes = Counter()
    for g, h, pairs in maps:
        emap = dict(pairs)
        result = lift_matroid_isomorphism(g, h, emap)
        liftable = brute_force_lift(g, h, emap) is not None
        assert isinstance(result, MatroidLift) == liftable
        if liftable:
            final = dict(result.edge_map)
            psi = {emap[e]: final[e] for e in g.edge_ids}
            assert_lift(g, h, emap, psi, dict(result.vertex_map))
            assert result.tried[-1] == result.rigid_candidate
        assert len(set(result.tried)) == len(result.tried)
        outcomes[liftable] += 1
    assert len(maps) == 2281 and min(outcomes.values()) > 500


def test_matroid_lift_matches_brute_force_on_six_vertices():
    """Past the 5-vertex catalogue: Whitney flips, series transpositions and
    one composite of each, at every base of 6-vertex chorded cycles, so that
    the base's series class is transposed too and later anchors are tried."""
    maps = {}
    for seed in range(12):
        for chords in (2, 3):
            g = cycle_plus_chords(6, chords, seed)
            for base in g.edge_ids:
                gb = g.with_base(base)
                flips = whitney_morphisms(gb, limit=3)
                swaps = series_transposition_morphisms(gb, limit=2)
                for m in flips + swaps + [compose(f, s) for f in flips[:1] for s in swaps[:1]]:
                    # The matroid lift reads no base: one entry per map.
                    maps.setdefault((m.source.with_base(m.source.edge_ids[0]), m.target, m.edge_map), None)
    outcomes, anchors_tried = Counter(), Counter()
    for g, h, pairs in maps:
        emap = dict(pairs)
        result = lift_matroid_isomorphism(g, h, emap)
        liftable = brute_force_lift(g, h, emap) is not None
        assert isinstance(result, MatroidLift) == liftable
        if liftable:
            final = dict(result.edge_map)
            assert_lift(g, h, emap, {emap[e]: final[e] for e in g.edge_ids}, dict(result.vertex_map))
        outcomes[liftable] += 1
        anchors_tried[len(result.tried)] += 1
    assert len(maps) == 1019 and min(outcomes.values()) > 100
    assert max(anchors_tried) >= 3


def _lift_past_the_first_anchor():
    """The first Whitney flip of a 6-vertex chorded cycle, at some base,
    whose matroid lift is found at its second anchor or later."""
    for seed in range(12):
        g = cycle_plus_chords(6, 3, seed)
        for base in g.edge_ids:
            for m in whitney_morphisms(g.with_base(base), limit=3):
                result = lift_matroid_isomorphism(m.source, m.target, m.edge_dict)
                if isinstance(result, MatroidLift) and len(result.tried) >= 2:
                    return m.source, m.target, m.edge_dict
    raise AssertionError("no lift past the first anchor")


def test_lift_walks_the_source_once_however_many_anchors_it_tries(monkeypatch):
    """phi_* and the vertex images of every anchored morphism read the
    source's one cached tree: a lift found past its first anchor walks the
    source once, for the cycle basis of its sign walk."""
    g, h, emap = _lift_past_the_first_anchor()
    source = g.with_base(g.edge_ids[0])
    walks = []
    for name in ("rigidlift.multigraph", "rigidlift.orcyc", "rigidlift.divisor"):
        module = sys.modules[name]
        original = getattr(module, "bfs_tree", None)
        if original is not None:

            def counting(graph, root, *args, original=original):
                walks.append(graph == source)
                return original(graph, root, *args)

            monkeypatch.setattr(module, "bfs_tree", counting)
    cycle_basis.cache_clear()
    divisor_module = sys.modules["rigidlift.divisor"]
    divisor_module._core.cache_clear()
    result = lift_matroid_isomorphism(g, h, emap)
    assert isinstance(result, MatroidLift) and len(result.tried) >= 2
    assert walks.count(True) == 1


def _count_q_reduce(monkeypatch):
    divisor_module = sys.modules["rigidlift.divisor"]
    calls = [0]
    original = divisor_module.q_reduce

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(divisor_module, "q_reduce", counting)
    return calls


def _lift_op(g, h, emap):
    m = make_morphism(g, h, emap)
    assert is_rigid(m)
    lift_to_graph_isomorphism(m)
    assert s1_image_preserved(m)


def test_lift_op_reduces_each_class_once(monkeypatch):
    g = cycle_plus_chords(16, 8, 3)
    h, emap = relabelled(g, random.Random(5))
    calls = _count_q_reduce(monkeypatch)
    # The vertex images follow the edges of an isomorphic copy without a
    # reduction, and its E_phi vector is zero before any reduction: no call.
    _lift_op(g, h, emap)
    assert calls[0] == 0
    # A series transposition moves the images of two edges of one class: its
    # E_phi vector is still zero here, and where a tree edge's image no longer
    # leaves the image of the vertex it comes from, the walk crosses another
    # edge of the same class instead: no call either.
    blocks = [b for b in series_classes(h) if len(b) >= 2 and h.base_edge not in b]
    assert blocks
    to_src = {r: e for e, r in emap.items()}
    for block in blocks:
        a, b = block[:2]
        swapped = dict(emap)
        swapped[to_src[a]], swapped[to_src[b]] = b, a
        calls[0] = 0
        _lift_op(g, h, swapped)
        assert calls[0] == 0


def test_zero_rigidity_vector_is_not_reduced(monkeypatch):
    """E_phi of a map induced by a vertex bijection is the zero vector
    before any reduction, so it is returned without one."""
    g = cycle_plus_chords(16, 8, 3)
    calls = _count_q_reduce(monkeypatch)
    for m in (identity_morphism(g), make_morphism(g, *relabelled(g, random.Random(7)))):
        calls[0] = 0
        rigidity = m.rigidity
        assert calls[0] == 0
        assert rigidity == DivisorClass(m.target, Divisor(m.target))


def test_matroid_lift_reads_vertex_images_only_at_rigid_anchors(monkeypatch):
    """A lift at an anchor makes tau phi rigid, so an anchor that is not
    costs its E_phi, one q-reduction, and not one per vertex."""
    calls = _count_q_reduce(monkeypatch)
    anchors = 0
    for seed in range(3):
        for m in whitney_morphisms(cycle_plus_chords(32, 3, seed), limit=2):
            calls[0] = 0
            result = lift_matroid_isomorphism(m.source, m.target, m.edge_dict)
            assert calls[0] <= 2 * len(result.tried) + len(m.source.vertices)
            anchors += len(result.tried)
    assert anchors > 20


def test_rigidity_divisor_is_a_cocycle():
    """E_(beta alpha) = beta_*E_alpha + E_beta, the cocycle of `_lift`'s
    anchor pruning, on every composable pair of catalogue Whitney flips,
    series transpositions and their inverses."""
    pairs, nonzero = 0, 0
    for g in catalogue():
        pool = whitney_morphisms(g, limit=3) + series_transposition_morphisms(g)
        pool += [inverse_morphism(m) for m in pool]
        for alpha in pool:
            for beta in pool:
                if alpha.target == beta.source:
                    e = rigidity_divisor(compose(beta, alpha))
                    assert e == pushforward_class(beta, rigidity_divisor(alpha)) + rigidity_divisor(beta)
                    pairs += 1
                    nonzero += not e.is_zero
    assert pairs == 2428 and nonzero == 448


def test_base_fixing_series_transposition_is_rigid_and_pushes_forward_as_the_identity():
    """`_lift`'s anchor pruning: a series-fixing psi that fixes the base has
    psi_* = id, so each vertex is its own image, and E_psi = 0."""
    swaps = [m for g in catalogue() for m in series_transposition_morphisms(g)]
    assert len(swaps) == 100
    for m in swaps:
        assert is_rigid(m)
        assert m.vertex_image == {v: v for v in m.source.vertex_ids}


def _vertex_image_morphisms():
    out = list(_based_morphisms())
    for seed in range(30):
        out.extend(whitney_morphisms(cycle_plus_chords(6 + seed % 4, 3, seed), limit=3))
    return out


def test_vertex_image_matches_reference():
    kinds = Counter()
    for m in _vertex_image_morphisms():
        image = m.vertex_image
        assert image == ref.vertex_image(m)
        kinds["rigid" if is_rigid(m) else "not rigid"] += 1
        kinds["partial"] += None in image.values()
    assert kinds["rigid"] > 1000 and kinds["not rigid"] > 500 and kinds["partial"] > 500


def test_single_chip_is_reduced_at_every_vertex():
    """The fact the vertex-image walk relies on: in a 2-edge-connected graph
    every single chip e_y is q-reduced, for every q."""
    ladder = tuple(cycle_plus_chords(n, n // 2, n) for n in range(3, 17))
    for g in catalogue() + ladder:
        for q in g.vertex_ids:
            for y in g.vertex_ids:
                chip = vertex_divisor(g, y)
                assert q_reduce(g, chip, q) == chip


@lru_cache(maxsize=None)
def _lift_rung_morphisms():
    """Relabelled copies of cycle-plus-chords graphs of 15-17 vertices, the
    shapes of the lift benchmark, alone and after a series transposition."""
    out = []
    for n, chords in ((15, 8), (16, 7), (16, 8), (16, 9), (17, 8)):
        for seed in range(4):
            g = cycle_plus_chords(n, chords, seed)
            h, emap = relabelled(g, random.Random(seed))
            m = make_morphism(g, h, emap)
            out.append(m)
            out.extend(compose(m, t) for t in series_transposition_morphisms(g, limit=2))
    return tuple(out)


def test_rigidity_is_the_diagram_defect_of_the_base_orientation():
    kinds = Counter()
    for m in _based_morphisms() + _lift_rung_morphisms():
        defect = diagram_defect(m, base_orientation(m.source))
        assert m.rigidity == defect
        assert is_rigid(m) == defect.is_zero
        kinds[defect.is_zero] += 1
    assert kinds[True] > 1000 and kinds[False] > 500


def test_series_classes_are_carried_onto_the_target():
    for m in _based_morphisms() + _lift_rung_morphisms():
        emap = m.edge_dict
        image = {frozenset(emap[e] for e in block) for block in series_classes(m.source)}
        assert image == {frozenset(block) for block in series_classes(m.target)}


def _edge_maps(rng, count):
    """Base-preserving edge bijections between equal-genus catalogue graphs:
    uniform ones between graphs of equal size at random bases, and the maps
    of valid morphisms with the images of two non-base edges swapped."""
    by_size = {}
    for g in catalogue():
        by_size.setdefault((len(g.vertices), len(g.edge_ids)), []).append(g)
    morphisms = _based_morphisms()
    for _ in range(count):
        if rng.random() < 0.5:
            g = rng.choice(catalogue())
            h = rng.choice(by_size[len(g.vertices), len(g.edge_ids)])
            g = g.with_base(rng.choice(g.edge_ids))
            h = h.with_base(rng.choice(h.edge_ids))
            images = [r for r in h.edge_ids if r != h.base_edge]
            rng.shuffle(images)
            emap = dict(zip([e for e in g.edge_ids if e != g.base_edge], images))
            emap[g.base_edge] = h.base_edge
        else:
            m = rng.choice(morphisms)
            g, h, emap = m.source, m.target, dict(m.edge_dict)
            a, b = rng.sample([e for e in g.edge_ids if e != g.base_edge], 2)
            emap[a], emap[b] = emap[b], emap[a]
        yield g, h, emap


def test_make_morphism_rejects_exactly_the_maps_that_break_cycles():
    """make_morphism leaves the parity test to compute_signs; any error
    other than InvalidCyclicBijection propagates and fails the test."""
    outcomes = Counter()
    for g, h, emap in _edge_maps(random.Random(11), 3000):
        valid = validate_cyclic_bijection(g, h, emap)
        try:
            make_morphism(g, h, emap)
            outcomes[valid, "morphism"] += 1
        except InvalidCyclicBijection:
            outcomes[valid, InvalidCyclicBijection] += 1
    assert set(outcomes) == {(True, "morphism"), (False, InvalidCyclicBijection)}
    assert min(outcomes.values()) > 300


def reference_morphism_error(g, h, emap):
    """The error of a make_morphism that checks g, then h, for
    2-connectivity by vertex removal and max-flow, then the bijection, then
    the cycles by the parity test; None for a morphism."""
    for graph in (g, h):
        two_connected, k = ref.connectivity_profile(graph)
        if not two_connected:
            return NotTwoConnected
        if k < 2:
            return NotTwoEdgeConnected
    if set(emap) != set(g.edge_ids) or sorted(map(repr, emap.values())) != sorted(map(repr, h.edge_ids)):
        return NotBijection
    if emap[g.base_edge] != h.base_edge:
        return BaseNotPreserved
    if not validate_cyclic_bijection(g, h, emap):
        return InvalidCyclicBijection
    return None


def test_make_morphism_errors_match_a_reference_that_checks_2_connectivity_first():
    """make_morphism asks which graph is not 2-connected only when the sign
    walk fails; on base-preserving bijections between catalogue graphs,
    random connected multigraphs of 2-6 vertices and K2 it raises what
    checking both graphs first raises, and a morphism has the reference signs."""
    rng = random.Random(13)
    k2 = build_graph([("a", "x", "y")], "a")
    graphs = list(catalogue()) + [random_multigraph(rng, max_vertices=6) for _ in range(400)] + [k2]
    by_size = {}
    for g in graphs:
        by_size.setdefault(len(g.edge_ids), []).append(g)
    outcomes = Counter()
    for g in graphs:
        for h in [g] + [rng.choice(by_size[len(g.edge_ids)]) for _ in range(4)]:
            g, h = g.with_base(rng.choice(g.edge_ids)), h.with_base(rng.choice(h.edge_ids))
            images = [r for r in h.edge_ids if r != h.base_edge]
            rng.shuffle(images)
            emap = dict(zip([e for e in g.edge_ids if e != g.base_edge], images))
            emap[g.base_edge] = h.base_edge
            expected = reference_morphism_error(g, h, emap)
            try:
                signs = make_morphism(g, h, emap).sign_dict
            except RigidliftError as exc:
                assert type(exc) is expected
            else:
                assert expected is None and signs == ref.compute_signs(g, h, emap)
            outcomes[expected] += 1
    # With 3 or more vertices a bridge makes a cut vertex: only K2 -> K2 is
    # refused as not 2-edge-connected.
    assert outcomes.pop(NotTwoEdgeConnected) == 5
    assert set(outcomes) == {None, NotTwoConnected, InvalidCyclicBijection}
    assert min(outcomes.values()) > 200


@lru_cache(maxsize=None)
def _theta_morphisms():
    """The based morphisms and their inverses, and series transpositions and
    Whitney flips of chorded 6- to 12-cycles."""
    out = list(_based_morphisms())
    out.extend(inverse_morphism(m) for m in _based_morphisms())
    for n in range(6, 13):
        for chords in (2, 3):
            for seed in range(6):
                g = cycle_plus_chords(n, chords, seed)
                out.extend(series_transposition_morphisms(g, limit=2))
                out.extend(whitney_morphisms(g, limit=2))
    return tuple(out)


def test_theta_preserved_matches_the_set_comparison():
    outcomes = Counter()
    for m in _theta_morphisms():
        preserved = theta_preserved(m)
        assert preserved == ref.theta_preserved(m)
        outcomes[preserved] += 1
    assert outcomes[True] > 2000 and outcomes[False] > 1000


def test_cyclic_bijections_keep_the_sizes_of_theta_and_pic0():
    # The invariant that lets `theta_preserved` enumerate Θ of the source only.
    for m in _theta_morphisms():
        g, h = m.source, m.target
        assert len(theta_divisor(g)) == len(theta_divisor(h))
        assert spanning_tree_count(g) == spanning_tree_count(h)


def _record_q_reduce(monkeypatch):
    """The degrees of the divisors q_reduce is asked for, from `orcyc` or
    from `divisor` (DivisorClass and the effectiveness tests)."""
    degrees = []
    original = sys.modules["rigidlift.divisor"].q_reduce

    def recording(g, d, q):
        degrees.append(d.degree)
        return original(g, d, q)

    for name in ("rigidlift.divisor", "rigidlift.orcyc"):
        monkeypatch.setattr(sys.modules[name], "q_reduce", recording)
    return degrees


def test_theta_preserved_reduces_vertex_images_not_classes(monkeypatch):
    """Where the vertex images are a bijection each pushed v - t0 reduces to
    r - q, of weight 0 or 1, so every class of Θ passes the weight test: at
    most |V| reductions, each of a degree-0 vertex image and none of a
    degree g - 1 divisor of one class."""
    morphisms = [m for m in _based_morphisms() if s1_image_preserved(m)]
    assert len(morphisms) > 1000
    degrees = _record_q_reduce(monkeypatch)
    for m in morphisms:
        degrees.clear()
        assert theta_preserved(m)
        assert len(degrees) <= len(m.source.vertices)
        assert set(degrees) <= {0}


def test_theta_preserved_on_a_large_non_rigid_flip_reduces_less_than_theta(monkeypatch):
    m = whitney_morphisms(cycle_plus_chords(12, 6, 2), limit=2)[1]
    theta = theta_divisor(m.source)
    assert len(theta) > 1000 and not is_rigid(m)
    degrees = _record_q_reduce(monkeypatch)
    assert not theta_preserved(m)
    assert 0 < len(degrees) < len(theta)


def test_reduced_images_match_reduction_of_every_vertex():
    """Each `reduced_images` entry against a fresh reduction: its pairs are
    the nonzero entries of q_reduce(push(v - t0)), push built afresh, and its
    vertex is the reference vertex image (every class reduced)."""
    kinds = Counter()
    for m in _theta_morphisms():
        g, h = m.source, m.target
        push, q = ref.pushforward(m), h.base_head
        vertex = ref.vertex_image(m)
        images = m.reduced_images
        assert images.keys() == g.vertices
        for v, (pairs, r) in images.items():
            unit = vertex_divisor(g, v) - vertex_divisor(g, g.base_head)
            reduced = q_reduce(h, push(unit), q).vector
            assert sorted(pairs) == [(i, a) for i, a in enumerate(reduced) if a]
            assert r == vertex[v]
            kinds["vertex" if r is not None else "not a vertex"] += 1
    assert min(kinds.values()) > 1000


def _assert_reference_images(m):
    """`reduced_images` of m equals the reduction of every pushed vertex."""
    g, h = m.source, m.target
    push, vertex = ref.pushforward(m), ref.vertex_image(m)
    for v, (pairs, r) in m.reduced_images.items():
        unit = vertex_divisor(g, v) - vertex_divisor(g, g.base_head)
        reduced = q_reduce(h, push(unit), h.base_head).vector
        assert sorted(pairs) == [(i, a) for i, a in enumerate(reduced) if a]
        assert r == vertex[v]


def _series_cycles(g):
    """Edge maps of g that permute the edges of one series class off the
    base: every transposition, and both 3-cycles of every three edges."""
    identity = {e: e for e in g.edge_ids}
    for block in series_classes(g):
        free = [e for e in block if e != g.base_edge]
        for a, b in combinations(free, 2):
            yield {**identity, a: b, b: a}
        for a, b, c in combinations(free, 3):
            yield {**identity, a: b, b: c, c: a}
            yield {**identity, a: c, c: b, b: a}


def test_series_cycles_walk_with_no_reduction(monkeypatch):
    """A map that permutes the edges of a series class breaks the walk where
    a step's edge no longer leaves its parent's image; the step crosses
    another edge of the class instead, so the images of every transposition
    and 3-cycle, onto the graph or a relabelled copy, need no reduction."""
    g = cycle_plus_chords(16, 8, 3)
    assert max(map(len, series_classes(g))) >= 4
    h, relabel = relabelled(g, random.Random(5))
    calls = _count_q_reduce(monkeypatch)
    maps = 0
    for sigma in _series_cycles(g):
        for target, emap in ((g, sigma), (h, {e: relabel[r] for e, r in sigma.items()})):
            m = make_morphism(g, target, emap)
            calls[0] = 0
            m.reduced_images
            assert calls[0] == 0
            _assert_reference_images(m)
            maps += 1
    assert maps == 2 * (5 + 2)


def test_whitney_flip_walk_still_reduces(monkeypatch):
    """A Whitney flip that moves vertex classes off vertices has steps that
    find no edge of their class to cross, and reduces there; its images
    match the reference too."""
    calls = _count_q_reduce(monkeypatch)
    reductions = []
    for m in whitney_morphisms(cycle_plus_chords(16, 8, 3), limit=3):
        calls[0] = 0
        m.reduced_images
        reductions.append(calls[0])
        _assert_reference_images(m)
    assert max(reductions) > 0


def test_survey_predicates_on_an_isomorphic_copy_reduce_nothing(monkeypatch):
    """On a relabelled copy every step of the vertex-image walk leaves the
    image of its parent and every class of Θ passes the weight test, and
    the defect vector at the base orientation is zero: no reduction."""
    g = cycle_plus_chords(16, 8, 3)
    m = make_morphism(g, *relabelled(g, random.Random(5)))
    degrees = _record_q_reduce(monkeypatch)
    assert theta_preserved(m) and s1_image_preserved(m)
    assert diagram_defect(m, base_orientation(g)).is_zero
    assert degrees == []


def test_s1_image_after_theta_preserved_reduces_nothing(monkeypatch):
    """Θ preservation builds the shared vertex images, reducing where a step
    of the walk crosses no edge of its class out of its parent's image, as
    a Whitney flip's does; the degree-1 image then reads them."""
    degrees = _record_q_reduce(monkeypatch)
    graphs = [cycle_plus_chords(n, 3, n) for n in (8, 10)]
    flips = [m for g in graphs for m in whitney_morphisms(g, limit=2)]
    morphisms = flips + [compose(f, t) for f in flips for t in series_transposition_morphisms(f.source, limit=1)]
    walks_that_reduce = 0
    for m in morphisms:
        expected = set(ref.vertex_image(m).values()) == m.target.vertices
        degrees.clear()
        theta_preserved(m)
        walks_that_reduce += 1 in degrees  # a pushed vertex has degree 1
        degrees.clear()
        assert s1_image_preserved(m) == expected
        assert degrees == []
    assert walks_that_reduce > 0


def test_diagram_defect_builds_no_pushed_orientation(monkeypatch):
    """The defect reads c(phi_O(U)) off U's states and the signs, and still
    refuses U off the source before a bioriented edge."""
    def forbidden(*args, **kwargs):
        raise AssertionError("pushforward_orientation called")

    monkeypatch.setattr(sys.modules["rigidlift.orcyc"], "pushforward_orientation", forbidden)
    m = whitney_morphisms(cycle_plus_chords(8, 3, 0), limit=1)[0]
    g, h = m.source, m.target
    assert diagram_defect(m, base_orientation(g)) == m.rigidity
    bioriented = {g.edge_ids[0]: EdgeState.BIORIENTED}
    with pytest.raises(BiorientedPresent):
        diagram_defect(m, PartialOrientation(g, bioriented))
    with pytest.raises(ValidationError):
        diagram_defect(m, PartialOrientation(h, bioriented))
