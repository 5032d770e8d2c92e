"""Differential tests: the cycle-signature series classes and
2-connectivity and the fundamental-cycle signs against the graph-structure
layer as first written (tests/reference_structure.py), and the matroid lift
against a brute force over vertex bijections (tests/helpers.py)."""

import random
import sys
from collections import Counter, deque
from functools import lru_cache

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
    whitney_morphisms,
)

from rigidlift.divisor import q_reduce, vertex_divisor
from rigidlift.errors import (
    BaseNotPreserved,
    InternalError,
    InvalidCyclicBijection,
    NoCommonCycle,
    NotBijection,
    NotTwoConnected,
    NotTwoEdgeConnected,
    RigidliftError,
)
from rigidlift.multigraph import (
    biconnectivity,
    build_graph,
    connectivity_profile,
    cycle_basis,
    find_arches,
    fundamental_cycles,
    series_classes,
)
from rigidlift.orientation import PartialOrientation, base_orientation
from rigidlift.orcyc import (
    MatroidLift,
    compose,
    compute_signs,
    diagram_defect,
    is_rigid,
    lift_matroid_isomorphism,
    lift_to_graph_isomorphism,
    make_morphism,
    s1_image_preserved,
    validate_cyclic_bijection,
)


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
    """Whichever vertex a seed roots the tree at, the basis has genus closed
    simple cycles and the same series classes and bridges."""
    expected = _signature_partition(g, None)
    for seed in range(10):
        cycles = cycle_basis(g, seed).cycles
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
    for cyc in basis.cycles:
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


def test_find_arches_matches_brute_force():
    graphs = _arch_graphs()
    assert len(graphs) > 200
    for g in graphs:
        found = [(a.tips, a.edges, a.complement) for a in find_arches(g)]
        assert found == ref.find_arches(g)


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


def test_morphism_path_runs_no_flow_and_no_cycle_search(monkeypatch):
    g = cycle_plus_chords(16, 8, 3)
    h, emap = relabelled(g, random.Random(3))

    def forbidden(*args, **kwargs):
        raise AssertionError("called off the morphism path")

    structure = sys.modules["rigidlift.multigraph"]
    monkeypatch.setattr(structure, "cycle_through_edges", forbidden)
    monkeypatch.setattr(structure, "_max_flow", forbidden)
    # A valid morphism is 2-connected by its sign walk alone.
    monkeypatch.setattr(sys.modules["rigidlift.orcyc"], "biconnectivity", forbidden)
    # E_phi is computed from coefficient vectors, with no orientation object.
    monkeypatch.setattr(PartialOrientation, "__init__", forbidden)
    cycle_basis.cache_clear()
    m = make_morphism(g, h, emap)
    assert is_rigid(m)
    psi, vertex_map = lift_to_graph_isomorphism(m)
    assert len(psi) == len(h.edge_ids) and len(vertex_map) == len(g.vertices)
    # One fundamental-cycle pass, on g: the signs check the cycle images, and
    # the series classes of h are the images of those of g.
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

            def counting(graph, root, original=original):
                walks.append(graph == source)
                return original(graph, root)

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
    # reduction: the one call is for E_phi.
    _lift_op(g, h, emap)
    assert calls[0] == 1
    # A series transposition moves the images of two edges of one class: the
    # walk reduces once per tree edge whose image no longer leaves the image
    # of the vertex it comes from.
    blocks = [b for b in series_classes(h) if len(b) >= 2 and h.base_edge not in b]
    assert blocks
    to_src = {r: e for e, r in emap.items()}
    for block in blocks:
        a, b = block[:2]
        swapped = dict(emap)
        swapped[to_src[a]], swapped[to_src[b]] = b, a
        calls[0] = 0
        _lift_op(g, h, swapped)
        assert 1 < calls[0] <= 3


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
    """make_morphism leaves the parity test to the sign walk; any error
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
