import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_isomorphic
from helpers import (
    brute_force_spanning_trees,
    catalogue,
    cycle_plus_chords,
    enumerate_small_graphs,
    random_multigraph,
)
from reference_structure import is_connected

from rigidlift.errors import (
    BaseEdgeInArch,
    Disconnected,
    DuplicateEdgeId,
    EnumerationBoundExceeded,
    LoopEdge,
    MissingBaseEdge,
    NoCommonCycle,
    NotTwoEdgeConnected,
)
from rigidlift.homology import lattice_for, path_cochain
from rigidlift.multigraph import (
    MAX_PATH_STEPS,
    build_graph,
    connectivity_profile,
    cycle_through_edges,
    find_arches,
    fundamental_cycles,
    id_key,
    series_classes,
    spanning_tree_count,
    whitney_move,
)


def section3_square():
    """Square on {a, b, c, d} with the top and bottom sides doubled."""
    return build_graph(
        [
            ("e1", "b", "d"),
            ("e2", "a", "b"),
            ("e3", "a", "b"),
            ("e4", "a", "c"),
            ("e5", "c", "d"),
            ("e6", "c", "d"),
        ],
        "e1",
    )


def section3_square_adjacent():
    """Square with two doubled sides sharing a vertex."""
    return build_graph(
        [
            ("r1", "s", "q"),
            ("r2", "p", "r"),
            ("r3", "p", "r"),
            ("r4", "q", "p"),
            ("r5", "r", "s"),
            ("r6", "r", "s"),
        ],
        "r1",
    )


class TestBuildGraph:
    def test_basic_accessors(self, G):
        assert G.genus == 3
        assert len(G.vertices) == 5
        assert len(G.edge_ids) == 7
        assert G.base_edge == "e1"
        assert G.ends("e1") == ("v5", "v1")
        assert G.o("e1") == "v5" and G.t("e1") == "v1"
        assert G.other_end("e1", "v5") == "v1"
        assert G.degree("v1") == 3
        assert set(G.edges_between("v2", "v3")) == {"e4", "e5"}

    def test_with_base(self, G):
        g2 = G.with_base("e4")
        assert g2.base_edge == "e4"
        assert g2 != G
        assert g2.with_base("e1") == G
        assert hash(g2.with_base("e1")) == hash(G)

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            build_graph([("e1", "a", "a"), ("e2", "a", "b")], "e1")

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(DuplicateEdgeId):
            build_graph([("e1", "a", "b"), ("e1", "b", "a")], "e1")

    def test_missing_base_rejected(self):
        with pytest.raises(MissingBaseEdge):
            build_graph([("e1", "a", "b")], "e9")

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_graph(
                [("e1", "a", "b"), ("e2", "b", "a"), ("e3", "c", "d"), ("e4", "d", "c")],
                "e1",
            )


class TestIdOrder:
    """vertex_ids, edge_ids, incident(v) and the series classes come out in
    id_key order whatever order the triples are given in."""

    @staticmethod
    def mixed_ids(g, rng):
        """A copy of g from shuffled triples, each vertex and edge renamed to
        an int or a string at random."""
        vname = {v: i if rng.random() < 0.5 else f"v{i}" for i, v in enumerate(g.vertex_ids)}
        ename = {e: i if rng.random() < 0.5 else f"e{i}" for i, e in enumerate(g.edge_ids)}
        triples = [(ename[e], vname[g.o(e)], vname[g.t(e)]) for e in g.edge_ids]
        rng.shuffle(triples)
        return build_graph(triples, ename[g.base_edge])

    def test_accessors_and_series_classes_are_in_id_order(self):
        rng = random.Random(15)
        two_connected = [self.mixed_ids(g, rng) for g in catalogue() for _ in range(2)]
        bridged = [self.mixed_ids(random_multigraph(rng), rng) for _ in range(100)]
        for g in two_connected + bridged:
            assert g.vertex_ids == tuple(sorted(g.vertices, key=id_key))
            assert g.edge_ids == tuple(sorted(g.edges, key=id_key))
            for v in g.vertex_ids:
                at_v = [e for e in g.edges if v in g.ends(e)]
                assert g.incident(v) == sorted(at_v, key=id_key)
        for g in two_connected:
            blocks = series_classes(g)
            in_order = sorted((tuple(sorted(b, key=id_key)) for b in blocks), key=lambda b: id_key(b[0]))
            assert blocks == in_order


class TestConnectivity:
    def test_theta_graph(self, theta_graph):
        assert theta_graph.genus == 2
        assert connectivity_profile(theta_graph) == (True, 3)

    def test_path_not_two_connected(self):
        g = build_graph([("e1", "a", "b"), ("e2", "b", "c")], "e1")
        assert connectivity_profile(g) == (False, 1)
        with pytest.raises(NotTwoEdgeConnected):
            series_classes(g)

    def test_fixtures(self, G, H, J, K):
        for g in (G, H, J, K):
            assert connectivity_profile(g) == (True, 2)

    def test_k4(self, k4):
        assert connectivity_profile(k4) == (True, 3)


class TestSeriesClasses:
    def test_fixture_blocks(self, G, H, J, K):
        def blocks(g):
            return {frozenset(b) for b in series_classes(g)}

        assert blocks(G) == {
            frozenset({"e3", "e6", "e7"}),
            frozenset({"e1"}),
            frozenset({"e2"}),
            frozenset({"e4"}),
            frozenset({"e5"}),
        }
        assert blocks(H) == {
            frozenset({"r3", "r6", "r7"}),
            frozenset({"r1"}),
            frozenset({"r2"}),
            frozenset({"r4"}),
            frozenset({"r5"}),
        }
        assert blocks(J) == {
            frozenset({"e1", "e4"}),
            frozenset({"e2"}),
            frozenset({"e3"}),
            frozenset({"e5"}),
            frozenset({"e6"}),
        }
        assert blocks(K) == {
            frozenset({"r1", "r4"}),
            frozenset({"r2"}),
            frozenset({"r3"}),
            frozenset({"r5"}),
            frozenset({"r6"}),
        }

    def test_cycle_is_one_block(self, four_cycle):
        assert series_classes(four_cycle) == [four_cycle.edge_ids]

    def test_theta_graph_singletons(self, theta_graph):
        assert all(len(b) == 1 for b in series_classes(theta_graph))

    def test_series_class_of(self, H):
        assert ("r3", "r6", "r7") in series_classes(H)
        assert ("r2",) in series_classes(H)

    def test_definition_agrees_with_pairwise_cut_check(self):
        # Two edges are in series when removing both disconnects the graph.
        for g in enumerate_small_graphs(max_vertices=4, max_edges=6)[:25]:
            blocks = series_classes(g)
            ids = g.edge_ids
            in_series = {
                frozenset((a, b))
                for i, a in enumerate(ids)
                for b in ids[i + 1 :]
                if not is_connected(g, removed_edges=frozenset((a, b)))
            }
            for block in blocks:
                for i, a in enumerate(block):
                    for b in block[i + 1 :]:
                        assert frozenset((a, b)) in in_series
            claimed = {
                frozenset((a, b))
                for block in blocks
                for i, a in enumerate(block)
                for b in block[i + 1 :]
            }
            assert claimed == in_series


class TestCycles:
    def test_cycle_through_edges(self, G):
        path = cycle_through_edges(G, "e1", "e4")
        assert path.is_cycle
        coeffs = path.coefficients()
        assert "e1" in coeffs and "e4" in coeffs
        assert all(c in (-1, 1) for c in coeffs.values())
        lat = lattice_for(G)
        assert lat.contains(path_cochain(G, path))

    def test_cycle_is_deterministic(self, G):
        p1 = cycle_through_edges(G, "e1", "e4")
        p2 = cycle_through_edges(G, "e1", "e4")
        assert p1 == p2

    def test_first_edge_traversed_forward(self, H):
        path = cycle_through_edges(H, "r1", "r4")
        assert path.edges[0] == "r1"
        assert path.signs[0] == 1

    def test_long_cycle_needs_no_recursion(self):
        n = 1200
        g = build_graph([(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)], "e0")
        path = cycle_through_edges(g, "e0", "e600")
        assert path.is_cycle
        assert set(path.edges) == set(g.edge_ids)

    def test_search_stops_past_its_bound(self, monkeypatch):
        # Round a cycle of 1200 vertices the path takes 1198 steps.
        n = 1200
        g = build_graph([(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)], "e0")
        module = sys.modules["rigidlift.multigraph"]
        monkeypatch.setattr(module, "MAX_PATH_STEPS", 1198)
        assert set(cycle_through_edges(g, "e0", "e600").edges) == set(g.edge_ids)
        monkeypatch.setattr(module, "MAX_PATH_STEPS", 1197)
        with pytest.raises(EnumerationBoundExceeded) as exc:
            cycle_through_edges(g, "e0", "e600")
        assert (exc.value.limit, exc.value.reached) == (1197, 1198)

    def test_search_on_a_chorded_64_cycle_raises_quickly(self):
        # Unbounded, this search ran for more than 20 s.
        g = cycle_plus_chords(64, 32, 64)
        start = time.process_time()
        with pytest.raises(EnumerationBoundExceeded) as exc:
            cycle_through_edges(g, "c1", "c64")
        assert time.process_time() - start < 2
        assert (exc.value.limit, exc.value.reached) == (MAX_PATH_STEPS, MAX_PATH_STEPS + 1)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_recursive_search(self, data):
        g = data.draw(st.sampled_from(catalogue()))
        a = data.draw(st.sampled_from(g.edge_ids))
        b = data.draw(st.sampled_from(g.edge_ids))
        seed = data.draw(st.one_of(st.none(), st.integers(0, 2**16)))
        try:
            expected = _recursive_cycle_steps(g, a, b, seed)
        except NoCommonCycle:
            with pytest.raises(NoCommonCycle):
                cycle_through_edges(g, a, b, seed)
            return
        path = cycle_through_edges(g, a, b, seed)
        assert list(zip(path.edges, path.signs, path.vertices[1:])) == expected

    def test_fundamental_cycles(self, G):
        cycles = fundamental_cycles(G)
        assert len(cycles) == G.genus
        lat = lattice_for(G)
        for path in cycles:
            assert path.is_cycle
            assert lat.contains(path_cochain(G, path))
        # Independence: each cycle uses a non-tree edge none of the others use.
        supports = [set(p.coefficients()) for p in cycles]
        union_others = [
            set().union(*(s for j, s in enumerate(supports) if j != i))
            for i in range(len(supports))
        ]
        assert all(s - u for s, u in zip(supports, union_others))


def _recursive_cycle_steps(g, a, b, seed):
    """The recursive depth-first search that cycle_through_edges replaced:
    (edge, sign, vertex reached) per step, with the same shuffles."""
    if a == b:
        raise NoCommonCycle("need two distinct edges")
    rng = random.Random(seed) if seed is not None else None
    start = g.o(a)

    def extend(current, used_edges, visited, acc):
        candidates = sorted(g.incident(current), key=id_key)
        if rng is not None:
            rng.shuffle(candidates)
        for e in candidates:
            if e in used_edges:
                continue
            w = g.other_end(e, current)
            sign = 1 if g.o(e) == current else -1
            if w == start:
                if b in used_edges or e == b:
                    return acc + [(e, sign, w)]
                continue
            if w in visited:
                continue
            res = extend(w, used_edges | {e}, visited | {w}, acc + [(e, sign, w)])
            if res is not None:
                return res
        return None

    res = extend(g.t(a), {a}, {start, g.t(a)}, [(a, 1, g.t(a))])
    if res is None:
        raise NoCommonCycle("no simple cycle")
    return res


class TestArches:
    def test_k4_has_no_arches(self, k4):
        assert find_arches(k4) == []

    def test_doubled_square_arches(self):
        g = section3_square()
        found = {(frozenset(a.edges), frozenset(a.tips)) for a in find_arches(g)}
        assert (frozenset({"e2", "e3", "e4"}), frozenset({"b", "c"})) in found
        assert (frozenset({"e1", "e5", "e6"}), frozenset({"b", "c"})) in found
        for arch, tips in found:
            assert len(tips) == 2

    def test_arch_structure(self, six_cycle):
        arches = find_arches(six_cycle)
        assert arches
        all_edges = set(six_cycle.edge_ids)
        for a in arches:
            assert a.edges | a.complement == all_edges
            assert not (a.edges & a.complement)
            arch_verts = {v for e in a.edges for v in six_cycle.ends(e)}
            comp_verts = {v for e in a.complement for v in six_cycle.ends(e)}
            assert arch_verts & comp_verts == set(a.tips)
            assert len(arch_verts) >= 3 and len(comp_verts) >= 3


class TestWhitneyMove:
    def test_regluing_matches_known_pair(self):
        g = section3_square()
        arch = next(
            a for a in find_arches(g) if a.edges == frozenset({"e2", "e3", "e4"})
        )
        new_g, morphism = whitney_move(g, arch)
        assert graphs_isomorphic(new_g, section3_square_adjacent())
        assert not graphs_isomorphic(g, section3_square_adjacent())

    def test_signs_negative_exactly_on_arch(self):
        g = section3_square()
        for arch in find_arches(g):
            if g.base_edge in arch.edges:
                continue
            _, morphism = whitney_move(g, arch)
            for e in g.edge_ids:
                expected = -1 if e in arch.edges else 1
                assert morphism.sgn(e) == expected

    def test_base_edge_in_arch_rejected(self):
        g = section3_square()
        arch = next(
            a for a in find_arches(g) if a.edges == frozenset({"e1", "e5", "e6"})
        )
        with pytest.raises(BaseEdgeInArch):
            whitney_move(g, arch)

    def test_double_move_returns_isomorphic_graph(self):
        g = section3_square()
        arch = next(
            a for a in find_arches(g) if a.edges == frozenset({"e2", "e3", "e4"})
        )
        g2, _ = whitney_move(g, arch)
        arch2 = next(
            a for a in find_arches(g2) if a.edges == frozenset({"e2", "e3", "e4"})
        )
        g3, _ = whitney_move(g2, arch2)
        assert graphs_isomorphic(g, g3)


class TestSpanningTreeCount:
    def test_fixture_counts(self, G, K):
        assert spanning_tree_count(G) == 16
        assert spanning_tree_count(K) == 12

    def test_matches_brute_force(self, theta_graph, four_cycle, k4, H, J):
        for g in (theta_graph, four_cycle, k4, H, J):
            assert spanning_tree_count(g) == brute_force_spanning_trees(g)

    def test_matches_brute_force_on_enumerated_graphs(self):
        for g in enumerate_small_graphs(max_vertices=4, max_edges=6)[:20]:
            assert spanning_tree_count(g) == brute_force_spanning_trees(g)
