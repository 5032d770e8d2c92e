import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_isomorphic
from helpers import (
    base_reversing_pair,
    catalogue,
    cycle_plus_chords,
    digon_cycle_pair,
    whitney_morphisms,
)

from rigidlift.divisor import Divisor, DivisorClass, _search, theta_divisor
from rigidlift.errors import (
    BaseNotPreserved,
    CompositionMismatch,
    EnumerationBoundExceeded,
    GenusTooSmall,
    InvalidCyclicBijection,
    MorphismIsRigid,
    MorphismNotRigid,
    NoSeriesFixingLift,
    NotBijection,
    NotTwoConnected,
    NotTwoEdgeConnected,
    ValidationError,
)
from rigidlift.graphio import load_fixture
from rigidlift.homology import iota, lattice_for, pushforward_cochain
from rigidlift.multigraph import build_graph, cycle_basis, series_classes, spanning_tree_count
from rigidlift.orcyc import (
    MatroidLift,
    NotLiftable,
    compose,
    compute_signs,
    diagram_defect,
    identity_morphism,
    inverse_morphism,
    is_rigid,
    lift_matroid_isomorphism,
    lift_to_graph_isomorphism,
    lowering_divisor,
    make_morphism,
    nonrigidity_witness,
    pushforward_class,
    pushforward_orientation,
    rigidity_divisor,
    s1_image_preserved,
    theta_preserved,
    validate_cyclic_bijection,
)
from rigidlift.orientation import (
    EdgeState,
    apply_move,
    base_orientation,
    chern_class,
    cycle_reversal,
    torsor_act,
)


GH_SIGNS = {"e1": 1, "e2": 1, "e3": -1, "e4": -1, "e5": 1, "e6": -1, "e7": 1}
JK_SIGNS = {"e1": 1, "e2": 1, "e3": -1, "e4": 1, "e5": -1, "e6": 1}


class TestValidation:
    def test_identity_is_valid(self, G):
        validate_cyclic_bijection(G, G, {e: e for e in G.edge_ids})

    def test_fixture_maps_are_valid(self, G, H, J, K):
        validate_cyclic_bijection(G, H, {f"e{i}": f"r{i}" for i in range(1, 8)})
        validate_cyclic_bijection(J, K, {f"e{i}": f"r{i}" for i in range(1, 7)})

    def test_non_bijection_rejected(self, G):
        emap = {e: "e1" for e in G.edge_ids}
        with pytest.raises(NotBijection):
            validate_cyclic_bijection(G, G, emap)

    def test_base_must_be_preserved(self, G):
        emap = {e: e for e in G.edge_ids}
        emap["e1"], emap["e2"] = "e2", "e1"
        with pytest.raises(BaseNotPreserved):
            validate_cyclic_bijection(G, G, emap)
        validate_cyclic_bijection(G, G, emap, require_base=False)

    def test_non_cyclic_bijection_rejected(self, G):
        # Swapping a doubled edge with an unrelated one breaks the 2-cycle
        # {e1, e2}, whose image {e1, e4} is not a cycle.
        emap = {e: e for e in G.edge_ids}
        emap["e2"], emap["e4"] = "e4", "e2"
        assert not validate_cyclic_bijection(G, G, emap)
        with pytest.raises(InvalidCyclicBijection):
            make_morphism(G, G, emap)
        with pytest.raises(InvalidCyclicBijection):
            compute_signs(G, G, emap)

    def test_compute_signs_rejects_a_bijection_onto_higher_genus(self):
        # K4 minus an edge, whose spanning tree e1, e2, e3 gives the two
        # triangles {e4, e1, e2} and {e5, e1, e3} as fundamental cycles.
        # Both map onto triangles of a triangle with two doubled sides, but
        # that graph has genus 3 and its digon {xy1, xy2} pulls back to no
        # cycle.
        g = build_graph(
            [("e1", "c", "a"), ("e2", "a", "b"), ("e3", "c", "d"), ("e4", "b", "c"), ("e5", "d", "a")],
            "e2",
        )
        h = build_graph(
            [("xy1", "x", "y"), ("yz1", "y", "z"), ("zx", "z", "x"), ("xy2", "x", "y"), ("yz2", "y", "z")],
            "xy1",
        )
        emap = {"e1": "zx", "e2": "xy1", "e3": "xy2", "e4": "yz1", "e5": "yz2"}
        assert not validate_cyclic_bijection(g, h, emap)
        with pytest.raises(InvalidCyclicBijection):
            compute_signs(g, h, emap)

    def test_an_image_tree_with_a_cycle_is_refused(self):
        # K4 and itself: the source's tree from t(base) = 2 is the star
        # {a, b, f}, which the map sends onto the triangle {a, b, e}, so the
        # image of the tree reaches only three vertices.  The genera agree.
        k4 = build_graph(
            [("a", 1, 2), ("b", 2, 3), ("c", 3, 4), ("d", 4, 1), ("e", 1, 3), ("f", 2, 4)],
            "a",
        )
        emap = {"a": "a", "b": "b", "c": "c", "d": "d", "e": "f", "f": "e"}
        assert {emap[e] for _, e, _ in cycle_basis(k4, None).tree} == {"a", "b", "e"}
        assert not validate_cyclic_bijection(k4, k4, emap)
        with pytest.raises(InvalidCyclicBijection, match="spanning tree"):
            compute_signs(k4, k4, emap)
        with pytest.raises(InvalidCyclicBijection):
            make_morphism(k4, k4, emap)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_compute_signs_raises_exactly_on_non_cyclic_bijections(self, data):
        g = data.draw(st.sampled_from(catalogue()))
        h = data.draw(st.sampled_from([k for k in catalogue() if len(k.edge_ids) == len(g.edge_ids)]))
        emap = dict(zip(g.edge_ids, data.draw(st.permutations(h.edge_ids))))
        if validate_cyclic_bijection(g, h, emap, require_base=False):
            signs = compute_signs(g, h, emap)
            assert signs[g.base_edge] == 1 and set(signs) == set(g.edge_ids)
        else:
            with pytest.raises(InvalidCyclicBijection):
                compute_signs(g, h, emap)

    def test_adjacent_transposition_on_plain_cycle_is_valid(self, four_cycle):
        # Any edge permutation of a single cycle maps cycles to cycles, even
        # ones no graph isomorphism induces.
        emap = {"e1": "e1", "e2": "e3", "e3": "e2", "e4": "e4"}
        validate_cyclic_bijection(four_cycle, four_cycle, emap)


class TestSigns:
    def test_fixture_sign_functions(self, gh_morphism, jk_morphism):
        assert gh_morphism.sign_dict == GH_SIGNS
        assert jk_morphism.sign_dict == JK_SIGNS

    def test_base_edge_sign_positive(self, gh_morphism, jk_morphism):
        for m in (gh_morphism, jk_morphism):
            assert m.sgn(m.source.base_edge) == 1

    def test_seed_independence(self, G, H):
        emap = {f"e{i}": f"r{i}" for i in range(1, 8)}
        for seed in range(10):
            assert compute_signs(G, H, emap, seed=seed) == GH_SIGNS

    def test_identity_signs_positive(self, G):
        m = identity_morphism(G)
        assert all(s == 1 for s in m.sign_dict.values())


class TestComposition:
    def test_identity_laws(self, gh_morphism):
        m = gh_morphism
        left = compose(identity_morphism(m.target), m)
        right = compose(m, identity_morphism(m.source))
        assert left.edge_dict == m.edge_dict and left.sign_dict == m.sign_dict
        assert right.edge_dict == m.edge_dict and right.sign_dict == m.sign_dict

    def test_inverse_composes_to_identity(self, gh_morphism):
        m = gh_morphism
        inv = inverse_morphism(m)
        round_trip = compose(inv, m)
        assert round_trip.edge_dict == {e: e for e in m.source.edge_ids}
        assert all(s == 1 for s in round_trip.sign_dict.values())

    def test_signs_multiply(self, G):
        emap = {e: e for e in G.edge_ids}
        emap["e3"], emap["e6"] = "e6", "e3"
        tau = make_morphism(G, G, emap)
        square = compose(tau, tau)
        for e in G.edge_ids:
            assert square.sgn(e) == tau.sgn(tau.map_edge(e)) * tau.sgn(e)

    def test_mismatched_composition_rejected(self, gh_morphism, jk_morphism):
        with pytest.raises(CompositionMismatch):
            compose(jk_morphism, gh_morphism)


class TestPushforward:
    def test_cochain_pushforward_twists_by_sign(self, gh_morphism):
        m = gh_morphism
        g = m.source
        from rigidlift.homology import edge_indicator

        for e in g.edge_ids:
            img = pushforward_cochain(m, edge_indicator(g, e))
            assert img[m.map_edge(e)] == m.sgn(e)

    def test_orientation_pushforward_respects_sign(self, gh_morphism):
        m = gh_morphism
        u = base_orientation(m.source)
        v = pushforward_orientation(m, u)
        for e in m.source.edge_ids:
            expected = EdgeState.FORWARD if m.sgn(e) == 1 else EdgeState.BACKWARD
            assert v.state(m.map_edge(e)) is expected

    def test_orientation_pushforward_preserves_unoriented(self, jk_morphism):
        m = jk_morphism
        u = base_orientation(m.source).with_states({"e2": EdgeState.UNORIENTED})
        v = pushforward_orientation(m, u)
        assert v.state(m.map_edge("e2")) is EdgeState.UNORIENTED

    def test_class_pushforward_is_additive(self, jk_morphism):
        m = jk_morphism
        j = m.source
        c1 = DivisorClass(j, Divisor(j, {"v1": 1, "v2": -1}))
        c2 = DivisorClass(j, Divisor(j, {"v3": 1, "v4": -1}))
        assert pushforward_class(m, c1 + c2) == pushforward_class(
            m, c1
        ) + pushforward_class(m, c2)

    def test_identity_pushforward_fixes_classes(self, K):
        m = identity_morphism(K)
        c = DivisorClass(K, Divisor(K, {"w1": 1, "w3": -1}))
        assert pushforward_class(m, c) == c


class TestRigidity:
    def test_rigidity_divisor_values(self, gh_morphism, jk_morphism):
        assert rigidity_divisor(gh_morphism).is_zero
        k = jk_morphism.target
        assert rigidity_divisor(jk_morphism) == DivisorClass(
            k, Divisor(k, {"w2": 1, "w3": -1})
        )

    def test_predicates(self, gh_morphism, jk_morphism):
        assert is_rigid(gh_morphism)
        assert theta_preserved(gh_morphism)
        assert s1_image_preserved(gh_morphism)
        assert not is_rigid(jk_morphism)
        assert not theta_preserved(jk_morphism)
        assert not s1_image_preserved(jk_morphism)

    def test_package_exports_the_four_predicates(self):
        import rigidlift
        from rigidlift import orcyc

        for name in ("is_rigid", "diagram_defect", "theta_preserved", "s1_image_preserved"):
            assert getattr(rigidlift, name) is getattr(orcyc, name)

    def test_theta_preserved_keeps_the_class_bound(self, gh_morphism, jk_morphism):
        """Θ of the source is enumerated under max_classes, and the bound
        on |Pic^0| = tau raises as the search would, cached or not."""
        flip = whitney_morphisms(cycle_plus_chords(8, 3, 0), limit=1)[0]
        for m in (gh_morphism, jk_morphism, flip):
            tau = spanning_tree_count(m.source)
            _search.cache_clear()
            for _ in range(2):
                with pytest.raises(EnumerationBoundExceeded) as info:
                    theta_preserved(m, max_classes=tau - 1)
                assert (info.value.limit, info.value.reached) == (tau - 1, tau)
                theta_divisor(m.source)
                theta_divisor(m.target)
            assert theta_preserved(m, max_classes=tau) == theta_preserved(m)

    def test_theta_preserved_enumerates_theta_of_the_source_only(self, monkeypatch, gh_morphism, jk_morphism):
        orcyc = sys.modules["rigidlift.orcyc"]
        original, asked = orcyc.theta_divisor, []

        def recording(g, *args, **kwargs):
            asked.append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(orcyc, "theta_divisor", recording)
        flip = whitney_morphisms(cycle_plus_chords(8, 3, 0), limit=1)[0]
        for m in (gh_morphism, jk_morphism, flip):
            asked.clear()
            theta_preserved(m)
            assert asked == [m.source]

    def test_genus_requirement(self, four_cycle):
        m = identity_morphism(four_cycle)
        with pytest.raises(GenusTooSmall):
            is_rigid(m)

    def test_identity_is_rigid(self, G):
        assert is_rigid(identity_morphism(G))

    def test_diagram_defect_zero_for_rigid_full(self, gh_morphism):
        u = base_orientation(gh_morphism.source)
        assert diagram_defect(gh_morphism, u).is_zero

    def test_diagram_defect_equals_rigidity_divisor_on_full(self, jk_morphism):
        u = base_orientation(jk_morphism.source)
        assert diagram_defect(jk_morphism, u) == rigidity_divisor(jk_morphism)

    def test_diagram_defect_with_positive_sign_unoriented_edge(self, jk_morphism):
        # With every unoriented edge carrying sign +1 the defect decomposes
        # into rigidity plus lowering contributions.
        m = jk_morphism
        assert m.sgn("e2") == 1
        u = base_orientation(m.source).with_states({"e2": EdgeState.UNORIENTED})
        expected = rigidity_divisor(m) + lowering_divisor(m, {"e2"})
        assert diagram_defect(m, u) == expected

    def test_diagram_defect_with_negative_sign_unoriented_edge(self, jk_morphism):
        # An unoriented edge of sign -1 contributes an extra edge-boundary
        # term beyond rigidity plus lowering.
        m = jk_morphism
        assert m.sgn("e5") == -1
        u = base_orientation(m.source).with_states(
            {"e2": EdgeState.UNORIENTED, "e5": EdgeState.UNORIENTED}
        )
        h = m.target
        fe = m.map_edge("e5")
        correction = DivisorClass(h, Divisor(h, {h.t(fe): 1, h.o(fe): -1}))
        expected = (
            rigidity_divisor(m) + lowering_divisor(m, {"e2", "e5"}) - correction
        )
        assert diagram_defect(m, u) == expected
        assert diagram_defect(m, u) != expected + correction


def _foreign_inputs():
    """(name, call) pairs that hand an entry point an object of another
    graph: G and K share no ids, and a Whitney flip's source and target
    share every edge and vertex id but not their ends."""
    g, k = load_fixture("G.graph"), load_fixture("K.graph")
    gh = make_morphism(g, load_fixture("H.graph"), {f"e{i}": f"r{i}" for i in range(1, 8)})
    flip = whitney_morphisms(cycle_plus_chords(8, 3, 0), limit=1)[0]
    f, f2 = flip.source, flip.target
    assert f != f2 and f.edge_ids == f2.edge_ids and f.vertex_ids == f2.vertex_ids
    k_chip = Divisor(k, {"w1": 1, "w2": -1})
    f2_chip = Divisor(f2, {f2.vertex_ids[0]: 1, f2.vertex_ids[1]: -1})
    return [
        ("torsor_act u on K", lambda: torsor_act(g, Divisor(g), base_orientation(k))),
        ("torsor_act d on K", lambda: torsor_act(g, k_chip, base_orientation(g))),
        ("pushforward_orientation on K", lambda: pushforward_orientation(gh, base_orientation(k))),
        ("diagram_defect on K", lambda: diagram_defect(gh, base_orientation(k))),
        ("apply_move with K's edges", lambda: apply_move(base_orientation(g), cycle_reversal({"r1", "r2"}))),
        ("lowering_divisor with K's edge", lambda: lowering_divisor(gh, {"r1"})),
        ("torsor_act u on the flip", lambda: torsor_act(f, Divisor(f), base_orientation(f2))),
        ("torsor_act d on the flip", lambda: torsor_act(f, f2_chip, base_orientation(f))),
        ("pushforward_orientation on the flip", lambda: pushforward_orientation(flip, base_orientation(f2))),
        ("diagram_defect on the flip", lambda: diagram_defect(flip, base_orientation(f2))),
    ]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in _foreign_inputs()])
def test_inputs_from_another_graph_are_rejected(call):
    with pytest.raises(ValidationError):
        call()


class TestWitness:
    def test_witness_verified_against_theta(self, jk_morphism):
        m = jk_morphism
        s, image = nonrigidity_witness(m)
        assert s in theta_divisor(m.source)
        assert image not in theta_divisor(m.target)
        assert pushforward_class(m, s) == image

    def test_rigid_morphism_has_no_witness(self, gh_morphism):
        with pytest.raises(MorphismIsRigid):
            nonrigidity_witness(gh_morphism)


class TestGraphLift:
    def test_lift_of_rigid_fixture_pair(self, gh_morphism):
        psi, vmap = lift_to_graph_isomorphism(gh_morphism)
        assert vmap == {"v1": "w2", "v2": "w1", "v3": "w5", "v4": "w4", "v5": "w3"}
        moved = {k: v for k, v in psi.items() if k != v}
        assert moved == {"r3": "r7", "r6": "r3", "r7": "r6"}

    def test_lift_composite_is_graph_isomorphism(self, gh_morphism):
        m = gh_morphism
        g, h = m.source, m.target
        psi, vmap = lift_to_graph_isomorphism(m)
        assert sorted(vmap.values()) == sorted(h.vertex_ids)
        for e in g.edge_ids:
            image = psi[m.map_edge(e)]
            a, b = g.ends(e)
            assert {vmap[a], vmap[b]} == set(h.ends(image))

    def test_psi_is_series_fixing(self, gh_morphism):
        psi, _ = lift_to_graph_isomorphism(gh_morphism)
        class_of = {e: b for b in series_classes(gh_morphism.target) for e in b}
        for e, img in psi.items():
            assert img in class_of[e]

    def test_identity_lifts_to_identity(self, G):
        psi, vmap = lift_to_graph_isomorphism(identity_morphism(G))
        for e in G.edge_ids:
            a, b = G.ends(e)
            assert {vmap[a], vmap[b]} == {a, b}

    def test_non_rigid_rejected(self, jk_morphism):
        with pytest.raises(MorphismNotRigid):
            lift_to_graph_isomorphism(jk_morphism)

    def test_base_moves_within_its_series_class(self):
        # Rigid, but s1_image_preserved fails: the only lift sends the base
        # e5 to e0, the other edge of its series class.
        g = build_graph(
            [("e0", "u0", "u2"), ("e1", "u3", "u4"), ("e2", "u3", "u1"), ("e3", "u1", "u2"),
             ("e4", "u1", "u3"), ("e5", "u4", "u0"), ("e6", "u4", "u3"), ("e7", "u2", "u3")],
            "e5",
        )
        moved = {"e1": ("u3", "u2"), "e3": ("u1", "u4"), "e6": ("u2", "u3"), "e7": ("u4", "u3")}
        h = build_graph([(e, *moved.get(e, g.ends(e))) for e in g.edge_ids], "e5")
        m = make_morphism(g, h, {e: e for e in g.edge_ids})
        assert is_rigid(m) and not s1_image_preserved(m)
        psi, _ = lift_to_graph_isomorphism(m)
        assert {k: v for k, v in psi.items() if k != v} == {"e0": "e5", "e5": "e0"}

    def test_rigid_morphism_of_non_isomorphic_graphs_has_no_lift(self):
        g, h, emap = digon_cycle_pair()
        m = make_morphism(g, h, emap)
        assert is_rigid(m) and theta_preserved(m) and not graphs_isomorphic(g, h)
        with pytest.raises(NoSeriesFixingLift):
            lift_to_graph_isomorphism(m)


class TestMatroidLift:
    def test_liftable_pair(self, G, H):
        emap = {f"e{i}": f"r{i}" for i in range(1, 8)}
        result = lift_matroid_isomorphism(G, H, emap)
        assert isinstance(result, MatroidLift)
        final = dict(result.edge_map)
        vmap = dict(result.vertex_map)
        assert sorted(final.keys()) == sorted(G.edge_ids)
        assert sorted(final.values()) == sorted(H.edge_ids)
        for e in G.edge_ids:
            a, b = G.ends(e)
            assert {vmap[a], vmap[b]} == set(H.ends(final[e]))

    def test_unliftable_pair(self, J, K):
        emap = {f"e{i}": f"r{i}" for i in range(1, 7)}
        result = lift_matroid_isomorphism(J, K, emap)
        assert isinstance(result, NotLiftable)
        assert result.base_edge == "e1"
        assert set(result.tried) == {"r1", "r4"}

    def test_identity_map_lifts(self, G):
        result = lift_matroid_isomorphism(G, G, {e: e for e in G.edge_ids})
        assert isinstance(result, MatroidLift)

    def test_lift_that_reverses_the_base(self):
        # The base is alone in its series class and the morphism is not
        # rigid, yet the map lifts: every isomorphism reverses e1.
        g, h, emap = base_reversing_pair()
        assert not is_rigid(make_morphism(g, h, emap))
        result = lift_matroid_isomorphism(g, h, emap)
        assert isinstance(result, MatroidLift)
        assert result.rigid_candidate == "e1" and result.tried == ("e1",)
        vmap = dict(result.vertex_map)
        assert (vmap["u0"], vmap["u1"]) == (h.t("e1"), h.o("e1"))

    def test_each_single_fault_raises_its_error(self, G, H, four_cycle):
        bowtie = build_graph(
            [("a1", "x", "y"), ("a2", "y", "c"), ("a3", "c", "x"),
             ("b1", "c", "p"), ("b2", "p", "q"), ("b3", "q", "c")],
            "a1",
        )
        # A 2-connected source of the same genus, a 5-cycle with a chord, and
        # a target with a bridge: a triangle and a digon at c, and a pendant edge.
        chorded = build_graph(
            [("s1", 0, 1), ("s2", 1, 2), ("s3", 2, 3), ("s4", 3, 4), ("s5", 4, 0), ("s6", 0, 2)],
            "s1",
        )
        bridged = build_graph(
            [("a1", "x", "y"), ("a2", "y", "c"), ("a3", "c", "x"),
             ("b1", "c", "p"), ("b2", "p", "c"), ("b3", "p", "q")],
            "a1",
        )
        k2 = build_graph([("a", "x", "y")], "a")
        gh = {f"e{i}": f"r{i}" for i in range(1, 8)}
        not_cyclic = {e: e for e in G.edge_ids}
        not_cyclic["e2"], not_cyclic["e4"] = "e4", "e2"
        cases = [
            (NotTwoConnected, bowtie, bowtie, {e: e for e in bowtie.edge_ids}),
            (NotTwoConnected, chorded, bowtie, dict(zip(chorded.edge_ids, bowtie.edge_ids))),
            (NotTwoConnected, chorded, bridged, dict(zip(chorded.edge_ids, bridged.edge_ids))),
            (NotTwoEdgeConnected, k2, k2, {"a": "a"}),
            (GenusTooSmall, four_cycle, four_cycle, {e: e for e in four_cycle.edge_ids}),
            (NotBijection, G, H, {e: r for e, r in gh.items() if e != "e1"}),
            (NotBijection, G, H, dict.fromkeys(gh, "r2")),
            (InvalidCyclicBijection, G, G, not_cyclic),
        ]
        for error, g, h, emap in cases:
            with pytest.raises(error):
                lift_matroid_isomorphism(g, h, emap)
            with pytest.raises(error):
                is_rigid(make_morphism(g, h, emap))
        with pytest.raises(BaseNotPreserved):
            make_morphism(G, G.with_base("e2"), {e: e for e in G.edge_ids})
