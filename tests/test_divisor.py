import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_spanning_trees,
    catalogue,
    cycle_plus_chords,
    enumerate_small_graphs,
    whitney_morphisms,
)

from rigidlift.divisor import (
    Classification,
    Divisor,
    DivisorClass,
    abel_jacobi,
    all_vertices_divisor,
    canonical_divisor,
    classify_gminus1,
    dhar_burn_order,
    enumerate_picard,
    in_theta,
    is_effective_class,
    laplacian_fire,
    linearly_equivalent,
    q_reduce,
    theta_divisor,
    vertex_divisor,
)
from rigidlift.divisor import _search
from rigidlift.errors import EnumerationBoundExceeded, ValidationError, WrongDegree
from rigidlift.multigraph import Multigraph, build_graph, spanning_tree_count


def small_coeffs(g):
    return st.lists(
        st.integers(min_value=-4, max_value=4),
        min_size=len(g.vertices),
        max_size=len(g.vertices),
    )


class TestDivisorArithmetic:
    def test_basics(self, K):
        d = Divisor(K, {"w1": 2, "w3": -1})
        assert d.degree == 1
        assert d["w1"] == 2 and d["w2"] == 0
        assert not d.is_effective
        assert (d + vertex_divisor(K, "w3")).is_effective
        assert (-d)["w1"] == -2
        assert (3 * d)["w3"] == -3
        assert d - d == Divisor(K)

    def test_fire_single_vertex(self, K):
        # w1 has degree 3 (one edge to w2, two to w4).
        d = laplacian_fire(K, {"w1": 1})
        assert d == Divisor(K, {"w1": -3, "w2": 1, "w4": 2})

    def test_fire_all_vertices_is_zero(self, G):
        assert laplacian_fire(G, {v: 1 for v in G.vertex_ids}) == Divisor(G)

    def test_canonical_divisor(self, G, K):
        for g in (G, K):
            kd = canonical_divisor(g)
            assert kd.degree == 2 * g.genus - 2
            assert all(kd[v] == g.degree(v) - 2 for v in g.vertex_ids)


class TestIntegerCoefficients:
    """A coefficient, firing count or multiplier that is not an integer is
    refused, not truncated; integral floats and fractions are accepted."""

    @pytest.mark.parametrize("c", [1.9, Fraction(5, 2), "3", "x", None, float("nan")])
    def test_divisor_refuses_a_non_integral_coefficient(self, K, c):
        with pytest.raises(ValidationError):
            Divisor(K, {"w1": c})

    @pytest.mark.parametrize("times", [0.5, Fraction(1, 2), "1"])
    def test_firing_refuses_a_non_integral_count(self, K, times):
        with pytest.raises(ValidationError):
            laplacian_fire(K, {"w1": times})

    def test_multiplication_refuses_a_non_integral_factor(self, K):
        with pytest.raises(ValidationError):
            2.5 * vertex_divisor(K, "w1")

    def test_integral_floats_and_fractions_are_accepted(self, K):
        d = Divisor(K, {"w1": 2.0, "w2": Fraction(4, 2)})
        assert d == Divisor(K, {"w1": 2, "w2": 2})
        fired = laplacian_fire(K, {"w1": 1.0})
        assert fired == laplacian_fire(K, {"w1": 1})
        assert all(type(c) is int for c in d.vector + fired.vector + (2.0 * d).vector)


class TestQReduce:
    def test_worked_example(self, K):
        d = Divisor(K, {"w2": 1, "w3": 3, "w4": -4})
        assert q_reduce(K, d, "w4") == Divisor(K, {"w1": 1, "w3": 1, "w4": -2})

    def test_divisor_must_share_the_vertices(self, G, K):
        d = Divisor(K, {"w2": 1, "w3": 3, "w4": -4})
        with pytest.raises(ValidationError, match="not on the vertices"):
            q_reduce(G, d, "v1")
        with pytest.raises(ValidationError, match="not on the vertices"):
            dhar_burn_order(G, Divisor(K), "v1")
        rebased = K.with_base("r2")
        assert q_reduce(rebased, d, "w4") == Divisor(rebased, {"w1": 1, "w3": 1, "w4": -2})

    def test_divisor_of_a_whitney_flip_is_refused(self):
        # The flip keeps every vertex and edge id but moves some edge ends,
        # so a divisor of its target is not a divisor of the source.
        g = cycle_plus_chords(8, 3, 0)
        h = whitney_morphisms(g, limit=1)[0].target
        assert (h.vertex_ids, h.edge_ids) == (g.vertex_ids, g.edge_ids)
        d = Divisor(h, {h.vertex_ids[0]: 2, g.base_head: -1})
        q = g.base_head
        for call in (
            lambda: q_reduce(g, d, q),
            lambda: is_effective_class(g, d),
            lambda: linearly_equivalent(g, d, d),
            lambda: dhar_burn_order(g, Divisor(h), q),
        ):
            with pytest.raises(ValidationError, match="not on the vertices and edges"):
                call()

    def test_divisor_of_a_rebased_or_reoriented_copy_is_accepted(self):
        # Another base, or an edge turned round, leaves the Laplacian as it is.
        g = cycle_plus_chords(8, 3, 0)
        d = Divisor(g, {g.vertex_ids[0]: 3, g.vertex_ids[1]: -2})
        e = g.edge_ids[-1]
        edges = g.edges
        edges[e] = edges[e][::-1]
        for f in (g.with_base(e), Multigraph(g.vertices, edges, e)):
            q = f.base_head
            reduced = q_reduce(g, d, q)
            assert q_reduce(f, d, q) == Divisor(f, dict(reduced.items()))
            assert is_effective_class(f, d) == (reduced[q] >= 0)
            assert linearly_equivalent(f, d, reduced)
            assert dhar_burn_order(f, reduced, q) == dhar_burn_order(g, reduced, q)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equivalent_and_idempotent(self, G, data):
        coeffs = data.draw(small_coeffs(G))
        d = Divisor(G, dict(zip(G.vertex_ids, coeffs)))
        q = data.draw(st.sampled_from(G.vertex_ids))
        r = q_reduce(G, d, q)
        assert r.degree == d.degree
        assert linearly_equivalent(G, r, d)
        assert q_reduce(G, r, q) == r

    def test_burn_order_refuses_a_divisor_negative_off_q(self, K):
        # Every vertex would burn, but -1 off q is not q-reduced.
        d = Divisor(K, {"w1": -1, "w3": -1, "w4": -1})
        with pytest.raises(ValidationError, match="negative off q"):
            dhar_burn_order(K, d, "w2")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_nonnegative_away_from_q_and_dhar_stable(self, K, data):
        coeffs = data.draw(small_coeffs(K))
        d = Divisor(K, dict(zip(K.vertex_ids, coeffs)))
        q = data.draw(st.sampled_from(K.vertex_ids))
        r = q_reduce(K, d, q)
        assert all(r[v] >= 0 for v in K.vertex_ids if v != q)
        # Burning from q must consume the whole graph: no subset can fire.
        assert set(dhar_burn_order(K, r, q)) == set(K.vertex_ids)

    def test_reduced_form_is_a_class_invariant(self, J):
        d1 = Divisor(J, {"v1": 1, "v3": 1})
        d2 = d1 + laplacian_fire(J, {"v1": 2, "v2": 1})
        assert q_reduce(J, d1, "v2") == q_reduce(J, d2, "v2")


class TestLinearEquivalence:
    def test_firing_moves_preserve_class(self, H):
        d = Divisor(H, {"w1": 3, "w2": -1})
        assert linearly_equivalent(H, d, d + laplacian_fire(H, {"w3": 2}))

    def test_different_degrees_never_equivalent(self, H):
        assert not linearly_equivalent(
            H, vertex_divisor(H, "w1"), Divisor(H)
        )

    def test_distinct_vertex_classes(self, K):
        # On a 2-connected graph, distinct vertices give distinct classes.
        assert not linearly_equivalent(
            K, vertex_divisor(K, "w1"), vertex_divisor(K, "w2")
        )

    def test_divisor_class_equality(self, K):
        d = Divisor(K, {"w2": 1, "w3": 3, "w4": -4})
        assert DivisorClass(K, d) == DivisorClass(
            K, Divisor(K, {"w1": 1, "w3": 1, "w4": -2})
        )
        assert DivisorClass(K, d) != DivisorClass(K, Divisor(K, {"w2": 1}))


class TestPicard:
    def test_group_order_matches_tree_count(self, G, H, J, K):
        for g in (G, H, J, K):
            assert len(enumerate_picard(g, 0)) == spanning_tree_count(g)

    def test_order_independent_of_degree(self, K):
        n = spanning_tree_count(K)
        for deg in (-1, 0, 1, 2):
            assert len(enumerate_picard(K, deg)) == n

    def test_tree_count_against_brute_force(self):
        for g in enumerate_small_graphs(max_vertices=4, max_edges=6)[:15]:
            assert len(enumerate_picard(g, 0)) == brute_force_spanning_trees(g)

    def test_bound_exceeded(self, K):
        with pytest.raises(EnumerationBoundExceeded):
            enumerate_picard(K, 0, max_classes=5)

    def test_classes_are_distinct_and_closed_under_negation(self, J):
        classes = enumerate_picard(J, 0)
        assert len(set(classes)) == len(classes)
        assert {-c for c in classes} == set(classes)


class TestAbelJacobi:
    def test_empty_sum_is_zero(self, G):
        assert abel_jacobi(G, []).is_zero

    def test_single_point(self, G):
        v = "v3"
        expected = DivisorClass(
            G, vertex_divisor(G, v) - vertex_divisor(G, G.base_head)
        )
        assert abel_jacobi(G, [v]) == expected

    def test_additive_in_points(self, K):
        assert abel_jacobi(K, ["w2", "w3"]) == abel_jacobi(K, ["w2"]) + abel_jacobi(
            K, ["w3"]
        )

    def test_degree_zero(self, J):
        for pts in (["v1"], ["v1", "v4"], ["v2", "v2", "v3"]):
            assert abel_jacobi(J, pts).degree == 0

    def test_first_point_off_the_graph_is_reported(self, G):
        with pytest.raises(ValidationError, match=r"^vertex 'x' not in graph$"):
            abel_jacobi(G, ["v1", "x", "v1", "y"])


class TestTheta:
    def test_fixture_sizes(self, G, H, J, K):
        assert len(theta_divisor(G)) == 12
        assert len(theta_divisor(H)) == 12
        assert len(theta_divisor(J)) == 9
        assert len(theta_divisor(K)) == 9

    def test_membership_criterion(self, K):
        theta = theta_divisor(K)
        shift = (K.genus - 1) * vertex_divisor(K, K.base_head)
        for c in enumerate_picard(K, 0):
            expected = is_effective_class(K, c.representative + shift)
            assert (c in theta) == expected

    def test_cache_is_bounded_and_an_immediate_repeat_hits(self):
        maxsize = _search.cache_info().maxsize
        for i in range(maxsize + 10):
            g = build_graph([("a", f"p{i}", "q"), ("b", "q", f"p{i}"), ("c", "q", f"p{i}")], "a")
            theta_divisor(g)
            hits = _search.cache_info().hits
            theta_divisor(g)
            info = _search.cache_info()
            assert info.hits == hits + 1
            assert info.currsize <= maxsize

    def test_image_of_abel_jacobi_lands_in_theta(self, J):
        theta = theta_divisor(J)
        g = J.genus
        for pts in [["v1", "v2"], ["v3", "v3"], ["v2", "v4"]]:
            assert len(pts) == g - 1
            assert abel_jacobi(J, pts) in theta
            assert in_theta(J, abel_jacobi(J, pts))

    def test_in_theta_needs_a_class_on_the_graph(self, J, K):
        with pytest.raises(ValidationError):
            in_theta(K, next(iter(theta_divisor(J))))
        # Genus 0: no degree-0 class c has c - t0 effective.
        path = build_graph([("a", "p", "q"), ("b", "q", "r")], "a")
        assert not in_theta(path, DivisorClass(path, Divisor(path)))


def acyclic_orientations_with_unique_source(g, q):
    """Count, over all 2^|E| orientations, those that are acyclic and whose
    only source is q."""
    count = 0
    edges = [g.ends(e) for e in g.edge_ids]
    for mask in range(1 << len(edges)):
        arcs = [(a, b) if mask >> i & 1 else (b, a) for i, (a, b) in enumerate(edges)]
        indeg = {v: 0 for v in g.vertex_ids}
        out = {v: [] for v in g.vertex_ids}
        for a, b in arcs:
            indeg[b] += 1
            out[a].append(b)
        if [v for v, k in indeg.items() if k == 0] != [q]:
            continue
        ready, seen = [q], 0
        while ready:
            v = ready.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        count += seen == len(indeg)
    return count


class TestThetaOracle:
    def test_complement_counts_acyclic_orientations(self):
        # The non-special classes of degree g-1 are the classes of nu_O - q
        # for the acyclic orientations O with unique source q (Baker-Norine
        # 2007), and c is outside Theta exactly when c + (g-1)q is one.
        for g in catalogue():
            n_pic = len(enumerate_picard(g, 0))
            n_theta = len(theta_divisor(g))
            assert n_pic - n_theta == acyclic_orientations_with_unique_source(g, g.base_head)


class TestClassification:
    def test_wrong_degree_rejected(self, K):
        with pytest.raises(WrongDegree):
            classify_gminus1(K, Divisor(K, {"w1": 1}))

    def test_examples(self, K):
        assert classify_gminus1(K, Divisor(K, {"w3": 1, "w4": 1})) is Classification.SPECIAL
        assert classify_gminus1(K, Divisor(K, {"w1": 2})) is Classification.SPECIAL
        assert (
            classify_gminus1(K, Divisor(K, {"w1": -2, "w2": 1, "w3": 2, "w4": 1}))
            is Classification.NONSPECIAL
        )

    def test_agrees_with_effectiveness(self, J):
        g = J.genus
        shift = (g - 1) * vertex_divisor(J, J.base_head)
        for c in enumerate_picard(J, 0):
            d = c.representative + shift
            expected = (
                Classification.SPECIAL
                if is_effective_class(J, d)
                else Classification.NONSPECIAL
            )
            assert classify_gminus1(J, d) is expected


class TestEffectiveness:
    def test_degree_at_least_genus_always_effective(self, K):
        g = K.genus
        for c in enumerate_picard(K, g):
            assert is_effective_class(K, c.representative)

    def test_negative_degree_never_effective(self, K):
        assert not is_effective_class(K, Divisor(K, {"w1": -1}))

    def test_all_vertices_divisor(self, G):
        assert all_vertices_divisor(G) == Divisor(G, {v: 1 for v in G.vertex_ids})
        assert is_effective_class(G, all_vertices_divisor(G))


def test_divisor_submodule_is_not_shadowed():
    import rigidlift.divisor as d

    assert isinstance(d, types.ModuleType) and d.Divisor is Divisor
