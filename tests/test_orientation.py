import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlift.divisor import (
    Classification,
    Divisor,
    canonical_divisor,
    classify_gminus1,
    is_effective_class,
    linearly_equivalent,
    q_reduce,
    vertex_divisor,
)
from rigidlift.errors import (
    BiorientedPresent,
    DegreeMismatch,
    DegreeTooHigh,
    EnumerationBoundExceeded,
    InvalidMove,
    QIsEffective,
)
from rigidlift.multigraph import build_graph
from rigidlift.orientation import (
    AcyclicWitness,
    EdgeState,
    NotPartiallyOrientable,
    PartialOrientation,
    SourcelessWitness,
    _effective_representatives,
    apply_move,
    base_orientation,
    chern_class,
    complete_acyclically,
    cut_reversal,
    cycle_reversal,
    dual_orientation,
    edge_slide,
    effectiveness_certificate,
    extend_to_nonspecial,
    is_acyclic,
    is_sourceless,
    lift_divisor_to_orientation,
    orientation_from_order,
    torsor_act,
)


def degree_zero_divisors(g, lo=-2, hi=2):
    verts = g.vertex_ids

    def build(coeffs):
        coeffs = list(coeffs)
        coeffs[-1] -= sum(coeffs)
        return Divisor(g, dict(zip(verts, coeffs)))

    return st.lists(
        st.integers(min_value=lo, max_value=hi),
        min_size=len(verts),
        max_size=len(verts),
    ).map(build)


class TestChernClass:
    def test_reference_orientations(self, G, H, J, K):
        assert chern_class(base_orientation(G)) == Divisor(G, {"v3": 1, "v4": 1})
        assert chern_class(base_orientation(H)) == Divisor(H, {"w2": 1, "w5": 1})
        assert chern_class(base_orientation(J)) == Divisor(
            J, {"v1": -1, "v3": 1, "v4": 2}
        )
        assert chern_class(base_orientation(K)) == Divisor(K, {"w3": 1, "w4": 1})

    def test_degree_counts_oriented_edges(self, K):
        u = base_orientation(K).with_states(
            {"r2": EdgeState.UNORIENTED, "r5": EdgeState.UNORIENTED}
        )
        assert chern_class(u).degree == (len(K.edge_ids) - 2) - len(K.vertices)

    def test_bioriented_rejected_by_default(self, K):
        u = base_orientation(K).with_states({"r1": EdgeState.BIORIENTED})
        with pytest.raises(BiorientedPresent):
            chern_class(u)
        assert chern_class(u, allow_bioriented=True).degree == len(
            K.edge_ids
        ) - len(K.vertices) + 1

    def test_duality_identity(self, G, K):
        for g in (G, K):
            u = base_orientation(g).with_states(
                {g.edge_ids[1]: EdgeState.UNORIENTED}
            )
            dual = dual_orientation(u)
            assert chern_class(dual, allow_bioriented=True) == canonical_divisor(
                g
            ) - chern_class(u)
            assert dual_orientation(dual) == u


class TestMoves:
    def test_cycle_reversal_preserves_divisor(self, four_cycle):
        u = base_orientation(four_cycle)
        u2 = apply_move(u, cycle_reversal({"e1", "e2", "e3", "e4"}))
        assert chern_class(u2) == chern_class(u)
        assert all(u2.state(e) is EdgeState.BACKWARD for e in four_cycle.edge_ids)

    def test_inconsistent_cycle_rejected(self, four_cycle):
        u = base_orientation(four_cycle).with_states({"e2": EdgeState.BACKWARD})
        with pytest.raises(InvalidMove):
            apply_move(u, cycle_reversal({"e1", "e2", "e3", "e4"}))

    def test_cut_reversal_preserves_class(self, K):
        u = orientation_from_order(K, ["w1", "w2", "w3", "w4"])
        u2 = apply_move(u, cut_reversal({"r1", "r5", "r6"}))
        assert chern_class(u2) != chern_class(u)
        assert linearly_equivalent(K, chern_class(u2), chern_class(u))

    def test_non_cut_payload_rejected(self, K):
        u = orientation_from_order(K, ["w1", "w2", "w3", "w4"])
        with pytest.raises(InvalidMove):
            apply_move(u, cut_reversal({"r1"}))

    def test_edge_slide_preserves_divisor(self, K):
        u = base_orientation(K).with_states({"r2": EdgeState.UNORIENTED})
        # r4 is oriented toward w3 and r2 touches w3.
        u2 = apply_move(u, edge_slide("r4", "r2", "w3"))
        assert chern_class(u2) == chern_class(u)
        assert u2.state("r4") is EdgeState.UNORIENTED
        assert u2.state("r2") is not EdgeState.UNORIENTED

    def test_edge_slide_requires_unoriented_target(self, K):
        u = base_orientation(K)
        with pytest.raises(InvalidMove):
            apply_move(u, edge_slide("r4", "r2", "w3"))


class TestTorsorAction:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_chern_shift(self, G, data):
        d = data.draw(degree_zero_divisors(G))
        u = base_orientation(G)
        acted = torsor_act(G, d, u)
        assert linearly_equivalent(G, chern_class(acted), chern_class(u) + d)

    def test_zero_action_is_identity_on_class(self, K):
        u = base_orientation(K)
        assert chern_class(torsor_act(K, Divisor(K), u)) == chern_class(u)

    def test_inverse_actions_cancel(self, H):
        u = base_orientation(H)
        d = vertex_divisor(H, "w1") - vertex_divisor(H, "w4")
        v = torsor_act(H, -d, torsor_act(H, d, u))
        assert linearly_equivalent(H, chern_class(v), chern_class(u))

    def test_degree_mismatch_rejected(self, K):
        with pytest.raises(DegreeMismatch):
            torsor_act(K, vertex_divisor(K, "w1"), base_orientation(K))


class TestLiftDivisor:
    def test_reference_class_lifts_to_itself(self, G):
        u = lift_divisor_to_orientation(G, chern_class(base_orientation(G)))
        assert isinstance(u, PartialOrientation)
        assert u.is_full
        assert linearly_equivalent(G, chern_class(u), chern_class(base_orientation(G)))

    def test_full_lift_of_arbitrary_class(self, K):
        d = Divisor(K, {"w1": 2})
        u = lift_divisor_to_orientation(K, d)
        assert isinstance(u, PartialOrientation)
        assert linearly_equivalent(K, chern_class(u), d)

    def test_lift_with_unoriented_set(self, K):
        x = frozenset({"r2", "r3", "r5"})
        d = Divisor(K, {"w1": -1})
        u = lift_divisor_to_orientation(K, d, x)
        assert isinstance(u, PartialOrientation)
        assert u.unoriented_set == x
        assert linearly_equivalent(K, chern_class(u), d)

    def test_degree_mismatch_rejected(self, K):
        with pytest.raises(DegreeMismatch):
            lift_divisor_to_orientation(K, Divisor(K, {"w1": 1}))

    def test_certificate_when_class_not_orientable(self, K):
        x = frozenset({"r2", "r3", "r5", "r6"})
        d = Divisor(K, {"w1": -3, "w3": 1})
        res = lift_divisor_to_orientation(K, d, x)
        assert isinstance(res, NotPartiallyOrientable)
        assert not res.class_orientable
        assert not is_effective_class(K, res.test_divisor)
        assert res.reduced_form == q_reduce(K, res.test_divisor, K.base_head)

    def test_certificate_when_exact_set_unreachable(self, K):
        # The class is realisable with a different 4-edge unoriented set,
        # but not with this one: both orientable edges touch w2.
        x = frozenset({"r2", "r3", "r5", "r6"})
        d = Divisor(K, {"w2": -2})
        res = lift_divisor_to_orientation(K, d, x)
        assert isinstance(res, NotPartiallyOrientable)
        assert res.class_orientable
        assert is_effective_class(K, res.test_divisor)
        # Same class, unoriented set moved off w2's edges: lift succeeds.
        alt = lift_divisor_to_orientation(
            K, Divisor(K, {"w2": -2}) , frozenset({"r1", "r3", "r5", "r6"})
        )
        assert isinstance(alt, PartialOrientation)

    def test_high_degree_always_succeeds(self, J):
        # Degree at least genus - |V| guarantees orientability.
        for d in (
            Divisor(J, {"v1": 2}),
            Divisor(J, {"v2": 1, "v3": 1}),
            Divisor(J, {"v1": -1, "v4": 3}),
        ):
            assert d.degree >= J.genus - len(J.vertices)
            res = lift_divisor_to_orientation(J, d)
            assert isinstance(res, PartialOrientation)


class TestEffectivenessCertificate:
    def test_sourceless_branch(self, K):
        q = Divisor(K, {"w3": 1, "w4": 1})
        w = effectiveness_certificate(K, q)
        assert isinstance(w, SourcelessWitness)
        assert is_sourceless(w.orientation)
        assert chern_class(w.orientation) == w.effective_divisor
        assert linearly_equivalent(K, w.effective_divisor, q)

    def test_acyclic_branch(self, K):
        q = Divisor(K, {"w1": -2, "w2": 1, "w3": 2, "w4": 1})
        assert not is_effective_class(K, q)
        w = effectiveness_certificate(K, q)
        assert isinstance(w, AcyclicWitness)
        assert is_acyclic(w.orientation)
        c = chern_class(w.orientation)
        assert all(c[v] >= w.dominated_divisor[v] for v in K.vertex_ids)
        assert linearly_equivalent(K, w.dominated_divisor, q)

    def test_degree_too_high_rejected(self, K):
        with pytest.raises(DegreeTooHigh):
            effectiveness_certificate(K, Divisor(K, {"w1": K.genus}))

    def test_branch_agrees_with_effectiveness_exhaustively(self, J):
        from rigidlift.divisor import enumerate_picard

        shift = vertex_divisor(J, J.base_head)
        for deg in (0, 1, 2):
            for c in enumerate_picard(J, deg):
                q = c.representative
                w = effectiveness_certificate(J, q)
                if is_effective_class(J, q):
                    assert isinstance(w, SourcelessWitness)
                else:
                    assert isinstance(w, AcyclicWitness)

    def test_sourceless_search_reduces_each_candidate_once(self, monkeypatch):
        """One q-reduction for the class, then one per candidate tried."""
        from helpers import cycle_plus_chords

        from rigidlift import divisor as divisor_module
        from rigidlift import orientation as orientation_module
        from rigidlift.divisor import enumerate_picard

        inputs = []

        def counting(g, d, q):
            inputs.append(d)
            return q_reduce(g, d, q)

        monkeypatch.setattr(orientation_module, "q_reduce", counting)
        monkeypatch.setattr(divisor_module, "q_reduce", counting)
        worst = 0
        for seed in range(30):
            g = cycle_plus_chords(7, 3, seed)
            for c in enumerate_picard(g, g.genus - 1):
                if not c.is_effective:
                    continue
                inputs.clear()
                w = effectiveness_certificate(g, c.representative)
                assert isinstance(w, SourcelessWitness)
                assert inputs[0] == c.representative
                candidates = inputs[1:]
                assert len(set(candidates)) == len(candidates)
                assert c.representative not in candidates
                assert all(d.is_effective and d.degree == g.genus - 1 for d in candidates)
                worst = max(worst, len(inputs))
        assert worst > 1

    def test_representatives_need_no_recursion(self):
        n = 1200
        g = build_graph([(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)], "e0")
        zero = Divisor(g)
        assert list(_effective_representatives(g, zero)) == [zero]

    def test_representatives_in_the_order_of_the_recursive_generator(self):
        from helpers import catalogue

        longest = 0
        for g in catalogue():
            for deg in range(g.genus):
                reduced = q_reduce(g, vertex_divisor(g, g.base_tail, deg), g.base_head)
                candidates = list(_effective_representatives(g, reduced))
                assert candidates == list(_recursive_representatives(g, reduced))
                longest = max(longest, len(candidates))
        assert longest > 2


def _recursive_representatives(g, reduced):
    """_effective_representatives as first written: compositions of the
    degree by a recursive generator, one level per vertex."""
    q0 = g.base_head
    yield reduced
    verts = g.vertex_ids

    def gen(idx, remaining, acc):
        if idx == len(verts) - 1:
            yield acc + [remaining]
            return
        for c in range(remaining + 1):
            yield from gen(idx + 1, remaining - c, acc + [c])

    for coeffs in gen(0, reduced.degree, []):
        d = Divisor(g, dict(zip(verts, coeffs)))
        if d != reduced and q_reduce(g, d, q0) == reduced:
            yield d


class TestNonspecialExtension:
    def test_effective_input_rejected(self, K):
        with pytest.raises(QIsEffective):
            extend_to_nonspecial(K, Divisor(K, {"w1": 1}))

    def test_extension_lands_nonspecial(self, K):
        q = vertex_divisor(K, "w1") - vertex_divisor(K, "w2")
        t = extend_to_nonspecial(K, q)
        assert t.is_effective
        total = q + t
        assert total.degree == K.genus - 1
        assert classify_gminus1(K, total) is Classification.NONSPECIAL

    def test_all_ineffective_degree_zero_classes(self, J):
        from rigidlift.divisor import enumerate_picard

        for c in enumerate_picard(J, 0):
            if c.is_zero:
                continue
            q = c.representative
            t = extend_to_nonspecial(J, q)
            assert t.is_effective
            assert classify_gminus1(J, q + t) is Classification.NONSPECIAL


class TestCompleteAcyclically:
    def test_preserves_arcs_and_acyclicity(self, K):
        q = Divisor(K, {"w1": -2, "w2": 1, "w3": 2, "w4": 1})
        w = effectiveness_certificate(K, q)
        full = complete_acyclically(K, w.orientation)
        assert full.is_full
        assert is_acyclic(full)
        for tail, head, e in w.orientation.arcs():
            assert full.head(e) == head

    def test_cyclic_input_rejected(self, four_cycle):
        with pytest.raises(InvalidMove):
            complete_acyclically(four_cycle, base_orientation(four_cycle))


def _has_directed_cycle(u):
    """Oracle: some vertex reaches itself along one or more arcs."""
    succ = {v: set() for v in u.graph.vertices}
    for tail, head, _ in u.arcs():
        succ[tail].add(head)
    for v in u.graph.vertices:
        seen, stack = set(), list(succ[v])
        while stack:
            w = stack.pop()
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.extend(succ[w])
    return False


class TestIsAcyclic:
    def test_bioriented_edge_is_a_two_cycle(self, K):
        lone = PartialOrientation(K, {"r1": EdgeState.FORWARD})
        assert is_acyclic(lone)
        assert not is_acyclic(lone.with_states({"r1": EdgeState.BIORIENTED}))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reachability_oracle(self, G, K, data):
        g = data.draw(st.sampled_from([G, K]))
        states = {e: data.draw(st.sampled_from(list(EdgeState))) for e in g.edge_ids}
        u = PartialOrientation(g, states)
        assert is_acyclic(u) == (not _has_directed_cycle(u))


class TestSourcelessAcyclicDichotomy:
    def test_degree_gminus1_dichotomy(self, K):
        from rigidlift.divisor import enumerate_picard

        for c in enumerate_picard(K, K.genus - 1):
            q = c.representative
            w = effectiveness_certificate(K, q)
            special = classify_gminus1(K, q) is Classification.SPECIAL
            assert isinstance(w, SourcelessWitness) == special
            assert isinstance(w, AcyclicWitness) == (not special)


class TestSearchBudget:
    """Both exhaustive scans answer as before within MAX_CANDIDATES and
    raise EnumerationBoundExceeded(MAX, MAX + 1) on reaching candidate MAX + 1."""

    def _bound(self, monkeypatch, bound):
        monkeypatch.setattr(sys.modules["rigidlift.orientation"], "MAX_CANDIDATES", bound)

    def test_orientation_scan_stops_past_its_bound(self, monkeypatch):
        from helpers import cycle_plus_chords

        # No orientation of the 11 edges off X fits, so a bound below 2^11 refuses the search.
        g = cycle_plus_chords(8, 5, 1)
        x, d = frozenset({"c0", "c9"}), Divisor(g, {"y0": 3})
        expected = lift_divisor_to_orientation(g, d, x)
        assert isinstance(expected, NotPartiallyOrientable) and expected.class_orientable
        tried = 2 ** (len(g.edge_ids) - len(x))
        self._bound(monkeypatch, tried)
        assert lift_divisor_to_orientation(g, d, x) == expected
        for bound in (tried - 1, 100):
            self._bound(monkeypatch, bound)
            with pytest.raises(EnumerationBoundExceeded) as exc:
                lift_divisor_to_orientation(g, d, x)
            assert (exc.value.limit, exc.value.reached) == (bound, bound + 1)

    def test_orientation_scan_meets_in_the_middle(self, monkeypatch):
        """2^b reductions of the heads of the last b free edges, one for
        each choice of the others within the budget, and one of d + sum(v):
        at most 2^5 + 2^6 + 1 for the 11 free edges above, where a product
        scan makes 2,050, and 2^8 + 2^8 + 1 for 2^17 candidates at the
        default budget, where it makes 65,538."""
        from helpers import cycle_plus_chords, seventeen_free_edges

        # Every call of divisor.q_reduce, through divisor's binding
        # (DivisorClass) or orientation's.
        calls = []

        def counted(*args):
            calls.append(args)
            return q_reduce(*args)

        for name in ("rigidlift.divisor", "rigidlift.orientation"):
            monkeypatch.setattr(sys.modules[name], "q_reduce", counted)
        g = cycle_plus_chords(8, 5, 1)
        result = lift_divisor_to_orientation(g, Divisor(g, {"y0": 3}), frozenset({"c0", "c9"}))
        assert isinstance(result, NotPartiallyOrientable) and result.class_orientable
        assert len(calls) <= 2**5 + 2**6 + 1
        for seed in range(8):
            del calls[:]
            g, d, x = seventeen_free_edges(seed)
            if seed in (0, 2):  # the first fit is within the budget
                assert isinstance(lift_divisor_to_orientation(g, d, x), PartialOrientation)
            else:
                with pytest.raises(EnumerationBoundExceeded) as exc:
                    lift_divisor_to_orientation(g, d, x)
                assert (exc.value.limit, exc.value.reached) == (2**16, 2**16 + 1)
            assert len(calls) <= 2**8 + 2**8 + 1

    def test_sourceless_scan_stops_past_its_bound(self, monkeypatch):
        from helpers import cycle_plus_chords

        # The class whose sourceless witness is the 81st composition tried.
        g = cycle_plus_chords(7, 3, 0)
        q = Divisor(g, {"y1": 1, "y2": 2})
        expected = effectiveness_certificate(g, q)
        assert isinstance(expected, SourcelessWitness)
        self._bound(monkeypatch, 81)
        assert effectiveness_certificate(g, q) == expected
        for bound in (80, 10):
            self._bound(monkeypatch, bound)
            with pytest.raises(EnumerationBoundExceeded) as exc:
                effectiveness_certificate(g, q)
            assert (exc.value.limit, exc.value.reached) == (bound, bound + 1)
