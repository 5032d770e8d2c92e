"""Differential tests: the torsor action, the in-degree flow and the lift
with an unoriented set against the searches as first written
(tests/reference_orientation.py), and the meet-in-the-middle lift against
the product scan at a sweep of candidate budgets.  The outputs are compared
byte for byte as orientation strings, so the order in which the one
path-reversal search takes edges is pinned, on the catalogue, random
multigraphs, chorded cycles and copies of them with mixed string and
integer ids."""

import random
import sys
from functools import lru_cache

import reference_orientation as ref
import test_multigraph
from helpers import catalogue, cycle_plus_chords, random_multigraph, seventeen_free_edges

from rigidlift.divisor import Divisor, q_reduce
from rigidlift.errors import EnumerationBoundExceeded
from rigidlift.graphio import format_orientation
from rigidlift.orientation import (
    MAX_CANDIDATES,
    EdgeState,
    NotPartiallyOrientable,
    PartialOrientation,
    SourcelessWitness,
    _effective_representatives,
    _orient_with_indegrees,
    base_orientation,
    chern_class,
    effectiveness_certificate,
    lift_divisor_to_orientation,
    torsor_act,
)

_STATES = (EdgeState.FORWARD, EdgeState.BACKWARD, EdgeState.UNORIENTED)


@lru_cache(maxsize=None)
def _graphs():
    rng = random.Random(19)
    mixed = test_multigraph.TestIdOrder.mixed_ids
    graphs = list(catalogue())
    graphs += [random_multigraph(rng) for _ in range(80)]
    graphs += [cycle_plus_chords(n, c, seed) for n in range(3, 13) for c in (1, n // 2) for seed in (0, 1)]
    graphs += [mixed(g, rng) for g in graphs]
    return tuple(graphs)


def _show(u):
    return format_orientation(u) if isinstance(u, PartialOrientation) else u


def _random_orientation(g, rng, states=_STATES[:2]):
    return PartialOrientation(g, {e: rng.choice(states) for e in g.edge_ids})


def _degree_zero(g, rng):
    coeffs = [rng.randint(-2, 2) for _ in g.vertex_ids]
    coeffs[-1] -= sum(coeffs)
    return Divisor(g, dict(zip(g.vertex_ids, coeffs)))


def test_graph_set_has_mixed_ids():
    graphs = _graphs()
    assert len(graphs) == 458
    assert any({type(v) for v in g.vertices} == {int, str} for g in graphs)


def test_torsor_action_matches_reference():
    rng = random.Random(0)
    cases = 0
    for g in _graphs():
        for u in (base_orientation(g), _random_orientation(g, rng)):
            for _ in range(3):
                d = _degree_zero(g, rng)
                assert format_orientation(torsor_act(g, d, u)) == format_orientation(ref.torsor_act(g, d, u))
                cases += 1
    assert cases == 2748


def test_full_lift_matches_reference():
    rng = random.Random(1)
    for g in _graphs():
        gamma = base_orientation(g)
        for _ in range(2):
            d = chern_class(_random_orientation(g, rng)) + _degree_zero(g, rng)
            expected = ref.torsor_act(g, d - chern_class(gamma), gamma)
            assert _show(lift_divisor_to_orientation(g, d)) == format_orientation(expected)


def test_indegree_flow_matches_reference():
    rng = random.Random(2)
    found = missed = 0
    for g in _graphs():
        for _ in range(4):
            indeg = dict.fromkeys(g.vertex_ids, 0)
            for _, head, _ in _random_orientation(g, rng, _STATES).arcs():
                indeg[head] += 1
            # Shift demand between two vertices: sometimes still realisable.
            a, b = rng.sample(g.vertex_ids, 2)
            k = rng.randint(0, 2)
            indeg[a] += k
            indeg[b] -= k
            got, expected = _orient_with_indegrees(g, indeg), ref.orient_with_indegrees(g, indeg)
            assert _show(got) == _show(expected)
            found += got is not None
            missed += got is None
    assert (found, missed) == (1133, 699)


def test_sourceless_certificate_matches_reference():
    rng = random.Random(3)
    for g in catalogue():
        chips = [rng.choice(g.vertex_ids) for _ in range(rng.randint(0, g.genus - 1))]
        q = Divisor(g, {v: chips.count(v) for v in chips})
        w = effectiveness_certificate(g, q)
        assert isinstance(w, SourcelessWitness)
        for b in _effective_representatives(g, q_reduce(g, q, g.base_head)):
            expected = ref.orient_with_indegrees(g, {v: b[v] + 1 for v in g.vertex_ids})
            if expected is not None:
                break
        assert format_orientation(w.orientation) == format_orientation(expected)


def test_lift_with_unoriented_set_matches_reference():
    rng = random.Random(4)
    lifted = refused = 0
    for g in _graphs():
        edges = list(g.edge_ids)
        for _ in range(2):
            size = rng.randint(max(1, len(edges) - 8), len(edges) - 1)
            x = frozenset(rng.sample(edges, size))
            # A class realisable with some unoriented set of the same size,
            # so only the search can refuse it.
            other = frozenset(rng.sample(edges, size))
            u = PartialOrientation(g, {e: rng.choice(_STATES[:2]) for e in edges if e not in other})
            d = chern_class(u)
            got = lift_divisor_to_orientation(g, d, x)
            expected = ref.lift_with_unoriented_set(g, d, x)
            if expected is None:
                assert isinstance(got, NotPartiallyOrientable) and got.class_orientable
                refused += 1
            else:
                assert format_orientation(got) == format_orientation(expected)
                lifted += 1
    assert (lifted, refused) == (611, 305)


def _outcome(lift):
    """The orientation string or certificate a lift returns, or the
    (limit, reached) of the EnumerationBoundExceeded it raises."""
    try:
        return _show(lift())
    except EnumerationBoundExceeded as exc:
        return exc.limit, exc.reached


def _budget_sweep(monkeypatch, g, d, x):
    """The library lift equals the product scan's answer or error with
    MAX_CANDIDATES at 1, the scan's first fit - 1 and first fit, 2^m - 1,
    2^m and the default; returns the first fit, or None."""
    m, fits = len(g.edge_ids) - len(x), {}
    _, first = ref.lift_by_product_scan(g, d, x, 2**m, fits)
    budgets = {1, 2**m - 1, 2**m, MAX_CANDIDATES}
    if first is not None:
        budgets |= {first - 1, first}
    for bound in sorted(budgets):
        monkeypatch.setattr(sys.modules["rigidlift.orientation"], "MAX_CANDIDATES", bound)
        expected = _outcome(lambda: ref.lift_by_product_scan(g, d, x, bound, fits)[0])
        assert _outcome(lambda: lift_divisor_to_orientation(g, d, x)) == expected
    return first


def test_lift_budget_sweep_matches_product_scan(monkeypatch):
    rng = random.Random(5)
    firsts = []
    for g in _graphs():
        edges = list(g.edge_ids)
        x = frozenset(rng.sample(edges, rng.randint(max(1, len(edges) - 8), len(edges) - 1)))
        other = frozenset(rng.sample(edges, len(x)))
        u = PartialOrientation(g, {e: rng.choice(_STATES[:2]) for e in edges if e not in other})
        firsts.append(_budget_sweep(monkeypatch, g, chern_class(u), x))
    fits = [k for k in firsts if k is not None]
    assert (len(fits), sum(k > 1 for k in fits), max(fits)) == (308, 239, 107)


def test_lift_budget_sweep_on_seventeen_free_edges(monkeypatch):
    firsts = [_budget_sweep(monkeypatch, *seventeen_free_edges(seed)) for seed in (1, 2)]
    assert firsts == [None, 10493]
