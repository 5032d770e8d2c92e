"""Differential tests: the coefficient-tuple Divisor, the superstable
enumeration and the indexed q_reduce against the divisor layer as first
written (tests/reference_divisor.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_divisor as ref
from helpers import catalogue, cycle_plus_chords

from rigidlift import divisor as divisor_module
from rigidlift.divisor import Divisor, dhar_burn_order, enumerate_picard, q_reduce, theta_divisor
from rigidlift.errors import EnumerationBoundExceeded, ValidationError
from rigidlift.multigraph import spanning_tree_count


@st.composite
def graphs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(catalogue()))
    n = draw(st.integers(3, 7))
    return cycle_plus_chords(n, draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))


def representatives(classes):
    return {c.representative for c in classes}


def coefficient_dicts(g):
    """Vertex -> coefficient dicts with zeros and omitted vertices."""
    return st.dictionaries(st.sampled_from(g.vertex_ids), st.integers(-6, 6))


def assert_same(d, old):
    """d (a Divisor) reads exactly as old (a DictDivisor)."""
    g = d.graph
    assert d.items() == old.items()
    assert (d.degree, d.is_effective, repr(d)) == (old.degree, old.is_effective, repr(old))
    for v in g.vertex_ids + ("not-a-vertex", 10**9):
        assert d[v] == old[v]


def assert_canonical(d):
    """d, however it was built, equals and hashes as its public rebuild."""
    rebuilt = Divisor(d.graph, dict(d.items()))
    assert d == rebuilt and hash(d) == hash(rebuilt)
    assert_same(d, ref.DictDivisor(d.graph, dict(d.items())))


@settings(max_examples=300, deadline=None)
@given(g=graphs(), data=st.data())
def test_divisor_matches_dict_reference(g, data):
    a, b = data.draw(coefficient_dicts(g)), data.draw(coefficient_dicts(g))
    k = data.draw(st.integers(-3, 3))
    da, db = Divisor(g, a), Divisor(g, b)
    oa, ob = ref.DictDivisor(g, a), ref.DictDivisor(g, b)
    assert_same(da, oa)
    assert_same(da + db, oa + ob)
    assert_same(da - db, oa - ob)
    assert_same(-da, -oa)
    assert_same(k * da, k * oa)
    assert (da == db) == (oa == ob)
    assert_canonical(da)
    assert_canonical(da - db)
    assert da + db - db == da and hash(da + db - db) == hash(da)
    with pytest.raises(ValidationError):
        Divisor(g, {**a, "not-a-vertex": 1})
    with pytest.raises(ValidationError):
        ref.DictDivisor(g, {**a, "not-a-vertex": 1})


@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data())
def test_reduced_and_enumerated_divisors_are_canonical(g, data):
    d = Divisor(g, data.draw(coefficient_dicts(g)))
    assert_canonical(q_reduce(g, d, data.draw(st.sampled_from(g.vertex_ids))))
    for c in enumerate_picard(g, data.draw(st.sampled_from((0, 1, g.genus - 1)))):
        assert_canonical(c.representative)


@settings(max_examples=300, deadline=None)
@given(g=graphs(), data=st.data())
def test_q_reduce_matches_reference(g, data):
    coeffs = data.draw(st.lists(st.integers(-8, 8), min_size=len(g.vertices), max_size=len(g.vertices)))
    d = Divisor(g, dict(zip(g.vertex_ids, coeffs)))
    q = data.draw(st.sampled_from(g.vertex_ids))
    reduced = q_reduce(g, d, q)
    assert reduced == ref.q_reduce(g, d, q)
    assert dhar_burn_order(g, reduced, q) == ref.dhar_burn_order(g, reduced, q)


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data())
def test_picard_matches_reference(g, data):
    degree = data.draw(st.sampled_from((0, 1, g.genus - 1, -2, -g.genus - 1)))
    assert representatives(enumerate_picard(g, degree)) == ref.enumerate_picard(g, degree, 10**6)


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data())
def test_theta_matches_reference(g, data):
    base = data.draw(st.sampled_from((g.base_edge,) + g.edge_ids))
    assert representatives(theta_divisor(g, base)) == ref.theta_divisor(g, base, 10**6)


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data())
def test_bound_raises_exactly_when_reference_does(g, data):
    tau = spanning_tree_count(g)
    bound = data.draw(st.integers(tau - 3, tau + 1))
    if tau > bound:
        with pytest.raises(EnumerationBoundExceeded):
            ref.enumerate_picard(g, 0, bound)
        with pytest.raises(EnumerationBoundExceeded):
            enumerate_picard(g, 0, bound)
    else:
        assert len(ref.enumerate_picard(g, 0, bound)) == tau
        assert len(enumerate_picard(g, 0, bound)) == tau


def test_enumeration_and_theta_run_no_q_reduce(monkeypatch):
    g = cycle_plus_chords(6, 4, 11)
    expected = ref.theta_divisor(g, g.base_edge, 10**6)

    def forbidden(*args):
        raise AssertionError("q_reduce called")

    monkeypatch.setattr(divisor_module, "q_reduce", forbidden)
    assert len(enumerate_picard(g, 3)) == spanning_tree_count(g)
    assert representatives(theta_divisor(g)) == expected
