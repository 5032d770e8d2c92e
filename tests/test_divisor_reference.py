"""Differential tests: the coefficient-tuple Divisor, the superstable
enumeration and the indexed q_reduce against the divisor layer as first
written (tests/reference_divisor.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_divisor as ref
from helpers import catalogue, cycle_plus_chords

from rigidlift import divisor as divisor_module
from rigidlift.divisor import (
    Divisor,
    dhar_burn_order,
    enumerate_picard,
    in_theta,
    q_reduce,
    theta_divisor,
)
from rigidlift.errors import EnumerationBoundExceeded, ValidationError
from rigidlift.multigraph import build_graph, spanning_tree_count


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
    g = g.with_base(base)
    assert representatives(theta_divisor(g)) == ref.theta_divisor(g, base, 10**6)


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data())
def test_in_theta_matches_reference(g, data):
    base = data.draw(st.sampled_from((g.base_edge,) + g.edge_ids))
    g = g.with_base(base)
    expected = ref.theta_divisor(g, base, 10**6)
    for c in enumerate_picard(g, 0):
        assert in_theta(g, c) == (c.representative in expected)
    assert not any(in_theta(g, c) for c in enumerate_picard(g, data.draw(st.sampled_from((-1, 1)))))


def clear_caches():
    """Forget every cached search and core."""
    for cache in (divisor_module._search, divisor_module._core):
        cache.cache_clear()


def bound_error(f, *args):
    """(limit, reached) of the EnumerationBoundExceeded that f(*args) raises,
    or None if it returns."""
    try:
        f(*args)
    except EnumerationBoundExceeded as err:
        return err.limit, err.reached
    return None


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
    assert bound_error(enumerate_picard, g, 0, bound) == bound_error(ref.enumerate_picard, g, 0, bound)
    base = data.draw(st.sampled_from((g.base_edge,) + g.edge_ids))
    g = g.with_base(base)
    expected = bound_error(ref.theta_divisor, g, base, bound)
    assert (expected is not None) == (tau > bound)
    assert bound_error(theta_divisor, g, bound) == expected


@pytest.mark.parametrize("bound", [-1, 0, 1, 2])
def test_tiny_bounds_raise_as_the_reference_does(bound):
    # The zero class is not counted against the bound: every bound below 2
    # raises at the second class found.
    for g in (catalogue()[0], cycle_plus_chords(3, 1, 5)):
        expected = bound_error(ref.enumerate_picard, g, 0, bound)
        assert expected is not None
        assert bound_error(enumerate_picard, g, 0, bound) == expected
        theta_expected = bound_error(ref.theta_divisor, g, g.base_edge, bound)
        assert bound_error(theta_divisor, g, bound) == theta_expected


def test_bounds_hold_on_a_cache_hit():
    """Once Pic^0 of g is cached, a bound of tau - 1 still raises, with the
    limit and reached count of a search that stops at its tau-th class."""
    for g in (catalogue()[0], cycle_plus_chords(3, 1, 5), LADDER["W5"], LADDER["cc8+3"]):
        tau = spanning_tree_count(g)
        assert len(enumerate_picard(g, 0)) == tau and len(theta_divisor(g)) > 0
        assert bound_error(enumerate_picard, g, 0, tau - 1) == (tau - 1, tau)
        assert bound_error(enumerate_picard, g, 1, tau - 1) == (tau - 1, tau)
        assert bound_error(theta_divisor, g, tau - 1) == (tau - 1, tau)
        rebased = g.with_base(g.edge_ids[-1])
        assert len(theta_divisor(rebased)) > 0
        assert bound_error(theta_divisor, rebased, tau - 1) == (tau - 1, tau)
        assert bound_error(ref.enumerate_picard, g, 0, tau - 1) == (tau - 1, tau)


def test_enumeration_and_theta_run_no_q_reduce(monkeypatch):
    g = cycle_plus_chords(6, 4, 11)
    expected = ref.theta_divisor(g, g.base_edge, 10**6)

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} called")

        return call

    monkeypatch.setattr(divisor_module, "q_reduce", forbidden("q_reduce"))
    assert len(enumerate_picard(g, 3)) == spanning_tree_count(g)
    # Theta at the default base is its own search: no Pic^0 enumeration.
    monkeypatch.setattr(divisor_module, "enumerate_picard", forbidden("enumerate_picard"))
    clear_caches()
    assert representatives(theta_divisor(g)) == expected


# -- a deterministic ladder beyond the hypothesis graphs ----------------------


def wheel_triples(n):
    """A hub joined to an n-cycle; the spoke s0 is the base."""
    triples = [(f"s{i}", "hub", f"r{i}") for i in range(n)]
    return triples + [(f"c{i}", f"r{i}", f"r{(i + 1) % n}") for i in range(n)]


def wheel(n):
    return build_graph(wheel_triples(n), "s0")


def thickened(g, copies):
    """g with `copies` more edges parallel to its first edge."""
    triples = [(e, *g.ends(e)) for e in g.edge_ids]
    triples += [(f"p{k}", *g.ends(g.edge_ids[0])) for k in range(copies)]
    return build_graph(triples, g.base_edge)


LADDER = {
    **{f"W{n}": wheel(n) for n in range(3, 9)},
    **{f"cc{n}+{k}": cycle_plus_chords(n, k, 100 + n) for n, k in ((4, 1), (6, 2), (8, 3), (10, 3), (12, 3))},
    "banana4": build_graph([(f"b{k}", "x", "y") for k in range(4)], "b0"),
    **{f"cc{n}+2 x{k + 1}": thickened(cycle_plus_chords(n, 2, 200 + n), k) for n, k in ((4, 2), (6, 3), (8, 2))},
}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_picard_and_theta_ladder_match_reference(name):
    """Pic^d at degrees 0, 1, g - 1 and -2, and Theta at every base edge.

    A class has exactly one representative reduced at q = t(base), and Pic^d
    has spanning_tree_count(g) classes, so the enumeration is all of Pic^d
    (as ref.enumerate_picard would list it) when it returns that many
    distinct divisors of degree d that the reference q_reduce leaves fixed.
    Theta at the edge e is that of g.with_base(e): the reference filter on
    that graph's own Pic^0, checked the same way."""
    g = LADDER[name]
    tau = spanning_tree_count(g)

    def checked_picard(g, degree):
        reps = representatives(enumerate_picard(g, degree))
        assert len(reps) == tau
        assert all(d.degree == degree and ref.q_reduce(g, d, g.base_head) == d for d in reps)
        return reps

    for degree in (1, g.genus - 1, -2):
        checked_picard(g, degree)
    for e in g.edge_ids:
        rebased = g.with_base(e)
        expected = ref.theta_among(rebased, e, checked_picard(rebased, 0))
        assert representatives(theta_divisor(rebased)) == expected


THETA_RUNGS = {
    "cc5+5": (5, 5),
    "cc6+4": (6, 4),
    "W5": 5,
    "cc6+5": (6, 5),
    "cc7+5": (7, 5),
    "W6": 6,
}


def theta_rung(shape, seed):
    """A relabelled copy (seeded vertex names, edge ids and orientations) of
    the wheel W_shape, or of the n-cycle with chords fixed by shape = (n,
    chords); the base stays a spoke or a cycle edge."""
    if isinstance(shape, int):
        triples, base = wheel_triples(shape), "s0"
    else:
        n, chords = shape
        chord_rng = random.Random(f"cycle-plus-chords-{n}-{chords}")
        triples = [(f"c{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        triples += [(f"h{k}", *(f"v{x}" for x in chord_rng.sample(range(n), 2))) for k in range(chords)]
        base = "c0"
    rng = random.Random(seed)
    verts = sorted({v for _, a, b in triples for v in (a, b)})
    names = [f"x{i}" for i in range(len(verts))]
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    ids = [f"f{i}" for i in range(len(triples))]
    rng.shuffle(ids)
    copy = []
    for (e, a, b), new in zip(triples, ids):
        a, b = rename[a], rename[b]
        if e == base:
            new_base = new
        elif rng.random() < 0.5:
            a, b = b, a
        copy.append((new, a, b))
    return build_graph(copy, new_base)


# Certificate burns of Theta alone on theta_rung(THETA_RUNGS[name], seed)
# for seeds 0-9: the burns that grow levels |s| = 0 to g - 1 of the search,
# before Pic^0 grows level g from Theta's top level.
THETA_BURNS = {
    "W5": (36, 37, 38, 39, 39, 37, 37, 40, 39, 41),
    "W6": (113, 111, 116, 117, 124, 113, 126, 126, 102, 107),
    "cc5+5": (24, 20, 26, 27, 19, 24, 17, 21, 21, 17),
    "cc6+4": (34, 26, 32, 33, 24, 35, 32, 23, 29, 35),
    "cc6+5": (42, 45, 53, 57, 44, 47, 39, 54, 55, 43),
    "cc7+5": (101, 110, 77, 50, 131, 99, 89, 123, 64, 55),
}


@pytest.mark.parametrize("name", sorted(THETA_RUNGS))
def test_search_burns_about_once_per_class(name, monkeypatch):
    """At most 1.5 certificate burns per class of Pic^0.  Theta at the
    default base burns no configuration of size g, and exactly as many as
    the search cut at g - 1 always did; Pic^0 after Theta burns only
    configurations of size g, and Theta after Pic^0 burns nothing."""
    burnt = []
    certify = divisor_module._certify

    def counting(core, s):
        burnt.append(sum(s))
        return certify(core, s)

    monkeypatch.setattr(divisor_module, "_certify", counting)
    for seed in range(10):
        g = theta_rung(THETA_RUNGS[name], seed)
        clear_caches()
        burnt.clear()
        classes = enumerate_picard(g, 0)
        assert len(burnt) <= 1.5 * len(classes)
        pic0_burns = len(burnt)
        burnt.clear()
        theta_divisor(g)
        assert not burnt
        clear_caches()
        theta_divisor(g)
        assert burnt and max(burnt) <= g.genus - 1
        assert len(burnt) == THETA_BURNS[name][seed]
        theta_burns = len(burnt)
        burnt.clear()
        assert enumerate_picard(g, 0) == classes
        assert set(burnt) == {g.genus} and theta_burns + len(burnt) == pic0_burns


class Interrupted(Exception):
    pass


@pytest.mark.parametrize("name", ["W5", "cc6+4"])
def test_interrupted_search_leaves_nothing_half_built(name, monkeypatch):
    """A search stopped part way by an error, in Theta or in Pic^0 after
    Theta, leaves no half-built state behind: once the error is gone, Theta
    and Pic^0 equal the reference."""
    g = theta_rung(THETA_RUNGS[name], 0)
    theta = ref.theta_divisor(g, g.base_edge, 10**6)
    pic0 = ref.enumerate_picard(g, 0, 10**6)
    certify = divisor_module._certify

    def search(after_theta, limit=None):
        """Clear the caches and grow Theta if after_theta; then run Pic^0
        (after_theta) or Theta with `_certify` raising Interrupted at its
        call number `limit`.  Returns the number of calls made."""
        clear_caches()
        if after_theta:
            theta_divisor(g)
        calls = 0

        def failing(core, s):
            nonlocal calls
            if calls == limit:
                raise Interrupted
            calls += 1
            return certify(core, s)

        monkeypatch.setattr(divisor_module, "_certify", failing)
        try:
            enumerate_picard(g, 0) if after_theta else theta_divisor(g)
        finally:
            monkeypatch.setattr(divisor_module, "_certify", certify)
        return calls

    for after_theta in (False, True):
        burns = search(after_theta)
        assert burns > 2
        for limit in (0, 1, burns // 2, burns - 1):
            with pytest.raises(Interrupted):
                search(after_theta, limit)
            assert representatives(theta_divisor(g)) == theta
            assert representatives(enumerate_picard(g, 0)) == pic0


def cleared_in_order(g, order):
    """Representatives from each request of `order` ("theta", or a degree
    for Pic^d) made in that order with every cache cleared first."""
    clear_caches()
    return {
        what: representatives(theta_divisor(g) if what == "theta" else enumerate_picard(g, what))
        for what in order
    }


CALL_ORDERS = (("theta", 0), (0, "theta"), (1, 0, "theta"))


def assert_call_orders_agree(g, pic0=None, pic1=None):
    """Theta, Pic^0 and Pic^1 of g agree whichever is asked for first, and
    with the reference: pic0 and pic1 as ref.enumerate_picard gives them or,
    when not given, checked as in the ladder test (tau distinct degree-d
    divisors that the reference q_reduce leaves fixed)."""
    results = [cleared_in_order(g, order) for order in CALL_ORDERS]
    for got in results[:-1]:
        assert got == {what: results[-1][what] for what in got}
    got = results[-1]
    tau, q0 = spanning_tree_count(g), g.base_head
    for degree, expected in ((0, pic0), (1, pic1)):
        if expected is None:
            assert len(got[degree]) == tau
            assert all(d.degree == degree and ref.q_reduce(g, d, q0) == d for d in got[degree])
        else:
            assert got[degree] == expected
    assert got["theta"] == ref.theta_among(g, g.base_edge, got[0])


@pytest.mark.parametrize("name", sorted(THETA_RUNGS))
def test_call_order_does_not_change_the_classes(name):
    for seed in range(10):
        assert_call_orders_agree(theta_rung(THETA_RUNGS[name], seed))


def test_call_order_does_not_change_the_classes_on_the_catalogue():
    for g in catalogue():
        assert_call_orders_agree(g, ref.enumerate_picard(g, 0, 10**6), ref.enumerate_picard(g, 1, 10**6))


def test_genus_zero_and_one_edge_cases():
    k2 = build_graph([("e", "a", "b")], "e")
    clear_caches()
    assert representatives(enumerate_picard(k2, 0)) == {Divisor(k2)}
    assert representatives(enumerate_picard(k2, 2)) == {Divisor(k2, {"b": 2})}
    digon = build_graph([("e", "a", "b"), ("f", "b", "a")], "e")
    for order in CALL_ORDERS:
        got = cleared_in_order(digon, order)
        assert got["theta"] == {Divisor(digon)}
        assert got[0] == ref.enumerate_picard(digon, 0, 10**6) and len(got[0]) == 2
