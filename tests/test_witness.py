"""The non-rigidity witness by class algebra: differential tests against
the witness as first written (tests/reference_witness.py), the facts of
its proof (the lemma, its burn and the translation of Θ by E_phi), its
refusal to search when they fail, and a ladder of Whitney flips up to 256
vertices."""

import sys

import pytest

import reference_witness as ref
from helpers import catalogue, cycle_plus_chords, two_sum_whitney_flip
from test_structure_reference import _based_morphisms

from rigidlift.divisor import (
    Divisor,
    enumerate_picard,
    in_theta,
    is_effective_class,
    q_reduce,
    theta_divisor,
    vertex_divisor,
)
from rigidlift.errors import EnumerationBoundExceeded, InternalError, QIsEffective
from rigidlift.multigraph import biconnectivity
from rigidlift.orcyc import is_rigid, nonrigidity_witness, pushforward_class, rigidity_divisor


def test_witness_matches_reference(monkeypatch, jk_morphism):
    """On every non-rigid based catalogue morphism and on JK, the library
    witness equals the reference's.  The library enumerates no Θ, so its
    `theta_divisor` fails if called; the reference keeps its own for its
    up-front Θ sets and its fallback."""
    non_rigid = [m for m in _based_morphisms() if not is_rigid(m)]
    assert len(non_rigid) == 917
    _forbid(monkeypatch, sys.modules["rigidlift.orcyc"], "theta_divisor")
    for m in non_rigid + [jk_morphism]:
        assert nonrigidity_witness(m) == ref.nonrigidity_witness(m)


def _forbid(monkeypatch, module, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("called by the witness")

    for name in names:
        monkeypatch.setattr(module, name, forbidden)


def test_witness_enumerates_no_theta_and_builds_no_orientation(monkeypatch, jk_morphism):
    orcyc = sys.modules["rigidlift.orcyc"]
    m = two_sum_whitney_flip(32, 0)
    expected = [nonrigidity_witness(x) for x in (jk_morphism, m)]
    _forbid(monkeypatch, orcyc, "theta_divisor", "pushforward_orientation", "chern_class")
    _forbid(monkeypatch, sys.modules["rigidlift.orientation"], "torsor_act", "lift_divisor_to_orientation")
    assert [nonrigidity_witness(x) for x in (jk_morphism, m)] == expected


def test_lemma_some_vertex_makes_the_class_non_effective():
    """The lemma of `nonrigidity_witness`: on a 2-connected graph of genus
    >= 2, every nonzero degree-0 class E has a vertex v with E + v not
    effective, over all of Pic^0 of every catalogue graph."""
    count = 0
    for g in catalogue():
        assert biconnectivity(g) == (True, True) and g.genus >= 2
        for e in enumerate_picard(g, 0):
            if e.is_zero:
                continue
            d = e.representative
            assert any(not is_effective_class(g, d + vertex_divisor(g, v)) for v in g.vertex_ids)
            count += 1
    assert count == 2258


def test_two_chips_at_a_branch_vertex_are_reduced():
    """The lemma's burn: for w of degree >= 3 and q != w, Dhar's burn from q
    crosses H - w and then w, so 2w - q is q-reduced."""
    graphs = list(catalogue())
    graphs += [cycle_plus_chords(n, c, s) for n in range(4, 9) for c in (1, 2, 3) for s in range(3)]
    pairs = 0
    for h in graphs:
        for w in h.vertex_ids:
            if h.degree(w) < 3:
                continue
            for q in h.vertex_ids:
                if q != w:
                    d = Divisor(h, {w: 2, q: -1})
                    assert q_reduce(h, d, q) == d
                    pairs += 1
    assert pairs == 1840


def test_pushforward_translates_theta_by_the_rigidity_divisor():
    """The translation of `nonrigidity_witness`: phi_*Θ_G = Θ_H + E_phi on
    every based catalogue morphism."""
    morphisms = _based_morphisms()
    assert len(morphisms) == 2509
    for m in morphisms:
        e = rigidity_divisor(m)
        pushed = {pushforward_class(m, s) for s in theta_divisor(m.source)}
        assert pushed == {t + e for t in theta_divisor(m.target)}


def test_witness_raises_rather_than_search(monkeypatch, jk_morphism):
    """With every E_phi + v taken for effective, against the lemma, the
    witness raises InternalError and enumerates no Θ; so it does where a
    candidate fails `in_theta`."""
    orcyc = sys.modules["rigidlift.orcyc"]
    _forbid(monkeypatch, orcyc, "theta_divisor")

    def effective(g, q):
        raise QIsEffective("taken for effective")

    m = two_sum_whitney_flip(32, 0)
    with monkeypatch.context() as patch:
        patch.setattr(orcyc, "extend_to_nonspecial", effective)
        for x in (jk_morphism, m):
            with pytest.raises(InternalError, match="against the lemma"):
                nonrigidity_witness(x)
    monkeypatch.setattr(orcyc, "in_theta", lambda g, cls: False)
    for x in (jk_morphism, m):
        with pytest.raises(InternalError, match="failed verification"):
            nonrigidity_witness(x)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_witness_ladder_of_whitney_flips(n):
    m = two_sum_whitney_flip(n, 0)
    g, h = m.source, m.target
    assert len(g.vertices) == n and not is_rigid(m)
    if n == 32:
        # Θ is out of reach of the default bound from here on.
        with pytest.raises(EnumerationBoundExceeded):
            theta_divisor(g)
    s, image = nonrigidity_witness(m)
    assert in_theta(g, s) and not in_theta(h, image)
    assert pushforward_class(m, s) == image
