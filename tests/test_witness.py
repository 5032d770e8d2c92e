"""The non-rigidity witness by class algebra: differential tests against
the witness as first written (tests/reference_witness.py), the Θ-free
path, its fallback and a ladder of Whitney flips up to 256 vertices."""

import sys

import pytest

import reference_witness as ref
from helpers import two_sum_whitney_flip
from test_structure_reference import _based_morphisms

from rigidlift.divisor import in_theta, theta_divisor
from rigidlift.errors import EnumerationBoundExceeded, QIsEffective
from rigidlift.orcyc import is_rigid, nonrigidity_witness, pushforward_class


def test_witness_matches_reference(monkeypatch, jk_morphism):
    """On every non-rigid based catalogue morphism and on JK, the library
    witness equals the reference's, and none reaches the fallback: the
    library's Θ enumeration fails if called, while the reference keeps its
    own."""
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


def test_fallback_searches_source_theta_under_the_bound(monkeypatch, jk_morphism):
    # With every q = E_phi + v taken for effective, both versions fall back
    # to the search over Θ of the source, in the same order.
    def effective(g, q):
        raise QIsEffective("taken for effective")

    monkeypatch.setattr(sys.modules["rigidlift.orcyc"], "extend_to_nonspecial", effective)
    monkeypatch.setattr(ref, "is_effective_class", lambda g, d: True)
    for m in [m for m in _based_morphisms()[:400] if not is_rigid(m)] + [jk_morphism]:
        s, image = nonrigidity_witness(m)
        assert (s, image) == ref.nonrigidity_witness(m)
        assert in_theta(m.source, s) and not in_theta(m.target, image)
    with pytest.raises(EnumerationBoundExceeded):
        nonrigidity_witness(jk_morphism, max_classes=1)


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
